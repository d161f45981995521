//! Tenants and the priority-weighting fairness layer.
//!
//! Fairness is layered *under* the scheduler, not inside it: at
//! admission time every task of a sub-DAG gets an **effective user
//! priority** — its own priority scaled by the tenant's weight and
//! boosted by starvation aging — written through the normal
//! `user_priority` channel. Any priority-bucketing policy (`prio`,
//! `dmdas`, the relaxed multi-queue's `score_key`) then enforces the
//! weighting without knowing tenants exist; affinity-scored policies
//! (MultiPrio's gain heaps) still see the weighting wherever they
//! consult the priority. Because the computation uses only virtual-time
//! quantities it is bit-deterministic under `serve_sim`.

/// Priority buckets per unit of weighted priority: the weighted score
/// is quantized to `PRIORITY_RESOLUTION` steps, so weights closer than
/// `1/PRIORITY_RESOLUTION` collapse into the same bucket.
pub const PRIORITY_RESOLUTION: i64 = 8;

/// One tenant (client) of the serving mode.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Display name (report rows).
    pub name: String,
    /// Fair-share weight; 1.0 is the neutral share. A weight-2 tenant's
    /// tasks land [`PRIORITY_RESOLUTION`] buckets above a neutral
    /// tenant's per unit of `base + 1` (see [`effective_priority`]).
    pub weight: f64,
}

impl TenantSpec {
    /// A tenant with the given fair-share weight.
    pub fn new(name: impl Into<String>, weight: f64) -> Self {
        Self {
            name: name.into(),
            weight,
        }
    }

    /// `n` equal-weight tenants named `t0..t{n-1}`.
    pub fn equal(n: usize) -> Vec<Self> {
        (0..n).map(|i| Self::new(format!("t{i}"), 1.0)).collect()
    }
}

/// Knobs of the fairness layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FairnessConfig {
    /// Starvation aging: a tenant with in-flight work but no completion
    /// for `aging_quantum_us` of virtual time gets +1 priority bucket
    /// per elapsed quantum on its next admitted sub-DAG.
    pub aging_quantum_us: f64,
    /// Cap on the aging boost (buckets), so a starved background tenant
    /// cannot leapfrog arbitrarily far.
    pub max_aging_boost: i64,
}

impl Default for FairnessConfig {
    fn default() -> Self {
        Self {
            aging_quantum_us: 50_000.0,
            max_aging_boost: 4,
        }
    }
}

impl FairnessConfig {
    /// The aging boost (in buckets) for a tenant whose oldest unserved
    /// progress mark is `age_us` old. Returns 0 with a non-positive
    /// quantum (aging disabled).
    pub fn aging_boost(&self, age_us: f64) -> i64 {
        if self.aging_quantum_us <= 0.0 || age_us <= 0.0 {
            return 0;
        }
        ((age_us / self.aging_quantum_us) as i64).min(self.max_aging_boost)
    }
}

/// The effective user priority of a task admitted for a tenant.
///
/// `(base + 1)` keeps the weight visible at the common `base == 0`: the
/// neutral tenant lands at exactly [`PRIORITY_RESOLUTION`], a weight-2
/// tenant at twice that. Scaling *before* quantization is the "weight
/// scales the priority score before bucketing" contract: two tenants
/// whose weighted scores quantize equally share a bucket and fall back
/// to submission order.
pub fn effective_priority(base: i64, weight: f64, boost: i64) -> i64 {
    let scaled = (base as f64 + 1.0) * weight * PRIORITY_RESOLUTION as f64;
    scaled.round() as i64 + boost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_scales_before_bucketing() {
        // Neutral tenant at base 0 → exactly one resolution unit.
        assert_eq!(effective_priority(0, 1.0, 0), PRIORITY_RESOLUTION);
        // Double weight → double bucket.
        assert_eq!(effective_priority(0, 2.0, 0), 2 * PRIORITY_RESOLUTION);
        // Weight scales the *score*, so higher base amplifies the gap.
        let a = effective_priority(3, 2.0, 0);
        let b = effective_priority(3, 1.0, 0);
        assert!(a - b > PRIORITY_RESOLUTION);
        // Sub-resolution weight differences collapse into one bucket.
        assert_eq!(
            effective_priority(0, 1.0, 0),
            effective_priority(0, 1.04, 0)
        );
    }

    #[test]
    fn aging_boost_is_quantized_and_capped() {
        let f = FairnessConfig {
            aging_quantum_us: 100.0,
            max_aging_boost: 3,
        };
        assert_eq!(f.aging_boost(0.0), 0);
        assert_eq!(f.aging_boost(99.0), 0);
        assert_eq!(f.aging_boost(100.0), 1);
        assert_eq!(f.aging_boost(250.0), 2);
        assert_eq!(f.aging_boost(1e9), 3);
        let off = FairnessConfig {
            aging_quantum_us: 0.0,
            ..f
        };
        assert_eq!(off.aging_boost(1e9), 0);
    }

    #[test]
    fn boost_adds_buckets() {
        assert_eq!(
            effective_priority(0, 1.0, 2),
            effective_priority(0, 1.0, 0) + 2
        );
    }
}
