//! Admission control: bounded in-flight work with typed backpressure.
//!
//! The serving mode is **open-loop**: arrivals keep coming whether or
//! not the system keeps up. The admission controller bounds the damage
//! with a high-water mark on in-flight (admitted but not completed)
//! tasks — globally and optionally per tenant. A submission that would
//! overflow either bound is rejected *whole* with a typed error; its
//! staged sub-DAG is discarded before touching the graph
//! (`mp_dag::SubmissionStage` drop semantics), so a rejection can
//! never strand a dependency of something already admitted. Decisions
//! use only counters of virtual-time state, so under `mp_sim::serve_sim` the
//! accept/reject sequence is bit-deterministic.

use std::fmt;

/// Bounds enforced at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// High-water mark on in-flight tasks across all tenants. A
    /// submission is rejected when admitting it would push the total
    /// past this bound.
    pub max_in_flight: usize,
    /// Optional per-tenant in-flight bound (a tenant's private queue
    /// depth); `None` disables the per-tenant check.
    pub max_tenant_in_flight: Option<usize>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_in_flight: 4096,
            max_tenant_in_flight: None,
        }
    }
}

impl AdmissionConfig {
    /// Decide one submission of `staged` tasks for `tenant`, given the
    /// current global and per-tenant in-flight counts.
    pub fn check(
        &self,
        tenant: usize,
        staged: usize,
        in_flight: usize,
        tenant_in_flight: usize,
    ) -> Result<(), AdmitError> {
        if in_flight + staged > self.max_in_flight {
            return Err(AdmitError::Backpressure {
                tenant,
                staged,
                in_flight,
                high_water: self.max_in_flight,
            });
        }
        if let Some(cap) = self.max_tenant_in_flight {
            if tenant_in_flight + staged > cap {
                return Err(AdmitError::TenantBackpressure {
                    tenant,
                    staged,
                    tenant_in_flight,
                    high_water: cap,
                });
            }
        }
        Ok(())
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The global in-flight high-water mark would be exceeded.
    Backpressure {
        /// Submitting tenant.
        tenant: usize,
        /// Tasks in the rejected sub-DAG.
        staged: usize,
        /// In-flight tasks at decision time.
        in_flight: usize,
        /// The configured global bound.
        high_water: usize,
    },
    /// The tenant's own in-flight bound would be exceeded.
    TenantBackpressure {
        /// Submitting tenant.
        tenant: usize,
        /// Tasks in the rejected sub-DAG.
        staged: usize,
        /// The tenant's in-flight tasks at decision time.
        tenant_in_flight: usize,
        /// The configured per-tenant bound.
        high_water: usize,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Backpressure {
                tenant,
                staged,
                in_flight,
                high_water,
            } => write!(
                f,
                "backpressure: tenant {tenant} submission of {staged} task(s) rejected \
                 ({in_flight} in flight, high-water {high_water})"
            ),
            AdmitError::TenantBackpressure {
                tenant,
                staged,
                tenant_in_flight,
                high_water,
            } => write!(
                f,
                "tenant backpressure: tenant {tenant} submission of {staged} task(s) rejected \
                 ({tenant_in_flight} of its tasks in flight, per-tenant high-water {high_water})"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_high_water_rejects_whole_submissions() {
        let cfg = AdmissionConfig {
            max_in_flight: 10,
            max_tenant_in_flight: None,
        };
        assert!(cfg.check(0, 4, 6, 6).is_ok());
        let err = cfg.check(1, 5, 6, 0).unwrap_err();
        assert_eq!(
            err,
            AdmitError::Backpressure {
                tenant: 1,
                staged: 5,
                in_flight: 6,
                high_water: 10
            }
        );
        assert!(err.to_string().contains("high-water 10"));
    }

    #[test]
    fn per_tenant_bound_is_independent_of_global() {
        let cfg = AdmissionConfig {
            max_in_flight: 100,
            max_tenant_in_flight: Some(3),
        };
        assert!(cfg.check(0, 3, 50, 0).is_ok());
        assert!(matches!(
            cfg.check(0, 2, 50, 2),
            Err(AdmitError::TenantBackpressure { high_water: 3, .. })
        ));
    }
}
