//! MultiPrio configuration knobs.

use crate::energy::EnergyPolicy;

/// Tunables of the MultiPrio scheduler.
///
/// Defaults follow the paper's experimental section: `n = 10`,
/// `ε = 0.8` ("we empirically set the hyperparameters of the data
/// locality heuristic as n = 10 and ε = 0.8"), eviction on. The boolean
/// switches exist for the Fig. 4 ablation and the design-choice ablation
/// benches listed in DESIGN.md §10.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MultiPrioConfig {
    /// Locality window: the POP inspects the first `n` tasks of the heap.
    pub locality_window: usize,
    /// Score threshold ε: only tasks whose gain is within ε of the top
    /// entry's gain compete on locality.
    pub epsilon: f64,
    /// Maximum POP attempts before giving up (Algorithm 2's MAX_TRIES).
    pub max_tries: usize,
    /// Enable the eviction mechanism / pop condition (Sec. V-D).
    pub eviction: bool,
    /// Enable the LS_SDH² locality selection (Sec. V-C); when off, POP
    /// takes the heap top directly.
    pub use_locality: bool,
    /// Enable the NOD criticality tie-break (Sec. V-B); when off, the
    /// second score is 0 for every task.
    pub use_criticality: bool,
    /// Pop condition compares the *per-worker* backlog of the best
    /// architecture (`best_remaining_work[m] / |P_m|`) against the
    /// candidate's local execution time — the paper's "the best worker is
    /// sufficiently busy" test. Default on; `false` compares the raw node
    /// total (ablation `multiprio-brwtotal`).
    pub brw_per_worker: bool,
    /// Energy-aware pop condition (paper Sec. VII future work): when set,
    /// a non-best worker must additionally pass the policy's energy test.
    pub energy: Option<EnergyPolicy>,
}

impl Default for MultiPrioConfig {
    fn default() -> Self {
        Self {
            locality_window: 10,
            epsilon: 0.8,
            max_tries: 8,
            eviction: true,
            use_locality: true,
            use_criticality: true,
            brw_per_worker: true,
            energy: None,
        }
    }
}

impl MultiPrioConfig {
    /// The Fig. 4 ablation: everything on except the eviction mechanism.
    pub fn without_eviction() -> Self {
        Self {
            eviction: false,
            ..Self::default()
        }
    }

    /// Ablation: no locality selection.
    pub fn without_locality() -> Self {
        Self {
            use_locality: false,
            ..Self::default()
        }
    }

    /// Ablation: no criticality tie-break.
    pub fn without_criticality() -> Self {
        Self {
            use_criticality: false,
            ..Self::default()
        }
    }

    /// Ablation: pop condition on the raw node backlog instead of the
    /// per-worker backlog.
    pub fn with_total_brw() -> Self {
        Self {
            brw_per_worker: false,
            ..Self::default()
        }
    }

    /// Extension: energy-aware pop condition with the default policy.
    pub fn energy_aware() -> Self {
        Self {
            energy: Some(EnergyPolicy::default()),
            ..Self::default()
        }
    }

    /// Validate ranges (ε in \[0,1\], window ≥ 1, tries ≥ 1).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.epsilon) {
            return Err(format!("epsilon {} outside [0,1]", self.epsilon));
        }
        if self.locality_window == 0 {
            return Err("locality_window must be >= 1".into());
        }
        if self.max_tries == 0 {
            return Err("max_tries must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MultiPrioConfig::default();
        assert_eq!(c.locality_window, 10);
        assert!((c.epsilon - 0.8).abs() < 1e-12);
        assert!(c.eviction);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ablations() {
        assert!(!MultiPrioConfig::without_eviction().eviction);
        assert!(!MultiPrioConfig::without_locality().use_locality);
        assert!(!MultiPrioConfig::without_criticality().use_criticality);
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let mut c = MultiPrioConfig {
            epsilon: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = MultiPrioConfig {
            locality_window: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = MultiPrioConfig {
            max_tries: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
