//! Simulation configuration.

use mp_fault::{FaultPlan, RetryPolicy};

/// Knobs of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// RNG seed (noise and nothing else).
    pub seed: u64,
    /// Coefficient of variation of the log-normal execution-time noise;
    /// `0.0` (default) makes execution fully deterministic and exact.
    pub noise_cv: f64,
    /// Record a full `mp-trace` trace (slightly more memory; keep on
    /// unless simulating >1e6 tasks) and validate it after a successful
    /// run: every task ran once, no precedence violation, no worker
    /// overlap. Validation costs O(tasks + edges): the engine records
    /// each worker's spans already in order.
    pub record_trace: bool,
    /// Deterministic fault injection: worker kills (virtual-time
    /// mirror of the runtime's) and per-attempt transient execution
    /// failures. The default injects nothing; slow/stall/panic knobs are
    /// wall-clock effects and only apply to the threaded runtime.
    pub faults: FaultPlan,
    /// Retry budget for transient failures. The default (one attempt,
    /// no backoff) aborts on the first failure, exactly as before retry
    /// support existed.
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            noise_cv: 0.0,
            record_trace: true,
            faults: FaultPlan::default(),
            retry: RetryPolicy::default(),
        }
    }
}

impl SimConfig {
    /// Deterministic default with a specific seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Add log-normal noise with the given coefficient of variation.
    pub fn with_noise(mut self, cv: f64) -> Self {
        assert!((0.0..1.0).contains(&cv), "noise cv must be in [0,1)");
        self.noise_cv = cv;
        self
    }

    /// Inject the given fault plan (kills and transient failures).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Retry failed attempts under the given policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_deterministic() {
        let c = SimConfig::default();
        assert_eq!(c.noise_cv, 0.0);
        assert!(c.record_trace);
    }

    #[test]
    #[should_panic(expected = "noise cv")]
    fn rejects_absurd_noise() {
        let _ = SimConfig::default().with_noise(1.5);
    }
}
