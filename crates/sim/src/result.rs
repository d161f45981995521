//! Simulation results and aggregate statistics.

use std::sync::OnceLock;

use mp_cache::PersistStats;
use mp_platform::types::Platform;
use mp_trace::{AuditRecord, CounterSnapshot, LatencyStats, RuntimeEvent, Trace, TransferKind};

use crate::error::SimError;

/// Aggregate counts of one run, recorded whatever the build's features.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Tasks executed.
    pub tasks: usize,
    /// Bytes moved on demand (blocking a task start).
    pub demand_bytes: u64,
    /// Bytes moved by prefetch requests.
    pub prefetch_bytes: u64,
    /// Bytes written back due to memory-capacity eviction.
    pub writeback_bytes: u64,
    /// Number of memory-capacity evictions.
    pub capacity_evictions: u64,
    /// Scheduler pop calls that returned no task.
    pub empty_pops: u64,
    /// Workers killed by the fault plan.
    pub worker_failures: u64,
    /// Failed execution attempts re-enqueued for retry.
    pub tasks_retried: u64,
    /// Completed tasks re-executed to regenerate replicas lost with a
    /// failed node.
    pub tasks_recomputed: u64,
    /// Surviving replicas promoted to sole-valid after a node loss.
    pub replicas_promoted: u64,
    /// Tasks served from the result cache (execution skipped).
    pub cache_hits: u64,
    /// Cache probes that found no verified entry (task executed).
    pub cache_misses: u64,
    /// Cache entries evicted on fingerprint mismatch (also misses).
    pub cache_invalidations: u64,
    /// Output bytes materialized directly from the cache on hits.
    pub bytes_materialized: u64,
    /// Cache entries evicted by the byte-capacity bound during this run
    /// (capacity pressure, not correctness — see `cache_invalidations`).
    pub cache_evictions: u64,
    /// The cache's persistence traffic during this run (all zero without
    /// a persistence directory).
    pub persist: PersistStats,
}

/// Per-tenant outcome of a serving run.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Tenant display name.
    pub name: String,
    /// Fair-share weight the run used.
    pub weight: f64,
    /// Whole sub-DAG submissions admitted.
    pub subdags_admitted: u64,
    /// Submissions rejected with backpressure.
    pub subdags_rejected: u64,
    /// Tasks admitted (sum over admitted sub-DAGs).
    pub tasks_admitted: u64,
    /// Tasks that completed execution.
    pub tasks_completed: u64,
    /// Completions served from the result cache (a subset of
    /// `tasks_completed`): the task never entered the scheduler and
    /// contributes no latency sample.
    pub cache_hits: u64,
    /// Scheduling latency (ready → popped) of this tenant's tasks.
    pub latency: LatencyStats,
}

/// What a serving stream adds to a run's result.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Arrival process spec (`ArrivalProcess::label`).
    pub arrivals: String,
    /// Scheduling decisions made (successful pops).
    pub decisions: u64,
    /// Tasks admitted across all tenants.
    pub tasks_admitted: u64,
    /// Whole sub-DAG submissions admitted.
    pub subdags_admitted: u64,
    /// Submissions rejected with typed backpressure.
    pub subdags_rejected: u64,
    /// Scheduling latency over every admitted task: the virtual-time
    /// span from a task becoming ready (all predecessors done) to the
    /// scheduler handing it to a worker.
    pub latency: LatencyStats,
    /// Every latency sample in µs, in decision order — exact percentile
    /// computation and bit-exact repeat comparison.
    pub samples_us: Vec<u64>,
    /// Per-tenant breakdown (fairness accounting).
    pub tenants: Vec<TenantStats>,
    /// FNV-1a over the (task, worker, decision-time) sequence —
    /// the determinism fingerprint of the whole schedule.
    pub schedule_hash: u64,
    /// Sorted copy of `samples_us`, built once on the first percentile
    /// query and reused by every later one (a result is read many
    /// times; `samples_us` itself stays in decision order for bit-exact
    /// repeat comparison).
    pub(crate) sorted: OnceLock<Vec<u64>>,
}

impl ServeStats {
    /// Sustained scheduling throughput in decisions per virtual second
    /// of a run lasting `makespan_us`.
    pub fn decisions_per_sec(&self, makespan_us: f64) -> f64 {
        if makespan_us <= 0.0 {
            return 0.0;
        }
        self.decisions as f64 / (makespan_us / 1e6)
    }

    /// Exact latency percentile (nearest-rank) in µs; 0 when empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.samples_us.is_empty() {
            return 0;
        }
        let sorted = self.sorted.get_or_init(|| {
            let mut s = self.samples_us.clone();
            s.sort_unstable();
            s
        });
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Median scheduling latency in µs.
    pub fn p50_us(&self) -> u64 {
        self.percentile_us(0.50)
    }

    /// Tail scheduling latency in µs.
    pub fn p99_us(&self) -> u64 {
        self.percentile_us(0.99)
    }
}

/// Everything a simulation run produces, closed or served.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Name of the scheduler that ran.
    pub scheduler: String,
    /// Total completion time in µs.
    pub makespan: f64,
    /// Full execution trace (empty when `record_trace` was off).
    pub trace: Trace,
    /// Aggregate counters.
    pub stats: SimStats,
    /// Why the run stopped early, if it did. `None` means every task
    /// executed. Former `panic!` abort paths (incapable worker, missing
    /// replica, out-of-memory, deadlock) land here instead, with the
    /// trace and stats up to the failure preserved for diagnosis.
    pub error: Option<SimError>,
    /// Invariant violations found by the auditor. Always empty unless
    /// the crate is built with `--features audit` (the checks compile to
    /// nothing otherwise).
    pub audit: Vec<AuditRecord>,
    /// The policy's and the engine's internal counters (pops, pushes,
    /// prefetch fates, hold-backs, ...), merged at quiesce. Empty unless
    /// the crate is built with `--features obs`; every run fact lives on
    /// `stats` and `serving` instead.
    pub counters: CounterSnapshot,
    /// Cache hit / invalidation instants for the Chrome-trace timeline.
    /// Empty without a cache or with `record_trace` off.
    pub cache_events: Vec<RuntimeEvent>,
    /// The stream's admission, latency and fairness ledgers on a serving
    /// run (`serve_sim`); `None` on a closed one.
    pub serving: Option<ServeStats>,
}

impl SimResult {
    /// Did the run execute every task without error — on a serving run,
    /// every admitted one?
    pub fn is_complete(&self) -> bool {
        self.error.is_none()
            && self
                .serving
                .as_ref()
                .is_none_or(|s| s.tasks_admitted == self.stats.tasks as u64)
    }

    /// The result, or the typed error if the run stopped early.
    pub fn ok(self) -> Result<SimResult, SimError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self),
        }
    }

    /// Achieved throughput in GFlop/s for a graph of `total_flops`.
    pub fn gflops(&self, total_flops: f64) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        total_flops / (self.makespan * 1e3) // flops per µs → GFlop/s
    }

    /// Idle percentage of one architecture (needs the trace).
    pub fn arch_idle_pct(&self, platform: &Platform, arch_name: &str) -> Option<f64> {
        let arch = platform.archs().iter().find(|a| a.name == arch_name)?;
        Some(mp_trace::analysis::arch_idle_pct(
            &self.trace,
            platform,
            arch.id,
        ))
    }

    /// Total bytes transferred of a kind (from the trace).
    pub fn transferred(&self, kind: TransferKind) -> u64 {
        self.trace.bytes_transferred(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_conversion() {
        let r = SimResult {
            scheduler: "x".into(),
            makespan: 1e6, // 1 second
            trace: Trace::new(0),
            stats: SimStats::default(),
            error: None,
            audit: Vec::new(),
            counters: CounterSnapshot::default(),
            cache_events: Vec::new(),
            serving: None,
        };
        // 2e9 flops in 1 s = 2 GFlop/s.
        assert!((r.gflops(2e9) - 2.0).abs() < 1e-12);
        assert!(r.is_complete());
        let zero = SimResult { makespan: 0.0, ..r };
        assert_eq!(zero.gflops(1.0), 0.0);
    }

    #[test]
    fn ok_surfaces_the_error() {
        let r = SimResult {
            scheduler: "x".into(),
            makespan: 0.0,
            trace: Trace::new(0),
            stats: SimStats::default(),
            error: Some(crate::SimError::Deadlock {
                completed: 0,
                total: 1,
                pending: 1,
                stuck: vec![],
            }),
            audit: Vec::new(),
            counters: CounterSnapshot::default(),
            cache_events: Vec::new(),
            serving: None,
        };
        assert!(!r.is_complete());
        assert!(matches!(r.ok(), Err(crate::SimError::Deadlock { .. })));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = ServeStats {
            samples_us: (1..=100).rev().collect(),
            ..ServeStats::default()
        };
        assert_eq!(r.p50_us(), 50);
        assert_eq!(r.p99_us(), 99);
        assert_eq!(r.percentile_us(1.0), 100);
        assert_eq!(ServeStats::default().p99_us(), 0);
    }

    #[test]
    fn percentiles_sort_once_and_leave_samples_untouched() {
        let r = ServeStats {
            samples_us: vec![30, 10, 50, 20, 40],
            ..ServeStats::default()
        };
        // Repeated and interleaved queries agree with nearest-rank over
        // a fresh sort every time...
        for _ in 0..3 {
            assert_eq!(r.p50_us(), 30);
            assert_eq!(r.percentile_us(0.2), 10);
            assert_eq!(r.percentile_us(1.0), 50);
        }
        // ...while the raw sample order (the repeat-comparison surface)
        // is untouched and exactly one sorted copy exists.
        assert_eq!(r.samples_us, vec![30, 10, 50, 20, 40]);
        assert_eq!(r.sorted.get().unwrap(), &vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn throughput_guards_zero_makespan() {
        let mut r = ServeStats::default();
        assert_eq!(r.decisions_per_sec(0.0), 0.0);
        r.decisions = 500;
        assert!((r.decisions_per_sec(2e6) - 250.0).abs() < 1e-9);
    }
}
