//! Scheduler/runtime observability: counters and runtime events.
//!
//! Two layers, deliberately split so the hot paths stay free of `#[cfg]`
//! noise:
//!
//! * [`CounterSnapshot`] — a plain, always-compiled aggregate of every
//!   counter the stack knows about. Engines and schedulers return one
//!   from their `counters()` hooks; snapshots [`merge`](CounterSnapshot::merge)
//!   associatively, so per-worker / per-shard cells fold into one report.
//! * [`ObsCell`] — the recording cell call sites bump. With the `obs`
//!   feature it is an array of relaxed [`AtomicU64`]s (lock-free, shared
//!   across worker threads); without it, a zero-sized type whose methods
//!   are inlined no-ops, so the default build pays nothing (enforced by
//!   `tests/alloc_free.rs` and the bench determinism gate).
//!
//! Counter semantics (see DESIGN.md §8):
//!
//! * `pops` counts **successful** pops — an idle poll that returns
//!   `None` is not a pop (the simulator reports those separately as
//!   `SimStats::empty_pops`), so `pops == tasks executed` on any clean
//!   run.
//! * `steals[i]` counts tasks taken from shard `i` by a worker whose
//!   home shard is *not* `i`; `shard_pops[i]` counts every task taken
//!   from shard `i`, so `steals[i] <= shard_pops[i]` always.
//! * `arena_hits + arena_misses == estimator_consults`: every
//!   push-plan-arena lookup either reuses a cached plan (hit) or
//!   recomputes it through the estimator (miss).

#[cfg(feature = "obs")]
use std::sync::atomic::{AtomicU64, Ordering};

/// Index of one scalar counter inside an [`ObsCell`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Successful pops (a task handed to a worker).
    Pops,
    /// Tasks pushed into a scheduler.
    Pushes,
    /// Pop-condition hold-backs (task left for a better worker).
    Holds,
    /// Eviction-mechanism re-routings (task yanked from an ill-suited
    /// worker's node heap).
    Evictions,
    /// Push-plan-arena lookups served from the cache.
    ArenaHits,
    /// Push-plan-arena lookups that recomputed the plan.
    ArenaMisses,
    /// Estimator consultations (arena lookups, hit or miss).
    EstimatorConsults,
    /// `ScoredHeap` lazy-deletion compaction sweeps.
    HeapCompactions,
    /// Prefetch requests that produced a transfer.
    PrefetchesIssued,
    /// Prefetch requests dropped (disabled, already resident, no clean
    /// room, no source replica).
    PrefetchesCancelled,
    /// Workers lost to an injected or detected failure.
    WorkerFailures,
    /// Failed execution attempts re-enqueued for retry.
    TasksRetried,
    /// Completed tasks re-executed to regenerate lost replicas.
    TasksRecomputed,
    /// Surviving replicas promoted to sole-valid after a node loss.
    ReplicasPromoted,
    /// Tasks served from the result cache (execution skipped).
    CacheHits,
    /// Cache probes that found no verified entry (task executed and the
    /// cache was populated).
    CacheMisses,
    /// Cache entries evicted because their stored fingerprint did not
    /// match the probe (stale / poisoned / collision) — always also
    /// counted as a miss.
    CacheInvalidations,
    /// Output bytes materialized directly from the cache on hits.
    BytesMaterialized,
    /// Result-cache entries evicted (or refused) by the byte-capacity
    /// bound — a capacity signal, distinct from `CacheInvalidations`
    /// (which are correctness evictions on fingerprint mismatch).
    CacheEvictions,
    /// Result-cache records fully committed to the persistent segment
    /// log (zero when no persistence directory is attached).
    CachePersistWrites,
    /// Result-cache records accepted from disk by a segment replay.
    CacheLoaded,
    /// Result-cache records rejected by a recovery rule during replay
    /// (torn tail, bad checksum, missing commit marker, forged key) —
    /// `loaded + rejects` equals the records scanned on open.
    CacheLoadRejects,
    /// Persistent-log snapshot compactions completed.
    CacheCompactions,
}

/// Number of scalar counters (length of an [`ObsCell`]'s array).
pub const COUNTER_COUNT: usize = 23;

/// Aggregated counter values, as returned by `Scheduler::counters()`
/// and surfaced on `SimResult` / `RunReport`.
///
/// Always compiled; with the `obs` feature off every field stays at its
/// default (zero / empty).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Successful pops (== tasks executed on a clean run).
    pub pops: u64,
    /// Tasks pushed.
    pub pushes: u64,
    /// Pop-condition hold-backs.
    pub holds: u64,
    /// Eviction-mechanism re-routings.
    pub evictions: u64,
    /// Push-plan-arena cache hits.
    pub arena_hits: u64,
    /// Push-plan-arena cache misses (plan recomputed).
    pub arena_misses: u64,
    /// Estimator consultations (`arena_hits + arena_misses`).
    pub estimator_consults: u64,
    /// `ScoredHeap` compaction sweeps.
    pub heap_compactions: u64,
    /// Prefetches that produced a transfer.
    pub prefetches_issued: u64,
    /// Prefetches dropped before transferring.
    pub prefetches_cancelled: u64,
    /// Workers lost to failures.
    pub worker_failures: u64,
    /// Failed attempts re-enqueued for retry.
    pub tasks_retried: u64,
    /// Tasks re-executed for replica recovery.
    pub tasks_recomputed: u64,
    /// Replicas promoted after a node loss.
    pub replicas_promoted: u64,
    /// Tasks served from the result cache.
    pub cache_hits: u64,
    /// Cache probes that executed (no verified entry).
    pub cache_misses: u64,
    /// Entries evicted on fingerprint mismatch.
    pub cache_invalidations: u64,
    /// Output bytes materialized from the cache.
    pub bytes_materialized: u64,
    /// Result-cache entries evicted by the byte-capacity bound.
    pub cache_evictions: u64,
    /// Records committed to the persistent cache log this run.
    pub cache_persist_writes: u64,
    /// Records accepted from disk by segment replay this run.
    pub cache_loaded: u64,
    /// Records rejected by a recovery rule this run.
    pub cache_load_rejects: u64,
    /// Persistent-log compactions this run.
    pub cache_compactions: u64,
    /// Per-tenant admitted tasks (serving mode; indexed by tenant, empty
    /// outside it).
    pub tenant_admitted: Vec<u64>,
    /// Per-tenant submissions rejected by admission control.
    pub tenant_rejected: Vec<u64>,
    /// Per-tenant completed tasks.
    pub tenant_completed: Vec<u64>,
    /// Per-tenant completions served from the result cache (warm
    /// serving; a subset of `tenant_completed`).
    pub tenant_cache_hits: Vec<u64>,
    /// Per-shard stolen pops (empty for non-sharded front-ends).
    pub steals: Vec<u64>,
    /// Per-shard total pops (empty for non-sharded front-ends). For the
    /// relaxed multi-queue this has one entry per sequential queue
    /// (`c·P` entries), so its length may differ from the worker count.
    pub shard_pops: Vec<u64>,
    /// Try-lock acquisitions that failed and fell through to another
    /// queue (relaxed multi-queue front-end only).
    pub failed_trylocks: u64,
    /// Largest rank inversion observed by a relaxed pop: how many
    /// strictly-better tasks were pending when the popped task was
    /// chosen. Merged by `max`, not sum.
    pub rank_max: u64,
    /// Rank-inversion histogram with exponential buckets: index 0 counts
    /// exact pops (rank 0), index `i >= 1` counts pops whose rank fell
    /// in `[2^(i-1), 2^i)`.
    pub rank_hist: Vec<u64>,
}

impl CounterSnapshot {
    /// Fold `other` into `self` (element-wise sum; shard vectors are
    /// zero-extended to the longer length).
    pub fn merge(&mut self, other: &CounterSnapshot) {
        self.pops += other.pops;
        self.pushes += other.pushes;
        self.holds += other.holds;
        self.evictions += other.evictions;
        self.arena_hits += other.arena_hits;
        self.arena_misses += other.arena_misses;
        self.estimator_consults += other.estimator_consults;
        self.heap_compactions += other.heap_compactions;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetches_cancelled += other.prefetches_cancelled;
        self.worker_failures += other.worker_failures;
        self.tasks_retried += other.tasks_retried;
        self.tasks_recomputed += other.tasks_recomputed;
        self.replicas_promoted += other.replicas_promoted;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.bytes_materialized += other.bytes_materialized;
        self.cache_evictions += other.cache_evictions;
        self.cache_persist_writes += other.cache_persist_writes;
        self.cache_loaded += other.cache_loaded;
        self.cache_load_rejects += other.cache_load_rejects;
        self.cache_compactions += other.cache_compactions;
        merge_vec(&mut self.tenant_admitted, &other.tenant_admitted);
        merge_vec(&mut self.tenant_rejected, &other.tenant_rejected);
        merge_vec(&mut self.tenant_completed, &other.tenant_completed);
        merge_vec(&mut self.tenant_cache_hits, &other.tenant_cache_hits);
        merge_vec(&mut self.steals, &other.steals);
        merge_vec(&mut self.shard_pops, &other.shard_pops);
        self.failed_trylocks += other.failed_trylocks;
        // A maximum over disjoint observation windows is the max of the
        // per-window maxima — summing would overstate the bound.
        self.rank_max = self.rank_max.max(other.rank_max);
        merge_vec(&mut self.rank_hist, &other.rank_hist);
    }

    /// All counters at zero (the obs-off rendering).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Total steals across shards.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }

    /// One-line human rendering for reports and logs.
    pub fn render(&self) -> String {
        format!(
            "pops={} pushes={} holds={} evictions={} arena={}/{} (consults={}) \
             compactions={} prefetch={}+{}cancelled failures={} retried={} \
             recomputed={} promoted={} cache={}hit/{}miss/{}inval/{}evict ({}B) \
             persist={}w/{}ld/{}rej/{}cmp trylock_fails={} rank_max={} steals={:?}",
            self.pops,
            self.pushes,
            self.holds,
            self.evictions,
            self.arena_hits,
            self.arena_misses,
            self.estimator_consults,
            self.heap_compactions,
            self.prefetches_issued,
            self.prefetches_cancelled,
            self.worker_failures,
            self.tasks_retried,
            self.tasks_recomputed,
            self.replicas_promoted,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.cache_evictions,
            self.bytes_materialized,
            self.cache_persist_writes,
            self.cache_loaded,
            self.cache_load_rejects,
            self.cache_compactions,
            self.failed_trylocks,
            self.rank_max,
            self.steals,
        )
    }
}

/// Staleness of a relaxed priority queue, measured against the exact
/// oracle order: per pop, the *rank* is the number of strictly-better
/// tasks pending at the instant of the pop (0 = the pop was exact).
///
/// Always compiled (independent of the `obs` feature): rank tracking is
/// an opt-in audit instrument with its own cost (an exact mirror of the
/// queue contents), enabled per run, and read back with the
/// front-end's `rank_stats()` (and on `DiffReport`) rather than through
/// the counter plumbing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankStats {
    /// Pops observed.
    pub pops: u64,
    /// Sum of ranks over all pops (`mean = rank_sum / pops`).
    pub rank_sum: u64,
    /// Worst rank observed.
    pub rank_max: u64,
    /// Exponential histogram: bucket 0 = rank 0, bucket `i >= 1` =
    /// ranks in `[2^(i-1), 2^i)`.
    pub hist: Vec<u64>,
}

impl RankStats {
    /// Histogram bucket for `rank` (see field docs).
    pub fn bucket(rank: u64) -> usize {
        if rank == 0 {
            0
        } else {
            64 - rank.leading_zeros() as usize
        }
    }

    /// Record one pop of the given rank.
    pub fn record(&mut self, rank: u64) {
        self.pops += 1;
        self.rank_sum += rank;
        self.rank_max = self.rank_max.max(rank);
        let b = Self::bucket(rank);
        if self.hist.len() <= b {
            self.hist.resize(b + 1, 0);
        }
        self.hist[b] += 1;
    }

    /// Mean rank over all pops (0.0 when nothing was popped).
    pub fn mean(&self) -> f64 {
        if self.pops == 0 {
            0.0
        } else {
            self.rank_sum as f64 / self.pops as f64
        }
    }

    /// Fold another window of observations into this one.
    pub fn merge(&mut self, other: &RankStats) {
        self.pops += other.pops;
        self.rank_sum += other.rank_sum;
        self.rank_max = self.rank_max.max(other.rank_max);
        if self.hist.len() < other.hist.len() {
            self.hist.resize(other.hist.len(), 0);
        }
        for (a, &b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }
}

/// Scheduling-latency accounting for the serving mode: per executed
/// task, the latency is `pop instant − ready instant` (how long a ready
/// task waited in the scheduler, in µs of the run's clock — virtual time
/// under `mp-sim`, so the numbers are bit-deterministic).
///
/// Always compiled (like [`RankStats`]): serving latency is a product
/// metric surfaced on serve reports, not an opt-in debug counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LatencyStats {
    /// Tasks observed.
    pub count: u64,
    /// Sum of latencies (µs).
    pub sum_us: u64,
    /// Worst latency (µs).
    pub max_us: u64,
    /// Exponential histogram: bucket 0 = 0 µs, bucket `i >= 1` counts
    /// latencies in `[2^(i-1), 2^i)` µs.
    pub hist: Vec<u64>,
}

impl LatencyStats {
    /// Record one task's scheduling latency in µs.
    pub fn record(&mut self, us: u64) {
        self.count += 1;
        self.sum_us += us;
        self.max_us = self.max_us.max(us);
        let b = RankStats::bucket(us);
        if self.hist.len() <= b {
            self.hist.resize(b + 1, 0);
        }
        self.hist[b] += 1;
    }

    /// Mean latency in µs (0.0 when nothing was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Fold another window of observations into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
        merge_vec(&mut self.hist, &other.hist);
    }
}

fn merge_vec(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, &b) in into.iter_mut().zip(from.iter()) {
        *a += b;
    }
}

/// A lock-free recording cell (one per worker / shard / engine).
///
/// With `--features obs`: an array of relaxed atomics. Without: a
/// zero-sized no-op, so call sites never need `#[cfg]` guards.
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct ObsCell {
    counts: [AtomicU64; COUNTER_COUNT],
}

#[cfg(feature = "obs")]
impl ObsCell {
    /// Fresh cell, all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment `c` by one.
    #[inline]
    pub fn bump(&self, c: Counter) {
        self.counts[c as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Increment `c` by `n`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counts[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c as usize].load(Ordering::Relaxed)
    }

    /// Fold this cell's scalars into a snapshot.
    pub fn drain_into(&self, snap: &mut CounterSnapshot) {
        snap.pops += self.get(Counter::Pops);
        snap.pushes += self.get(Counter::Pushes);
        snap.holds += self.get(Counter::Holds);
        snap.evictions += self.get(Counter::Evictions);
        snap.arena_hits += self.get(Counter::ArenaHits);
        snap.arena_misses += self.get(Counter::ArenaMisses);
        snap.estimator_consults += self.get(Counter::EstimatorConsults);
        snap.heap_compactions += self.get(Counter::HeapCompactions);
        snap.prefetches_issued += self.get(Counter::PrefetchesIssued);
        snap.prefetches_cancelled += self.get(Counter::PrefetchesCancelled);
        snap.worker_failures += self.get(Counter::WorkerFailures);
        snap.tasks_retried += self.get(Counter::TasksRetried);
        snap.tasks_recomputed += self.get(Counter::TasksRecomputed);
        snap.replicas_promoted += self.get(Counter::ReplicasPromoted);
        snap.cache_hits += self.get(Counter::CacheHits);
        snap.cache_misses += self.get(Counter::CacheMisses);
        snap.cache_invalidations += self.get(Counter::CacheInvalidations);
        snap.bytes_materialized += self.get(Counter::BytesMaterialized);
        snap.cache_evictions += self.get(Counter::CacheEvictions);
        snap.cache_persist_writes += self.get(Counter::CachePersistWrites);
        snap.cache_loaded += self.get(Counter::CacheLoaded);
        snap.cache_load_rejects += self.get(Counter::CacheLoadRejects);
        snap.cache_compactions += self.get(Counter::CacheCompactions);
    }

    /// Snapshot just this cell.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut s = CounterSnapshot::default();
        self.drain_into(&mut s);
        s
    }
}

/// No-op cell: the `obs` feature is off, every method vanishes.
#[cfg(not(feature = "obs"))]
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsCell;

#[cfg(not(feature = "obs"))]
impl ObsCell {
    /// Fresh cell (zero-sized).
    #[inline(always)]
    pub fn new() -> Self {
        Self
    }

    /// No-op.
    #[inline(always)]
    pub fn bump(&self, _c: Counter) {}

    /// No-op.
    #[inline(always)]
    pub fn add(&self, _c: Counter, _n: u64) {}

    /// Always zero.
    #[inline(always)]
    pub fn get(&self, _c: Counter) -> u64 {
        0
    }

    /// No-op.
    #[inline(always)]
    pub fn drain_into(&self, _snap: &mut CounterSnapshot) {}

    /// Always the default snapshot.
    #[inline(always)]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot::default()
    }
}

/// Is counter recording compiled in?
#[inline(always)]
pub const fn obs_enabled() -> bool {
    cfg!(feature = "obs")
}

/// What a runtime worker did at an instant (park/wake timeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeEventKind {
    /// The worker went to sleep on the wake epoch.
    Park,
    /// The worker woke (notified or repoll deadline).
    Wake,
    /// The worker died (injected kill or detected failure).
    WorkerFailed,
    /// A failed attempt of a task was re-enqueued on this worker's lane.
    TaskRetried,
    /// A completed task was re-executed to regenerate a lost replica.
    TaskRecomputed,
    /// A surviving replica was promoted after a node loss.
    ReplicaPromoted,
    /// A task was served from the result cache (execution skipped, its
    /// outputs materialized directly).
    CacheHit,
    /// A cache entry was evicted on fingerprint mismatch (stale or
    /// poisoned) and the task recomputed.
    CacheInvalidated,
}

/// One timestamped runtime event, for the Chrome-trace timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeEvent {
    /// Worker index.
    pub worker: usize,
    /// Time in µs (same clock as the run's task spans).
    pub at: f64,
    /// What happened.
    pub kind: RuntimeEventKind,
}

/// One scheduler decision, for the Chrome-trace timeline (an "instant"
/// event pinned to the deciding worker's lane).
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionInstant {
    /// Time in µs.
    pub at: f64,
    /// Worker the decision was made for.
    pub worker: usize,
    /// Short label ("pop t42", "hold t17", ...).
    pub label: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_scalars_and_extends_shards() {
        let mut a = CounterSnapshot {
            pops: 3,
            steals: vec![1],
            ..Default::default()
        };
        let b = CounterSnapshot {
            pops: 2,
            holds: 5,
            steals: vec![1, 4],
            shard_pops: vec![2, 6],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.pops, 5);
        assert_eq!(a.holds, 5);
        assert_eq!(a.steals, vec![2, 4]);
        assert_eq!(a.shard_pops, vec![2, 6]);
        assert_eq!(a.total_steals(), 6);
        assert!(!a.is_empty());
        assert!(CounterSnapshot::default().is_empty());
    }

    #[test]
    fn merge_takes_max_of_rank_max_and_sums_hist() {
        let mut a = CounterSnapshot {
            rank_max: 7,
            rank_hist: vec![10, 2],
            failed_trylocks: 3,
            ..Default::default()
        };
        let b = CounterSnapshot {
            rank_max: 4,
            rank_hist: vec![5, 0, 1],
            failed_trylocks: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rank_max, 7, "rank_max merges by max, not sum");
        assert_eq!(a.rank_hist, vec![15, 2, 1]);
        assert_eq!(a.failed_trylocks, 5);
    }

    #[test]
    fn rank_stats_buckets_and_mean() {
        let mut r = RankStats::default();
        for rank in [0, 0, 0, 1, 2, 3, 4, 9] {
            r.record(rank);
        }
        assert_eq!(r.pops, 8);
        assert_eq!(r.rank_max, 9);
        // Buckets: rank 0 ×3 | rank 1 ×1 | ranks 2–3 ×2 | 4–7 ×1 | 8–15 ×1.
        assert_eq!(r.hist, vec![3, 1, 2, 1, 1]);
        assert!((r.mean() - 19.0 / 8.0).abs() < 1e-12);
        let mut m = RankStats::default();
        m.record(20);
        m.merge(&r);
        assert_eq!(m.pops, 9);
        assert_eq!(m.rank_max, 20);
        assert_eq!(m.hist.len(), 6);
    }

    #[test]
    fn cell_is_a_noop_or_a_counter_depending_on_feature() {
        let cell = ObsCell::new();
        cell.bump(Counter::Pops);
        cell.add(Counter::Pushes, 3);
        let snap = cell.snapshot();
        if obs_enabled() {
            assert_eq!(snap.pops, 1);
            assert_eq!(snap.pushes, 3);
        } else {
            assert!(snap.is_empty());
            assert_eq!(std::mem::size_of::<ObsCell>(), 0);
        }
    }

    #[test]
    fn render_mentions_the_load_bearing_counters() {
        let s = CounterSnapshot {
            pops: 7,
            arena_hits: 4,
            arena_misses: 3,
            estimator_consults: 7,
            ..Default::default()
        };
        let r = s.render();
        assert!(r.contains("pops=7"));
        assert!(r.contains("arena=4/3"));
    }
}
