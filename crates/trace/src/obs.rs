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
//! Counter semantics (see DESIGN.md §8): the snapshot holds only what
//! `obs` alone counts, the policy and engine internals. Every run fact
//! (cache, fault, persistence and per-tenant counts) is recorded once,
//! always, on the run's report instead.
//!
//! * `pops` counts **successful** pops — an idle poll that returns
//!   `None` is not a pop (the simulator reports those separately as
//!   `SimStats::empty_pops`), so `pops == tasks executed` on any clean
//!   run.
//! * `steals[i]` counts tasks taken from shard `i` by a worker whose
//!   home shard is *not* `i`; `shard_pops[i]` counts every task taken
//!   from shard `i`, so `steals[i] <= shard_pops[i]` always, and shard
//!   pops sum to `pops`.

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
    /// Push-plan-arena lookups served from the cache.
    ArenaHits,
    /// Push-plan-arena lookups that recomputed the plan.
    ArenaMisses,
    /// Prefetch requests that produced a transfer.
    PrefetchesIssued,
    /// Prefetch requests dropped (already resident, no clean room, no
    /// source replica).
    PrefetchesCancelled,
}

/// Number of scalar counters (length of an [`ObsCell`]'s array).
pub const COUNTER_COUNT: usize = 6;

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
    /// Pop-condition hold-backs (task left for a better worker).
    pub holds: u64,
    /// Eviction-mechanism re-routings (task yanked from an ill-suited
    /// worker's node heap).
    pub evictions: u64,
    /// Push-plan-arena cache hits.
    pub arena_hits: u64,
    /// Push-plan-arena cache misses (plan recomputed).
    pub arena_misses: u64,
    /// `ScoredHeap` lazy-deletion compaction sweeps.
    pub heap_compactions: u64,
    /// Prefetches that produced a transfer.
    pub prefetches_issued: u64,
    /// Prefetches dropped before transferring.
    pub prefetches_cancelled: u64,
    /// Per-shard stolen pops (empty for non-sharded front-ends).
    pub steals: Vec<u64>,
    /// Per-shard total pops (empty for non-sharded front-ends). For the
    /// relaxed multi-queue this has one entry per sequential queue
    /// (`c·P` entries), so its length may differ from the worker count.
    pub shard_pops: Vec<u64>,
    /// Try-lock acquisitions that failed and fell through to another
    /// queue (relaxed multi-queue front-end only).
    pub failed_trylocks: u64,
}

impl CounterSnapshot {
    /// Fold `other` into `self`: an element-wise sum, the shard vectors
    /// zero-extended to the longer length.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        self.pops += other.pops;
        self.pushes += other.pushes;
        self.holds += other.holds;
        self.evictions += other.evictions;
        self.arena_hits += other.arena_hits;
        self.arena_misses += other.arena_misses;
        self.heap_compactions += other.heap_compactions;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetches_cancelled += other.prefetches_cancelled;
        merge_vec(&mut self.steals, &other.steals);
        merge_vec(&mut self.shard_pops, &other.shard_pops);
        self.failed_trylocks += other.failed_trylocks;
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
            "pops={} pushes={} holds={} evictions={} arena={}/{} compactions={} \
             prefetch={}+{}cancelled trylock_fails={} steals={:?}",
            self.pops,
            self.pushes,
            self.holds,
            self.evictions,
            self.arena_hits,
            self.arena_misses,
            self.heap_compactions,
            self.prefetches_issued,
            self.prefetches_cancelled,
            self.failed_trylocks,
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
        snap.arena_hits += self.get(Counter::ArenaHits);
        snap.arena_misses += self.get(Counter::ArenaMisses);
        snap.prefetches_issued += self.get(Counter::PrefetchesIssued);
        snap.prefetches_cancelled += self.get(Counter::PrefetchesCancelled);
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
            failed_trylocks: 3,
            ..Default::default()
        };
        let b = CounterSnapshot {
            pops: 2,
            holds: 5,
            steals: vec![1, 4],
            shard_pops: vec![2, 6],
            failed_trylocks: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.pops, 5);
        assert_eq!(a.holds, 5);
        assert_eq!(a.steals, vec![2, 4]);
        assert_eq!(a.shard_pops, vec![2, 6]);
        assert_eq!(a.failed_trylocks, 5);
        assert_eq!(a.total_steals(), 6);
        assert!(!a.is_empty());
        assert!(CounterSnapshot::default().is_empty());
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
            ..Default::default()
        };
        let r = s.render();
        assert!(r.contains("pops=7"));
        assert!(r.contains("arena=4/3"));
    }
}
