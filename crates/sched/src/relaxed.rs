//! MultiQueue-style relaxed priority front-end.
//!
//! [`ShardedAdapter`](crate::concurrent::ShardedAdapter) removes the
//! global lock by partitioning a *policy* into per-shard instances, but
//! each shard is still a blocking mutex around an arbitrary stateful
//! scheduler: a preempted lock holder convoys every worker that needs
//! that shard, and stateful policies drag a sequenced event channel
//! behind them. For the pop-heavy regime the paper's evaluation cares
//! about there is a cheaper point in the design space, due to Postnikova
//! et al. (*Multi-Queues Can Be State-of-the-Art Priority Schedulers*,
//! arXiv 2109.00657) and Wimmer et al. (arXiv 1312.2501):
//!
//! * keep `c·P` tiny *sequential* priority queues (`P` workers, `c`
//!   queues per worker), each guarded by a **try-lock** that is never
//!   spun on — a busy queue is simply skipped;
//! * **push** to a queue of the releasing worker's block (locality), or
//!   a random queue, falling through on try-lock failure;
//! * **pop** by the classic two-choice rule: sample two distinct
//!   queues, compare their *published tops* as the existing u64-encoded
//!   scores (PR 2's sign-flip encoding makes "better" a plain integer
//!   `>`), and take the best executable task of the better queue.
//!
//! The price is *relaxation*: a pop may return a task that is not the
//! global best. The literature bounds the expected **rank error** (how
//! many strictly-better tasks were pending) by `O(c·P)`; the optional
//! [`RankTracker`] measures it exactly against the oracle order, and
//! the differential auditor reports it alongside makespan.
//!
//! Two implementations share the same structure and randomness so the
//! auditor can mirror the runtime in virtual time:
//!
//! * [`RelaxedMultiQueue`] — the engine-facing concurrent front-end
//!   (implements [`ConcurrentScheduler`]);
//! * [`RelaxedSeqScheduler`] — a deterministic sequential twin
//!   (implements [`Scheduler`]) driven by the simulator.
//!
//! Ordering semantics match [`EagerPrioScheduler`](crate::prio::EagerPrioScheduler):
//! descending user priority, FIFO within a priority level — that exact
//! policy is the rank oracle.

use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use mp_dag::ids::TaskId;
use mp_platform::types::WorkerId;
use mp_trace::obs::obs_enabled;
use mp_trace::RankStats;

use crate::api::{PrefetchReq, SchedEvent, SchedView, Scheduler};
use crate::concurrent::ConcurrentScheduler;

/// splitmix64 golden-ratio increment.
pub(crate) const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Whitening constant giving the *second* choice its own stream: mixing
/// `state ^ SPLITMIX_ALT` is statistically independent of mixing
/// `state`, where reusing the high/low halves of one draw is not (the
/// original sharded two-choice bug, see `two_distinct`).
pub(crate) const SPLITMIX_ALT: u64 = 0xD1B5_4A32_D192_ED03;

/// splitmix64 output mix: state in, well-distributed u64 out.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two *distinct* uniform indices in `[0, n)` (requires `n >= 2`),
/// derived from one splitmix64 state draw through two independent
/// streams. The second index is sampled from the `n - 1` values other
/// than the first, so the pair is never degenerate — taking the two
/// 32-bit halves of a single draw (the old scheme) collides with
/// probability `1/n` and repeatedly probes one shard under small `n`.
#[inline]
pub(crate) fn two_distinct(state: u64, n: usize) -> (usize, usize) {
    debug_assert!(n >= 2);
    let a = (mix64(state) % n as u64) as usize;
    let mut b = (mix64(state ^ SPLITMIX_ALT) % (n as u64 - 1)) as usize;
    if b >= a {
        b += 1;
    }
    (a, b)
}

/// Pack (user priority, submission sequence) into one u64 where plain
/// integer `>` means "schedule first": high word is the sign-flipped
/// priority (same transform as `mp_core::heap`'s `key_part`, specialised
/// to i32), low word the bit-complemented sequence so earlier
/// submissions win ties. This is exactly the order
/// [`EagerPrioScheduler`](crate::prio::EagerPrioScheduler) serves.
#[inline]
pub fn score_key(user_priority: i64, seq: u32) -> u64 {
    let p = user_priority.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
    let hi = (p as u32) ^ 0x8000_0000;
    ((hi as u64) << 32) | (!seq as u64)
}

/// One queue entry. Keys are unique (the sequence number is global), so
/// the derived lexicographic order never reaches the tiebreak.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: u64,
    task: TaskId,
}

/// Configuration of the relaxed front-end.
#[derive(Clone, Copy, Debug)]
pub struct RelaxedConfig {
    /// Queues per worker (`c`); total queues are `c · workers`. The
    /// literature's sweet spot is 2–4: more queues cut contention but
    /// grow the expected rank error linearly.
    pub queues_per_worker: usize,
    /// Seed for queue selection randomness. The sequential twin is
    /// bit-deterministic in it; the concurrent front-end additionally
    /// depends on thread interleaving.
    pub seed: u64,
    /// Maintain an exact oracle mirror and measure per-pop rank error.
    /// Costs one `BTreeSet` mutex per push/pop — an audit instrument,
    /// not a production setting.
    pub track_rank: bool,
}

impl Default for RelaxedConfig {
    fn default() -> Self {
        Self {
            queues_per_worker: 2,
            seed: 0xC0FF_EE00_D15C_0B13,
            track_rank: false,
        }
    }
}

/// Exact-oracle staleness probe: mirrors the live task set in a total
/// order and reports, per pop, how many strictly-better tasks were
/// pending. Shared by both relaxed implementations; under concurrency
/// the measurement is a linearization-point approximation (the mirror
/// and the queues are not updated atomically together), which is the
/// standard methodology for rank-error plots.
pub struct RankTracker {
    inner: Mutex<RankInner>,
}

#[derive(Default)]
struct RankInner {
    live: BTreeSet<(u64, TaskId)>,
    stats: RankStats,
}

impl Default for RankTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl RankTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(RankInner::default()),
        }
    }

    /// A task entered the structure under `key`.
    pub fn on_push(&self, key: u64, t: TaskId) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        g.live.insert((key, t));
    }

    /// A task left the structure; records its rank (number of pending
    /// entries with a strictly larger key). O(rank) per pop.
    pub fn on_pop(&self, key: u64, t: TaskId) {
        let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let rank = g.live.iter().rev().take_while(|&&(k, _)| k > key).count() as u64;
        g.live.remove(&(key, t));
        g.stats.record(rank);
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> RankStats {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .stats
            .clone()
    }
}

/// `top` hint value for "this queue looked empty". Real keys of
/// practical tasks never hit 0 (it would need priority `i32::MIN` *and*
/// four billion prior submissions), and the hint is only an ordering
/// heuristic — emptiness truth lives in the `len` atomic.
const TOP_EMPTY: u64 = 0;

/// One sequential queue: a tiny binary heap behind a mutex that is only
/// ever *try*-locked on the hot path, plus published metadata readable
/// without the lock.
struct SeqQueue {
    state: Mutex<QueueState>,
    /// Entries currently queued (emptiness source of truth).
    len: AtomicUsize,
    /// Key of the current best entry (sampling hint, updated under the
    /// lock; `TOP_EMPTY` when empty).
    top: AtomicU64,
    /// Observability (dormant unless `--features obs`): successful pops
    /// from this queue / pops by a worker whose block is elsewhere.
    pops: AtomicU64,
    steals: AtomicU64,
}

impl SeqQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(QueueState::default()),
            len: AtomicUsize::new(0),
            top: AtomicU64::new(TOP_EMPTY),
            pops: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct QueueState {
    heap: BinaryHeap<Entry>,
    /// Reused buffer for the executable-task scan (keeps steady-state
    /// pops allocation-free).
    scratch: Vec<Entry>,
}

/// The concurrent relaxed multi-queue (see module docs).
pub struct RelaxedMultiQueue {
    queues: Vec<SeqQueue>,
    workers: usize,
    c: usize,
    /// Global submission sequence (FIFO tiebreak within a priority).
    seq: AtomicU32,
    /// splitmix64 state for queue selection.
    rng: AtomicU64,
    /// Try-lock acquisitions that failed and fell through (dormant
    /// unless `--features obs`).
    failed_trylocks: AtomicU64,
    rank: Option<RankTracker>,
}

/// Extra two-choice rounds a pop attempts before sweeping.
const POP_DRAWS: usize = 2;

impl RelaxedMultiQueue {
    /// Build `cfg.queues_per_worker · workers` queues.
    pub fn new(workers: usize, cfg: RelaxedConfig) -> Self {
        let workers = workers.max(1);
        let c = cfg.queues_per_worker.max(1);
        Self {
            queues: (0..c * workers).map(|_| SeqQueue::new()).collect(),
            workers,
            c,
            seq: AtomicU32::new(0),
            rng: AtomicU64::new(cfg.seed),
            failed_trylocks: AtomicU64::new(0),
            rank: cfg.track_rank.then(RankTracker::new),
        }
    }

    /// Total queue count (`c · P`).
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// Rank-error statistics, when tracking was enabled.
    pub fn rank_stats(&self) -> Option<RankStats> {
        self.rank.as_ref().map(|r| r.stats())
    }

    #[inline]
    fn draw(&self) -> u64 {
        self.rng
            .fetch_add(SPLITMIX_GAMMA, Ordering::Relaxed)
            .wrapping_add(SPLITMIX_GAMMA)
    }

    /// First queue index of worker `w`'s block of `c` queues.
    #[inline]
    fn block_start(&self, w: WorkerId) -> usize {
        (w.index() % self.workers) * self.c
    }

    #[inline]
    fn in_block(&self, i: usize, w: WorkerId) -> bool {
        let s = self.block_start(w);
        i >= s && i < s + self.c
    }

    /// Insert under an already-held queue lock; publishes len and top.
    fn insert_locked(q: &SeqQueue, qs: &mut QueueState, e: Entry) {
        qs.heap.push(e);
        q.top.store(
            qs.heap.peek().map_or(TOP_EMPTY, |b| b.key),
            Ordering::Release,
        );
        q.len.fetch_add(1, Ordering::AcqRel);
    }

    fn push_entry(&self, e: Entry, releaser: Option<WorkerId>) {
        if let Some(tr) = &self.rank {
            tr.on_push(e.key, e.task);
        }
        let n = self.queues.len();
        let r = self.draw();
        // Locality: a released task lands on a random queue of the
        // releasing worker's block, so producer chains keep their block
        // warm; initial pushes scatter uniformly.
        let start = match releaser {
            Some(w) => self.block_start(w) + (mix64(r) % self.c as u64) as usize,
            None => (mix64(r) % n as u64) as usize,
        };
        // Try-lock, falling through to the next queue on failure —
        // never spin on a held lock. Poison is sticky on a mutex, so a
        // once-poisoned queue must be recovered here rather than
        // skipped as busy: treating it as `WouldBlock` forever would
        // starve the queue of pushes after one contained panic.
        for off in 0..n {
            let q = &self.queues[(start + off) % n];
            let got = match q.state.try_lock() {
                Ok(g) => Some(g),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => None,
            };
            if let Some(mut qs) = got {
                Self::insert_locked(q, &mut qs, e);
                return;
            }
            if obs_enabled() {
                self.failed_trylocks.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Every queue was momentarily held (only possible with more
        // pushers than queues): block once rather than spin. A poisoned
        // queue is recovered, not propagated: heap and published
        // metadata are only mutated together under the lock, so the
        // state a panicking holder left behind is a consistent
        // push/pop boundary (the engine's `catch_unwind` already turned
        // the panic itself into `KernelPanicked`).
        let q = &self.queues[start % n];
        let mut qs = q.state.lock().unwrap_or_else(|p| p.into_inner());
        Self::insert_locked(q, &mut qs, e);
    }

    /// Pop the best entry of queue `i` executable by `w`. `blocking`
    /// selects try-lock (hot path: a held queue is skipped, counted)
    /// versus a real lock (final drain pass only). Returns `None`
    /// without disturbing the queue when it holds nothing `w` can run.
    fn pop_from(
        &self,
        i: usize,
        w: WorkerId,
        view: &SchedView<'_>,
        blocking: bool,
    ) -> Option<TaskId> {
        let q = &self.queues[i];
        if q.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        // Poisoned queues are recovered (see `push_entry`): cascading
        // the panic here would abort every subsequent pop of surviving
        // workers instead of letting the run drain to `KernelPanicked`.
        let mut qs = if blocking {
            q.state.lock().unwrap_or_else(|p| p.into_inner())
        } else {
            match q.state.try_lock() {
                Ok(g) => g,
                Err(std::sync::TryLockError::WouldBlock) => {
                    if obs_enabled() {
                        self.failed_trylocks.fetch_add(1, Ordering::Relaxed);
                    }
                    return None;
                }
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            }
        };
        let mut found = None;
        while let Some(e) = qs.heap.pop() {
            if view.worker_can_exec(e.task, w) {
                found = Some(e);
                break;
            }
            qs.scratch.push(e);
        }
        // Restore skipped entries (qs.scratch stays allocated).
        while let Some(e) = qs.scratch.pop() {
            qs.heap.push(e);
        }
        q.top.store(
            qs.heap.peek().map_or(TOP_EMPTY, |b| b.key),
            Ordering::Release,
        );
        let e = found?;
        q.len.fetch_sub(1, Ordering::AcqRel);
        drop(qs);
        if obs_enabled() {
            q.pops.fetch_add(1, Ordering::Relaxed);
            if !self.in_block(i, w) {
                q.steals.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(tr) = &self.rank {
            tr.on_pop(e.key, e.task);
        }
        Some(e.task)
    }
}

impl ConcurrentScheduler for RelaxedMultiQueue {
    fn name(&self) -> String {
        format!("prio+relaxed-mq{}x{}", self.c, self.workers)
    }

    fn push(&self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let key = score_key(
            view.graph().task(t).user_priority,
            self.seq.fetch_add(1, Ordering::Relaxed),
        );
        self.push_entry(Entry { key, task: t }, releaser);
    }

    fn pop(&self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let n = self.queues.len();
        if n >= 2 {
            // Two-choice rounds: sample two distinct queues, probe the
            // one whose published top is better first.
            for _ in 0..POP_DRAWS {
                let (a, b) = two_distinct(self.draw(), n);
                let ta = self.queues[a].top.load(Ordering::Acquire);
                let tb = self.queues[b].top.load(Ordering::Acquire);
                let (first, second) = if ta >= tb { (a, b) } else { (b, a) };
                for i in [first, second] {
                    if let Some(t) = self.pop_from(i, w, view, false) {
                        return Some(t);
                    }
                }
            }
        }
        // Fallback sweep from a random start (concurrent sweepers do
        // not herd onto queue 0): try-locks first, then one blocking
        // pass so a drain can never miss the last tasks — the "spin
        // free" discipline is to block at most once, never to retry a
        // try-lock in a loop.
        let start = (mix64(self.draw()) % n as u64) as usize;
        for off in 0..n {
            if let Some(t) = self.pop_from((start + off) % n, w, view, false) {
                return Some(t);
            }
        }
        for off in 0..n {
            if let Some(t) = self.pop_from((start + off) % n, w, view, true) {
                return Some(t);
            }
        }
        None
    }

    fn feedback(&self, _ev: &SchedEvent, _view: &SchedView<'_>) {
        // Score depends only on static user priority: feedback-blind,
        // so the engine's event stream needs no synchronization here.
    }

    fn worker_disabled(&self, _w: WorkerId, _view: &SchedView<'_>) {
        // No per-worker private mappings: every queue is poppable by
        // every surviving worker, so quarantine needs no drain. (The
        // block used for push locality is a hint, not ownership — a
        // dead worker's block simply stops being preferred by pushes
        // and drains through everyone else's two-choice pops.)
    }

    fn push_retry(&self, t: TaskId, _attempt: u32, view: &SchedView<'_>) {
        // A retried task lost its releaser (the executor failed):
        // scatter like an initial push, with a fresh sequence number so
        // it re-enters FIFO order at the back of its priority level.
        self.push(t, None, view);
    }

    fn pending(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.len.load(Ordering::Acquire))
            .sum()
    }

    fn drain_prefetches(&self) -> Vec<PrefetchReq> {
        Vec::new()
    }

    fn counters(&self) -> mp_trace::CounterSnapshot {
        let mut snap = mp_trace::CounterSnapshot::default();
        if !obs_enabled() {
            return snap;
        }
        for q in &self.queues {
            snap.shard_pops.push(q.pops.load(Ordering::Relaxed));
            snap.steals.push(q.steals.load(Ordering::Relaxed));
        }
        snap.failed_trylocks = self.failed_trylocks.load(Ordering::Relaxed);
        snap
    }
}

/// Deterministic sequential twin of [`RelaxedMultiQueue`]: same queues,
/// same score keys, same two-choice selection from the same splitmix64
/// streams — but driven through the plain [`Scheduler`] trait, so the
/// simulator can mirror the relaxed front-end in virtual time and the
/// differential auditor can compare staleness across sides. Given equal
/// seeds and equal push/pop sequences it makes bit-identical choices.
pub struct RelaxedSeqScheduler {
    queues: Vec<BinaryHeap<Entry>>,
    scratch: Vec<Entry>,
    workers: usize,
    c: usize,
    seq: u32,
    rng: u64,
    pending: usize,
    pops: Vec<u64>,
    steals: Vec<u64>,
    rank: Option<RankTracker>,
}

impl RelaxedSeqScheduler {
    /// Twin of `RelaxedMultiQueue::new(workers, cfg)`.
    pub fn new(workers: usize, cfg: RelaxedConfig) -> Self {
        let workers = workers.max(1);
        let c = cfg.queues_per_worker.max(1);
        let n = c * workers;
        Self {
            queues: (0..n).map(|_| BinaryHeap::new()).collect(),
            scratch: Vec::new(),
            workers,
            c,
            seq: 0,
            rng: cfg.seed,
            pending: 0,
            pops: vec![0; n],
            steals: vec![0; n],
            rank: cfg.track_rank.then(RankTracker::new),
        }
    }

    /// Rank-error statistics, when tracking was enabled.
    pub fn rank_stats(&self) -> Option<RankStats> {
        self.rank.as_ref().map(|r| r.stats())
    }

    fn draw(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(SPLITMIX_GAMMA);
        self.rng
    }

    fn block_start(&self, w: WorkerId) -> usize {
        (w.index() % self.workers) * self.c
    }

    /// Best executable entry of queue `i`, or `None` (queue restored).
    fn pop_at(&mut self, i: usize, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let mut found = None;
        while let Some(e) = self.queues[i].pop() {
            if view.worker_can_exec(e.task, w) {
                found = Some(e);
                break;
            }
            self.scratch.push(e);
        }
        while let Some(e) = self.scratch.pop() {
            self.queues[i].push(e);
        }
        let e = found?;
        self.pending -= 1;
        if obs_enabled() {
            self.pops[i] += 1;
            let s = self.block_start(w);
            if i < s || i >= s + self.c {
                self.steals[i] += 1;
            }
        }
        if let Some(tr) = &self.rank {
            tr.on_pop(e.key, e.task);
        }
        Some(e.task)
    }
}

impl Scheduler for RelaxedSeqScheduler {
    fn name(&self) -> &'static str {
        "relaxed-mq"
    }

    fn push(&mut self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let key = score_key(view.graph().task(t).user_priority, self.seq);
        self.seq = self.seq.wrapping_add(1);
        let e = Entry { key, task: t };
        if let Some(tr) = &self.rank {
            tr.on_push(e.key, e.task);
        }
        let n = self.queues.len();
        let r = self.draw();
        let i = match releaser {
            Some(w) => self.block_start(w) + (mix64(r) % self.c as u64) as usize,
            None => (mix64(r) % n as u64) as usize,
        };
        self.queues[i].push(e);
        self.pending += 1;
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let n = self.queues.len();
        if n >= 2 {
            for _ in 0..POP_DRAWS {
                let (a, b) = two_distinct(self.draw(), n);
                let ka = self.queues[a].peek().map_or(TOP_EMPTY, |e| e.key);
                let kb = self.queues[b].peek().map_or(TOP_EMPTY, |e| e.key);
                let (first, second) = if ka >= kb { (a, b) } else { (b, a) };
                for i in [first, second] {
                    if !self.queues[i].is_empty() {
                        if let Some(t) = self.pop_at(i, w, view) {
                            return Some(t);
                        }
                    }
                }
            }
        }
        let start = (mix64(self.draw()) % n as u64) as usize;
        for off in 0..n {
            let i = (start + off) % n;
            if !self.queues[i].is_empty() {
                if let Some(t) = self.pop_at(i, w, view) {
                    return Some(t);
                }
            }
        }
        None
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn counters(&self) -> mp_trace::CounterSnapshot {
        let mut snap = mp_trace::CounterSnapshot::default();
        if !obs_enabled() {
            return snap;
        }
        snap.shard_pops = self.pops.clone();
        snap.steals = self.steals.clone();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;

    #[test]
    fn score_key_orders_priority_desc_then_fifo() {
        // Higher priority beats lower regardless of age.
        assert!(score_key(5, 100) > score_key(4, 0));
        // Within a priority, earlier submission wins.
        assert!(score_key(0, 0) > score_key(0, 1));
        // Negative priorities sort last, extremes do not wrap.
        assert!(score_key(0, 0) > score_key(-3, 0));
        assert!(score_key(i64::MAX, 0) > score_key(i64::MIN, 0));
        assert!(score_key(i64::MIN, 0) < score_key(0, u32::MAX));
    }

    #[test]
    fn two_distinct_never_degenerates_and_covers_all_pairs() {
        for n in [2usize, 3, 5, 8] {
            let mut seen = std::collections::HashSet::new();
            let mut state = 0x1234u64;
            for _ in 0..4000 {
                state = state.wrapping_add(SPLITMIX_GAMMA);
                let (a, b) = two_distinct(state, n);
                assert_ne!(a, b, "degenerate pair at n={n}");
                assert!(a < n && b < n);
                seen.insert((a, b));
            }
            // Every ordered pair should appear.
            assert_eq!(seen.len(), n * (n - 1), "pair coverage at n={n}");
        }
    }

    #[test]
    fn concurrent_queue_drains_in_relaxed_priority_order() {
        let mut fx = Fixture::two_arch();
        let lo = fx.add_task(fx.both, 8, "lo");
        let hi = fx.add_task(fx.both, 8, "hi");
        fx.graph.set_user_priority(hi, 10);
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mq = RelaxedMultiQueue::new(
            2,
            RelaxedConfig {
                track_rank: true,
                ..RelaxedConfig::default()
            },
        );
        assert_eq!(mq.queue_count(), 4);
        mq.push(lo, None, &view);
        mq.push(hi, None, &view);
        assert_eq!(mq.pending(), 2);
        let mut got = Vec::new();
        while let Some(t) = mq.pop(c0, &view) {
            got.push(t);
        }
        assert_eq!(got.len(), 2);
        assert_eq!(mq.pending(), 0);
        let stats = mq.rank_stats().unwrap();
        assert_eq!(stats.pops, 2);
        // Worst case here: `hi` popped second, one better task pending.
        assert!(stats.rank_max <= 1);
    }

    #[test]
    fn capability_filter_skips_inexecutable_tops() {
        let mut fx = Fixture::two_arch();
        let g = fx.add_task(fx.gpu_only, 8, "g");
        let c = fx.add_task(fx.cpu_only, 8, "c");
        fx.graph.set_user_priority(g, 100);
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mq = RelaxedMultiQueue::new(1, RelaxedConfig::default());
        mq.push(g, None, &view);
        mq.push(c, None, &view);
        // The CPU worker must get the CPU task even where the GPU task
        // tops every sampled queue.
        assert_eq!(mq.pop(c0, &view), Some(c));
        assert_eq!(mq.pop(c0, &view), None);
        assert_eq!(mq.pending(), 1);
        assert_eq!(mq.pop(g0, &view), Some(g));
        assert_eq!(mq.pending(), 0);
    }

    #[test]
    fn sequential_twin_is_deterministic() {
        let run = || {
            let mut fx = Fixture::two_arch();
            let tasks: Vec<_> = (0..32)
                .map(|i| fx.add_task(fx.both, 8, &format!("t{i}")))
                .collect();
            for (i, &t) in tasks.iter().enumerate() {
                fx.graph.set_user_priority(t, (i % 5) as i64);
            }
            let view = fx.view();
            let (c0, c1, _) = fx.workers();
            let mut s = RelaxedSeqScheduler::new(2, RelaxedConfig::default());
            for (i, &t) in tasks.iter().enumerate() {
                let releaser = if i % 3 == 0 { Some(c1) } else { None };
                s.push(t, releaser, &view);
            }
            let mut order = Vec::new();
            loop {
                let w = if order.len() % 2 == 0 { c0 } else { c1 };
                match s.pop(w, &view) {
                    Some(t) => order.push(t),
                    None => break,
                }
            }
            assert_eq!(s.pending(), 0);
            order
        };
        assert_eq!(run(), run());
    }

    /// Poison every queue mutex (and the rank tracker's) of `mq` the
    /// way a panicking lock holder would: a helper thread acquires the
    /// lock, touches nothing, and unwinds. The state it leaves behind
    /// is exactly a push/pop boundary.
    fn poison_all_queues(mq: &RelaxedMultiQueue) {
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let guards: Vec<_> = mq.queues.iter().map(|q| q.state.lock().unwrap()).collect();
                let rank = mq.rank.as_ref().map(|tr| tr.inner.lock().unwrap());
                let _ = (&guards, &rank);
                panic!("deliberate poison");
            });
            assert!(h.join().is_err());
        });
    }

    /// Regression: a panic that unwinds while a queue mutex is held
    /// used to poison the queue and turn every subsequent push/pop into
    /// a cascade of `expect("relaxed queue poisoned")` aborts — one
    /// contained kernel panic cost every surviving worker its front
    /// end. The guards are recovered now: state is consistent at
    /// push/pop boundaries, so the structure keeps working.
    #[test]
    fn poisoned_queue_recovers_instead_of_cascading() {
        let mut fx = Fixture::two_arch();
        let a = fx.add_task(fx.both, 8, "a");
        let b = fx.add_task(fx.both, 8, "b");
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mq = RelaxedMultiQueue::new(
            1,
            RelaxedConfig {
                queues_per_worker: 1,
                track_rank: true,
                ..RelaxedConfig::default()
            },
        );
        mq.push(a, None, &view);
        poison_all_queues(&mq);
        // Every queue mutex is now poisoned; pushes and pops must still
        // drain both tasks instead of aborting.
        mq.push(b, None, &view);
        assert_eq!(mq.pending(), 2);
        let mut got = Vec::new();
        while let Some(t) = mq.pop(c0, &view) {
            got.push(t);
        }
        got.sort();
        assert_eq!(got, vec![a, b]);
        assert_eq!(mq.pending(), 0);
        // The rank tracker (poisoned alongside) keeps accounting too.
        assert_eq!(mq.rank_stats().unwrap().pops, 2);
    }

    #[test]
    fn rank_error_is_zero_for_single_queue() {
        // c = 1, one worker: a single sequential queue is the oracle.
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..16)
            .map(|i| fx.add_task(fx.both, 8, &format!("t{i}")))
            .collect();
        for (i, &t) in tasks.iter().enumerate() {
            fx.graph.set_user_priority(t, (i % 3) as i64);
        }
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mut s = RelaxedSeqScheduler::new(
            1,
            RelaxedConfig {
                queues_per_worker: 1,
                track_rank: true,
                ..RelaxedConfig::default()
            },
        );
        for &t in &tasks {
            s.push(t, None, &view);
        }
        while s.pop(c0, &view).is_some() {}
        let stats = s.rank_stats().unwrap();
        assert_eq!(stats.pops, 16);
        assert_eq!(stats.rank_max, 0, "one queue must be exact");
        assert_eq!(stats.hist, vec![16]);
    }
}
