//! Concurrent scheduler front-ends for the threaded runtime.
//!
//! The [`Scheduler`] trait is sequential by design (`&mut self` at PUSH /
//! POP), which forces a threaded engine to serialize every scheduling
//! decision through one lock. This module defines the engine-facing
//! [`ConcurrentScheduler`] interface (`&self` everywhere) plus two
//! adapters:
//!
//! * [`GlobalLock`] — the baseline: one mutex around a single policy
//!   instance. Semantically identical to driving the policy directly;
//!   kept for determinism-sensitive tests and as the contention baseline
//!   in the `concurrent` bench's `frontend_drive` rows.
//! * [`ShardedAdapter`] — a relaxed multi-queue in the spirit of
//!   Postnikova et al. (*Multi-Queues Can Be State-of-the-Art Priority
//!   Schedulers*) and Wimmer et al. (*Data Structures for Task-based
//!   Priority Scheduling*): the policy is **partitioned** into per-shard
//!   instances, each behind its own small mutex. Pushes route to the
//!   releasing worker's shard (locality) or round-robin; pops try the
//!   worker's own shard first, then steal — two random victims probed in
//!   load order (randomized two-choice), then a full sweep so the last
//!   tasks of a drain cannot be missed. Stateful policies keep their
//!   semantics through two mechanisms:
//!   * **broadcast feedback**: a policy that consumes feedback gets every
//!     engine event in every shard, delivered under one ordering lock, so
//!     every shard observes the same ordered event stream a single
//!     instance would;
//!   * **shared score state**: policies whose scores depend on a running
//!     aggregate can share it across shards (e.g. `multiprio`'s
//!     `SharedGainTracker` in the `multiprio` crate).
//!
//! The price of sharding is *relaxation*: a pop may return a task whose
//! score is not the global maximum (it is the best of the probed shards).
//! The cited work shows this preserves scheduling quality for pop-heavy
//! workloads while removing the scalability collapse of a global lock.
//!
//! **Lock poisoning.** Every mutex in this module recovers from poison
//! (`unwrap_or_else(|p| p.into_inner())`) instead of propagating it.
//! Front-end state is only mutated at push/pop/feedback boundaries — no
//! user kernel ever runs under these locks — so a panic unwinding
//! through a holder (e.g. a panicking kernel caught by the engine's
//! worker-loop `catch_unwind`) leaves the protected state consistent.
//! Propagating the poison instead turns one `KernelPanicked` into a
//! cascade that aborts every surviving worker's next pop.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use mp_dag::ids::TaskId;
use mp_platform::types::WorkerId;

use crate::api::{PrefetchReq, SchedEvent, SchedView, Scheduler};
use crate::relaxed::{two_distinct, SPLITMIX_GAMMA};

pub use crate::relaxed::{RelaxedConfig, RelaxedMultiQueue};

/// A scheduler front-end callable concurrently from every worker thread.
///
/// Engine contract (mirrors [`Scheduler`]):
/// * `push` is called exactly once per task, when it becomes ready;
/// * a task returned by `pop` is executed — there is no cancellation;
/// * `pop` must only return tasks the requesting worker can execute;
/// * `pop` returning `None` does **not** imply emptiness (hold-backs);
///   engines must re-poll while `pending() > 0`.
pub trait ConcurrentScheduler: Send + Sync {
    /// Display name (policy name, plus front-end decoration if any).
    fn name(&self) -> String;

    /// A task became ready (see [`Scheduler::push`]).
    fn push(&self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>);

    /// Idle worker `w` requests a task (see [`Scheduler::pop`]).
    fn pop(&self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId>;

    /// Execution feedback, delivered in engine order.
    fn feedback(&self, ev: &SchedEvent, view: &SchedView<'_>);

    /// Worker `w` died or was quarantined (see
    /// [`Scheduler::worker_disabled`]); the engine never calls `pop(w)`
    /// again.
    fn worker_disabled(&self, w: WorkerId, view: &SchedView<'_>);

    /// Re-enqueue `t` after a failed execution attempt or a worker death
    /// (see [`Scheduler::push_retry`]).
    fn push_retry(&self, t: TaskId, attempt: u32, view: &SchedView<'_>);

    /// Pushed-but-not-popped tasks across the whole front-end.
    fn pending(&self) -> usize;

    /// Drain prefetch requests accumulated by the policy instances.
    fn drain_prefetches(&self) -> Vec<PrefetchReq>;

    /// Merged observability counters of the wrapped policy instances,
    /// plus front-end-level accounting (per-shard pops and steals for
    /// [`ShardedAdapter`]). All-zeros unless built with `--features obs`.
    fn counters(&self) -> mp_trace::CounterSnapshot {
        mp_trace::CounterSnapshot::default()
    }
}

/// Baseline front-end: one global mutex around a single policy instance.
pub struct GlobalLock {
    name: String,
    consumes_feedback: bool,
    emits_prefetches: bool,
    inner: Mutex<Box<dyn Scheduler>>,
}

impl GlobalLock {
    /// Wrap a policy.
    pub fn new(scheduler: Box<dyn Scheduler>) -> Self {
        Self {
            name: scheduler.name().to_string(),
            consumes_feedback: scheduler.consumes_feedback(),
            emits_prefetches: scheduler.emits_prefetches(),
            inner: Mutex::new(scheduler),
        }
    }
}

impl ConcurrentScheduler for GlobalLock {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn push(&self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(t, releaser, view);
    }

    fn pop(&self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop(w, view)
    }

    fn feedback(&self, ev: &SchedEvent, view: &SchedView<'_>) {
        if !self.consumes_feedback {
            return;
        }
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .feedback(ev, view);
    }

    fn worker_disabled(&self, w: WorkerId, view: &SchedView<'_>) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .worker_disabled(w, view);
    }

    fn push_retry(&self, t: TaskId, attempt: u32, view: &SchedView<'_>) {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_retry(t, attempt, view);
    }

    fn pending(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pending()
    }

    fn drain_prefetches(&self) -> Vec<PrefetchReq> {
        if !self.emits_prefetches {
            return Vec::new();
        }
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .drain_prefetches()
    }

    fn counters(&self) -> mp_trace::CounterSnapshot {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .counters()
    }
}

/// One shard: a policy instance behind its own mutex. Pad-free: the
/// mutex itself is the contention point and shards are heap-allocated
/// far apart in practice.
struct Shard {
    policy: Mutex<Box<dyn Scheduler>>,
    /// Pushed-but-not-popped tasks in this shard (steal-victim choice).
    pending: AtomicUsize,
    /// Observability: tasks popped from this shard / popped by a worker
    /// whose home shard is elsewhere. Dormant (never written) unless
    /// built with `--features obs` — the bump sites are behind a
    /// constant-folded `obs_enabled()` check.
    pops: AtomicU64,
    steals: AtomicU64,
}

/// Sharded multi-queue front-end (see module docs).
pub struct ShardedAdapter {
    name: String,
    consumes_feedback: bool,
    emits_prefetches: bool,
    shards: Vec<Shard>,
    /// Total pushed-but-not-popped tasks across shards.
    pending_total: AtomicUsize,
    /// Round-robin cursor for pushes with no releasing worker.
    rr: AtomicUsize,
    /// Held while one feedback event is broadcast to every shard, so
    /// all shards see the events in one order.
    feedback_order: Mutex<()>,
    /// Steal randomness (splitmix64 state).
    rng: AtomicU64,
    /// Dead workers by index (grown lazily in `worker_disabled`; the
    /// adapter learns the platform's worker count from the view there).
    dead_workers: Mutex<Vec<bool>>,
    /// `orphaned[i]` — every worker whose home shard is `i` has died.
    /// New pushes must not route here: the owner will never pop again,
    /// so under sustained load the shard only drains through the steal
    /// path while its backlog keeps growing. Read on the push hot path,
    /// written only from the cold quarantine path.
    orphaned: Vec<AtomicBool>,
}

impl ShardedAdapter {
    /// Build `shards` policy instances from `factory`. For stateful
    /// policies the factory should wire shared score state across the
    /// instances (e.g. `MultiPrioScheduler::with_shared_gain`).
    pub fn new(shards: usize, factory: &dyn Fn() -> Box<dyn Scheduler>) -> Self {
        let shards = shards.max(1);
        let built: Vec<Shard> = (0..shards)
            .map(|_| Shard {
                policy: Mutex::new(factory()),
                pending: AtomicUsize::new(0),
                pops: AtomicU64::new(0),
                steals: AtomicU64::new(0),
            })
            .collect();
        let (name, consumes_feedback, emits_prefetches) = {
            let policy = built[0].policy.lock().unwrap_or_else(|p| p.into_inner());
            (
                format!("{}+sharded{}", policy.name(), shards),
                policy.consumes_feedback(),
                policy.emits_prefetches(),
            )
        };
        let n = built.len();
        Self {
            name,
            consumes_feedback,
            emits_prefetches,
            shards: built,
            pending_total: AtomicUsize::new(0),
            rr: AtomicUsize::new(0),
            feedback_order: Mutex::new(()),
            rng: AtomicU64::new(0x5817_55ca_11ab_1e5e),
            dead_workers: Mutex::new(Vec::new()),
            orphaned: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pushed-but-not-popped tasks currently queued on shard `i`
    /// (observability and routing tests).
    pub fn shard_pending(&self, i: usize) -> usize {
        self.shards[i].pending.load(Ordering::Acquire)
    }

    /// Advance the splitmix64 state by one draw.
    fn draw(&self) -> u64 {
        self.rng
            .fetch_add(SPLITMIX_GAMMA, Ordering::Relaxed)
            .wrapping_add(SPLITMIX_GAMMA)
    }

    fn home_shard(&self, w: WorkerId) -> usize {
        w.index() % self.shards.len()
    }

    /// `preferred`, unless that shard is orphaned — then the next live
    /// shard from the round-robin cursor, so redistributed pushes spread
    /// instead of piling onto one survivor. Falls back to `preferred`
    /// only in the degenerate all-orphaned state (the engine is about
    /// to abort with `NoCapableWorker` anyway).
    fn live_shard(&self, preferred: usize) -> usize {
        if !self.orphaned[preferred].load(Ordering::Relaxed) {
            return preferred;
        }
        let n = self.shards.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for off in 0..n {
            let j = (start + off) % n;
            if !self.orphaned[j].load(Ordering::Relaxed) {
                return j;
            }
        }
        preferred
    }

    /// Pop from shard `i` for worker `w`, maintaining counters.
    fn pop_shard(&self, i: usize, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let shard = &self.shards[i];
        // Cheap skip without taking the lock.
        if shard.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut policy = shard.policy.lock().unwrap_or_else(|p| p.into_inner());
        let t = policy.pop(w, view)?;
        shard.pending.fetch_sub(1, Ordering::AcqRel);
        self.pending_total.fetch_sub(1, Ordering::AcqRel);
        if mp_trace::obs::obs_enabled() {
            shard.pops.fetch_add(1, Ordering::Relaxed);
            if i != self.home_shard(w) {
                shard.steals.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(t)
    }
}

impl ConcurrentScheduler for ShardedAdapter {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn push(&self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        // Locality: a task released by worker w lands on w's shard, so a
        // producer chain stays on one queue; initial tasks spread
        // round-robin. Either route detours around orphaned shards —
        // a releaser is alive by definition, but its shard can share an
        // index with a dead worker's under shards < workers.
        let i = self.live_shard(match releaser {
            Some(w) => self.home_shard(w),
            None => self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len(),
        });
        let shard = &self.shards[i];
        let mut policy = shard.policy.lock().unwrap_or_else(|p| p.into_inner());
        policy.push(t, releaser, view);
        shard.pending.fetch_add(1, Ordering::AcqRel);
        self.pending_total.fetch_add(1, Ordering::AcqRel);
    }

    fn pop(&self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let n = self.shards.len();
        let own = self.home_shard(w);
        if let Some(t) = self.pop_shard(own, w, view) {
            return Some(t);
        }
        if n == 1 || self.pending_total.load(Ordering::Acquire) == 0 {
            return None;
        }
        // Randomized two-choice stealing: probe the better-loaded of two
        // *distinct* random victims first. The two indices come from two
        // independent splitmix64 streams over one state draw — the old
        // scheme reused the high/low halves of a single mixed draw,
        // which collides with probability 1/n and degenerates into
        // one-choice probing of a possibly-empty shard at small n.
        let (a, b) = two_distinct(self.draw(), n);
        let (first, second) = if self.shards[a].pending.load(Ordering::Acquire)
            >= self.shards[b].pending.load(Ordering::Acquire)
        {
            (a, b)
        } else {
            (b, a)
        };
        for i in [first, second] {
            if i != own {
                if let Some(t) = self.pop_shard(i, w, view) {
                    return Some(t);
                }
            }
        }
        // Fallback sweep: when little work remains the random probes can
        // miss the only non-empty shard; a full pass guarantees an idle
        // worker finds any task it is allowed to run.
        for i in 0..n {
            if i != own && i != first && i != second {
                if let Some(t) = self.pop_shard(i, w, view) {
                    return Some(t);
                }
            }
        }
        None
    }

    fn feedback(&self, ev: &SchedEvent, view: &SchedView<'_>) {
        // Feedback-blind policies (the default) skip the broadcast — and
        // its synchronization — entirely.
        if !self.consumes_feedback {
            return;
        }
        // Every shard gets every event, like `worker_disabled`. The
        // ordering lock is the only one taken before a shard lock, so
        // concurrent events reach all shards in the same order.
        let _order = self
            .feedback_order
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        for shard in &self.shards {
            shard
                .policy
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .feedback(ev, view);
        }
    }

    fn worker_disabled(&self, w: WorkerId, view: &SchedView<'_>) {
        // Routing first: mark the worker dead and recompute which shards
        // are orphaned (every owner dead), so pushes racing with the
        // quarantine stop targeting them as early as possible.
        {
            let n = self.shards.len();
            let workers = view.platform().worker_count();
            let mut dead = self.dead_workers.lock().unwrap_or_else(|p| p.into_inner());
            if dead.len() < workers {
                dead.resize(workers, false);
            }
            if w.index() < dead.len() {
                dead[w.index()] = true;
            }
            for i in 0..n {
                let all_dead = (0..workers)
                    .filter(|wi| wi % n == i)
                    .all(|wi| dead.get(wi).copied().unwrap_or(false));
                // A shard with no owner at all (shards > workers) only
                // ever receives round-robin pushes; it keeps them, since
                // it was never anyone's home and drains evenly.
                let has_owner = (0..workers).any(|wi| wi % n == i);
                self.orphaned[i].store(has_owner && all_dead, Ordering::Relaxed);
            }
        }
        // Every shard may hold tasks privately mapped to the dead worker
        // (a policy instance does not know which shard it lives in), so
        // the quarantine broadcasts. Policies re-push drained tasks into
        // themselves, which conserves each shard's pending count.
        for shard in &self.shards {
            shard
                .policy
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .worker_disabled(w, view);
        }
    }

    fn push_retry(&self, t: TaskId, attempt: u32, view: &SchedView<'_>) {
        // A retried task has no releasing worker (its executor failed),
        // so it spreads round-robin like an initial push — skipping
        // orphaned shards: the retry often *is* the dead worker's task,
        // and parking it on the dead worker's shard starves it.
        let i = self.live_shard(self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len());
        let shard = &self.shards[i];
        let mut policy = shard.policy.lock().unwrap_or_else(|p| p.into_inner());
        policy.push_retry(t, attempt, view);
        shard.pending.fetch_add(1, Ordering::AcqRel);
        self.pending_total.fetch_add(1, Ordering::AcqRel);
    }

    fn pending(&self) -> usize {
        self.pending_total.load(Ordering::Acquire)
    }

    fn drain_prefetches(&self) -> Vec<PrefetchReq> {
        if !self.emits_prefetches {
            return Vec::new();
        }
        let mut all = Vec::new();
        for shard in &self.shards {
            let mut policy = shard.policy.lock().unwrap_or_else(|p| p.into_inner());
            all.extend(policy.drain_prefetches());
        }
        all
    }

    fn counters(&self) -> mp_trace::CounterSnapshot {
        let mut snap = mp_trace::CounterSnapshot::default();
        if !mp_trace::obs::obs_enabled() {
            return snap;
        }
        // Scalars fold across policies; the per-queue *vectors* are the
        // front-end's own accounting, indexed by shard. A policy's
        // internal per-queue vectors (e.g. a nested relaxed multi-queue)
        // live in a different index space — summing them positionally
        // into the shard vectors, as the old interleaved merge-then-push
        // loop did, misaligns both and double-counts pops against the
        // `sum(shard_pops) == pops` invariant. The nesting boundary
        // keeps the scalars and drops the inner vectors.
        for shard in &self.shards {
            let mut inner = shard
                .policy
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .counters();
            inner.shard_pops.clear();
            inner.steals.clear();
            snap.merge(&inner);
        }
        for shard in &self.shards {
            snap.shard_pops.push(shard.pops.load(Ordering::Relaxed));
            snap.steals.push(shard.steals.load(Ordering::Relaxed));
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoScheduler;
    use crate::testutil::Fixture;

    #[test]
    fn global_lock_preserves_policy_behaviour() {
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..4)
            .map(|i| fx.add_task(fx.both, 8, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let fe = GlobalLock::new(Box::new(FifoScheduler::new()));
        assert_eq!(fe.name(), "fifo");
        for &t in &tasks {
            fe.push(t, None, &view);
        }
        assert_eq!(fe.pending(), 4);
        // FIFO through one lock: submission order preserved.
        for &t in &tasks {
            assert_eq!(fe.pop(c0, &view), Some(t));
        }
        assert_eq!(fe.pending(), 0);
        assert_eq!(fe.pop(c0, &view), None);
    }

    #[test]
    fn sharded_executes_every_task_exactly_once() {
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..40)
            .map(|i| fx.add_task(fx.both, 8, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let (c0, c1, g0) = fx.workers();
        let fe = ShardedAdapter::new(3, &|| Box::new(FifoScheduler::new()));
        assert_eq!(fe.shard_count(), 3);
        for (i, &t) in tasks.iter().enumerate() {
            // Mix initial and released pushes across shards.
            let releaser = match i % 3 {
                0 => None,
                1 => Some(c1),
                _ => Some(g0),
            };
            fe.push(t, releaser, &view);
        }
        assert_eq!(fe.pending(), 40);
        let mut seen = std::collections::HashSet::new();
        // One worker drains everything through own-shard + steal paths.
        while let Some(t) = fe.pop(c0, &view) {
            assert!(seen.insert(t), "duplicate pop of {t:?}");
        }
        assert_eq!(seen.len(), 40);
        assert_eq!(fe.pending(), 0);
    }

    /// Pops delegate to FIFO, except the first pop of an armed instance
    /// panics *before* touching any state — the consistent push/pop
    /// boundary a contained kernel panic leaves behind.
    struct PanicOnce {
        inner: FifoScheduler,
        armed: bool,
    }

    impl Scheduler for PanicOnce {
        fn name(&self) -> &'static str {
            "panic-once"
        }
        fn push(&mut self, t: TaskId, r: Option<WorkerId>, v: &SchedView<'_>) {
            self.inner.push(t, r, v);
        }
        fn pop(&mut self, w: WorkerId, v: &SchedView<'_>) -> Option<TaskId> {
            if self.armed {
                self.armed = false;
                panic!("deliberate poison");
            }
            self.inner.pop(w, v)
        }
        fn pending(&self) -> usize {
            self.inner.pending()
        }
    }

    /// Regression: a panic unwinding out of the wrapped policy used to
    /// poison the global mutex and turn every later call into an
    /// `expect("scheduler poisoned")` abort. The guard is recovered
    /// now, so one contained panic costs one pop, not the front end.
    #[test]
    fn poisoned_global_lock_recovers_instead_of_cascading() {
        let mut fx = Fixture::two_arch();
        let a = fx.add_task(fx.both, 8, "a");
        let b = fx.add_task(fx.both, 8, "b");
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let fe = GlobalLock::new(Box::new(PanicOnce {
            inner: FifoScheduler::new(),
            armed: true,
        }));
        fe.push(a, None, &view);
        fe.push(b, None, &view);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fe.pop(c0, &view)));
        assert!(poisoner.is_err(), "armed pop must panic under the lock");
        assert_eq!(fe.pending(), 2);
        assert_eq!(fe.pop(c0, &view), Some(a));
        assert_eq!(fe.pop(c0, &view), Some(b));
        assert_eq!(fe.pending(), 0);
    }

    /// Same regression for the sharded front-end: shard mutexes recover
    /// from poison instead of cascade-aborting every
    /// subsequent pop of the surviving workers.
    #[test]
    fn poisoned_shard_recovers_instead_of_cascading() {
        use std::sync::atomic::AtomicUsize;

        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..4)
            .map(|i| fx.add_task(fx.both, 8, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let (c0, ..) = fx.workers();
        // Only the first-built instance (shard 0) is armed.
        let built = AtomicUsize::new(0);
        let factory = move || -> Box<dyn Scheduler> {
            Box::new(PanicOnce {
                inner: FifoScheduler::new(),
                armed: built.fetch_add(1, Ordering::Relaxed) == 0,
            })
        };
        let fe = ShardedAdapter::new(2, &factory);
        // Route every task to c0's home shard (shard 0), the armed one.
        for &t in &tasks {
            fe.push(t, Some(c0), &view);
        }
        assert_eq!(fe.shard_pending(0), 4);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fe.pop(c0, &view)));
        assert!(poisoner.is_err(), "armed pop must panic under the lock");
        // Shard 0's mutex is poisoned; pushes and pops keep working and
        // every task still executes exactly once.
        assert_eq!(fe.pending(), 4);
        let extra = fx.add_task(fx.both, 8, "extra");
        let view = fx.view();
        fe.push(extra, Some(c0), &view);
        let mut seen = std::collections::HashSet::new();
        while let Some(t) = fe.pop(c0, &view) {
            assert!(seen.insert(t), "duplicate pop of {t:?}");
        }
        assert_eq!(seen.len(), 5);
        assert_eq!(fe.pending(), 0);
    }

    #[test]
    fn sharded_feedback_replays_in_order_to_every_shard() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Records the event order its shard observes.
        struct Probe {
            seen: Arc<std::sync::Mutex<Vec<f64>>>,
            pushed: usize,
        }
        impl Scheduler for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn push(&mut self, _t: TaskId, _r: Option<WorkerId>, _v: &SchedView<'_>) {
                self.pushed += 1;
            }
            fn pop(&mut self, _w: WorkerId, _v: &SchedView<'_>) -> Option<TaskId> {
                None
            }
            fn pending(&self) -> usize {
                self.pushed
            }
            fn feedback(&mut self, ev: &SchedEvent, _v: &SchedView<'_>) {
                if let SchedEvent::TaskFinished { elapsed_us, .. } = ev {
                    self.seen.lock().unwrap().push(*elapsed_us);
                }
            }
            fn consumes_feedback(&self) -> bool {
                true
            }
        }

        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 8, "t");
        let view = fx.view();
        let (c0, ..) = fx.workers();
        // One log per shard, in build order.
        let logs: [Arc<std::sync::Mutex<Vec<f64>>>; 2] = Default::default();
        let counter = AtomicUsize::new(0);
        let fe = {
            let logs = logs.clone();
            let factory = move || -> Box<dyn Scheduler> {
                Box::new(Probe {
                    seen: logs[counter.fetch_add(1, Ordering::Relaxed)].clone(),
                    pushed: 0,
                })
            };
            ShardedAdapter::new(2, &factory)
        };
        // Three ordered events, broadcast as they arrive.
        for i in 0..3 {
            fe.feedback(
                &SchedEvent::TaskFinished {
                    t,
                    w: c0,
                    elapsed_us: i as f64,
                },
                &view,
            );
        }
        let seen: Vec<f64> = logs
            .iter()
            .flat_map(|log| log.lock().unwrap().clone())
            .collect();
        // Both shards saw all three events, each in global order.
        assert_eq!(seen.len(), 6);
        assert_eq!(&seen[0..3], &[0.0, 1.0, 2.0]);
        assert_eq!(&seen[3..6], &[0.0, 1.0, 2.0]);
    }
}
