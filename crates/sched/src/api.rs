//! The scheduler trait and the view of runtime state exposed to it.

use mp_dag::graph::TaskGraph;
use mp_dag::ids::{DataId, TaskId};
use mp_perfmodel::Estimator;
use mp_platform::types::{MemNodeId, Platform, WorkerId};

/// Where do valid replicas of each data handle currently live?
///
/// Implemented by the engines; queried by data-aware schedulers (Dmda's
/// transfer estimates, MultiPrio's LS_SDH² locality score).
pub trait DataLocator {
    /// Is a valid replica of `d` present on node `m`?
    fn is_on(&self, d: DataId, m: MemNodeId) -> bool;

    /// All nodes holding a valid replica (at least the home node before
    /// first write). Order is unspecified.
    fn holders(&self, d: DataId) -> Vec<MemNodeId>;
}

/// Engine-side load information.
pub trait LoadInfo {
    /// Estimated time (µs, engine clock) at which worker `w` finishes the
    /// task it is currently running; `now` or earlier when idle. Does not
    /// include tasks queued inside the scheduler.
    fn busy_until(&self, w: WorkerId) -> f64;
}

/// A read-only snapshot handed to every scheduler call.
pub struct SchedView<'a> {
    /// Graph + platform + perf model, with derived δ queries.
    pub est: Estimator<'a>,
    /// Data replica locations.
    pub loc: &'a dyn DataLocator,
    /// Worker load.
    pub load: &'a dyn LoadInfo,
    /// Current engine time in µs.
    pub now: f64,
}

impl<'a> SchedView<'a> {
    /// The task graph.
    pub fn graph(&self) -> &'a TaskGraph {
        self.est.graph()
    }

    /// The platform.
    pub fn platform(&self) -> &'a Platform {
        self.est.platform()
    }

    /// Can worker `w` execute task `t`?
    pub fn worker_can_exec(&self, t: TaskId, w: WorkerId) -> bool {
        self.est.can_exec(t, self.platform().worker(w).arch)
    }

    /// δ(t, arch of w), `None` when the worker cannot run the task. The
    /// simulator vets every pop with it: a task handed to a worker that
    /// cannot run it breaks the trait contract and stops the run with a
    /// typed error, and the δ it read prices the placement.
    pub fn delta_on_worker(&self, t: TaskId, w: WorkerId) -> Option<f64> {
        self.est.delta(t, self.platform().worker(w).arch)
    }

    /// Bytes of `t`'s data already valid on node `m` (any access mode).
    pub fn local_bytes(&self, t: TaskId, m: MemNodeId) -> u64 {
        let g = self.graph();
        g.task(t)
            .accesses
            .iter()
            .filter(|a| self.loc.is_on(a.data, m))
            .map(|a| g.data_desc(a.data).size)
            .sum()
    }

    /// Estimated time to fetch all of `t`'s *read* data missing on `m`,
    /// using the fastest valid holder for each handle.
    pub fn fetch_time(&self, t: TaskId, m: MemNodeId) -> f64 {
        let g = self.graph();
        let p = self.platform();
        let mut total = 0.0;
        for d in g.task(t).reads() {
            if self.loc.is_on(d, m) {
                continue;
            }
            let size = g.data_desc(d).size;
            let best = self
                .loc
                .holders(d)
                .iter()
                .map(|&h| p.transfer_time(size, h, m))
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() {
                total += best;
            }
        }
        total
    }
}

/// Feedback events delivered to the scheduler by the engine.
#[derive(Clone, Copy, Debug)]
pub enum SchedEvent {
    /// A popped task started executing (transfers done).
    TaskStarted {
        /// The task.
        t: TaskId,
        /// The executing worker.
        w: WorkerId,
    },
    /// A task finished; `elapsed_us` is the measured execution time.
    TaskFinished {
        /// The task.
        t: TaskId,
        /// The executing worker.
        w: WorkerId,
        /// Measured execution time in µs.
        elapsed_us: f64,
    },
}

/// A scheduler-initiated data movement request (Dmda-family prefetching).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchReq {
    /// The handle to replicate.
    pub data: DataId,
    /// The destination memory node.
    pub node: MemNodeId,
}

/// A dynamic scheduler, driven at StarPU's PUSH / POP points.
///
/// Engines guarantee:
/// * `push` is called once per task when it becomes ready; a task comes
///   back through [`Self::push_retry`] only after a failed execution
///   attempt or a worker death invalidated a previous pop;
/// * `pop(w)` is only called when `w` is idle, and never after
///   [`Self::worker_disabled`] quarantined `w`;
/// * a task returned by `pop` either executes to completion or returns
///   via `push_retry` — a popped task is never silently dropped;
/// * `pop` must only return tasks the requesting worker can execute.
///
/// `pop` returning `None` does **not** imply the scheduler is empty: a
/// scheduler may hold back a task from an ill-suited worker (MultiPrio's
/// `pop_condition`).
///
/// The pop contract: whether a pop returns a task depends on the
/// scheduler's state, the view and the asking worker, but never on the
/// clock: not on `view.now`, and not on data still in flight either. A
/// simulator view shows a transfer's replica from its arrival time on,
/// and no event marks that instant, so a policy that held work back
/// until an input landed would wait on the clock alone. A held-back task
/// therefore becomes poppable only after a scheduler call or an engine
/// event, so an engine with no event left has nothing to ask again:
/// work still pending then is a deadlock.
pub trait Scheduler: Send {
    /// Short stable identifier (`"dmdas"`, `"multiprio"`, ...).
    fn name(&self) -> &'static str;

    /// A task became ready. `releaser` is the worker whose task completion
    /// released it (`None` for initially-ready tasks) — used by
    /// work-stealing schedulers for locality.
    fn push(&mut self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>);

    /// Idle worker `w` requests a task.
    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId>;

    /// Number of pushed-but-not-popped tasks (engine sanity checks).
    fn pending(&self) -> usize;

    /// Worker `w` died (or was quarantined): the engine will never call
    /// `pop(w)` again, and any task previously mapped to `w` internally
    /// must become reachable from the surviving workers. The default is
    /// a no-op, correct for every policy whose queues are shared or
    /// stealable; policies with *private* per-worker mappings (the
    /// deque-model family, MultiPrio's per-node heaps) must override
    /// this to drain and remap.
    fn worker_disabled(&mut self, _w: WorkerId, _view: &SchedView<'_>) {}

    /// Re-enqueue task `t` after a failed execution attempt (`attempt`
    /// failures so far) or a worker death. The default funnels into
    /// [`Self::push`] with no releaser, which every policy already
    /// handles; override only to treat retries specially.
    fn push_retry(&mut self, t: TaskId, _attempt: u32, view: &SchedView<'_>) {
        self.push(t, None, view);
    }

    /// Execution feedback (default: ignored).
    fn feedback(&mut self, _ev: &SchedEvent, _view: &SchedView<'_>) {}

    /// Whether this policy consumes [`SchedEvent`] feedback. Concurrent
    /// front-ends skip event delivery (and its synchronization) entirely
    /// when `false` — the default, matching the no-op [`Self::feedback`].
    /// Override to `true` alongside any real `feedback` implementation.
    fn consumes_feedback(&self) -> bool {
        false
    }

    /// Drain prefetch requests accumulated since the last call (Dmda
    /// family issues them at push time; default: none).
    fn drain_prefetches(&mut self) -> Vec<PrefetchReq> {
        let mut out = Vec::new();
        self.drain_prefetches_into(&mut out);
        out
    }

    /// Like [`Self::drain_prefetches`], appending into a caller-provided
    /// buffer so per-event engine loops can reuse one allocation. The
    /// default matches the default `emits_prefetches`: nothing to drain.
    fn drain_prefetches_into(&mut self, _out: &mut Vec<PrefetchReq>) {}

    /// Whether this policy ever emits prefetch requests. Front-ends skip
    /// the [`Self::drain_prefetches`] sweep when `false` — the default,
    /// matching the empty `drain_prefetches`.
    fn emits_prefetches(&self) -> bool {
        false
    }

    /// Policy-internal observability counters (hold-backs, evictions,
    /// push-plan-arena hits, heap compactions, ...). Engines add their
    /// own pop/push/prefetch accounting on top and surface the merged
    /// snapshot on `SimResult` / `RunReport`. Meaningful only when built
    /// with `mp-trace/obs`; the default is all-zeros either way.
    fn counters(&self) -> mp_trace::CounterSnapshot {
        mp_trace::CounterSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;
    use mp_dag::AccessMode;

    #[test]
    fn view_local_bytes_and_fetch_time() {
        let mut fx = Fixture::two_arch();
        let d_big = fx.graph.add_data(1_000_000, "big");
        let d_small = fx.graph.add_data(1_000, "small");
        let k = fx.both;
        let t = fx.graph.add_task(
            k,
            vec![(d_big, AccessMode::Read), (d_small, AccessMode::Read)],
            1.0,
            "t",
        );
        // big is on the GPU node, small only in RAM.
        fx.locator.place(d_big, MemNodeId(1));
        fx.locator.place(d_big, MemNodeId(0));
        fx.locator.place(d_small, MemNodeId(0));
        let view = fx.view();
        assert_eq!(view.local_bytes(t, MemNodeId(1)), 1_000_000);
        assert_eq!(view.local_bytes(t, MemNodeId(0)), 1_001_000);
        // Fetching to GPU only needs the small handle moved.
        let ft = view.fetch_time(t, MemNodeId(1));
        let expected = view
            .platform()
            .transfer_time(1_000, MemNodeId(0), MemNodeId(1));
        assert!((ft - expected).abs() < 1e-9);
        // Everything already in RAM: free.
        assert_eq!(view.fetch_time(t, MemNodeId(0)), 0.0);
    }

    #[test]
    fn delta_on_worker_refuses_an_incapable_worker() {
        let mut fx = Fixture::two_arch();
        let d = fx.graph.add_data(8, "d");
        let cpu_only = fx.cpu_only;
        let t = fx
            .graph
            .add_task(cpu_only, vec![(d, AccessMode::Read)], 1.0, "t");
        let view = fx.view();
        let p = view.platform();
        // Worker 0 is a CPU in the two_arch fixture; the last worker is
        // the GPU, which has no implementation of a CPU-only kernel.
        let cpu = WorkerId(0);
        let gpu = WorkerId((p.worker_count() - 1) as u32);
        assert!(view.worker_can_exec(t, cpu));
        assert_eq!(
            view.delta_on_worker(t, cpu),
            view.est.delta(t, p.worker(cpu).arch)
        );
        assert!(view.delta_on_worker(t, cpu).is_some());
        assert!(!view.worker_can_exec(t, gpu));
        assert_eq!(view.delta_on_worker(t, gpu), None);
    }
}
