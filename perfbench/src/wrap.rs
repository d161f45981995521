//! Transparent timing wrappers around the program's three extension
//! traits. Each forwards every trait method to the wrapped value —
//! including the ones engines read once, such as `consumes_feedback`,
//! `emits_prefetches` and `PerfModel::version` — so a traced run makes
//! exactly the decisions of an untraced one. Calls that do work open a
//! span; getters are forwarded untimed and count toward the caller's
//! self time.

use std::sync::Arc;

use mp_dag::ids::TaskId;
use mp_perfmodel::{EstimateQuery, PerfModel};
use mp_platform::types::WorkerId;
use mp_sched::api::{PrefetchReq, SchedEvent, SchedView, Scheduler};
use mp_sched::concurrent::{ConcurrentScheduler, GlobalLock};
use mp_trace::CounterSnapshot;

use crate::trace::{flag, flag_last, span, Name, NO_TASK};

fn task_of(t: TaskId) -> u32 {
    t.index() as u32
}

fn event_span(name: Name, ev: &SchedEvent) -> crate::trace::Guard {
    match *ev {
        SchedEvent::TaskStarted { t, .. } => {
            let mut g = span(name, task_of(t));
            g.flag(flag::STARTED);
            g
        }
        SchedEvent::TaskFinished { t, .. } => span(name, task_of(t)),
    }
}

/// A [`Scheduler`] policy with its calls timed.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
}

impl TracedScheduler {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        Self { inner }
    }
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn push(&mut self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let _s = span(Name::SchedPush, task_of(t));
        self.inner.push(t, releaser, view);
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let mut s = span(Name::SchedPop, NO_TASK);
        let got = self.inner.pop(w, view);
        if let Some(t) = got {
            s.flag(flag::POP_HIT);
            s.set_task(task_of(t));
            return got;
        }
        drop(s);
        // An empty pop is a hold-back when the policy still has tasks.
        // The extra `pending` query only reads and runs after the pop's
        // span closed, so the pop's own time is not inflated by it.
        if self.inner.pending() > 0 {
            flag_last(flag::HOLDBACK);
        }
        None
    }

    fn pending(&self) -> usize {
        let _s = span(Name::SchedOther, NO_TASK);
        self.inner.pending()
    }

    fn worker_disabled(&mut self, w: WorkerId, view: &SchedView<'_>) {
        let _s = span(Name::SchedOther, NO_TASK);
        self.inner.worker_disabled(w, view);
    }

    fn push_retry(&mut self, t: TaskId, attempt: u32, view: &SchedView<'_>) {
        let _s = span(Name::SchedOther, task_of(t));
        self.inner.push_retry(t, attempt, view);
    }

    fn feedback(&mut self, ev: &SchedEvent, view: &SchedView<'_>) {
        let _s = event_span(Name::SchedFeedback, ev);
        self.inner.feedback(ev, view);
    }

    fn consumes_feedback(&self) -> bool {
        self.inner.consumes_feedback()
    }

    fn drain_prefetches(&mut self) -> Vec<PrefetchReq> {
        let _s = span(Name::SchedOther, NO_TASK);
        self.inner.drain_prefetches()
    }

    fn drain_prefetches_into(&mut self, out: &mut Vec<PrefetchReq>) {
        let _s = span(Name::SchedOther, NO_TASK);
        self.inner.drain_prefetches_into(out);
    }

    fn emits_prefetches(&self) -> bool {
        self.inner.emits_prefetches()
    }

    fn counters(&self) -> CounterSnapshot {
        self.inner.counters()
    }
}

/// A [`ConcurrentScheduler`] front-end with its calls timed. The policy
/// inside is normally a [`TracedScheduler`], so a front-end span's self
/// time is the front-end's own cost: lock waits and hand-off.
pub struct TracedFront<F> {
    inner: F,
}

impl<F: ConcurrentScheduler> TracedFront<F> {
    /// Wrap `inner`.
    pub fn new(inner: F) -> Self {
        Self { inner }
    }
}

impl<F: ConcurrentScheduler> ConcurrentScheduler for TracedFront<F> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn push(&self, t: TaskId, releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let _s = span(Name::FrontPush, task_of(t));
        self.inner.push(t, releaser, view);
    }

    fn pop(&self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let mut s = span(Name::FrontPop, NO_TASK);
        let got = self.inner.pop(w, view);
        if let Some(t) = got {
            s.flag(flag::POP_HIT);
            s.set_task(task_of(t));
        }
        got
    }

    fn feedback(&self, ev: &SchedEvent, view: &SchedView<'_>) {
        let _s = event_span(Name::FrontFeedback, ev);
        self.inner.feedback(ev, view);
    }

    fn worker_disabled(&self, w: WorkerId, view: &SchedView<'_>) {
        let _s = span(Name::FrontOther, NO_TASK);
        self.inner.worker_disabled(w, view);
    }

    fn push_retry(&self, t: TaskId, attempt: u32, view: &SchedView<'_>) {
        let _s = span(Name::FrontOther, task_of(t));
        self.inner.push_retry(t, attempt, view);
    }

    fn pending(&self) -> usize {
        let _s = span(Name::FrontOther, NO_TASK);
        self.inner.pending()
    }

    fn drain_prefetches(&self) -> Vec<PrefetchReq> {
        let _s = span(Name::FrontOther, NO_TASK);
        self.inner.drain_prefetches()
    }

    fn counters(&self) -> CounterSnapshot {
        self.inner.counters()
    }
}

/// A [`PerfModel`] with its calls timed.
pub struct TracedModel {
    inner: Arc<dyn PerfModel>,
}

impl TracedModel {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn PerfModel>) -> Self {
        Self { inner }
    }
}

impl PerfModel for TracedModel {
    fn estimate(&self, q: &EstimateQuery<'_>) -> Option<f64> {
        let _s = span(Name::ModelEstimate, task_of(q.task.id));
        self.inner.estimate(q)
    }

    fn record(&self, q: &EstimateQuery<'_>, measured_us: f64) {
        let _s = span(Name::ModelRecord, task_of(q.task.id));
        self.inner.record(q, measured_us);
    }

    fn version(&self) -> u64 {
        self.inner.version()
    }
}

/// `model` itself, or wrapped in a [`TracedModel`] when `traced`.
pub fn model_for(model: Arc<dyn PerfModel>, traced: bool) -> Arc<dyn PerfModel> {
    if traced {
        Arc::new(TracedModel::new(model))
    } else {
        model
    }
}

/// The global-lock front-end `Runtime::run` and `Runtime::serve` build,
/// with both the front-end and the policy inside it wrapped.
pub fn traced_global_lock(policy: Box<dyn Scheduler>) -> TracedFront<GlobalLock> {
    TracedFront::new(GlobalLock::new(Box::new(TracedScheduler::new(policy))))
}
