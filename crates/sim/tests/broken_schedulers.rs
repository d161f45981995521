//! Regression tests: a scheduler that violates its contract must stop
//! the simulation with a typed [`SimError`] in `SimResult::error` — the
//! engine formerly aborted the whole process with `panic!` deep inside
//! task staging. A serving stream runs on the same loop, so each broken
//! scheduler must end a [`serve_sim`] run with the same error.

use mp_dag::{AccessMode, TaskGraph, TaskId};
use mp_perfmodel::{TableModel, TimeFn};
use mp_platform::presets::simple;
use mp_platform::types::{ArchClass, WorkerId};
use mp_sched::{SchedView, Scheduler};
use mp_serve::{ArrivalProcess, TenantSpec};
use mp_sim::{serve_sim, simulate, ServeConfig, SimConfig, SimError, SimResult};

/// Two CPU-only tasks; `simple(1, 1)` provides one CPU and one GPU.
fn cpu_only_fixture() -> (TaskGraph, mp_platform::types::Platform, TableModel) {
    let mut g = TaskGraph::new();
    let k = g.register_type("CPUONLY", true, false);
    for i in 0..2 {
        let d = g.add_data(1024, format!("d{i}"));
        g.add_task(k, vec![(d, AccessMode::ReadWrite)], 1.0, format!("t{i}"));
    }
    let p = simple(1, 1);
    let m = TableModel::builder()
        .set("CPUONLY", ArchClass::Cpu, TimeFn::Const(100.0))
        .build();
    (g, p, m)
}

/// Hands every task to every worker that asks, capability be damned.
struct BlindScheduler {
    queue: Vec<TaskId>,
}

impl Scheduler for BlindScheduler {
    fn name(&self) -> &'static str {
        "blind"
    }
    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, _view: &SchedView<'_>) {
        self.queue.push(t);
    }
    fn pop(&mut self, _w: WorkerId, _view: &SchedView<'_>) -> Option<TaskId> {
        self.queue.pop()
    }
    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Accepts pushes but never hands anything out, counting the pops it
/// refused.
struct HoardingScheduler {
    held: usize,
    pops: usize,
}

impl Scheduler for HoardingScheduler {
    fn name(&self) -> &'static str {
        "hoarding"
    }
    fn push(&mut self, _t: TaskId, _releaser: Option<WorkerId>, _view: &SchedView<'_>) {
        self.held += 1;
    }
    fn pop(&mut self, _w: WorkerId, _view: &SchedView<'_>) -> Option<TaskId> {
        self.pops += 1;
        None
    }
    fn pending(&self) -> usize {
        self.held
    }
}

/// Hands out the first task it ever saw, over and over.
struct StutteringScheduler {
    first: Option<TaskId>,
}

impl Scheduler for StutteringScheduler {
    fn name(&self) -> &'static str {
        "stuttering"
    }
    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, _view: &SchedView<'_>) {
        self.first.get_or_insert(t);
    }
    fn pop(&mut self, _w: WorkerId, _view: &SchedView<'_>) -> Option<TaskId> {
        self.first
    }
    fn pending(&self) -> usize {
        usize::from(self.first.is_some())
    }
}

#[test]
fn incapable_assignment_is_a_typed_error_not_an_abort() {
    let (g, p, m) = cpu_only_fixture();
    let mut s = BlindScheduler { queue: Vec::new() };
    let r = simulate(&g, &p, &m, &mut s, SimConfig::default());
    assert!(!r.is_complete());
    match r.error {
        Some(SimError::IncapableWorker { task: _, worker }) => {
            // `simple(1, 1)`: worker 1 is the GPU — the only incapable one.
            assert_eq!(worker, WorkerId(1));
        }
        other => panic!("expected IncapableWorker, got {other:?}"),
    }
    assert!(matches!(r.ok(), Err(SimError::IncapableWorker { .. })));
}

#[test]
fn refusing_every_pop_is_a_typed_deadlock() {
    let (g, p, m) = cpu_only_fixture();
    let mut s = HoardingScheduler { held: 0, pops: 0 };
    let r = simulate(&g, &p, &m, &mut s, SimConfig::default());
    match r.error {
        Some(SimError::Deadlock {
            completed,
            total,
            pending,
            stuck,
        }) => {
            assert_eq!((completed, total, pending), (0, 2, 2));
            // Both tasks are dependency-free: the report pins the blame
            // on the scheduler holding them, not on the graph.
            assert_eq!(stuck.len(), 2);
            assert!(stuck.iter().all(|(_, unmet)| unmet.is_empty()), "{stuck:?}");
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
    assert_eq!(r.stats.tasks, 0);
}

/// Two tasks runnable on either arch, so only the double pop can trip.
fn both_arch_fixture() -> (TaskGraph, mp_platform::types::Platform, TableModel) {
    let mut g = TaskGraph::new();
    let k = g.register_type("BOTH", true, true);
    for i in 0..2 {
        let d = g.add_data(1024, format!("d{i}"));
        g.add_task(k, vec![(d, AccessMode::ReadWrite)], 1.0, format!("t{i}"));
    }
    let p = simple(1, 1);
    let m = TableModel::builder()
        .set("BOTH", ArchClass::Cpu, TimeFn::Const(100.0))
        .set("BOTH", ArchClass::Gpu, TimeFn::Const(10.0))
        .build();
    (g, p, m)
}

#[test]
fn double_pop_is_a_typed_error() {
    let (g, p, m) = both_arch_fixture();
    let mut s = StutteringScheduler { first: None };
    let r = simulate(&g, &p, &m, &mut s, SimConfig::default());
    // The second pop of the same task is rejected before it can run.
    assert!(
        matches!(r.error, Some(SimError::DoubleExecution { task }) if task == TaskId(0)),
        "got {:?}",
        r.error
    );
}

#[test]
fn partial_progress_survives_a_late_failure() {
    // The typed error must preserve whatever trace and stats were
    // accumulated before the failure, and the engine must return.
    let (g, p, m) = both_arch_fixture();
    let mut s = StutteringScheduler { first: None };
    let r = simulate(&g, &p, &m, &mut s, SimConfig::default());
    assert!(r.error.is_some());
    // t0 was handed out once before the stutter; nothing else ran, and
    // the engine still returns (no process abort, no hang).
    assert!(r.stats.tasks <= 1);
}

/// Two fork-join sub-DAGs of the serving `SRV` type on `simple(1, 1)`,
/// priced on the CPU only or (`gpu`) on both arches.
fn serve_two_subdags(s: &mut dyn Scheduler, gpu: bool) -> SimResult {
    let mut m = TableModel::builder().set("SRV", ArchClass::Cpu, TimeFn::Const(100.0));
    if gpu {
        m = m.set("SRV", ArchClass::Gpu, TimeFn::Const(10.0));
    }
    let cfg = ServeConfig::new(
        TenantSpec::equal(1),
        ArrivalProcess::Poisson {
            rate_per_sec: 1000.0,
        },
        2,
    );
    serve_sim(&simple(1, 1), &m.build(), s, &cfg)
}

#[test]
fn incapable_assignment_while_serving_is_a_typed_error() {
    let r = serve_two_subdags(&mut BlindScheduler { queue: Vec::new() }, false);
    assert!(
        matches!(r.error, Some(SimError::IncapableWorker { worker, .. }) if worker == WorkerId(1)),
        "got {:?}",
        r.error
    );
}

#[test]
fn refusing_every_pop_while_serving_is_a_typed_deadlock() {
    let mut s = HoardingScheduler { held: 0, pops: 0 };
    let r = serve_two_subdags(&mut s, false);
    match r.error {
        Some(SimError::Deadlock {
            completed,
            total,
            pending,
            stuck,
        }) => {
            // Both roots were released and held; their successors wait
            // on them.
            assert_eq!((completed, total, pending), (0, 12, 2));
            assert!(stuck[0].1.is_empty(), "{stuck:?}");
            assert_eq!(stuck[1].1, vec![stuck[0].0], "{stuck:?}");
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
    assert_eq!(r.stats.tasks, 0);
    // The stream stalls as soon as its last event is handled: each of
    // the two arrivals dispatches once and asks each idle worker once.
    // Nothing re-polls the stalled stream.
    let asks = 2 * simple(1, 1).worker_count();
    assert!(s.pops <= asks, "{} pops for {asks} asks", s.pops);
    assert_eq!(r.stats.empty_pops, s.pops as u64);
}

#[test]
fn double_pop_while_serving_is_a_typed_error() {
    let r = serve_two_subdags(&mut StutteringScheduler { first: None }, true);
    assert!(
        matches!(r.error, Some(SimError::DoubleExecution { task }) if task == TaskId(0)),
        "got {:?}",
        r.error
    );
}
