//! Result-cache behaviour of the simulator (DESIGN.md §12): warm runs
//! hit, dirty cones re-execute, poisoned entries invalidate, and the
//! cache-off path is bit-identical to plain [`simulate`].

use mp_cache::{changed_tasks, resubmit_with_mutation, ResultCache};
use mp_dag::ids::TaskId;
use mp_dag::{AccessMode, StfBuilder, TaskGraph};
use mp_perfmodel::{TableModel, TimeFn};
use mp_platform::presets::simple;
use mp_platform::types::ArchClass;
use mp_sched::FifoScheduler;
use mp_sim::{simulate, simulate_cached, FaultPlan, RetryPolicy, SimConfig, SimResult};
use mp_trace::RuntimeEventKind;

/// A `cols × (rows + 1)` wavefront: one INIT writer per column, then
/// `rows` STEP layers where each task updates its column and reads its
/// left neighbor. Built through the STF builder, so every task carries
/// cache metadata.
fn pipeline(cols: usize, rows: usize) -> TaskGraph {
    let mut stf = StfBuilder::new();
    let init = stf.graph_mut().register_type("INIT", true, true);
    let step = stf.graph_mut().register_type("STEP", true, true);
    let data: Vec<_> = (0..cols)
        .map(|c| stf.graph_mut().add_data(256, format!("c{c}")))
        .collect();
    for (c, &d) in data.iter().enumerate() {
        stf.submit(
            init,
            vec![(d, AccessMode::Write)],
            1.0 + c as f64,
            format!("init{c}"),
        );
    }
    for r in 0..rows {
        for c in 0..cols {
            let mut acc = vec![(data[c], AccessMode::ReadWrite)];
            if c > 0 {
                acc.push((data[c - 1], AccessMode::Read));
            }
            stf.submit(step, acc, 2.0, format!("s{r}.{c}"));
        }
    }
    stf.finish()
}

fn model() -> TableModel {
    TableModel::builder()
        .set("INIT", ArchClass::Cpu, TimeFn::Const(10.0))
        .set("INIT", ArchClass::Gpu, TimeFn::Const(8.0))
        .set("STEP", ArchClass::Cpu, TimeFn::Const(20.0))
        .set("STEP", ArchClass::Gpu, TimeFn::Const(6.0))
        .build()
}

fn run_cached(g: &TaskGraph, cache: Option<&ResultCache>) -> SimResult {
    let mut s = FifoScheduler::new();
    simulate_cached(
        g,
        &simple(2, 1),
        &model(),
        &mut s,
        SimConfig::seeded(3),
        cache,
    )
}

#[test]
fn cache_off_is_bit_identical_to_plain_simulate() {
    let g = pipeline(4, 3);
    let mut s = FifoScheduler::new();
    let plain = simulate(&g, &simple(2, 1), &model(), &mut s, SimConfig::seeded(3));
    let off = run_cached(&g, None);
    assert_eq!(plain.makespan, off.makespan);
    assert_eq!(plain.trace.tasks.len(), off.trace.tasks.len());
    for (a, b) in plain.trace.tasks.iter().zip(&off.trace.tasks) {
        assert_eq!(
            (a.task, a.worker, a.start, a.end),
            (b.task, b.worker, b.start, b.end)
        );
    }
    assert_eq!(off.stats.cache_hits, 0);
    assert_eq!(off.stats.cache_misses, 0);
}

#[test]
fn cold_then_warm_hits_everything_at_zero_virtual_cost() {
    let g = pipeline(4, 3);
    let n = g.task_count() as u64;
    let cache = ResultCache::new();

    let cold = run_cached(&g, Some(&cache));
    assert!(cold.error.is_none(), "{:?}", cold.error);
    assert_eq!(cold.stats.cache_hits, 0, "cold run cannot hit");
    assert_eq!(cold.stats.cache_misses, n, "every task probed once");
    assert_eq!(cold.trace.tasks.len(), n as usize);
    assert_eq!(cache.len(), n as usize, "every completion populates");
    assert!(cold.makespan > 0.0);

    let warm = run_cached(&g, Some(&cache));
    assert!(warm.error.is_none(), "{:?}", warm.error);
    assert_eq!(warm.stats.cache_hits, n, "100% hit rate");
    assert_eq!(warm.stats.cache_misses, 0);
    assert!(warm.trace.tasks.is_empty(), "hits execute nothing");
    assert_eq!(warm.makespan, 0.0, "all-hit run takes zero virtual time");
    assert_eq!(warm.stats.tasks, n as usize, "hits still complete the DAG");
    assert!(warm.stats.bytes_materialized > 0);
    assert!(!warm.events.is_empty(), "hit instants recorded");
}

#[test]
fn mutated_resubmission_re_executes_exactly_the_dirty_cone() {
    let g = pipeline(5, 4);
    let n = g.task_count();
    let cache = ResultCache::new();
    run_cached(&g, Some(&cache)).ok().expect("cold run");

    let edited = resubmit_with_mutation(&g, 0.15, 42);
    let cone = changed_tasks(&g, &edited);
    assert!(
        !cone.is_empty() && cone.len() < n,
        "mutation must dirty a proper subset, got {}/{n}",
        cone.len()
    );

    let warm = run_cached(&edited, Some(&cache));
    assert!(warm.error.is_none(), "{:?}", warm.error);
    assert_eq!(
        warm.trace.tasks.len(),
        cone.len(),
        "only the dirty cone re-executes"
    );
    let mut executed: Vec<TaskId> = warm.trace.tasks.iter().map(|s| s.task).collect();
    executed.sort_unstable();
    let mut expected = cone.clone();
    expected.sort_unstable();
    assert_eq!(executed, expected, "re-executed set == changed_tasks()");
    assert_eq!(warm.stats.cache_hits as usize, n - cone.len());
}

#[test]
fn poisoned_entry_invalidates_and_re_executes_never_serves_garbage() {
    let g = pipeline(3, 2);
    let n = g.task_count();
    let cache = ResultCache::new();
    run_cached(&g, Some(&cache)).ok().expect("cold run");

    let key = g.cache_meta(TaskId::from_index(0)).expect("meta").key;
    assert!(cache.poison(key));

    let warm = run_cached(&g, Some(&cache));
    assert!(warm.error.is_none(), "{:?}", warm.error);
    assert_eq!(warm.stats.cache_invalidations, 1);
    assert_eq!(warm.trace.tasks.len(), 1, "only the poisoned task re-runs");
    assert_eq!(warm.trace.tasks[0].task, TaskId::from_index(0));
    assert_eq!(warm.stats.cache_hits as usize, n - 1);
    // The re-execution repaired the entry: a further run is all hits.
    let again = run_cached(&g, Some(&cache));
    assert_eq!(again.stats.cache_hits as usize, n);
}

/// One timeline instant per fault count: `events` holds exactly as many
/// worker failures, retries, recomputes and promotions as `stats` counts.
fn assert_fault_instants_match_stats(r: &SimResult) {
    let count = |kind: RuntimeEventKind| r.events.iter().filter(|e| e.kind == kind).count() as u64;
    let st = &r.stats;
    assert_eq!(
        [
            count(RuntimeEventKind::WorkerFailed),
            count(RuntimeEventKind::TaskRetried),
            count(RuntimeEventKind::TaskRecomputed),
            count(RuntimeEventKind::ReplicaPromoted),
        ],
        [
            st.worker_failures,
            st.tasks_retried,
            st.tasks_recomputed,
            st.replicas_promoted,
        ],
        "fault instants disagree with the fault counts"
    );
}

#[test]
fn caching_composes_with_fault_plans() {
    let g = pipeline(4, 3);
    let n = g.task_count() as u64;
    let cache = ResultCache::new();
    let run = |cache: Option<&ResultCache>, kills: FaultPlan| {
        let mut s = FifoScheduler::new();
        simulate_cached(
            &g,
            &simple(2, 1),
            &model(),
            &mut s,
            SimConfig::seeded(5)
                .with_faults(FaultPlan {
                    transient_fail_prob: 0.3,
                    ..kills
                })
                .with_retry(RetryPolicy::new(8, 10.0)),
            cache,
        )
    };
    let cpu_kill = FaultPlan::default().kill_worker(0, 2);
    let cold = run(Some(&cache), cpu_kill);
    assert!(cold.error.is_none(), "{:?}", cold.error);
    assert_fault_instants_match_stats(&cold);
    assert!(cold.stats.worker_failures == 1 && cold.stats.tasks_retried > 0);
    // Losing the GPU, the only worker of its memory node, also recomputes
    // or promotes what only the device held; each shows on the timeline.
    let gpu_kill = run(None, cpu_kill.kill_worker(2, 3));
    assert!(gpu_kill.error.is_none(), "{:?}", gpu_kill.error);
    assert_fault_instants_match_stats(&gpu_kill);
    assert!(gpu_kill.stats.tasks_recomputed > 0 && gpu_kill.stats.replicas_promoted > 0);
    assert_eq!(
        cold.stats.cache_hits + cold.stats.cache_misses,
        n,
        "every task probed exactly once despite retries/kills"
    );
    let warm = run(Some(&cache), cpu_kill);
    assert!(warm.error.is_none(), "{:?}", warm.error);
    assert_eq!(warm.stats.cache_hits, n, "warm run is all hits");
    assert_eq!(
        warm.stats.worker_failures, 0,
        "nothing executes, nobody dies"
    );
}
