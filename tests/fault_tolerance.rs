//! Worker-failure tolerance (DESIGN.md §9): detection, quarantine, task
//! retry with backoff, and replica recovery.
//!
//! The contract under a fault plan: every run either completes with each
//! task committed at least once (*effectively-once* — sim-side recompute
//! recovery may legitimately re-commit a producer whose output died with
//! a device), or stops with a typed error naming the task that no
//! surviving worker can execute. Fault injection is deterministic — the
//! same plan reproduces the same schedule bit for bit.

use std::sync::Arc;

use multiprio_suite::apps::dense::{geqrf, potrf, DenseConfig};
use multiprio_suite::apps::dense_model;
use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::audit::diff::check_effectively_once;
use multiprio_suite::audit::{differential, schedule_hash, DiffConfig, Front, Side};
use multiprio_suite::bench::{make_scheduler, make_scheduler_factory};
use multiprio_suite::cache::ResultCache;
use multiprio_suite::dag::{AccessMode, TaskGraph};
use multiprio_suite::perfmodel::{PerfModel, TableModel, TimeFn};
use multiprio_suite::platform::presets::{intel_v100, simple};
use multiprio_suite::platform::types::ArchClass;
use multiprio_suite::runtime::{FaultPlan, RetryPolicy};
use multiprio_suite::sim::{simulate, simulate_cached, SimConfig, SimError};
use multiprio_suite::trace::Trace;
use proptest::prelude::*;

const SCHEDULERS: [&str; 4] = ["multiprio", "dmdas", "heteroprio", "lws"];

/// Every task of a simulated run committed at least once: the audit's
/// effectively-once check finds nothing (a span naming a task outside
/// the graph is a finding too).
fn effectively_once(graph: &TaskGraph, trace: &Trace) -> bool {
    let mut findings = Vec::new();
    check_effectively_once(graph, trace, Side::Sim, &mut findings);
    findings.is_empty()
}

/// Kill plans through the full differential harness: the sim (virtual
/// time) and the runtime (wall clock, both front-ends) must both
/// quarantine the victim, finish the DAG on the survivors, and agree on
/// effectively-once + precedence.
#[test]
fn kill_sweep_differential_agrees_across_front_ends() {
    let g = random_dag(RandomDagConfig {
        layers: 4,
        width: 5,
        seed: 23,
        ..Default::default()
    });
    let model: Arc<dyn PerfModel> = Arc::new(random_model());
    let platform = simple(3, 1);
    for sched in SCHEDULERS {
        let factory = make_scheduler_factory(sched);
        for front in [Front::Global, Front::Sharded(4)] {
            // Kill a CPU early, a CPU late, and the lone GPU (every
            // random-DAG kernel keeps a CPU implementation, so the run
            // must still complete).
            for plan in [
                FaultPlan::default().kill_worker(0, 0),
                FaultPlan::default().kill_worker(1, 3),
                FaultPlan::default().kill_worker(3, 1),
                FaultPlan::default().kill_worker(0, 1).kill_worker(3, 2),
            ] {
                let cfg = DiffConfig {
                    sim_cfg: SimConfig::seeded(5),
                    front,
                    faults: Some(plan),
                    retry: RetryPolicy::new(4, 0.0),
                };
                let report = differential(&g, &platform, &model, &*factory, &cfg);
                assert!(
                    report.is_clean(),
                    "{sched}/front={front:?}/kills={:?}: first mismatch: {}",
                    plan.kills,
                    report.mismatches[0]
                );
            }
        }
    }
}

/// Transient failures under the differential harness: with a retry
/// budget both sides absorb every failed attempt and agree.
#[test]
fn transient_sweep_differential_agrees_across_front_ends() {
    let g = random_dag(RandomDagConfig {
        layers: 4,
        width: 5,
        seed: 29,
        ..Default::default()
    });
    let model: Arc<dyn PerfModel> = Arc::new(random_model());
    let platform = simple(3, 1);
    for sched in SCHEDULERS {
        let factory = make_scheduler_factory(sched);
        for front in [Front::Global, Front::Sharded(4)] {
            let plan = FaultPlan {
                seed: 31,
                transient_fail_prob: 0.3,
                ..FaultPlan::default()
            };
            let cfg = DiffConfig {
                sim_cfg: SimConfig::seeded(5),
                front,
                faults: Some(plan),
                retry: RetryPolicy::new(16, 2.0),
            };
            let report = differential(&g, &platform, &model, &*factory, &cfg);
            assert!(
                report.is_clean(),
                "{sched}/front={front:?}: first mismatch: {}",
                report.mismatches[0]
            );
        }
    }
}

/// Killing every GPU mid-Cholesky degrades the run to CPU-only: the
/// survivors absorb the remaining tasks (every dense kernel has a CPU
/// implementation) and the DAG completes effectively-once.
#[test]
fn all_gpus_killed_cholesky_degrades_to_cpu_and_completes() {
    let w = potrf(DenseConfig::new(6 * 480, 480));
    let model = dense_model();
    let platform = simple(4, 2); // workers 0–3 CPU, 4–5 GPU
    for sched in SCHEDULERS {
        let f = make_scheduler_factory(sched);
        let mut s = f();
        let r = simulate(
            &w.graph,
            &platform,
            &model,
            s.as_mut(),
            SimConfig::seeded(3)
                .with_faults(FaultPlan::default().kill_worker(4, 2).kill_worker(5, 3))
                .with_retry(RetryPolicy::new(4, 0.0)),
        );
        assert!(r.error.is_none(), "{sched}: {:?}", r.error);
        assert_eq!(r.stats.worker_failures, 2, "{sched}");
        assert!(effectively_once(&w.graph, &r.trace), "{sched}");
        // After the last GPU span ends, everything runs on the CPUs.
        let gpu_last = r
            .trace
            .tasks
            .iter()
            .filter(|sp| sp.worker.index() >= 4)
            .map(|sp| sp.end)
            .fold(0.0f64, f64::max);
        assert!(gpu_last > 0.0, "{sched}: GPUs never ran before dying");
        let cpu_after = r
            .trace
            .tasks
            .iter()
            .filter(|sp| sp.start >= gpu_last)
            .collect::<Vec<_>>();
        assert!(
            !cpu_after.is_empty() && cpu_after.iter().all(|sp| sp.worker.index() < 4),
            "{sched}: post-failure spans not CPU-only"
        );
    }
}

/// The same fault plan reproduces the same schedule bit for bit — kills,
/// retries and recompute recovery all run on virtual time, never the
/// wall clock.
#[test]
fn fault_schedules_are_bit_identical_across_repeats() {
    let w = potrf(DenseConfig::new(4 * 480, 480));
    let model = dense_model();
    let platform = simple(2, 2);
    for sched in SCHEDULERS {
        let plan = FaultPlan {
            seed: 17,
            transient_fail_prob: 0.2,
            ..FaultPlan::default()
        }
        .kill_worker(3, 1)
        .kill_worker(1, 4);
        let run = || {
            let f = make_scheduler_factory(sched);
            let mut s = f();
            simulate(
                &w.graph,
                &platform,
                &model,
                s.as_mut(),
                SimConfig::seeded(11)
                    .with_faults(plan)
                    .with_retry(RetryPolicy::new(16, 3.0)),
            )
        };
        let (a, b) = (run(), run());
        assert!(a.error.is_none(), "{sched}: {:?}", a.error);
        assert_eq!(
            schedule_hash(&a.trace),
            schedule_hash(&b.trace),
            "{sched}: fault schedule not repeat-deterministic"
        );
    }
}

/// A warm rerun whose cache-served task is later recomputed after a node
/// loss validates instead of panicking: the recompute span of such a
/// predecessor ends after successors that started at its hit. On Intel-
/// V100, worker 1 is a CPU and worker 31 the last GPU. The cold run only
/// fills the cache: it ends in a `Deadlock` of its own (recompute seeds
/// held in the scheduler), which this test does not cover.
#[test]
fn warm_rerun_with_a_recomputed_cache_hit_validates() {
    let w = geqrf(DenseConfig::new(8 * 960, 960));
    let model = dense_model();
    let platform = intel_v100();
    let cfg = SimConfig::default()
        .with_faults(FaultPlan::default().kill_worker(1, 3).kill_worker(31, 5))
        .with_retry(RetryPolicy::new(4, 0.0));
    let cache = ResultCache::new();
    let run = || {
        let mut s = make_scheduler("multiprio");
        simulate_cached(&w.graph, &platform, &model, s.as_mut(), cfg, Some(&cache))
    };
    let _cold = run();
    let warm = run();
    assert!(warm.error.is_none(), "{:?}", warm.error);
    assert!(warm.stats.cache_hits > 0 && warm.stats.tasks_recomputed > 0);
    assert_eq!(warm.stats.tasks, w.graph.task_count());
}

/// Mixed-capability graph for the survivor proptest: chains of CPU-only,
/// GPU-only and dual-implementation kernels, selected by `kinds` bits.
fn mixed_graph(kinds: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut specs = Vec::new();
    if kinds & 1 != 0 {
        specs.push(g.register_type("CPUONLY", true, false));
    }
    if kinds & 2 != 0 {
        specs.push(g.register_type("GPUONLY", false, true));
    }
    if kinds & 4 != 0 {
        specs.push(g.register_type("BOTH", true, true));
    }
    for (i, &k) in specs.iter().enumerate() {
        let d = g.add_data(1024, format!("d{i}"));
        for j in 0..3 {
            g.add_task(
                k,
                vec![(d, AccessMode::ReadWrite)],
                1.0,
                format!("t{i}_{j}"),
            );
        }
    }
    g
}

fn mixed_model() -> TableModel {
    TableModel::builder()
        .set("CPUONLY", ArchClass::Cpu, TimeFn::Const(50.0))
        .set("GPUONLY", ArchClass::Gpu, TimeFn::Const(20.0))
        .set("BOTH", ArchClass::Cpu, TimeFn::Const(50.0))
        .set("BOTH", ArchClass::Gpu, TimeFn::Const(20.0))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Kill a random subset of workers at start-of-run: the run completes
    /// (effectively-once) iff every kernel kind present retains a capable
    /// survivor; otherwise it stops with the typed `NoCapableWorker`.
    #[test]
    fn prop_completes_iff_every_kernel_keeps_a_capable_survivor(
        kill_mask in 0u32..8,
        kinds in 1usize..8,
        sched_idx in 0usize..SCHEDULERS.len(),
    ) {
        // simple(2, 1): workers 0–1 CPU, worker 2 GPU.
        let g = mixed_graph(kinds);
        let model = mixed_model();
        let platform = simple(2, 1);
        let mut plan = FaultPlan::default();
        for wk in 0..3usize {
            if kill_mask & (1 << wk) != 0 {
                plan = plan.kill_worker(wk, 0);
            }
        }
        let cpu_survives = kill_mask & 0b011 != 0b011;
        let gpu_survives = kill_mask & 0b100 == 0;
        let expect_ok = (kinds & 1 == 0 || cpu_survives)
            && (kinds & 2 == 0 || gpu_survives)
            && (kinds & 4 == 0 || cpu_survives || gpu_survives);

        let factory = make_scheduler_factory(SCHEDULERS[sched_idx]);
        let mut s = factory();
        let r = simulate(&g, &platform, &model, s.as_mut(),
            SimConfig::seeded(7).with_faults(plan).with_retry(RetryPolicy::new(4, 0.0)));
        if expect_ok {
            prop_assert!(r.error.is_none(),
                "mask={kill_mask:03b} kinds={kinds:03b} {}: unexpected {:?}",
                SCHEDULERS[sched_idx], r.error);
            prop_assert_eq!(r.stats.tasks, g.task_count());
            prop_assert!(effectively_once(&g, &r.trace));
        } else {
            prop_assert!(
                matches!(r.error, Some(SimError::NoCapableWorker { .. })),
                "mask={kill_mask:03b} kinds={kinds:03b} {}: expected NoCapableWorker, got {:?}",
                SCHEDULERS[sched_idx], r.error
            );
        }
    }
}
