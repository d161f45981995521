//! The traced run must make exactly the decisions of the untraced one:
//! the wrappers forward every trait method, so swapping them in may cost
//! time but never change a schedule or a result.

use std::sync::{Arc, Mutex};

use mp_apps::random::{random_dag, RandomDagConfig};
use mp_audit::{mirror_graph_computing, schedule_hash};
use mp_perfmodel::PerfModel;
use mp_platform::presets::simple;
use multiprio::MultiPrioScheduler;
use perfbench::trace::{self, Name};
use perfbench::workloads::{rt_fine, sim_cholesky::SimCholesky, timed_run};
use perfbench::wrap::TracedModel;

/// Tracing is process-wide; tests that turn it on take turns.
static TRACING: Mutex<()> = Mutex::new(());

#[test]
fn traced_sim_cholesky_reproduces_makespan_and_schedule_hash() {
    let _g = TRACING.lock().unwrap();
    for seed in [1, 2] {
        let w = SimCholesky::new(seed, 10);
        let (_, graph, _) = w.build();
        let untraced = w.simulate(&graph, false).expect("untraced run");

        trace::drain();
        trace::set_enabled(true);
        let traced = w.simulate(&graph, true).expect("traced run");
        trace::set_enabled(false);
        let spans: Vec<_> = trace::drain().into_iter().flatten().collect();

        assert!(untraced.is_complete() && traced.is_complete());
        assert_eq!(traced.makespan.to_bits(), untraced.makespan.to_bits());
        assert_eq!(schedule_hash(&traced.trace), schedule_hash(&untraced.trace));
        assert_eq!(traced.stats, untraced.stats);
        // The paper-figure harness simulates with the same configuration.
        let harness = mp_bench::run_once(
            &graph,
            &mp_platform::presets::intel_v100(),
            &mp_apps::dense_model(),
            "multiprio",
            seed,
        );
        assert_eq!(harness.makespan.to_bits(), untraced.makespan.to_bits());
        // The wrappers were really in the loop.
        for name in [
            Name::Simulate,
            Name::SchedPush,
            Name::SchedPop,
            Name::ModelEstimate,
        ] {
            assert!(spans.iter().any(|s| s.name == name), "no {name:?} span");
        }
    }
}

#[test]
fn traced_runtime_reproduces_the_buffer_digest() {
    let _g = TRACING.lock().unwrap();
    let graph = random_dag(RandomDagConfig {
        layers: 6,
        width: 24,
        gpu_fraction: 1.0,
        data_min: 8,
        data_max: 64,
        flops_min: 1e3,
        flops_max: 1e5,
        seed: 5,
    });
    let model: Arc<dyn PerfModel> = Arc::new(rt_fine::model());
    let digest = |traced: bool| {
        let m: Arc<dyn PerfModel> = if traced {
            Arc::new(TracedModel::new(Arc::clone(&model)))
        } else {
            Arc::clone(&model)
        };
        let (mut rt, mismatches) = mirror_graph_computing(&graph, &simple(1, 1), m);
        assert!(mismatches.is_empty());
        for _ in 0..3 {
            let (report, _) = timed_run(
                &mut rt,
                Box::new(MultiPrioScheduler::with_defaults()),
                traced,
            );
            let report = report.expect("run");
            assert!(report.is_complete());
            assert_eq!(report.trace.tasks.len(), graph.task_count());
        }
        rt.buffers_digest()
    };
    let plain = digest(false);
    trace::drain();
    trace::set_enabled(true);
    let traced = digest(true);
    trace::set_enabled(false);
    let spans: Vec<_> = trace::drain().into_iter().flatten().collect();
    assert_eq!(plain, traced);
    for name in [
        Name::Run,
        Name::FrontPop,
        Name::SchedPop,
        Name::ModelEstimate,
        Name::ModelRecord,
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name:?} span");
    }
}
