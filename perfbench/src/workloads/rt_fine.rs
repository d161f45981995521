//! `rt-fine`: per-task runtime overhead. A seeded layered random DAG
//! whose task types all have CPU and GPU implementations is mirrored
//! into a `Runtime` with `mp_audit::mirror_graph_computing`, giving
//! sub-µs, order-sensitive kernels, and re-run many times on one
//! `Runtime` on `simple(1, 1)` under MultiPrio. Nearly all of its time
//! is the runtime's own: the global-lock front-end, the worker loop,
//! park/wake, span recording and successor release. The simulator and
//! the result cache are bypassed.
//!
//! CPU-only task types are left out on purpose: with them, MultiPrio's
//! hold-back re-polls make runs several times slower than `prio` and
//! too unsteady to gate on.

use std::sync::Arc;
use std::time::Instant;

use mp_apps::random::{random_dag, RandomDagConfig};
use mp_audit::mirror_graph_computing;
use mp_dag::TaskGraph;
use mp_perfmodel::{PerfModel, TableModel, TimeFn};
use mp_platform::presets::{homogeneous, simple};
use mp_platform::types::{ArchClass, Platform};
use mp_sched::FifoScheduler;
use mp_sim::{simulate, SimConfig};
use multiprio::MultiPrioScheduler;

use super::timed_run;
use crate::layers::Ledger;
use crate::trace::{span, Name, NO_TASK};
use crate::wrap::model_for;
use crate::{Call, Fact, Ops, Rep, Workload};

/// DAG layers.
pub const LAYERS: usize = 8;
/// Tasks per layer (one data column each).
pub const WIDTH: usize = 256;
/// Runs per `Runtime`. Every run feeds the next one's inputs, so values
/// grow run over run; this many keeps every buffer finite, which the
/// reference check requires.
pub const RUNS: usize = 8;

/// The µs model matched to the mirrored kernels, whose cost grows with
/// the bytes they touch; both classes run the same closure.
pub fn model() -> TableModel {
    let f = TimeFn::PerByte {
        overhead_us: 0.2,
        us_per_kib: 0.4,
    };
    TableModel::builder()
        .set("RBOTH", ArchClass::Cpu, f)
        .set("RBOTH", ArchClass::Gpu, f)
        .build()
}

/// The workload.
pub struct RtFine {
    config: RandomDagConfig,
    platform: Platform,
    model: Arc<TableModel>,
    tasks: usize,
    edges: usize,
    /// Buffer digest after [`RUNS`] runs of a single-worker FIFO replay.
    reference: Option<u64>,
    virtual_makespan_us: f64,
}

impl RtFine {
    /// The workload for `seed`: the reference digest and the virtual
    /// makespan are computed here, outside every timing.
    pub fn new(seed: u64) -> Self {
        let config = RandomDagConfig {
            layers: LAYERS,
            width: WIDTH,
            gpu_fraction: 1.0,
            data_min: 8,
            data_max: 64,
            flops_min: 1e3,
            flops_max: 1e5,
            seed,
        };
        let model = Arc::new(model());
        let graph = random_dag(config);
        let platform = simple(1, 1);
        let reference = reference_digest(&graph, &model);
        let mut policy = MultiPrioScheduler::with_defaults();
        let sim = simulate(
            &graph,
            &super::unified_1x1(),
            &*model,
            &mut policy,
            SimConfig::seeded(seed),
        );
        Self {
            config,
            platform,
            model,
            tasks: graph.task_count(),
            edges: graph.edge_count(),
            reference,
            virtual_makespan_us: if sim.is_complete() {
                sim.makespan
            } else {
                f64::NAN
            },
        }
    }
}

/// Digest of the mirrored buffers after [`RUNS`] sequential runs on one
/// worker; `None` if a run fails or a value is no longer finite.
fn reference_digest(graph: &TaskGraph, model: &Arc<TableModel>) -> Option<u64> {
    let (mut rt, mismatches) = mirror_graph_computing(
        graph,
        &homogeneous(1),
        Arc::clone(model) as Arc<dyn PerfModel>,
    );
    if !mismatches.is_empty() {
        return None;
    }
    for _ in 0..RUNS {
        let r = rt.run(Box::new(FifoScheduler::new())).ok()?;
        if !r.is_complete() {
            return None;
        }
    }
    let finite = graph
        .data()
        .iter()
        .all(|d| rt.buffer(d.id).iter().all(|v| v.is_finite()));
    finite.then(|| rt.buffers_digest())
}

impl Workload for RtFine {
    fn rep(&mut self, ledger: Option<&mut Ledger>) -> Rep {
        let traced = ledger.is_some();
        let mut ops = Ops::default();
        let model = model_for(Arc::clone(&self.model) as Arc<dyn PerfModel>, traced);
        let t = Instant::now();
        let graph = {
            let _s = span(Name::Generate, NO_TASK);
            random_dag(self.config)
        };
        let (mut rt, mismatches) = {
            let _s = span(Name::Mirror, NO_TASK);
            mirror_graph_computing(&graph, &self.platform, model)
        };
        let setup_s = t.elapsed().as_secs_f64();
        if let Some(l) = ledger {
            l.mirrored_tasks += graph.task_count() as u64;
        }
        ops.check(
            mismatches.is_empty(),
            "mirrored runtime has the DAG's edges",
        );

        let n = graph.task_count();
        let mut calls = Vec::with_capacity(RUNS);
        for i in 0..RUNS {
            let policy = Box::new(MultiPrioScheduler::with_defaults());
            let (report, wall_s) = timed_run(&mut rt, policy, traced);
            calls.push(Call {
                wall_s,
                tasks: n as u64,
                threads: 2,
            });
            let mut ok = matches!(&report, Ok(r) if r.is_complete() && r.trace.tasks.len() == n);
            if i + 1 == RUNS {
                ok &= self.reference == Some(rt.buffers_digest());
            }
            ops.check(
                ok,
                "run completes every task; final digest matches the replay",
            );
        }
        Rep {
            setup_s,
            calls,
            ops,
        }
    }

    fn virtual_makespan_s(&self) -> f64 {
        self.virtual_makespan_us * 1e-6
    }

    fn facts(&self) -> Vec<(&'static str, Fact)> {
        vec![
            ("tasks", Fact::Int(self.tasks as u64)),
            ("edges", Fact::Int(self.edges as u64)),
            ("threads", Fact::Int(2)),
            (
                "loop",
                Fact::Text(format!("closed DAG, {RUNS} runs per Runtime")),
            ),
            (
                "input",
                Fact::Text(format!(
                    "random_dag {LAYERS}x{WIDTH}, all types CPU+GPU, simple(1,1), multiprio"
                )),
            ),
        ]
    }
}
