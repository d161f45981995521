//! `sim-cholesky`: the paper's evaluation path. A tile-960 Cholesky is
//! simulated on the Intel-V100 preset under MultiPrio with the
//! `SimConfig` of the paper-figure harness (`mp_bench::run_once`): trace
//! recorded and validated, no noise. One thread; the policy, the
//! estimator and the simulator engine do all the work, while threads,
//! kernels and the result cache do none.
//!
//! The seed picks the STF submission order (see [`crate::order`]), which
//! changes task ids and so the scheduler's id tie-breaks: the DAG, its
//! priorities and its size stay the same.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use mp_apps::dense::{potrf, DenseConfig};
use mp_dag::{TaskGraph, TaskId};
use mp_perfmodel::{PerfModel, TableModel};
use mp_platform::presets::intel_v100;
use mp_platform::types::Platform;
use mp_sched::Scheduler;
use mp_sim::{simulate, SimConfig, SimResult};

use crate::layers::Ledger;
use crate::order::{resubmit, same_edges, seeded_order};
use crate::trace::{span, Name, NO_TASK};
use crate::wrap::{TracedModel, TracedScheduler};
use crate::{Call, Fact, Ops, Rep, Workload};

/// Tile rows of the factorized matrix (22,100 tasks).
pub const TILES: usize = 50;
/// Tile side, as in the paper's dense runs.
pub const TILE: usize = 960;
/// How far a task may move ahead in the seeded submission order.
pub const WINDOW: usize = 32;

/// The workload.
pub struct SimCholesky {
    seed: u64,
    tiles: usize,
    platform: Platform,
    model: Arc<TableModel>,
    tasks: usize,
    edges: usize,
    /// `(makespan µs, schedule hash)` of the first run; every later run,
    /// traced or not, must reproduce it bit for bit.
    first: Option<(f64, u64)>,
}

impl SimCholesky {
    /// A `tiles × tiles` tile Cholesky for `seed`.
    pub fn new(seed: u64, tiles: usize) -> Self {
        Self {
            seed,
            tiles,
            platform: intel_v100(),
            model: Arc::new(mp_apps::dense_model()),
            tasks: 0,
            edges: 0,
            first: None,
        }
    }

    /// Generate the DAG and re-submit it in the seeded order. Returns
    /// the canonical DAG, the re-submitted one and the order.
    pub fn build(&self) -> (TaskGraph, TaskGraph, Vec<TaskId>) {
        let canonical = {
            let _s = span(Name::Generate, NO_TASK);
            potrf(DenseConfig::new(self.tiles * TILE, TILE)).graph
        };
        let order = seeded_order(&canonical, self.seed, WINDOW);
        let graph = resubmit(&canonical, &order);
        (canonical, graph, order)
    }

    /// Simulate `graph` under a fresh MultiPrio, with the policy and the
    /// model wrapped when `traced`. A panic (the engine's validation
    /// asserts) is returned as `Err`.
    pub fn simulate(&self, graph: &TaskGraph, traced: bool) -> Result<SimResult, String> {
        let cfg = SimConfig::seeded(self.seed).with_noise(0.0);
        let policy = mp_bench::make_scheduler("multiprio");
        catch_unwind(AssertUnwindSafe(|| {
            if traced {
                let mut sched = TracedScheduler::new(policy);
                let model = TracedModel::new(Arc::clone(&self.model) as Arc<dyn PerfModel>);
                let _s = span(Name::Simulate, NO_TASK);
                simulate(graph, &self.platform, &model, &mut sched, cfg)
            } else {
                let mut sched: Box<dyn Scheduler> = policy;
                simulate(graph, &self.platform, &*self.model, sched.as_mut(), cfg)
            }
        }))
        .map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }
}

impl Workload for SimCholesky {
    fn rep(&mut self, ledger: Option<&mut Ledger>) -> Rep {
        let mut ops = Ops::default();
        let t = Instant::now();
        let (canonical, graph, order) = self.build();
        let setup_s = t.elapsed().as_secs_f64();
        let same = same_edges(&canonical, &graph, &order);
        drop(canonical);
        ops.check(same, "seeded re-submission keeps the Cholesky edges");
        if !same {
            return Rep {
                setup_s,
                calls: Vec::new(),
                ops,
            };
        }
        self.tasks = graph.task_count();
        self.edges = graph.edge_count();

        let traced = ledger.is_some();
        let t = Instant::now();
        let result = self.simulate(&graph, traced);
        let wall_s = t.elapsed().as_secs_f64();
        let n = graph.task_count();
        let ok = match &result {
            Ok(r) => {
                let got = (r.makespan, mp_audit::schedule_hash(&r.trace));
                let first = *self.first.get_or_insert(got);
                r.is_complete()
                    && r.stats.tasks == n
                    && r.trace.tasks.len() == n
                    && got.0.to_bits() == first.0.to_bits()
                    && got.1 == first.1
            }
            Err(msg) => {
                eprintln!("perfbench: simulate panicked: {msg}");
                false
            }
        };
        ops.check(
            ok,
            "simulation completes with a validated trace and repeats its schedule",
        );
        if let (Some(l), Ok(r)) = (ledger, &result) {
            l.sim_transfer_bytes +=
                r.stats.demand_bytes + r.stats.prefetch_bytes + r.stats.writeback_bytes;
            l.sim_empty_pops += r.stats.empty_pops;
        }
        Rep {
            setup_s,
            calls: vec![Call {
                wall_s,
                tasks: n as u64,
                threads: 1,
            }],
            ops,
        }
    }

    fn virtual_makespan_s(&self) -> f64 {
        self.first.map_or(f64::NAN, |(m, _)| m * 1e-6)
    }

    fn facts(&self) -> Vec<(&'static str, Fact)> {
        vec![
            ("tasks", Fact::Int(self.tasks as u64)),
            ("edges", Fact::Int(self.edges as u64)),
            ("threads", Fact::Int(1)),
            ("loop", Fact::Text("closed DAG, simulated".into())),
            (
                "input",
                Fact::Text(format!(
                    "potrf {t}x{t} tiles of {TILE} on intel_v100, multiprio",
                    t = self.tiles
                )),
            ),
            (
                "schedule_hash",
                Fact::Text(format!("{:016x}", self.first.map_or(0, |f| f.1))),
            ),
        ]
    }
}
