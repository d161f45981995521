//! `rt-cholesky`: kernels dominate. A tiled Cholesky with real tile
//! kernels — naive loops for the CPU class, cache-blocked updates for
//! the emulated GPU class — runs on `simple(1, 1)` under MultiPrio. The
//! perf model is a `HistoryModel`, calibrated before timing and shared
//! across runs, so this is the one workload where the model learns
//! online and where workers idle between long kernels. Runtime overhead
//! changes are predicted flat here. Each run gets a fresh `Runtime`
//! because the factorization overwrites its input.
//!
//! The seed draws the matrix and, as in `sim-cholesky`, the STF
//! submission order.

use std::sync::Arc;
use std::time::Instant;

use mp_apps::dense::{potrf, DenseConfig};
use mp_dag::{AccessMode, DataId, TaskGraph, TaskId};
use mp_perfmodel::{HistoryModel, PerfModel, TableModel};
use mp_platform::presets::simple;
use mp_platform::types::Platform;
use mp_runtime::{Runtime, TaskBuilder, TaskCtx};
use mp_sim::{simulate, SimConfig};
use multiprio::MultiPrioScheduler;

use super::timed_run;
use crate::layers::Ledger;
use crate::order::{resubmit, seeded_order};
use crate::tiles;
use crate::trace::{span, Name, NO_TASK};
use crate::wrap::model_for;
use crate::{Call, Fact, Ops, Rep, Workload};

/// Tile rows.
pub const TILES: usize = 12;
/// Tile side.
pub const TILE: usize = 64;
/// Largest accepted `‖A − L·Lᵀ‖_F / ‖A‖_F`.
pub const TOLERANCE: f64 = 1e-12;
/// Untimed runs that calibrate the history model before timing.
pub const CALIBRATION_RUNS: usize = 3;

/// Base rates of the history model (GFlop/s, CPU then GPU class).
fn base_model() -> TableModel {
    TableModel::builder()
        .rates("POTRF", 1.0, 1.0, 1.0)
        .rates("TRSM", 1.0, 1.5, 1.0)
        .rates("SYRK", 1.0, 2.0, 1.0)
        .rates("GEMM", 1.0, 2.0, 1.0)
        .build()
}

/// The workload.
pub struct RtCholesky {
    platform: Platform,
    history: Arc<HistoryModel<TableModel>>,
    /// Row-major `n × n` input.
    matrix: Vec<f64>,
    /// The Cholesky DAG in the seeded submission order, over the
    /// canonical tile handles (`i * TILES + j`).
    order: Vec<TaskId>,
    canonical: TaskGraph,
    edges: usize,
    virtual_makespan_us: f64,
    kernel_share: Vec<f64>,
}

impl RtCholesky {
    /// The workload for `seed`; calibrates the model.
    pub fn new(seed: u64) -> Self {
        let n = TILES * TILE;
        let canonical = potrf(DenseConfig::new(n, TILE)).graph;
        let order = seeded_order(&canonical, seed, super::sim_cholesky::WINDOW);
        let reordered = resubmit(&canonical, &order);
        let platform = simple(1, 1);
        let mut policy = MultiPrioScheduler::with_defaults();
        let sim = simulate(
            &reordered,
            &super::unified_1x1(),
            &base_model(),
            &mut policy,
            SimConfig::seeded(seed),
        );
        let mut w = Self {
            platform,
            history: Arc::new(HistoryModel::new(base_model(), 3)),
            matrix: tiles::spd_matrix(n, seed),
            order,
            canonical,
            edges: reordered.edge_count(),
            virtual_makespan_us: if sim.is_complete() {
                sim.makespan
            } else {
                f64::NAN
            },
            kernel_share: Vec::new(),
        };
        for _ in 0..CALIBRATION_RUNS {
            w.rep(None);
        }
        w.kernel_share.clear();
        w
    }

    fn tile(&self, i: usize, j: usize) -> Vec<f64> {
        let n = TILES * TILE;
        let mut t = Vec::with_capacity(TILE * TILE);
        for r in 0..TILE {
            let row = (i * TILE + r) * n + j * TILE;
            t.extend_from_slice(&self.matrix[row..row + TILE]);
        }
        t
    }

    /// A fresh runtime holding the matrix and the submitted DAG, and the
    /// handle of each lower tile.
    fn setup(&self, traced: bool) -> (Runtime, Vec<Option<DataId>>) {
        let model = model_for(Arc::clone(&self.history) as Arc<dyn PerfModel>, traced);
        let mut rt = Runtime::new(self.platform.clone(), model);
        let mut handle: Vec<Option<DataId>> = vec![None; TILES * TILES];
        for i in 0..TILES {
            for j in 0..=i {
                let data = self.tile(i, j);
                let _s = span(Name::Register, NO_TASK);
                handle[i * TILES + j] = Some(rt.register(data, &format!("A({i},{j})")));
            }
        }
        for (new, &old) in self.order.iter().enumerate() {
            let task = self.canonical.task(old);
            let tb = tile_task(
                &self.canonical.type_of(old).name,
                new as u32,
                task.accesses
                    .iter()
                    .map(|a| (handle[a.data.index()].expect("lower tile"), a.mode))
                    .collect(),
            )
            .flops(task.flops)
            .priority(task.user_priority)
            .label(task.label.clone());
            let _s = span(Name::Submit, new as u32);
            rt.submit(tb);
        }
        (rt, handle)
    }

    fn residual(&self, rt: &Runtime, handle: &[Option<DataId>]) -> f64 {
        let n = TILES * TILE;
        let mut l = vec![0.0; n * n];
        for i in 0..TILES {
            for j in 0..=i {
                let t = rt.buffer(handle[i * TILES + j].expect("lower tile"));
                for r in 0..TILE {
                    let row = (i * TILE + r) * n + j * TILE;
                    l[row..row + TILE].copy_from_slice(&t[r * TILE..(r + 1) * TILE]);
                }
            }
        }
        tiles::residual(&self.matrix, &l, n)
    }
}

/// A kernel body with a span around it when tracing is on.
fn timed(
    task: u32,
    body: impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static,
) -> impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static {
    move |ctx: &mut TaskCtx<'_>| {
        let _s = span(Name::Kernel, task);
        body(ctx);
    }
}

/// The tile task of kernel type `kind` over `accesses` (in the order the
/// generator declares them).
fn tile_task(kind: &str, task: u32, accesses: Vec<(DataId, AccessMode)>) -> TaskBuilder {
    let b = TILE;
    let mut tb = TaskBuilder::new(kind);
    for &(d, m) in &accesses {
        tb = tb.access(d, m);
    }
    match kind {
        "POTRF" => {
            let f = move |ctx: &mut TaskCtx<'_>| {
                assert!(tiles::potrf(ctx.w(0), b), "tile not positive definite");
            };
            tb.cpu(timed(task, f)).gpu(timed(task, f))
        }
        "TRSM" => {
            let f = move |ctx: &mut TaskCtx<'_>| {
                let (l, x) = ctx.rw_pair(0, 1);
                tiles::trsm(l, x, b);
            };
            tb.cpu(timed(task, f)).gpu(timed(task, f))
        }
        "SYRK" => tb
            .cpu(timed(task, move |ctx| {
                let (a, c) = ctx.rw_pair(0, 1);
                tiles::gemm_naive(a, a, c, b);
            }))
            .gpu(timed(task, move |ctx| {
                let (a, c) = ctx.rw_pair(0, 1);
                tiles::gemm_blocked(a, a, c, b);
            })),
        "GEMM" => tb
            .cpu(timed(task, move |ctx| {
                let bt = ctx.r(1).to_vec();
                let (a, c) = ctx.rw_pair(0, 2);
                tiles::gemm_naive(a, &bt, c, b);
            }))
            .gpu(timed(task, move |ctx| {
                let bt = ctx.r(1).to_vec();
                let (a, c) = ctx.rw_pair(0, 2);
                tiles::gemm_blocked(a, &bt, c, b);
            })),
        other => panic!("no tile kernel for '{other}'"),
    }
}

impl Workload for RtCholesky {
    fn rep(&mut self, ledger: Option<&mut Ledger>) -> Rep {
        let traced = ledger.is_some();
        let mut ops = Ops::default();
        let t = Instant::now();
        let (mut rt, handle) = self.setup(traced);
        let setup_s = t.elapsed().as_secs_f64();
        let n = rt.graph().task_count();
        let (report, wall_s) = timed_run(
            &mut rt,
            Box::new(MultiPrioScheduler::with_defaults()),
            traced,
        );
        let ok = match &report {
            Ok(r) if r.is_complete() && r.trace.tasks.len() == n => {
                let busy: f64 = r.trace.tasks.iter().map(|s| s.end - s.start).sum();
                self.kernel_share.push(busy / (2.0 * r.makespan_us));
                self.residual(&rt, &handle) < TOLERANCE
            }
            _ => false,
        };
        ops.check(
            ok,
            "factorization completes with ‖A − LLᵀ‖/‖A‖ under tolerance",
        );
        Rep {
            setup_s,
            calls: vec![Call {
                wall_s,
                tasks: n as u64,
                threads: 2,
            }],
            ops,
        }
    }

    fn virtual_makespan_s(&self) -> f64 {
        self.virtual_makespan_us * 1e-6
    }

    fn facts(&self) -> Vec<(&'static str, Fact)> {
        let share = if self.kernel_share.is_empty() {
            f64::NAN
        } else {
            crate::median(&self.kernel_share)
        };
        vec![
            ("tasks", Fact::Int(self.order.len() as u64)),
            ("edges", Fact::Int(self.edges as u64)),
            ("threads", Fact::Int(2)),
            (
                "loop",
                Fact::Text("closed DAG, fresh Runtime per run".into()),
            ),
            (
                "input",
                Fact::Text(format!(
                    "potrf {TILES}x{TILES} tiles of {TILE}, simple(1,1), multiprio, history model"
                )),
            ),
            ("kernel_share", Fact::Real(share)),
        ]
    }
}
