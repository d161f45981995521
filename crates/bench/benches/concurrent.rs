//! Concurrent front-end bench: sustained pops/sec of the three runtime
//! front-ends (global lock, sharded multi-queue, relaxed multi-queue)
//! driven directly from 16/32/64 worker threads on a steal-heavy
//! cheap-kernel workload, plus engine-level makespans, the relaxed
//! front-end's measured rank error against the exact-priority oracle,
//! and a differential-audit sweep (clean + fault plans) at every width.
//!
//! Emits `BENCH_concurrent.json` at the repository root (override with
//! `BENCH_CONCURRENT_OUT`). Exits non-zero when any differential audit
//! reports a mismatch or when an exact (non-relaxed) schedule diverges
//! between two identical sim-side runs — the CI `concurrency` job uses
//! the quick mode as a determinism + agreement gate.
//!
//! `BENCH_QUICK=1` restricts the sweep to 16/32 threads with one timing
//! sample.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mp_apps::random::{random_dag, random_model, RandomDagConfig};
use mp_audit::{differential, schedule_hash, DiffConfig};
use mp_bench::{make_scheduler, make_scheduler_factory, BenchJson};
use mp_dag::graph::TaskGraph;
use mp_dag::ids::TaskId;
use mp_perfmodel::{Estimator, PerfModel, TableModel, TimeFn};
use mp_platform::presets::{homogeneous, simple};
use mp_platform::types::{ArchClass, WorkerId};
use mp_runtime::{FaultPlan, RelaxedConfig, RetryPolicy, Runtime, TaskBuilder};
use mp_sched::concurrent::{
    ConcurrentScheduler, GlobalLock, RelaxedMultiQueue, RelaxedSeqScheduler, ShardedAdapter,
};
use mp_sched::testutil::{MapLocator, ZeroLoad};
use mp_sched::{SchedView, Scheduler};
use mp_sim::{simulate, SimConfig};
use std::sync::Arc;

/// A dependency-free priority workload for driving a front-end raw:
/// `total` single-handle CPU tasks with user priorities cycling 0..64.
fn drive_graph(total: usize) -> (TaskGraph, Vec<TaskId>) {
    let mut g = TaskGraph::new();
    let step = g.register_type("STEP", true, false);
    let tasks: Vec<TaskId> = (0..total)
        .map(|i| {
            let d = g.add_data(64, format!("d{i}"));
            let t = g.add_task(
                step,
                vec![(d, mp_dag::access::AccessMode::ReadWrite)],
                1.0,
                format!("t{i}"),
            );
            g.set_user_priority(t, (i % 64) as i64);
            t
        })
        .collect();
    (g, tasks)
}

fn drive_model() -> TableModel {
    TableModel::builder()
        .set("STEP", ArchClass::Cpu, TimeFn::Const(5.0))
        .build()
}

/// Drive `front` from `workers` threads in the sustained-throughput
/// regime of the MultiQueue literature: the first half of `tasks` is
/// pre-filled, then every pop of task `t` pushes task `t + total/2`
/// with the popping worker as releaser, keeping the structure loaded
/// until the tail drains. Returns sustained pops/sec.
fn drive(
    front: &dyn ConcurrentScheduler,
    workers: usize,
    tasks: &[TaskId],
    graph: &TaskGraph,
    model: &TableModel,
) -> f64 {
    let platform = homogeneous(workers);
    let total = tasks.len();
    let prefill = total / 2;
    let loc = MapLocator::default();
    let make_view = || SchedView {
        est: Estimator::new(graph, &platform, model),
        loc: &loc,
        load: &ZeroLoad,
        now: 0.0,
    };
    {
        let view = make_view();
        for &t in &tasks[..prefill] {
            front.push(t, None, &view);
        }
    }
    let done = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (done, make_view) = (&done, &make_view);
            scope.spawn(move || {
                let view = make_view();
                let w = WorkerId(w as u32);
                while done.load(Ordering::Acquire) < total {
                    match front.pop(w, &view) {
                        Some(t) => {
                            let next = t.index() + prefill;
                            if next < total {
                                front.push(tasks[next], Some(w), &view);
                            }
                            done.fetch_add(1, Ordering::AcqRel);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(done.load(Ordering::Acquire), total, "drive lost tasks");
    assert_eq!(front.pending(), 0, "drive left tasks behind");
    total as f64 / wall
}

struct DriveRow {
    workers: usize,
    front: &'static str,
    pops_per_sec: f64,
}

/// A named constructor for a front-end under drive.
type FrontFactory = Box<dyn Fn() -> Box<dyn ConcurrentScheduler>>;

struct EngineRow {
    workers: usize,
    front: String,
    wall_ms: f64,
    makespan_us: f64,
    rank_mean: Option<f64>,
    rank_max: Option<u64>,
}

struct AuditRow {
    workers: usize,
    plan: &'static str,
    clean: bool,
    mismatches: usize,
    sim_rank_mean: f64,
    runtime_rank_mean: f64,
    runtime_rank_max: u64,
}

/// Cheap-kernel DAG through the real engine: `width` chains of `layers`
/// increments each, wide enough that every worker stays fed.
fn engine_run(workers: usize, layers: usize, width: usize, mode: &str, seed: u64) -> EngineRow {
    let model: Arc<dyn PerfModel> = Arc::new(drive_model());
    let mut rt = Runtime::new(homogeneous(workers), model);
    let bufs: Vec<_> = (0..width)
        .map(|i| rt.register(vec![0.0f64; 8], &format!("b{i}")))
        .collect();
    for l in 0..layers {
        for (i, &b) in bufs.iter().enumerate() {
            rt.submit(
                TaskBuilder::new("STEP")
                    .access(b, mp_dag::access::AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v += 1.0;
                        }
                    })
                    .flops(8.0)
                    .priority(((l * width + i) % 64) as i64),
            );
        }
    }
    let t0 = Instant::now();
    let (report, rank) = match mode {
        "global-lock" => (rt.run(make_scheduler("prio")), None),
        "sharded" => (
            rt.run_concurrent(&ShardedAdapter::new(workers, &|| make_scheduler("prio"))),
            None,
        ),
        "relaxed-mq" => {
            let front = RelaxedMultiQueue::new(
                workers,
                RelaxedConfig {
                    queues_per_worker: 2,
                    seed,
                    track_rank: true,
                },
            );
            (rt.run_concurrent(&front), front.rank_stats())
        }
        other => panic!("unknown mode {other}"),
    };
    let report = report.expect("engine run failed");
    let wall = t0.elapsed();
    assert!(report.error.is_none(), "{mode}: {:?}", report.error);
    EngineRow {
        workers,
        front: report.scheduler.clone(),
        wall_ms: wall.as_secs_f64() * 1e3,
        makespan_us: report.makespan_us,
        rank_mean: rank.as_ref().map(|r| r.mean()),
        rank_max: rank.as_ref().map(|r| r.rank_max),
    }
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let samples = if quick { 1 } else { 3 };
    let widths: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };

    // ---- Raw front-end drive: sustained pops/sec ----
    let mut drives: Vec<DriveRow> = Vec::new();
    let mut relaxed_rank: Vec<(usize, f64, u64)> = Vec::new();
    for &w in widths {
        let total = w * if quick { 512 } else { 2048 };
        let (graph, tasks) = drive_graph(total);
        let model = drive_model();
        eprintln!(
            "== drive {w} threads, {total} tasks ({} pre-filled)",
            total / 2
        );
        let fronts: Vec<(&'static str, FrontFactory)> = vec![
            (
                "global-lock",
                Box::new(|| Box::new(GlobalLock::new(make_scheduler("prio")))),
            ),
            (
                "sharded-prio",
                Box::new(move || Box::new(ShardedAdapter::new(w, &|| make_scheduler("prio")))),
            ),
            (
                // The paper's scheduler through the sharded front-end —
                // the path the sharded runtime front-end serves. Its per-shard
                // policies replay the sequenced feedback log, which is
                // the serialization the relaxed front-end deletes.
                "sharded-multiprio",
                Box::new(move || {
                    Box::new(ShardedAdapter::new(
                        w,
                        &*make_scheduler_factory("multiprio"),
                    ))
                }),
            ),
            (
                "relaxed-mq",
                Box::new(move || {
                    Box::new(RelaxedMultiQueue::new(
                        w,
                        RelaxedConfig {
                            queues_per_worker: 2,
                            seed: 0x5EED,
                            track_rank: false,
                        },
                    ))
                }),
            ),
        ];
        for (name, make) in &fronts {
            let mut best = 0.0f64;
            for _ in 0..samples {
                let front = make();
                let rate = drive(front.as_ref(), w, &tasks, &graph, &model);
                best = best.max(rate);
            }
            eprintln!("   {name:12} {best:>12.0} pops/sec");
            drives.push(DriveRow {
                workers: w,
                front: name,
                pops_per_sec: best,
            });
        }
        // Rank error of the relaxed drain, measured untimed (the exact
        // mirror serializes every push/pop, so it never shares a run
        // with the throughput numbers).
        let front = RelaxedMultiQueue::new(
            w,
            RelaxedConfig {
                queues_per_worker: 2,
                seed: 0x5EED,
                track_rank: true,
            },
        );
        drive(&front, w, &tasks, &graph, &model);
        let stats = front.rank_stats().expect("rank tracking was on");
        eprintln!(
            "   relaxed rank error: mean {:.2}, max {}",
            stats.mean(),
            stats.rank_max
        );
        relaxed_rank.push((w, stats.mean(), stats.rank_max));
    }
    let speedup_32 = {
        let rate = |front: &str| {
            drives
                .iter()
                .find(|d| d.workers == 32 && d.front == front)
                .map(|d| d.pops_per_sec)
        };
        match (rate("relaxed-mq"), rate("sharded-multiprio")) {
            (Some(r), Some(s)) if s > 0.0 => Some(r / s),
            _ => None,
        }
    };
    if let Some(s) = speedup_32 {
        eprintln!("== relaxed-mq vs sharded at 32 workers: {s:.2}x");
    }

    // ---- Engine-level makespan, all three front-ends ----
    let mut engines: Vec<EngineRow> = Vec::new();
    for &w in widths {
        let (layers, width) = if quick { (8, w) } else { (16, 2 * w) };
        for mode in ["global-lock", "sharded", "relaxed-mq"] {
            let row = engine_run(w, layers, width, mode, 7);
            eprintln!(
                "   engine {w:>2}w {mode:12} {:>8.1} ms wall, makespan {:.0} µs{}",
                row.wall_ms,
                row.makespan_us,
                match (row.rank_mean, row.rank_max) {
                    (Some(m), Some(x)) => format!(", rank mean {m:.2} max {x}"),
                    _ => String::new(),
                }
            );
            engines.push(row);
        }
    }

    // ---- Differential audit sweep: relaxed front-end vs its exact
    // sim twin, clean and under fault plans ----
    let mut audits: Vec<AuditRow> = Vec::new();
    let mut unclean = false;
    for &w in widths {
        // Differential runs spawn real threads per worker: keep the
        // platform at the sweep width but the DAG modest.
        let platform = simple(w - 1, 1);
        let g = random_dag(RandomDagConfig {
            layers: 6,
            width: 8,
            seed: w as u64,
            ..Default::default()
        });
        let model: Arc<dyn PerfModel> = Arc::new(random_model());
        let noop: &dyn Fn() -> Box<dyn Scheduler> = &|| make_scheduler("fifo");
        for (plan_name, faults, retry) in [
            ("clean", None, RetryPolicy::default()),
            (
                "kill",
                Some(FaultPlan::default().kill_worker(0, 1)),
                RetryPolicy::new(4, 0.0),
            ),
            (
                "transient",
                Some(FaultPlan {
                    seed: 31,
                    transient_fail_prob: 0.2,
                    ..FaultPlan::default()
                }),
                RetryPolicy::new(16, 2.0),
            ),
        ] {
            let cfg = DiffConfig {
                sim_cfg: SimConfig::seeded(w as u64),
                faults,
                retry,
                relaxed: Some(RelaxedConfig {
                    queues_per_worker: 2,
                    seed: w as u64,
                    track_rank: true,
                }),
                ..DiffConfig::default()
            };
            let report = differential(&g, &platform, &model, noop, &cfg);
            let clean = report.is_clean();
            if !clean {
                eprintln!(
                    "!! AUDIT MISMATCH at {w} workers ({plan_name}): {}",
                    report.mismatches[0]
                );
                unclean = true;
            }
            let srm = report.sim_rank.as_ref().map(|r| r.mean()).unwrap_or(0.0);
            let rrm = report
                .runtime_rank
                .as_ref()
                .map(|r| r.mean())
                .unwrap_or(0.0);
            let rrx = report
                .runtime_rank
                .as_ref()
                .map(|r| r.rank_max)
                .unwrap_or(0);
            eprintln!(
                "   audit {w:>2}w {plan_name:9} clean={clean} sim rank mean {srm:.2}, runtime rank mean {rrm:.2} max {rrx}"
            );
            audits.push(AuditRow {
                workers: w,
                plan: plan_name,
                clean,
                mismatches: report.mismatches.len(),
                sim_rank_mean: srm,
                runtime_rank_mean: rrm,
                runtime_rank_max: rrx,
            });
        }
    }

    // ---- Determinism gate on the exact schedulers (CI smoke): two
    // identical sim-side runs must produce identical schedules, both
    // for the exact-priority policy and for the relaxed *sequential
    // twin* (the twin is deterministic by construction; only the
    // threaded relaxed front-end is allowed to reorder). ----
    let mut diverged = false;
    {
        let g = random_dag(RandomDagConfig {
            layers: 6,
            width: 8,
            seed: 99,
            ..Default::default()
        });
        let model = random_model();
        let platform = simple(3, 1);
        let run_exact = |name: &str| {
            let mut s = make_scheduler(name);
            let r = simulate(&g, &platform, &model, s.as_mut(), SimConfig::seeded(9));
            assert!(r.error.is_none(), "{name}: {:?}", r.error);
            schedule_hash(&r.trace)
        };
        for name in ["prio", "fifo", "multiprio"] {
            if run_exact(name) != run_exact(name) {
                eprintln!("!! SCHEDULE DIVERGENCE: {name}");
                diverged = true;
            }
        }
        let run_twin = || {
            let mut s = RelaxedSeqScheduler::new(
                platform.worker_count(),
                RelaxedConfig {
                    queues_per_worker: 2,
                    seed: 9,
                    track_rank: false,
                },
            );
            let r = simulate(&g, &platform, &model, &mut s, SimConfig::seeded(9));
            assert!(r.error.is_none(), "relaxed twin: {:?}", r.error);
            schedule_hash(&r.trace)
        };
        if run_twin() != run_twin() {
            eprintln!("!! SCHEDULE DIVERGENCE: relaxed sequential twin");
            diverged = true;
        }
    }

    BenchJson::new("bench-concurrent/v1")
        .field("quick", quick)
        .field("samples", samples)
        .rows(
            "frontend_drive",
            drives.iter().map(|d| {
                format!(
                    "{{\"workers\": {}, \"front\": \"{}\", \"pops_per_sec\": {:.0}}}",
                    d.workers, d.front, d.pops_per_sec
                )
            }),
        )
        .field(
            "relaxed_vs_sharded_32w",
            speedup_32.map_or("null".to_string(), |s| format!("{s:.2}")),
        )
        .rows(
            "relaxed_rank_error",
            relaxed_rank.iter().map(|(w, mean, max)| {
                format!("{{\"workers\": {w}, \"mean\": {mean:.3}, \"max\": {max}}}")
            }),
        )
        .rows(
            "engine",
            engines.iter().map(|e| {
                let rank = match (e.rank_mean, e.rank_max) {
                    (Some(m), Some(x)) => format!("{{\"mean\": {m:.3}, \"max\": {x}}}"),
                    _ => "null".to_string(),
                };
                format!(
                    "{{\"workers\": {}, \"front\": \"{}\", \"wall_ms\": {:.1}, \
                     \"makespan_us\": {:.1}, \"rank_error\": {rank}}}",
                    e.workers, e.front, e.wall_ms, e.makespan_us
                )
            }),
        )
        .rows(
            "differential",
            audits.iter().map(|a| {
                format!(
                    "{{\"workers\": {}, \"plan\": \"{}\", \"clean\": {}, \"mismatches\": {}, \
                     \"sim_rank_mean\": {:.3}, \"runtime_rank_mean\": {:.3}, \"runtime_rank_max\": {}}}",
                    a.workers,
                    a.plan,
                    a.clean,
                    a.mismatches,
                    a.sim_rank_mean,
                    a.runtime_rank_mean,
                    a.runtime_rank_max
                )
            }),
        )
        .field("diverged", diverged)
        .write("BENCH_CONCURRENT_OUT", "BENCH_concurrent.json");

    if unclean {
        eprintln!("FAIL: differential audit mismatch");
        std::process::exit(1);
    }
    if diverged {
        eprintln!("FAIL: schedule divergence on an exact scheduler");
        std::process::exit(1);
    }
}
