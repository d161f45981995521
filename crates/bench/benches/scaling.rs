//! Scaling bench: per-decision scheduler cost and end-to-end simulator
//! throughput on large Cholesky and FMM DAGs (16k / 64k / 256k tasks).
//!
//! Emits a machine-readable `BENCH_scaling.json` at the repository root
//! (override with `BENCH_SCALING_OUT`) so successive PRs have a
//! perf-trajectory artifact, and **exits non-zero when a scheduler's
//! replayed schedule diverges between two identical runs** — the CI
//! `bench-smoke` job relies on that for a cheap determinism check.
//!
//! `BENCH_QUICK=1` restricts the sweep to the 16k-task workloads with one
//! timing sample — a smoke run for CI.
//!
//! The `multiprio-reference` scheduler is the retained pre-slab
//! implementation (hash-map state, eager heap removal); the
//! `decision_improvement` section reports the measured speedup of the
//! slab-backed `multiprio` over it on the largest Cholesky sweep.

use std::time::Instant;

use mp_apps::dense::{potrf, DenseConfig};
use mp_apps::fmm::{fmm, Distribution, FmmConfig};
use mp_apps::{dense_model, fmm_model};
use mp_bench::replay::{replay, ReplayStats};
use mp_bench::{make_scheduler, BenchJson, SCHEDULER_NAMES};
use mp_dag::TaskGraph;
use mp_perfmodel::PerfModel;
use mp_platform::presets::simple;
use mp_sim::{simulate, SimConfig};

/// Schedulers timed in the scheduler-only replay (decision cost).
const REPLAY_SCHEDS: [&str; 6] = [
    "multiprio",
    "multiprio-reference",
    "dmdas",
    "heteroprio",
    "lws",
    "fifo",
];

/// Schedulers timed end-to-end through the simulator.
const SIM_SCHEDS: [&str; 3] = ["multiprio", "dmdas", "heteroprio"];

struct Workload {
    app: &'static str,
    label: String,
    graph: TaskGraph,
    model: Box<dyn PerfModel>,
}

fn cholesky(nt_side: usize) -> Workload {
    let tile = 64; // small tiles: DAG shape matters here, not flops
    let w = potrf(DenseConfig::new(nt_side * tile, tile));
    Workload {
        app: "cholesky",
        label: format!("nt={nt_side}"),
        graph: w.graph,
        model: Box::new(dense_model()),
    }
}

fn fmm_workload(particles: usize, tree_height: usize, group_size: usize) -> Workload {
    let w = fmm(FmmConfig {
        particles,
        tree_height,
        group_size,
        distribution: Distribution::Uniform,
        seed: 42,
    });
    Workload {
        app: "fmm",
        label: format!("h={tree_height},g={group_size}"),
        graph: w.graph,
        model: Box::new(fmm_model()),
    }
}

struct DecisionRow {
    app: &'static str,
    label: String,
    tasks: usize,
    sched: &'static str,
    ns_per_decision: f64,
    pops: usize,
    schedule_hash: u64,
}

struct SimRow {
    app: &'static str,
    label: String,
    tasks: usize,
    sched: &'static str,
    wall_ms: f64,
    makespan_us: f64,
}

fn best_replay(
    w: &Workload,
    platform: &mp_platform::types::Platform,
    sched: &str,
    samples: usize,
) -> (ReplayStats, bool) {
    let mut best: Option<ReplayStats> = None;
    let mut hash: Option<u64> = None;
    let mut diverged = false;
    // samples + 1 runs: every run doubles as a determinism probe.
    for _ in 0..samples + 1 {
        let mut s = make_scheduler(sched);
        let r = replay(&w.graph, platform, w.model.as_ref(), s.as_mut());
        match hash {
            None => hash = Some(r.schedule_hash),
            Some(h) => diverged |= h != r.schedule_hash,
        }
        if best.is_none() || r.wall < best.unwrap().wall {
            best = Some(r);
        }
    }
    (best.unwrap(), diverged)
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let samples = if quick { 1 } else { 3 };
    let platform = simple(6, 2);

    // ~16k / ~64k / ~256k tasks (nt³/6 + O(nt²) for tile Cholesky).
    let cholesky_sides: &[usize] = if quick { &[45] } else { &[45, 72, 114] };
    // ~16k / ~60k / ~258k tasks (probed empirically; counts depend on the
    // octree occupancy, not just the particle total).
    let fmm_cfgs: &[(usize, usize, usize)] = if quick {
        &[(200_000, 6, 20)]
    } else {
        &[(200_000, 6, 20), (500_000, 7, 38), (2_300_000, 8, 58)]
    };

    let mut workloads: Vec<Workload> = Vec::new();
    for &nt in cholesky_sides {
        workloads.push(cholesky(nt));
    }
    for &(p, h, g) in fmm_cfgs {
        workloads.push(fmm_workload(p, h, g));
    }

    let mut decisions: Vec<DecisionRow> = Vec::new();
    let mut sims: Vec<SimRow> = Vec::new();
    let mut diverged_any = false;

    for w in &workloads {
        let tasks = w.graph.task_count();
        eprintln!("== {} {} ({} tasks)", w.app, w.label, tasks);
        for sched in REPLAY_SCHEDS {
            if !SCHEDULER_NAMES.contains(&sched) {
                continue; // reference impl not present in this build
            }
            let (r, diverged) = best_replay(w, &platform, sched, samples);
            if diverged {
                eprintln!("!! SCHEDULE DIVERGENCE: {sched} on {} {}", w.app, w.label);
                diverged_any = true;
            }
            eprintln!(
                "   replay {sched:22} {:>9.1} ns/decision  ({} pops)",
                r.ns_per_decision(),
                r.pops
            );
            decisions.push(DecisionRow {
                app: w.app,
                label: w.label.clone(),
                tasks,
                sched,
                ns_per_decision: r.ns_per_decision(),
                pops: r.pops,
                schedule_hash: r.schedule_hash,
            });
        }
        // End-to-end simulation: one timed run (the simulator itself is
        // deterministic; determinism is asserted by tier-1 tests).
        for sched in SIM_SCHEDS {
            let mut s = make_scheduler(sched);
            let cfg = SimConfig {
                record_trace: false,
                ..SimConfig::seeded(1)
            };
            let t0 = Instant::now();
            let res = simulate(&w.graph, &platform, w.model.as_ref(), s.as_mut(), cfg);
            let wall = t0.elapsed();
            eprintln!(
                "   sim    {sched:22} {:>9.1} ms wall, makespan {:.0} µs",
                wall.as_secs_f64() * 1e3,
                res.makespan
            );
            sims.push(SimRow {
                app: w.app,
                label: w.label.clone(),
                tasks,
                sched,
                wall_ms: wall.as_secs_f64() * 1e3,
                makespan_us: res.makespan,
            });
        }
    }

    // Improvement of slab multiprio over the retained reference on the
    // largest Cholesky sweep present in this run, as a JSON value.
    let improvement = {
        let largest = decisions
            .iter()
            .filter(|d| d.app == "cholesky" && d.sched == "multiprio")
            .max_by_key(|d| d.tasks);
        let before = largest.and_then(|aft| {
            decisions
                .iter()
                .find(|d| {
                    d.app == aft.app && d.tasks == aft.tasks && d.sched == "multiprio-reference"
                })
                .map(|bef| (bef, aft))
        });
        before.map_or_else(
            || "null".to_string(),
            |(bef, aft)| {
                format!(
                    "{{\"sweep_tasks\": {}, \"before_ns\": {:.1}, \"after_ns\": {:.1}, \
                     \"ratio\": {:.2}}}",
                    bef.tasks,
                    bef.ns_per_decision,
                    aft.ns_per_decision,
                    bef.ns_per_decision / aft.ns_per_decision,
                )
            },
        )
    };
    BenchJson::new("bench-scaling/v1")
        .field("quick", quick)
        .field("samples", samples)
        .rows(
            "decision_cost",
            decisions.iter().map(|d| {
                format!(
                    "{{\"app\": \"{}\", \"label\": \"{}\", \"tasks\": {}, \"sched\": \"{}\", \
                     \"ns_per_decision\": {:.1}, \"pops\": {}, \"schedule_hash\": \"{:016x}\"}}",
                    d.app, d.label, d.tasks, d.sched, d.ns_per_decision, d.pops, d.schedule_hash
                )
            }),
        )
        .rows(
            "sim",
            sims.iter().map(|s| {
                format!(
                    "{{\"app\": \"{}\", \"label\": \"{}\", \"tasks\": {}, \"sched\": \"{}\", \
                     \"wall_ms\": {:.1}, \"makespan_us\": {:.1}}}",
                    s.app, s.label, s.tasks, s.sched, s.wall_ms, s.makespan_us
                )
            }),
        )
        .field("decision_improvement", improvement)
        .field("diverged", diverged_any)
        .write("BENCH_SCALING_OUT", "BENCH_scaling.json");

    if diverged_any {
        eprintln!("FAIL: schedule divergence detected");
        std::process::exit(1);
    }
}
