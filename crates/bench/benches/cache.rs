//! Result-cache bench (DESIGN.md §12): warm-vs-cold wall time of the
//! content-addressed memoization layer on a ~64k-task tile Cholesky and
//! a TBFMM workload, plus an incremental-resubmission scenario — mutate
//! 1% of the Cholesky tasks and prove the warm run re-executes exactly
//! the dirty cone while everything outside it still hits.
//!
//! Emits `BENCH_cache.json` at the repository root (override with
//! `BENCH_CACHE_OUT`). Exits non-zero when a warm run is not a 100%
//! hit, when the re-executed set diverges from the expected dirty cone,
//! or — in full mode — when the warm Cholesky run is less than 5×
//! faster in wall time than the cold one. The CI `cache` job runs the
//! quick mode as a correctness smoke (the speedup gate needs full-scale
//! DAGs to dominate fixed setup costs, so quick mode only records it).
//!
//! `BENCH_QUICK=1` shrinks both workloads to CI scale.

use std::time::Instant;

use mp_apps::dense::{potrf, DenseConfig};
use mp_apps::fmm::{fmm, Distribution, FmmConfig};
use mp_bench::{make_scheduler, BenchJson};
use mp_cache::{changed_tasks, resubmit_with_mutation, ResultCache};
use mp_dag::graph::TaskGraph;
use mp_dag::ids::TaskId;
use mp_perfmodel::PerfModel;
use mp_platform::presets::simple;
use mp_sim::{simulate_cached, SimConfig, SimResult};

/// One cached run through the paper's scheduler, wall-timed.
fn run_once(g: &TaskGraph, model: &dyn PerfModel, cache: Option<&ResultCache>) -> (SimResult, f64) {
    let platform = simple(6, 2);
    let mut sched = make_scheduler("multiprio");
    let t0 = Instant::now();
    let r = simulate_cached(
        g,
        &platform,
        model,
        sched.as_mut(),
        SimConfig::seeded(42),
        cache,
    );
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(r.error.is_none(), "cached sim failed: {:?}", r.error);
    (r, wall_ms)
}

struct Scenario {
    name: &'static str,
    tasks: usize,
    cold_wall_ms: f64,
    warm_wall_ms: f64,
    speedup: f64,
    cold_makespan_us: f64,
    warm_hit_rate: f64,
}

/// Cold-populate `cache` from `g`, then run warm twice (min wall time —
/// the warm schedule is empty either way, only the clock jitters).
fn warm_cold(
    name: &'static str,
    g: &TaskGraph,
    model: &dyn PerfModel,
    cache: &ResultCache,
    failed: &mut bool,
) -> Scenario {
    let n = g.task_count();
    let (cold, cold_ms) = run_once(g, model, Some(cache));
    if cold.stats.cache_hits != 0 || cold.stats.cache_misses != n as u64 {
        eprintln!(
            "!! {name}: cold run hit {} / missed {} (expected 0 / {n})",
            cold.stats.cache_hits, cold.stats.cache_misses
        );
        *failed = true;
    }
    let (warm, warm_a) = run_once(g, model, Some(cache));
    let (_, warm_b) = run_once(g, model, Some(cache));
    let warm_ms = warm_a.min(warm_b);
    let hit_rate = warm.stats.cache_hits as f64 / n as f64;
    if warm.stats.cache_hits != n as u64 || !warm.trace.tasks.is_empty() {
        eprintln!(
            "!! {name}: warm run hit {}/{n} and executed {} task(s)",
            warm.stats.cache_hits,
            warm.trace.tasks.len()
        );
        *failed = true;
    }
    let speedup = cold_ms / warm_ms.max(1e-9);
    eprintln!(
        "   {name:9} {n:>6} tasks  cold {cold_ms:>9.1} ms  warm {warm_ms:>7.2} ms  \
         {speedup:>6.1}x  hit-rate {:.1}%",
        hit_rate * 100.0
    );
    Scenario {
        name,
        tasks: n,
        cold_wall_ms: cold_ms,
        warm_wall_ms: warm_ms,
        speedup,
        cold_makespan_us: cold.makespan,
        warm_hit_rate: hit_rate,
    }
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let mut failed = false;

    // ---- Warm vs cold: tile Cholesky (~64k tasks at full scale) and
    // TBFMM ----
    let nt = if quick { 16 } else { 73 }; // potrf_task_count(73) = 67,525
    let chol = potrf(DenseConfig::new(nt * 480, 480));
    let dense_model = mp_apps::dense_model();
    let chol_cache = ResultCache::new();
    eprintln!("== warm vs cold (multiprio, simple(6,2)) ==");
    let chol_row = warm_cold(
        "cholesky",
        &chol.graph,
        &dense_model,
        &chol_cache,
        &mut failed,
    );

    let fmm_cfg = if quick {
        FmmConfig {
            particles: 50_000,
            tree_height: 5,
            group_size: 32,
            distribution: Distribution::Uniform,
            seed: 6,
        }
    } else {
        FmmConfig {
            particles: 500_000,
            tree_height: 6,
            group_size: 64,
            distribution: Distribution::Uniform,
            seed: 6,
        }
    };
    let fmm_w = fmm(fmm_cfg);
    let fmm_model = mp_apps::fmm_model();
    let fmm_cache = ResultCache::new();
    let fmm_row = warm_cold("fmm", &fmm_w.graph, &fmm_model, &fmm_cache, &mut failed);
    let scenarios = [&chol_row, &fmm_row];

    if !quick && chol_row.speedup < 5.0 {
        eprintln!(
            "!! cholesky warm speedup {:.1}x below the 5x gate",
            chol_row.speedup
        );
        failed = true;
    }

    // ---- Incremental re-execution: mutate 1% of the Cholesky tasks
    // and resubmit against the populated cache. Exactly the dirty cone
    // (the mutated tasks plus every transitive consumer of their
    // outputs) must re-execute; everything else must still hit. ----
    let mutate_frac = 0.01;
    let edited = resubmit_with_mutation(&chol.graph, mutate_frac, 2026);
    let mut cone = changed_tasks(&chol.graph, &edited);
    cone.sort_unstable();
    let (inc, inc_ms) = run_once(&edited, &dense_model, Some(&chol_cache));
    let mut executed: Vec<TaskId> = inc.trace.tasks.iter().map(|s| s.task).collect();
    executed.sort_unstable();
    let exact = executed == cone;
    if !exact {
        eprintln!(
            "!! incremental: re-executed {} task(s), dirty cone has {}",
            executed.len(),
            cone.len()
        );
        failed = true;
    }
    eprintln!(
        "   incremental: {:.0}% mutation dirties {}/{} tasks, re-executed {}, \
         {} hits, {inc_ms:.1} ms wall (exact cone: {exact})",
        mutate_frac * 100.0,
        cone.len(),
        chol.graph.task_count(),
        executed.len(),
        inc.stats.cache_hits,
    );

    BenchJson::new("bench-cache/v1")
        .field("quick", quick)
        .rows(
            "warm_vs_cold",
            scenarios.iter().map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"tasks\": {}, \"cold_wall_ms\": {:.2}, \
                     \"warm_wall_ms\": {:.3}, \"warm_speedup\": {:.2}, \
                     \"cold_makespan_us\": {:.1}, \"warm_hit_rate\": {:.4}}}",
                    s.name,
                    s.tasks,
                    s.cold_wall_ms,
                    s.warm_wall_ms,
                    s.speedup,
                    s.cold_makespan_us,
                    s.warm_hit_rate
                )
            }),
        )
        .field(
            "incremental",
            format!(
                "{{\"tasks\": {}, \"mutate_frac\": {mutate_frac}, \
                 \"dirty_cone\": {}, \"re_executed\": {}, \"cache_hits\": {}, \
                 \"exact_cone\": {exact}, \"wall_ms\": {inc_ms:.2}}}",
                chol.graph.task_count(),
                cone.len(),
                executed.len(),
                inc.stats.cache_hits
            ),
        )
        .field("failed", failed)
        .write("BENCH_CACHE_OUT", "BENCH_cache.json");

    if failed {
        eprintln!("FAIL: cache bench gate");
        std::process::exit(1);
    }
}
