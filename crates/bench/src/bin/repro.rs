//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! Usage: [`USAGE`]. An unknown flag or experiment name prints it to
//! stderr and exits with status 2 before anything runs.
//!
//! With no experiment names, runs every table, figure and ablation.
//! `--quick` (default) uses CI-scale problem sizes; `--full` approaches
//! the paper's sizes. `ablation` (the same at both scales) switches
//! MultiPrio's components off one at a time, sweeps its locality window
//! `n` and threshold `ε` on sparse QR, and sweeps the hierarchical-task
//! expansion ratio. `contract` runs only when named: it prints the
//! behavioural contract ([`mp_bench::contract`]), one line per run of a
//! fixed simulated sweep, which CI diffs against `ci/contract.txt`.
//! `--trace-out <path>` runs one fixed seeded potrf under MultiPrio and
//! writes a Chrome `trace_event` JSON timeline (open with Perfetto,
//! <https://ui.perfetto.dev>); build with `--features obs` to include
//! the scheduler's pop/hold decision instants.
//!
//! `--front relaxed` swaps the `--trace-out` run's scheduler for the
//! relaxed multi-queue the threaded runtime runs, driven sequentially by
//! the simulator (DESIGN.md §6c), and reports its measured rank error —
//! the timeline stays diffable.
//!
//! The fault flags apply to the `--trace-out` run (DESIGN.md §9):
//! `--kill-worker W:N` (repeatable) kills worker `W` after it completes
//! `N` tasks, `--transient-prob P` fails each attempt with deterministic
//! pseudo-probability `P`, and `--retry-max M` caps attempts per task
//! (default 4). All deterministic: the same flags reproduce the same
//! timeline, failures included.
//!
//! `--cache` demonstrates the result cache (DESIGN.md §12) on a seeded
//! potrf: one cold run populates a content-addressed cache, then
//! `--warm-runs N` (default 2) warm runs replay it, printing per-run
//! hit-rate and warm/cold wall-time speedup. `--mutate-frac F`
//! additionally resubmits the DAG with a fraction `F` of its tasks
//! mutated and reports how much of the graph re-executed (the dirty
//! cone) versus served from cache.
//!
//! `--cache-dir PATH` makes the `--cache` demo's result cache
//! **persistent** (DESIGN.md §14): the cache opens from `PATH`'s
//! checksummed segment log (printing how many records loaded and how
//! many a recovery rule skipped) and streams every insert back to it —
//! so a second invocation with the same `PATH` starts warm across the
//! process restart. `--crash-after N` kills the log writer after `N`
//! record-stream bytes and truncates to the durable frontier at exit,
//! simulating a mid-write crash; the next invocation demonstrates
//! torn-write recovery (a cold-degraded prefix, never wrong data).
//!
//! `--serve` runs the open-loop multi-tenant serving mode (DESIGN.md
//! §13) in virtual time, on the simulator's one event loop
//! (`mp_sim::serve_sim`): sub-DAGs stream in from `--tenants N` clients
//! (graded fair-share weights N..1) under `--arrivals` (default: a
//! Poisson process at ~80% of the platform's task throughput), with
//! bounded-queue admission control. Prints sustained decisions/sec,
//! p50/p99 *scheduling latency*, the admission ledger and the
//! per-tenant fairness breakdown. Bit-deterministic: the same flags
//! print the same numbers on every machine.
//!
//! `--serve --cache` runs the cache-backed warm-serving scenario
//! (DESIGN.md §13): the same deterministic sub-DAG stream is served
//! once cold (no cache) and once against a fresh result cache, where
//! every resubmission over a tenant's slot pool after the first hits
//! end to end and bypasses the scheduler. Defaults to a 20x-overload
//! arrival rate with unbounded admission so the warm run is
//! arrival-limited rather than service-limited. `--mutate-frac F`
//! perturbs a fraction of arrivals so only their dirty cones
//! re-execute. Prints hit-rate and warm/cold served-tasks/sec speedup.

use mp_apps::sparseqr::{matrix, MatrixMeta, FIG7_MATRICES};
use mp_bench::figures::{ablation, fig3, fig4, fig5, fig6, fig7, fig8, table2};
use mp_sim::{FaultPlan, RetryPolicy};
use std::io::Write;

/// The command line `repro` accepts.
pub const USAGE: &str = "\
usage: repro [--quick|--full] [--trace-out <path>] [--front <multiprio|relaxed>]
             [--kill-worker W:N]... [--transient-prob P] [--retry-max M]
             [--cache] [--warm-runs N] [--mutate-frac F]
             [--cache-dir PATH] [--crash-after N]
             [--serve] [--arrivals poisson:RATE|bursty:RATE[:BURST]] [--tenants N]
             [--workers W] [--submissions N] [--policy NAME]
             [table2] [fig3] [fig4] [fig5] [fig6] [fig7] [fig8] [ablation]
             [contract] [probe <matrix>]";

/// The experiments `repro` runs by name (all of them when none is named).
const EXPERIMENTS: [&str; 8] = [
    "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation",
];

/// The experiment that runs only when named: the behavioural contract.
const CONTRACT: &str = "contract";

/// Exit with status 2 after printing `why` and the usage to stderr.
fn usage_error(why: &str) -> ! {
    eprintln!("repro: {why}\n{USAGE}");
    std::process::exit(2);
}

/// Check what is left of the command line once every other flag is
/// taken: `--quick` or `--full`, then experiment names, or `probe` with
/// an optional Fig. 7 matrix, which is returned.
fn check_names(args: &[String]) -> Option<&'static MatrixMeta> {
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !matches!(*a, "--quick" | "--full"))
        .collect();
    if let Some(flag) = names.iter().find(|a| a.starts_with("--")) {
        usage_error(&format!("unknown flag {flag}"));
    }
    if names.first() == Some(&"probe") {
        if names.len() > 2 {
            usage_error("probe takes one matrix name");
        }
        let name = names.get(1).copied().unwrap_or("TF17");
        let Some(meta) = matrix(name) else {
            let presets: Vec<&str> = FIG7_MATRICES.iter().map(|m| m.name).collect();
            eprintln!(
                "repro: unknown matrix {name}; the Fig. 7 presets are {}",
                presets.join(", ")
            );
            std::process::exit(2);
        };
        return Some(meta);
    }
    if let Some(name) = names
        .iter()
        .find(|n| !EXPERIMENTS.contains(n) && **n != CONTRACT)
    {
        usage_error(&format!("unknown experiment {name}"));
    }
    None
}

/// Exit with status 2 after printing `why` to stderr.
fn fail(why: &str) -> ! {
    eprintln!("{why}");
    std::process::exit(2);
}

/// Pull `--flag <value>` out of `args`, exiting with status 2 on a
/// missing value. Returns `None` when the flag is absent.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    if i >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    Some(args.remove(i))
}

/// Pull the bare `flag` out of `args`; whether it was there.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let i = args.iter().position(|a| a == flag);
    i.map(|i| args.remove(i)).is_some()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = take_value(&mut args, "--trace-out");
    let front = take_value(&mut args, "--front").unwrap_or_else(|| "multiprio".to_string());
    if !matches!(front.as_str(), "multiprio" | "relaxed") {
        fail("--front expects 'multiprio' or 'relaxed'");
    }
    let mut faults = FaultPlan::default();
    while let Some(spec) = take_value(&mut args, "--kill-worker") {
        let (w, n) = spec
            .split_once(':')
            .and_then(|(w, n)| Some((w.parse().ok()?, n.parse().ok()?)))
            .unwrap_or_else(|| {
                fail("--kill-worker expects W:N (worker index : tasks before death)")
            });
        faults = faults.kill_worker(w, n);
    }
    if let Some(p) = take_value(&mut args, "--transient-prob") {
        faults.transient_fail_prob = p
            .parse()
            .unwrap_or_else(|_| fail("--transient-prob expects a probability in [0, 1]"));
    }
    let retry_max: u32 = take_value(&mut args, "--retry-max").map_or(4, |m| {
        m.parse()
            .unwrap_or_else(|_| fail("--retry-max expects a positive integer"))
    });
    if (faults.kills_any() || faults.transient_fail_prob > 0.0) && trace_out.is_none() {
        fail("fault flags apply to the --trace-out run; add --trace-out <path>");
    }
    let cache_mode = take_flag(&mut args, "--cache");
    let positive = |flag: &str, v: String| {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| fail(&format!("{flag} expects a positive integer")))
    };
    let warm_runs = take_value(&mut args, "--warm-runs").map(|v| positive("--warm-runs", v));
    let mutate_frac = take_value(&mut args, "--mutate-frac").map(|v| {
        v.parse::<f64>()
            .ok()
            .filter(|f| (0.0..=1.0).contains(f))
            .unwrap_or_else(|| fail("--mutate-frac expects a fraction in [0, 1]"))
    });
    if (warm_runs.is_some() || mutate_frac.is_some()) && !cache_mode {
        fail("--warm-runs / --mutate-frac apply to the --cache run; add --cache");
    }
    let cache_dir = take_value(&mut args, "--cache-dir");
    let crash_after = take_value(&mut args, "--crash-after").map(|v| {
        v.parse::<u64>()
            .unwrap_or_else(|_| fail("--crash-after expects a byte count"))
    });
    if crash_after.is_some() && cache_dir.is_none() {
        fail("--crash-after applies to the persistent cache; add --cache-dir <path>");
    }
    let serve_mode = take_flag(&mut args, "--serve");
    if serve_mode && warm_runs.is_some() {
        fail("--warm-runs applies to the closed-DAG --cache demo, not --serve --cache");
    }
    if cache_dir.is_some() && (!cache_mode || serve_mode) {
        fail("--cache-dir applies to the closed-DAG --cache demo; add --cache");
    }
    let arrivals = take_value(&mut args, "--arrivals");
    let tenants = take_value(&mut args, "--tenants").map(|v| positive("--tenants", v));
    let workers = take_value(&mut args, "--workers").map(|v| positive("--workers", v));
    let submissions = take_value(&mut args, "--submissions").map(|v| positive("--submissions", v));
    let policy = take_value(&mut args, "--policy");
    if !serve_mode
        && (arrivals.is_some()
            || tenants.is_some()
            || workers.is_some()
            || submissions.is_some()
            || policy.is_some())
    {
        fail("--arrivals/--tenants/--workers/--submissions/--policy need --serve");
    }
    if let Some(Err(e)) = policy.as_deref().map(mp_bench::harness::check_scheduler) {
        fail(&format!("repro: {e}"));
    }
    let probe_matrix = check_names(&args);
    if let Some(path) = trace_out {
        export_trace(&path, &front, faults, RetryPolicy::new(retry_max, 0.0));
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    if serve_mode && cache_mode {
        serve_cache_demo(
            arrivals,
            tenants.unwrap_or(4),
            workers.unwrap_or(16),
            submissions.unwrap_or(if full { 10_000 } else { 1_000 }),
            policy.as_deref().unwrap_or("prio"),
            mutate_frac.unwrap_or(0.0),
        );
        return;
    }
    if cache_mode {
        cache_demo(
            full,
            warm_runs.unwrap_or(2),
            mutate_frac.unwrap_or(0.0),
            cache_dir,
            crash_after,
        );
        return;
    }
    if serve_mode {
        serve_demo(
            arrivals,
            tenants.unwrap_or(4),
            workers.unwrap_or(16),
            submissions.unwrap_or(if full { 50_000 } else { 5_000 }),
            policy.as_deref().unwrap_or("prio"),
        );
        return;
    }
    if let Some(meta) = probe_matrix {
        probe(meta);
        return;
    }
    let names: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |n: &str| names.is_empty() || names.contains(&n);

    if want("table2") {
        let t = table2::run();
        println!("== Table II: gain heuristic worked example ==");
        println!("hd(a1) = {}, hd(a2) = {} (paper: 19, 19)", t.hd.0, t.hd.1);
        println!(
            "gain(t,a1): {:.3} {:.3} {:.3}   (paper: 1.000 0.631 0.236)",
            t.gain_a1[0], t.gain_a1[1], t.gain_a1[2]
        );
        println!(
            "gain(t,a2): {:.3} {:.3} {:.3}   (paper: 0.000 0.368 0.763)",
            t.gain_a2[0], t.gain_a2[1], t.gain_a2[2]
        );
        println!();
    }
    if want("fig3") {
        let (n2, n3) = fig3::run();
        println!("== Fig. 3: NOD criticality example ==");
        println!("NOD(T2) = {n2} (paper: 2.5), NOD(T3) = {n3} (paper: 1)");
        println!();
    }
    if want("fig4") {
        println!("== Fig. 4: eviction-mechanism ablation (potrf 960x20, 1 GPU + 6 CPUs) ==");
        for r in fig4::run() {
            println!(
                "eviction={:5}  makespan={:10.1} us  gpu_idle={:5.1}%  cpu_idle={:5.1}%",
                r.eviction, r.makespan, r.gpu_idle_pct, r.cpu_idle_pct
            );
        }
        println!("(paper: GPU idle 29% -> 1%)");
        println!();
    }
    if want("fig5") {
        println!("== Fig. 5: dense kernels, MultiPrio vs Dmdas ==");
        let scale = if full {
            fig5::Scale::Full
        } else {
            fig5::Scale::Quick
        };
        let rows = fig5::run(scale, &["multiprio", "dmdas"]);
        for r in &rows {
            println!(
                "{:11} {:6} n={:6} tile={:5} {:10} {:8.1} GF/s",
                r.platform, r.kernel, r.n, r.tile, r.sched, r.gflops
            );
        }
        println!("-- MultiPrio gain over Dmdas --");
        for (p, k, n, g) in fig5::gains_vs_dmdas(&rows) {
            println!("{p:11} {k:6} n={n:6}  {g:+6.1}%");
        }
        println!();
    }
    if want("fig6") {
        println!("== Fig. 6: TBFMM time vs GPU streams ==");
        let scale = if full {
            fig6::Scale::Full
        } else {
            fig6::Scale::Quick
        };
        let rows = fig6::run(scale, &["multiprio", "dmdas", "heteroprio"], &[1, 2, 3, 4]);
        for r in &rows {
            println!(
                "{:11} streams={} {:10} {:8.4} s",
                r.platform, r.streams, r.sched, r.time_s
            );
        }
        println!();
    }
    if want("fig7") {
        println!("== Fig. 7: sparse matrices (published | generated tree) ==");
        for r in fig7::run(7) {
            println!(
                "{:14} rows={:8} cols={:7} nnz={:8} {:9.0} Gflop | fronts={:4} tree={:9.0} Gflop",
                r.name, r.rows, r.cols, r.nnz, r.gflops, r.fronts, r.tree_gflops
            );
        }
        println!();
    }
    if want("fig8") {
        println!("== Fig. 8: sparse QR, ratio vs Dmdas (higher is better) ==");
        let scale = if full {
            fig8::Scale::Full
        } else {
            fig8::Scale::Quick
        };
        let rows = fig8::run(scale, &["multiprio", "dmdas", "heteroprio"]);
        for r in &rows {
            println!(
                "{:11} {:14} {:10} {:8.3} s  ratio {:5.3}",
                r.platform, r.matrix, r.sched, r.time_s, r.ratio_vs_dmdas
            );
        }
        for (p, m) in fig8::mean_multiprio_ratio(&rows) {
            println!("mean multiprio ratio on {p}: {m:.3} (paper: 1.31 Intel / 1.12 AMD)");
        }
        println!();
    }
    if want("ablation") {
        println!(
            "== Ablation: MultiPrio components (sparse QR flower_7_4, Intel-V100, 4 streams) =="
        );
        let a = ablation::run();
        for (sched, t) in ablation::VARIANTS.iter().zip(&a.components) {
            println!("{sched:22} {t:8.3} s");
        }
        println!("-- locality window n (paper: n = 10) --");
        for (n, t) in ablation::WINDOWS.iter().zip(&a.window) {
            println!("n={n:3}   {t:8.3} s");
        }
        println!("-- score threshold eps (paper: eps = 0.8) --");
        for (eps, t) in ablation::EPSILONS.iter().zip(&a.epsilon) {
            println!("eps={eps:4.2} {t:8.3} s");
        }
        println!("-- hierarchical tasks (Sec. VII outlook), Intel-V100 with 2 streams --");
        let [mp, dm, hp] = ablation::HIER_SCHEDULERS;
        println!("{:>8} {mp:>12} {dm:>12} {hp:>12}", "expand");
        for r in ablation::hierarchical_sweep() {
            let [mp, dm, hp] = r.makespan_ms;
            println!(
                "{:>8.2} {mp:>10.1}ms {dm:>10.1}ms {hp:>10.1}ms",
                r.expand_ratio
            );
        }
        println!();
    }
    if names.contains(&CONTRACT) {
        let mut out = std::io::BufWriter::new(std::io::stdout().lock());
        if let Err(e) = mp_bench::contract::run(&mut out).and_then(|()| out.flush()) {
            eprintln!("repro: cannot print the contract: {e}");
            std::process::exit(1);
        }
    }
}

/// One fixed seeded quick run (potrf under MultiPrio), exported as a
/// Chrome `trace_event` timeline: task spans, transfer spans and — when
/// built with `--features obs` — the scheduler's decision instants from
/// the provenance ring. Deterministic, so CI can diff the artifact —
/// including under a fault plan, whose kills, retries, recomputes and
/// replica promotions show up as instant events on the timeline.
fn export_trace(path: &str, front: &str, faults: FaultPlan, retry: RetryPolicy) {
    use mp_apps::dense::{potrf, DenseConfig};
    use mp_sched::concurrent::{RelaxedConfig, RelaxedMultiQueue};
    use mp_sim::{simulate, SimConfig};
    use mp_trace::chrome_trace_with;
    use multiprio::MultiPrioScheduler;

    let w = potrf(DenseConfig::new(8 * 480, 480));
    let model = mp_apps::dense_model();
    let platform = mp_platform::presets::simple(6, 2);
    let cfg = SimConfig::seeded(42).with_faults(faults).with_retry(retry);
    let mut sched = MultiPrioScheduler::with_defaults();
    let mut relaxed = (front == "relaxed").then(|| {
        RelaxedMultiQueue::new(
            platform.worker_count(),
            RelaxedConfig {
                queues_per_worker: 2,
                seed: 42,
                track_rank: true,
            },
        )
    });
    let result = match relaxed.as_mut() {
        Some(queue) => simulate(&w.graph, &platform, &model, queue, cfg),
        None => simulate(&w.graph, &platform, &model, &mut sched, cfg),
    };
    if let Some(e) = &result.error {
        eprintln!("trace run failed: {e}");
        std::process::exit(1);
    }
    if let Some(rank) = relaxed.as_ref().and_then(RelaxedMultiQueue::rank_stats) {
        println!(
            "relaxed front-end rank error: mean {:.2}, max {} over {} pops",
            rank.mean(),
            rank.rank_max,
            rank.pops
        );
    }
    if result.stats.worker_failures > 0 || result.stats.tasks_retried > 0 {
        println!(
            "faults: {} worker(s) failed, {} retried, {} recomputed, {} replica(s) promoted",
            result.stats.worker_failures,
            result.stats.tasks_retried,
            result.stats.tasks_recomputed,
            result.stats.replicas_promoted,
        );
    }
    let decisions = sched.provenance().decisions();
    match chrome_trace_with(&result.trace, &decisions, &result.events) {
        Ok(json) => {
            std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "wrote {path}: {} task spans, {} transfers, {} decisions \
                 (makespan {:.1} us; counters: {})",
                result.trace.tasks.len(),
                result.trace.transfers.len(),
                decisions.len(),
                result.makespan,
                result.counters.render(),
            );
            if decisions.is_empty() {
                println!("(rebuild with --features obs for scheduler decision instants)");
            }
        }
        Err(e) => {
            eprintln!("trace export failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Result-cache demonstration (DESIGN.md §12): a seeded potrf run cold
/// into a fresh content-addressed cache, then `warm_runs` warm replays
/// (printing hit-rate and warm/cold wall speedup), then — with
/// `mutate_frac > 0` — a mutated resubmission showing incremental
/// re-execution of just the dirty cone. With `cache_dir` the cache is
/// backed by the crash-safe segment log (DESIGN.md §14): records replay
/// on open (loaded/skipped counts printed, so the first run starts warm
/// across a process restart) and every insert streams back to disk;
/// `crash_after` kills the log writer mid-stream to stage a torn write
/// for the next invocation to recover from.
fn cache_demo(
    full: bool,
    warm_runs: usize,
    mutate_frac: f64,
    cache_dir: Option<String>,
    crash_after: Option<u64>,
) {
    use mp_apps::dense::{potrf, DenseConfig};
    use mp_cache::{changed_tasks, resubmit_with_mutation};
    use mp_sim::{simulate_cached, PersistConfig, PersistFaultPlan, ResultCache, SimConfig};
    use multiprio::MultiPrioScheduler;
    use std::time::Instant;

    let nt = if full { 48 } else { 16 };
    let w = potrf(DenseConfig::new(nt * 480, 480));
    let model = mp_apps::dense_model();
    let platform = mp_platform::presets::simple(6, 2);
    let n = w.graph.task_count();
    let cache = match &cache_dir {
        Some(dir) => {
            let mut fault = PersistFaultPlan::default();
            if let Some(bytes) = crash_after {
                fault = fault.kill_after_bytes(bytes);
            }
            let cfg = PersistConfig {
                fault,
                ..PersistConfig::default()
            };
            let (cache, load) = ResultCache::open_with(dir, None, cfg).unwrap_or_else(|e| {
                eprintln!("--cache-dir {dir}: {e}");
                std::process::exit(1);
            });
            println!(
                "persist: {dir}: loaded {} record(s), skipped {} of {} scanned \
                 across {} segment(s)",
                load.loaded, load.rejected, load.records_scanned, load.segments
            );
            cache
        }
        None => ResultCache::new(),
    };
    let run = |g: &mp_dag::TaskGraph| {
        let mut sched = MultiPrioScheduler::with_defaults();
        let t0 = Instant::now();
        let r = simulate_cached(
            g,
            &platform,
            &model,
            &mut sched,
            SimConfig::seeded(42),
            Some(&cache),
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(e) = &r.error {
            eprintln!("cached run failed: {e}");
            std::process::exit(1);
        }
        (r, wall_ms)
    };

    println!("== result cache: potrf {}x{} ({n} tasks) ==", nt * 480, 480);
    let (cold, cold_ms) = run(&w.graph);
    println!(
        "cold:    {} hits ({:5.1}%) / {} misses, makespan {:9.1} us, wall {cold_ms:8.2} ms",
        cold.stats.cache_hits,
        cold.stats.cache_hits as f64 / n as f64 * 100.0,
        cold.stats.cache_misses,
        cold.makespan
    );
    for i in 1..=warm_runs {
        let (warm, warm_ms) = run(&w.graph);
        println!(
            "warm #{i}: {} hits ({:5.1}%), makespan {:9.1} us, wall {warm_ms:8.2} ms \
             ({:.1}x vs cold)",
            warm.stats.cache_hits,
            warm.stats.cache_hits as f64 / n as f64 * 100.0,
            warm.makespan,
            cold_ms / warm_ms.max(1e-9),
        );
    }
    if mutate_frac > 0.0 {
        let edited = resubmit_with_mutation(&w.graph, mutate_frac, 42);
        let cone = changed_tasks(&w.graph, &edited);
        let (inc, inc_ms) = run(&edited);
        println!(
            "mutated: {:.1}% of tasks edited -> dirty cone {} of {n}; re-executed {}, \
             {} hits ({:5.1}%), wall {inc_ms:8.2} ms",
            mutate_frac * 100.0,
            cone.len(),
            inc.trace.tasks.len(),
            inc.stats.cache_hits,
            inc.stats.cache_hits as f64 / n as f64 * 100.0,
        );
    }
    if cache_dir.is_some() {
        let ps = cache.persist_stats();
        match crash_after {
            Some(bytes) => {
                if let Err(e) = cache.crash() {
                    eprintln!("crash injection failed: {e}");
                    std::process::exit(1);
                }
                println!(
                    "persist: writer killed after {bytes} record-stream byte(s); \
                     {} record(s) committed before death (torn tail truncated)",
                    ps.writes
                );
            }
            None => println!("persist: {} record(s) written this run", ps.writes),
        }
    }
}

/// The serving demos' stream and machine: `tenants` clients with graded
/// fair-share weights `N..1` submitting fork-join sub-DAGs of 25 µs
/// tasks to `workers` CPU workers, arriving per `arrivals` or by default
/// as a Poisson process offering `load` times the workers' capacity.
fn serve_setup(
    arrivals: Option<String>,
    tenants: usize,
    workers: usize,
    submissions: usize,
    load: f64,
) -> (
    mp_sim::ServeConfig,
    mp_platform::types::Platform,
    mp_perfmodel::TableModel,
) {
    use mp_perfmodel::{TableModel, TimeFn};
    use mp_platform::types::ArchClass;
    use mp_serve::{ArrivalProcess, TenantSpec};

    /// Per-task virtual service time (µs) under the demo model.
    const TASK_US: f64 = 25.0;
    let arrivals = match arrivals {
        Some(s) => ArrivalProcess::parse(&s).unwrap_or_else(|e| fail(&format!("--arrivals: {e}"))),
        // Six tasks per sub-DAG: root, four mids and the join.
        None => ArrivalProcess::Poisson {
            rate_per_sec: (workers as f64 * 1e6 / TASK_US / 6.0 * load).round(),
        },
    };
    let specs: Vec<TenantSpec> = (0..tenants)
        .map(|i| TenantSpec::new(format!("t{i}"), (tenants - i) as f64))
        .collect();
    let model = TableModel::builder()
        .set("SRV", ArchClass::Cpu, TimeFn::Const(TASK_US))
        .build();
    (
        mp_sim::ServeConfig::new(specs, arrivals, submissions),
        mp_platform::presets::homogeneous(workers),
        model,
    )
}

/// Open-loop serving demo (DESIGN.md §13): the stream of [`serve_setup`]
/// at ~80% load through bounded admission into the simulator's event
/// loop, entirely in virtual time. Reports throughput (decisions/sec),
/// scheduling latency (p50/p99: ready → popped), the admission ledger
/// and the per-tenant fairness breakdown.
fn serve_demo(
    arrivals: Option<String>,
    tenants: usize,
    workers: usize,
    submissions: usize,
    policy: &str,
) {
    let (cfg, platform, model) = serve_setup(arrivals, tenants, workers, submissions, 0.8);
    let mut sched = mp_bench::make_scheduler(policy);
    let result = mp_sim::serve_sim(&platform, &model, sched.as_mut(), &cfg);
    let report = result.serving.as_ref().expect("a serving run");

    println!(
        "== serving mode: {policy}, {workers} workers, {}, {submissions} sub-DAG submissions ==",
        cfg.arrivals.label()
    );
    println!(
        "throughput {:.0} decisions/s  latency p50 {} µs  p99 {} µs  makespan {:.0} µs",
        report.decisions_per_sec(result.makespan),
        report.p50_us(),
        report.p99_us(),
        result.makespan
    );
    println!(
        "admitted {} sub-DAGs ({} tasks), rejected {} with backpressure",
        report.subdags_admitted, report.tasks_admitted, report.subdags_rejected
    );
    println!("tenant     weight   adm    rej   mean µs   max µs");
    for t in &report.tenants {
        println!(
            "{:10} {:6.1} {:6} {:6} {:9.1} {:8}",
            t.name,
            t.weight,
            t.subdags_admitted,
            t.subdags_rejected,
            t.latency.mean_us(),
            t.latency.max_us
        );
    }
    if !result.is_complete() {
        eprintln!(
            "serve run incomplete: {}/{} tasks, error {:?}",
            result.stats.tasks, report.tasks_admitted, result.error
        );
        std::process::exit(1);
    }
}

/// Cache-backed warm-serving demo (DESIGN.md §13): the stream of
/// [`serve_setup`] served cold (no cache) and warm (fresh result cache,
/// so every resubmission over a tenant's slot pool after the first hits
/// at release and never enters the scheduler). Runs at 20x overload
/// with unbounded admission so the warm run is arrival-limited and the
/// served-tasks/sec speedup is visible; `mutate_frac` perturbs a
/// fraction of arrivals so only their dirty cones re-execute.
fn serve_cache_demo(
    arrivals: Option<String>,
    tenants: usize,
    workers: usize,
    submissions: usize,
    policy: &str,
    mutate_frac: f64,
) {
    use mp_sim::{serve_sim_cached, ResultCache};

    let (mut cfg, platform, model) = serve_setup(arrivals, tenants, workers, submissions, 20.0);
    cfg.admission.max_in_flight = 1 << 30;
    cfg.mutation_frac = mutate_frac;
    let served_per_sec = |r: &mp_sim::SimResult| {
        if r.makespan <= 0.0 {
            return 0.0;
        }
        r.stats.tasks as f64 / (r.makespan / 1e6)
    };

    let mut sched = mp_bench::make_scheduler(policy);
    let cold = serve_sim_cached(&platform, &model, sched.as_mut(), &cfg, None);
    let cache = ResultCache::new();
    let mut sched = mp_bench::make_scheduler(policy);
    let warm = serve_sim_cached(&platform, &model, sched.as_mut(), &cfg, Some(&cache));
    let cold_s = cold.serving.as_ref().expect("a serving run");
    let warm_s = warm.serving.as_ref().expect("a serving run");
    for (label, r, s) in [("cold", &cold, cold_s), ("warm", &warm, warm_s)] {
        if !r.is_complete() {
            eprintln!(
                "{label} serve run incomplete: {}/{} tasks, error {:?}",
                r.stats.tasks, s.tasks_admitted, r.error
            );
            std::process::exit(1);
        }
    }

    println!(
        "== warm serving: {policy}, {workers} workers, {}, {submissions} sub-DAG submissions, \
         mutate {mutate_frac:.2} ==",
        cfg.arrivals.label()
    );
    println!(
        "cold: {:10.0} served tasks/s  {:8} decisions  makespan {:10.0} µs  hash {:#018x}",
        served_per_sec(&cold),
        cold_s.decisions,
        cold.makespan,
        cold_s.schedule_hash
    );
    println!(
        "warm: {:10.0} served tasks/s  {:8} decisions  makespan {:10.0} µs",
        served_per_sec(&warm),
        warm_s.decisions,
        warm.makespan
    );
    let total = warm.stats.cache_hits + warm.stats.cache_misses;
    println!(
        "warm cache: {} hits / {} misses ({:.1}% hit-rate)  speedup {:.1}x served/s",
        warm.stats.cache_hits,
        warm.stats.cache_misses,
        warm.stats.cache_hits as f64 / (total.max(1)) as f64 * 100.0,
        served_per_sec(&warm) / served_per_sec(&cold).max(1e-9),
    );
    println!("tenant     weight   adm   hits  completed");
    for t in &warm_s.tenants {
        println!(
            "{:10} {:6.1} {:6} {:6} {:10}",
            t.name, t.weight, t.subdags_admitted, t.cache_hits, t.tasks_completed
        );
    }
}

/// Deep-dive one sparse matrix: makespan, idle and transfer stats per
/// scheduler (diagnostic aid, not a paper figure).
fn probe(meta: &MatrixMeta) {
    use mp_apps::sparseqr::{sparse_qr, SparseQrConfig};
    use mp_bench::harness::run_noisy;
    use mp_trace::TransferKind;
    let name = meta.name;
    let w = sparse_qr(meta, SparseQrConfig::default());
    let st = w.graph.stats();
    println!(
        "{name}: {} tasks, {} edges, {:.0} Gflop, {:.2} GB of handles",
        st.tasks,
        st.edges,
        w.total_flops / 1e9,
        st.total_bytes as f64 / 1e9
    );
    let model = mp_apps::sparseqr_model();
    for (pname, platform) in [
        ("Intel-V100", mp_platform::presets::intel_v100_streams(4)),
        ("AMD-A100", mp_platform::presets::amd_a100_streams(4)),
    ] {
        for sched in ["multiprio", "dmdas", "heteroprio"] {
            let r = run_noisy(&w.graph, &platform, &model, sched, 8, fig8::SPARSE_NOISE_CV);
            let gpu_idle = r.arch_idle_pct(&platform, "gpu").unwrap_or(0.0);
            let cpu_idle = r.arch_idle_pct(&platform, "cpu-core").unwrap_or(0.0);
            println!(
                "{pname:11} {sched:10} {:9.3} s  gpu_idle={gpu_idle:5.1}% cpu_idle={cpu_idle:5.1}% demand={:6.0}MB prefetch={:6.0}MB wb={:5.0}MB empty_pops={}",
                r.makespan / 1e6,
                r.transferred(TransferKind::Demand) as f64 / 1e6,
                r.transferred(TransferKind::Prefetch) as f64 / 1e6,
                r.transferred(TransferKind::WriteBack) as f64 / 1e6,
                r.stats.empty_pops,
            );
        }
    }
}
