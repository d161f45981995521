//! Serving-mode bench: sustained scheduling throughput and latency of
//! open-loop multi-tenant streaming on the simulator's one event loop
//! (`mp_sim::serve_sim`) in **virtual time** — decisions per second,
//! p50/p99 scheduling latency (ready → popped) — at 16/32/64 workers
//! under Poisson and bursty arrivals (quick mode drops the 64-worker
//! point). Decisions per second are a scheduling-quality figure of the
//! virtual schedule, not host throughput.
//!
//! Every configuration runs twice and the run is rejected unless the
//! two schedule hashes are bit-identical: the serving layer must be a
//! pure function of its config, with no wall clock anywhere. Every
//! number in the emitted JSON derives from virtual time, so
//! `BENCH_serve.json` itself is bit-deterministic across repeats.
//!
//! A second sweep benchmarks **warm serving**: the same open-loop
//! stream under a 20×-overload arrival process, cache off (cold) vs a
//! fresh [`mp_cache::ResultCache`] (warm), at mutation fractions 0 and
//! 0.25 ([`mp_sim::ServeConfig::mutation_frac`]). With mutation 0
//! every resubmission past the pool-warmup rounds is served from the
//! cache, so the gate requires ≥95 % hit rate and a ≥5× served-tasks
//! throughput speedup over cold; warm runs must stay bit-deterministic
//! too. Emits `BENCH_serve_cache.json` (override
//! `BENCH_SERVE_CACHE_OUT`).
//!
//! Emits `BENCH_serve.json` at the repository root (override with
//! `BENCH_SERVE_OUT`). Exits non-zero on a determinism violation, an
//! incomplete run (stall), or an admission ledger that does not balance.
//!
//! `BENCH_QUICK=1` shrinks the sweep to CI scale.

use mp_bench::{make_scheduler, BenchJson};
use mp_cache::ResultCache;
use mp_perfmodel::{PerfModel, TableModel, TimeFn};
use mp_platform::presets::homogeneous;
use mp_platform::types::ArchClass;
use mp_serve::{ArrivalProcess, TenantSpec};
use mp_sim::{serve_sim, serve_sim_cached, ServeConfig, ServeStats, SimResult};

/// Per-task service time in virtual µs (every task of the fork-join).
const TASK_US: f64 = 25.0;
/// Tasks per submitted sub-DAG: root + width(4) + join.
const TASKS_PER_SUBDAG: f64 = 6.0;

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("gold", 4.0),
        TenantSpec::new("silver", 2.0),
        TenantSpec::new("bronze", 1.0),
        TenantSpec::new("bronze2", 1.0),
    ]
}

fn run_once(workers: usize, arrivals: ArrivalProcess, submissions: usize) -> SimResult {
    let platform = homogeneous(workers);
    let model = TableModel::builder()
        .set("SRV", ArchClass::Cpu, TimeFn::Const(TASK_US))
        .build();
    let model: &dyn PerfModel = &model;
    let mut sched = make_scheduler("prio");
    let cfg = ServeConfig::new(tenants(), arrivals, submissions);
    serve_sim(&platform, model, sched.as_mut(), &cfg)
}

/// The serving section every `serve_sim` result carries.
fn serving(r: &SimResult) -> &ServeStats {
    r.serving
        .as_ref()
        .expect("a serving run has a serving section")
}

struct Row {
    workers: usize,
    arrivals: String,
    submissions: usize,
    decisions: u64,
    decisions_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    subdags_admitted: u64,
    subdags_rejected: u64,
    makespan_us: f64,
    schedule_hash: u64,
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let mut failed = false;

    let worker_counts: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };
    let submissions = if quick { 2_000 } else { 20_000 };
    let mut rows: Vec<Row> = Vec::new();

    eprintln!("== serving mode (prio policy, {TASK_US} µs tasks, open loop) ==");
    for &workers in worker_counts {
        // ~80% offered utilization: tasks/s capacity × 0.8, in sub-DAGs.
        let rate = (workers as f64 * 1e6 / TASK_US / TASKS_PER_SUBDAG * 0.8).round();
        let arrival_set = [
            ArrivalProcess::Poisson { rate_per_sec: rate },
            ArrivalProcess::Bursty {
                rate_per_sec: rate,
                burst: 16,
            },
        ];
        for arrivals in arrival_set {
            let ra = run_once(workers, arrivals.clone(), submissions);
            let rb = run_once(workers, arrivals.clone(), submissions);
            let (a, b) = (serving(&ra), serving(&rb));
            if a.schedule_hash != b.schedule_hash {
                eprintln!(
                    "!! {workers}w {}: schedule hash diverged across repeats \
                     ({:016x} vs {:016x})",
                    arrivals.label(),
                    a.schedule_hash,
                    b.schedule_hash
                );
                failed = true;
            }
            if !ra.is_complete() {
                eprintln!(
                    "!! {workers}w {}: run incomplete ({}/{} tasks, error {:?})",
                    arrivals.label(),
                    ra.stats.tasks,
                    a.tasks_admitted,
                    ra.error
                );
                failed = true;
            }
            if a.subdags_admitted + a.subdags_rejected != submissions as u64 {
                eprintln!(
                    "!! {workers}w {}: admission ledger does not balance \
                     ({} + {} != {submissions})",
                    arrivals.label(),
                    a.subdags_admitted,
                    a.subdags_rejected
                );
                failed = true;
            }
            eprintln!(
                "   {workers:>2}w {:<18} {:>9.0} dec/s  p50 {:>5} µs  p99 {:>6} µs  \
                 adm {:>6}  rej {:>5}  makespan {:>9.0} µs",
                arrivals.label(),
                a.decisions_per_sec(ra.makespan),
                a.p50_us(),
                a.p99_us(),
                a.subdags_admitted,
                a.subdags_rejected,
                ra.makespan
            );
            rows.push(Row {
                workers,
                arrivals: arrivals.label(),
                submissions,
                decisions: a.decisions,
                decisions_per_sec: a.decisions_per_sec(ra.makespan),
                p50_us: a.p50_us(),
                p99_us: a.p99_us(),
                subdags_admitted: a.subdags_admitted,
                subdags_rejected: a.subdags_rejected,
                makespan_us: ra.makespan,
                schedule_hash: a.schedule_hash,
            });
        }
    }

    // ---- Warm-resubmission cache scenario: near-identical sub-DAG
    // streams under 20× overload, cache off vs on. Cold is
    // service-limited; warm collapses to the arrival span because hits
    // complete at release without ever entering the scheduler.
    struct CacheRow {
        workers: usize,
        mutation_frac: f64,
        submissions: usize,
        cold_decisions: u64,
        warm_decisions: u64,
        cache_hits: u64,
        cache_misses: u64,
        hit_rate: f64,
        cold_served_per_sec: f64,
        warm_served_per_sec: f64,
        speedup_served: f64,
        cold_hash: u64,
        warm_hash: u64,
    }
    let cache_workers: &[usize] = if quick { &[16] } else { &[16, 32] };
    let cache_submissions = if quick { 1_000 } else { 10_000 };
    let mut crows: Vec<CacheRow> = Vec::new();

    eprintln!("== warm serving (cache-backed resubmission, 20x overload) ==");
    for &workers in cache_workers {
        for &mf in &[0.0f64, 0.25] {
            let rate = (workers as f64 * 1e6 / TASK_US / TASKS_PER_SUBDAG * 20.0).round();
            let run_cached = |cache: Option<&ResultCache>| -> SimResult {
                let platform = homogeneous(workers);
                let model = TableModel::builder()
                    .set("SRV", ArchClass::Cpu, TimeFn::Const(TASK_US))
                    .build();
                let model: &dyn PerfModel = &model;
                let mut sched = make_scheduler("prio");
                let mut cfg = ServeConfig::new(
                    tenants(),
                    ArrivalProcess::Poisson { rate_per_sec: rate },
                    cache_submissions,
                );
                // Overload on purpose: admission must not shed load, or
                // cold and warm would serve different streams.
                cfg.admission.max_in_flight = 1 << 30;
                cfg.mutation_frac = mf;
                serve_sim_cached(&platform, model, sched.as_mut(), &cfg, cache)
            };
            let served_per_sec = |r: &SimResult| r.stats.tasks as f64 / r.makespan * 1e6;

            let cold = run_cached(None);
            let cold2 = run_cached(None);
            let warm = run_cached(Some(&ResultCache::new()));
            let warm2 = run_cached(Some(&ResultCache::new()));
            for (label, ra, rb) in [("cold", &cold, &cold2), ("warm", &warm, &warm2)] {
                let (a, b) = (serving(ra), serving(rb));
                if a.schedule_hash != b.schedule_hash {
                    eprintln!(
                        "!! {workers}w mf={mf}: {label} schedule hash diverged across \
                         repeats ({:016x} vs {:016x})",
                        a.schedule_hash, b.schedule_hash
                    );
                    failed = true;
                }
                if !ra.is_complete() {
                    eprintln!(
                        "!! {workers}w mf={mf}: {label} run incomplete ({}/{} tasks, error {:?})",
                        ra.stats.tasks, a.tasks_admitted, ra.error
                    );
                    failed = true;
                }
                if a.subdags_rejected != 0 {
                    eprintln!(
                        "!! {workers}w mf={mf}: {label} rejected {} sub-DAGs under \
                         unbounded admission",
                        a.subdags_rejected
                    );
                    failed = true;
                }
            }
            if cold.stats.cache_hits != 0 || cold.stats.cache_misses != 0 {
                eprintln!("!! {workers}w mf={mf}: cache-off run reported cache traffic");
                failed = true;
            }
            let hit_rate = warm.stats.cache_hits as f64 / serving(&warm).tasks_admitted as f64;
            let speedup = served_per_sec(&warm) / served_per_sec(&cold);
            // The acceptance gate applies to pure resubmission: the
            // stream past pool warmup is all hits and the scheduler is
            // out of the path entirely.
            if mf == 0.0 && hit_rate < 0.95 {
                eprintln!("!! {workers}w mf=0: hit rate {hit_rate:.3} below 0.95 gate");
                failed = true;
            }
            if mf == 0.0 && speedup < 5.0 {
                eprintln!("!! {workers}w mf=0: warm speedup {speedup:.2}x below 5x gate");
                failed = true;
            }
            eprintln!(
                "   {workers:>2}w mf {mf:.2}  hits {:>6}  misses {:>5}  hit-rate {:>5.1}%  \
                 cold {:>9.0} t/s  warm {:>10.0} t/s  speedup {:>5.1}x",
                warm.stats.cache_hits,
                warm.stats.cache_misses,
                hit_rate * 100.0,
                served_per_sec(&cold),
                served_per_sec(&warm),
                speedup
            );
            crows.push(CacheRow {
                workers,
                mutation_frac: mf,
                submissions: cache_submissions,
                cold_decisions: serving(&cold).decisions,
                warm_decisions: serving(&warm).decisions,
                cache_hits: warm.stats.cache_hits,
                cache_misses: warm.stats.cache_misses,
                hit_rate,
                cold_served_per_sec: served_per_sec(&cold),
                warm_served_per_sec: served_per_sec(&warm),
                speedup_served: speedup,
                cold_hash: serving(&cold).schedule_hash,
                warm_hash: serving(&warm).schedule_hash,
            });
        }
    }

    BenchJson::new("bench-serve-cache/v1")
        .field("quick", quick)
        .string("policy", "prio")
        .field("task_us", TASK_US)
        .field("overload", "20.0")
        .rows(
            "rows",
            crows.iter().map(|r| {
                format!(
                    "{{\"workers\": {}, \"mutation_frac\": {:.2}, \"submissions\": {}, \
                     \"cold_decisions\": {}, \"warm_decisions\": {}, \"cache_hits\": {}, \
                     \"cache_misses\": {}, \"hit_rate\": {:.4}, \"cold_served_per_sec\": {:.1}, \
                     \"warm_served_per_sec\": {:.1}, \"speedup_served\": {:.2}, \
                     \"cold_schedule_hash\": \"{:016x}\", \"warm_schedule_hash\": \"{:016x}\"}}",
                    r.workers,
                    r.mutation_frac,
                    r.submissions,
                    r.cold_decisions,
                    r.warm_decisions,
                    r.cache_hits,
                    r.cache_misses,
                    r.hit_rate,
                    r.cold_served_per_sec,
                    r.warm_served_per_sec,
                    r.speedup_served,
                    r.cold_hash,
                    r.warm_hash
                )
            }),
        )
        .field("failed", failed)
        .write("BENCH_SERVE_CACHE_OUT", "BENCH_serve_cache.json");

    // Virtual-time quantities only — the file is repeat-deterministic.
    BenchJson::new("bench-serve/v1")
        .field("quick", quick)
        .string("policy", "prio")
        .field("task_us", TASK_US)
        .rows(
            "rows",
            rows.iter().map(|r| {
                format!(
                    "{{\"workers\": {}, \"arrivals\": \"{}\", \"submissions\": {}, \
                     \"decisions\": {}, \"decisions_per_sec\": {:.1}, \"p50_us\": {}, \
                     \"p99_us\": {}, \"subdags_admitted\": {}, \"subdags_rejected\": {}, \
                     \"makespan_us\": {:.3}, \"schedule_hash\": \"{:016x}\"}}",
                    r.workers,
                    r.arrivals,
                    r.submissions,
                    r.decisions,
                    r.decisions_per_sec,
                    r.p50_us,
                    r.p99_us,
                    r.subdags_admitted,
                    r.subdags_rejected,
                    r.makespan_us,
                    r.schedule_hash
                )
            }),
        )
        .field("failed", failed)
        .write("BENCH_SERVE_OUT", "BENCH_serve.json");

    if failed {
        eprintln!("FAIL: serve bench gate");
        std::process::exit(1);
    }
}
