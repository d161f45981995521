//! The behavioural contract: one deterministic sweep over the simulated
//! decisions, printed one line per run by `repro contract` and committed
//! as `ci/contract.txt`. A change that claims to move no decision must
//! leave the file byte-identical; one that moves decisions names, in its
//! diff, exactly the runs it moved.
//!
//! Three groups of runs, all with `record_trace` on, so every run that
//! completes is validated as well:
//!
//! * `closed` — [`simulate_cached`], cold and then warm on one
//!   [`ResultCache`] (seed 3), of the dense kernels at tile 960 (potrf
//!   8×8, 12×12 and 20×20, getrf and geqrf 8×8), FMM with 3,000 clustered
//!   particles, sparse QR `e18` and a 10×16 random DAG, on Intel-V100,
//!   AMD-A100, a two-GPU node capped at 12 tiles per GPU and
//!   `simple(3, 1)`, under every [`SCHEDULER_NAMES`] policy and the
//!   relaxed queue (2 queues per worker, seeded), at noise 0 and 0.1,
//!   under a clean, a kill and a transient fault plan;
//! * `replay` — the scheduler-only [`replay`] of a 16k-task Cholesky and
//!   a 16k-task FMM under six policies on `simple(6, 2)`;
//! * `serve` — open-loop serving: a prio sweep at 80% load on 16 and 32
//!   CPU workers, a warm-serving sweep at 20× overload (cache off, then a
//!   fresh cache, at mutation 0 and 0.25), and [`serve_sim_cached`] under
//!   every policy on the four closed-run platforms with Poisson and
//!   bursty arrivals (3 tenants, 300 submissions, 25% mutated), cold and
//!   then warm on one cache.
//!
//! Each line starts with the run's inputs, so a diff names the run it
//! comes from. The rest is what the run decided: `mk`, the makespan's
//! f64 bits; `err`, the kind of its [`mp_sim::SimError`] or `-`; `hash`,
//! [`schedule_hash`] of its trace; `stats`, an FNV-1a digest of every
//! [`SimStats`] value in field order; on a serving run `serve`
//! (sub-DAGs admitted/rejected, tasks admitted, decisions), `shash`
//! ([`ServeStats::schedule_hash`]) and `ledger` (a digest of the latency
//! samples and the per-tenant ledgers); and last, only when the
//! invariant auditor (`--features mp-sim/audit`) recorded `N > 0`
//! records, ` audit=N`. Known defects are lines like any other: a
//! recovery `Deadlock` or an audit record is pinned, not filtered out.

use std::io::{self, Write};

use mp_apps::dense::{geqrf, getrf, potrf, DenseConfig};
use mp_apps::fmm::{fmm, Distribution, FmmConfig};
use mp_apps::random::{random_dag, random_model, RandomDagConfig};
use mp_apps::sparseqr::{matrix, sparse_qr, SparseQrConfig};
use mp_apps::{dense_model, fmm_model, sparseqr_model};
use mp_audit::schedule_hash;
use mp_dag::hash::fnv1a_words;
use mp_dag::TaskGraph;
use mp_perfmodel::{TableModel, TimeFn};
use mp_platform::link::Link;
use mp_platform::presets::{amd_a100, hetero_node, homogeneous, intel_v100, simple};
use mp_platform::types::{ArchClass, Platform};
use mp_sched::{RelaxedConfig, RelaxedMultiQueue, Scheduler};
use mp_serve::{ArrivalProcess, TenantSpec};
use mp_sim::{
    serve_sim_cached, simulate_cached, FaultPlan, PersistStats, ResultCache, RetryPolicy,
    ServeConfig, ServeStats, SimConfig, SimResult, SimStats,
};

use crate::harness::{make_scheduler, SCHEDULER_NAMES};
use crate::replay::replay;

/// Seed of every closed run and of the relaxed queue.
const SEED: u64 = 3;
/// The relaxed queue's name in the sweep.
const RELAXED: &str = "relaxed-mq";
/// One 960×960 tile of f64s: the capped node's unit of GPU memory.
const TILE_BYTES: u64 = 960 * 960 * 8;
/// Service time of a serving task on a CPU worker, in virtual µs.
const SERVE_TASK_US: f64 = 25.0;

/// Print every line of the contract to `out`.
pub fn run(out: &mut dyn Write) -> io::Result<()> {
    closed(out)?;
    replays(out)?;
    serving(out)
}

/// Every policy of the sweep: the named schedulers, then the relaxed queue.
fn policies() -> impl Iterator<Item = &'static str> {
    SCHEDULER_NAMES.into_iter().chain([RELAXED])
}

/// A fresh instance of `policy` for `platform`.
fn scheduler(policy: &str, platform: &Platform) -> Box<dyn Scheduler> {
    if policy != RELAXED {
        return make_scheduler(policy);
    }
    let cfg = RelaxedConfig {
        queues_per_worker: 2,
        seed: SEED,
        track_rank: false,
    };
    Box::new(RelaxedMultiQueue::new(platform.worker_count(), cfg))
}

/// The four platforms of the closed and serving sweeps.
fn platforms() -> [Platform; 4] {
    let capped = hetero_node(
        "Capped-2GPU",
        6,
        1.0,
        2,
        1.0,
        12 * TILE_BYTES,
        1,
        Link::pcie_gen3(),
    );
    [intel_v100(), amd_a100(), capped, simple(3, 1)]
}

/// A platform's key: its name and worker count.
fn platform_key(p: &Platform) -> String {
    format!("{}:{}", p.name, p.worker_count())
}

/// The closed sweep's workloads, each with its model.
fn apps() -> Vec<(&'static str, TaskGraph, TableModel)> {
    let dense = |n: usize| DenseConfig::new(n * 960, 960);
    let fmm_cfg = FmmConfig {
        particles: 3_000,
        tree_height: 4,
        group_size: 16,
        distribution: Distribution::Clustered,
        seed: 5,
    };
    let e18 = matrix("e18").expect("e18 is a Fig. 7 preset");
    let random = RandomDagConfig {
        layers: 10,
        width: 16,
        ..RandomDagConfig::default()
    };
    vec![
        ("potrf-8", potrf(dense(8)).graph, dense_model()),
        ("potrf-12", potrf(dense(12)).graph, dense_model()),
        ("potrf-20", potrf(dense(20)).graph, dense_model()),
        ("getrf-8", getrf(dense(8)).graph, dense_model()),
        ("geqrf-8", geqrf(dense(8)).graph, dense_model()),
        ("fmm-3k", fmm(fmm_cfg).graph, fmm_model()),
        (
            "sqr-e18",
            sparse_qr(e18, SparseQrConfig::default()).graph,
            sparseqr_model(),
        ),
        ("random-10x16", random_dag(random), random_model()),
    ]
}

/// The fault plans of the closed sweep on `platform`: none, two kills
/// (CPU 1 after 3 tasks, then the last worker, a GPU, after 5), and
/// seeded transient failures.
fn plans(platform: &Platform) -> [(&'static str, FaultPlan, RetryPolicy); 3] {
    let last = platform.worker_count() - 1;
    let transient = FaultPlan {
        seed: SEED,
        transient_fail_prob: 0.1,
        ..FaultPlan::default()
    };
    [
        ("clean", FaultPlan::default(), RetryPolicy::default()),
        (
            "kill",
            FaultPlan::default().kill_worker(1, 3).kill_worker(last, 5),
            RetryPolicy::new(4, 0.0),
        ),
        ("transient", transient, RetryPolicy::new(8, 5.0)),
    ]
}

fn closed(out: &mut dyn Write) -> io::Result<()> {
    let platforms = platforms();
    for (app, graph, model) in &apps() {
        for platform in &platforms {
            for policy in policies() {
                for noise in [0.0, 0.1] {
                    for (plan, faults, retry) in plans(platform) {
                        let cfg = SimConfig::seeded(SEED)
                            .with_noise(noise)
                            .with_faults(faults)
                            .with_retry(retry);
                        let cache = ResultCache::new();
                        for pass in ["cold", "warm"] {
                            let mut sched = scheduler(policy, platform);
                            let r = simulate_cached(
                                graph,
                                platform,
                                model,
                                sched.as_mut(),
                                cfg,
                                Some(&cache),
                            );
                            let key = format!(
                                "closed {app} {} {policy} cv={noise} {plan} {pass}",
                                platform_key(platform)
                            );
                            writeln!(out, "{}", line(&key, &r))?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn replays(out: &mut dyn Write) -> io::Result<()> {
    let cholesky = potrf(DenseConfig::new(45 * 64, 64)).graph;
    let fmm_uniform = fmm(FmmConfig {
        particles: 200_000,
        tree_height: 6,
        group_size: 20,
        distribution: Distribution::Uniform,
        seed: 42,
    })
    .graph;
    let platform = simple(6, 2);
    let workloads = [
        ("potrf-45x64", cholesky, dense_model()),
        ("fmm-200k", fmm_uniform, fmm_model()),
    ];
    for (app, graph, model) in &workloads {
        for policy in [
            "multiprio",
            "multiprio-reference",
            "dmdas",
            "heteroprio",
            "lws",
            "fifo",
        ] {
            let r = replay(graph, &platform, model, make_scheduler(policy).as_mut());
            writeln!(
                out,
                "replay {app} {} {policy} scheduled={} pops={} hash={:016x}",
                platform_key(&platform),
                r.scheduled,
                r.pops,
                r.schedule_hash
            )?;
        }
    }
    Ok(())
}

fn serving(out: &mut dyn Write) -> io::Result<()> {
    let cpu_only = TableModel::builder()
        .set("SRV", ArchClass::Cpu, TimeFn::Const(SERVE_TASK_US))
        .build();
    let weighted = [
        ("gold", 4.0),
        ("silver", 2.0),
        ("bronze", 1.0),
        ("bronze2", 1.0),
    ];
    // Sub-DAGs per second that keep `workers` CPUs `load` times busy:
    // each sub-DAG is a fork-join of six tasks.
    let rate =
        |workers: usize, load: f64| (workers as f64 * 1e6 / SERVE_TASK_US / 6.0 * load).round();

    // Prio at 80% load on 16 and 32 CPU workers, cache off.
    for workers in [16, 32] {
        let r = rate(workers, 0.8);
        for arrivals in [poisson(r), bursty(r, 16)] {
            let cfg = serve_config(&weighted, arrivals, 2_000, 0.0);
            let p = homogeneous(workers);
            serve(out, &p, "prio", &cpu_only, &cfg, &[("off", None)])?;
        }
    }
    // Warm serving at 20x overload with unbounded admission: cache off,
    // then on a fresh cache.
    for mutation in [0.0, 0.25] {
        let mut cfg = serve_config(&weighted, poisson(rate(16, 20.0)), 1_000, mutation);
        cfg.admission.max_in_flight = 1 << 30;
        let passes = [("off", None), ("fresh", Some(&ResultCache::new()))];
        serve(out, &homogeneous(16), "prio", &cpu_only, &cfg, &passes)?;
    }
    // Every policy on the closed sweep's platforms, cold then warm on
    // one cache.
    let model = TableModel::builder()
        .set("SRV", ArchClass::Cpu, TimeFn::Const(SERVE_TASK_US))
        .set("SRV", ArchClass::Gpu, TimeFn::Const(SERVE_TASK_US / 4.0))
        .build();
    let tenants = [("a", 3.0), ("b", 2.0), ("c", 1.0)];
    for platform in &platforms() {
        for policy in policies() {
            for arrivals in [poisson(20_000.0), bursty(20_000.0, 8)] {
                let cfg = serve_config(&tenants, arrivals, 300, 0.25);
                let cache = ResultCache::new();
                let passes = [("cold", Some(&cache)), ("warm", Some(&cache))];
                serve(out, platform, policy, &model, &cfg, &passes)?;
            }
        }
    }
    Ok(())
}

fn poisson(rate_per_sec: f64) -> ArrivalProcess {
    ArrivalProcess::Poisson { rate_per_sec }
}

fn bursty(rate_per_sec: f64, burst: usize) -> ArrivalProcess {
    ArrivalProcess::Bursty {
        rate_per_sec,
        burst,
    }
}

fn serve_config(
    tenants: &[(&str, f64)],
    arrivals: ArrivalProcess,
    submissions: usize,
    mutation_frac: f64,
) -> ServeConfig {
    let tenants = tenants
        .iter()
        .map(|&(n, w)| TenantSpec::new(n, w))
        .collect();
    let mut cfg = ServeConfig::new(tenants, arrivals, submissions);
    cfg.mutation_frac = mutation_frac;
    cfg
}

/// Serve `cfg` under a fresh `policy` once per pass, each on its
/// cache, and print each run's line.
fn serve(
    out: &mut dyn Write,
    platform: &Platform,
    policy: &str,
    model: &TableModel,
    cfg: &ServeConfig,
    passes: &[(&str, Option<&ResultCache>)],
) -> io::Result<()> {
    for &(pass, cache) in passes {
        let mut sched = scheduler(policy, platform);
        let r = serve_sim_cached(platform, model, sched.as_mut(), cfg, cache);
        let key = format!(
            "serve {} {policy} {} tenants={} n={} inflight={} mut={} cache={pass}",
            platform_key(platform),
            cfg.arrivals.label(),
            cfg.tenants.len(),
            cfg.submissions,
            cfg.admission.max_in_flight,
            cfg.mutation_frac
        );
        writeln!(out, "{}", line(&key, &r))?;
    }
    Ok(())
}

/// The contract line of one simulated run under `key`.
fn line(key: &str, r: &SimResult) -> String {
    let err = r.error.as_ref().map_or_else(
        || "-".to_string(),
        |e| {
            let debug = format!("{e:?}");
            let kind = debug.split(|c: char| !c.is_alphanumeric()).next();
            kind.unwrap_or_default().to_string()
        },
    );
    let mut s = format!(
        "{key} mk={:016x} err={err} hash={:016x} stats={:016x}",
        r.makespan.to_bits(),
        schedule_hash(&r.trace),
        stats_digest(&r.stats)
    );
    if let Some(sv) = &r.serving {
        s += &format!(
            " serve={}/{}/{}/{} shash={:016x} ledger={:016x}",
            sv.subdags_admitted,
            sv.subdags_rejected,
            sv.tasks_admitted,
            sv.decisions,
            sv.schedule_hash,
            ledger_digest(sv)
        );
    }
    if !r.audit.is_empty() {
        s += &format!(" audit={}", r.audit.len());
    }
    s
}

/// FNV-1a over every value of `s`, in field order. The destructuring
/// names every field, so a new one fails to compile until it is folded
/// in, and a renamed one moves no line.
fn stats_digest(s: &SimStats) -> u64 {
    let SimStats {
        tasks,
        demand_bytes,
        prefetch_bytes,
        writeback_bytes,
        capacity_evictions,
        empty_pops,
        worker_failures,
        tasks_retried,
        tasks_recomputed,
        replicas_promoted,
        cache_hits,
        cache_misses,
        cache_invalidations,
        bytes_materialized,
        cache_evictions,
        persist,
    } = s;
    let PersistStats {
        writes,
        loaded,
        load_rejects,
        compactions,
    } = persist;
    fnv1a_words(&[
        *tasks as u64,
        *demand_bytes,
        *prefetch_bytes,
        *writeback_bytes,
        *capacity_evictions,
        *empty_pops,
        *worker_failures,
        *tasks_retried,
        *tasks_recomputed,
        *replicas_promoted,
        *cache_hits,
        *cache_misses,
        *cache_invalidations,
        *bytes_materialized,
        *cache_evictions,
        *writes,
        *loaded,
        *load_rejects,
        *compactions,
    ])
}

/// FNV-1a over a serving run's latency samples and per-tenant ledgers.
fn ledger_digest(sv: &ServeStats) -> u64 {
    let mut words = sv.samples_us.clone();
    for t in &sv.tenants {
        words.extend([
            t.weight.to_bits(),
            t.subdags_admitted,
            t.subdags_rejected,
            t.tasks_admitted,
            t.tasks_completed,
            t.cache_hits,
            t.latency.count,
            t.latency.sum_us,
            t.latency.max_us,
        ]);
    }
    fnv1a_words(&words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_apps::random::{random_dag, random_model, RandomDagConfig};
    use mp_dag::ids::TaskId;
    use mp_sim::SimError;
    use mp_trace::{AuditKind, AuditRecord};

    /// CI strips ` audit=N` from the end of a line, so the count comes
    /// last and only when the auditor recorded something; `err` names
    /// the error's variant alone.
    #[test]
    fn audit_count_ends_the_line_only_when_nonzero() {
        let g = random_dag(RandomDagConfig {
            layers: 3,
            width: 4,
            ..RandomDagConfig::default()
        });
        let mut sched = make_scheduler("prio");
        let cfg = SimConfig::seeded(SEED);
        let mut r = simulate_cached(
            &g,
            &simple(3, 1),
            &random_model(),
            sched.as_mut(),
            cfg,
            None,
        );
        let clean = line("k", &r);
        assert!(
            clean.starts_with("k mk=") && clean.contains(" err=- "),
            "{clean}"
        );
        assert!(!clean.contains("audit"), "{clean}");
        let record = AuditRecord::new(0.0, AuditKind::MultipleDirtyReplicas, "");
        r.audit = vec![record.clone(), record];
        r.error = Some(SimError::NoCapableWorker { task: TaskId(0) });
        let flagged = line("k", &r);
        let want = clean.replace(" err=- ", " err=NoCapableWorker ") + " audit=2";
        assert_eq!(flagged, want);
    }
}
