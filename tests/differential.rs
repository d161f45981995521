//! Differential sim/runtime validation sweep.
//!
//! Every configuration runs the same DAG through the discrete-event
//! simulator and the threaded runtime (no-op virtual-cost kernels) and
//! diffs the invariants both must uphold: exactly-once execution, full
//! completion, precedence ordering, plus typed-error-free runs and —
//! when built with `--features audit` — zero records from the
//! simulator's invariant auditor.
//!
//! Run the full sweep with the auditor armed:
//!
//! ```text
//! cargo test --features audit --test differential
//! ```

use std::sync::Arc;

use multiprio_suite::apps::dense::{potrf, DenseConfig};
use multiprio_suite::apps::fmm::{fmm, Distribution, FmmConfig};
use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::apps::{dense_model, fmm_model};
use multiprio_suite::audit::{
    differential, mirror_graph, warm_cold_audit, warm_cold_audit_with_cache, DiffConfig, DiffReport,
};
use multiprio_suite::bench::make_scheduler_factory;
use multiprio_suite::dag::TaskGraph;
use multiprio_suite::perfmodel::PerfModel;
use multiprio_suite::platform::presets::simple;
use multiprio_suite::runtime::{
    FaultPlan, RelaxedConfig, RelaxedMultiQueue, RetryPolicy, ShardedAdapter,
};
use multiprio_suite::sim::{simulate, simulate_cached, PersistStats, ResultCache, SimConfig};
use multiprio_suite::trace::obs::obs_enabled;
use proptest::prelude::*;

/// The scheduler families the paper compares (Fig. 5–8).
const SCHEDULERS: [&str; 4] = ["multiprio", "dmdas", "heteroprio", "lws"];

/// Both runtime front-ends: the global-lock baseline and the sharded
/// multi-queue.
const FRONT_ENDS: [usize; 2] = [0, 4];

fn workloads() -> Vec<(&'static str, TaskGraph, Arc<dyn PerfModel>)> {
    let potrf_w = potrf(DenseConfig::new(4 * 960, 960));
    let fmm_w = fmm(FmmConfig {
        particles: 2_000,
        tree_height: 3,
        group_size: 16,
        distribution: Distribution::Clustered,
        seed: 9,
    });
    let random_g = random_dag(RandomDagConfig {
        layers: 5,
        width: 6,
        seed: 17,
        ..Default::default()
    });
    vec![
        ("potrf", potrf_w.graph, Arc::new(dense_model())),
        ("fmm", fmm_w.graph, Arc::new(fmm_model())),
        ("random", random_g, Arc::new(random_model())),
    ]
}

fn assert_clean(report: &DiffReport, what: &str) {
    assert!(
        report.is_clean(),
        "{what}: {} mismatch(es), first: {}",
        report.mismatches.len(),
        report.mismatches[0]
    );
}

/// The acceptance sweep: 4 schedulers × 3 workloads × 2 runtime
/// front-ends × 3 sim seeds = 72 configurations, all of which must agree
/// on every checked invariant with zero audit records.
#[test]
fn differential_sweep_sim_vs_runtime() {
    let platform = simple(3, 1);
    let mut configs = 0usize;
    for (wname, graph, model) in &workloads() {
        for sched in SCHEDULERS {
            let factory = make_scheduler_factory(sched);
            for shards in FRONT_ENDS {
                for seed in [1u64, 2, 3] {
                    let cfg = DiffConfig {
                        sim_cfg: SimConfig::seeded(seed).with_noise(0.1),
                        shards,
                        ..DiffConfig::default()
                    };
                    let report = differential(graph, &platform, model, &*factory, &cfg);
                    assert_clean(
                        &report,
                        &format!("{wname}/{sched}/shards={shards}/seed={seed}"),
                    );
                    configs += 1;
                }
            }
        }
    }
    assert!(configs >= 64, "sweep covered {configs} configurations");
}

/// Under injected faults — slow and stalled kernels, skewed model
/// estimates, delayed wakeups — every scheduler still executes each task
/// exactly once, respects precedence, and every run terminates.
#[test]
fn fault_injection_preserves_exactly_once_and_termination() {
    let platform = simple(3, 1);
    for (wname, graph, model) in &workloads() {
        for sched in SCHEDULERS {
            let factory = make_scheduler_factory(sched);
            for shards in FRONT_ENDS {
                let cfg = DiffConfig {
                    sim_cfg: SimConfig::seeded(7),
                    shards,
                    faults: Some(FaultPlan::chaos(13)),
                    ..DiffConfig::default()
                };
                let report = differential(graph, &platform, model, &*factory, &cfg);
                assert_clean(&report, &format!("faulty {wname}/{sched}/shards={shards}"));
            }
        }
    }
}

/// Result-cache acceptance: cache-hit outputs are bit-identical to
/// recomputed ones across the sweep — computing mirror kernels, both
/// runtime front-ends, with and without a kill/transient fault plan.
/// Fault-free warm runs must additionally execute zero tasks (100 % hit
/// rate); see [`warm_cold_audit`].
#[test]
fn warm_cold_cache_sweep_outputs_bit_identical() {
    let platform = simple(3, 1);
    for (wname, graph, model) in &workloads() {
        for sched in SCHEDULERS {
            let factory = make_scheduler_factory(sched);
            for shards in FRONT_ENDS {
                for faulty in [false, true] {
                    let cfg = DiffConfig {
                        shards,
                        faults: faulty.then(|| FaultPlan {
                            transient_fail_prob: 0.2,
                            ..FaultPlan::default().kill_worker(0, 3)
                        }),
                        retry: RetryPolicy::new(8, 0.0),
                        ..DiffConfig::default()
                    };
                    let report = warm_cold_audit(graph, &platform, model, &*factory, &cfg);
                    assert!(
                        report.is_clean(),
                        "{wname}/{sched}/shards={shards}/faulty={faulty}: {}",
                        report.mismatches[0]
                    );
                }
            }
        }
    }
}

/// A byte-capped cache under the same sweep: the cap forces evictions
/// (warm runs legitimately recompute the evicted cone), residency never
/// exceeds the cap, and output digests stay bit-identical to the
/// uncached reference — eviction costs recomputes, never correctness.
#[test]
fn capped_cache_evicts_under_pressure_but_stays_bit_identical() {
    let platform = simple(3, 1);
    let (wname, graph, model) = &workloads().swap_remove(2);
    let factory = make_scheduler_factory("multiprio");
    // Small enough to churn on this workload, big enough to hold a few
    // entries at a time.
    let cap = 4 * 1024u64;
    let cache = Arc::new(multiprio_suite::runtime::ResultCache::with_capacity(cap));
    let cfg = DiffConfig::default();
    let report = warm_cold_audit_with_cache(graph, &platform, model, &*factory, &cfg, &cache);
    assert!(
        report.is_clean(),
        "{wname}: {} mismatch(es), first: {}",
        report.mismatches.len(),
        report.mismatches[0]
    );
    assert!(
        cache.evictions() > 0,
        "cap {cap} never pressed on {wname} (used {} bytes) — shrink it",
        cache.used_bytes()
    );
    assert!(cache.used_bytes() <= cap, "residency exceeded the cap");
    assert!(
        report.warm_executed > 0,
        "every entry survived despite evictions"
    );
}

/// The runtime's span order must be deterministic: wall-clock `end`
/// ties are real under coarse timers, so the engine breaks them by task
/// id. Every exporter downstream inherits this ordering.
#[test]
fn runtime_spans_are_sorted_by_end_then_task() {
    let platform = simple(3, 1);
    for (wname, graph, model) in &workloads() {
        let factory = make_scheduler_factory("multiprio");
        let (mut rt, edge_mismatches) = mirror_graph(graph, &platform, Arc::clone(model));
        assert!(edge_mismatches.is_empty(), "{wname}: mirrored DAG diverged");
        let report = rt
            .run_concurrent(&ShardedAdapter::new(4, &*factory))
            .expect("runtime run failed");
        assert!(report.error.is_none(), "{wname}: {:?}", report.error);
        for pair in report.trace.tasks.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.end < b.end || (a.end == b.end && a.task < b.task),
                "{wname}: spans for {:?} and {:?} not ordered by (end, task)",
                a.task,
                b.task
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random DAG shapes through both executors and both front-ends,
    /// with and without faults: zero invariant violations, exactly-once
    /// execution everywhere.
    #[test]
    fn prop_differential_random_dags(
        seed in 0u64..1000,
        layers in 2usize..6,
        width in 2usize..7,
        sched_idx in 0usize..SCHEDULERS.len(),
        shards in 0usize..4,
        faulty in 0usize..2,
    ) {
        let g = random_dag(RandomDagConfig { layers, width, seed, ..Default::default() });
        let model: Arc<dyn PerfModel> = Arc::new(random_model());
        let factory = make_scheduler_factory(SCHEDULERS[sched_idx]);
        let cfg = DiffConfig {
            sim_cfg: SimConfig::seeded(seed),
            shards,
            faults: (faulty == 1).then_some(FaultPlan {
                // Lighter than chaos(): proptest runs many cases.
                seed,
                slow_prob: 0.2,
                slow_us: 100.0,
                stall_prob: 0.05,
                stall_us: 500.0,
                estimate_skew: 2.0,
                wake_delay_us: 20.0,
                // Not exercised here: a panicking kernel truncates the
                // run by design, so exactly-once cannot hold. Worker
                // kills and transient failures get their own sweep in
                // tests/fault_tolerance.rs.
                ..FaultPlan::default()
            }),
            ..DiffConfig::default()
        };
        let report = differential(&g, &simple(2, 1), &model, &*factory, &cfg);
        prop_assert!(
            report.is_clean(),
            "seed={seed} layers={layers} width={width} sched={} shards={shards} faulty={faulty}: first mismatch: {}",
            SCHEDULERS[sched_idx],
            report.mismatches[0]
        );
    }

    /// Counter consistency (DESIGN.md §8): with `obs` compiled in, the
    /// quiesce-time snapshot obeys the defining identities — pops equal
    /// tasks executed, every task is pushed exactly once, per-shard
    /// steals never exceed that shard's pops, and shard pops sum to
    /// pops. With `obs` off, the snapshot is empty. The run facts (cache,
    /// fault and persistence counts) are read off the reports, which
    /// record them either way.
    #[test]
    fn prop_counters_are_consistent(
        seed in 0u64..500,
        layers in 2usize..5,
        width in 2usize..6,
        sched_idx in 0usize..SCHEDULERS.len(),
        shards in 0usize..4,
    ) {
        let g = random_dag(RandomDagConfig { layers, width, seed, ..Default::default() });
        let n = g.task_count() as u64;
        let model: Arc<dyn PerfModel> = Arc::new(random_model());
        let platform = simple(2, 1);
        let factory = make_scheduler_factory(SCHEDULERS[sched_idx]);

        // Sim side.
        let mut sched = factory();
        let result = simulate(&g, &platform, &*model, sched.as_mut(), SimConfig::seeded(seed));
        prop_assert!(result.error.is_none(), "sim failed: {:?}", result.error);
        let c = &result.counters;
        if obs_enabled() {
            prop_assert!(c.pops == result.stats.tasks as u64, "sim pops {} != tasks {}", c.pops, result.stats.tasks);
            prop_assert!(c.pushes == n, "sim pushes {} != tasks {n}", c.pushes);
        } else {
            prop_assert!(c.is_empty(), "obs off but sim counters non-zero: {}", c.render());
        }
        // No fault plan: every fault count stays zero.
        let st = &result.stats;
        prop_assert!(
            st.worker_failures == 0 && st.tasks_retried == 0
                && st.tasks_recomputed == 0 && st.replicas_promoted == 0,
            "fault counts non-zero in fault-free sim: {st:?}"
        );
        // Cache-off: the always-on cache stats stay exactly zero.
        prop_assert!(
            result.stats.cache_hits == 0 && result.stats.cache_misses == 0
                && result.stats.cache_invalidations == 0
                && result.stats.bytes_materialized == 0,
            "cache stats non-zero in a cache-off sim"
        );

        // Cache-on identities: a cold run hits nothing and probes every
        // task exactly once; the warm re-run hits everything, and on
        // any cached run hits + misses == tasks.
        let cache = ResultCache::new();
        let mut sched = factory();
        let cold = simulate_cached(
            &g, &platform, &*model, sched.as_mut(), SimConfig::seeded(seed), Some(&cache),
        );
        prop_assert!(cold.error.is_none(), "cold sim failed: {:?}", cold.error);
        prop_assert!(cold.stats.cache_hits == 0, "cold hits {} != 0", cold.stats.cache_hits);
        prop_assert!(
            cold.stats.cache_misses == n,
            "cold misses {} != tasks {n}", cold.stats.cache_misses
        );
        let mut sched = factory();
        let warm = simulate_cached(
            &g, &platform, &*model, sched.as_mut(), SimConfig::seeded(seed), Some(&cache),
        );
        prop_assert!(warm.error.is_none(), "warm sim failed: {:?}", warm.error);
        prop_assert!(
            warm.stats.cache_hits + warm.stats.cache_misses == n,
            "warm hits {} + misses {} != tasks {n}",
            warm.stats.cache_hits, warm.stats.cache_misses
        );
        prop_assert!(warm.stats.cache_hits == n, "warm run not all hits");
        if obs_enabled() {
            // Hit tasks bypass the scheduler: a fully-warm run makes no
            // pushes, no pops — and thus no push-plan lookups.
            let wc = &warm.counters;
            prop_assert!(
                wc.pushes == 0 && wc.pops == 0 && wc.arena_hits + wc.arena_misses == 0,
                "warm run consulted the scheduler/estimator: {}", wc.render()
            );
        }

        // Persist counts (DESIGN.md §14): with no directory attached,
        // all four stay exactly zero on every cached run.
        for (label, r) in [("cold", &cold), ("warm", &warm)] {
            prop_assert!(
                r.stats.persist == PersistStats::default(),
                "{label}: persist counts non-zero without a cache dir: {:?}", r.stats.persist
            );
        }

        // Persisted round trip: a cold run against a log-backed cache
        // commits one record per task; the reopen's ledger balances
        // (loaded + rejects == records scanned) and loses nothing on a
        // clean shutdown; the restarted warm run is all hits and writes
        // nothing new.
        let dir = std::env::temp_dir().join(format!(
            "mp-diff-persist-{}-{seed}-{layers}-{width}-{sched_idx}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let pcache = ResultCache::new();
        pcache.persist_to(&dir).expect("persist_to failed");
        let mut sched = factory();
        let pcold = simulate_cached(
            &g, &platform, &*model, sched.as_mut(), SimConfig::seeded(seed), Some(&pcache),
        );
        prop_assert!(pcold.error.is_none(), "persisted cold sim failed: {:?}", pcold.error);
        prop_assert!(
            pcold.stats.persist.writes == n,
            "cold run persisted {} of {n} records", pcold.stats.persist.writes
        );
        if !obs_enabled() {
            prop_assert!(
                pcold.counters.is_empty(),
                "obs off but persisted cold counters non-zero: {}", pcold.counters.render()
            );
        }
        drop(pcache);
        let (rcache, load) = ResultCache::open(&dir).expect("reopen failed");
        prop_assert!(
            load.loaded + load.rejected == load.records_scanned,
            "load ledger unbalanced: {load:?}"
        );
        prop_assert!(
            load.loaded == n && load.rejected == 0,
            "clean reopen lost records: {load:?}"
        );
        let ps = rcache.persist_stats();
        prop_assert!(
            ps.loaded == load.loaded && ps.load_rejects == load.rejected,
            "persist_stats {ps:?} disagrees with load report {load:?}"
        );
        let mut sched = factory();
        let pwarm = simulate_cached(
            &g, &platform, &*model, sched.as_mut(), SimConfig::seeded(seed), Some(&rcache),
        );
        prop_assert!(pwarm.error.is_none(), "persisted warm sim failed: {:?}", pwarm.error);
        prop_assert!(pwarm.stats.cache_hits == n, "restarted warm run not all hits");
        prop_assert!(
            pwarm.stats.persist.writes == 0,
            "all-hit warm run persisted {} record(s)", pwarm.stats.persist.writes
        );
        let _ = std::fs::remove_dir_all(&dir);

        // Runtime side, both front-ends.
        let (mut rt, edge_mismatches) = mirror_graph(&g, &platform, Arc::clone(&model));
        prop_assert!(edge_mismatches.is_empty());
        let report = if shards == 0 {
            rt.run(factory())
        } else {
            rt.run_concurrent(&ShardedAdapter::new(shards, &*factory))
        }.expect("runtime run failed");
        prop_assert!(report.error.is_none(), "runtime failed: {:?}", report.error);
        let c = &report.counters;
        if obs_enabled() {
            prop_assert!(c.pops == n, "runtime pops {} != tasks {n}", c.pops);
            prop_assert!(c.pushes == n, "runtime pushes {} != tasks {n}", c.pushes);
            prop_assert!(c.steals.len() == c.shard_pops.len());
            for (i, (&s, &p)) in c.steals.iter().zip(&c.shard_pops).enumerate() {
                prop_assert!(s <= p, "steals[{i}]={s} > shard_pops[{i}]={p}");
            }
            if shards > 0 {
                let shard_total: u64 = c.shard_pops.iter().sum();
                prop_assert!(shard_total == c.pops, "shard pops {shard_total} != pops {}", c.pops);
            }
        } else {
            prop_assert!(c.is_empty(), "obs off but runtime counters non-zero: {}", c.render());
        }
        prop_assert!(
            report.worker_failures == 0 && report.tasks_retried == 0,
            "fault counts non-zero in fault-free run: {} failed, {} retried",
            report.worker_failures, report.tasks_retried
        );

        // Relaxed multi-queue front-end: the per-queue vectors index
        // c·P queues, not workers or shards, and must still sum to the
        // scalar pop count after the nesting-boundary merge.
        let c = 1 + shards; // 1..=4 queues per worker, 3 workers
        let (mut rt, edge_mismatches) = mirror_graph(&g, &platform, Arc::clone(&model));
        prop_assert!(edge_mismatches.is_empty());
        let front = RelaxedMultiQueue::new(
            platform.worker_count(),
            RelaxedConfig { queues_per_worker: c, seed, track_rank: true },
        );
        let report = rt.run_concurrent(&front).expect("relaxed runtime run failed");
        prop_assert!(report.error.is_none(), "relaxed runtime failed: {:?}", report.error);
        let rank = front.rank_stats().expect("relaxed run reports rank stats");
        prop_assert!(rank.pops == n, "rank pops {} != tasks {n}", rank.pops);
        let cnt = &report.counters;
        if obs_enabled() {
            prop_assert!(cnt.pops == n, "relaxed pops {} != tasks {n}", cnt.pops);
            prop_assert!(cnt.pushes == n, "relaxed pushes {} != tasks {n}", cnt.pushes);
            prop_assert!(
                cnt.shard_pops.len() == c * 3,
                "relaxed queue vector len {} != c·P = {}", cnt.shard_pops.len(), c * 3
            );
            prop_assert!(cnt.steals.len() == cnt.shard_pops.len());
            let queue_total: u64 = cnt.shard_pops.iter().sum();
            prop_assert!(queue_total == cnt.pops, "queue pops {queue_total} != pops {}", cnt.pops);
            for (i, (&s, &p)) in cnt.steals.iter().zip(&cnt.shard_pops).enumerate() {
                prop_assert!(s <= p, "relaxed steals[{i}]={s} > queue_pops[{i}]={p}");
            }
        } else {
            prop_assert!(cnt.is_empty(), "obs off but relaxed counters non-zero: {}", cnt.render());
        }
    }
}
