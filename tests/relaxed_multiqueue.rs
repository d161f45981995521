//! Lock-free relaxed multi-queue front-end: linearizable task
//! conservation (exactly-once under concurrent push/pop/steal), bounded
//! rank error against the exact-priority oracle, orphaned-shard routing
//! after a worker death, and the engine/differential wiring of the
//! third front-end mode.
//!
//! The heavy oversubscribed interleavings run only with
//! `--features concurrency-stress` (CI's `concurrency` job, also under
//! ThreadSanitizer); the default suite keeps a small deterministic core.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::audit::{differential, DiffConfig, Front};
use multiprio_suite::dag::TaskId;
use multiprio_suite::perfmodel::{PerfModel, TableModel, TimeFn};
use multiprio_suite::platform::presets::{homogeneous, simple};
use multiprio_suite::platform::types::ArchClass;
use multiprio_suite::runtime::{FaultPlan, RelaxedConfig, RetryPolicy, Runtime, TaskBuilder};
use multiprio_suite::sched::concurrent::{ConcurrentScheduler, RelaxedMultiQueue, ShardedAdapter};
use multiprio_suite::sched::testutil::Fixture;
use multiprio_suite::sched::{FifoScheduler, Scheduler};
use multiprio_suite::sim::SimConfig;
use multiprio_suite::trace::obs::obs_enabled;
use proptest::prelude::*;

/// Drive one `RelaxedMultiQueue` from `threads` worker threads over a
/// chain-structured workload: the first `chains` tasks are pre-pushed;
/// popping task `t` releases `t + chains` (push with the popping worker
/// as releaser — the steal/locality path), until `total` tasks ran.
/// Asserts exactly-once and full conservation.
fn drive_concurrently(threads: usize, chains: usize, depth: usize, c: usize, seed: u64) {
    let mut fx = Fixture::two_arch();
    let total = chains * depth;
    let tasks: Vec<_> = (0..total)
        .map(|i| fx.add_task(fx.both, 8, &format!("t{i}")))
        .collect();
    for (i, &t) in tasks.iter().enumerate() {
        fx.graph.set_user_priority(t, (i % 7) as i64);
    }
    let workers = [fx.workers().0, fx.workers().1, fx.workers().2];
    let threads = threads.clamp(1, workers.len());
    let mq = RelaxedMultiQueue::new(
        3,
        RelaxedConfig {
            queues_per_worker: c,
            seed,
            track_rank: true,
        },
    );
    let seen: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
    let done = AtomicUsize::new(0);
    {
        let view = fx.view();
        for &t in &tasks[..chains] {
            mq.push(t, None, &view);
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let (fx, mq, seen, done, tasks) = (&fx, &mq, &seen, &done, &tasks);
    std::thread::scope(|scope| {
        for &w in &workers[..threads] {
            scope.spawn(move || {
                let view = fx.view();
                while done.load(Ordering::Acquire) < total {
                    match mq.pop(w, &view) {
                        Some(t) => {
                            assert!(
                                !seen[t.index()].swap(true, Ordering::AcqRel),
                                "task {t:?} popped twice"
                            );
                            let next = t.index() + chains;
                            if next < total {
                                mq.push(tasks[next], Some(w), &view);
                            }
                            done.fetch_add(1, Ordering::AcqRel);
                        }
                        None => {
                            assert!(
                                std::time::Instant::now() < deadline,
                                "drain stalled: {}/{total} tasks popped, pending={}",
                                done.load(Ordering::Acquire),
                                ConcurrentScheduler::pending(mq)
                            );
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    assert_eq!(done.load(Ordering::Acquire), total);
    assert_eq!(
        ConcurrentScheduler::pending(mq),
        0,
        "tasks left behind after drain"
    );
    assert!(seen.iter().all(|s| s.load(Ordering::Acquire)), "task lost");
    let stats = mq.rank_stats().expect("rank tracking was on");
    assert_eq!(stats.pops as usize, total);
    if obs_enabled() {
        let snap = ConcurrentScheduler::counters(mq);
        assert_eq!(snap.shard_pops.len(), 3 * c);
        assert_eq!(snap.shard_pops.iter().sum::<u64>() as usize, total);
        for (s, p) in snap.steals.iter().zip(&snap.shard_pops) {
            assert!(s <= p, "steals exceed pops on a queue");
        }
    }
}

#[test]
fn concurrent_push_pop_steal_is_exactly_once() {
    drive_concurrently(3, 4, 32, 2, 11);
    drive_concurrently(2, 1, 64, 1, 12);
    drive_concurrently(3, 16, 8, 4, 13);
}

/// Heavy randomized interleavings; oversubscribed relative to the
/// machine so preemption lands inside every critical section
/// eventually. Gated: `cargo test --features concurrency-stress`.
#[test]
fn stress_concurrent_drains_under_oversubscription() {
    if !cfg!(feature = "concurrency-stress") {
        return;
    }
    for seed in 0..8 {
        drive_concurrently(3, 8, 200, 2, seed);
        drive_concurrently(3, 2, 400, 3, 1000 + seed);
    }
}

/// The queue, driven sequentially as the simulator drives it, against
/// the exact oracle: rank error stays small (two-choice keeps the
/// expected rank `O(c·P)`) and rank 0 dominates.
#[test]
fn rank_error_is_bounded_against_the_oracle() {
    let mut fx = Fixture::two_arch();
    let total = 400usize;
    let tasks: Vec<_> = (0..total)
        .map(|i| fx.add_task(fx.both, 8, &format!("t{i}")))
        .collect();
    for (i, &t) in tasks.iter().enumerate() {
        fx.graph.set_user_priority(t, (i % 13) as i64);
    }
    let view = fx.view();
    let (c0, c1, g0) = fx.workers();
    let c = 2usize;
    let mut s = RelaxedMultiQueue::new(
        3,
        RelaxedConfig {
            queues_per_worker: c,
            seed: 77,
            track_rank: true,
        },
    );
    for &t in &tasks {
        Scheduler::push(&mut s, t, None, &view);
    }
    let mut popped = 0usize;
    loop {
        let w = [c0, c1, g0][popped % 3];
        match Scheduler::pop(&mut s, w, &view) {
            Some(_) => popped += 1,
            None => break,
        }
    }
    assert_eq!(popped, total);
    let stats = s.rank_stats().unwrap();
    assert_eq!(stats.pops as usize, total);
    let bound = (4 * c * 3) as f64; // generous multiple of c·P
    assert!(
        stats.mean() <= bound,
        "mean rank error {} exceeds bound {bound}",
        stats.mean()
    );
    assert!(
        (stats.rank_max as usize) < total,
        "rank_max {} not bounded by pending set",
        stats.rank_max
    );
    assert!(
        stats.hist[0] >= stats.pops / 4,
        "exact pops should dominate: hist={:?}",
        stats.hist
    );
}

/// Orphaned-shard routing regression: once every owner of a shard is
/// quarantined, round-robin pushes detour around it instead of parking
/// work on a queue no owner will ever pop again.
#[test]
fn pushes_detour_around_a_dead_workers_shard() {
    let mut fx = Fixture::two_arch();
    let tasks: Vec<_> = (0..24)
        .map(|i| fx.add_task(fx.both, 8, &format!("t{i}")))
        .collect();
    let view = fx.view();
    let (c0, c1, _) = fx.workers();
    // simple(2,1) has workers {0, 1, 2}; with 2 shards, shard 1 is
    // owned by worker 1 alone.
    let fe = ShardedAdapter::new(2, &|| Box::new(FifoScheduler::new()));
    fe.worker_disabled(c1, &view);
    for &t in &tasks {
        fe.push(t, None, &view);
    }
    assert_eq!(
        fe.shard_pending(1),
        0,
        "pushes still routed to the orphaned shard"
    );
    assert_eq!(fe.shard_pending(0), tasks.len());
    // Pre-existing backlog on the orphaned shard still drains (steals).
    let late = fx.add_task(fx.both, 8, "late");
    let view = fx.view();
    let mut drained = 0;
    while fe.pop(c0, &view).is_some() {
        drained += 1;
    }
    assert_eq!(drained, tasks.len());
    // Releaser routing also detours: worker 1 is dead, so nothing may
    // ever target shard 1 again even via a (stale) releaser id.
    fe.push_retry(late, 1, &view);
    assert_eq!(fe.shard_pending(1), 0);
    assert!(fe.pop(c0, &view).is_some());
}

/// Engine-level version of the same regression: kill a worker mid-run
/// under the sharded front-end and require the whole DAG (including the
/// dead worker's shard backlog) to finish on the survivors.
#[test]
fn killed_workers_shard_drains_through_the_survivors() {
    let model: Arc<dyn PerfModel> = Arc::new(
        TableModel::builder()
            .set("STEP", ArchClass::Cpu, TimeFn::Const(5.0))
            .build(),
    );
    for shards in [2usize, 4] {
        let mut rt = Runtime::new(homogeneous(4), Arc::clone(&model));
        let bufs: Vec<_> = (0..8)
            .map(|i| rt.register(vec![0.0; 4], &format!("b{i}")))
            .collect();
        let mut n = 0usize;
        for l in 0..12 {
            for &b in &bufs {
                rt.submit(
                    TaskBuilder::new("STEP")
                        .access(b, multiprio_suite::dag::AccessMode::ReadWrite)
                        .cpu(|ctx| {
                            for v in ctx.w(0) {
                                *v += 1.0;
                            }
                        })
                        .flops(4.0)
                        .label(format!("t{l}")),
                );
                n += 1;
            }
        }
        rt.set_faults(FaultPlan::default().kill_worker(1, 2));
        rt.set_retry_policy(RetryPolicy::new(4, 0.0));
        let front = ShardedAdapter::new(shards, &|| Box::new(FifoScheduler::new()));
        let report = rt.run_concurrent(&front).expect("run failed");
        assert!(
            report.error.is_none(),
            "shards={shards}: {:?}",
            report.error
        );
        let mut counts = vec![0usize; n];
        for s in &report.trace.tasks {
            counts[s.task.index()] += 1;
        }
        assert!(
            counts.iter().all(|&c| c >= 1),
            "shards={shards}: task starved after the kill"
        );
        for (i, &b) in bufs.iter().enumerate() {
            let vals = rt.buffer(b);
            assert!(
                vals.iter().all(|&v| v == 12.0),
                "shards={shards}: buffer {i} corrupted: {vals:?}"
            );
        }
    }
}

/// The relaxed front-end through the whole differential harness: the
/// same queue on the simulator and on the threaded runtime, clean and
/// faulty, with rank statistics reported on both sides, on 4, 16 and 32
/// workers.
#[test]
fn relaxed_differential_sweep_with_and_without_faults() {
    let model: Arc<dyn PerfModel> = Arc::new(random_model());
    let noop_factory: &dyn Fn() -> Box<dyn Scheduler> = &|| Box::new(FifoScheduler::new());
    for (platform, seed) in [simple(3, 1), simple(15, 1), simple(31, 1)]
        .iter()
        .flat_map(|p| [1u64, 2, 3].map(|seed| (p, seed)))
    {
        let g = random_dag(RandomDagConfig {
            layers: 5,
            width: 6,
            seed,
            ..Default::default()
        });
        for (faults, retry) in [
            (None, RetryPolicy::default()),
            (
                Some(FaultPlan::default().kill_worker(0, 1)),
                RetryPolicy::new(4, 0.0),
            ),
            (
                Some(FaultPlan {
                    seed,
                    transient_fail_prob: 0.25,
                    ..FaultPlan::default()
                }),
                RetryPolicy::new(16, 2.0),
            ),
        ] {
            let cfg = DiffConfig {
                sim_cfg: SimConfig::seeded(seed),
                faults,
                retry,
                front: Front::Relaxed(RelaxedConfig {
                    queues_per_worker: 2,
                    seed,
                    track_rank: true,
                }),
            };
            let report = differential(&g, platform, &model, noop_factory, &cfg);
            assert!(
                report.is_clean(),
                "{} workers, seed={seed} faults={:?}: first mismatch: {}",
                platform.worker_count(),
                cfg.faults,
                report.mismatches[0]
            );
            let sim_rank = report.sim_rank.as_ref().expect("sim rank stats");
            let rt_rank = report.runtime_rank.as_ref().expect("runtime rank stats");
            assert!(sim_rank.pops > 0 && rt_rank.pops > 0);
            assert!((sim_rank.rank_max as usize) < g.task_count());
            assert!((rt_rank.rank_max as usize) < g.task_count());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Randomized concurrent drains: conservation holds for arbitrary
    /// chain shapes, queue multipliers and seeds.
    #[test]
    fn prop_concurrent_drain_conserves_tasks(
        threads in 1usize..4,
        chains in 1usize..10,
        depth in 1usize..12,
        c in 1usize..4,
        seed in 0u64..10_000,
    ) {
        drive_concurrently(threads, chains, depth, c, seed);
    }

    /// The relaxed engine mode executes random DAGs exactly once with
    /// precedence intact (same invariants as the exact front-ends in
    /// tests/concurrent_runtime.rs).
    #[test]
    fn prop_run_relaxed_exactly_once(
        layers in 1usize..5,
        width in 1usize..6,
        workers in 1usize..5,
        c in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let model: Arc<dyn PerfModel> = Arc::new(
            TableModel::builder()
                .set("STEP", ArchClass::Cpu, TimeFn::Const(5.0))
                .build(),
        );
        let mut rt = Runtime::new(homogeneous(workers), model);
        let bufs: Vec<_> = (0..width)
            .map(|i| rt.register(vec![0.0; 4], &format!("b{i}")))
            .collect();
        let mut n = 0usize;
        for _ in 0..layers {
            for &b in &bufs {
                rt.submit(
                    TaskBuilder::new("STEP")
                        .access(b, multiprio_suite::dag::AccessMode::ReadWrite)
                        .cpu(|ctx| {
                            for v in ctx.w(0) {
                                *v += 1.0;
                            }
                        })
                        .flops(4.0),
                );
                n += 1;
            }
        }
        let front = RelaxedMultiQueue::new(
            workers,
            RelaxedConfig { queues_per_worker: c, seed, track_rank: true },
        );
        let report = rt.run_concurrent(&front).expect("relaxed run failed");
        prop_assert!(report.error.is_none(), "{:?}", report.error);
        let mut spans = std::collections::HashMap::new();
        for s in &report.trace.tasks {
            prop_assert!(spans.insert(s.task, (s.start, s.end)).is_none(),
                "task {:?} executed twice", s.task);
        }
        prop_assert_eq!(spans.len(), n);
        for i in 0..n {
            let t = TaskId::from_index(i);
            let (start, _) = spans[&t];
            for &p in rt.graph().preds(t) {
                let (_, pend) = spans[&p];
                prop_assert!(pend <= start, "{t:?} started before {p:?} ended");
            }
        }
        let rank = front.rank_stats().expect("rank stats");
        prop_assert_eq!(rank.pops as usize, n);
        // Counter identities for c·P queues (obs builds only).
        if obs_enabled() {
            let cnt = &report.counters;
            prop_assert_eq!(cnt.pops, n as u64);
            prop_assert_eq!(cnt.shard_pops.len(), c * workers);
            prop_assert_eq!(cnt.shard_pops.iter().sum::<u64>(), cnt.pops);
            for (s, p) in cnt.steals.iter().zip(&cnt.shard_pops) {
                prop_assert!(s <= p);
            }
        } else {
            prop_assert!(report.counters.is_empty(), "obs off but counters non-zero");
        }
    }
}
