//! Property-based integration tests: random DAGs through random scheduler
//! choices must always yield valid schedules with conserved structure.

use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::bench::{make_scheduler, replay, SCHEDULER_NAMES};
use multiprio_suite::dag::{critical_path, topological_order, DataId, TaskGraph, TaskId};
use multiprio_suite::perfmodel::{EstimateQuery, Estimator, HistoryModel, PerfModel, TableModel};
use multiprio_suite::platform::presets::simple;
use multiprio_suite::platform::types::{MemNodeId, Platform, WorkerId};
use multiprio_suite::sched::api::{DataLocator, LoadInfo, SchedView, Scheduler};
use multiprio_suite::sim::{simulate, SimConfig};
use multiprio_suite::trace::SpanTable;
use proptest::prelude::*;

/// All data lives in RAM; no replicas move (as in `mp_bench::replay`).
struct RamLocator;

impl DataLocator for RamLocator {
    fn is_on(&self, _d: DataId, m: MemNodeId) -> bool {
        m == MemNodeId(0)
    }

    fn holders(&self, _d: DataId) -> Vec<MemNodeId> {
        vec![MemNodeId(0)]
    }
}

/// Every worker is permanently free.
struct FreeLoad;

impl LoadInfo for FreeLoad {
    fn busy_until(&self, _w: WorkerId) -> f64 {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Simulated schedules satisfy all structural invariants for random
    /// shapes, scheduler choices and noise levels.
    #[test]
    fn prop_valid_schedules(
        seed in 0u64..1000,
        layers in 2usize..7,
        width in 2usize..9,
        sched_idx in 0usize..SCHEDULER_NAMES.len(),
        cpus in 1usize..5,
        gpus in 0usize..3,
        noise in 0usize..2,
    ) {
        let g = random_dag(RandomDagConfig { layers, width, seed, ..Default::default() });
        let m = random_model();
        // gpus can be 0: CPU-only platforms must also work (RCPU+RBOTH
        // both have CPU implementations).
        let p = simple(cpus, gpus);
        let mut s = make_scheduler(SCHEDULER_NAMES[sched_idx]);
        let cfg = if noise == 0 {
            SimConfig::seeded(seed)
        } else {
            SimConfig::seeded(seed).with_noise(0.2)
        };
        let r = simulate(&g, &p, &m, s.as_mut(), cfg);

        // Every task exactly once.
        prop_assert_eq!(r.stats.tasks, g.task_count());
        prop_assert_eq!(r.trace.tasks.len(), g.task_count());
        let mut seen = vec![false; g.task_count()];
        for span in &r.trace.tasks {
            prop_assert!(!seen[span.task.index()], "duplicate execution");
            seen[span.task.index()] = true;
        }
        // Workers never overlap; no task precedes its readiness.
        prop_assert!(r.trace.validate().is_ok());
        // Precedence constraints: every predecessor ran, and ended no
        // later than 1e-6 µs after each of its successors started.
        let prec = SpanTable::new(&r.trace, &g).check_precedence();
        prop_assert!(prec.violations.is_empty(), "precedence violated: {:?}", prec.violations);
        prop_assert!(prec.unspanned.is_empty(), "predecessor never ran: {:?}", prec.unspanned);
        // Lower bound (only exact without noise).
        if noise == 0 {
            let est = Estimator::new(&g, &p, &m as &dyn PerfModel);
            let cp = critical_path(&g, |t| est.best_delta(t).unwrap()).length;
            prop_assert!(r.makespan >= cp - 1e-6);
        }
    }

    /// STF inference: for random submission programs the graph is acyclic
    /// and a topological order exists that matches submission order
    /// prefix-freeness (ids only ever depend on smaller ids).
    #[test]
    fn prop_stf_edges_point_forward(
        seed in 0u64..500,
        layers in 1usize..10,
        width in 1usize..12,
    ) {
        let g = random_dag(RandomDagConfig { layers, width, seed, ..Default::default() });
        prop_assert!(g.validate_acyclic().is_ok());
        for t in g.tasks() {
            for &s in g.succs(t.id) {
                prop_assert!(s > t.id, "STF edges point from earlier to later submissions");
            }
        }
        let order = topological_order(&g);
        prop_assert_eq!(order.len(), g.task_count());
    }

    /// The slab-backed MultiPrio (lazy heap deletion, push-plan cache)
    /// pops the exact same task→worker sequence as the retained eager
    /// [`ReferenceScheduler`] on random DAGs — the determinism contract
    /// of the arena rewrite (DESIGN.md §6b).
    #[test]
    fn prop_slab_scheduler_matches_reference(
        seed in 0u64..400,
        layers in 2usize..8,
        width in 2usize..10,
        cpus in 1usize..5,
        gpus in 0usize..3,
    ) {
        let g = random_dag(RandomDagConfig { layers, width, seed, ..Default::default() });
        let m = random_model();
        let p = simple(cpus, gpus);
        let mut slab = make_scheduler("multiprio");
        let mut reference = make_scheduler("multiprio-reference");
        let rs = replay(&g, &p, &m, slab.as_mut());
        let rr = replay(&g, &p, &m, reference.as_mut());
        prop_assert_eq!(rs.scheduled, g.task_count());
        prop_assert_eq!(rs.scheduled, rr.scheduled);
        prop_assert_eq!(
            rs.schedule_hash, rr.schedule_hash,
            "slab and reference schedulers diverged (seed {})", seed
        );
    }
}

/// Replay `graph` through `sched` as `mp_bench::replay` does, but feed
/// `model` a measured time after every pop: the base model's estimate
/// on the popping worker's arch, scaled by a factor in [0.25, 2] drawn
/// from the (task, worker) pair. Returns the FNV-1a hash of the
/// (worker, task) pop sequence.
fn replay_learning(
    graph: &TaskGraph,
    platform: &Platform,
    model: &HistoryModel<TableModel>,
    sched: &mut dyn Scheduler,
) -> u64 {
    let base = random_model();
    let n = graph.task_count();
    let nw = platform.worker_count();
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.preds(TaskId::from_index(i)).len())
        .collect();
    let (loc, load) = (RamLocator, FreeLoad);
    let view = SchedView {
        est: Estimator::new(graph, platform, model),
        loc: &loc,
        load: &load,
        now: 0.0,
    };
    for (i, &d) in indeg.iter().enumerate() {
        if d == 0 {
            sched.push(TaskId::from_index(i), None, &view);
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut scheduled, mut w, mut idle_lap) = (0, 0, 0);
    while scheduled < n {
        let wid = WorkerId::from_index(w);
        w = (w + 1) % nw;
        let Some(t) = sched.pop(wid, &view) else {
            idle_lap += 1;
            assert!(idle_lap <= nw, "'{}' deadlocked", sched.name());
            continue;
        };
        scheduled += 1;
        idle_lap = 0;
        hash = (hash ^ ((wid.index() as u64) << 32 | u64::from(t.0))).wrapping_mul(0x100_0000_01b3);
        let task = graph.task(t);
        let q = EstimateQuery {
            task,
            ttype: graph.task_type(task.ttype),
            arch: platform.arch(platform.worker(wid).arch),
            footprint: graph.footprint(t),
        };
        let factor = 0.25 + ((t.index() * 37 + wid.index() * 11) % 15) as f64 / 8.0;
        let measured = base.estimate(&q).expect("popped by a capable worker") * factor;
        model.record(&q, measured);
        for &s in graph.succs(t) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                sched.push(s, Some(wid), &view);
            }
        }
    }
    hash
}

/// `prop_slab_scheduler_matches_reference` under a model that learns.
/// A `TableModel`'s version never moves, so there the push-plan cache
/// never refreshes a plan in place and the pop condition never falls
/// back to a live δ query. Here every pop feeds each scheduler's own
/// `HistoryModel` (history wins after one sample) the same measured
/// time, so the model version moves after every pop and both paths run
/// on nearly every decision.
#[test]
fn slab_scheduler_matches_reference_under_a_learning_model() {
    use multiprio_suite::multiprio::{MultiPrioScheduler, ReferenceScheduler};

    let mut holds = 0;
    for seed in 0..200u64 {
        let mut cfg = RandomDagConfig {
            layers: 2 + seed as usize % 6,
            width: 2 + (seed as usize / 6) % 8,
            seed,
            ..Default::default()
        };
        // Drawn flops give every task its own plan key, so every push
        // misses the plan cache. On odd seeds, fixed flops and data sizes
        // make tasks share keys, so stale plans are refreshed in place.
        if seed % 2 == 1 {
            cfg.flops_max = cfg.flops_min;
            cfg.data_max = cfg.data_min;
        }
        let g = random_dag(cfg);
        for (cpus, gpus) in [(1, 1), (3, 1), (2, 2), (4, 0)] {
            let p = simple(cpus, gpus);
            let mut slab = MultiPrioScheduler::with_defaults();
            let mut reference = ReferenceScheduler::with_defaults();
            let hs = replay_learning(&g, &p, &HistoryModel::new(random_model(), 1), &mut slab);
            let hr = replay_learning(
                &g,
                &p,
                &HistoryModel::new(random_model(), 1),
                &mut reference,
            );
            assert_eq!(
                hs, hr,
                "slab and reference diverged under a learning model (seed {seed}, simple({cpus}, {gpus}))"
            );
            holds += slab.hold_count();
        }
    }
    // Holds mean the pop condition ran for a non-best arch; with the
    // model version moving after every pop, it mostly reads δ live.
    assert!(holds > 0, "the sweep never exercised the pop condition");
}

/// Re-pushing a `TaskId` the scheduler has already taken (schedulers are
/// reused across replay rounds) must not let the stale first-generation
/// heap entries shadow or duplicate the fresh one.
#[test]
fn repushed_task_id_does_not_resurrect_stale_entries() {
    use multiprio_suite::multiprio::MultiPrioScheduler;
    use multiprio_suite::sched::testutil::Fixture;
    use multiprio_suite::sched::Scheduler;

    let mut fx = Fixture::two_arch();
    let t = fx.add_task(fx.both, 64, "t");
    let view = fx.view();
    let (_, _, g0) = fx.workers();
    let mut s = MultiPrioScheduler::with_defaults();
    s.push(t, None, &view);
    assert_eq!(s.pop(g0, &view), Some(t));
    // Same id, second life: the old entries are still physically present
    // in the heaps (lazy deletion) but carry a dead generation.
    s.push(t, None, &view);
    assert_eq!(s.pop(g0, &view), Some(t), "second life pops normally");
    assert_eq!(s.pop(g0, &view), None, "and exactly once");
    assert_eq!(s.pending(), 0);
}
