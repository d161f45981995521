//! Integration tests of the discrete-event engine: exact small scenarios,
//! cross-scheduler validity, and property tests over random DAGs.

use mp_dag::{AccessMode, StfBuilder, TaskGraph};
use mp_perfmodel::{PerfModel, TableModel, TimeFn};
use mp_platform::presets::{homogeneous, simple};
use mp_platform::types::{ArchClass, MemNodeId, Platform};
use mp_sched::{
    DequeModelScheduler, DmVariant, FifoScheduler, HeteroPrioScheduler, LwsScheduler,
    RandomScheduler, Scheduler,
};
use mp_sim::{simulate, SimConfig};
use multiprio::MultiPrioScheduler;

fn table() -> TableModel {
    TableModel::builder()
        .set("CPU100", ArchClass::Cpu, TimeFn::Const(100.0))
        .set("BOTH", ArchClass::Cpu, TimeFn::Const(100.0))
        .set("BOTH", ArchClass::Gpu, TimeFn::Const(10.0))
        .build()
}

/// `count` independent CPU tasks of 100 µs each.
fn independent_tasks(count: usize) -> TaskGraph {
    let mut g = TaskGraph::new();
    let k = g.register_type("CPU100", true, false);
    for i in 0..count {
        let d = g.add_data(1024, format!("d{i}"));
        g.add_task(k, vec![(d, AccessMode::ReadWrite)], 1.0, format!("t{i}"));
    }
    g
}

/// A serial chain of `count` CPU tasks through one handle.
fn chain(count: usize) -> TaskGraph {
    let mut stf = StfBuilder::new();
    let k = stf.graph_mut().register_type("CPU100", true, false);
    let d = stf.graph_mut().add_data(1024, "d");
    for i in 0..count {
        stf.submit(k, vec![(d, AccessMode::ReadWrite)], 1.0, format!("t{i}"));
    }
    stf.finish()
}

fn run(g: &TaskGraph, p: &Platform, m: &dyn PerfModel, s: &mut dyn Scheduler) -> mp_sim::SimResult {
    simulate(g, p, m, s, SimConfig::default())
}

#[test]
fn single_task_takes_delta() {
    let g = independent_tasks(1);
    let p = homogeneous(1);
    let r = run(&g, &p, &table(), &mut FifoScheduler::new());
    assert_eq!(r.makespan, 100.0);
    assert_eq!(r.stats.tasks, 1);
    assert!(r.trace.validate().is_ok());
    assert!(r.serving.is_none(), "a closed run has no serving section");
}

#[test]
fn chain_serializes() {
    let g = chain(5);
    let p = homogeneous(4);
    let r = run(&g, &p, &table(), &mut FifoScheduler::new());
    assert_eq!(r.makespan, 500.0, "chain cannot use extra workers");
}

#[test]
fn independent_tasks_parallelize_perfectly() {
    let g = independent_tasks(8);
    let p = homogeneous(4);
    let r = run(&g, &p, &table(), &mut FifoScheduler::new());
    assert_eq!(r.makespan, 200.0, "8 × 100 µs on 4 workers");
}

#[test]
fn gpu_task_pays_the_transfer() {
    // One task on the GPU with 12 MB of read data initially in RAM:
    // 10 µs latency + 12e6 B / 12 GB/s = 1000 µs, + 10 µs exec.
    let mut g = TaskGraph::new();
    let k = g.register_type("BOTH", true, true);
    let d = g.add_data(12_000_000, "big");
    g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t");
    let p = simple(1, 1);
    // Force the GPU by making it the only fast option under dmda.
    let mut s = DequeModelScheduler::new(DmVariant::Dm);
    let r = run(&g, &p, &table(), &mut s);
    assert!(
        (r.makespan - (10.0 + 1000.0 + 10.0)).abs() < 1e-6,
        "makespan {}",
        r.makespan
    );
    assert_eq!(r.stats.demand_bytes, 12_000_000);
}

#[test]
fn write_invalidation_forces_return_transfer() {
    // t0 (GPU) writes d; t1 (CPU-only) reads d: d must travel back.
    let mut stf = StfBuilder::new();
    let kg = stf.graph_mut().register_type("GPUW", false, true);
    let kc = stf.graph_mut().register_type("CPUR", true, false);
    let d = stf.graph_mut().add_data(12_000_000, "d");
    stf.submit(kg, vec![(d, AccessMode::Write)], 1.0, "t0");
    stf.submit(kc, vec![(d, AccessMode::Read)], 1.0, "t1");
    let g = stf.finish();
    let model = TableModel::builder()
        .set("GPUW", ArchClass::Gpu, TimeFn::Const(10.0))
        .set("CPUR", ArchClass::Cpu, TimeFn::Const(10.0))
        .build();
    let p = simple(1, 1);
    let r = run(&g, &p, &model, &mut FifoScheduler::new());
    // t0: 10 µs; transfer back: 10 + 1000 µs; t1: 10 µs.
    assert!(
        (r.makespan - (10.0 + 1010.0 + 10.0)).abs() < 1e-6,
        "makespan {}",
        r.makespan
    );
    let span1 = r
        .trace
        .tasks
        .iter()
        .find(|s| s.task == mp_dag::TaskId(1))
        .unwrap();
    assert!(span1.start >= 1020.0 - 1e-9);
}

#[test]
fn prefetch_and_pipelining_hide_transfers() {
    // Four independent GPU tasks, each reading a distinct 12 MB handle
    // (fetch ≈ 1010 µs, exec 2000 µs). Serial (no overlap) execution
    // would cost 4 × (1010 + 2000) ≈ 12040 µs. Both dmda (prefetch at
    // push) and fifo (engine-level GPU pipelining) must overlap transfers
    // with computation and land near 1010 + 4 × 2000 ≈ 9010 µs.
    let mut stf = StfBuilder::new();
    let k = stf.graph_mut().register_type("GPUPIPE", false, true);
    for i in 0..4 {
        let d = stf.graph_mut().add_data(12_000_000, format!("d{i}"));
        stf.submit(k, vec![(d, AccessMode::Read)], 1.0, format!("t{i}"));
    }
    let g = stf.finish();
    // GPU-only kernel: model-free fifo cannot misplace the tasks.
    let model = TableModel::builder()
        .set("GPUPIPE", ArchClass::Gpu, TimeFn::Const(2_000.0))
        .build();
    let p = simple(1, 1);
    let r_fifo = run(&g, &p, &model, &mut FifoScheduler::new());
    let r_dmda = run(
        &g,
        &p,
        &model,
        &mut DequeModelScheduler::new(DmVariant::Dmda),
    );
    assert!(r_dmda.stats.prefetch_bytes > 0, "dmda must prefetch");
    let serial = 4.0 * (1010.0 + 2000.0);
    for r in [&r_fifo, &r_dmda] {
        assert!(
            r.makespan < serial - 2000.0,
            "{} must overlap transfers: {} vs serial {}",
            r.scheduler,
            r.makespan,
            serial
        );
    }
    assert!(
        r_dmda.makespan <= r_fifo.makespan + 1.0,
        "prefetch at push is at least as good as pop-time pipelining"
    );
}

#[test]
fn bounded_gpu_memory_forces_writebacks_but_completes() {
    // GPU memory fits only ~2 of the 4 × 10 MB working sets.
    let mut stf = StfBuilder::new();
    let k = stf.graph_mut().register_type("GPUW", false, true);
    let model = TableModel::builder()
        .set("GPUW", ArchClass::Gpu, TimeFn::Const(50.0))
        .build();
    let handles: Vec<_> = (0..4)
        .map(|i| stf.graph_mut().add_data(10_000_000, format!("d{i}")))
        .collect();
    for (i, &d) in handles.iter().enumerate() {
        stf.submit(k, vec![(d, AccessMode::ReadWrite)], 1.0, format!("t{i}"));
    }
    let g = stf.finish();
    let p = mp_platform::presets::hetero_node(
        "small-vram",
        2,
        1.0,
        1,
        1.0,
        25_000_000,
        1,
        mp_platform::link::Link::pcie_gen3(),
    );
    let r = run(&g, &p, &model, &mut FifoScheduler::new());
    assert_eq!(r.stats.tasks, 4);
    assert!(
        r.stats.writeback_bytes > 0,
        "dirty evictions must write back"
    );
    assert!(r.trace.validate().is_ok());
}

#[test]
fn deterministic_under_noise() {
    let g = independent_tasks(20);
    let p = homogeneous(3);
    let cfg = SimConfig::seeded(42).with_noise(0.2);
    let m = table();
    let r1 = simulate(&g, &p, &m, &mut FifoScheduler::new(), cfg);
    let r2 = simulate(&g, &p, &m, &mut FifoScheduler::new(), cfg);
    assert_eq!(r1.makespan, r2.makespan);
    let r3 = simulate(
        &g,
        &p,
        &m,
        &mut FifoScheduler::new(),
        SimConfig::seeded(43).with_noise(0.2),
    );
    assert_ne!(r1.makespan, r3.makespan, "different seed, different noise");
}

/// A reproducible layered random DAG mixing CPU-only and accelerated
/// kernels with varied data sizes.
fn random_layered(seed: u64, layers: usize, width: usize) -> TaskGraph {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stf = StfBuilder::new();
    let kb = stf.graph_mut().register_type("BOTH", true, true);
    let kc = stf.graph_mut().register_type("CPU100", true, false);
    // Keep transfer/compute ratios realistic (tiles of dense kernels move
    // ~100 KiB per ~100 µs of work); pathological ratios are exercised by
    // the dedicated transfer tests above.
    let handles: Vec<_> = (0..width)
        .map(|i| {
            let size = rng.gen_range(16_384..262_144);
            stf.graph_mut().add_data(size, format!("d{i}"))
        })
        .collect();
    for l in 0..layers {
        for x in 0..width {
            let k = if rng.gen_bool(0.7) { kb } else { kc };
            let mut acc = vec![(handles[x], AccessMode::ReadWrite)];
            // A couple of random reads create cross-column dependencies.
            for _ in 0..rng.gen_range(0..3usize) {
                let other = handles[rng.gen_range(0..width)];
                if other != handles[x] {
                    acc.push((other, AccessMode::Read));
                }
            }
            stf.submit(k, acc, 1.0, format!("t{l}-{x}"));
        }
    }
    stf.finish()
}

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FifoScheduler::new()),
        Box::new(RandomScheduler::new(7)),
        Box::new(LwsScheduler::new()),
        Box::new(DequeModelScheduler::new(DmVariant::Dm)),
        Box::new(DequeModelScheduler::new(DmVariant::Dmda)),
        Box::new(DequeModelScheduler::new(DmVariant::Dmdas)),
        Box::new(HeteroPrioScheduler::new()),
        Box::new(MultiPrioScheduler::with_defaults()),
        Box::new(MultiPrioScheduler::new(
            multiprio::MultiPrioConfig::without_eviction(),
        )),
    ]
}

#[test]
fn every_scheduler_completes_valid_schedules() {
    let g = random_layered(11, 6, 8);
    let p = simple(3, 1);
    let m = table();
    let total_flops: f64 = g.stats().total_flops;
    // Work lower bound is weak here (const-time model); check trace
    // validity + completion + critical-path bound instead.
    let best_cost = |t: mp_dag::TaskId| {
        let est = mp_perfmodel::Estimator::new(&g, &p, &m);
        est.best_delta(t).expect("executable")
    };
    let cp = mp_dag::critical_path(&g, best_cost).length;
    for mut s in all_schedulers() {
        let r = run(&g, &p, &m, s.as_mut());
        assert_eq!(
            r.stats.tasks,
            g.task_count(),
            "{} completed all",
            r.scheduler
        );
        assert!(
            r.trace.validate().is_ok(),
            "{} produced a valid trace",
            r.scheduler
        );
        assert!(
            r.makespan >= cp - 1e-6,
            "{}'s makespan {} beats the critical path {} — impossible",
            r.scheduler,
            r.makespan,
            cp
        );
        assert_eq!(r.trace.tasks.len(), g.task_count());
        let _ = total_flops;
    }
}

#[test]
fn smarter_schedulers_beat_random_on_hetero_platform() {
    let g = random_layered(5, 8, 10);
    let p = simple(4, 1);
    let m = table();
    let r_rand = run(&g, &p, &m, &mut RandomScheduler::new(3));
    let r_multi = run(&g, &p, &m, &mut MultiPrioScheduler::with_defaults());
    let r_dmdas = run(&g, &p, &m, &mut DequeModelScheduler::new(DmVariant::Dmdas));
    assert!(
        r_multi.makespan <= r_rand.makespan * 1.05,
        "multiprio {} should not lose badly to random {}",
        r_multi.makespan,
        r_rand.makespan
    );
    assert!(
        r_dmdas.makespan <= r_rand.makespan * 1.05,
        "dmdas {} should not lose badly to random {}",
        r_dmdas.makespan,
        r_rand.makespan
    );
}

#[test]
fn multiprio_uses_gpu_heavily_for_accelerated_work() {
    // All tasks 10× faster on GPU: the GPU must end up busier than any CPU.
    let mut g = TaskGraph::new();
    let k = g.register_type("BOTH", true, true);
    for i in 0..40 {
        let d = g.add_data(1024, format!("d{i}"));
        g.add_task(k, vec![(d, AccessMode::ReadWrite)], 1.0, format!("t{i}"));
    }
    let p = simple(2, 1);
    let r = run(&g, &p, &table(), &mut MultiPrioScheduler::with_defaults());
    let gpu_w = p.workers_on_node(MemNodeId(1))[0];
    let count = |w| r.trace.tasks.iter().filter(|s| s.worker == w).count();
    let gpu_tasks = count(gpu_w);
    for &cw in p.workers_on_node(MemNodeId(0)) {
        // Work sharing lets CPUs absorb some tasks (pop condition), but
        // the 10× faster GPU must execute far more of them.
        assert!(
            gpu_tasks > 2 * count(cw),
            "gpu ran {gpu_tasks}, cpu {:?} ran {}",
            cw,
            count(cw)
        );
    }
}

#[test]
fn gpu_lookahead_overlaps_transfer_with_execution() {
    // Two independent GPU tasks, each with a 12 MB input (fetch ~1010 µs)
    // and 5000 µs of execution. With depth-2 pipelining, t1's fetch runs
    // during t0's execution: makespan ≈ 1010 + 2 × 5000 instead of
    // 2 × (1010 + 5000).
    let mut stf = StfBuilder::new();
    let k = stf.graph_mut().register_type("GPULOOK", false, true);
    for i in 0..2 {
        let d = stf.graph_mut().add_data(12_000_000, format!("d{i}"));
        stf.submit(k, vec![(d, AccessMode::Read)], 1.0, format!("t{i}"));
    }
    let g = stf.finish();
    let model = TableModel::builder()
        .set("GPULOOK", ArchClass::Gpu, TimeFn::Const(5_000.0))
        .build();
    let p = simple(1, 1);
    let r = run(&g, &p, &model, &mut FifoScheduler::new());
    let overlapped = 1010.0 + 2.0 * 5_000.0;
    assert!(
        (r.makespan - overlapped).abs() < 50.0,
        "expected ~{overlapped}, got {}",
        r.makespan
    );
}

#[test]
fn scheduler_view_is_noise_blind() {
    // With noise on, the load info a scheduler sees must be the model
    // estimate, not the realized end: run dm twice with wildly different
    // noise seeds — the *mapping* (who runs what) must be identical, only
    // the realized times differ.
    let g = independent_tasks(12);
    let p = homogeneous(3);
    let m = table();
    let assignment = |seed: u64| -> Vec<(u32, u32)> {
        let mut s = DequeModelScheduler::new(DmVariant::Dm);
        let r = simulate(&g, &p, &m, &mut s, SimConfig::seeded(seed).with_noise(0.3));
        let mut v: Vec<(u32, u32)> = r
            .trace
            .tasks
            .iter()
            .map(|t| (t.task.0, t.worker.0))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        assignment(1),
        assignment(999),
        "mapping must not depend on noise"
    );
}
