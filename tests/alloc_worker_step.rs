//! The threaded worker loop allocates nothing per task (DESIGN.md §6a).
//!
//! Workers run on their own threads, so this binary installs a
//! process-wide counting allocator and arms it around one whole
//! `Runtime::run`: the second run of a mirrored random DAG on the same
//! `Runtime`, after a warm-up run. Doubling the DAG from 1,024 to 2,048
//! tasks may then add only the logarithmic growth of the per-run vectors,
//! not an allocation per task — once without a result cache, and once
//! with a cache the warm-up populated, so the counted run is all hits.
//!
//! Every case runs inside the one `#[test]`, because the counter is
//! shared by the whole process. Like the other allocation gates, it
//! applies to the default build only: `--features obs` records events by
//! design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use multiprio_suite::apps::random::{random_dag, RandomDagConfig};
use multiprio_suite::audit::mirror_graph_computing;
use multiprio_suite::bench::make_scheduler;
use multiprio_suite::cache::ResultCache;
use multiprio_suite::perfmodel::{TableModel, TimeFn};
use multiprio_suite::platform::presets::simple;
use multiprio_suite::platform::types::ArchClass;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_alloc() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of the second `prio` run of an 8-layer, `width`-wide
/// mirrored random DAG on `simple(1, 1)`, with a result cache or without.
fn counted_run(width: usize, cached: bool) -> u64 {
    let graph = random_dag(RandomDagConfig {
        layers: 8,
        width,
        gpu_fraction: 1.0,
        data_min: 64,
        data_max: 256,
        seed: 7,
        ..Default::default()
    });
    let per_byte = TimeFn::PerByte {
        overhead_us: 0.2,
        us_per_kib: 0.4,
    };
    let model = TableModel::builder()
        .set("RBOTH", ArchClass::Cpu, per_byte)
        .set("RBOTH", ArchClass::Gpu, per_byte)
        .build();
    let (mut rt, mismatches) = mirror_graph_computing(&graph, &simple(1, 1), Arc::new(model));
    assert!(mismatches.is_empty(), "{mismatches:?}");
    if cached {
        rt.set_cache(Arc::new(ResultCache::new()));
    }
    let warm_up = rt.run(make_scheduler("prio")).expect("warm-up run");
    assert!(warm_up.is_complete(), "{:?}", warm_up.error);
    let scheduler = make_scheduler("prio");
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let report = rt.run(scheduler);
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let report = report.expect("counted run");
    assert!(report.is_complete(), "{:?}", report.error);
    let n = graph.task_count();
    let executed = if cached { 0 } else { n };
    assert_eq!(
        report.trace.tasks.len(),
        executed,
        "a cached counted run is all hits, an uncached one executes every task"
    );
    // A closed run reports the stream's counts too, and decides nothing.
    assert_eq!((report.tasks_admitted, report.tasks_completed), (n, n));
    let hits = (n - executed) as u64;
    assert_eq!((report.cache_hits, report.cache_misses), (hits, 0));
    assert!(report.admitted.is_empty() && report.rejections.is_empty());
    allocs
}

#[test]
fn worker_step_allocates_nothing_per_task() {
    if multiprio_suite::trace::obs::obs_enabled() {
        eprintln!("worker-step allocation gate skipped: built with --features obs");
        return;
    }
    for cached in [false, true] {
        let small = counted_run(128, cached);
        let large = counted_run(256, cached);
        let label = if cached { "all-hit" } else { "uncached" };
        eprintln!("{label}: {small} allocations at 1,024 tasks, {large} at 2,048");
        assert!(
            large <= small + 32,
            "{label} run: doubling to 2,048 tasks added {} allocations \
             ({small} -> {large}); at most 32 allowed",
            large.saturating_sub(small)
        );
    }
}
