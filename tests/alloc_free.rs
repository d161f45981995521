//! Steady-state `pop` must not allocate, and MultiPrio's push-plan
//! misses allocate nothing per plan (DESIGN.md §6b).
//!
//! A counting global allocator is armed only while the calls under test
//! run. For `pop`, every scheduler gets one full warm-up replay (scratch
//! buffers, slabs and caches grow there), then a second replay over the
//! same graph during which any pop-path allocation fails the test. For
//! `push`, a fresh MultiPrio replays a graph whose every task brings a
//! new plan key, so every push misses the plan cache.
//!
//! `multiprio-reference` is deliberately excluded: it is the retained
//! pre-arena implementation whose allocation cost *is* the measured
//! baseline (see `crates/core/src/reference.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multiprio_suite::apps::random::{random_dag, random_model, RandomDagConfig};
use multiprio_suite::bench::{make_scheduler, SCHEDULER_NAMES};
use multiprio_suite::dag::TaskGraph;
use multiprio_suite::dag::TaskId;
use multiprio_suite::multiprio::MultiPrioScheduler;
use multiprio_suite::perfmodel::{Estimator, PerfModel};
use multiprio_suite::platform::presets::simple;
use multiprio_suite::platform::types::{MemNodeId, Platform, WorkerId};
use multiprio_suite::sched::api::{DataLocator, LoadInfo, SchedView, Scheduler};

struct CountingAlloc;

// Per thread, so the test functions (run on parallel threads) count
// only their own allocations. Const-initialized and drop-free, so the
// allocator can read them without allocating.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

fn arm(on: bool) {
    ARMED.with(|a| a.set(on));
}

/// Reset this thread's counter to zero, returning what it held.
fn take_allocs() -> u64 {
    ALLOCS.with(|n| n.replace(0))
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

/// All data lives in RAM; no replicas move (mirrors the replay driver).
struct RamLocator;

impl DataLocator for RamLocator {
    fn is_on(&self, _d: multiprio_suite::dag::DataId, m: MemNodeId) -> bool {
        m == MemNodeId(0)
    }

    fn holders(&self, _d: multiprio_suite::dag::DataId) -> Vec<MemNodeId> {
        vec![MemNodeId(0)]
    }
}

struct FreeLoad;

impl LoadInfo for FreeLoad {
    fn busy_until(&self, _w: WorkerId) -> f64 {
        0.0
    }
}

/// Which scheduler calls a replay arms the counting allocator around.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Nothing,
    Pops,
    Pushes,
}

/// Replay `graph` through `sched`, arming the counting allocator around
/// the calls `armed` names (and only there).
fn drive(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Scheduler,
    armed: Arm,
) {
    let n = graph.task_count();
    let nw = platform.worker_count();
    let loc = RamLocator;
    let load = FreeLoad;
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.preds(TaskId::from_index(i)).len())
        .collect();
    let view = SchedView {
        est: Estimator::new(graph, platform, model),
        loc: &loc,
        load: &load,
        now: 0.0,
    };
    let push = |sched: &mut dyn Scheduler, t: TaskId, releaser: Option<WorkerId>| {
        arm(armed == Arm::Pushes);
        sched.push(t, releaser, &view);
        arm(false);
    };
    for (i, &d) in indeg.iter().enumerate().take(n) {
        if d == 0 {
            push(sched, TaskId::from_index(i), None);
        }
    }
    let mut scheduled = 0usize;
    let mut w = 0usize;
    let mut idle_lap = 0usize;
    while scheduled < n {
        let wid = WorkerId::from_index(w);
        w = (w + 1) % nw;
        arm(armed == Arm::Pops);
        let popped = sched.pop(wid, &view);
        arm(false);
        match popped {
            Some(t) => {
                scheduled += 1;
                idle_lap = 0;
                for &s in graph.succs(t) {
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        push(sched, s, Some(wid));
                    }
                }
            }
            None => {
                idle_lap += 1;
                assert!(idle_lap <= nw, "'{}' deadlocked in replay", sched.name());
            }
        }
    }
}

/// All schedulers are checked in turn on this test's thread.
///
/// The gate applies to the default build only: with `--features obs`,
/// MultiPrio's decision-provenance ring records a window snapshot per
/// pop (DESIGN.md §8), which allocates by design. The determinism gate
/// in CI proves obs changes no scheduling decision; this test proves
/// the *off* build pays nothing.
#[test]
fn steady_state_pop_never_allocates() {
    if multiprio_suite::trace::obs::obs_enabled() {
        eprintln!("alloc-free gate skipped: built with --features obs");
        return;
    }
    let g = random_dag(RandomDagConfig {
        layers: 14,
        width: 12,
        seed: 7,
        ..Default::default()
    });
    let m = random_model();
    let p = simple(3, 1);
    for &name in SCHEDULER_NAMES
        .iter()
        .filter(|&&n| n != "multiprio-reference")
    {
        let mut s = make_scheduler(name);
        // Warm-up round: slabs, scratch buffers and caches size themselves.
        drive(&g, &p, &m, s.as_mut(), Arm::Nothing);
        // Steady state: the same scheduler instance replays the same DAG;
        // every pop must run entirely in preallocated memory.
        take_allocs();
        drive(&g, &p, &m, s.as_mut(), Arm::Pops);
        let allocs = take_allocs();
        assert_eq!(allocs, 0, "'{name}' allocated {allocs} times inside pop");
    }
}

/// A plan-cache miss writes its per-node gains and per-arch δ into the
/// scheduler's flat plan arrays, so pushes that all miss allocate only
/// when the plan arena, its key map, the slab or a heap outgrows its
/// capacity: O(log n) times over n pushes, not once or twice per plan.
/// Same obs exemption as the pop gate.
#[test]
fn cold_pushes_allocate_nothing_per_plan() {
    if multiprio_suite::trace::obs::obs_enabled() {
        eprintln!("alloc-free gate skipped: built with --features obs");
        return;
    }
    let g = random_dag(RandomDagConfig {
        layers: 32,
        width: 64,
        seed: 7,
        ..Default::default()
    });
    // Random flops make every task's (type, footprint, flops) plan key
    // new, so every push misses the plan cache.
    let keys: std::collections::HashSet<_> = g
        .tasks()
        .iter()
        .map(|t| (t.ttype, g.footprint(t.id), t.flops.to_bits()))
        .collect();
    assert_eq!(keys.len(), 2_048, "every task brings a new plan key");
    let m = random_model();
    let p = simple(3, 1);
    let mut s = MultiPrioScheduler::with_defaults();
    take_allocs();
    drive(&g, &p, &m, &mut s, Arm::Pushes);
    let allocs = take_allocs();
    assert!(
        allocs <= 128,
        "2,048 cold pushes allocated {allocs} times (at most 128 allowed)"
    );
}
