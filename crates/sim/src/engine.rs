//! The discrete-event engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mp_cache::{Lookup, ResultCache};
use mp_dag::graph::TaskGraph;
use mp_dag::ids::{DataId, TaskId};
use mp_dag::task::Task;
use mp_perfmodel::{Estimator, PerfModel};
use mp_platform::types::{MemNodeId, Platform, WorkerId};
use mp_sched::api::{LoadInfo, PrefetchReq, SchedEvent, SchedView, Scheduler};
use mp_trace::{
    AuditRecord, Counter, ObsCell, RuntimeEvent, RuntimeEventKind, SpanTable, TaskSpan, Trace,
    TransferKind, TransferSpan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::data::DataStore;
use crate::error::SimError;
use crate::result::{SimResult, SimStats};

/// What an event means when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvKind {
    /// Task `t` finishes executing on worker `w`.
    Finish,
    /// Task `t`'s retry backoff expires: hand it back to the scheduler.
    Retry,
}

/// Queue entry: task `t` / worker `w` at `time`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    w: WorkerId,
    t: TaskId,
    kind: EvKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-event scratch buffers, reused across the whole run so the
/// steady-state event loop allocates nothing per event (DESIGN.md §6b).
#[derive(Default)]
struct Scratch {
    /// Folded access list of the task being staged (one entry per handle).
    folded: Vec<(DataId, bool, bool)>,
    /// Handles missing on the target node, with their read flag.
    missing: Vec<(DataId, bool)>,
    /// Completion-side dedup of unpinned handles.
    seen: Vec<DataId>,
    /// Completion-side dedup of committed writes.
    written: Vec<DataId>,
    /// Drained prefetch requests.
    prefetches: Vec<PrefetchReq>,
}

/// Engine-side per-worker load (busy-until estimates for the schedulers).
struct Loads(Vec<f64>);

impl LoadInfo for Loads {
    fn busy_until(&self, w: WorkerId) -> f64 {
        self.0[w.index()]
    }
}

// -------------------------------------------------------------------
// Staging helpers (module-level so the error paths are unit-testable).
// -------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn run_prefetches(
    scheduler: &mut dyn Scheduler,
    store: &mut DataStore,
    platform: &Platform,
    cfg: &SimConfig,
    now: f64,
    trace: &mut Trace,
    stats: &mut SimStats,
    drained: &mut Vec<PrefetchReq>,
    obs: &ObsCell,
) {
    drained.clear();
    scheduler.drain_prefetches_into(drained);
    for &req in drained.iter() {
        if !cfg.enable_prefetch {
            obs.bump(Counter::PrefetchesCancelled);
            continue;
        }
        if store.replica(req.data, req.node).is_some() {
            obs.bump(Counter::PrefetchesCancelled);
            continue;
        }
        let size = store.size(req.data);
        // Prefetches may evict clean LRU replicas but never force
        // write-backs; when that is not enough, skip the request.
        if !make_room_clean_only(store, req.node, size, platform, stats) {
            obs.bump(Counter::PrefetchesCancelled);
            continue;
        }
        let Some((src, start, end)) = pick_source(store, platform, req.data, req.node, now) else {
            obs.bump(Counter::PrefetchesCancelled);
            continue;
        };
        obs.bump(Counter::PrefetchesIssued);
        store.set_link_busy(src, req.node, end);
        store.allocate(req.data, req.node, end, false);
        stats.prefetch_bytes += size;
        if cfg.record_trace {
            trace.transfers.push(TransferSpan {
                data: req.data,
                from: src,
                to: req.node,
                bytes: size,
                start,
                end,
                kind: TransferKind::Prefetch,
            });
        }
    }
}

/// Clean-only eviction for prefetch: true when the space is available.
fn make_room_clean_only(
    store: &mut DataStore,
    node: MemNodeId,
    needed: u64,
    platform: &Platform,
    stats: &mut SimStats,
) -> bool {
    let cap = match platform.mem_node(node).capacity {
        None => return true,
        Some(c) => c,
    };
    if needed > cap {
        return false;
    }
    loop {
        if store.used(node) + needed <= cap {
            return true;
        }
        // LRU among clean, unpinned replicas.
        let victim = (0..store.handle_count())
            .filter_map(|i| {
                let d = DataId::from_index(i);
                store
                    .replica(d, node)
                    .and_then(|r| (r.pins == 0 && !r.dirty).then_some((d, r.last_use)))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        match victim {
            Some((d, _)) => {
                store.drop_replica(d, node);
                stats.capacity_evictions += 1;
            }
            None => return false,
        }
    }
}

/// A task may list the same handle several times (e.g. a symmetric
/// kernel reading a tile twice); fold to one entry per handle with
/// merged modes so pins/allocations stay balanced.
fn fold_accesses_into(task: &Task, out: &mut Vec<(DataId, bool, bool)>) {
    out.clear();
    for a in &task.accesses {
        match out.iter_mut().find(|(d, _, _)| *d == a.data) {
            Some((_, r, w)) => {
                *r |= a.mode.reads();
                *w |= a.mode.writes();
            }
            None => out.push((a.data, a.mode.reads(), a.mode.writes())),
        }
    }
}

/// Best source replica for fetching `d` to `to`: minimize completion.
fn pick_source(
    store: &DataStore,
    platform: &Platform,
    d: DataId,
    to: MemNodeId,
    now: f64,
) -> Option<(MemNodeId, f64, f64)> {
    let size = store.size(d);
    store
        .holders_full(d)
        .iter()
        .filter(|(n, _)| *n != to)
        .map(|&(src, rep)| {
            let start = store.link_start(src, to, now).max(rep.valid_at);
            let end = start + platform.transfer_time(size, src, to);
            (src, start, end)
        })
        .min_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)))
}

/// Release every pin [`prepare_task`] has taken so far: the present
/// folded replicas plus the first `fetched` missing entries (those are
/// pinned right after their allocation). Called on every rejection or
/// deferral exit so pin counts stay balanced — a task rejected between
/// pin and unpin must not leak pins.
fn rollback_pins(store: &mut DataStore, scratch: &Scratch, m: MemNodeId, fetched: usize) {
    for &(d, _, _) in &scratch.folded {
        if scratch.missing.iter().all(|&(md, _)| md != d) {
            store.unpin(d, m);
        }
    }
    for &(d, _) in &scratch.missing[..fetched] {
        store.unpin(d, m);
    }
}

/// Stage task `t` for worker `w` at time `now`: reserve memory, pin
/// replicas and launch the input transfers. Returns the time at which
/// every input is resident (the earliest possible execution start).
///
/// With `best_effort`, an allocation failure (device memory full of
/// pinned working sets) rolls back the pins and returns `Ok(None)` — the
/// caller defers preparation to execution time, when the pipeline's
/// earlier tasks have unpinned their data. Without it, the same failure
/// is [`SimError::OutOfMemory`]. An incapable worker or a handle with no
/// replica anywhere is a typed error either way, with every pin taken so
/// far rolled back.
#[allow(clippy::too_many_arguments)]
fn prepare_task(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    store: &mut DataStore,
    cfg: &SimConfig,
    trace: &mut Trace,
    stats: &mut SimStats,
    scratch: &mut Scratch,
    w: WorkerId,
    t: TaskId,
    now: f64,
    best_effort: bool,
) -> Result<Option<f64>, SimError> {
    let worker = platform.worker(w);
    let m = worker.mem_node;
    let est = Estimator::new(graph, platform, model);
    if est.delta(t, worker.arch).is_none() {
        return Err(SimError::IncapableWorker { task: t, worker: w });
    }
    let task = graph.task(t);

    // Pin present replicas first so eviction cannot take them.
    fold_accesses_into(task, &mut scratch.folded);
    scratch.missing.clear();
    let mut needed_bytes = 0u64;
    let mut arrive = now;
    for &(d, reads, _) in &scratch.folded {
        match store.replica(d, m) {
            Some(rep) => {
                if reads {
                    arrive = arrive.max(rep.valid_at); // in-flight prefetch
                }
                store.pin(d, m);
                store.touch(d, m, now);
            }
            None => {
                needed_bytes += store.size(d);
                scratch.missing.push((d, reads));
            }
        }
    }

    // Reserve space (may trigger LRU eviction + dirty write-backs).
    let (space_ready, writebacks) = match store.try_make_room(m, needed_bytes, now, platform) {
        Ok(r) => r,
        Err((used, cap)) => {
            rollback_pins(store, scratch, m, 0);
            return if best_effort {
                Ok(None)
            } else {
                Err(SimError::OutOfMemory {
                    node: m,
                    used,
                    needed: needed_bytes,
                    capacity: cap,
                })
            };
        }
    };
    for (d, start, end) in writebacks {
        stats.writeback_bytes += store.size(d);
        stats.capacity_evictions += 1;
        if cfg.record_trace {
            trace.transfers.push(TransferSpan {
                data: d,
                from: m,
                to: platform.ram(),
                bytes: store.size(d),
                start,
                end,
                kind: TransferKind::WriteBack,
            });
        }
    }
    arrive = arrive.max(space_ready);

    // Fetch missing reads; allocate missing writes in place.
    for k in 0..scratch.missing.len() {
        let (d, is_read) = scratch.missing[k];
        if is_read {
            let Some((src, start, end)) = pick_source(store, platform, d, m, space_ready.max(now))
            else {
                rollback_pins(store, scratch, m, k);
                return Err(SimError::NoValidReplica {
                    data: d,
                    task: t,
                    node: m,
                });
            };
            store.set_link_busy(src, m, end);
            store.allocate(d, m, end, false);
            stats.demand_bytes += store.size(d);
            if cfg.record_trace {
                trace.transfers.push(TransferSpan {
                    data: d,
                    from: src,
                    to: m,
                    bytes: store.size(d),
                    start,
                    end,
                    kind: TransferKind::Demand,
                });
            }
            arrive = arrive.max(end);
        } else {
            // Write-only: contents materialize at task completion.
            store.allocate(d, m, f64::MAX, false);
        }
        store.pin(d, m);
    }

    Ok(Some(arrive))
}

/// Worker-failure recovery: the last worker of memory node `m` died, so
/// every replica it held is gone. Surviving copies elsewhere are
/// promoted to authoritative (the freshest one, re-marked dirty unless
/// it lives in RAM); a value whose *only* copy lived on `m` is
/// regenerated by re-executing its producing task chain, tracked through
/// `last_writer` and closed transitively over the producers' own lost
/// inputs. Returns the recompute seeds whose member-predecessors are all
/// intact — they go straight back to the scheduler; the rest are
/// released through `rindeg` as their producers recommit.
///
/// The node's workers all drained cleanly before dying, so nothing on
/// `m` is pinned when the replicas are dropped.
#[allow(clippy::too_many_arguments)]
fn recover_node(
    graph: &TaskGraph,
    store: &mut DataStore,
    m: MemNodeId,
    ram: MemNodeId,
    last_writer: &[Option<TaskId>],
    done: &mut [bool],
    popped: &mut [bool],
    recomputing: &mut [bool],
    rindeg: &mut [u32],
    completed: &mut usize,
    recompute_live: &mut usize,
    stats: &mut SimStats,
    obs: &ObsCell,
) -> Vec<TaskId> {
    let mut lost: Vec<DataId> = Vec::new();
    for i in 0..store.handle_count() {
        let d = DataId::from_index(i);
        let Some(rep) = store.replica(d, m) else {
            continue;
        };
        let (dirty, valid_at) = (rep.dirty, rep.valid_at);
        if valid_at == f64::MAX {
            // Write-only placeholder of a failed attempt: no value yet.
            store.drop_replica(d, m);
            continue;
        }
        let survivor = store
            .holders_full(d)
            .iter()
            .filter(|&&(n, r)| n != m && r.valid_at < f64::MAX)
            // A dirty victim is the authoritative value: only copies
            // fetched at/after it became valid carry that value.
            .filter(|&&(_, r)| !dirty || r.valid_at >= valid_at - 1e-9)
            .map(|&(n, r)| (n, r.valid_at))
            // Freshest copy; lowest node id breaks ties deterministically.
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        store.drop_replica(d, m);
        match survivor {
            Some((n, _)) if dirty => {
                if n == ram {
                    store.mark_clean(d, n);
                } else {
                    store.mark_dirty(d, n);
                }
                stats.replicas_promoted += 1;
                obs.bump(Counter::ReplicasPromoted);
            }
            // A clean copy lost: the value survives elsewhere as-is.
            Some(_) => {}
            None => lost.push(d),
        }
    }

    // Walk back through the producers of every lost value. A producer
    // whose own input is also gone pulls *its* producer in, until the
    // closure is grounded on values that still exist somewhere (the RAM
    // copies of graph inputs survive by construction).
    let mut stack: Vec<TaskId> = Vec::new();
    for &d in &lost {
        if let Some(p) = last_writer[d.index()] {
            stack.push(p);
        }
    }
    let mut members: Vec<TaskId> = Vec::new();
    while let Some(q) = stack.pop() {
        let qi = q.index();
        // Still running, or already queued for recompute: it will
        // (re)commit its outputs on its own.
        if !done[qi] || recomputing[qi] {
            continue;
        }
        recomputing[qi] = true;
        done[qi] = false;
        popped[qi] = false;
        *completed -= 1;
        *recompute_live += 1;
        stats.tasks_recomputed += 1;
        obs.bump(Counter::TasksRecomputed);
        members.push(q);
        for d in graph.task(q).reads() {
            let present = store
                .holders_full(d)
                .iter()
                .any(|&(_, r)| r.valid_at < f64::MAX);
            if present {
                continue;
            }
            // The value `q` consumed came from its closest predecessor
            // writer — NOT `last_writer[d]`, which for an in-place
            // read-write update is `q` itself (a self-loop that would
            // leave the input unregenerated), and for a since-overwritten
            // handle is a successor whose value `q` never saw.
            let producer = graph
                .preds(q)
                .iter()
                .copied()
                .filter(|&p| graph.task(p).writes().any(|x| x == d))
                .max();
            match producer {
                Some(p) => stack.push(p),
                // No predecessor writes it: `q` consumed the graph-input
                // value. The pristine host copy of every graph input
                // survives device failure by construction (device commits
                // shadow it, they cannot destroy it), so re-materialize
                // it in RAM for the re-execution to read.
                None => {
                    if store.replica(d, ram).is_none() {
                        let at = store.now;
                        store.allocate(d, ram, at, false);
                    }
                }
            }
        }
    }

    // Order the recompute by the graph: a member waits (via `rindeg`)
    // for its member predecessors; zero-indegree members re-enter the
    // scheduler immediately.
    for &q in &members {
        rindeg[q.index()] = graph
            .preds(q)
            .iter()
            .filter(|p| recomputing[p.index()])
            .count() as u32;
    }
    members.sort_unstable();
    members.retain(|&q| rindeg[q.index()] == 0);
    members
}

/// Post-run precedence validation: every task starts at or after all
/// its predecessors end, checked over every edge in O(tasks + edges).
/// A predecessor without a span is legal only when a result cache served
/// it (`cached`), in which case it completed (`done`) at or before the
/// instant it released its successor.
fn assert_precedence(trace: &Trace, graph: &TaskGraph, cached: bool, done: &[bool]) {
    let precedence = SpanTable::new(trace, graph).check_precedence();
    for &(_, p) in &precedence.unspanned {
        assert!(
            cached && done[p.index()],
            "predecessor {p:?} executed without a span"
        );
    }
    if let Some(v) = precedence.violations.first() {
        panic!(
            "{:?} started at {} before predecessor {:?} ended at {}",
            v.task, v.start, v.pred, v.pred_end
        );
    }
}

/// Run `graph` on `platform` under `scheduler`, returning the makespan,
/// trace and statistics. Deterministic for a fixed config.
///
/// Never panics on scheduler misbehavior: a contract violation (pop to
/// an incapable worker, double pop, deadlock) or an unsatisfiable memory
/// state stops the run with a typed [`SimError`] in
/// [`SimResult::error`], preserving the trace and statistics up to the
/// failure for diagnosis.
pub fn simulate(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    scheduler: &mut dyn Scheduler,
    cfg: SimConfig,
) -> SimResult {
    simulate_cached(graph, platform, model, scheduler, cfg, None)
}

/// [`simulate`] with an optional content-addressed result cache
/// (DESIGN.md §12). Tasks are probed when they become ready, *before*
/// entering the scheduler: a verified hit completes the task on the
/// spot in zero virtual time — its outputs are committed to host RAM
/// through the ordinary MSI machinery and its successors release (and
/// are probed) immediately — so hit tasks never touch the scheduler or
/// the performance model. A miss executes normally and populates the
/// cache at commit. With `cache == None` this is bit-identical to
/// [`simulate`] (enforced by the CI determinism gate).
pub fn simulate_cached(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    scheduler: &mut dyn Scheduler,
    cfg: SimConfig,
    cache: Option<&ResultCache>,
) -> SimResult {
    let n = graph.task_count();
    let nw = platform.worker_count();
    let mut store = DataStore::new(graph, platform);
    let mut loads = Loads(vec![0.0; nw]);
    let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.preds(TaskId::from_index(i)).len())
        .collect();
    let mut pushed_at: Vec<f64> = vec![0.0; n];
    let mut done: Vec<bool> = vec![false; n];
    // Tasks handed out by the scheduler so far: a second pop of the same
    // task is rejected as a typed error before it can corrupt state.
    let mut popped: Vec<bool> = vec![false; n];
    let mut completed = 0usize;
    // --- Fault-injection state (all dormant without a fault plan) ---
    let kills_on = cfg.faults.kills_any();
    let transients_on = cfg.faults.transient_fail_prob > 0.0;
    let mut alive: Vec<bool> = vec![true; nw];
    let mut done_by: Vec<u32> = vec![0; nw]; // committed tasks per worker
    let mut attempts: Vec<u32> = vec![0; n]; // failed attempts per task
    let mut recomputing: Vec<bool> = vec![false; n];
    let mut rindeg: Vec<u32> = vec![0; n]; // recompute-order indegree
    let mut recompute_live = 0usize;
    // Tasks popped but blocked on an input a recompute chain is still
    // regenerating. Held outside the scheduler (so the chain's own tasks
    // win every pop) and re-pushed whenever a write commits.
    let mut parked: Vec<TaskId> = Vec::new();
    // Committed producer of each handle's current value, for the
    // lineage walk-back when a node dies with the only copy.
    let mut last_writer: Vec<Option<TaskId>> = vec![None; store.handle_count()];
    let mut trace = Trace::new(nw);
    let mut stats = SimStats::default();
    let cache_evictions_at_start = cache.map_or(0, |rc| rc.evictions());
    let cache_persist_at_start = cache.map_or_else(Default::default, |rc| rc.persist_stats());
    // Cache-hit / invalidation instants for the Chrome timeline, and the
    // worklist driving hit cascades (a hit releases successors that may
    // hit in turn — iterative, no recursion).
    let mut cache_events: Vec<RuntimeEvent> = Vec::new();
    let mut cache_worklist: Vec<(TaskId, Option<WorkerId>)> = Vec::new();
    // Guards the seed loop against re-releasing a task a hit cascade
    // already released (a source's hit can zero later sources' indeg
    // before the loop reaches them).
    let mut released: Vec<bool> = vec![false; n];
    // First typed failure; stops dispatching and surfaces in the result.
    let mut failure: Option<SimError> = None;
    // Engine-side observability cell (no-op unless `--features obs`).
    let obs = ObsCell::new();
    // Engine-side audit records (event-time monotonicity); only written
    // under `--features audit`.
    let mut engine_audit: Vec<AuditRecord> = Vec::new();
    #[cfg(feature = "audit")]
    let mut last_event_time = 0.0f64;

    // Log-normal noise factor with E[x] ≈ 1.
    let noise = |rng: &mut StdRng| -> f64 {
        if cfg.noise_cv == 0.0 {
            return 1.0;
        }
        let sigma = cfg.noise_cv;
        // Box-Muller.
        let (u1, u2): (f64, f64) = (rng.gen::<f64>().max(1e-12), rng.gen());
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (sigma * z - sigma * sigma / 2.0).exp()
    };

    // ---------------------------------------------------------------
    // Main loop.
    //
    // StarPU's accelerator workers run a depth-2 pipeline: while a task
    // executes, the worker already pops its *next* task and stages that
    // task's input transfers, overlapping PCIe traffic with computation
    // (STARPU_CUDA_PIPELINE). We reproduce that for GPU-class workers:
    // `next_slot[w]` holds the staged task; it begins executing the
    // moment the current one finishes (or when its transfers land,
    // whichever is later). CPU workers on the RAM node pop only when
    // idle, as in StarPU.
    // ---------------------------------------------------------------

    /// Pipeline depth of accelerator workers (StarPU's CUDA default).
    const GPU_LOOKAHEAD: usize = 2;

    let mut starts: Vec<f64> = vec![0.0; n]; // exec start per task
    let mut running: Vec<bool> = vec![false; nw];
    let mut exec_end: Vec<f64> = vec![0.0; nw];
    // Staged lookahead tasks per worker: (task, inputs-ready time if the
    // prepare succeeded — None defers it to execution time, noise).
    let mut next_slot: Vec<VecDeque<(TaskId, Option<f64>, f64)>> = vec![VecDeque::new(); nw];
    // Reused per-event scratch (no steady-state allocation).
    let mut scratch = Scratch::default();
    let emits_prefetches = scheduler.emits_prefetches();
    // Rotating dispatch offset: removes the systematic low-id-first bias
    // (concurrently polling workers have no global order in reality).
    let mut rotation = 0usize;
    let gpu_class: Vec<bool> = (0..nw)
        .map(|wi| {
            let w = platform.worker(WorkerId::from_index(wi));
            platform.arch(w.arch).class == mp_platform::types::ArchClass::Gpu
        })
        .collect();

    macro_rules! view {
        ($now:expr) => {
            SchedView {
                est: Estimator::new(graph, platform, model),
                loc: &store,
                load: &loads,
                now: $now,
            }
        };
    }

    // Kill worker `wi`: the fault plan's threshold was reached and the
    // worker is idle with nothing staged (clean drain — a worker never
    // dies holding pins, so replica cleanup needs no pin surgery).
    macro_rules! kill_worker {
        ($wi:expr, $now:expr) => {{
            let (wi, now): (usize, f64) = ($wi, $now);
            let w = WorkerId::from_index(wi);
            alive[wi] = false;
            stats.worker_failures += 1;
            obs.bump(Counter::WorkerFailures);
            {
                let view = view!(now);
                scheduler.worker_disabled(w, &view);
            }
            // Device memory dies with its last worker; host RAM outlives
            // the compute threads pinned to it.
            let m = platform.worker(w).mem_node;
            let node_lost = m != platform.ram()
                && platform
                    .workers_on_node(m)
                    .iter()
                    .all(|x| !alive[x.index()]);
            if node_lost {
                let seeds = recover_node(
                    graph,
                    &mut store,
                    m,
                    platform.ram(),
                    &last_writer,
                    &mut done,
                    &mut popped,
                    &mut recomputing,
                    &mut rindeg,
                    &mut completed,
                    &mut recompute_live,
                    &mut stats,
                    &obs,
                );
                for &s in &seeds {
                    pushed_at[s.index()] = now;
                    let view = view!(now);
                    scheduler.push_retry(s, attempts[s.index()], &view);
                    obs.bump(Counter::Pushes);
                }
            }
            // Every unfinished task must keep a capable survivor, or the
            // run can never complete — fail it now, with the culprit.
            let est = Estimator::new(graph, platform, model);
            for i in 0..n {
                if done[i] {
                    continue;
                }
                let t = TaskId::from_index(i);
                let capable = (0..nw).any(|xi| {
                    alive[xi]
                        && est
                            .delta(t, platform.worker(WorkerId::from_index(xi)).arch)
                            .is_some()
                });
                if !capable {
                    failure = Some(SimError::NoCapableWorker { task: t });
                    break;
                }
            }
        }};
    }

    // Begin executing a prepared task on an idle worker.
    macro_rules! begin_exec {
        ($wi:expr, $t:expr, $arrive:expr, $nf:expr, $now:expr) => {{
            let (wi, t, arrive, nf, now): (usize, TaskId, f64, f64, f64) =
                ($wi, $t, $arrive, $nf, $now);
            let w = WorkerId::from_index(wi);
            let delta = Estimator::new(graph, platform, model)
                .delta(t, platform.worker(w).arch)
                .expect("validated in prepare_task");
            let start = now.max(arrive);
            let end = start + delta * nf;
            starts[t.index()] = start;
            running[wi] = true;
            exec_end[wi] = end;
            // Load estimate published to the schedulers: *model-estimated*
            // end (start + δ), not the realized noisy end — no scheduler
            // can know mid-execution how long a task will really take
            // (StarPU's dm family plans with expected durations too).
            let staged: f64 = next_slot[wi]
                .iter()
                .map(|&(st, _, _)| {
                    Estimator::new(graph, platform, model)
                        .delta(st, platform.worker(w).arch)
                        .expect("staged task validated")
                })
                .sum();
            loads.0[wi] = start + delta + staged;
            seq += 1;
            events.push(Reverse(Event {
                time: end,
                seq,
                w,
                t,
                kind: EvKind::Finish,
            }));
            {
                let view = view!(now);
                scheduler.feedback(&SchedEvent::TaskStarted { t, w }, &view);
            }
        }};
    }

    // Vet a pop decision: typed rejection of contract violations (double
    // pop, incapable worker) instead of downstream panics. On success
    // the task is marked handed-out.
    macro_rules! vet_pop {
        ($t:expr, $w:expr, $now:expr) => {{
            let (t, w, now): (TaskId, WorkerId, f64) = ($t, $w, $now);
            if popped[t.index()] {
                Some(SimError::DoubleExecution { task: t })
            } else {
                let verdict = {
                    let view = view!(now);
                    view.validate_assignment(t, w)
                };
                match verdict {
                    Ok(()) => {
                        popped[t.index()] = true;
                        None
                    }
                    Err(e) => Some(SimError::IncapableWorker {
                        task: e.task,
                        worker: e.worker,
                    }),
                }
            }
        }};
    }

    macro_rules! dispatch {
        ($now:expr) => {{
            let now: f64 = $now;
            store.now = now;
            'dispatch: loop {
                let mut progress = false;
                rotation = (rotation + 1) % nw.max(1);
                // Pass 1: idle workers (they need work immediately).
                for k in 0..nw {
                    let wi = (k + rotation) % nw;
                    let w = WorkerId::from_index(wi);
                    if running[wi] {
                        continue;
                    }
                    if kills_on {
                        if !alive[wi] {
                            continue;
                        }
                        // Idle, nothing staged, threshold reached: die
                        // before popping any more work.
                        if next_slot[wi].is_empty()
                            && cfg.faults.kill_after(wi).is_some_and(|k| done_by[wi] >= k)
                        {
                            kill_worker!(wi, now);
                            if failure.is_some() {
                                break 'dispatch;
                            }
                            // The death re-bucketed the scheduler and may
                            // have re-pushed recompute seeds: workers
                            // already polled this round must poll again.
                            progress = true;
                            continue;
                        }
                    }
                    // Drain a staged task first, then pop fresh.
                    if let Some((t, arrive_opt, nf)) = next_slot[wi].pop_front() {
                        let arrive = match arrive_opt {
                            Some(a) => a,
                            // Deferred prepare: earlier pipeline tasks
                            // have unpinned their data by now.
                            None => match prepare_task(
                                graph,
                                platform,
                                model,
                                &mut store,
                                &cfg,
                                &mut trace,
                                &mut stats,
                                &mut scratch,
                                w,
                                t,
                                now,
                                false,
                            ) {
                                Ok(a) => a.expect("strict prepare never defers"),
                                Err(SimError::NoValidReplica { .. }) if recompute_live > 0 => {
                                    // A lost input is being regenerated:
                                    // park the task engine-side — NOT
                                    // back into the scheduler, which
                                    // could hand it straight back to
                                    // every idle worker and stall the
                                    // regenerating chain forever — and
                                    // release it at the next commit.
                                    popped[t.index()] = false;
                                    parked.push(t);
                                    continue;
                                }
                                Err(e) => {
                                    failure = Some(e);
                                    break 'dispatch;
                                }
                            },
                        };
                        begin_exec!(wi, t, arrive, nf, now);
                        progress = true;
                        continue;
                    }
                    let fresh = {
                        let view = view!(now);
                        scheduler.pop(w, &view)
                    };
                    match fresh {
                        Some(t) => {
                            if let Some(e) = vet_pop!(t, w, now) {
                                failure = Some(e);
                                break 'dispatch;
                            }
                            obs.bump(Counter::Pops);
                            let arrive = match prepare_task(
                                graph,
                                platform,
                                model,
                                &mut store,
                                &cfg,
                                &mut trace,
                                &mut stats,
                                &mut scratch,
                                w,
                                t,
                                now,
                                false,
                            ) {
                                Ok(a) => a.expect("strict prepare never defers"),
                                Err(SimError::NoValidReplica { .. }) if recompute_live > 0 => {
                                    popped[t.index()] = false;
                                    parked.push(t);
                                    continue;
                                }
                                Err(e) => {
                                    failure = Some(e);
                                    break 'dispatch;
                                }
                            };
                            let nf = noise(&mut rng);
                            begin_exec!(wi, t, arrive, nf, now);
                            progress = true;
                        }
                        None => stats.empty_pops += 1,
                    }
                }
                // Pass 2: busy GPU-class workers stage lookahead tasks so
                // the next input transfers overlap the current execution.
                for k in 0..nw {
                    let wi = (k + rotation) % nw;
                    let w = WorkerId::from_index(wi);
                    if !running[wi] || !gpu_class[wi] || next_slot[wi].len() >= GPU_LOOKAHEAD {
                        continue;
                    }
                    // Never stage more work onto a worker past its kill
                    // threshold: the pipeline would otherwise keep it
                    // perpetually busy and the kill would never fire.
                    if kills_on
                        && (!alive[wi]
                            || cfg.faults.kill_after(wi).is_some_and(|k| done_by[wi] >= k))
                    {
                        continue;
                    }
                    let fresh = {
                        let view = view!(now);
                        scheduler.pop(w, &view)
                    };
                    match fresh {
                        Some(t) => {
                            if let Some(e) = vet_pop!(t, w, now) {
                                failure = Some(e);
                                break 'dispatch;
                            }
                            obs.bump(Counter::Pops);
                            let arrive = match prepare_task(
                                graph,
                                platform,
                                model,
                                &mut store,
                                &cfg,
                                &mut trace,
                                &mut stats,
                                &mut scratch,
                                w,
                                t,
                                now,
                                true,
                            ) {
                                Ok(a) => a,
                                Err(SimError::NoValidReplica { .. }) if recompute_live > 0 => {
                                    popped[t.index()] = false;
                                    parked.push(t);
                                    continue;
                                }
                                Err(e) => {
                                    failure = Some(e);
                                    break 'dispatch;
                                }
                            };
                            let nf = noise(&mut rng);
                            next_slot[wi].push_back((t, arrive, nf));
                            // Publish queued work so push-time mappers see it.
                            let delta_est = Estimator::new(graph, platform, model)
                                .delta(t, platform.worker(w).arch)
                                .expect("validated in prepare_task");
                            loads.0[wi] += delta_est;
                            progress = true;
                        }
                        None => stats.empty_pops += 1,
                    }
                }
                if !progress {
                    break;
                }
            }
        }};
    }

    // Hand a newly-ready task to the scheduler — unless the result
    // cache already holds a verified entry for it, in which case the
    // task completes on the spot: outputs commit to host RAM at `now`
    // (zero virtual cost), successors release immediately and are
    // probed in turn via the worklist. Cache-off expands to exactly the
    // pre-cache push path (one worklist item, popped immediately), so
    // schedules are bit-identical.
    macro_rules! push_ready {
        ($t:expr, $from:expr, $now:expr) => {{
            let (t0, from0, now): (TaskId, Option<WorkerId>, f64) = ($t, $from, $now);
            cache_worklist.push((t0, from0));
            while let Some((t, from)) = cache_worklist.pop() {
                released[t.index()] = true;
                let mut hit = None;
                if let Some(rc) = cache {
                    match graph.cache_meta(t).map(|m| (m, rc.lookup(m, false))) {
                        Some((_, Lookup::Hit(e))) => hit = Some(e),
                        Some((_, Lookup::Invalidated)) => {
                            stats.cache_invalidations += 1;
                            stats.cache_misses += 1;
                            obs.bump(Counter::CacheInvalidations);
                            obs.bump(Counter::CacheMisses);
                            if cfg.record_trace {
                                cache_events.push(RuntimeEvent {
                                    worker: 0,
                                    at: now,
                                    kind: RuntimeEventKind::CacheInvalidated,
                                });
                            }
                        }
                        _ => {
                            // No entry — or no metadata at all (bare
                            // `add_task` graphs can never hit).
                            stats.cache_misses += 1;
                            obs.bump(Counter::CacheMisses);
                        }
                    }
                }
                match hit {
                    Some(_entry) => {
                        let task = graph.task(t);
                        let ram = platform.ram();
                        let mut bytes = 0u64;
                        scratch.written.clear();
                        for d in task.writes() {
                            if scratch.written.contains(&d) {
                                continue;
                            }
                            scratch.written.push(d);
                            // Materialize the output where it was born:
                            // the home RAM node (never evicted, survives
                            // device deaths). Same commit the executing
                            // path uses, so MSI invariants hold.
                            if store.replica(d, ram).is_none() {
                                store.allocate(d, ram, now, false);
                            }
                            store.commit_write(d, ram, now);
                            last_writer[d.index()] = Some(t);
                            bytes += store.size(d);
                        }
                        done[t.index()] = true;
                        completed += 1;
                        stats.cache_hits += 1;
                        stats.bytes_materialized += bytes;
                        obs.bump(Counter::CacheHits);
                        obs.add(Counter::BytesMaterialized, bytes);
                        if cfg.record_trace {
                            cache_events.push(RuntimeEvent {
                                worker: 0,
                                at: now,
                                kind: RuntimeEventKind::CacheHit,
                            });
                        }
                        for &s in graph.succs(t) {
                            indeg[s.index()] -= 1;
                            if indeg[s.index()] == 0 {
                                cache_worklist.push((s, None));
                            }
                        }
                    }
                    None => {
                        pushed_at[t.index()] = now;
                        let view = view!(now);
                        scheduler.push(t, from, &view);
                        obs.bump(Counter::Pushes);
                    }
                }
            }
        }};
    }

    // Initially-ready tasks, in submission order. A hit cascade can
    // zero the indegree of (and release) tasks the loop has not reached
    // yet — the `released` guard keeps each task released exactly once.
    {
        store.now = 0.0;
        for i in 0..n {
            if indeg[i] == 0 && !released[i] {
                let t = TaskId::from_index(i);
                push_ready!(t, None, 0.0);
            }
        }
        if emits_prefetches {
            run_prefetches(
                scheduler,
                &mut store,
                platform,
                &cfg,
                0.0,
                &mut trace,
                &mut stats,
                &mut scratch.prefetches,
                &obs,
            );
        }
    }
    dispatch!(0.0);

    while failure.is_none() {
        let Some(Reverse(ev)) = events.pop() else {
            break;
        };
        let now = ev.time;
        #[cfg(feature = "audit")]
        {
            use mp_trace::AuditKind;
            if now < last_event_time - 1e-9 {
                engine_audit.push(AuditRecord::new(
                    now,
                    AuditKind::EventTimeRegression,
                    format!("event at {now} after {last_event_time}"),
                ));
            }
            last_event_time = last_event_time.max(now);
        }
        store.now = now;
        let t = ev.t;
        let w = ev.w;
        if ev.kind == EvKind::Retry {
            // Backoff expired: the failed task re-enters the scheduler.
            pushed_at[t.index()] = now;
            {
                let view = view!(now);
                scheduler.push_retry(t, attempts[t.index()], &view);
            }
            obs.bump(Counter::Pushes);
            dispatch!(now);
            continue;
        }
        running[w.index()] = false;
        let worker = platform.worker(w);
        let m = worker.mem_node;
        let task = graph.task(t);

        // Transient-failure injection: the attempt produced nothing.
        // Release the input pins, commit no write, record no span; the
        // write-only placeholders stay allocated for the retry.
        if transients_on && cfg.faults.transient_fails(t.index(), attempts[t.index()]) {
            scratch.seen.clear();
            for a in &task.accesses {
                if scratch.seen.contains(&a.data) {
                    continue;
                }
                scratch.seen.push(a.data);
                store.unpin(a.data, m);
            }
            attempts[t.index()] += 1;
            if attempts[t.index()] >= cfg.retry.max_attempts {
                failure = Some(SimError::RetryExhausted {
                    task: t,
                    attempts: attempts[t.index()],
                });
                break;
            }
            stats.tasks_retried += 1;
            obs.bump(Counter::TasksRetried);
            popped[t.index()] = false;
            seq += 1;
            events.push(Reverse(Event {
                time: now + cfg.retry.backoff_for(attempts[t.index()]),
                seq,
                w,
                t,
                kind: EvKind::Retry,
            }));
            dispatch!(now);
            continue;
        }

        // Close out the execution (same folded view as start_task).
        {
            scratch.seen.clear();
            for a in &task.accesses {
                if scratch.seen.contains(&a.data) {
                    continue;
                }
                scratch.seen.push(a.data);
                store.unpin(a.data, m);
                store.touch(a.data, m, now);
            }
            scratch.written.clear();
            for d in task.writes() {
                if !scratch.written.contains(&d) {
                    scratch.written.push(d);
                    store.commit_write(d, m, now);
                    last_writer[d.index()] = Some(t);
                }
            }
        }
        // Populate the result cache (payload-less: virtual time has no
        // bytes — the threaded runtime stores real buffers).
        if let Some(rc) = cache {
            if let Some(meta) = graph.cache_meta(t) {
                let bytes = scratch.written.iter().map(|&d| store.size(d)).sum();
                rc.insert(meta, None, bytes);
            }
        }
        assert!(!done[t.index()], "task {t:?} finished twice");
        done[t.index()] = true;
        completed += 1;
        done_by[w.index()] += 1;
        if cfg.record_trace {
            trace.tasks.push(TaskSpan {
                task: t,
                ttype: task.ttype,
                worker: w,
                ready_at: pushed_at[t.index()],
                start: starts[t.index()],
                end: now,
            });
        }
        if cfg.feedback_to_model {
            let est = Estimator::new(graph, platform, model);
            est.record(t, worker.arch, now - starts[t.index()]);
        }
        {
            let view = view!(now);
            scheduler.feedback(
                &SchedEvent::TaskFinished {
                    t,
                    w,
                    elapsed_us: now - starts[t.index()],
                },
                &view,
            );
        }

        // Release successors: indegree decrements publish newly-ready
        // tasks straight into the scheduler — no intermediate collection,
        // no rescan of the frontier. A *recomputed* task instead releases
        // through the recompute indegree: the graph indegrees were
        // already consumed by the original execution, and decrementing
        // them again would underflow.
        if recomputing[t.index()] {
            recomputing[t.index()] = false;
            recompute_live -= 1;
            for &s in graph.succs(t) {
                if recomputing[s.index()] && rindeg[s.index()] > 0 {
                    rindeg[s.index()] -= 1;
                    if rindeg[s.index()] == 0 {
                        pushed_at[s.index()] = now;
                        let view = view!(now);
                        scheduler.push_retry(s, attempts[s.index()], &view);
                        obs.bump(Counter::Pushes);
                    }
                }
            }
        } else {
            for &s in graph.succs(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    push_ready!(s, Some(w), now);
                }
            }
        }
        // A write just committed: tasks parked on a lost input may now
        // find it (or discover the next missing one and re-park).
        if !parked.is_empty() {
            for &p in &parked {
                pushed_at[p.index()] = now;
                let view = view!(now);
                scheduler.push_retry(p, attempts[p.index()], &view);
                obs.bump(Counter::Pushes);
            }
            parked.clear();
        }
        if emits_prefetches {
            run_prefetches(
                scheduler,
                &mut store,
                platform,
                &cfg,
                now,
                &mut trace,
                &mut stats,
                &mut scratch.prefetches,
                &obs,
            );
        }

        dispatch!(now);
    }

    if failure.is_none() && completed != n {
        // Detail the first few stuck tasks with their unmet dependencies
        // so the report distinguishes "the graph never released it" from
        // "the scheduler is sitting on a ready task".
        let mut stuck: Vec<(TaskId, Vec<TaskId>)> = Vec::new();
        for i in 0..n {
            if done[i] {
                continue;
            }
            if stuck.len() >= SimError::DEADLOCK_DETAIL_CAP {
                break;
            }
            let t = TaskId::from_index(i);
            let unmet: Vec<TaskId> = graph
                .preds(t)
                .iter()
                .copied()
                .filter(|p| !done[p.index()])
                .take(SimError::DEADLOCK_DETAIL_CAP)
                .collect();
            stuck.push((t, unmet));
        }
        failure = Some(SimError::Deadlock {
            completed,
            total: n,
            pending: scheduler.pending(),
            stuck,
        });
    }
    stats.tasks = completed;

    let makespan = exec_end.iter().copied().fold(0.0f64, f64::max);
    if failure.is_none() {
        // Pin balance at quiesce: every pin taken while staging must have
        // been released by a completion or an error rollback.
        debug_assert!(
            store.leaked_pins().is_empty(),
            "pin leak at quiesce: {:?}",
            store.leaked_pins()
        );
        #[cfg(feature = "audit")]
        store.audit_quiesce();
        if cfg.validate && cfg.record_trace {
            trace.validate().expect("trace validation failed");
            assert_precedence(&trace, graph, cache.is_some(), &done);
        }
    }

    let mut audit = store.take_audit();
    audit.append(&mut engine_audit);

    // Capacity evictions happen inside the shared cache (it can be
    // shared across runs), so this run's share is the delta over its
    // lifetime counter.
    if let Some(rc) = cache {
        stats.cache_evictions = rc.evictions() - cache_evictions_at_start;
    }

    // Quiesce-time counter aggregation: the engine-side cell (pops,
    // pushes, prefetch fates) merged with whatever the policy reports
    // (holds, evictions, arena hits, heap compactions, shard steals).
    let mut counters = scheduler.counters();
    obs.drain_into(&mut counters);
    counters.cache_evictions += stats.cache_evictions;
    if let Some(rc) = cache {
        let ps = rc.persist_stats();
        counters.cache_persist_writes += ps.writes - cache_persist_at_start.writes;
        counters.cache_loaded += ps.loaded - cache_persist_at_start.loaded;
        counters.cache_load_rejects += ps.load_rejects - cache_persist_at_start.load_rejects;
        counters.cache_compactions += ps.compactions - cache_persist_at_start.compactions;
    }

    SimResult {
        scheduler: scheduler.name().to_string(),
        makespan,
        trace,
        stats,
        error: failure,
        audit,
        counters,
        cache_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dag::access::AccessMode;
    use mp_perfmodel::{TableModel, TimeFn};
    use mp_platform::presets::simple;
    use mp_platform::types::ArchClass;

    fn fixture() -> (TaskGraph, Platform, TableModel) {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(64, "d");
        g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t");
        let p = simple(1, 1);
        let m = TableModel::builder()
            .set("K", ArchClass::Cpu, TimeFn::Const(10.0))
            .set("K", ArchClass::Gpu, TimeFn::Const(5.0))
            .build();
        (g, p, m)
    }

    /// The fixture's task and a dependent one, as spans: the first ends
    /// at 10, the dependent starts at `s1`.
    fn chain_trace(s1: f64) -> (TaskGraph, Trace) {
        let (mut g, p, _) = fixture();
        let k = g.type_id("K").unwrap();
        let t1 = g.add_task(k, vec![(DataId(0), AccessMode::Read)], 1.0, "t1");
        g.add_edge(TaskId(0), t1);
        let mut trace = Trace::new(p.worker_count());
        for (t, start, end) in [(TaskId(0), 0.0, 10.0), (t1, s1, s1 + 1.0)] {
            trace.tasks.push(TaskSpan {
                task: t,
                ttype: k,
                worker: WorkerId(0),
                ready_at: start,
                start,
                end,
            });
        }
        (g, trace)
    }

    #[test]
    fn precedence_validation_accepts_an_ordered_trace() {
        let (g, trace) = chain_trace(10.0);
        assert_precedence(&trace, &g, false, &[true, true]);
    }

    #[test]
    #[should_panic(expected = "t1 started at 9 before predecessor t0 ended at 10")]
    fn precedence_validation_panics_on_an_early_start() {
        let (g, trace) = chain_trace(9.0);
        assert_precedence(&trace, &g, false, &[true, true]);
    }

    #[test]
    fn precedence_validation_exempts_cache_served_predecessors() {
        let (g, mut trace) = chain_trace(10.0);
        trace.tasks.remove(0);
        assert_precedence(&trace, &g, true, &[true, true]);
    }

    #[test]
    #[should_panic(expected = "predecessor t0 executed without a span")]
    fn precedence_validation_panics_on_a_spanless_predecessor_without_a_cache() {
        let (g, mut trace) = chain_trace(10.0);
        trace.tasks.remove(0);
        assert_precedence(&trace, &g, false, &[true, true]);
    }

    /// An orphaned handle (no replica anywhere) surfaces as a typed
    /// `NoValidReplica`, and the rejected staging attempt leaks no pins.
    #[test]
    fn stage_without_any_replica_is_typed_error() {
        let (g, p, m) = fixture();
        let d = DataId(0);
        let t = TaskId(0);
        let mut store = DataStore::new(&g, &p);
        store.drop_replica(d, p.ram());
        let mut scratch = Scratch::default();
        let mut trace = Trace::new(p.worker_count());
        let mut stats = SimStats::default();
        let cfg = SimConfig::default();
        // Worker 1 is the GPU in `simple(1, 1)`: the read must be
        // fetched, but no node holds the handle.
        let err = prepare_task(
            &g,
            &p,
            &m,
            &mut store,
            &cfg,
            &mut trace,
            &mut stats,
            &mut scratch,
            WorkerId(1),
            t,
            0.0,
            false,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::NoValidReplica {
                data: d,
                task: t,
                node: MemNodeId(1),
            }
        );
        assert!(
            store.leaked_pins().is_empty(),
            "error path rolled pins back"
        );
    }

    /// A task without an implementation for the worker's arch is a typed
    /// `IncapableWorker` (the old panic path at the top of staging).
    #[test]
    fn stage_on_incapable_worker_is_typed_error() {
        let mut g = TaskGraph::new();
        let k = g.register_type("CPUONLY", true, false);
        let d = g.add_data(64, "d");
        let t = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t");
        let p = simple(1, 1);
        let m = TableModel::builder()
            .set("CPUONLY", ArchClass::Cpu, TimeFn::Const(10.0))
            .build();
        let mut store = DataStore::new(&g, &p);
        let mut scratch = Scratch::default();
        let mut trace = Trace::new(p.worker_count());
        let mut stats = SimStats::default();
        let err = prepare_task(
            &g,
            &p,
            &m,
            &mut store,
            &cfg_default(),
            &mut trace,
            &mut stats,
            &mut scratch,
            WorkerId(1), // the GPU worker
            t,
            0.0,
            false,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SimError::IncapableWorker {
                task: t,
                worker: WorkerId(1),
            }
        );
        assert!(store.leaked_pins().is_empty());
    }

    fn cfg_default() -> SimConfig {
        SimConfig::default()
    }
}
