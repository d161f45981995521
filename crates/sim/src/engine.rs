//! The discrete-event engine: the one virtual-time loop behind
//! [`simulate`] (a closed graph) and [`crate::serve_sim`] (an open-loop
//! stream whose graph grows while it runs).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mp_cache::{CacheMark, Lookup, ResultCache};
use mp_dag::graph::TaskGraph;
use mp_dag::ids::{DataId, TaskId};
use mp_dag::stf::StfBuilder;
use mp_dag::task::Task;
use mp_perfmodel::{Estimator, PerfModel};
use mp_platform::types::{MemNodeId, Platform, WorkerId};
use mp_sched::api::{LoadInfo, PrefetchReq, SchedEvent, SchedView, Scheduler};
use mp_trace::{
    AuditRecord, Counter, EdgeViolation, ObsCell, RuntimeEvent, RuntimeEventKind, SpanTable,
    TaskSpan, Trace, TransferKind, TransferSpan,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::data::DataStore;
use crate::error::SimError;
use crate::result::{SimResult, SimStats};
use crate::serve::Stream;

/// What an event means when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvKind {
    /// Submission `k` arrives: link what it adds to the graph.
    Arrival(usize),
    /// Task `t` finishes executing on worker `w`.
    Finish { w: WorkerId, t: TaskId },
    /// Task `t`'s retry backoff expires: hand it back to the scheduler.
    Retry { t: TaskId },
}

/// Queue entry: `kind` fires at `time`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
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

/// A set of workers, one bit each by index.
struct WorkerSet(Vec<u64>);

impl WorkerSet {
    /// Every worker of `0..n`.
    fn full(n: usize) -> Self {
        let mut set = Self(vec![0; n.div_ceil(64)]);
        (0..n).for_each(|i| set.insert(i));
        set
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// The lowest member of `from..end`.
    fn first_in(&self, from: usize, end: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.0.get(word)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                return (i < end).then_some(i);
            }
            word += 1;
            if word * 64 >= end {
                return None;
            }
            bits = self.0[word];
        }
    }
}

/// A lookahead task staged on a GPU-class worker.
#[derive(Clone, Copy, Debug)]
struct Staged {
    t: TaskId,
    /// When its inputs are resident; `None` when the prepare was
    /// deferred to execution time.
    arrive: Option<f64>,
    /// Noise factor drawn when it was staged.
    nf: f64,
    /// δ on the worker, as the pop's vetting read it: nothing in a run
    /// feeds the model, so it cannot change before the task starts.
    delta: f64,
}

// -------------------------------------------------------------------
// Staging helpers (module-level so the error paths are unit-testable).
// -------------------------------------------------------------------

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
        .filter(|&(n, _)| n != to)
        .map(|(src, rep)| {
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
/// is [`SimError::OutOfMemory`]. A handle with no replica anywhere is a
/// typed error either way, with every pin taken so far rolled back.
///
/// Every task that reaches staging was vetted by [`Engine::pop`] against
/// `w`'s arch, so staging asks the model nothing.
#[allow(clippy::too_many_arguments)]
fn prepare_task(
    graph: &TaskGraph,
    platform: &Platform,
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
    let m = platform.worker(w).mem_node;
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
    let room = store.try_make_room(m, needed_bytes, now, platform, false);
    let (space_ready, writebacks) = match room {
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
/// released through `rindeg` as their producers recommit. Each promotion
/// and each recompute is counted on `stats` and handed to `record`.
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
    record: &mut dyn FnMut(RuntimeEventKind),
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
            .filter(|&(n, r)| n != m && r.valid_at < f64::MAX)
            // A dirty victim is the authoritative value: only copies
            // fetched at/after it became valid carry that value.
            .filter(|&(_, r)| !dirty || r.valid_at >= valid_at - 1e-9)
            .map(|(n, r)| (n, r.valid_at))
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
                record(RuntimeEventKind::ReplicaPromoted);
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
        record(RuntimeEventKind::TaskRecomputed);
        members.push(q);
        for d in graph.task(q).reads() {
            let present = store.holders_full(d).any(|(_, r)| r.valid_at < f64::MAX);
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
/// With a result cache attached, `served` holds the instant the cache
/// served each task (`None` where it did not); without one it is empty.
/// A served predecessor released its successors at that instant, so it
/// needs no span, and a successor that started at or after the hit is
/// legal even when a node loss later recomputed the predecessor.
fn assert_precedence(trace: &Trace, graph: &TaskGraph, served: &[Option<f64>]) {
    let served_at = |p: TaskId| served.get(p.index()).copied().flatten();
    let precedence = SpanTable::new(trace, graph).check_precedence();
    for &(_, p) in &precedence.unspanned {
        assert!(
            served_at(p).is_some(),
            "predecessor {p:?} executed without a span"
        );
    }
    let unserved = |v: &&EdgeViolation| !served_at(v.pred).is_some_and(|hit| v.start >= hit);
    if let Some(v) = precedence.violations.iter().find(unserved) {
        panic!(
            "{:?} started at {} before predecessor {:?} ended at {}",
            v.task, v.start, v.pred, v.pred_end
        );
    }
}

/// Pipeline depth of accelerator workers (StarPU's CUDA default).
const GPU_LOOKAHEAD: usize = 2;

/// Where the loop's tasks come from.
pub(crate) enum Feed<'g> {
    /// A closed graph, linked whole by its one submission.
    Closed(&'g TaskGraph),
    /// A serving stream's graph, grown by each admitted arrival.
    Open(&'g mut StfBuilder),
}

impl Feed<'_> {
    fn graph(&self) -> &TaskGraph {
        match self {
            Feed::Closed(g) => g,
            Feed::Open(stf) => stf.graph(),
        }
    }
}

/// The scheduler's view of the engine state at `$now`. A macro, not a
/// method, so the view borrows only the fields it reads while the
/// scheduler is borrowed mutably beside it.
macro_rules! view {
    ($eng:expr, $g:expr, $now:expr) => {
        SchedView {
            est: Estimator::new($g, $eng.platform, $eng.model),
            loc: &$eng.store,
            load: &$eng.loads,
            now: $now,
        }
    };
}

/// One run's state. The graph is not part of it: every step takes it as
/// an argument, because a serving stream grows it between events.
///
/// StarPU's accelerator workers run a depth-2 pipeline: while a task
/// executes, the worker already pops its *next* task and stages that
/// task's input transfers, overlapping PCIe traffic with computation
/// (STARPU_CUDA_PIPELINE). We reproduce that for GPU-class workers:
/// `next_slot[w]` holds the staged tasks; the next begins executing the
/// moment the current one finishes (or when its transfers land,
/// whichever is later). CPU workers on the RAM node pop only when idle,
/// as in StarPU.
pub(crate) struct Engine<'a> {
    platform: &'a Platform,
    model: &'a dyn PerfModel,
    scheduler: &'a mut dyn Scheduler,
    cfg: SimConfig,
    cache: Option<&'a ResultCache>,
    store: DataStore,
    loads: Loads,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    rng: StdRng,
    // --- Per task, grown as submissions link ---
    indeg: Vec<usize>,
    pushed_at: Vec<f64>,
    done: Vec<bool>,
    /// Tasks handed out by the scheduler so far: a second pop of the same
    /// task is rejected as a typed error before it can corrupt state.
    popped: Vec<bool>,
    /// Failed attempts per task.
    attempts: Vec<u32>,
    recomputing: Vec<bool>,
    /// Recompute-order indegree.
    rindeg: Vec<u32>,
    /// Execution start per task.
    starts: Vec<f64>,
    /// When the result cache served each task; grown only with a cache.
    served_at: Vec<Option<f64>>,
    completed: usize,
    // --- Fault-injection state (all dormant without a fault plan) ---
    kills_on: bool,
    transients_on: bool,
    alive: Vec<bool>,
    /// Committed tasks per worker.
    done_by: Vec<u32>,
    recompute_live: usize,
    /// Tasks popped but blocked on an input a recompute chain is still
    /// regenerating. Held outside the scheduler (so the chain's own tasks
    /// win every pop) and re-pushed whenever a write commits.
    parked: Vec<TaskId>,
    /// Committed producer of each handle's current value, for the
    /// lineage walk-back when a node dies with the only copy.
    last_writer: Vec<Option<TaskId>>,
    trace: Trace,
    stats: SimStats,
    /// The cache's counts when the run started.
    cache_mark: CacheMark,
    /// Cache and fault instants for the Chrome timeline.
    instants: Vec<RuntimeEvent>,
    /// The worklist driving hit cascades (a hit releases successors that
    /// may hit in turn — iterative, no recursion).
    cache_worklist: Vec<(TaskId, Option<WorkerId>)>,
    /// Latest cache-hit completion: a warm stream can complete tasks
    /// after its last execution ends, and the makespan counts them.
    hit_end: f64,
    /// First typed failure; stops dispatching and surfaces in the result.
    failure: Option<SimError>,
    /// Engine-side observability cell (no-op unless `mp-trace/obs` is on).
    obs: ObsCell,
    /// Engine-side audit records (event-time monotonicity); only written
    /// under `--features audit`.
    engine_audit: Vec<AuditRecord>,
    #[cfg(feature = "audit")]
    last_event_time: f64,
    /// Live workers with nothing executing; dead workers are in no set.
    idle: WorkerSet,
    exec_end: Vec<f64>,
    /// Staged lookahead tasks per worker.
    next_slot: Vec<VecDeque<Staged>>,
    scratch: Scratch,
    emits_prefetches: bool,
    /// Rotating dispatch offset: removes the systematic low-id-first bias
    /// (concurrently polling workers have no global order in reality).
    rotation: usize,
    /// GPU-class workers, by index: the only ones that stage lookahead.
    gpu_workers: Vec<usize>,
    /// The serving ledgers of an open run; `None` on a closed one.
    stream: Option<Stream<'a>>,
}

impl<'a> Engine<'a> {
    /// An idle engine over `graph`'s data handles. Tasks arrive later,
    /// through [`Engine::run`]'s submissions.
    pub(crate) fn new(
        graph: &TaskGraph,
        platform: &'a Platform,
        model: &'a dyn PerfModel,
        scheduler: &'a mut dyn Scheduler,
        cfg: SimConfig,
        cache: Option<&'a ResultCache>,
        stream: Option<Stream<'a>>,
    ) -> Self {
        let nw = platform.worker_count();
        let store = DataStore::new(graph, platform);
        let handles = store.handle_count();
        Self {
            platform,
            model,
            emits_prefetches: scheduler.emits_prefetches(),
            scheduler,
            cfg,
            cache,
            store,
            loads: Loads(vec![0.0; nw]),
            events: BinaryHeap::new(),
            seq: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            indeg: Vec::new(),
            pushed_at: Vec::new(),
            done: Vec::new(),
            popped: Vec::new(),
            attempts: Vec::new(),
            recomputing: Vec::new(),
            rindeg: Vec::new(),
            starts: Vec::new(),
            served_at: Vec::new(),
            completed: 0,
            kills_on: cfg.faults.kills_any(),
            transients_on: cfg.faults.transient_fail_prob > 0.0,
            alive: vec![true; nw],
            done_by: vec![0; nw],
            recompute_live: 0,
            parked: Vec::new(),
            last_writer: vec![None; handles],
            trace: Trace::new(nw),
            stats: SimStats::default(),
            cache_mark: cache.map_or_else(Default::default, ResultCache::mark),
            instants: Vec::new(),
            cache_worklist: Vec::new(),
            hit_end: 0.0,
            failure: None,
            obs: ObsCell::new(),
            engine_audit: Vec::new(),
            #[cfg(feature = "audit")]
            last_event_time: 0.0,
            idle: WorkerSet::full(nw),
            exec_end: vec![0.0; nw],
            next_slot: vec![VecDeque::new(); nw],
            scratch: Scratch::default(),
            rotation: 0,
            gpu_workers: (0..nw)
                .filter(|&wi| {
                    let w = platform.worker(WorkerId::from_index(wi));
                    platform.arch(w.arch).class == mp_platform::types::ArchClass::Gpu
                })
                .collect(),
            stream,
        }
    }

    /// Run to quiescence: one submission per instant of `arrivals` (or
    /// the configuration error that stops the run before it starts),
    /// then every event they cause.
    pub(crate) fn run(
        mut self,
        feed: &mut Feed<'_>,
        arrivals: Result<Vec<f64>, SimError>,
    ) -> SimResult {
        match arrivals {
            Ok(times) => {
                for (k, at) in times.into_iter().enumerate() {
                    self.push_event(at, EvKind::Arrival(k));
                }
            }
            Err(e) => self.failure = Some(e),
        }
        // No event left ends the run. Work still pending then is a
        // deadlock, closed or streamed: under the pop contract no later
        // dispatch could hand out anything the last one did not.
        while self.failure.is_none() {
            let Some(Reverse(ev)) = self.events.pop() else {
                break;
            };
            let now = ev.time;
            #[cfg(feature = "audit")]
            {
                use mp_trace::AuditKind;
                if now < self.last_event_time - 1e-9 {
                    self.engine_audit.push(AuditRecord::new(
                        now,
                        AuditKind::EventTimeRegression,
                        format!("event at {now} after {}", self.last_event_time),
                    ));
                }
                self.last_event_time = self.last_event_time.max(now);
            }
            self.store.now = now;
            match ev.kind {
                EvKind::Arrival(k) => {
                    if let (Feed::Open(stf), Some(s)) = (&mut *feed, &mut self.stream) {
                        s.arrive(stf, k, now, self.completed);
                    }
                    self.link(feed.graph(), now);
                }
                // Backoff expired: the failed task re-enters the scheduler.
                EvKind::Retry { t } => self.repush(feed.graph(), t, now),
                EvKind::Finish { w, t } => self.finish(feed.graph(), w, t, now),
            }
            if self.failure.is_none() {
                self.dispatch(feed.graph(), now);
            }
        }
        self.into_result(feed.graph())
    }

    fn push_event(&mut self, time: f64, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    /// Record a timeline instant on `worker`'s lane (with `record_trace`
    /// on).
    fn event(&mut self, worker: usize, at: f64, kind: RuntimeEventKind) {
        if self.cfg.record_trace {
            self.instants.push(RuntimeEvent { worker, at, kind });
        }
    }

    /// Link the tasks the last submission added to `g` and release, in
    /// submission order, those whose predecessors have all completed.
    /// The ready set is fixed before any release, so a hit cascade
    /// cannot release a task twice.
    fn link(&mut self, g: &TaskGraph, now: f64) {
        let first = self.done.len();
        let n = g.task_count();
        self.indeg.resize(n, 0);
        self.pushed_at.resize(n, 0.0);
        self.done.resize(n, false);
        self.popped.resize(n, false);
        self.attempts.resize(n, 0);
        self.recomputing.resize(n, false);
        self.rindeg.resize(n, 0);
        self.starts.resize(n, 0.0);
        if self.cache.is_some() {
            self.served_at.resize(n, None);
        }
        let mut ready = Vec::new();
        for i in first..n {
            let t = TaskId::from_index(i);
            self.indeg[i] = g.preds(t).iter().filter(|p| !self.done[p.index()]).count();
            if self.indeg[i] == 0 {
                ready.push(t);
            }
        }
        for t in ready {
            self.push_ready(g, t, None, now);
        }
        self.prefetch(now);
    }

    /// Log-normal noise factor with E[x] ≈ 1.
    fn noise(&mut self) -> f64 {
        if self.cfg.noise_cv == 0.0 {
            return 1.0;
        }
        let sigma = self.cfg.noise_cv;
        // Box-Muller.
        let (u1, u2): (f64, f64) = (self.rng.gen::<f64>().max(1e-12), self.rng.gen());
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (sigma * z - sigma * sigma / 2.0).exp()
    }

    /// Hand `t` back to the scheduler as a retry (failed attempt,
    /// recompute seed or parked task).
    fn repush(&mut self, g: &TaskGraph, t: TaskId, now: f64) {
        self.pushed_at[t.index()] = now;
        let view = view!(self, g, now);
        self.scheduler
            .push_retry(t, self.attempts[t.index()], &view);
        self.obs.bump(Counter::Pushes);
    }

    /// Drain the scheduler's prefetch requests and start the transfers
    /// the memory state allows.
    fn prefetch(&mut self, now: f64) {
        if !self.emits_prefetches {
            return;
        }
        let drained = &mut self.scratch.prefetches;
        drained.clear();
        self.scheduler.drain_prefetches_into(drained);
        for &req in drained.iter() {
            if self.store.replica(req.data, req.node).is_some() {
                self.obs.bump(Counter::PrefetchesCancelled);
                continue;
            }
            let size = self.store.size(req.data);
            // Prefetches may evict clean LRU replicas but never force
            // write-backs; when that is not enough, skip the request.
            let room = self
                .store
                .try_make_room(req.node, size, now, self.platform, true);
            if room.is_err() {
                self.obs.bump(Counter::PrefetchesCancelled);
                continue;
            }
            let Some((src, start, end)) =
                pick_source(&self.store, self.platform, req.data, req.node, now)
            else {
                self.obs.bump(Counter::PrefetchesCancelled);
                continue;
            };
            self.obs.bump(Counter::PrefetchesIssued);
            self.store.set_link_busy(src, req.node, end);
            self.store.allocate(req.data, req.node, end, false);
            self.stats.prefetch_bytes += size;
            if self.cfg.record_trace {
                self.trace.transfers.push(TransferSpan {
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

    /// Kill worker `wi`: the fault plan's threshold was reached and the
    /// worker is idle with nothing staged (clean drain — a worker never
    /// dies holding pins, so replica cleanup needs no pin surgery).
    fn kill_worker(&mut self, g: &TaskGraph, wi: usize, now: f64) {
        let w = WorkerId::from_index(wi);
        self.alive[wi] = false;
        self.idle.remove(wi);
        self.stats.worker_failures += 1;
        self.event(wi, now, RuntimeEventKind::WorkerFailed);
        {
            let view = view!(self, g, now);
            self.scheduler.worker_disabled(w, &view);
        }
        // Device memory dies with its last worker; host RAM outlives
        // the compute threads pinned to it.
        let platform = self.platform;
        let m = platform.worker(w).mem_node;
        let node_lost = m != platform.ram()
            && platform
                .workers_on_node(m)
                .iter()
                .all(|x| !self.alive[x.index()]);
        if node_lost {
            let (record, instants) = (self.cfg.record_trace, &mut self.instants);
            let seeds = recover_node(
                g,
                &mut self.store,
                m,
                platform.ram(),
                &self.last_writer,
                &mut self.done,
                &mut self.popped,
                &mut self.recomputing,
                &mut self.rindeg,
                &mut self.completed,
                &mut self.recompute_live,
                &mut self.stats,
                &mut |kind| {
                    if record {
                        instants.push(RuntimeEvent {
                            worker: wi,
                            at: now,
                            kind,
                        });
                    }
                },
            );
            for &s in &seeds {
                self.repush(g, s, now);
            }
        }
        // Every unfinished task must keep a capable survivor, or the
        // run can never complete — fail it now, with the culprit.
        let est = Estimator::new(g, platform, self.model);
        let nw = platform.worker_count();
        let stranded = (0..self.done.len())
            .map(TaskId::from_index)
            .filter(|t| !self.done[t.index()])
            .find(|&t| {
                !(0..nw).any(|xi| {
                    self.alive[xi]
                        && est
                            .delta(t, platform.worker(WorkerId::from_index(xi)).arch)
                            .is_some()
                })
            });
        if let Some(task) = stranded {
            self.failure = Some(SimError::NoCapableWorker { task });
        }
    }

    /// Begin executing a prepared task, of δ `delta` on worker `wi`, on
    /// that idle worker.
    #[allow(clippy::too_many_arguments)]
    fn begin_exec(
        &mut self,
        g: &TaskGraph,
        wi: usize,
        t: TaskId,
        delta: f64,
        arrive: f64,
        nf: f64,
        now: f64,
    ) {
        let w = WorkerId::from_index(wi);
        let start = now.max(arrive);
        let end = start + delta * nf;
        self.starts[t.index()] = start;
        self.idle.remove(wi);
        self.exec_end[wi] = end;
        // Load estimate published to the schedulers: *model-estimated*
        // end (start + δ), not the realized noisy end — no scheduler can
        // know mid-execution how long a task will really take (StarPU's
        // dm family plans with expected durations too).
        let staged: f64 = self.next_slot[wi].iter().map(|s| s.delta).sum();
        self.loads.0[wi] = start + delta + staged;
        self.push_event(end, EvKind::Finish { w, t });
        let view = view!(self, g, now);
        self.scheduler
            .feedback(&SchedEvent::TaskStarted { t, w }, &view);
    }

    /// Pop `w`'s next task and vet it: a contract violation (double pop,
    /// incapable worker) is a typed failure instead of a downstream
    /// panic. On success the task is marked handed-out and comes back
    /// with its δ on `w`.
    fn pop(&mut self, g: &TaskGraph, w: WorkerId, now: f64) -> Option<(TaskId, f64)> {
        let fresh = {
            let view = view!(self, g, now);
            self.scheduler.pop(w, &view)
        };
        let Some(t) = fresh else {
            self.stats.empty_pops += 1;
            return None;
        };
        if self.popped[t.index()] {
            self.failure = Some(SimError::DoubleExecution { task: t });
            return None;
        }
        let Some(delta) = view!(self, g, now).delta_on_worker(t, w) else {
            self.failure = Some(SimError::IncapableWorker { task: t, worker: w });
            return None;
        };
        self.popped[t.index()] = true;
        self.obs.bump(Counter::Pops);
        if let Some(s) = &mut self.stream {
            s.popped(t, w, now, self.pushed_at[t.index()]);
        }
        Some((t, delta))
    }

    /// Stage `t` on `w` ([`prepare_task`]): `Some(None)` when a
    /// best-effort prepare deferred to execution time, `None` when the run
    /// failed or the task was parked on a lost input.
    fn stage(
        &mut self,
        g: &TaskGraph,
        w: WorkerId,
        t: TaskId,
        now: f64,
        best_effort: bool,
    ) -> Option<Option<f64>> {
        let staged = prepare_task(
            g,
            self.platform,
            &mut self.store,
            &self.cfg,
            &mut self.trace,
            &mut self.stats,
            &mut self.scratch,
            w,
            t,
            now,
            best_effort,
        );
        match staged {
            Ok(arrive) => Some(arrive),
            Err(SimError::NoValidReplica { .. }) if self.recompute_live > 0 => {
                // A lost input is being regenerated: park the task
                // engine-side — NOT back into the scheduler, which could
                // hand it straight back to every idle worker and stall the
                // regenerating chain forever — and release it at the next
                // commit.
                self.popped[t.index()] = false;
                self.parked.push(t);
                None
            }
            Err(e) => {
                self.failure = Some(e);
                None
            }
        }
    }

    /// Hand out work until no worker can take more.
    ///
    /// Each pass offers work in rotation order, `[rotation, nw)` then
    /// `[0, rotation)`: first to the idle workers, then to the busy
    /// GPU-class workers with room in their pipeline. Busy CPU workers
    /// are never visited.
    fn dispatch(&mut self, g: &TaskGraph, now: f64) {
        self.store.now = now;
        let nw = self.exec_end.len();
        loop {
            let mut progress = false;
            self.rotation = (self.rotation + 1) % nw.max(1);
            let rot = self.rotation;
            // Pass 1: idle workers (they need work immediately).
            for (lo, hi) in [(rot, nw), (0, rot)] {
                let mut from = lo;
                while let Some(wi) = self.idle.first_in(from, hi) {
                    from = wi + 1;
                    let w = WorkerId::from_index(wi);
                    // Idle, nothing staged, threshold reached: die before
                    // popping any more work.
                    if self.kills_on
                        && self.next_slot[wi].is_empty()
                        && self
                            .cfg
                            .faults
                            .kill_after(wi)
                            .is_some_and(|k| self.done_by[wi] >= k)
                    {
                        self.kill_worker(g, wi, now);
                        if self.failure.is_some() {
                            return;
                        }
                        // The death re-bucketed the scheduler and may
                        // have re-pushed recompute seeds: workers already
                        // polled this round must poll again.
                        progress = true;
                        continue;
                    }
                    // Drain a staged task first, then pop fresh. A
                    // deferred prepare runs now: earlier pipeline tasks
                    // have unpinned their data by now.
                    let strict = "strict prepare never defers";
                    let next = match self.next_slot[wi].pop_front() {
                        Some(s) => match s.arrive {
                            Some(arrive) => Some((s.t, s.delta, arrive, s.nf)),
                            None => self
                                .stage(g, w, s.t, now, false)
                                .map(|a| (s.t, s.delta, a.expect(strict), s.nf)),
                        },
                        None => match self.pop(g, w, now) {
                            Some((t, delta)) => self
                                .stage(g, w, t, now, false)
                                .map(|a| (t, delta, a.expect(strict), self.noise())),
                            None => None,
                        },
                    };
                    match next {
                        Some((t, delta, arrive, nf)) => {
                            self.begin_exec(g, wi, t, delta, arrive, nf, now);
                            progress = true;
                        }
                        None if self.failure.is_some() => return,
                        None => {}
                    }
                }
            }
            // Pass 2: busy GPU-class workers stage lookahead tasks so
            // the next input transfers overlap the current execution.
            let split = self.gpu_workers.partition_point(|&wi| wi < rot);
            for k in (split..self.gpu_workers.len()).chain(0..split) {
                let wi = self.gpu_workers[k];
                let w = WorkerId::from_index(wi);
                if self.idle.contains(wi) || self.next_slot[wi].len() >= GPU_LOOKAHEAD {
                    continue;
                }
                // Never stage more work onto a worker past its kill
                // threshold (or dead): the pipeline would otherwise keep
                // it perpetually busy and the kill would never fire.
                if self.kills_on
                    && (!self.alive[wi]
                        || self
                            .cfg
                            .faults
                            .kill_after(wi)
                            .is_some_and(|k| self.done_by[wi] >= k))
                {
                    continue;
                }
                let staged = match self.pop(g, w, now) {
                    Some((t, delta)) => self
                        .stage(g, w, t, now, true)
                        .map(|arrive| (t, delta, arrive)),
                    None => None,
                };
                match staged {
                    Some((t, delta, arrive)) => {
                        let nf = self.noise();
                        self.next_slot[wi].push_back(Staged {
                            t,
                            arrive,
                            nf,
                            delta,
                        });
                        // Publish queued work so push-time mappers see it.
                        self.loads.0[wi] += delta;
                        progress = true;
                    }
                    None if self.failure.is_some() => return,
                    None => {}
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Hand a newly-ready task to the scheduler — unless the result
    /// cache already holds a verified entry for it, in which case the
    /// task completes on the spot: outputs commit to host RAM at `now`
    /// (zero virtual cost), successors release immediately and are
    /// probed in turn via the worklist. Cache-off expands to exactly the
    /// pre-cache push path (one worklist item, popped immediately), so
    /// schedules are bit-identical.
    fn push_ready(&mut self, g: &TaskGraph, t0: TaskId, from0: Option<WorkerId>, now: f64) {
        self.cache_worklist.push((t0, from0));
        while let Some((t, from)) = self.cache_worklist.pop() {
            let mut hit = None;
            if let Some(rc) = self.cache {
                match g.cache_meta(t).map(|m| (m, rc.lookup(m, false))) {
                    Some((_, Lookup::Hit(e))) => hit = Some(e),
                    Some((_, Lookup::Invalidated)) => {
                        self.stats.cache_invalidations += 1;
                        self.stats.cache_misses += 1;
                        self.event(0, now, RuntimeEventKind::CacheInvalidated);
                    }
                    _ => {
                        // No entry — or no metadata at all (bare
                        // `add_task` graphs can never hit).
                        self.stats.cache_misses += 1;
                    }
                }
            }
            if hit.is_none() {
                self.pushed_at[t.index()] = now;
                let view = view!(self, g, now);
                self.scheduler.push(t, from, &view);
                self.obs.bump(Counter::Pushes);
                continue;
            }
            let ram = self.platform.ram();
            let mut bytes = 0u64;
            self.scratch.written.clear();
            for d in g.task(t).writes() {
                if self.scratch.written.contains(&d) {
                    continue;
                }
                self.scratch.written.push(d);
                // Materialize the output where it was born: the home RAM
                // node (never evicted, survives device deaths). Same
                // commit the executing path uses, so MSI invariants hold.
                if self.store.replica(d, ram).is_none() {
                    self.store.allocate(d, ram, now, false);
                }
                self.store.commit_write(d, ram, now);
                self.last_writer[d.index()] = Some(t);
                bytes += self.store.size(d);
            }
            self.done[t.index()] = true;
            self.served_at[t.index()] = Some(now);
            self.completed += 1;
            self.hit_end = now;
            self.stats.cache_hits += 1;
            self.stats.bytes_materialized += bytes;
            self.event(0, now, RuntimeEventKind::CacheHit);
            if let Some(s) = &mut self.stream {
                s.completed(t, now, true);
            }
            for &s in g.succs(t) {
                self.indeg[s.index()] -= 1;
                if self.indeg[s.index()] == 0 {
                    self.cache_worklist.push((s, None));
                }
            }
        }
    }

    /// Task `t`'s execution on `w` ends at `now`: commit or (transient
    /// fault) retry it, then release what it unblocks.
    fn finish(&mut self, g: &TaskGraph, w: WorkerId, t: TaskId, now: f64) {
        self.idle.insert(w.index());
        let m = self.platform.worker(w).mem_node;
        let task = g.task(t);

        // Transient-failure injection: the attempt produced nothing.
        // Release the input pins, commit no write, record no span; the
        // write-only placeholders stay allocated for the retry.
        if self.transients_on
            && self
                .cfg
                .faults
                .transient_fails(t.index(), self.attempts[t.index()])
        {
            self.scratch.seen.clear();
            for a in &task.accesses {
                if self.scratch.seen.contains(&a.data) {
                    continue;
                }
                self.scratch.seen.push(a.data);
                self.store.unpin(a.data, m);
            }
            self.attempts[t.index()] += 1;
            if self.attempts[t.index()] >= self.cfg.retry.max_attempts {
                self.failure = Some(SimError::RetryExhausted {
                    task: t,
                    attempts: self.attempts[t.index()],
                });
                return;
            }
            self.stats.tasks_retried += 1;
            self.event(w.index(), now, RuntimeEventKind::TaskRetried);
            self.popped[t.index()] = false;
            let backoff = self.cfg.retry.backoff_for(self.attempts[t.index()]);
            self.push_event(now + backoff, EvKind::Retry { t });
            return;
        }

        // Close out the execution (same folded view as start_task).
        self.scratch.seen.clear();
        for a in &task.accesses {
            if self.scratch.seen.contains(&a.data) {
                continue;
            }
            self.scratch.seen.push(a.data);
            self.store.unpin(a.data, m);
            self.store.touch(a.data, m, now);
        }
        self.scratch.written.clear();
        for d in task.writes() {
            if !self.scratch.written.contains(&d) {
                self.scratch.written.push(d);
                self.store.commit_write(d, m, now);
                self.last_writer[d.index()] = Some(t);
            }
        }
        // Populate the result cache (payload-less: virtual time has no
        // bytes — the threaded runtime stores real buffers).
        if let Some(rc) = self.cache {
            if let Some(meta) = g.cache_meta(t) {
                let bytes = self
                    .scratch
                    .written
                    .iter()
                    .map(|&d| self.store.size(d))
                    .sum();
                rc.insert(meta, None, bytes);
            }
        }
        assert!(!self.done[t.index()], "task {t:?} finished twice");
        self.done[t.index()] = true;
        self.completed += 1;
        self.done_by[w.index()] += 1;
        let elapsed_us = now - self.starts[t.index()];
        if self.cfg.record_trace {
            self.trace.tasks.push(TaskSpan {
                task: t,
                ttype: task.ttype,
                worker: w,
                ready_at: self.pushed_at[t.index()],
                start: self.starts[t.index()],
                end: now,
            });
        }
        {
            let view = view!(self, g, now);
            self.scheduler
                .feedback(&SchedEvent::TaskFinished { t, w, elapsed_us }, &view);
        }
        if let Some(s) = &mut self.stream {
            s.completed(t, now, false);
        }

        // Release successors: indegree decrements publish newly-ready
        // tasks straight into the scheduler — no intermediate collection,
        // no rescan of the frontier. A *recomputed* task instead releases
        // through the recompute indegree: the graph indegrees were
        // already consumed by the original execution, and decrementing
        // them again would underflow.
        if self.recomputing[t.index()] {
            self.recomputing[t.index()] = false;
            self.recompute_live -= 1;
            for &s in g.succs(t) {
                if self.recomputing[s.index()] && self.rindeg[s.index()] > 0 {
                    self.rindeg[s.index()] -= 1;
                    if self.rindeg[s.index()] == 0 {
                        self.repush(g, s, now);
                    }
                }
            }
        } else {
            for &s in g.succs(t) {
                self.indeg[s.index()] -= 1;
                if self.indeg[s.index()] == 0 {
                    self.push_ready(g, s, Some(w), now);
                }
            }
        }
        // A write just committed: tasks parked on a lost input may now
        // find it (or discover the next missing one and re-park).
        for i in 0..self.parked.len() {
            self.repush(g, self.parked[i], now);
        }
        self.parked.clear();
        self.prefetch(now);
    }

    /// Close the run: name the deadlock if tasks are left, validate the
    /// schedule, merge the counters and close a stream's ledgers.
    fn into_result(mut self, g: &TaskGraph) -> SimResult {
        let n = g.task_count();
        if self.failure.is_none() && self.completed != n {
            // Detail the first few stuck tasks with their unmet
            // dependencies so the report distinguishes "the graph never
            // released it" from "the scheduler is sitting on a ready task".
            let stuck = (0..n)
                .map(TaskId::from_index)
                .filter(|t| !self.done[t.index()])
                .take(SimError::DEADLOCK_DETAIL_CAP)
                .map(|t| {
                    let unmet = g.preds(t).iter().copied().filter(|p| !self.done[p.index()]);
                    (t, unmet.take(SimError::DEADLOCK_DETAIL_CAP).collect())
                })
                .collect();
            self.failure = Some(SimError::Deadlock {
                completed: self.completed,
                total: n,
                pending: self.scheduler.pending(),
                stuck,
            });
        }
        self.stats.tasks = self.completed;
        self.stats.capacity_evictions = self.store.capacity_evictions();

        let makespan = self
            .exec_end
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(self.hit_end);
        if self.failure.is_none() {
            // Pin balance at quiesce: every pin taken while staging must
            // have been released by a completion or an error rollback.
            debug_assert!(
                self.store.leaked_pins().is_empty(),
                "pin leak at quiesce: {:?}",
                self.store.leaked_pins()
            );
            #[cfg(feature = "audit")]
            self.store.audit_quiesce();
            if self.cfg.record_trace {
                self.trace.validate().expect("trace validation failed");
                assert_precedence(&self.trace, g, &self.served_at);
            }
        }

        let mut audit = self.store.take_audit();
        audit.append(&mut self.engine_audit);

        // Capacity evictions and persistence happen inside the cache,
        // which can serve many runs: this run's share is the delta since
        // it started.
        if let Some(rc) = self.cache {
            (self.stats.cache_evictions, self.stats.persist) = rc.since(&self.cache_mark);
        }

        // Quiesce-time counter aggregation: the engine-side cell (pops,
        // pushes, prefetch fates) merged with whatever the policy reports
        // (holds, evictions, arena hits, heap compactions, shard steals).
        let mut counters = self.scheduler.counters();
        self.obs.drain_into(&mut counters);

        let serving = self.stream.map(Stream::into_stats);
        SimResult {
            scheduler: self.scheduler.name().to_string(),
            makespan,
            trace: self.trace,
            stats: self.stats,
            error: self.failure,
            audit,
            counters,
            events: self.instants,
            serving,
        }
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
///
/// The graph is the loop's single submission, at t = 0.
pub fn simulate_cached(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    scheduler: &mut dyn Scheduler,
    cfg: SimConfig,
    cache: Option<&ResultCache>,
) -> SimResult {
    Engine::new(graph, platform, model, scheduler, cfg, cache, None)
        .run(&mut Feed::Closed(graph), Ok(vec![0.0]))
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
        assert_precedence(&trace, &g, &[]);
    }

    #[test]
    #[should_panic(expected = "t1 started at 9 before predecessor t0 ended at 10")]
    fn precedence_validation_panics_on_an_early_start() {
        let (g, trace) = chain_trace(9.0);
        assert_precedence(&trace, &g, &[]);
    }

    #[test]
    fn precedence_validation_exempts_cache_served_predecessors() {
        let (g, mut trace) = chain_trace(10.0);
        trace.tasks.remove(0);
        assert_precedence(&trace, &g, &[Some(0.0), None]);
    }

    /// A predecessor the cache served and a node loss later recomputed
    /// has a span that ends after its successor started: the successor
    /// is legal when it started at or after the hit, and still caught
    /// when it started before.
    #[test]
    fn precedence_validation_accepts_successors_of_a_recomputed_cache_hit() {
        let (g, trace) = chain_trace(5.0);
        assert_precedence(&trace, &g, &[Some(5.0), None]);
        assert_precedence(&trace, &g, &[Some(2.0), None]);
    }

    #[test]
    #[should_panic(expected = "t1 started at 5 before predecessor t0 ended at 10")]
    fn precedence_validation_panics_on_a_start_before_the_predecessors_hit() {
        let (g, trace) = chain_trace(5.0);
        assert_precedence(&trace, &g, &[Some(7.0), None]);
    }

    #[test]
    #[should_panic(expected = "predecessor t0 executed without a span")]
    fn precedence_validation_panics_on_a_spanless_predecessor_without_a_cache() {
        let (g, mut trace) = chain_trace(10.0);
        trace.tasks.remove(0);
        assert_precedence(&trace, &g, &[]);
    }

    #[test]
    #[should_panic(expected = "predecessor t0 executed without a span")]
    fn precedence_validation_panics_on_a_spanless_predecessor_the_cache_never_served() {
        let (g, mut trace) = chain_trace(10.0);
        trace.tasks.remove(0);
        assert_precedence(&trace, &g, &[None, Some(0.0)]);
    }

    /// Two sources whose copies arrive equally fast tie on node id: the
    /// lower one wins, whichever replica was allocated first.
    #[test]
    fn pick_source_breaks_equal_cost_ties_by_lower_node_id() {
        let (g, _, _) = fixture();
        let p = simple(1, 2);
        let (d, ram, g0, g1) = (DataId(0), p.ram(), MemNodeId(1), MemNodeId(2));
        let cost = p.transfer_time(64, g0, ram);
        assert_eq!(cost, p.transfer_time(64, g1, ram), "equal-cost sources");
        for order in [[g0, g1], [g1, g0]] {
            let mut store = DataStore::new(&g, &p);
            for m in order {
                store.allocate(d, m, 0.0, false);
            }
            store.drop_replica(d, ram);
            let picked = pick_source(&store, &p, d, ram, 1.0);
            assert_eq!(picked, Some((g0, 1.0, 1.0 + cost)), "allocated {order:?}");
        }
    }

    /// An orphaned handle (no replica anywhere) surfaces as a typed
    /// `NoValidReplica`, and the rejected staging attempt leaks no pins.
    #[test]
    fn stage_without_any_replica_is_typed_error() {
        let (g, p, _) = fixture();
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

    /// Lookahead pops are vetted like idle ones: a scheduler that hands
    /// a CPU-only task to the busy GPU's pipeline stops the run with a
    /// typed `IncapableWorker`, so staging never sees an incapable worker.
    #[test]
    fn lookahead_pop_on_incapable_worker_is_typed_error() {
        /// Serves only the GPU worker, oldest push first.
        struct GpuOnly(VecDeque<TaskId>);
        impl Scheduler for GpuOnly {
            fn name(&self) -> &'static str {
                "gpu-only"
            }
            fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, _view: &SchedView<'_>) {
                self.0.push_back(t);
            }
            fn pop(&mut self, w: WorkerId, _view: &SchedView<'_>) -> Option<TaskId> {
                (w == WorkerId(1)).then(|| self.0.pop_front()).flatten()
            }
            fn pending(&self) -> usize {
                self.0.len()
            }
        }
        let mut g = TaskGraph::new();
        let both = g.register_type("BOTH", true, true);
        let cpu_only = g.register_type("CPUONLY", true, false);
        let (d0, d1) = (g.add_data(64, "d0"), g.add_data(64, "d1"));
        g.add_task(both, vec![(d0, AccessMode::ReadWrite)], 1.0, "t0");
        let t1 = g.add_task(cpu_only, vec![(d1, AccessMode::ReadWrite)], 1.0, "t1");
        let p = simple(1, 1);
        let m = TableModel::builder()
            .set("BOTH", ArchClass::Cpu, TimeFn::Const(10.0))
            .set("BOTH", ArchClass::Gpu, TimeFn::Const(5.0))
            .set("CPUONLY", ArchClass::Cpu, TimeFn::Const(10.0))
            .build();
        // The GPU (worker 1) starts t0 in pass 1, then asks for a
        // lookahead task in pass 2 and is handed t1.
        let r = simulate(&g, &p, &m, &mut GpuOnly(VecDeque::new()), cfg_default());
        assert_eq!(
            r.error,
            Some(SimError::IncapableWorker {
                task: t1,
                worker: WorkerId(1),
            })
        );
        assert_eq!(r.stats.tasks, 0);
    }

    fn cfg_default() -> SimConfig {
        SimConfig::default()
    }

    /// Every capacity eviction is counted, clean victims included: three
    /// GPU-only tasks each read their own tile on a GPU that holds two,
    /// so staging the third drops a clean tile, with no write-back.
    #[test]
    fn clean_capacity_evictions_are_counted() {
        let mut g = TaskGraph::new();
        let k = g.register_type("GPU", false, true);
        for i in 0..3 {
            let d = g.add_data(100, format!("tile{i}"));
            g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t");
        }
        let link = mp_platform::link::Link::pcie_gen3();
        let p = mp_platform::presets::hetero_node("two-tiles", 2, 1.0, 1, 1.0, 200, 1, link);
        let m = TableModel::builder()
            .set("GPU", ArchClass::Gpu, TimeFn::Const(5.0))
            .build();
        let r = simulate(
            &g,
            &p,
            &m,
            &mut mp_sched::FifoScheduler::new(),
            cfg_default(),
        );
        assert_eq!(r.error, None);
        assert_eq!(r.stats.writeback_bytes, 0);
        assert_eq!(r.stats.capacity_evictions, 1);
    }

    /// `first_in` walks members in order across word boundaries and
    /// stops at `end`, as the dispatch's two rotation ranges need.
    #[test]
    fn worker_set_finds_members_in_a_range_across_words() {
        let mut set = WorkerSet::full(130);
        for i in (0..130).filter(|i| i % 3 != 0) {
            set.remove(i);
        }
        let walk = |lo: usize, hi: usize| {
            let mut out = Vec::new();
            let mut from = lo;
            while let Some(i) = set.first_in(from, hi) {
                out.push(i);
                from = i + 1;
            }
            out
        };
        let want = |r: std::ops::Range<usize>| r.filter(|i| i % 3 == 0).collect::<Vec<_>>();
        assert_eq!(walk(61, 130), want(61..130));
        assert_eq!(walk(0, 61), want(0..61));
        assert_eq!(walk(64, 64), Vec::<usize>::new());
        assert_eq!(walk(128, 130), vec![129]);
        assert!(set.contains(129) && !set.contains(128));
        set.insert(128);
        assert_eq!(set.first_in(127, 130), Some(128));
        assert_eq!(WorkerSet::full(0).first_in(0, 0), None);
    }
}
