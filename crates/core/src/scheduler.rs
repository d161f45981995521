//! The MultiPrio scheduler: Algorithms 1 (PUSH) and 2 (POP) of the paper.
//!
//! State held per memory node `m`:
//!
//! * a [`ScoredHeap`] of ready tasks executable by `P_m`, keyed by
//!   (gain, criticality);
//! * `ready_tasks_count[m]` — live entries in that heap;
//! * `best_remaining_work[m]` — the accumulated best-arch execution time
//!   of enqueued tasks whose *fastest* architecture is `m`'s architecture
//!   (Algorithm 1's `normalized_speedup(t,a) == 1` branch); consumed by
//!   the pop condition.
//!
//! A ready task is inserted into the heap of **every** memory node whose
//! architecture can execute it ("tasks are then duplicated in the
//! heaps"). When a worker takes a task, duplicates in other heaps become
//! stale and are scrubbed lazily when encountered, as described in
//! Sec. IV-B.
//!
//! ### Hot-path data layout (DESIGN.md §6b)
//!
//! Tasks are dense integer ids, so all per-task state lives in a
//! `Vec<TaskSlot>` **slab** indexed by `TaskId` — no hashing on the
//! push/pop path. Heap membership and `best_remaining_work` credits are
//! u64 bitmasks over memory nodes (the platform is asserted to have ≤ 64
//! memory nodes — single heterogeneous nodes in the paper have ≤ 10).
//! Taking or evicting a task never touches the other heaps: the slot's
//! generation/mask changes and each affected heap gets an O(1)
//! `note_stale`; the stale entries are skipped by the top-k walk and
//! reclaimed by amortized compaction (see [`ScoredHeap`]). Because the
//! heap entry order is total, this lazy scheme pops the exact same task
//! sequence as the eager [`crate::ReferenceScheduler`] — asserted
//! bit-for-bit by `tests/prop_invariants.rs`.
//!
//! The per-push score computation is cached in a small
//! (task type, footprint, flops)-keyed table of *push plans*, invalidated
//! by the gain tracker's dirty epoch (a new running-max `hd(a)`) and the
//! performance model's version (history feedback); regular workloads with
//! a handful of kernel types hit this cache on nearly every push. A plan
//! is a `Copy` record; its per-node gains and per-arch δ are one row each
//! of two flat arrays the scheduler owns, so a miss (every push, when
//! each task brings new flops) allocates only amortized growth. A miss
//! asks the model once per arch, through the candidate list it ranks
//! archs with, and reads each node's capability off that list.
//!
//! A pop on a node whose `ready_tasks_count` is zero returns at once:
//! every entry its heap still holds is a stale duplicate, so the heap is
//! cleared in O(1) instead of being walked (the engines ask every idle
//! worker, and on the paper's platforms most pops land here).
//!
//! ### Interpretation choices (documented in DESIGN.md)
//!
//! * `best_remaining_work` bookkeeping: we credit `δ_best` at PUSH and
//!   debit the same `δ_best` when the task is taken, keeping the
//!   invariant `best_remaining_work[m] = Σ δ_best over enqueued best-arch
//!   tasks` exact (Algorithm 2's `-= δ(t_prio, w_a)` with an ambiguous
//!   `m` does not admit a consistent reading).
//! * The pop condition follows the paper's *prose* — "in cases where the
//!   best worker is sufficiently busy, we allow the task to go to a
//!   slower worker": "how busy is a best worker" is the node backlog
//!   divided by its worker count. Comparing the raw node total instead
//!   (the `brw_per_worker: false` ablation) lets slow CPUs absorb large
//!   accelerated tasks long before the accelerators are actually
//!   saturated, which measurably collapses the sparse-QR results the
//!   paper reports (see EXPERIMENTS.md).
//! * Eviction never removes the *last* live replica of a task: a task
//!   enqueued on a single memory node is skipped (left in the heap) rather
//!   than evicted when the pop condition rejects it, otherwise it could
//!   never execute. The paper leaves this case implicit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use mp_dag::ids::{TaskId, TaskTypeId};
use mp_platform::types::{ArchId, MemNodeId, WorkerId};
use mp_sched::api::{SchedView, Scheduler};

use crate::config::MultiPrioConfig;
use crate::criticality::{nod, NodNormalizer};
use crate::heap::{Score, ScoredHeap};
use crate::locality::ls_sdh2;
use crate::provenance::{PopOutcome, ProvenanceRing};
use crate::score::GainTracker;

/// Slab slot: all per-task state, indexed by the dense `TaskId`.
#[derive(Clone, Copy, Debug)]
struct TaskSlot {
    /// Current generation; bumped when the task is taken so heap entries
    /// of a previous life can never resurrect (regression-tested).
    gen: u32,
    /// Pushed and not yet taken?
    live: bool,
    /// Memory nodes whose heap holds a live entry (bit = node index).
    node_mask: u64,
    /// Nodes whose `best_remaining_work` was credited at PUSH.
    brw_mask: u64,
    /// The task's fastest architecture.
    best_arch: ArchId,
    /// δ on the fastest architecture.
    delta_best: f64,
    /// Index into the plan arena of the plan this task was pushed with —
    /// gives the pop condition its per-arch δ without hashing.
    plan: u32,
}

impl Default for TaskSlot {
    fn default() -> Self {
        Self {
            gen: 0,
            live: false,
            node_mask: 0,
            brw_mask: 0,
            best_arch: ArchId(0),
            delta_best: 0.0,
            plan: 0,
        }
    }
}

/// FxHash-style mix for the plan-cache map: the default SipHash costs
/// more than the rest of a cache-hit push combined, and `PlanKey` is
/// trusted internal data (no HashDoS surface).
#[derive(Default)]
struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Key of a cached push plan. Estimates and gains depend on the task only
/// through its kernel type, byte footprint and flop count (the fields of
/// `EstimateQuery` that models read), so tasks agreeing on these three
/// share one plan.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    ttype: TaskTypeId,
    footprint: u64,
    flops_bits: u64,
}

/// The cached outcome of Algorithm 1's score computation for one
/// [`PlanKey`]: which heaps receive the task, with which gain, and the
/// best-arch bookkeeping. Valid while both stamps match. Its per-node
/// gains and per-arch δ are the plan's rows of the scheduler's
/// `plan_gain` and `plan_delta` arrays.
#[derive(Clone, Copy, Debug)]
struct PushPlan {
    /// Gain-tracker epoch the plan was computed at.
    epoch: u64,
    /// Performance-model version the plan was computed at.
    model_version: u64,
    best_arch: ArchId,
    delta_best: f64,
    node_mask: u64,
    brw_mask: u64,
}

/// The MultiPrio scheduler (see crate docs).
#[derive(Debug)]
pub struct MultiPrioScheduler {
    cfg: MultiPrioConfig,
    heaps: Vec<ScoredHeap>,
    ready_count: Vec<usize>,
    best_remaining_work: Vec<f64>,
    /// `hd(a)`, owned alone or shared with sibling shard instances.
    gain: Arc<GainTracker>,
    nod_norm: NodNormalizer,
    /// Per-task slab, indexed by `TaskId`.
    slab: Vec<TaskSlot>,
    /// Live (pushed, not yet taken) tasks.
    pending: usize,
    /// Push-plan arena; slots refer into it by index. Plans are refreshed
    /// in place when stale, never removed, so indices stay valid.
    plan_arena: Vec<PushPlan>,
    /// Plan `i`'s gain score per memory-node index, in row `i` of
    /// `plan_nodes` entries (meaningful where its `node_mask` is set).
    /// One flat array for all plans, so a plan-cache miss allocates
    /// nothing beyond amortized growth.
    plan_gain: Vec<f64>,
    /// Plan `i`'s δ per architecture index, in row `i` of `plan_archs`
    /// entries; NaN where the task has no implementation. Lets the pop
    /// condition skip the performance-model query (and its kernel-name
    /// hashing) entirely while the model version is unchanged.
    plan_delta: Vec<f64>,
    /// Row widths of `plan_gain` and `plan_delta`: the platform's
    /// memory-node and architecture counts, fixed by the first plan.
    plan_nodes: usize,
    plan_archs: usize,
    /// Key → arena index of the push-plan cache (see [`PushPlan`]).
    plans: HashMap<PlanKey, u32, BuildHasherDefault<FxHasher64>>,
    /// Diagnostics: evictions performed (for the Fig. 4 analysis).
    evictions: u64,
    /// Diagnostics: pops rejected by the pop condition.
    holds: u64,
    /// Observability counters (push-plan-arena hits and misses). A
    /// no-op ZST unless built with `mp-trace/obs`.
    obs: mp_trace::ObsCell,
    /// Decision-provenance ring; populated only with `mp-trace/obs`.
    provenance: ProvenanceRing,
    /// Quarantined workers (worker failure), indexed by worker id. All
    /// `false` in fault-free runs, in which case every alive-filtered
    /// path below reduces to the original computation bit for bit.
    disabled: Vec<bool>,
    /// `true` once any worker was disabled (fast path guard).
    any_disabled: bool,
    /// Memory nodes whose workers are all disabled (bit = node index).
    /// Such a node's heap is unreachable: plans must not enqueue there.
    dead_nodes: u64,
    // Scratch buffers, reused across calls so the steady-state push/pop
    // paths never allocate (verified by tests/alloc_free.rs).
    window: Vec<(TaskId, Score)>,
    skip: Vec<TaskId>,
    archs: Vec<(ArchId, f64)>,
}

impl MultiPrioScheduler {
    /// Create with a config (panics on invalid hyperparameters).
    pub fn new(cfg: MultiPrioConfig) -> Self {
        cfg.validate().expect("invalid MultiPrio configuration");
        Self {
            cfg,
            heaps: Vec::new(),
            ready_count: Vec::new(),
            best_remaining_work: Vec::new(),
            gain: Arc::new(GainTracker::new()),
            nod_norm: NodNormalizer::new(),
            slab: Vec::new(),
            pending: 0,
            plan_arena: Vec::new(),
            plan_gain: Vec::new(),
            plan_delta: Vec::new(),
            plan_nodes: 0,
            plan_archs: 0,
            plans: HashMap::default(),
            evictions: 0,
            holds: 0,
            obs: mp_trace::ObsCell::new(),
            provenance: ProvenanceRing::default(),
            disabled: Vec::new(),
            any_disabled: false,
            dead_nodes: 0,
            window: Vec::new(),
            skip: Vec::new(),
            archs: Vec::new(),
        }
    }

    /// Paper-default configuration.
    pub fn with_defaults() -> Self {
        Self::new(MultiPrioConfig::default())
    }

    /// Like [`Self::new`], but reading gain scores from a tracker shared
    /// with sibling instances — used by sharded front-ends so every shard
    /// orders its heaps by the global gain (see [`GainTracker`]).
    pub fn with_shared_gain(cfg: MultiPrioConfig, gain: Arc<GainTracker>) -> Self {
        Self {
            gain,
            ..Self::new(cfg)
        }
    }

    /// Evictions performed so far (diagnostics).
    pub fn eviction_count(&self) -> u64 {
        self.evictions
    }

    /// Pop-condition rejections so far (diagnostics).
    pub fn hold_count(&self) -> u64 {
        self.holds
    }

    /// The decision-provenance ring (empty unless built with
    /// `mp-trace/obs`). See [`ProvenanceRing::explain`] for the "why
    /// was this worker idle" drill-down.
    pub fn provenance(&self) -> &ProvenanceRing {
        &self.provenance
    }

    /// `ready_tasks_count[m]`.
    pub fn ready_tasks_count(&self, m: MemNodeId) -> usize {
        self.ready_count.get(m.index()).copied().unwrap_or(0)
    }

    /// `best_remaining_work[m]` in µs.
    pub fn best_remaining_work(&self, m: MemNodeId) -> f64 {
        self.best_remaining_work
            .get(m.index())
            .copied()
            .unwrap_or(0.0)
    }

    fn ensure(&mut self, mem_nodes: usize) {
        assert!(
            mem_nodes <= 64,
            "node-membership bitmasks support at most 64 memory nodes"
        );
        if self.heaps.len() < mem_nodes {
            self.heaps.resize_with(mem_nodes, ScoredHeap::new);
            self.ready_count.resize(mem_nodes, 0);
            self.best_remaining_work.resize(mem_nodes, 0.0);
        }
    }

    fn slot(&self, t: TaskId) -> &TaskSlot {
        &self.slab[t.index()]
    }

    /// δ of plan `p` on arch `a`; NaN where the task has no
    /// implementation.
    fn plan_delta(&self, p: u32, a: ArchId) -> f64 {
        let row = p as usize * self.plan_archs;
        self.plan_delta[row..row + self.plan_archs]
            .get(a.index())
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// Gain score of plan `p` on memory node `m`.
    fn plan_gain(&self, p: u32, m: MemNodeId) -> f64 {
        let row = p as usize * self.plan_nodes;
        self.plan_gain[row..row + self.plan_nodes]
            .get(m.index())
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// Workers of memory node `i` still alive — the `brw_per_worker`
    /// divisor. Equals the platform count until a worker is disabled.
    fn alive_workers_on(&self, view: &SchedView<'_>, i: usize) -> usize {
        let ws = view.platform().workers_on_node(MemNodeId::from_index(i));
        if !self.any_disabled {
            return ws.len();
        }
        ws.iter()
            .filter(|w| !self.disabled.get(w.index()).copied().unwrap_or(false))
            .count()
    }

    /// Lazily delete `t`'s entry from heap `m` (the eviction mechanism):
    /// clear the membership bit and note one stale entry — O(1).
    fn evict_entry(&mut self, t: TaskId, m: MemNodeId) {
        let slot = &mut self.slab[t.index()];
        let bit = 1u64 << m.index();
        debug_assert!(slot.node_mask & bit != 0, "evicting a non-member");
        slot.node_mask &= !bit;
        self.ready_count[m.index()] -= 1;
        self.heaps[m.index()].note_stale(1);
    }

    /// `get_most_local_prio_task`: the most data-local live task among the
    /// top-`n` live entries of `m`'s heap whose gain is within ε of the
    /// best, ignoring `skip`. Stale entries are skipped by the heap walk
    /// itself (and compacted away once they are the majority).
    fn select_candidate(
        &mut self,
        m: MemNodeId,
        view: &SchedView<'_>,
        skip: &[TaskId],
    ) -> Option<TaskId> {
        // With nothing to skip, the heap can truncate the window at the
        // ε-band edge itself (the competition below never looks past it).
        // With a non-empty skip list the band's reference entry is the
        // first *non-skipped* one, which only the loop below can find, so
        // the heap must produce the full window.
        let (k, eps) = if skip.is_empty() {
            if self.cfg.use_locality {
                (self.cfg.locality_window, self.cfg.epsilon)
            } else {
                (1, f64::INFINITY)
            }
        } else {
            (self.cfg.locality_window + skip.len(), f64::INFINITY)
        };
        let bit = 1u64 << m.index();
        {
            let Self {
                heaps,
                slab,
                window,
                ..
            } = self;
            heaps[m.index()].top_band_into(k, eps, window, |t, gen| {
                let s = &slab[t.index()];
                s.live && s.gen == gen && s.node_mask & bit != 0
            });
        }
        // Lone candidate: it wins any locality competition by default.
        if skip.is_empty() && self.window.len() == 1 {
            return Some(self.window[0].0);
        }
        // The window is the live top-k in descending order; the first
        // non-skipped entry is the reference score for the ε-band.
        let mut top: Option<Score> = None;
        let mut best: Option<TaskId> = None;
        let mut best_loc = f64::NEG_INFINITY;
        for &(t, s) in &self.window {
            if skip.contains(&t) {
                continue;
            }
            let top_s = *top.get_or_insert(s);
            if !self.cfg.use_locality {
                return Some(t);
            }
            if top_s.gain - s.gain > self.cfg.epsilon {
                break; // window is sorted by score: all further are worse
            }
            // Locality competition among near-top entries (Sec. V-C).
            let l = ls_sdh2(view.graph(), view.loc, t, m);
            if l > best_loc {
                best_loc = l;
                best = Some(t);
            }
        }
        best
    }

    /// The pop condition (Sec. V-D): the requesting arch is the task's
    /// best arch, or the best arch's backlog exceeds the local estimate.
    fn pop_condition(&self, t: TaskId, w_arch: ArchId, view: &SchedView<'_>) -> bool {
        let slot = self.slot(t);
        if slot.best_arch == w_arch {
            return true;
        }
        // The push plan already holds δ for every arch; only fall back to
        // a live model query if the model has learned since the push.
        let plan = &self.plan_arena[slot.plan as usize];
        let delta_here = if plan.model_version == view.est.model_version() {
            let d = self.plan_delta(slot.plan, w_arch);
            if d.is_nan() {
                return false;
            }
            d
        } else {
            match view.est.delta(t, w_arch) {
                Some(d) => d,
                None => return false,
            }
        };
        let mut brw_best = 0.0f64;
        let mut bm = slot.brw_mask;
        while bm != 0 {
            let i = bm.trailing_zeros() as usize;
            bm &= bm - 1;
            let total = self.best_remaining_work[i];
            let v = if self.cfg.brw_per_worker {
                let nw = self.alive_workers_on(view, i);
                total / nw.max(1) as f64
            } else {
                total
            };
            brw_best = brw_best.max(v);
        }
        // The best workers have enough queued work that letting this
        // slower worker proceed shortens the makespan.
        if brw_best <= delta_here {
            return false;
        }
        // Energy extension (Sec. VII): the steal must also be affordable
        // in Joules.
        if let Some(policy) = &self.cfg.energy {
            return policy.allows(
                view.platform(),
                w_arch,
                delta_here,
                slot.best_arch,
                slot.delta_best,
            );
        }
        true
    }

    /// Take a task for execution: retire the slab slot (every heap entry
    /// of this generation goes stale in place) and settle the
    /// `best_remaining_work` credit (exactly what PUSH added).
    fn take(&mut self, t: TaskId) {
        let slot = &mut self.slab[t.index()];
        debug_assert!(slot.live, "taking a live task");
        slot.live = false;
        slot.gen = slot.gen.wrapping_add(1);
        let mut nm = slot.node_mask;
        let mut bm = slot.brw_mask;
        let delta_best = slot.delta_best;
        slot.node_mask = 0;
        slot.brw_mask = 0;
        while nm != 0 {
            let i = nm.trailing_zeros() as usize;
            nm &= nm - 1;
            self.ready_count[i] -= 1;
            self.heaps[i].note_stale(1);
        }
        while bm != 0 {
            let i = bm.trailing_zeros() as usize;
            bm &= bm - 1;
            let brw = &mut self.best_remaining_work[i];
            *brw = (*brw - delta_best).max(0.0);
        }
        self.pending -= 1;
    }

    /// Provenance payload for a task about to be taken (obs builds only).
    fn taken_outcome(&self, t: TaskId, w_arch: ArchId, w_m: MemNodeId) -> PopOutcome {
        let slot = self.slot(t);
        PopOutcome::Taken {
            task: t,
            best_arch: slot.best_arch,
            delta_best: slot.delta_best,
            delta_here: self.plan_delta(slot.plan, w_arch),
            node_gain: self.plan_gain(slot.plan, w_m),
        }
    }

    /// Provenance payload for a held-back task (obs builds only):
    /// recomputes the backlog the pop condition compared against.
    fn held_outcome(
        &self,
        t: TaskId,
        w_arch: ArchId,
        evicted: bool,
        view: &SchedView<'_>,
    ) -> PopOutcome {
        let slot = self.slot(t);
        let mut backlog = 0.0f64;
        let mut bm = slot.brw_mask;
        while bm != 0 {
            let i = bm.trailing_zeros() as usize;
            bm &= bm - 1;
            let total = self.best_remaining_work[i];
            let v = if self.cfg.brw_per_worker {
                let nw = self.alive_workers_on(view, i);
                total / nw.max(1) as f64
            } else {
                total
            };
            backlog = backlog.max(v);
        }
        PopOutcome::Held {
            task: t,
            best_arch: slot.best_arch,
            delta_best: slot.delta_best,
            delta_here: self.plan_delta(slot.plan, w_arch),
            backlog,
            evicted,
        }
    }

    /// Fetch the cached push plan for `key` (by arena index), recomputing
    /// it in place when the gain epoch or model version moved
    /// (Algorithm 1's score computation).
    fn plan_for(&mut self, t: TaskId, key: PlanKey, view: &SchedView<'_>) -> u32 {
        let epoch = self.gain.epoch();
        let model_version = view.est.model_version();
        let cached = self.plans.get(&key).copied();
        if let Some(idx) = cached {
            let p = &self.plan_arena[idx as usize];
            if p.epoch == epoch && p.model_version == model_version {
                self.obs.bump(mp_trace::Counter::ArenaHits);
                return idx;
            }
        }
        self.obs.bump(mp_trace::Counter::ArenaMisses);
        let platform = view.platform();
        let mut archs = std::mem::take(&mut self.archs);
        view.est.archs_by_delta_into(t, &mut archs);
        // After a node death, an architecture whose memory nodes are all
        // dead must not win `best_arch`: its `best_remaining_work` credit
        // would land nowhere and the pop condition could hold the task
        // forever. Filter it out before ranking (no-op in fault-free runs).
        if self.dead_nodes != 0 {
            let dead = self.dead_nodes;
            archs.retain(|&(a, _)| {
                platform.mem_nodes().iter().any(|mem| {
                    mem.arch == a
                        && dead & (1u64 << mem.id.index()) == 0
                        && !platform.workers_on_node(mem.id).is_empty()
                })
            });
        }
        assert!(
            !archs.is_empty(),
            "task {t:?} has no executable architecture on the surviving platform"
        );
        // Observing identical estimates is idempotent on the running
        // maxima, so skipping it on cache hits changes nothing. The plan
        // is stamped with the epoch read before its gains (see
        // `GainTracker::epoch`).
        self.gain.observe(&archs);
        let epoch = self.gain.epoch();
        let (best_arch, delta_best) = archs[0];
        let (nodes, arch_count) = (platform.mem_node_count(), platform.arch_count());
        if self.plan_arena.is_empty() {
            self.plan_nodes = nodes;
            self.plan_archs = arch_count;
        }
        assert!(
            (nodes, arch_count) == (self.plan_nodes, self.plan_archs),
            "a MultiPrio instance schedules on one platform"
        );
        let idx = match cached {
            Some(i) => i,
            None => {
                let i = u32::try_from(self.plan_arena.len()).expect("plan arena overflow");
                // A blank plan, filled in below like a stale one refreshed
                // in place.
                self.plan_arena.push(PushPlan {
                    epoch: 0,
                    model_version: 0,
                    best_arch,
                    delta_best,
                    node_mask: 0,
                    brw_mask: 0,
                });
                let rows = self.plan_arena.len();
                self.plan_gain.resize(rows * nodes, 0.0);
                self.plan_delta.resize(rows * arch_count, f64::NAN);
                self.plans.insert(key, i);
                i
            }
        };
        let row = idx as usize;
        let deltas = &mut self.plan_delta[row * arch_count..(row + 1) * arch_count];
        deltas.fill(f64::NAN);
        for &(a, d) in &archs {
            deltas[a.index()] = d;
        }
        let gains = &mut self.plan_gain[row * nodes..(row + 1) * nodes];
        gains.fill(0.0);
        let mut node_mask = 0u64;
        let mut brw_mask = 0u64;
        for mem in platform.mem_nodes() {
            let a = mem.arch;
            let bit = 1u64 << mem.id.index();
            // `can_exec(t, a) and get_worker_count(a) > 0`, per node —
            // counting only surviving workers. `archs` holds exactly the
            // archs that can run `t` and have a worker, and a node's
            // workers share its arch, so membership in it is `can_exec`
            // without a second model query.
            if platform.workers_on_node(mem.id).is_empty()
                || self.dead_nodes & bit != 0
                || !archs.iter().any(|&(x, _)| x == a)
            {
                continue;
            }
            node_mask |= bit;
            gains[mem.id.index()] = self.gain.gain(&archs, a);
            if a == best_arch {
                brw_mask |= bit;
            }
        }
        assert!(node_mask != 0, "task {t:?} enqueued nowhere");
        self.plan_arena[row] = PushPlan {
            epoch,
            model_version,
            best_arch,
            delta_best,
            node_mask,
            brw_mask,
        };
        self.archs = archs;
        idx
    }
}

impl Scheduler for MultiPrioScheduler {
    fn name(&self) -> &'static str {
        "multiprio"
    }

    /// Algorithm 1.
    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let platform = view.platform();
        self.ensure(platform.mem_node_count());
        if self.slab.len() <= t.index() {
            self.slab.resize(t.index() + 1, TaskSlot::default());
        }
        if self.any_disabled {
            // After a failure the surviving platform may have lost every
            // implementation of this task's type. Hold the task as pending
            // without bucketing it anywhere: the engine's capability sweep
            // (which runs right after the failure hooks) raises the typed
            // `NoCapableWorker` error, and must win over a scheduler panic.
            let capable = (0..platform.worker_count()).any(|xi| {
                !self.disabled[xi] && view.delta_on_worker(t, WorkerId::from_index(xi)).is_some()
            });
            if !capable {
                self.pending += 1;
                return;
            }
        }
        let task = view.graph().task(t);
        let key = PlanKey {
            ttype: task.ttype,
            footprint: view.graph().footprint(t),
            flops_bits: task.flops.to_bits(),
        };
        let plan_idx = self.plan_for(t, key, view);
        let raw_nod = if self.cfg.use_criticality {
            nod(view.graph(), t)
        } else {
            0.0
        };
        let prio = self.nod_norm.normalize(raw_nod);

        let plan = self.plan_arena[plan_idx as usize];
        let (node_mask, brw_mask) = (plan.node_mask, plan.brw_mask);
        let (best_arch, delta_best) = (plan.best_arch, plan.delta_best);
        let slot = &mut self.slab[t.index()];
        debug_assert!(!slot.live, "task {t:?} pushed while already live");
        slot.live = true;
        slot.node_mask = node_mask;
        slot.brw_mask = brw_mask;
        slot.best_arch = best_arch;
        slot.delta_best = delta_best;
        slot.plan = plan_idx;
        let gen = slot.gen;
        let mut nm = node_mask;
        while nm != 0 {
            let i = nm.trailing_zeros() as usize;
            nm &= nm - 1;
            let gain = self.plan_gain[plan_idx as usize * self.plan_nodes + i];
            self.heaps[i].push(t, gen, Score::new(gain, prio));
            self.ready_count[i] += 1;
        }
        let mut bm = brw_mask;
        while bm != 0 {
            let i = bm.trailing_zeros() as usize;
            bm &= bm - 1;
            self.best_remaining_work[i] += delta_best;
        }
        self.pending += 1;
    }

    /// Algorithm 2.
    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let platform = view.platform();
        self.ensure(platform.mem_node_count());
        let worker = platform.worker(w);
        let (w_arch, w_m) = (worker.arch, worker.mem_node);
        // No live entry on this node: every entry its heap still holds is
        // a stale duplicate, so no walk can find a candidate. Drop them
        // all at once and answer in O(1) — the engines ask every idle
        // worker, and most of their pops land here.
        if self.ready_count[w_m.index()] == 0 {
            self.heaps[w_m.index()].clear();
            if mp_trace::obs::obs_enabled() {
                self.window.clear();
                self.provenance
                    .record(view.now, w, w_m, &self.window, PopOutcome::Empty);
            }
            return None;
        }
        let mut skip = std::mem::take(&mut self.skip);
        skip.clear();
        let mut found = None;
        for _ in 0..self.cfg.max_tries {
            let Some(t) = self.select_candidate(w_m, view, &skip) else {
                // An exhausted heap with work elsewhere is exactly the
                // "why was this worker idle" case the provenance ring
                // answers — record it (obs builds only; the check
                // constant-folds to nothing otherwise).
                if mp_trace::obs::obs_enabled() {
                    self.provenance
                        .record(view.now, w, w_m, &self.window, PopOutcome::Empty);
                }
                break;
            };
            if !self.cfg.eviction || self.pop_condition(t, w_arch, view) {
                if mp_trace::obs::obs_enabled() {
                    let outcome = self.taken_outcome(t, w_arch, w_m);
                    self.provenance
                        .record(view.now, w, w_m, &self.window, outcome);
                }
                self.take(t);
                found = Some(t);
                break;
            }
            self.holds += 1;
            // Reject: evict from this queue so another node's worker picks
            // it up — unless this heap holds the last live entry.
            let bit = 1u64 << w_m.index();
            let evict = self.slot(t).node_mask & !bit != 0;
            if mp_trace::obs::obs_enabled() {
                let outcome = self.held_outcome(t, w_arch, evict, view);
                self.provenance
                    .record(view.now, w, w_m, &self.window, outcome);
            }
            if evict {
                self.evict_entry(t, w_m);
                self.evictions += 1;
            } else {
                skip.push(t);
            }
        }
        self.skip = skip;
        found
    }

    fn pending(&self) -> usize {
        self.pending
    }

    /// Quarantine `w`. While the worker's memory node keeps at least one
    /// survivor nothing structural changes — the shared heap stays
    /// reachable and only the `brw_per_worker` divisor shrinks. When the
    /// *last* worker of a node dies, its heap becomes unreachable, so
    /// every live task is retired and re-pushed against the surviving
    /// nodes (recomputing node/brw masks, gains, and best arch), and the
    /// push-plan cache is dropped because every cached plan baked the
    /// dead node into its masks.
    fn worker_disabled(&mut self, w: WorkerId, view: &SchedView<'_>) {
        let platform = view.platform();
        self.ensure(platform.mem_node_count());
        let n = platform.worker_count();
        if self.disabled.len() < n {
            self.disabled.resize(n, false);
        }
        if self.disabled[w.index()] {
            return;
        }
        self.disabled[w.index()] = true;
        self.any_disabled = true;
        let m = platform.worker(w).mem_node;
        let node_dead = platform
            .workers_on_node(m)
            .iter()
            .all(|x| self.disabled[x.index()]);
        if !node_dead || self.dead_nodes & (1u64 << m.index()) != 0 {
            return;
        }
        self.dead_nodes |= 1u64 << m.index();
        self.plans.clear();
        let live: Vec<TaskId> = self
            .slab
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, _)| TaskId(i as u32))
            .collect();
        for h in &mut self.heaps {
            *h = ScoredHeap::new();
        }
        self.ready_count.iter_mut().for_each(|c| *c = 0);
        self.best_remaining_work.iter_mut().for_each(|b| *b = 0.0);
        for &t in &live {
            let slot = &mut self.slab[t.index()];
            slot.live = false;
            slot.gen = slot.gen.wrapping_add(1);
            slot.node_mask = 0;
            slot.brw_mask = 0;
        }
        self.pending -= live.len();
        // Re-push in TaskId order: deterministic regardless of the order
        // tasks originally arrived in.
        for &t in &live {
            self.push(t, None, view);
        }
    }

    fn counters(&self) -> mp_trace::CounterSnapshot {
        let mut snap = self.obs.snapshot();
        if mp_trace::obs::obs_enabled() {
            snap.holds = self.holds;
            snap.evictions = self.evictions;
            snap.heap_compactions = self.heaps.iter().map(ScoredHeap::compaction_count).sum();
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_sched::testutil::Fixture;

    fn sched() -> MultiPrioScheduler {
        MultiPrioScheduler::with_defaults()
    }

    #[test]
    fn duplicates_across_heaps_and_lazy_scrub() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 64, "t");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = sched();
        s.push(t, None, &view);
        assert_eq!(
            s.ready_tasks_count(MemNodeId(0)),
            1,
            "entry in the CPU heap"
        );
        assert_eq!(
            s.ready_tasks_count(MemNodeId(1)),
            1,
            "duplicate in the GPU heap"
        );
        // GPU (best arch) takes it; both entries disappear.
        assert_eq!(s.pop(g0, &view), Some(t));
        assert_eq!(s.ready_tasks_count(MemNodeId(0)), 0);
        assert_eq!(s.ready_tasks_count(MemNodeId(1)), 0);
        assert_eq!(s.pop(c0, &view), None);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn pop_on_a_node_with_no_live_entry_is_empty_and_clears_its_heap() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 64, "t");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = sched();
        s.push(t, None, &view);
        assert_eq!(s.pop(g0, &view), Some(t));
        // The CPU heap still holds t's duplicate, now stale.
        assert_eq!(s.ready_tasks_count(MemNodeId(0)), 0);
        assert_eq!(s.heaps[0].len(), 1);
        let (holds, evictions) = (s.hold_count(), s.eviction_count());
        assert_eq!(s.pop(c0, &view), None);
        assert_eq!(s.hold_count(), holds, "no candidate was held");
        assert_eq!(s.eviction_count(), evictions, "nothing was evicted");
        assert_eq!(s.heaps[0].len(), 0, "the stale entry is dropped");
        if mp_trace::obs::obs_enabled() {
            let last = s.provenance().iter().last().expect("a recorded pop");
            assert_eq!(last.worker, c0);
            assert!(matches!(last.outcome, PopOutcome::Empty));
            assert!(last.window.is_empty());
        }
    }

    #[test]
    fn best_arch_worker_always_allowed() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 64, "t");
        let view = fx.view();
        let (_, _, g0) = fx.workers();
        let mut s = sched();
        s.push(t, None, &view);
        assert_eq!(s.pop(g0, &view), Some(t));
    }

    #[test]
    fn pop_condition_holds_back_slow_worker_when_gpu_nearly_free() {
        let mut fx = Fixture::two_arch();
        // One GPU-accelerated task: δ_gpu = 10, δ_cpu = 100.
        let t = fx.add_task(fx.both, 64, "t");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = sched();
        s.push(t, None, &view);
        // best_remaining_work[gpu] = 10 < δ_cpu = 100: CPU must not take it.
        assert_eq!(s.pop(c0, &view), None, "cpu is held back");
        assert_eq!(s.hold_count(), 1);
        assert_eq!(s.pop(g0, &view), Some(t), "gpu still gets it");
    }

    #[test]
    fn slow_worker_allowed_when_best_arch_is_backlogged() {
        let mut fx = Fixture::two_arch();
        // 30 accelerated tasks: brw_gpu = 300 µs > δ_cpu = 100 µs.
        let tasks: Vec<_> = (0..30)
            .map(|i| fx.add_task(fx.both, 64, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mut s = sched();
        for &t in &tasks {
            s.push(t, None, &view);
        }
        assert!(s.best_remaining_work(MemNodeId(1)) >= 300.0 - 1e-9);
        let got = s.pop(c0, &view);
        assert!(got.is_some(), "cpu may help when the gpu queue is long");
    }

    #[test]
    fn eviction_disabled_lets_anyone_pop() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 64, "t");
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mut s = MultiPrioScheduler::new(MultiPrioConfig::without_eviction());
        s.push(t, None, &view);
        assert_eq!(
            s.pop(c0, &view),
            Some(t),
            "no pop condition without eviction"
        );
    }

    #[test]
    fn eviction_removes_local_entry_but_keeps_duplicates() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 64, "t");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = sched();
        s.push(t, None, &view);
        // CPU pop rejected -> eviction from the CPU heap.
        assert_eq!(s.pop(c0, &view), None);
        assert_eq!(s.eviction_count(), 1);
        assert_eq!(
            s.ready_tasks_count(MemNodeId(0)),
            0,
            "evicted from CPU heap"
        );
        assert_eq!(s.ready_tasks_count(MemNodeId(1)), 1, "still in GPU heap");
        assert_eq!(s.pop(g0, &view), Some(t));
    }

    #[test]
    fn last_replica_is_never_evicted() {
        let mut fx = Fixture::two_arch();
        // GPU-only task lives solely in the GPU heap; a (hypothetically
        // rejected) GPU pop must not evict it. Here the GPU *is* the best
        // arch so it pops fine — instead test a cpu-only task on CPU.
        let t = fx.add_task(fx.cpu_only, 64, "t");
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mut s = sched();
        s.push(t, None, &view);
        // CPU is the best (only) arch: allowed immediately.
        assert_eq!(s.pop(c0, &view), Some(t));
        assert_eq!(s.eviction_count(), 0);
    }

    #[test]
    fn gpu_prefers_high_gain_task() {
        let mut fx = Fixture::two_arch();
        // FAST10: 10× gpu speedup; FLAT: none. GPU should take FAST10 first
        // even though FLAT was pushed first.
        let flat = fx.graph.register_type("FLAT", true, true);
        fx.model = mp_perfmodel::TableModel::builder()
            .set(
                "BOTH",
                mp_platform::types::ArchClass::Cpu,
                mp_perfmodel::TimeFn::Const(100.0),
            )
            .set(
                "BOTH",
                mp_platform::types::ArchClass::Gpu,
                mp_perfmodel::TimeFn::Const(10.0),
            )
            .set(
                "FLAT",
                mp_platform::types::ArchClass::Cpu,
                mp_perfmodel::TimeFn::Const(50.0),
            )
            .set(
                "FLAT",
                mp_platform::types::ArchClass::Gpu,
                mp_perfmodel::TimeFn::Const(50.0),
            )
            .build();
        let t_flat = fx.add_task(flat, 64, "flat");
        let t_fast = fx.add_task(fx.both, 64, "fast");
        let view = fx.view();
        let (_, _, g0) = fx.workers();
        let mut s = sched();
        s.push(t_flat, None, &view);
        s.push(t_fast, None, &view);
        assert_eq!(s.pop(g0, &view), Some(t_fast));
    }

    #[test]
    fn locality_breaks_near_ties() {
        let mut fx = Fixture::two_arch();
        // Two equal-speed GPU tasks; one has its (written) data already on
        // the GPU node.
        let d0 = fx.graph.add_data(1 << 20, "remote");
        let d1 = fx.graph.add_data(1 << 20, "local");
        let t_remote = fx.graph.add_task(
            fx.gpu_only,
            vec![(d0, mp_dag::AccessMode::ReadWrite)],
            1.0,
            "r",
        );
        let t_local = fx.graph.add_task(
            fx.gpu_only,
            vec![(d1, mp_dag::AccessMode::ReadWrite)],
            1.0,
            "l",
        );
        fx.locator.place(d1, MemNodeId(1));
        let view = fx.view();
        let (_, _, g0) = fx.workers();
        let mut s = sched();
        s.push(t_remote, None, &view);
        s.push(t_local, None, &view);
        assert_eq!(s.pop(g0, &view), Some(t_local), "local data wins within ε");
        assert_eq!(s.pop(g0, &view), Some(t_remote));
    }

    #[test]
    fn criticality_orders_equal_gain_tasks() {
        let mut fx = Fixture::two_arch();
        // Same kernel => same gain; t_hub releases 3 successors, t_leaf 0.
        let t_leaf = fx.add_task(fx.cpu_only, 64, "leaf");
        let t_hub = fx.add_task(fx.cpu_only, 64, "hub");
        for i in 0..3 {
            let s = fx.add_task(fx.cpu_only, 64, &format!("s{i}"));
            fx.graph.add_edge(t_hub, s);
        }
        // Disable locality so the heap order alone decides.
        let mut s = MultiPrioScheduler::new(MultiPrioConfig::without_locality());
        let view = fx.view();
        let (c0, ..) = fx.workers();
        s.push(t_leaf, None, &view);
        s.push(t_hub, None, &view);
        assert_eq!(s.pop(c0, &view), Some(t_hub), "higher NOD first");
        assert_eq!(s.pop(c0, &view), Some(t_leaf));
    }

    #[test]
    fn gpu_death_rebuckets_work_onto_cpu() {
        let mut fx = Fixture::two_arch();
        let t = fx.add_task(fx.both, 64, "t");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = sched();
        s.push(t, None, &view);
        // Fault-free the CPU is held back (δ_gpu = 10 ≪ δ_cpu = 100) and
        // the rejected entry is evicted from the CPU heap.
        assert_eq!(s.pop(c0, &view), None);
        s.worker_disabled(g0, &view);
        assert_eq!(s.ready_tasks_count(MemNodeId(1)), 0, "gpu heap dropped");
        assert_eq!(
            s.ready_tasks_count(MemNodeId(0)),
            1,
            "task re-bucketed to the surviving node"
        );
        assert_eq!(s.pop(c0, &view), Some(t), "cpu inherits the work");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn best_remaining_work_settles_to_zero() {
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..5)
            .map(|i| fx.add_task(fx.both, 64, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let (_, _, g0) = fx.workers();
        let mut s = sched();
        for &t in &tasks {
            s.push(t, None, &view);
        }
        assert!((s.best_remaining_work(MemNodeId(1)) - 50.0).abs() < 1e-9);
        for _ in 0..5 {
            assert!(s.pop(g0, &view).is_some());
        }
        assert_eq!(s.best_remaining_work(MemNodeId(1)), 0.0);
        assert_eq!(s.pending(), 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use mp_sched::testutil::Fixture;
    /// All heap scores stay within [0, 1] while pushing a diverse stream.
    #[test]
    fn scores_stay_normalized() {
        let mut fx = Fixture::two_arch();
        let flat = fx.graph.register_type("FLAT2", true, true);
        fx.model = mp_perfmodel::TableModel::builder()
            .set(
                "BOTH",
                mp_platform::types::ArchClass::Cpu,
                mp_perfmodel::TimeFn::Const(100.0),
            )
            .set(
                "BOTH",
                mp_platform::types::ArchClass::Gpu,
                mp_perfmodel::TimeFn::Const(10.0),
            )
            .set(
                "FLAT2",
                mp_platform::types::ArchClass::Cpu,
                mp_perfmodel::TimeFn::Const(33.0),
            )
            .set(
                "FLAT2",
                mp_platform::types::ArchClass::Gpu,
                mp_perfmodel::TimeFn::Const(44.0),
            )
            .set(
                "CPUONLY",
                mp_platform::types::ArchClass::Cpu,
                mp_perfmodel::TimeFn::Const(50.0),
            )
            .build();
        let mut s = MultiPrioScheduler::with_defaults();
        for i in 0..30 {
            let tt = match i % 3 {
                0 => fx.both,
                1 => flat,
                _ => fx.cpu_only,
            };
            let t = fx.add_task(tt, 64, &format!("t{i}"));
            // Some fan-out edges to vary the NOD values.
            if i >= 3 {
                fx.graph.add_edge(mp_dag::TaskId(i - 3), t);
            }
            let view = fx.view();
            s.push(t, None, &view);
        }
        for m in [MemNodeId(0), MemNodeId(1)] {
            for (_, sc) in s.heaps[m.index()].iter() {
                assert!((0.0..=1.0).contains(&sc.gain), "gain {:?}", sc);
                assert!((0.0..=1.0).contains(&sc.prio), "prio {:?}", sc);
            }
        }
    }

    /// Taking a task leaves its duplicates physically in the other heaps
    /// as stale entries; counters treat them as gone immediately.
    #[test]
    fn stale_duplicates_scrubbed_in_window() {
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..5)
            .map(|i| fx.add_task(fx.both, 64, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let (_, _, g0) = fx.workers();
        let mut s = MultiPrioScheduler::with_defaults();
        for &t in &tasks {
            s.push(t, None, &view);
        }
        // GPU drains everything; each take lazily invalidates the CPU-heap
        // duplicate, so counters stay consistent throughout.
        for i in 0..5 {
            assert!(s.pop(g0, &view).is_some(), "pop {i}");
            assert_eq!(s.pending(), 4 - i);
        }
        assert_eq!(s.ready_tasks_count(MemNodeId(0)), 0);
        assert_eq!(s.ready_tasks_count(MemNodeId(1)), 0);
    }

    /// max_tries bounds the pop loop even when every candidate is
    /// rejected and none can be evicted.
    #[test]
    fn max_tries_bounds_rejections() {
        let mut fx = Fixture::two_arch();
        // Many GPU-favored tasks; a CPU pop with a tiny backlog must give
        // up after max_tries candidates, not loop forever.
        let cfg = MultiPrioConfig {
            max_tries: 3,
            ..MultiPrioConfig::default()
        };
        let mut s = MultiPrioScheduler::new(cfg);
        for i in 0..6 {
            let t = fx.add_task(fx.both, 64, &format!("t{i}"));
            let view = fx.view();
            s.push(t, None, &view);
        }
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let before = s.eviction_count();
        assert_eq!(s.pop(c0, &view), None);
        // Each rejected candidate was evicted from the CPU heap (its GPU
        // duplicate lives on), at most max_tries of them.
        assert!(s.eviction_count() - before <= 3);
        assert!(s.ready_tasks_count(MemNodeId(0)) >= 3);
        assert_eq!(s.ready_tasks_count(MemNodeId(1)), 6);
    }

    /// The energy-aware configuration is reachable through the public
    /// config and denies an over-budget steal end to end.
    #[test]
    fn energy_config_blocks_hot_steals() {
        let mut fx = Fixture::two_arch();
        // Big backlog so the plain condition passes; strict energy policy
        // (GPU barely hotter than CPU) then rejects the 10x-slower steal.
        let policy = crate::energy::EnergyPolicy {
            cpu_worker_watts: 10.0,
            gpu_device_watts: 12.0,
            max_energy_ratio: 1.5,
        };
        let cfg = MultiPrioConfig {
            energy: Some(policy),
            ..MultiPrioConfig::default()
        };
        let mut s = MultiPrioScheduler::new(cfg);
        let tasks: Vec<_> = (0..40)
            .map(|i| fx.add_task(fx.both, 64, &format!("t{i}")))
            .collect();
        let view = fx.view();
        for &t in &tasks {
            s.push(t, None, &view);
        }
        let (c0, ..) = fx.workers();
        // Backlog per GPU worker = 400 µs > δ_cpu = 100 µs, but energy:
        // 100 µs × 10 W = 1000 µJ > 1.5 × (10 µs × 12 W) = 180 µJ.
        assert_eq!(s.pop(c0, &view), None, "energy policy must deny the steal");
    }

    /// The push-plan cache returns bit-identical scores to an uncached
    /// push stream: drain order is unchanged when types repeat.
    #[test]
    fn plan_cache_is_transparent() {
        let mut fx = Fixture::two_arch();
        let tasks: Vec<_> = (0..12)
            .map(|i| fx.add_task(fx.both, 64, &format!("t{i}")))
            .collect();
        let view = fx.view();
        let (_, _, g0) = fx.workers();
        let mut cached = MultiPrioScheduler::with_defaults();
        let mut reference = crate::reference::ReferenceScheduler::with_defaults();
        for &t in &tasks {
            cached.push(t, None, &view);
            reference.push(t, None, &view);
        }
        loop {
            let a = cached.pop(g0, &view);
            let b = reference.pop(g0, &view);
            assert_eq!(a, b, "cached plans must not change the schedule");
            if a.is_none() {
                break;
            }
        }
    }
}
