//! The retained pre-slab MultiPrio implementation, kept verbatim as
//! `multiprio-reference`: the oracle the slab-backed
//! [`crate::MultiPrioScheduler`] is checked against.
//!
//! `tests/prop_invariants.rs` asserts that the two produce
//! **bit-identical pop sequences** on random DAGs, under a static and
//! under a learning model. As one of the named policies it also runs in
//! every sweep over them, the behavioural contract (`repro contract`)
//! included, which pins both to one replay hash on a 16k-task Cholesky
//! and a 16k-task FMM.
//!
//! It is the exact algorithm of Algorithms 1/2 with the original data
//! layout: per-task state in a `HashMap<TaskId, TaskInfo>`, eager heap
//! removal through [`RemovableMaxHeap`]'s task→slot index, and a fresh
//! `Vec` per `top_k` window. Keep it a plain transcription rather than a
//! fast one: an oracle is useful for being obviously the algorithm.

use std::collections::HashMap;

use mp_dag::ids::TaskId;
use mp_platform::types::{ArchId, MemNodeId, WorkerId};
use mp_sched::api::{SchedView, Scheduler};

use crate::config::MultiPrioConfig;
use crate::criticality::{nod, NodNormalizer};
use crate::heap::{RemovableMaxHeap, Score};
use crate::locality::ls_sdh2;
use crate::score::GainTracker;

/// Per-enqueued-task bookkeeping.
#[derive(Clone, Debug)]
struct TaskInfo {
    /// Memory nodes whose heap currently holds a live entry for the task.
    nodes: Vec<MemNodeId>,
    /// The task's fastest architecture.
    best_arch: ArchId,
    /// δ on the fastest architecture.
    delta_best: f64,
    /// Nodes whose `best_remaining_work` was credited at PUSH.
    brw_nodes: Vec<MemNodeId>,
}

/// The pre-slab MultiPrio scheduler (see module docs).
#[derive(Debug)]
pub struct ReferenceScheduler {
    cfg: MultiPrioConfig,
    heaps: Vec<RemovableMaxHeap>,
    ready_count: Vec<usize>,
    best_remaining_work: Vec<f64>,
    gain: GainTracker,
    nod_norm: NodNormalizer,
    /// Live (pushed, not yet taken) tasks.
    info: HashMap<TaskId, TaskInfo>,
}

impl ReferenceScheduler {
    /// Create with a config (panics on invalid hyperparameters).
    pub fn new(cfg: MultiPrioConfig) -> Self {
        cfg.validate().expect("invalid MultiPrio configuration");
        Self {
            cfg,
            heaps: Vec::new(),
            ready_count: Vec::new(),
            best_remaining_work: Vec::new(),
            gain: GainTracker::new(),
            nod_norm: NodNormalizer::new(),
            info: HashMap::new(),
        }
    }

    /// Paper-default configuration.
    pub fn with_defaults() -> Self {
        Self::new(MultiPrioConfig::default())
    }

    fn ensure(&mut self, mem_nodes: usize) {
        if self.heaps.len() < mem_nodes {
            self.heaps.resize_with(mem_nodes, RemovableMaxHeap::new);
            self.ready_count.resize(mem_nodes, 0);
            self.best_remaining_work.resize(mem_nodes, 0.0);
        }
    }

    fn is_live(&self, t: TaskId) -> bool {
        self.info.contains_key(&t)
    }

    fn remove_entry(&mut self, t: TaskId, m: MemNodeId) -> bool {
        if self.heaps[m.index()].remove(t).is_some() {
            self.ready_count[m.index()] -= 1;
            if let Some(info) = self.info.get_mut(&t) {
                info.nodes.retain(|&n| n != m);
            }
            true
        } else {
            false
        }
    }

    fn select_candidate(
        &mut self,
        m: MemNodeId,
        view: &SchedView<'_>,
        skip: &[TaskId],
    ) -> Option<TaskId> {
        loop {
            let window = self.heaps[m.index()].top_k(self.cfg.locality_window + skip.len());
            if window.is_empty() {
                return None;
            }
            let stale: Vec<TaskId> = window
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| !self.is_live(t))
                .collect();
            if !stale.is_empty() {
                for t in stale {
                    self.remove_entry(t, m);
                }
                continue;
            }
            let live: Vec<(TaskId, Score)> = window
                .into_iter()
                .filter(|(t, _)| !skip.contains(t))
                .collect();
            let &(first, top) = live.first()?;
            if !self.cfg.use_locality {
                return Some(first);
            }
            let mut best = first;
            let mut best_loc = f64::NEG_INFINITY;
            for &(t, s) in &live {
                if top.gain - s.gain > self.cfg.epsilon {
                    break;
                }
                let l = ls_sdh2(view.graph(), view.loc, t, m);
                if l > best_loc {
                    best_loc = l;
                    best = t;
                }
            }
            return Some(best);
        }
    }

    fn pop_condition(&self, t: TaskId, w_arch: ArchId, view: &SchedView<'_>) -> bool {
        let info = &self.info[&t];
        if info.best_arch == w_arch {
            return true;
        }
        let delta_here = match view.est.delta(t, w_arch) {
            Some(d) => d,
            None => return false,
        };
        let brw_best = info
            .brw_nodes
            .iter()
            .map(|&m| {
                let total = self.best_remaining_work[m.index()];
                if self.cfg.brw_per_worker {
                    total / view.platform().workers_on_node(m).len().max(1) as f64
                } else {
                    total
                }
            })
            .fold(0.0f64, f64::max);
        if brw_best <= delta_here {
            return false;
        }
        if let Some(policy) = &self.cfg.energy {
            return policy.allows(
                view.platform(),
                w_arch,
                delta_here,
                info.best_arch,
                info.delta_best,
            );
        }
        true
    }

    fn take(&mut self, t: TaskId) {
        let info = self.info.remove(&t).expect("taking a live task");
        for m in info.nodes {
            if self.heaps[m.index()].remove(t).is_some() {
                self.ready_count[m.index()] -= 1;
            }
        }
        for m in info.brw_nodes {
            let slot = &mut self.best_remaining_work[m.index()];
            *slot = (*slot - info.delta_best).max(0.0);
        }
    }
}

impl Scheduler for ReferenceScheduler {
    fn name(&self) -> &'static str {
        "multiprio-reference"
    }

    /// Algorithm 1, original layout.
    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let platform = view.platform();
        self.ensure(platform.mem_node_count());
        let archs = view.est.archs_by_delta(t);
        assert!(
            !archs.is_empty(),
            "task {t:?} has no executable architecture on this platform"
        );
        self.gain.observe(&archs);
        let raw_nod = if self.cfg.use_criticality {
            nod(view.graph(), t)
        } else {
            0.0
        };
        let prio = self.nod_norm.normalize(raw_nod);
        let (best_arch, delta_best) = archs[0];

        let mut nodes = Vec::new();
        let mut brw_nodes = Vec::new();
        for mem in platform.mem_nodes() {
            let a = mem.arch;
            if platform.workers_on_node(mem.id).is_empty() || !view.est.can_exec(t, a) {
                continue;
            }
            let gain_score = self.gain.gain(&archs, a);
            self.heaps[mem.id.index()].push(t, Score::new(gain_score, prio));
            self.ready_count[mem.id.index()] += 1;
            nodes.push(mem.id);
            if a == best_arch {
                self.best_remaining_work[mem.id.index()] += delta_best;
                brw_nodes.push(mem.id);
            }
        }
        assert!(!nodes.is_empty(), "task {t:?} enqueued nowhere");
        self.info.insert(
            t,
            TaskInfo {
                nodes,
                best_arch,
                delta_best,
                brw_nodes,
            },
        );
    }

    /// Algorithm 2, original layout.
    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let platform = view.platform();
        self.ensure(platform.mem_node_count());
        let worker = platform.worker(w);
        let (w_arch, w_m) = (worker.arch, worker.mem_node);
        let mut skip: Vec<TaskId> = Vec::new();
        for _ in 0..self.cfg.max_tries {
            let t = self.select_candidate(w_m, view, &skip)?;
            if !self.cfg.eviction || self.pop_condition(t, w_arch, view) {
                self.take(t);
                return Some(t);
            }
            let elsewhere = self.info[&t].nodes.iter().any(|&n| n != w_m);
            if elsewhere {
                self.remove_entry(t, w_m);
            } else {
                skip.push(t);
            }
        }
        None
    }

    fn pending(&self) -> usize {
        self.info.len()
    }
}
