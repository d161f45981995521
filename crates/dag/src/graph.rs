//! The task graph (DAG) and its data handles.

use std::collections::HashMap;

use crate::access::AccessMode;
use crate::ids::{DataId, TaskId, TaskTypeId};
use crate::stf::Draft;
use crate::task::{Access, Task, TaskType};

/// A data handle: a named, sized piece of application data (a tile, a
/// particle group, a frontal-matrix panel, ...). Its *home node* is where
/// the data initially resides (main RAM unless stated otherwise).
#[derive(Clone, Debug)]
pub struct DataDesc {
    /// Dense id of the handle within its graph.
    pub id: DataId,
    /// Size in bytes (drives transfer times and the LS_SDH2 locality score).
    pub size: u64,
    /// Free-form label for traces (e.g. `A(3,2)`).
    pub label: String,
}

/// Content-address metadata derived by the [`crate::stf::StfBuilder`]
/// for one task: the memoization key, the canonical fingerprint it was
/// folded from, and the data versions this task assigns to the handles
/// it writes. Tasks added through [`TaskGraph::add_task`] directly (no
/// STF inference) carry no metadata and are never cacheable.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheMeta {
    /// FNV-1a fold of `fingerprint` — the cache key.
    pub key: u64,
    /// Canonical word sequence: type-name hash, flops bits, then per
    /// access (mode code, handle identity, input version if the mode
    /// reads). Stored so lookups can verify an entry byte-for-byte
    /// instead of trusting the 64-bit key alone.
    pub fingerprint: Vec<u64>,
    /// Version assigned to each written handle, in access order.
    pub out_versions: Vec<u64>,
}

/// Aggregate statistics of a graph, used by tests and reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of edges (dependencies).
    pub edges: usize,
    /// Number of data handles.
    pub data: usize,
    /// Number of source tasks (no predecessors).
    pub sources: usize,
    /// Number of sink tasks (no successors).
    pub sinks: usize,
    /// Total flops over all tasks.
    pub total_flops: f64,
    /// Total bytes over all data handles.
    pub total_bytes: u64,
}

/// A directed acyclic graph of tasks over shared data handles.
///
/// Task and data ids are dense indices into the internal vectors, so all
/// lookups are O(1). Edges are stored both ways (`preds`, `succs`) because
/// schedulers walk successors (NOD criticality) while the executor walks
/// predecessors (dependency release).
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    data: Vec<DataDesc>,
    types: Vec<TaskType>,
    type_by_name: HashMap<String, TaskTypeId>,
    preds: Vec<Vec<TaskId>>,
    succs: Vec<Vec<TaskId>>,
    edge_count: usize,
    /// Parallel to `tasks`; `None` for tasks without STF-derived keys.
    cache_meta: Vec<Option<CacheMeta>>,
}

impl TaskGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Register a task type (kernel). Returns the existing id when a type
    /// with the same name was registered before (implementations must then
    /// match — mismatches panic, they indicate a generator bug).
    pub fn register_type(&mut self, name: &str, cpu_impl: bool, gpu_impl: bool) -> TaskTypeId {
        if let Some(&id) = self.type_by_name.get(name) {
            let existing = &self.types[id.index()];
            assert_eq!(
                (existing.cpu_impl, existing.gpu_impl),
                (cpu_impl, gpu_impl),
                "task type {name} re-registered with different implementations"
            );
            return id;
        }
        let id = TaskTypeId::from_index(self.types.len());
        self.types.push(TaskType {
            id,
            name: name.to_string(),
            cpu_impl,
            gpu_impl,
        });
        self.type_by_name.insert(name.to_string(), id);
        id
    }

    /// Add a data handle of `size` bytes.
    pub fn add_data(&mut self, size: u64, label: impl Into<String>) -> DataId {
        let id = DataId::from_index(self.data.len());
        self.data.push(DataDesc {
            id,
            size,
            label: label.into(),
        });
        id
    }

    /// Add a task. Dependencies are *not* inferred here — use
    /// [`crate::stf::StfBuilder`] for STF semantics, or [`Self::add_edge`]
    /// for explicit edges.
    pub fn add_task(
        &mut self,
        ttype: TaskTypeId,
        accesses: Vec<(DataId, AccessMode)>,
        flops: f64,
        label: impl Into<String>,
    ) -> TaskId {
        assert!(
            ttype.index() < self.types.len(),
            "unknown task type {ttype:?}"
        );
        for &(d, _) in &accesses {
            assert!(d.index() < self.data.len(), "unknown data handle {d:?}");
        }
        let id = TaskId::from_index(self.tasks.len());
        self.tasks.push(Task {
            id,
            ttype,
            accesses: accesses
                .into_iter()
                .map(|(data, mode)| Access { data, mode })
                .collect(),
            user_priority: 0,
            flops,
            label: label.into(),
        });
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.cache_meta.resize(self.tasks.len(), None);
        id
    }

    /// Append an inferred task: its record, its cache metadata and an
    /// edge from each predecessor (see [`crate::stf::StfState::infer`]).
    /// Drafts must be linked in the order they were inferred, with no
    /// other task added in between.
    pub fn link(&mut self, draft: Draft) -> TaskId {
        let Draft { task, meta, preds } = draft;
        let id = task.id;
        assert_eq!(
            id.index(),
            self.tasks.len(),
            "draft linked out of inference order"
        );
        for p in &preds {
            self.succs[p.index()].push(id);
        }
        self.edge_count += preds.len();
        self.tasks.push(task);
        self.preds.push(preds);
        self.succs.push(Vec::new());
        self.cache_meta.resize(id.index(), None);
        self.cache_meta.push(Some(meta));
        id
    }

    /// Reserve room for `additional` more tasks (records, edge lists and
    /// cache metadata), so linking that many does not reallocate.
    pub fn reserve(&mut self, additional: usize) {
        self.tasks.reserve(additional);
        self.preds.reserve(additional);
        self.succs.reserve(additional);
        self.cache_meta.reserve(additional);
    }

    /// Content-address metadata of `t`, if it was STF-submitted.
    #[inline]
    pub fn cache_meta(&self, t: TaskId) -> Option<&CacheMeta> {
        self.cache_meta.get(t.index()).and_then(|m| m.as_ref())
    }

    /// Set the expert-provided priority of a task (read by Dmdas only).
    pub fn set_user_priority(&mut self, t: TaskId, prio: i64) {
        self.tasks[t.index()].user_priority = prio;
    }

    /// Rescale a task's work estimate (used by generators that normalize
    /// total flops to a published operation count).
    pub fn set_task_flops(&mut self, t: TaskId, flops: f64) {
        assert!(flops >= 0.0 && flops.is_finite());
        self.tasks[t.index()].flops = flops;
    }

    /// Add a dependency edge `from -> to` (duplicate edges are ignored).
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) {
        assert_ne!(from, to, "self-dependency on {from:?}");
        if self.succs[from.index()].contains(&to) {
            return;
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        self.edge_count += 1;
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of data handles.
    pub fn data_count(&self) -> usize {
        self.data.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All tasks, in submission order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All data handles.
    pub fn data(&self) -> &[DataDesc] {
        &self.data
    }

    /// All registered task types.
    pub fn types(&self) -> &[TaskType] {
        &self.types
    }

    /// A single task.
    #[inline]
    pub fn task(&self, t: TaskId) -> &Task {
        &self.tasks[t.index()]
    }

    /// A single data handle.
    #[inline]
    pub fn data_desc(&self, d: DataId) -> &DataDesc {
        &self.data[d.index()]
    }

    /// A single task type.
    #[inline]
    pub fn task_type(&self, tt: TaskTypeId) -> &TaskType {
        &self.types[tt.index()]
    }

    /// The type of a task, in one hop.
    #[inline]
    pub fn type_of(&self, t: TaskId) -> &TaskType {
        self.task_type(self.tasks[t.index()].ttype)
    }

    /// Look up a type by name.
    pub fn type_id(&self, name: &str) -> Option<TaskTypeId> {
        self.type_by_name.get(name).copied()
    }

    /// Direct predecessors λ⁻(t).
    #[inline]
    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        &self.preds[t.index()]
    }

    /// Direct successors λ⁺(t).
    #[inline]
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        &self.succs[t.index()]
    }

    /// Sum of the sizes of all handles accessed by `t` (its footprint).
    pub fn footprint(&self, t: TaskId) -> u64 {
        self.task(t)
            .accesses
            .iter()
            .map(|a| self.data[a.data.index()].size)
            .sum()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            tasks: self.tasks.len(),
            edges: self.edge_count,
            data: self.data.len(),
            sources: self.preds.iter().filter(|p| p.is_empty()).count(),
            sinks: self.succs.iter().filter(|s| s.is_empty()).count(),
            total_flops: self.tasks.iter().map(|t| t.flops).sum(),
            total_bytes: self.data.iter().map(|d| d.size).sum(),
        }
    }

    /// Check acyclicity; returns `Err` with a task on a cycle otherwise.
    ///
    /// Graphs produced by [`crate::stf::StfBuilder`] are acyclic by
    /// construction (edges always point from earlier to later submissions);
    /// this validates hand-built graphs.
    pub fn validate_acyclic(&self) -> Result<(), TaskId> {
        // Kahn's algorithm: if we cannot consume every vertex, a cycle exists.
        let mut indeg: Vec<usize> = self.preds.iter().map(|p| p.len()).collect();
        let mut queue: Vec<TaskId> = (0..self.tasks.len())
            .filter(|&i| indeg[i] == 0)
            .map(TaskId::from_index)
            .collect();
        let mut seen = 0usize;
        while let Some(t) = queue.pop() {
            seen += 1;
            for &s in self.succs(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        if seen == self.tasks.len() {
            Ok(())
        } else {
            let culprit = indeg
                .iter()
                .position(|&d| d > 0)
                .expect("cycle implies leftover indegree");
            Err(TaskId::from_index(culprit))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // 0 -> {1, 2} -> 3
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(8, "d");
        let t0 = g.add_task(k, vec![(d, AccessMode::Write)], 1.0, "t0");
        let t1 = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t1");
        let t2 = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t2");
        let t3 = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "t3");
        g.add_edge(t0, t1);
        g.add_edge(t0, t2);
        g.add_edge(t1, t3);
        g.add_edge(t2, t3);
        g
    }

    #[test]
    fn diamond_shape() {
        let g = diamond();
        let s = g.stats();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.sources, 1);
        assert_eq!(s.sinks, 1);
        assert_eq!(g.preds(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.succs(TaskId(0)), &[TaskId(1), TaskId(2)]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = diamond();
        let before = g.edge_count();
        g.add_edge(TaskId(0), TaskId(1));
        assert_eq!(g.edge_count(), before);
    }

    #[test]
    fn acyclic_ok() {
        assert!(diamond().validate_acyclic().is_ok());
    }

    #[test]
    fn cycle_detected() {
        let mut g = diamond();
        g.add_edge(TaskId(3), TaskId(0));
        assert!(g.validate_acyclic().is_err());
    }

    #[test]
    fn type_registry_dedups() {
        let mut g = TaskGraph::new();
        let a = g.register_type("GEMM", true, true);
        let b = g.register_type("GEMM", true, true);
        assert_eq!(a, b);
        assert_eq!(g.types().len(), 1);
    }

    #[test]
    #[should_panic(expected = "different implementations")]
    fn type_registry_rejects_mismatch() {
        let mut g = TaskGraph::new();
        g.register_type("GEMM", true, true);
        g.register_type("GEMM", true, false);
    }

    #[test]
    fn footprint_sums_all_accesses() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, false);
        let d0 = g.add_data(100, "a");
        let d1 = g.add_data(50, "b");
        let t = g.add_task(
            k,
            vec![(d0, AccessMode::Read), (d1, AccessMode::ReadWrite)],
            0.0,
            "t",
        );
        assert_eq!(g.footprint(t), 150);
    }
}
