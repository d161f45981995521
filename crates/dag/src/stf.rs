//! Sequential Task Flow (STF) dependency inference.
//!
//! In the STF model (StarPU's submission model, paper Sec. I) the
//! application submits tasks in *sequential program order*; the runtime
//! derives the DAG from each task's data accesses:
//!
//! * **RAW** — a reader depends on the last writer of the data;
//! * **WAR** — a writer depends on every reader since the last writer;
//! * **WAW** — a writer depends on the last writer.
//!
//! Because every inferred edge points from an earlier submission to a
//! later one, the resulting graph is acyclic by construction.
//!
//! A submission runs in two steps. *Inference* ([`StfState::infer`])
//! reads the per-handle flows and data versions, derives the task's
//! predecessors and cache fingerprint, and yields a [`Draft`]; it only
//! reads the graph. *Linking* ([`TaskGraph::link`]) appends the draft's
//! task, cache metadata and edges. [`StfBuilder::submit`] does both at
//! once; a caller that splits the builder with [`StfBuilder::into_parts`]
//! can infer several tasks ahead of linking them, as long as it links
//! every draft in inference order.

use std::collections::HashMap;

use crate::access::AccessMode;
use crate::graph::{CacheMeta, TaskGraph};
use crate::hash;
use crate::ids::{DataId, TaskId, TaskTypeId};
use crate::task::{Access, Task};

/// Per-data bookkeeping for inference.
#[derive(Default, Clone, Debug)]
struct DataFlow {
    last_writer: Option<TaskId>,
    /// Readers since the last write (cleared on each write).
    readers_since_write: Vec<TaskId>,
}

/// Builds a [`TaskGraph`] from a sequential stream of task submissions.
///
/// ```
/// use mp_dag::{AccessMode, StfBuilder};
///
/// let mut stf = StfBuilder::new();
/// let k = stf.graph_mut().register_type("AXPY", true, true);
/// let x = stf.graph_mut().add_data(1024, "x");
/// let y = stf.graph_mut().add_data(1024, "y");
/// let t0 = stf.submit(k, vec![(x, AccessMode::Write)], 10.0, "init x");
/// let t1 = stf.submit(k, vec![(x, AccessMode::Read), (y, AccessMode::ReadWrite)], 10.0, "y += a x");
/// let g = stf.finish();
/// assert_eq!(g.preds(t1), &[t0]); // RAW on x
/// ```
#[derive(Default, Clone, Debug)]
pub struct StfBuilder {
    graph: TaskGraph,
    state: StfState,
}

/// The inference half of an [`StfBuilder`]: the flow of every data
/// handle (its last writer and the readers since) and its current data
/// version.
#[derive(Default, Clone, Debug)]
pub struct StfState {
    flows: HashMap<DataId, DataFlow>,
    /// Current data version of every handle, updated on each write. A
    /// handle that was never written (and never seeded through
    /// [`Self::set_data_version`]) gets a deterministic identity-based
    /// initial version, so rebuilding the same program yields the same
    /// versions — and the same cache keys.
    versions: HashMap<DataId, u64>,
}

/// A task whose predecessors and cache metadata are inferred but which
/// is not yet part of its graph. [`TaskGraph::link`] appends it.
#[derive(Clone, Debug)]
pub struct Draft {
    pub(crate) task: Task,
    pub(crate) meta: CacheMeta,
    /// Distinct predecessors, in first-inferred order.
    pub(crate) preds: Vec<TaskId>,
}

impl StfBuilder {
    /// Start with an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reassemble a builder from a graph and the inference state that
    /// names its tasks (see [`Self::into_parts`]).
    pub fn from_parts(graph: TaskGraph, state: StfState) -> Self {
        Self { graph, state }
    }

    /// Split the builder into its graph and its inference state.
    pub fn into_parts(self) -> (TaskGraph, StfState) {
        (self.graph, self.state)
    }

    /// Access the underlying graph (to register types / data).
    pub fn graph_mut(&mut self) -> &mut TaskGraph {
        &mut self.graph
    }

    /// Read-only access to the graph under construction.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Submit a task; dependencies on previously-submitted tasks are
    /// inferred from `accesses` as described in the module docs.
    pub fn submit(
        &mut self,
        ttype: TaskTypeId,
        accesses: Vec<(DataId, AccessMode)>,
        flops: f64,
        label: impl Into<String>,
    ) -> TaskId {
        self.submit_prio(ttype, accesses, flops, 0, label)
    }

    /// Same as [`Self::submit`] but also sets the user priority.
    pub fn submit_prio(
        &mut self,
        ttype: TaskTypeId,
        accesses: Vec<(DataId, AccessMode)>,
        flops: f64,
        prio: i64,
        label: impl Into<String>,
    ) -> TaskId {
        let id = TaskId::from_index(self.graph.task_count());
        let draft = self
            .state
            .infer(&self.graph, id, ttype, accesses, flops, prio, label);
        self.graph.link(draft)
    }

    /// Open a staged submission: a batch of tasks recorded *without*
    /// touching the graph or the inference state. [`SubmissionStage::commit`]
    /// applies the whole batch through the normal [`Self::submit_prio`]
    /// path (so RAW/WAR/WAW edges and cache keys come out exactly as if
    /// the tasks had been submitted directly); dropping the stage
    /// discards it with **zero** side effects. This is the ingest
    /// primitive of the serving mode (DESIGN.md §13): an admission
    /// controller can inspect a staged sub-DAG, reject it under
    /// backpressure, and later submissions still see the pre-rejection
    /// writers — a rejected stage never strands a dependency.
    pub fn begin_submission(&mut self) -> SubmissionStage<'_> {
        SubmissionStage {
            builder: self,
            staged: Vec::new(),
        }
    }

    /// Override the current version of a data handle. The runtime calls
    /// this from `register` with a content hash of the initial buffer so
    /// cache keys reflect actual input *values*; the simulator keeps the
    /// identity-based default (handles have no payload in virtual time).
    ///
    /// Must be called before the first task touching `d` is submitted to
    /// affect that task's key.
    pub fn set_data_version(&mut self, d: DataId, version: u64) {
        self.state.versions.insert(d, version);
    }

    /// The current version of `d` (as the next reader would observe it).
    pub fn data_version(&mut self, d: DataId) -> u64 {
        self.state.data_version(&self.graph, d)
    }

    /// Finish and return the inferred DAG.
    pub fn finish(self) -> TaskGraph {
        self.graph
    }
}

impl StfState {
    /// Infer the task that becomes `id` of `graph` once every earlier
    /// draft is linked: its task record, its RAW/WAR/WAW predecessors and
    /// its cache metadata. The flows and versions advance as if the task
    /// were submitted, so the next inference sees it as a writer or
    /// reader. `graph` supplies type names and handle sizes only.
    ///
    /// # Panics
    /// On a type or data handle `graph` does not have.
    #[allow(clippy::too_many_arguments)]
    pub fn infer(
        &mut self,
        graph: &TaskGraph,
        id: TaskId,
        ttype: TaskTypeId,
        accesses: Vec<(DataId, AccessMode)>,
        flops: f64,
        prio: i64,
        label: impl Into<String>,
    ) -> Draft {
        assert!(
            ttype.index() < graph.types().len(),
            "unknown task type {ttype:?}"
        );
        let accesses: Vec<Access> = accesses
            .into_iter()
            .map(|(data, mode)| {
                assert!(
                    data.index() < graph.data_count(),
                    "unknown data handle {data:?}"
                );
                Access { data, mode }
            })
            .collect();
        let meta = self.derive_cache_meta(graph, ttype, &accesses, flops);
        let mut preds = Vec::new();
        let mut after = |p: TaskId| {
            if p != id && !preds.contains(&p) {
                preds.push(p);
            }
        };
        for a in &accesses {
            let flow = self.flows.entry(a.data).or_default();
            if a.mode.reads() {
                // RAW: depend on the last producer of the value we read.
                if let Some(w) = flow.last_writer {
                    after(w);
                }
            }
            if a.mode.writes() {
                // WAR: wait for every reader of the previous value...
                for &r in &flow.readers_since_write {
                    after(r);
                }
                // WAW: ...and for the previous writer (needed when there
                // were no intervening readers).
                if let Some(w) = flow.last_writer {
                    after(w);
                }
                flow.last_writer = Some(id);
                flow.readers_since_write.clear();
            } else {
                flow.readers_since_write.push(id);
            }
        }
        Draft {
            task: Task {
                id,
                ttype,
                accesses,
                user_priority: prio,
                flops,
                label: label.into(),
            },
            meta,
            preds,
        }
    }

    /// The current version of `d` (as the next reader would observe it).
    fn data_version(&mut self, graph: &TaskGraph, d: DataId) -> u64 {
        let init = initial_version(graph, d);
        *self.versions.entry(d).or_insert(init)
    }

    /// Compute the content-address metadata for a task about to be
    /// submitted, and advance written handles to their new versions.
    ///
    /// Fingerprint layout (64-bit words):
    /// `[hash(type name), flops bits, (mode, identity, in-version?)*]`
    /// where the in-version word is present only for reading modes. The
    /// key is the FNV-1a fold of the fingerprint; each written handle's
    /// new version is a splitmix of the key and the access index, so a
    /// changed key re-versions every output — the transitive consumers'
    /// keys change in turn, which is exactly the dirty cone of an
    /// incremental resubmission.
    fn derive_cache_meta(
        &mut self,
        graph: &TaskGraph,
        ttype: TaskTypeId,
        accesses: &[Access],
        flops: f64,
    ) -> CacheMeta {
        let mut fingerprint = Vec::with_capacity(2 + 3 * accesses.len());
        fingerprint.push(hash::fnv1a_bytes(graph.task_type(ttype).name.as_bytes()));
        fingerprint.push(flops.to_bits());
        for a in accesses {
            let code = match a.mode {
                AccessMode::Read => 1u64,
                AccessMode::Write => 2,
                AccessMode::ReadWrite => 3,
            };
            fingerprint.push(code);
            fingerprint.push(identity_word(graph, a.data));
            if a.mode.reads() {
                let v = self.data_version(graph, a.data);
                fingerprint.push(v);
            }
        }
        let key = hash::fnv1a_words(&fingerprint);
        let mut out_versions = Vec::new();
        for (i, a) in accesses.iter().enumerate() {
            if a.mode.writes() {
                let v = hash::mix64(key ^ hash::mix64(i as u64 + 1));
                self.versions.insert(a.data, v);
                out_versions.push(v);
            }
        }
        CacheMeta {
            key,
            fingerprint,
            out_versions,
        }
    }
}

/// Deterministic initial version for a never-written handle, derived
/// from its identity (dense id + size) so a rebuilt program sees the
/// same versions.
fn initial_version(graph: &TaskGraph, d: DataId) -> u64 {
    let desc = graph.data_desc(d);
    hash::mix64(hash::fnv1a_words(&[d.index() as u64, desc.size]))
}

/// Stable identity word for a handle, independent of its (mutable)
/// data version. Included in fingerprints for *written* handles so
/// two otherwise-identical tasks initializing different tiles get
/// distinct keys, without making write-only tasks inherit dirtiness
/// from values they never read.
fn identity_word(graph: &TaskGraph, d: DataId) -> u64 {
    hash::mix64(initial_version(graph, d) ^ 0x5157_4944_454e_5449)
}

/// One task of a staged (not yet committed) submission.
#[derive(Clone, Debug)]
struct StagedTask {
    ttype: TaskTypeId,
    accesses: Vec<(DataId, AccessMode)>,
    flops: f64,
    prio: i64,
    label: String,
}

/// A batch of task submissions recorded against a [`StfBuilder`] but not
/// yet applied (see [`StfBuilder::begin_submission`]).
///
/// The stage borrows the builder mutably, so the type system guarantees
/// no interleaved direct submission can observe half a batch: a stage is
/// either committed atomically (w.r.t. the builder's inference state) or
/// discarded without a trace.
///
/// ```
/// use mp_dag::{AccessMode, StfBuilder};
///
/// let mut stf = StfBuilder::new();
/// let k = stf.graph_mut().register_type("K", true, true);
/// let x = stf.graph_mut().add_data(8, "x");
/// let w = stf.submit(k, vec![(x, AccessMode::Write)], 1.0, "w");
///
/// // A rejected stage leaves no trace...
/// let mut stage = stf.begin_submission();
/// stage.submit(k, vec![(x, AccessMode::ReadWrite)], 1.0, "rejected");
/// drop(stage);
///
/// // ...so the next admitted batch still depends on the real writer.
/// let mut stage = stf.begin_submission();
/// stage.submit(k, vec![(x, AccessMode::Read)], 1.0, "r");
/// let ids = stage.commit();
/// assert_eq!(stf.graph().preds(ids[0]), &[w]);
/// ```
#[derive(Debug)]
pub struct SubmissionStage<'a> {
    builder: &'a mut StfBuilder,
    staged: Vec<StagedTask>,
}

impl SubmissionStage<'_> {
    /// Record a task in the stage; returns its stage-local index. No
    /// graph or inference state is touched until [`Self::commit`].
    pub fn submit(
        &mut self,
        ttype: TaskTypeId,
        accesses: Vec<(DataId, AccessMode)>,
        flops: f64,
        label: impl Into<String>,
    ) -> usize {
        self.submit_prio(ttype, accesses, flops, 0, label)
    }

    /// Record a task with an explicit user priority.
    pub fn submit_prio(
        &mut self,
        ttype: TaskTypeId,
        accesses: Vec<(DataId, AccessMode)>,
        flops: f64,
        prio: i64,
        label: impl Into<String>,
    ) -> usize {
        self.staged.push(StagedTask {
            ttype,
            accesses,
            flops,
            prio,
            label: label.into(),
        });
        self.staged.len() - 1
    }

    /// Number of staged tasks.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// True when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Apply the whole batch in staged order through the normal
    /// inference path and return the assigned task ids (aligned with the
    /// stage-local indices). Cross-submission dependencies resolve by
    /// data identity against whatever was *committed* before — staged
    /// tasks of this batch see each other exactly as if submitted
    /// directly.
    pub fn commit(self) -> Vec<TaskId> {
        let SubmissionStage { builder, staged } = self;
        staged
            .into_iter()
            .map(|s| builder.submit_prio(s.ttype, s.accesses, s.flops, s.prio, s.label))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StfBuilder, TaskTypeId, DataId, DataId) {
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("K", true, true);
        let a = stf.graph_mut().add_data(8, "a");
        let b = stf.graph_mut().add_data(8, "b");
        (stf, k, a, b)
    }

    #[test]
    fn raw_dependency() {
        let (mut stf, k, a, _) = setup();
        let w = stf.submit(k, vec![(a, AccessMode::Write)], 0.0, "w");
        let r = stf.submit(k, vec![(a, AccessMode::Read)], 0.0, "r");
        let g = stf.finish();
        assert_eq!(g.preds(r), &[w]);
    }

    #[test]
    fn war_dependency() {
        let (mut stf, k, a, _) = setup();
        let w0 = stf.submit(k, vec![(a, AccessMode::Write)], 0.0, "w0");
        let r = stf.submit(k, vec![(a, AccessMode::Read)], 0.0, "r");
        let w1 = stf.submit(k, vec![(a, AccessMode::Write)], 0.0, "w1");
        let g = stf.finish();
        // w1 waits for the reader (WAR) and the previous writer (WAW).
        assert!(g.preds(w1).contains(&r));
        assert!(g.preds(w1).contains(&w0));
    }

    #[test]
    fn waw_dependency_without_readers() {
        let (mut stf, k, a, _) = setup();
        let w0 = stf.submit(k, vec![(a, AccessMode::Write)], 0.0, "w0");
        let w1 = stf.submit(k, vec![(a, AccessMode::Write)], 0.0, "w1");
        let g = stf.finish();
        assert_eq!(g.preds(w1), &[w0]);
    }

    #[test]
    fn concurrent_readers_have_no_mutual_edges() {
        let (mut stf, k, a, _) = setup();
        let w = stf.submit(k, vec![(a, AccessMode::Write)], 0.0, "w");
        let r0 = stf.submit(k, vec![(a, AccessMode::Read)], 0.0, "r0");
        let r1 = stf.submit(k, vec![(a, AccessMode::Read)], 0.0, "r1");
        let g = stf.finish();
        assert_eq!(g.preds(r0), &[w]);
        assert_eq!(g.preds(r1), &[w]);
        assert!(g.succs(r0).is_empty());
    }

    #[test]
    fn rw_chains_serialize() {
        let (mut stf, k, a, _) = setup();
        let t0 = stf.submit(k, vec![(a, AccessMode::ReadWrite)], 0.0, "t0");
        let t1 = stf.submit(k, vec![(a, AccessMode::ReadWrite)], 0.0, "t1");
        let t2 = stf.submit(k, vec![(a, AccessMode::ReadWrite)], 0.0, "t2");
        let g = stf.finish();
        assert_eq!(g.preds(t1), &[t0]);
        assert_eq!(g.preds(t2), &[t1]);
    }

    #[test]
    fn independent_data_stay_parallel() {
        let (mut stf, k, a, b) = setup();
        let t0 = stf.submit(k, vec![(a, AccessMode::ReadWrite)], 0.0, "t0");
        let t1 = stf.submit(k, vec![(b, AccessMode::ReadWrite)], 0.0, "t1");
        let g = stf.finish();
        assert!(g.preds(t0).is_empty());
        assert!(g.preds(t1).is_empty());
    }

    #[test]
    fn gemm_like_pattern() {
        // C(rw) <- A(r), B(r): two gemms on the same C serialize, on
        // different C run in parallel.
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("GEMM", true, true);
        let a = stf.graph_mut().add_data(8, "A");
        let b = stf.graph_mut().add_data(8, "B");
        let c0 = stf.graph_mut().add_data(8, "C0");
        let c1 = stf.graph_mut().add_data(8, "C1");
        let g0 = stf.submit(
            k,
            vec![
                (a, AccessMode::Read),
                (b, AccessMode::Read),
                (c0, AccessMode::ReadWrite),
            ],
            1.0,
            "g0",
        );
        let g1 = stf.submit(
            k,
            vec![
                (a, AccessMode::Read),
                (b, AccessMode::Read),
                (c0, AccessMode::ReadWrite),
            ],
            1.0,
            "g1",
        );
        let g2 = stf.submit(
            k,
            vec![
                (a, AccessMode::Read),
                (b, AccessMode::Read),
                (c1, AccessMode::ReadWrite),
            ],
            1.0,
            "g2",
        );
        let g = stf.finish();
        assert_eq!(g.preds(g1), &[g0]);
        assert!(g.preds(g2).is_empty());
        assert!(g.validate_acyclic().is_ok());
    }

    #[test]
    fn cache_keys_are_rebuild_stable() {
        let build = || {
            let (mut stf, k, a, b) = setup();
            stf.submit(k, vec![(a, AccessMode::Write)], 1.0, "w");
            stf.submit(
                k,
                vec![(a, AccessMode::Read), (b, AccessMode::ReadWrite)],
                2.0,
                "r",
            );
            stf.finish()
        };
        let (g0, g1) = (build(), build());
        for t in g0.tasks() {
            assert_eq!(g0.cache_meta(t.id), g1.cache_meta(t.id));
        }
    }

    #[test]
    fn mutated_flops_dirty_the_downstream_cone() {
        let build = |flops0: f64| {
            let (mut stf, k, a, b) = setup();
            stf.submit(k, vec![(a, AccessMode::Write)], flops0, "w_a");
            stf.submit(k, vec![(b, AccessMode::Write)], 1.0, "w_b");
            stf.submit(k, vec![(a, AccessMode::ReadWrite)], 1.0, "touch_a");
            stf.submit(k, vec![(b, AccessMode::Read)], 1.0, "read_b");
            stf.finish()
        };
        let (clean, dirty) = (build(1.0), build(1.5));
        let key = |g: &TaskGraph, i: usize| g.cache_meta(TaskId(i as u32)).unwrap().key;
        // The mutated task and its transitive consumer on `a` re-key...
        assert_ne!(key(&clean, 0), key(&dirty, 0));
        assert_ne!(key(&clean, 2), key(&dirty, 2));
        // ...while the independent chain on `b` is untouched.
        assert_eq!(key(&clean, 1), key(&dirty, 1));
        assert_eq!(key(&clean, 3), key(&dirty, 3));
    }

    #[test]
    fn write_only_tasks_do_not_inherit_input_dirtiness() {
        // A pure writer over-writes the handle: its key must not depend
        // on the previous version (nothing of it is read).
        let build = |seed_version: u64| {
            let (mut stf, k, a, _) = setup();
            stf.set_data_version(a, seed_version);
            stf.submit(k, vec![(a, AccessMode::Write)], 1.0, "w");
            stf.finish()
        };
        let (g0, g1) = (build(7), build(8));
        assert_eq!(
            g0.cache_meta(TaskId(0)).unwrap().key,
            g1.cache_meta(TaskId(0)).unwrap().key
        );
    }

    #[test]
    fn identical_writers_on_different_tiles_get_distinct_keys() {
        let (mut stf, k, a, b) = setup();
        let wa = stf.submit(k, vec![(a, AccessMode::Write)], 1.0, "init");
        let wb = stf.submit(k, vec![(b, AccessMode::Write)], 1.0, "init");
        let g = stf.finish();
        assert_ne!(g.cache_meta(wa).unwrap().key, g.cache_meta(wb).unwrap().key);
    }

    #[test]
    fn seeded_data_version_changes_reader_keys() {
        let build = |v: u64| {
            let (mut stf, k, a, _) = setup();
            stf.set_data_version(a, v);
            stf.submit(k, vec![(a, AccessMode::Read)], 1.0, "r");
            stf.finish()
        };
        let (g0, g1) = (build(1), build(2));
        assert_ne!(
            g0.cache_meta(TaskId(0)).unwrap().key,
            g1.cache_meta(TaskId(0)).unwrap().key
        );
    }

    #[test]
    fn staged_commit_resolves_cross_submission_deps_by_data_identity() {
        let (mut stf, k, a, b) = setup();
        let w = stf.submit(k, vec![(a, AccessMode::Write)], 1.0, "w");
        let mut stage = stf.begin_submission();
        let r = stage.submit(k, vec![(a, AccessMode::Read)], 1.0, "r");
        let wb = stage.submit(k, vec![(b, AccessMode::Write)], 1.0, "wb");
        let ids = stage.commit();
        // RAW against the earlier *committed* submission...
        assert_eq!(stf.graph().preds(ids[r]), &[w]);
        assert!(stf.graph().preds(ids[wb]).is_empty());
        // ...and a later batch chains on this one.
        let mut stage = stf.begin_submission();
        let rb = stage.submit(k, vec![(b, AccessMode::Read)], 1.0, "rb");
        let ids2 = stage.commit();
        assert_eq!(stf.graph().preds(ids2[rb]), &[ids[wb]]);
    }

    #[test]
    fn staged_tasks_see_each_other_in_stage_order() {
        let (mut stf, k, a, _) = setup();
        let mut stage = stf.begin_submission();
        let w = stage.submit(k, vec![(a, AccessMode::Write)], 1.0, "w");
        let r = stage.submit(k, vec![(a, AccessMode::Read)], 1.0, "r");
        let ids = stage.commit();
        assert_eq!(stf.graph().preds(ids[r]), &[ids[w]]);
    }

    #[test]
    fn discarded_stage_leaves_no_trace() {
        let (mut stf, k, a, _) = setup();
        let w0 = stf.submit(k, vec![(a, AccessMode::Write)], 1.0, "w0");
        let version_before = stf.data_version(a);
        let mut stage = stf.begin_submission();
        stage.submit(k, vec![(a, AccessMode::ReadWrite)], 1.0, "rejected");
        assert_eq!(stage.len(), 1);
        assert!(!stage.is_empty());
        drop(stage);
        // No task, no edge, no version advance: the next reader depends
        // on the pre-rejection writer and keys against its version.
        assert_eq!(stf.graph().task_count(), 1);
        assert_eq!(stf.data_version(a), version_before);
        let r = stf.submit(k, vec![(a, AccessMode::Read)], 1.0, "r");
        assert_eq!(stf.graph().preds(r), &[w0]);
    }

    #[test]
    fn staged_commit_matches_direct_submission_bit_for_bit() {
        let direct = {
            let (mut stf, k, a, b) = setup();
            stf.submit(k, vec![(a, AccessMode::Write)], 1.0, "w");
            stf.submit_prio(
                k,
                vec![(a, AccessMode::Read), (b, AccessMode::ReadWrite)],
                2.0,
                7,
                "r",
            );
            stf.finish()
        };
        let staged = {
            let (mut stf, k, a, b) = setup();
            let mut stage = stf.begin_submission();
            stage.submit(k, vec![(a, AccessMode::Write)], 1.0, "w");
            stage.submit_prio(
                k,
                vec![(a, AccessMode::Read), (b, AccessMode::ReadWrite)],
                2.0,
                7,
                "r",
            );
            stage.commit();
            stf.finish()
        };
        assert_eq!(direct.task_count(), staged.task_count());
        for t in direct.tasks() {
            assert_eq!(direct.cache_meta(t.id), staged.cache_meta(t.id));
            assert_eq!(direct.preds(t.id), staged.preds(t.id));
            assert_eq!(
                direct.task(t.id).user_priority,
                staged.task(t.id).user_priority
            );
        }
    }

    #[test]
    fn inferring_ahead_of_linking_matches_direct_submission() {
        use AccessMode::{Read, ReadWrite, Write};
        // Three sub-DAGs; `a` is written, read, and rewritten across them.
        let program = |a: DataId, b: DataId| {
            vec![
                vec![
                    (vec![(a, Write)], 1.0, 0),
                    (vec![(a, Read), (b, Write)], 2.0, 3),
                ],
                vec![
                    (vec![(a, Read)], 3.0, 1),
                    (vec![(a, Read), (b, ReadWrite)], 4.0, 0),
                ],
                vec![
                    (vec![(a, Write)], 5.0, 2),
                    (vec![(a, Read), (b, Read)], 6.0, 7),
                ],
            ]
        };
        let mut direct = {
            let (mut stf, k, a, b) = setup();
            for (accesses, flops, prio) in program(a, b).into_iter().flatten() {
                stf.submit_prio(k, accesses, flops, prio, "t");
            }
            stf
        };
        let mut ahead = {
            let (stf, k, a, b) = setup();
            let (mut graph, mut state) = stf.into_parts();
            let mut drafts = Vec::new();
            for (accesses, flops, prio) in program(a, b).into_iter().flatten() {
                let id = TaskId::from_index(graph.task_count() + drafts.len());
                drafts.push(state.infer(&graph, id, k, accesses, flops, prio, "t"));
            }
            assert_eq!(graph.task_count(), 0, "inference leaves the graph alone");
            for d in drafts {
                graph.link(d);
            }
            StfBuilder::from_parts(graph, state)
        };
        let (g0, g1) = (direct.graph(), ahead.graph());
        assert_eq!(g0.task_count(), 6);
        assert_eq!(g0.task_count(), g1.task_count());
        assert_eq!(g0.edge_count(), g1.edge_count());
        for t in g0.tasks() {
            assert_eq!(g0.preds(t.id), g1.preds(t.id), "{:?}", t.id);
            assert_eq!(g0.succs(t.id), g1.succs(t.id), "{:?}", t.id);
            assert_eq!(g0.cache_meta(t.id), g1.cache_meta(t.id), "{:?}", t.id);
            assert_eq!(t.user_priority, g1.task(t.id).user_priority);
            assert_eq!(t.accesses, g1.task(t.id).accesses);
        }
        for d in [DataId(0), DataId(1)] {
            assert_eq!(direct.data_version(d), ahead.data_version(d));
        }
    }

    #[test]
    fn bare_add_task_has_no_cache_meta() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let t = g.add_task(k, vec![], 1.0, "bare");
        assert!(g.cache_meta(t).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A random STF program: per task, a set of (data, mode) accesses.
    fn programs() -> impl Strategy<Value = Vec<Vec<(u8, u8)>>> {
        proptest::collection::vec(proptest::collection::vec((0u8..6, 0u8..3), 1..4), 1..60)
    }

    fn mode(m: u8) -> AccessMode {
        match m {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => AccessMode::ReadWrite,
        }
    }

    proptest! {
        /// For every random program: the graph is acyclic, edges point
        /// forward, and sequential-consistency holds — replaying tasks in
        /// submission order, every read of a handle observes the version
        /// produced by the writer it depends on (i.e. there is an edge
        /// from the last writer to each subsequent reader, and writers
        /// are totally ordered per handle).
        #[test]
        fn prop_stf_sequential_consistency(prog in programs()) {
            let mut stf = StfBuilder::new();
            let k = stf.graph_mut().register_type("K", true, true);
            let handles: Vec<DataId> =
                (0..6).map(|i| stf.graph_mut().add_data(8, format!("d{i}"))).collect();
            let mut tasks = Vec::new();
            for (i, accs) in prog.iter().enumerate() {
                // Deduplicate data within one task (same handle twice is
                // legal but complicates the oracle).
                let mut acc: Vec<(DataId, AccessMode)> = Vec::new();
                for &(d, m) in accs {
                    let d = handles[d as usize];
                    if acc.iter().all(|&(x, _)| x != d) {
                        acc.push((d, mode(m)));
                    }
                }
                tasks.push((stf.submit(k, acc.clone(), 1.0, format!("t{i}")), acc));
            }
            let g = stf.finish();
            prop_assert!(g.validate_acyclic().is_ok());

            // Oracle replay.
            let mut last_writer: std::collections::HashMap<DataId, TaskId> = Default::default();
            let mut writers: std::collections::HashMap<DataId, Vec<TaskId>> = Default::default();
            for (t, acc) in &tasks {
                for &(d, m) in acc {
                    if m.reads() {
                        if let Some(&w) = last_writer.get(&d) {
                            prop_assert!(
                                g.preds(*t).contains(&w),
                                "{t:?} reads {d:?} but lacks RAW edge from {w:?}"
                            );
                        }
                    }
                }
                for &(d, m) in acc {
                    if m.writes() {
                        writers.entry(d).or_default().push(*t);
                        last_writer.insert(d, *t);
                    }
                }
            }
            // WAW: writers of one handle form a chain in the DAG.
            for ws in writers.values() {
                for pair in ws.windows(2) {
                    prop_assert!(
                        g.preds(pair[1]).contains(&pair[0]),
                        "writers {:?} -> {:?} must chain",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }
}
