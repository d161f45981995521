//! Streaming ("serving-mode") execution on the threaded runtime.
//!
//! [`Runtime::serve`] is the wall-clock twin of `mp_sim::serve_sim`:
//! an **open-loop driver** feeds sub-DAG submissions into the runtime
//! *while worker threads are executing earlier ones*. The workers run the
//! one engine of [`crate::engine`] — the same loop a closed
//! [`Runtime::run`] uses, with its fault injection, retries, worker
//! quarantine and result cache — so this module holds only what serving
//! adds: the stream's configuration, the driver and the tenant ledger. A
//! stream ends in the same [`RunReport`] as a closed run, with the
//! driver's admission decisions filled in. Each submission is decided
//! before it is inferred, so
//!
//! * cross-submission dependencies resolve by data identity against the
//!   last **admitted** writer of each handle (a rejected submission never
//!   reaches STF inference or the graph, and can therefore never strand
//!   a dependency of admitted work);
//! * admission ([`AdmissionConfig`]) bounds in-flight tasks globally and
//!   per tenant, rejecting overflowing submissions whole with a typed
//!   [`AdmitError`];
//! * every admitted task carries its tenant's weight-scaled
//!   [`effective_priority`] through the normal `user_priority` channel.
//!   Starvation aging needs a clock the stream does not carry: it runs
//!   in virtual time only (`mp_sim::serve_sim`), and a threaded stream's
//!   priorities are exactly the weight-scaled base, never a function of
//!   wall time;
//! * a committed task is released like any other: with a
//!   [`mp_cache::ResultCache`] installed ([`Runtime::set_cache`]) a
//!   verified hit completes in place, cascading through all-hit
//!   successors, so a warm resubmission of an identical sub-DAG costs no
//!   scheduler or queue capacity at all.
//!
//! The driver runs on the calling thread and owns the STF inference
//! state ([`mp_dag::StfState`]) for the whole execution. It admits and
//! infers each submission under a graph *read* guard, so workers keep
//! running, and stages the resulting drafts. After each submission it
//! tries the write guard without blocking, and under it only links and
//! admits every staged sub-DAG in turn, snapshotting each one's sources;
//! at stream end (and after an abort) it waits for the guard. It then
//! drops the guard and releases the sources, cache probes and hit
//! cascades included, under a read guard, one sub-DAG at a time in stream
//! order. A staged sub-DAG therefore waits at most until the guard is
//! free or the stream ends. Staged tasks count as in flight at admission,
//! so the batch stays within the in-flight bounds. Linking under the
//! write guard means a completion can never race the indegree snapshot
//! of a link, and each link checks that every new task keeps a capable
//! surviving worker, so a worker killed before the link ends the stream
//! with [`RunError::NoCapableWorker`] instead of a hang.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLockWriteGuard;

use mp_dag::ids::TaskId;
use mp_dag::{Draft, StfState};
use mp_platform::types::ArchClass;
use mp_sched::api::Scheduler;
use mp_sched::concurrent::{ConcurrentScheduler, GlobalLock};
pub use mp_serve::{AdmissionConfig, AdmitError, TenantSpec};

use mp_serve::effective_priority;

use crate::engine::{Engine, Kernels, RunError, RunReport, Runtime, Scratch, Shared, TaskBuilder};

/// Tenancy and admission knobs of one streaming run.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// The tenants submissions may name (by index).
    pub tenants: Vec<TenantSpec>,
    /// In-flight bounds enforced at admission.
    pub admission: AdmissionConfig,
}

impl StreamConfig {
    /// A config over `tenants` with default admission.
    pub fn new(tenants: Vec<TenantSpec>) -> Self {
        Self {
            tenants,
            admission: AdmissionConfig::default(),
        }
    }
}

/// One streamed submission: the tasks of one sub-DAG, owned by a tenant.
pub struct Submission {
    /// Index into [`StreamConfig::tenants`].
    pub tenant: usize,
    /// The sub-DAG's tasks, in STF submission order.
    pub tasks: Vec<TaskBuilder>,
}

/// A streamed run's report: the closed run's [`RunReport`], whose
/// per-submission fields a stream fills.
pub type StreamReport = RunReport;

/// One tenant's counts on a stream's [`RunReport::tenants`], named as
/// the simulator's `TenantStats` names them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantCounts {
    /// Tasks admitted (sum over admitted sub-DAGs).
    pub tasks_admitted: u64,
    /// Submissions rejected with backpressure.
    pub subdags_rejected: u64,
    /// Tasks that completed, cache hits included.
    pub tasks_completed: u64,
    /// Completions served from the result cache (a subset of
    /// `tasks_completed`).
    pub cache_hits: u64,
}

/// Per-tenant counts of one execution. The driver admits and rejects;
/// every completion, executed or served from the cache, retires one
/// in-flight task. A closed run has no tenants, and a task whose tenant
/// is out of range is not counted.
pub(crate) struct TenantLedger(Vec<TenantCells>);

#[derive(Default)]
struct TenantCells {
    in_flight: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
}

impl TenantLedger {
    pub(crate) fn new(tenants: usize) -> Self {
        Self((0..tenants).map(|_| TenantCells::default()).collect())
    }

    pub(crate) fn admit(&self, tenant: usize, n: usize) {
        if let Some(c) = self.0.get(tenant) {
            c.in_flight.fetch_add(n, Ordering::AcqRel);
            c.admitted.fetch_add(n as u64, Ordering::AcqRel);
        }
    }

    pub(crate) fn complete(&self, tenant: usize, cache_hit: bool) {
        if let Some(c) = self.0.get(tenant) {
            c.in_flight.fetch_sub(1, Ordering::AcqRel);
            c.completed.fetch_add(1, Ordering::AcqRel);
            if cache_hit {
                c.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Each tenant's counts, in tenant order.
    pub(crate) fn counts(&self) -> Vec<TenantCounts> {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        self.0
            .iter()
            .map(|c| TenantCounts {
                tasks_admitted: load(&c.admitted),
                subdags_rejected: load(&c.rejected),
                tasks_completed: load(&c.completed),
                cache_hits: load(&c.cache_hits),
            })
            .collect()
    }
}

impl Runtime {
    /// Serve `stream` under `scheduler` behind the global lock. See the
    /// module docs for the execution model.
    pub fn serve(
        &mut self,
        scheduler: Box<dyn Scheduler>,
        cfg: &StreamConfig,
        stream: Vec<Submission>,
    ) -> Result<RunReport, RunError> {
        let front = GlobalLock::new(scheduler);
        self.serve_concurrent(&front, cfg, stream)
    }

    /// Serve `stream` by driving `front` from one thread per platform
    /// worker while this thread plays the open-loop driver. Any
    /// front-end works, as for [`Runtime::run_concurrent`].
    ///
    /// The stream is checked before any thread spawns, naming each task
    /// by the id it would get with every earlier submission admitted: a
    /// submission naming a tenant `cfg` does not have is
    /// [`RunError::UnknownTenant`], a task no platform class can execute
    /// is [`RunError::NoUsableImpl`], an access to a handle this runtime
    /// never registered is [`RunError::UnknownData`], and a task whose
    /// type is already registered with other implementation classes is
    /// [`RunError::TypeMismatch`]. Then every streamed type is
    /// registered, so the driver never changes the type table.
    pub fn serve_concurrent(
        &mut self,
        front: &dyn ConcurrentScheduler,
        cfg: &StreamConfig,
        stream: Vec<Submission>,
    ) -> Result<RunReport, RunError> {
        self.check_stream(cfg, &stream)?;
        for tb in stream.iter().flat_map(|sub| &sub.tasks) {
            tb.register_type(self.stf.graph_mut());
        }
        let streamed = stream.iter().map(|sub| sub.tasks.len()).sum();
        self.execute(front, cfg.tenants.len(), streamed, |eng, stf| {
            drive(eng, stf, cfg, stream)
        })
    }

    /// The up-front checks of [`Self::serve_concurrent`].
    fn check_stream(&self, cfg: &StreamConfig, stream: &[Submission]) -> Result<(), RunError> {
        let graph = self.graph();
        // Implementation sets of the types the stream introduces.
        let mut introduced: HashMap<&str, (bool, bool)> = HashMap::new();
        let mut next = graph.task_count();
        for (si, sub) in stream.iter().enumerate() {
            if sub.tenant >= cfg.tenants.len() {
                return Err(RunError::UnknownTenant {
                    submission: si,
                    tenant: sub.tenant,
                    tenants: cfg.tenants.len(),
                });
            }
            for tb in &sub.tasks {
                let task = TaskId::from_index(next);
                next += 1;
                if !tb.impls.runs_on(&self.classes) {
                    return Err(RunError::NoUsableImpl {
                        task,
                        label: tb.label_or_type(),
                        platform_classes: self.classes.clone(),
                    });
                }
                if let Some(&(data, _)) = tb
                    .accesses
                    .iter()
                    .find(|(d, _)| d.index() >= graph.data_count())
                {
                    return Err(RunError::UnknownData { task, data });
                }
                let provided = tb.impl_set();
                let registered = match graph.type_id(&tb.ttype) {
                    Some(id) => {
                        let ty = graph.task_type(id);
                        (ty.cpu_impl, ty.gpu_impl)
                    }
                    None => *introduced.entry(&tb.ttype).or_insert(provided),
                };
                if registered != provided {
                    let named = |(cpu, gpu): (bool, bool)| {
                        [(cpu, ArchClass::Cpu), (gpu, ArchClass::Gpu)]
                            .into_iter()
                            .filter_map(|(has, c)| has.then_some(c))
                            .collect()
                    };
                    return Err(RunError::TypeMismatch {
                        task,
                        ttype: tb.ttype.clone(),
                        registered: named(registered),
                        provided: named(provided),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Per submission the committed ids (`None` if not admitted), and every
/// rejection. A closed run decides nothing.
pub(crate) type Decisions = (Vec<Option<Vec<TaskId>>>, Vec<(usize, AdmitError)>);

/// Sub-DAGs admitted and inferred but not yet linked, in stream order,
/// and the driver's release state.
#[derive(Default)]
struct Staged {
    /// Per sub-DAG: its tenant and its task count.
    subdags: Vec<(usize, usize)>,
    drafts: Vec<Draft>,
    impls: Vec<Kernels>,
    /// Staged tasks per tenant.
    by_tenant: Vec<usize>,
    /// The sources of the linked sub-DAGs, in stream order.
    sources: Vec<TaskId>,
    /// Per linked sub-DAG: where its sources end in `sources`, and its
    /// admission instant.
    ends: Vec<(usize, f64)>,
    scratch: Scratch,
}

impl Staged {
    /// Link and admit every staged sub-DAG, each in turn, under the write
    /// guard `g`, snapshotting each one's sources; then drop the guard
    /// and release the sources in stream order under a read guard, one
    /// release per sub-DAG, so each release still probes every task it
    /// releases before it pushes a miss. Every sub-DAG has its per-task
    /// state before any source is released, so a cache-hit cascade in
    /// one may reach a later one's tasks, which then join the cascade.
    fn link(
        &mut self,
        eng: &Engine<'_>,
        mut g: RwLockWriteGuard<'_, Shared>,
        admission: &AdmissionConfig,
    ) {
        let mut drafts = self.drafts.drain(..);
        let mut impls = self.impls.drain(..);
        for (tenant, n) in self.subdags.drain(..) {
            for draft in drafts.by_ref().take(n) {
                g.graph.link(draft);
            }
            g.impls.extend(impls.by_ref().take(n));
            let now = eng.now_us();
            if eng.admit(&mut g, tenant, now, &mut self.sources) {
                self.ends.push((self.sources.len(), now));
            }
            debug_assert!(eng.in_flight() <= admission.max_in_flight);
            debug_assert!(admission.max_tenant_in_flight.is_none_or(|cap| {
                eng.ledger.0[tenant].in_flight.load(Ordering::Acquire) <= cap
            }));
        }
        drop(g);
        self.by_tenant.fill(0);
        let g = eng.read();
        let mut from = 0;
        for &(end, now) in &self.ends {
            eng.release_sources(&g, &self.sources[from..end], &mut self.scratch, now);
            from = end;
        }
        drop(g);
        self.sources.clear();
        self.ends.clear();
        eng.notify();
    }
}

/// The open-loop driver. Submissions are processed in order as fast as
/// admission allows; a rejection drops the submission and moves on — no
/// waiting. Once the engine aborts, the remaining submissions are
/// neither admitted nor rejected, and whatever is staged is still
/// linked, so `stf` never names a task the graph lacks.
fn drive(
    eng: &Engine<'_>,
    stf: &mut StfState,
    cfg: &StreamConfig,
    stream: Vec<Submission>,
) -> Decisions {
    let nt = cfg.tenants.len();
    let mut admitted = Vec::with_capacity(stream.len());
    let mut rejections = Vec::new();
    let mut staged = Staged {
        by_tenant: vec![0; nt],
        ..Staged::default()
    };
    for (si, sub) in stream.into_iter().enumerate() {
        if eng.aborted() {
            admitted.push(None);
            continue;
        }
        let ti = sub.tenant;
        let spec = &cfg.tenants[ti];
        let counts = &eng.ledger.0[ti];
        let g = eng.read();
        // Staged tasks count as in flight. Only this thread raises the
        // counts, under the write guard, and completions only lower
        // them, so a submission admitted on this snapshot is still
        // admissible when it is linked.
        let tenant_in_flight = counts.in_flight.load(Ordering::Acquire) + staged.by_tenant[ti];
        let decision = cfg.admission.check(
            ti,
            sub.tasks.len(),
            eng.in_flight() + staged.drafts.len(),
            tenant_in_flight,
        );
        if let Err(err) = decision {
            drop(g);
            counts.rejected.fetch_add(1, Ordering::Relaxed);
            rejections.push((si, err));
            admitted.push(None);
            continue;
        }
        let first = g.graph.task_count() + staged.drafts.len();
        let n = sub.tasks.len();
        for (i, tb) in sub.tasks.into_iter().enumerate() {
            let ttype = g
                .graph
                .type_id(&tb.ttype)
                .expect("streamed types are registered before the drive");
            let prio = effective_priority(tb.priority, spec.weight, 0);
            let label = if tb.label.is_empty() {
                tb.ttype
            } else {
                tb.label
            };
            let id = TaskId::from_index(first + i);
            staged
                .drafts
                .push(stf.infer(&g.graph, id, ttype, tb.accesses, tb.flops, prio, label));
            staged.impls.push(tb.impls);
        }
        drop(g);
        staged.subdags.push((ti, n));
        staged.by_tenant[ti] += n;
        admitted.push(Some((first..first + n).map(TaskId::from_index).collect()));
        if let Some(g) = eng.try_write() {
            staged.link(eng, g, &cfg.admission);
        }
    }
    if !staged.subdags.is_empty() {
        staged.link(eng, eng.write(), &cfg.admission);
    }
    (admitted, rejections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mp_dag::access::AccessMode;
    use mp_perfmodel::{PerfModel, TableModel, TimeFn};
    use mp_platform::presets::homogeneous;
    use mp_platform::types::ArchClass;
    use mp_sched::EagerPrioScheduler;
    use mp_serve::PRIORITY_RESOLUTION;

    fn model() -> Arc<dyn PerfModel> {
        Arc::new(
            TableModel::builder()
                .set("STREAM", ArchClass::Cpu, TimeFn::Const(5.0))
                .build(),
        )
    }

    /// A fork-join submission over `root` with `width` middles.
    fn forkjoin(tenant: usize, root: mp_dag::ids::DataId, width: usize) -> Submission {
        let mut tasks = Vec::new();
        tasks.push(
            TaskBuilder::new("STREAM")
                .access(root, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(10.0),
        );
        for _ in 0..width {
            tasks.push(
                TaskBuilder::new("STREAM")
                    .access(root, AccessMode::Read)
                    .cpu(|_| {})
                    .flops(10.0),
            );
        }
        Submission { tenant, tasks }
    }

    #[test]
    fn streamed_subdags_execute_exactly_once_with_cross_submission_deps() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let root = rt.register(vec![0.0], "root");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let stream: Vec<Submission> = (0..20).map(|i| forkjoin(i % 2, root, 3)).collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert_eq!(report.subdags_admitted, 20);
        assert_eq!(report.subdags_rejected, 0);
        assert_eq!(report.tasks_admitted, 20 * 4);
        assert_eq!(report.trace.tasks.len(), 20 * 4);
        // The root chain executed once per submission, in order.
        assert_eq!(rt.buffer(root)[0], 20.0);
        // Exactly-once + precedence over the final graph.
        let mut seen = vec![0usize; rt.graph().task_count()];
        for s in &report.trace.tasks {
            seen[s.task.index()] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn backpressure_rejects_whole_subdags_and_strands_nothing() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let root = rt.register(vec![0.0], "root");
        let mut cfg = StreamConfig::new(TenantSpec::equal(1));
        cfg.admission.max_in_flight = 8;
        // An instant driver against 5µs tasks: most submissions arrive
        // while the first ones are still in flight.
        let stream: Vec<Submission> = (0..40).map(|_| forkjoin(0, root, 3)).collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert!(report.subdags_rejected > 0, "driver outpaces 2 workers");
        assert_eq!(
            report.subdags_admitted + report.subdags_rejected,
            40,
            "every submission decided"
        );
        // Every admitted task executed exactly once; rejected sub-DAGs
        // left no trace in the graph.
        assert_eq!(report.tasks_admitted, rt.graph().task_count());
        assert_eq!(report.tasks_completed, report.tasks_admitted);
        assert_eq!(
            rt.buffer(root)[0] as u64,
            report.subdags_admitted,
            "root chain ran once per admitted submission"
        );
    }

    #[test]
    fn streamed_tasks_carry_weighted_priorities() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let a = rt.register(vec![0.0], "a");
        let b = rt.register(vec![0.0], "b");
        let cfg = StreamConfig::new(vec![
            TenantSpec::new("light", 1.0),
            TenantSpec::new("heavy", 4.0),
        ]);
        let stream = vec![
            Submission {
                tenant: 0,
                tasks: vec![TaskBuilder::new("STREAM")
                    .access(a, AccessMode::Write)
                    .cpu(|_| {})],
            },
            Submission {
                tenant: 1,
                tasks: vec![TaskBuilder::new("STREAM")
                    .access(b, AccessMode::Write)
                    .cpu(|_| {})],
            },
        ];
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete());
        let g = rt.graph();
        let light = report.admitted[0].as_ref().unwrap()[0];
        let heavy = report.admitted[1].as_ref().unwrap()[0];
        assert_eq!(g.task(light).user_priority, PRIORITY_RESOLUTION);
        assert_eq!(g.task(heavy).user_priority, 4 * PRIORITY_RESOLUTION);
    }

    /// A warm-serving submission: a write-only root plus `width`
    /// readers. Write-only roots key independently of the prior
    /// version, so identical resubmissions on the same root hit.
    fn warm_sub(tenant: usize, root: mp_dag::ids::DataId, width: usize) -> Submission {
        let mut tasks = Vec::new();
        tasks.push(
            TaskBuilder::new("STREAM")
                .access(root, AccessMode::Write)
                .cpu(|ctx| ctx.w(0)[0] = 7.0)
                .flops(10.0),
        );
        for _ in 0..width {
            tasks.push(
                TaskBuilder::new("STREAM")
                    .access(root, AccessMode::Read)
                    .cpu(|_| {})
                    .flops(10.0),
            );
        }
        Submission { tenant, tasks }
    }

    #[test]
    fn warm_resubmission_bypasses_the_scheduler_on_the_threaded_path() {
        let mut rt = Runtime::new(homogeneous(4), model());
        rt.set_cache(Arc::new(mp_cache::ResultCache::new()));
        let r0 = rt.register(vec![0.0], "root0");
        let r1 = rt.register(vec![0.0], "root1");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let roots = [r0, r1];
        let stream: Vec<Submission> = (0..40).map(|i| warm_sub(i % 2, roots[i % 2], 3)).collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert_eq!(report.subdags_admitted, 40);
        assert_eq!(report.tasks_admitted, 160);
        assert_eq!(report.tasks_completed, 160);
        // One cold round per root — a writer and 3 readers each — then
        // every later release hits: the entry is always populated
        // before the WAR/WAW chain releases the resubmitted twin, so
        // the counts are exact despite the threading.
        assert_eq!(report.cache_misses, 8);
        assert_eq!(report.cache_hits, 152);
        // Hit tasks never reached the scheduler and record no span.
        assert_eq!(report.trace.tasks.len(), 8);
        let hits: Vec<u64> = report.tenants.iter().map(|t| t.cache_hits).collect();
        assert_eq!(hits, vec![76, 76], "both tenants warm equally");
        assert_eq!(rt.buffer(r0)[0], 7.0);
        assert_eq!(rt.buffer(r1)[0], 7.0);
    }

    #[test]
    fn cache_off_serving_reports_zero_cache_traffic() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let root = rt.register(vec![0.0], "root");
        let cfg = StreamConfig::new(TenantSpec::equal(1));
        let stream: Vec<Submission> = (0..10).map(|_| forkjoin(0, root, 2)).collect();
        let report = rt
            .serve(Box::new(EagerPrioScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete());
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cache_misses, 0);
        assert_eq!(report.trace.tasks.len(), report.tasks_completed);
    }
}
