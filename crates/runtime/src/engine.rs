//! The threaded execution engine.
//!
//! One worker loop serves both entry points. [`Runtime::run_concurrent`]
//! executes the submitted DAG: a stream closed from the start, with every
//! task already admitted. [`Runtime::serve_concurrent`] (see
//! [`crate::serve`]) runs the same loop while an open-loop driver on the
//! calling thread links sub-DAGs into the growing graph. Workers drive
//! any [`ConcurrentScheduler`] front-end: the [`GlobalLock`] baseline (one
//! mutex around the policy, what [`Runtime::run`] uses), the sharded
//! multi-queue or the relaxed multi-queue. Both entry points end in one
//! [`RunReport`], whose per-submission fields a closed run leaves empty.
//!
//! Graph-coupled state sits behind one `RwLock`. A worker holds one read
//! guard from pop through start, resolving the kernel in its two-slot
//! [`Kernels`] table and taking its buffer guards under it, and one from
//! completion through release. The driver infers dependencies under a
//! read guard too, links and admits under the write guard, and releases
//! the admitted sources under a read guard again, so a link can never
//! observe (or miss) half of a completion. Kernels execute outside the
//! guard. Each worker owns its release scratch, its buffer-guard vector
//! and its span buffer, which it hands to the engine when it exits, so
//! recording a completion takes no shared lock.
//!
//! Idle workers park on an eventcount-style [`WakeEpoch`]: every push and
//! every completion bumps an epoch and notifies, and a worker that read
//! the epoch *before* its failed pop cannot miss a wakeup that raced with
//! it. The only timed sleep left is a short bounded re-poll when the
//! scheduler holds tasks back (`pending() > 0` but `pop` returned `None`,
//! e.g. MultiPrio's pop condition): another worker's evicting or taking
//! pop can make a held task poppable, and no event announces a pop.

use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

use mp_cache::{CacheMark, Lookup, PersistStats, ResultCache};
use mp_dag::access::AccessMode;
use mp_dag::hash;
use mp_dag::ids::{DataId, TaskId, TaskTypeId};
use mp_dag::stf::{StfBuilder, StfState};
use mp_dag::{Task, TaskGraph};
use mp_fault::{FaultPlan, RetryPolicy, SkewedModel};
use mp_perfmodel::{DeltaEstimate, Estimator, FallbackWarnings, PerfModel};
use mp_platform::types::{ArchClass, MemNodeId, Platform, WorkerId};
use mp_sched::api::{DataLocator, LoadInfo, SchedEvent, SchedView, Scheduler};
use mp_sched::concurrent::{ConcurrentScheduler, GlobalLock};
use mp_serve::AdmitError;
use mp_trace::obs::obs_enabled;
use mp_trace::{
    Counter, CounterSnapshot, ObsCell, RuntimeEvent, RuntimeEventKind, TaskSpan, Trace,
};

use crate::data::{BufRef, TaskCtx};
use crate::serve::{Decisions, TenantCounts, TenantLedger};

/// A kernel implementation.
pub type KernelFn = Arc<dyn Fn(&mut TaskCtx<'_>) + Send + Sync>;

/// A task's kernel implementations: one slot per architecture class.
#[derive(Clone, Default)]
pub(crate) struct Kernels {
    cpu: Option<KernelFn>,
    gpu: Option<KernelFn>,
}

impl Kernels {
    fn slot(&mut self, class: ArchClass) -> &mut Option<KernelFn> {
        match class {
            ArchClass::Cpu => &mut self.cpu,
            ArchClass::Gpu => &mut self.gpu,
        }
    }

    /// The implementation for `class`, if there is one.
    pub(crate) fn get(&self, class: ArchClass) -> Option<&KernelFn> {
        match class {
            ArchClass::Cpu => self.cpu.as_ref(),
            ArchClass::Gpu => self.gpu.as_ref(),
        }
    }

    /// Is there an implementation for `class`?
    pub(crate) fn has(&self, class: ArchClass) -> bool {
        self.get(class).is_some()
    }

    /// Is there an implementation for any of `classes`?
    pub(crate) fn runs_on(&self, classes: &[ArchClass]) -> bool {
        classes.iter().any(|&c| self.has(c))
    }
}

/// Fluent builder for one task submission.
pub struct TaskBuilder {
    pub(crate) ttype: String,
    pub(crate) accesses: Vec<(DataId, AccessMode)>,
    pub(crate) impls: Kernels,
    pub(crate) flops: f64,
    pub(crate) priority: i64,
    pub(crate) label: String,
}

impl TaskBuilder {
    /// Start a task of kernel type `ttype`.
    pub fn new(ttype: &str) -> Self {
        Self {
            ttype: ttype.to_string(),
            accesses: Vec::new(),
            impls: Kernels::default(),
            flops: 0.0,
            priority: 0,
            label: String::new(),
        }
    }

    /// Declare a data access.
    pub fn access(mut self, d: DataId, mode: AccessMode) -> Self {
        self.accesses.push((d, mode));
        self
    }

    /// Provide the CPU-class implementation.
    pub fn cpu(mut self, f: impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static) -> Self {
        *self.impls.slot(ArchClass::Cpu) = Some(Arc::new(f));
        self
    }

    /// Provide the GPU-class implementation (on a CPU-only host this runs
    /// on the "GPU" worker threads — see crate docs).
    pub fn gpu(mut self, f: impl Fn(&mut TaskCtx<'_>) + Send + Sync + 'static) -> Self {
        *self.impls.slot(ArchClass::Gpu) = Some(Arc::new(f));
        self
    }

    /// Work estimate in flops (feeds rate-based models).
    pub fn flops(mut self, flops: f64) -> Self {
        self.flops = flops;
        self
    }

    /// Expert priority (read by Dmdas).
    pub fn priority(mut self, p: i64) -> Self {
        self.priority = p;
        self
    }

    /// Trace label.
    pub fn label(mut self, l: impl Into<String>) -> Self {
        self.label = l.into();
        self
    }

    /// Whether this task implements the CPU and the GPU class.
    pub(crate) fn impl_set(&self) -> (bool, bool) {
        (
            self.impls.has(ArchClass::Cpu),
            self.impls.has(ArchClass::Gpu),
        )
    }

    /// Register this task's kernel type, with the classes it implements.
    pub(crate) fn register_type(&self, graph: &mut TaskGraph) -> TaskTypeId {
        let (cpu, gpu) = self.impl_set();
        graph.register_type(&self.ttype, cpu, gpu)
    }

    /// The trace label, defaulting to the kernel type.
    pub(crate) fn label_or_type(&self) -> String {
        if self.label.is_empty() {
            self.ttype.clone()
        } else {
            self.label.clone()
        }
    }
}

/// Unified-memory locality: every handle is resident everywhere.
struct UnifiedMemory;

impl DataLocator for UnifiedMemory {
    fn is_on(&self, _d: DataId, _m: MemNodeId) -> bool {
        true
    }

    fn holders(&self, _d: DataId) -> Vec<MemNodeId> {
        vec![MemNodeId(0)]
    }
}

/// Lock-free busy-until table (µs since run start, f64 bits).
struct AtomicLoads(Vec<AtomicU64>);

impl AtomicLoads {
    fn new(n: usize) -> Self {
        Self((0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect())
    }

    fn set(&self, w: WorkerId, v: f64) {
        self.0[w.index()].store(v.to_bits(), Ordering::Relaxed);
    }
}

impl LoadInfo for AtomicLoads {
    fn busy_until(&self, w: WorkerId) -> f64 {
        f64::from_bits(self.0[w.index()].load(Ordering::Relaxed))
    }
}

/// Eventcount-style parking lot for idle workers.
///
/// Protocol: a worker reads [`Self::current`] *before* its exit check
/// and pop attempt; if the pop fails it parks with [`Self::wait`], which
/// returns immediately when the epoch moved in between. Producers call
/// [`Self::notify`], which bumps the epoch *before* taking the mutex, so
/// the pair (read epoch → pop → wait) can never sleep through a push or
/// completion that happened after the epoch read.
struct WakeEpoch {
    epoch: AtomicU64,
    /// Workers inside [`Self::wait`]; lets [`Self::notify`] skip the
    /// mutex on the (hot) nobody-parked path.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl WakeEpoch {
    fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn current(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // SeqCst pairs with the waiter's increment-then-recheck: either
        // the waiter's re-check sees the new epoch, or this load sees the
        // waiter registered and takes the mutex to wake it.
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Take the mutex so a waiter between its epoch re-check and its
        // cv wait cannot miss the notification.
        let _g = self.lock.lock().expect("wake lock poisoned");
        self.cv.notify_all();
    }

    /// Park until the epoch differs from `seen` (or `bound` elapses, or a
    /// spurious wakeup — callers re-poll in a loop either way).
    fn wait(&self, seen: u64, bound: Option<Duration>) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let g = self.lock.lock().expect("wake lock poisoned");
        if self.epoch.load(Ordering::SeqCst) == seen {
            match bound {
                Some(d) => drop(self.cv.wait_timeout(g, d).expect("wake lock poisoned")),
                None => drop(self.cv.wait(g).expect("wake lock poisoned")),
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Bounded park when the scheduler holds work back. MultiPrio's pop
/// condition reads its own `best_remaining_work`, not the clock, but
/// another worker's pop can move that state — a take shrinks the backlog
/// and exposes the next candidate, an eviction re-routes a task — and
/// no wake event announces a pop.
const HOLDBACK_REPOLL: Duration = Duration::from_micros(200);

/// Typed failure of [`Runtime::run`] and [`Runtime::serve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A submitted task has no implementation for any architecture class
    /// present on the platform, so no worker could ever execute it.
    /// Detected at submit time, reported when the run starts.
    NoUsableImpl {
        /// The offending task.
        task: TaskId,
        /// Its trace label.
        label: String,
        /// Architecture classes present on the platform.
        platform_classes: Vec<ArchClass>,
    },
    /// The scheduler handed a task to a worker whose architecture class
    /// has no implementation of it (a policy bug — the run is aborted).
    MissingKernel {
        /// The misrouted task.
        task: TaskId,
        /// The class of the worker it was sent to.
        class: ArchClass,
    },
    /// A kernel body panicked on its final allowed attempt. The panic is
    /// caught at the worker loop, the run drains cleanly, and the spans
    /// recorded so far survive as a partial trace (the panicking task
    /// records no span). With a [`RetryPolicy`] allowing more than one
    /// attempt, earlier panics are retried instead.
    KernelPanicked {
        /// The task whose kernel panicked.
        task: TaskId,
    },
    /// After a worker failure, a remaining task has no surviving worker
    /// whose architecture class has an implementation of it — the run
    /// could never complete and is aborted instead of hanging.
    NoCapableWorker {
        /// The unexecutable task.
        task: TaskId,
    },
    /// A task failed (injected transient failure) on every attempt the
    /// [`RetryPolicy`] allows.
    RetryExhausted {
        /// The failing task.
        task: TaskId,
        /// Attempts made.
        attempts: u32,
    },
    /// A streamed submission names a tenant the stream configuration
    /// does not have. Detected before any thread spawns.
    UnknownTenant {
        /// Index of the submission in the stream.
        submission: usize,
        /// The tenant it names.
        tenant: usize,
        /// Tenants configured.
        tenants: usize,
    },
    /// A streamed task's kernel type is already registered, before the
    /// stream or by an earlier streamed task, with another set of
    /// implementation classes. Detected before any thread spawns.
    TypeMismatch {
        /// The id the task would get with every earlier submission
        /// admitted.
        task: TaskId,
        /// Its kernel type.
        ttype: String,
        /// The classes the type is registered with.
        registered: Vec<ArchClass>,
        /// The classes the task implements.
        provided: Vec<ArchClass>,
    },
    /// A streamed task accesses a data handle this runtime never
    /// registered. Detected before any thread spawns.
    UnknownData {
        /// The id the task would get with every earlier submission
        /// admitted.
        task: TaskId,
        /// The unregistered handle.
        data: DataId,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NoUsableImpl {
                task,
                label,
                platform_classes,
            } => write!(
                f,
                "task {task:?} ('{label}') has no implementation for any platform \
                 arch class ({platform_classes:?})"
            ),
            RunError::MissingKernel { task, class } => write!(
                f,
                "scheduler sent {task:?} to a {class:?} worker without an implementation"
            ),
            RunError::KernelPanicked { task } => {
                write!(
                    f,
                    "kernel of {task:?} panicked; run aborted with partial trace"
                )
            }
            RunError::NoCapableWorker { task } => write!(
                f,
                "no surviving worker can execute {task:?} after worker failure"
            ),
            RunError::RetryExhausted { task, attempts } => {
                write!(f, "{task:?} failed on all {attempts} allowed attempt(s)")
            }
            RunError::UnknownTenant {
                submission,
                tenant,
                tenants,
            } => write!(
                f,
                "submission {submission} names tenant {tenant}, but the stream has {tenants}"
            ),
            RunError::TypeMismatch {
                task,
                ttype,
                registered,
                provided,
            } => write!(
                f,
                "task {task:?} implements type '{ttype}' for {provided:?}, \
                 but the type is registered for {registered:?}"
            ),
            RunError::UnknownData { task, data } => {
                write!(
                    f,
                    "task {task:?} accesses unregistered data handle {data:?}"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Result of a run, closed or streamed: wall-clock makespan and trace,
/// the task, cache and fault counts, and a stream's admission decisions
/// and per-tenant counts. Every count is recorded whatever the build's
/// features.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock makespan in µs.
    pub makespan_us: f64,
    /// Wall-clock execution trace. Partial when [`Self::error`] is set:
    /// spans recorded before the failure are preserved, sorted by
    /// `(end, task)` either way.
    pub trace: Trace,
    /// Name of the scheduler used.
    pub scheduler: String,
    /// Why the run stopped early, if it did. `None` means every task
    /// executed. Mid-run failures (a misrouted task, a panicking
    /// kernel) land here with the partial trace preserved; only
    /// submit-time [`RunError::NoUsableImpl`] makes
    /// [`Runtime::run`] return `Err`.
    pub error: Option<RunError>,
    /// The front-end's and the workers' internal counters (pops, pushes,
    /// hold-backs, shard steals, ...), merged at quiesce. Empty unless
    /// built with `--features obs`; every run fact has its own field.
    pub counters: CounterSnapshot,
    /// Worker park/wake timeline. Empty unless built with
    /// `--features obs`.
    pub events: Vec<RuntimeEvent>,
    /// Tasks admitted, including those submitted before the run (a
    /// stream counts them as already-admitted tenant-0 work).
    pub tasks_admitted: usize,
    /// Tasks that completed, cache hits included.
    pub tasks_completed: usize,
    /// Completions served straight from the result cache: a subset of
    /// `tasks_completed` that never reached the scheduler and records
    /// no trace span. Always 0 without [`Runtime::set_cache`].
    pub cache_hits: u64,
    /// Cache probes that missed (or were invalidated) and executed
    /// normally. Always 0 without a cache.
    pub cache_misses: u64,
    /// Cache entries evicted on fingerprint mismatch (stale, poisoned or
    /// colliding); each also counts as a miss.
    pub cache_invalidations: u64,
    /// Output bytes materialized from the cache on hits.
    pub bytes_materialized: u64,
    /// Cache entries evicted by the byte-capacity bound during this run.
    pub cache_evictions: u64,
    /// The cache's persistence traffic during this run (all zero without
    /// a persistence directory).
    pub persist: PersistStats,
    /// Workers lost to an injected kill.
    pub worker_failures: u64,
    /// Failed attempts (injected transients, kernel panics) re-enqueued
    /// for retry.
    pub tasks_retried: u64,
    /// Per-tenant counts of a stream, indexed by tenant. Empty on a
    /// closed run.
    pub tenants: Vec<TenantCounts>,
    /// Per streamed submission: the committed task ids, or `None` if it
    /// was not admitted. Empty on a closed run.
    pub admitted: Vec<Option<Vec<TaskId>>>,
    /// Each rejection as `(submission index, typed error)`.
    pub rejections: Vec<(usize, AdmitError)>,
    /// Streamed submissions admitted.
    pub subdags_admitted: u64,
    /// Streamed submissions rejected with backpressure.
    pub subdags_rejected: u64,
}

impl RunReport {
    /// Did every admitted task complete without error?
    pub fn is_complete(&self) -> bool {
        self.error.is_none() && self.tasks_completed == self.tasks_admitted
    }
}

/// The runtime: buffers + submitted tasks, executed by [`Runtime::run`].
pub struct Runtime {
    platform: Platform,
    model: Arc<dyn PerfModel>,
    pub(crate) stf: StfBuilder,
    buffers: Vec<RwLock<Vec<f64>>>,
    impls: Vec<Kernels>,
    /// Architecture classes with at least one worker on the platform, in
    /// first-arch order.
    pub(crate) classes: Vec<ArchClass>,
    /// First impl-coverage violation found at submit time; reported by
    /// [`Runtime::run`] before any thread spawns.
    submit_error: Option<RunError>,
    /// Fault-injection plan applied by the next run (`None` = no faults).
    faults: Option<FaultPlan>,
    /// Retry budget for failed execution attempts (panics, injected
    /// transient failures). The default allows exactly one attempt.
    retry: RetryPolicy,
    /// Shared content-addressed result cache (`None` = caching off).
    /// A hit skips execution entirely — see [`Runtime::set_cache`].
    cache: Option<Arc<ResultCache>>,
    /// Fallback-estimate warnings, deduped per (task type, arch) across
    /// every run of this runtime — a warm re-run never re-prints them,
    /// and cache-hit tasks never reach the estimator at all.
    warned: FallbackWarnings,
}

impl Runtime {
    /// New runtime on `platform` with performance model `model` (wrap a
    /// `HistoryModel` to get online calibration from measured times).
    pub fn new(platform: Platform, model: Arc<dyn PerfModel>) -> Self {
        let mut classes = Vec::new();
        for a in platform.archs() {
            if !classes.contains(&a.class) {
                classes.push(a.class);
            }
        }
        Self {
            platform,
            model,
            classes,
            stf: StfBuilder::new(),
            buffers: Vec::new(),
            impls: Vec::new(),
            submit_error: None,
            faults: None,
            retry: RetryPolicy::default(),
            cache: None,
            warned: FallbackWarnings::new(),
        }
    }

    /// Consult `cache` before executing each task (DESIGN.md §12). A
    /// verified hit materializes the memoized output buffers and
    /// completes the task without ever pushing it into the scheduler;
    /// a miss executes normally and populates the cache with the
    /// written buffers. Share one cache across `Runtime` instances (or
    /// runs) via `Arc` to get warm starts and incremental
    /// re-execution.
    pub fn set_cache(&mut self, cache: Arc<ResultCache>) {
        self.cache = Some(cache);
    }

    /// FNV-1a digest over every registered buffer (length + f64 bit
    /// patterns, in registration order). Bit-identical buffer states —
    /// e.g. after a cold run and after a warm all-hit re-run — produce
    /// equal digests; any payload corruption shows up here.
    pub fn buffers_digest(&self) -> u64 {
        let mut h = hash::FNV_OFFSET;
        for b in &self.buffers {
            let buf = b.read().expect("buffer poisoned");
            h ^= buf.len() as u64;
            h = h.wrapping_mul(hash::FNV_PRIME);
            for v in buf.iter() {
                h ^= v.to_bits();
                h = h.wrapping_mul(hash::FNV_PRIME);
            }
        }
        h
    }

    /// Apply a [`FaultPlan`] to every subsequent run or serve: deterministic slow
    /// and stalled kernels, skewed model estimates, delayed wakeups —
    /// plus worker kills after a fixed completion count and per-attempt
    /// transient execution failures. Used by the validation harness to
    /// prove effectively-once execution and termination under
    /// adversarial timing; timing faults have no effect on results.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = (!plan.is_noop()).then_some(plan);
    }

    /// Retry failed execution attempts (kernel panics, injected
    /// transient failures) under `policy`: up to `max_attempts` tries
    /// per task with exponential backoff. The default policy allows a
    /// single attempt — the first failure aborts the run, exactly as
    /// before retry support existed.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Register a buffer; returns its handle. The initial contents are
    /// content-hashed into the handle's data version, so cache keys of
    /// tasks reading pre-write inputs follow the actual bytes:
    /// registering different inputs re-keys (and re-executes) their
    /// read cones, even across `Runtime` instances sharing one cache.
    pub fn register(&mut self, data: Vec<f64>, label: &str) -> DataId {
        let bytes = (data.len() * 8) as u64;
        let id = self.stf.graph_mut().add_data(bytes, label);
        let mut h = hash::FNV_OFFSET;
        h ^= data.len() as u64;
        h = h.wrapping_mul(hash::FNV_PRIME);
        for v in &data {
            h ^= v.to_bits();
            h = h.wrapping_mul(hash::FNV_PRIME);
        }
        self.stf.set_data_version(id, hash::mix64(h));
        self.buffers.push(RwLock::new(data));
        debug_assert_eq!(id.index() + 1, self.buffers.len());
        id
    }

    /// Submit a task; dependencies on earlier submissions are inferred
    /// from the declared accesses (STF). Implementation coverage is
    /// checked against the platform's architecture classes here; a task
    /// no worker could ever execute — including one with no
    /// implementation at all — makes the eventual [`Self::run`] return
    /// [`RunError::NoUsableImpl`] instead of deadlocking or panicking
    /// inside a worker thread.
    pub fn submit(&mut self, tb: TaskBuilder) -> TaskId {
        let ttype = tb.register_type(self.stf.graph_mut());
        let label = tb.label_or_type();
        let t = self
            .stf
            .submit_prio(ttype, tb.accesses, tb.flops, tb.priority, label.clone());
        if self.submit_error.is_none() && !tb.impls.runs_on(&self.classes) {
            self.submit_error = Some(RunError::NoUsableImpl {
                task: t,
                label,
                platform_classes: self.classes.clone(),
            });
        }
        self.impls.push(tb.impls);
        debug_assert_eq!(t.index() + 1, self.impls.len());
        t
    }

    /// Take back a buffer's contents after a run.
    pub fn buffer(&self, d: DataId) -> Vec<f64> {
        self.buffers[d.index()]
            .read()
            .expect("buffer poisoned")
            .clone()
    }

    /// The graph built so far (for analysis/tests).
    pub fn graph(&self) -> &TaskGraph {
        self.stf.graph()
    }

    /// Execute every submitted task under `scheduler` behind a single
    /// global lock ([`GlobalLock`]). Blocks until the whole DAG completes;
    /// buffers can be read back afterwards with [`Self::buffer`].
    pub fn run(&mut self, scheduler: Box<dyn Scheduler>) -> Result<RunReport, RunError> {
        let front = GlobalLock::new(scheduler);
        self.run_concurrent(&front)
    }

    /// Execute every submitted task by driving `front` from one thread
    /// per platform worker: a stream with no submissions. Any
    /// front-end works — [`GlobalLock`], `ShardedAdapter::new(n,
    /// factory)` or `RelaxedMultiQueue::new(workers, cfg)`, whose
    /// `rank_stats()` the caller reads afterwards.
    pub fn run_concurrent(
        &mut self,
        front: &dyn ConcurrentScheduler,
    ) -> Result<RunReport, RunError> {
        self.execute(front, 0, 0, |_, _| Decisions::default())
    }

    /// The one execution behind [`Self::run_concurrent`] and
    /// [`Self::serve_concurrent`]: admit every task submitted so far,
    /// start one worker thread per platform worker, then run `drive` on
    /// this thread. The stream closes when `drive` returns or unwinds,
    /// and the call returns at quiesce (or re-raises the driver's
    /// panic once the workers have exited). The graph, kernel table and
    /// per-tenant ledger (`tenants` entries) are moved into the engine
    /// for the duration, with room reserved for `streamed` more tasks,
    /// and the grown graph is moved back out; `drive` owns the STF
    /// inference state meanwhile, and its decisions land in the report.
    pub(crate) fn execute(
        &mut self,
        front: &dyn ConcurrentScheduler,
        tenants: usize,
        streamed: usize,
        drive: impl FnOnce(&Engine<'_>, &mut StfState) -> Decisions,
    ) -> Result<RunReport, RunError> {
        if let Some(err) = self.submit_error.clone() {
            return Err(err);
        }
        let faults = self.faults.unwrap_or_default();
        // Estimate skew wraps the model; measured feedback still reaches
        // the real model underneath.
        let skewed: Option<SkewedModel> = (faults.estimate_skew > 0.0)
            .then(|| SkewedModel::new(Arc::clone(&self.model), faults.estimate_skew, faults.seed));
        let nw = self.platform.worker_count();
        let platform = &self.platform;
        let (graph, mut stf) = mem::take(&mut self.stf).into_parts();
        let cache = self.cache.as_deref();
        let mut shared = Shared {
            graph,
            impls: mem::take(&mut self.impls),
            ..Shared::default()
        };
        shared.reserve(streamed);
        let eng = Engine {
            platform,
            model: match &skewed {
                Some(s) => s,
                None => &*self.model,
            },
            buffers: &self.buffers,
            front,
            cache,
            warned: &self.warned,
            faults,
            retry: self.retry,
            shared: RwLock::new(shared),
            ledger: TenantLedger::new(tenants),
            loads: AtomicLoads::new(nw),
            wake: WakeEpoch::new(),
            abort: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            error: Mutex::new(None),
            admitted: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            alive: (0..nw).map(|_| AtomicBool::new(true)).collect(),
            worker_classes: (0..nw)
                .map(|wi| {
                    platform
                        .arch(platform.worker(WorkerId::from_index(wi)).arch)
                        .class
                })
                .collect(),
            spans: Mutex::new(Vec::with_capacity(nw)),
            events: Mutex::new(Vec::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_invalidations: AtomicU64::new(0),
            bytes_materialized: AtomicU64::new(0),
            worker_failures: AtomicU64::new(0),
            tasks_retried: AtomicU64::new(0),
            cache_mark: cache.map_or_else(Default::default, ResultCache::mark),
            cells: (0..nw).map(|_| ObsCell::new()).collect(),
            host_obs: ObsCell::new(),
            start: Instant::now(),
        };
        // Tasks submitted before the run count as already-admitted
        // tenant-0 work.
        {
            let mut g = eng.write();
            let mut sources = Vec::new();
            if eng.admit(&mut g, 0, 0.0, &mut sources) {
                eng.release_sources(&g, &sources, &mut Scratch::default(), 0.0);
            }
        }
        let decisions = std::thread::scope(|scope| {
            for wi in 0..nw {
                let eng = &eng;
                scope.spawn(move || eng.worker(wi));
            }
            let _close = CloseOnDrop(&eng);
            drive(&eng, &mut stf)
        });
        let (shared, report) = eng.finish(decisions);
        // Restore the (possibly grown) graph and kernel table:
        // `graph()`/`buffer()` keep working, and a further run
        // re-executes every task, streamed ones included.
        self.stf = StfBuilder::from_parts(shared.graph, stf);
        self.impls = shared.impls;
        Ok(report)
    }
}

/// Closes the stream when the driver returns or unwinds. An unwinding
/// driver also aborts the execution, so the workers exit instead of
/// waiting for submissions that will never come, and the thread scope
/// joins them and re-raises the panic.
struct CloseOnDrop<'e, 'a>(&'e Engine<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort.store(true, Ordering::Release);
        }
        self.0.closed.store(true, Ordering::Release);
        self.0.wake.notify();
    }
}

/// Graph-coupled state: grown under the write guard by linking and
/// admission, read by workers (and by the driver's inference) under read
/// guards. Per-task vectors are indexed by task and append-only; their
/// atomics change under read guards (concurrent completions), the
/// vectors themselves only under the write guard.
#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) graph: TaskGraph,
    pub(crate) impls: Vec<Kernels>,
    indeg: Vec<AtomicUsize>,
    done: Vec<AtomicBool>,
    ready_at: Vec<AtomicU64>,
    attempts: Vec<AtomicU32>,
    tenant_of: Vec<u32>,
}

impl Shared {
    /// Room for the tasks the graph holds without per-task state yet, and
    /// for `additional` more in the graph, the kernel table and the
    /// per-task vectors.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let n = self.graph.task_count() - self.indeg.len() + additional;
        self.graph.reserve(additional);
        self.impls.reserve(additional);
        self.indeg.reserve(n);
        self.done.reserve(n);
        self.ready_at.reserve(n);
        self.attempts.reserve(n);
        self.tenant_of.reserve(n);
    }

    /// Per-task state for the tasks the graph gained since the last
    /// call, owned by `tenant` and ready from `now`. An indegree counts
    /// only the predecessors that have not completed yet. Returns the
    /// first new task index.
    fn grow(&mut self, tenant: usize, now: f64) -> usize {
        self.reserve(0);
        let from = self.indeg.len();
        let graph = &self.graph;
        for i in from..graph.task_count() {
            let open = graph
                .preds(TaskId::from_index(i))
                .iter()
                .filter(|p| !self.done[p.index()].load(Ordering::Acquire))
                .count();
            self.indeg.push(AtomicUsize::new(open));
            self.done.push(AtomicBool::new(false));
            self.ready_at.push(AtomicU64::new(now.to_bits()));
            self.attempts.push(AtomicU32::new(0));
            self.tenant_of.push(tenant as u32);
        }
        from
    }

    /// The successors of `t` whose last open dependency it was, stamped
    /// ready at `now`. Each call retires `t` as a dependency, so call it
    /// once per completion.
    fn readied(&self, t: TaskId, now: f64) -> impl Iterator<Item = TaskId> + '_ {
        self.graph.succs(t).iter().copied().filter(move |s| {
            let last = self.indeg[s.index()].fetch_sub(1, Ordering::AcqRel) == 1;
            if last {
                self.ready_at[s.index()].store(now.to_bits(), Ordering::Relaxed);
            }
            last
        })
    }
}

/// Vectors one thread reuses across releases, so a release allocates
/// only when its batch outgrows every earlier one.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The tasks being released: the ready ones, then those their
    /// cache hits ready.
    batch: Vec<TaskId>,
    /// The batch's cache misses, pushed once the whole batch is probed.
    misses: Vec<TaskId>,
}

/// The handles `task` writes, each once, in first-access order: the
/// order a populate stores its payload in and a hit materializes it.
fn distinct_writes(task: &Task) -> impl Iterator<Item = DataId> + '_ {
    let acc = &task.accesses;
    acc.iter()
        .enumerate()
        .filter(|&(i, a)| {
            a.mode.writes() && !acc[..i].iter().any(|b| b.mode.writes() && b.data == a.data)
        })
        .map(|(_, a)| a.data)
}

/// A worker's spans. It hands them to the engine when the worker exits,
/// unwinding included, so recording a completion takes no shared lock.
struct SpanBuffer<'e, 'a> {
    eng: &'e Engine<'a>,
    spans: Vec<TaskSpan>,
}

impl Drop for SpanBuffer<'_, '_> {
    fn drop(&mut self) {
        let spans = mem::take(&mut self.spans);
        self.eng
            .spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(spans);
    }
}

/// One execution: the state the workers and the driver share.
pub(crate) struct Engine<'a> {
    platform: &'a Platform,
    model: &'a dyn PerfModel,
    buffers: &'a [RwLock<Vec<f64>>],
    front: &'a dyn ConcurrentScheduler,
    cache: Option<&'a ResultCache>,
    warned: &'a FallbackWarnings,
    faults: FaultPlan,
    retry: RetryPolicy,
    shared: RwLock<Shared>,
    pub(crate) ledger: TenantLedger,
    loads: AtomicLoads,
    wake: WakeEpoch,
    abort: AtomicBool,
    /// Set once the driver has linked its last submission (or unwound).
    closed: AtomicBool,
    error: Mutex<Option<RunError>>,
    admitted: AtomicUsize,
    completed: AtomicUsize,
    /// Worker-failure state (dormant without kill faults). A worker only
    /// dies *between* tasks — after its k-th completion, before the next
    /// pop — so a death never strands an in-flight task; queued work is
    /// re-routed by `worker_disabled`.
    alive: Vec<AtomicBool>,
    worker_classes: Vec<ArchClass>,
    /// Each exited worker's span buffer.
    spans: Mutex<Vec<Vec<TaskSpan>>>,
    /// Park/wake timeline; only locked when obs is compiled in.
    events: Mutex<Vec<RuntimeEvent>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_invalidations: AtomicU64,
    bytes_materialized: AtomicU64,
    worker_failures: AtomicU64,
    tasks_retried: AtomicU64,
    /// The cache's counts when the execution started: one cache can
    /// serve many runs.
    cache_mark: CacheMark,
    /// Per-worker observability cells (no-ops unless `--features obs`).
    cells: Vec<ObsCell>,
    /// The calling thread's cell: admission of the submitted tasks and of
    /// every linked sub-DAG.
    host_obs: ObsCell,
    start: Instant,
}

impl Engine<'_> {
    pub(crate) fn now_us(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Shared> {
        self.shared.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Shared> {
        self.shared.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The write guard if no one holds the lock right now.
    pub(crate) fn try_write(&self) -> Option<RwLockWriteGuard<'_, Shared>> {
        match self.shared.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    fn view<'s>(&'s self, g: &'s Shared, now: f64) -> SchedView<'s> {
        SchedView {
            est: Estimator::new(&g.graph, self.platform, self.model),
            loc: &UnifiedMemory,
            load: &self.loads,
            now,
        }
    }

    /// Has the execution been aborted by a typed error?
    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Admitted tasks not yet completed. Only admission raises it, and
    /// only on the calling thread under the write guard; completions
    /// lower it concurrently.
    pub(crate) fn in_flight(&self) -> usize {
        self.admitted.load(Ordering::Acquire) - self.completed.load(Ordering::Acquire)
    }

    /// Wake parked workers after a link.
    pub(crate) fn notify(&self) {
        self.wake.notify();
    }

    /// Abort with `err` unless an earlier error already did.
    fn fail(&self, err: RunError) {
        let mut e = self.error.lock().unwrap_or_else(|p| p.into_inner());
        if e.is_none() {
            *e = Some(err);
        }
        drop(e);
        self.abort.store(true, Ordering::Release);
        self.wake.notify();
    }

    /// Record a timeline event (compiled out without `obs`).
    fn event(&self, worker: usize, kind: RuntimeEventKind) {
        if obs_enabled() {
            let at = self.now_us();
            let mut ev = self.events.lock().unwrap_or_else(|e| e.into_inner());
            ev.push(RuntimeEvent { worker, at, kind });
        }
    }

    /// Admit the tasks the graph gained since the last admission, owned
    /// by `tenant` and ready from `now`: their per-task state, the
    /// stream's counts and a capability check. Appends the ready ones to
    /// `sources` for [`Self::release_sources`], unless the check failed
    /// the execution; returns whether it passed. Runs on the calling
    /// thread under the write guard.
    pub(crate) fn admit(
        &self,
        g: &mut Shared,
        tenant: usize,
        now: f64,
        sources: &mut Vec<TaskId>,
    ) -> bool {
        let from = g.grow(tenant, now);
        let g: &Shared = g;
        let n = g.indeg.len() - from;
        self.admitted.fetch_add(n, Ordering::AcqRel);
        self.ledger.admit(tenant, n);
        // A death is swept when the worker dies; this check covers the
        // tasks linked after it. The sweep's read guard and this
        // write guard are ordered, so one of the two sees the other.
        if self.faults.kills_any() {
            if let Some(t) = self.doomed(g, from) {
                self.fail(RunError::NoCapableWorker { task: t });
                return false;
            }
        }
        // Snapshot the sources before any is released: a cache hit
        // completes in place and can drive successors' indegrees to
        // zero, and those are released by the cascade — the scan must
        // only ever see true sources.
        sources.extend(
            (from..g.indeg.len())
                .filter(|&i| g.indeg[i].load(Ordering::Relaxed) == 0)
                .map(TaskId::from_index),
        );
        true
    }

    /// Release admitted `sources` at `now` from the calling thread, in
    /// one [`Self::release`] call, under a read or the write guard.
    pub(crate) fn release_sources(
        &self,
        g: &Shared,
        sources: &[TaskId],
        scratch: &mut Scratch,
        now: f64,
    ) {
        self.release(
            g,
            sources.iter().copied(),
            scratch,
            None,
            now,
            &self.host_obs,
        );
    }

    /// The first task from index `from` on that has not completed and
    /// that no surviving worker's class can execute.
    fn doomed(&self, g: &Shared, from: usize) -> Option<TaskId> {
        (from..g.impls.len())
            .find(|&i| {
                !g.done[i].load(Ordering::Acquire)
                    && !self
                        .worker_classes
                        .iter()
                        .zip(&self.alive)
                        .any(|(&c, a)| a.load(Ordering::Acquire) && g.impls[i].has(c))
            })
            .map(TaskId::from_index)
    }

    /// Release `ready`, tasks whose dependencies are all met, at `now`.
    /// Without a result cache each goes straight to the front-end. With
    /// one, each is probed first (DESIGN.md §12): a verified
    /// payload-carrying hit completes right here — its memoized buffers
    /// are copied back under the write locks, the completion is
    /// published and the successors it readies join the batch — and never
    /// reaches the front-end, the estimator or a kernel. The misses are
    /// pushed only after the whole batch was probed: a pushed task can
    /// run and populate the cache at once, and a sibling with its key
    /// must still miss, so tasks released together see one cache state.
    /// Callers hold a `shared` guard, so the graph cannot grow under the
    /// cascade, and wake the workers once they drop it; a task is
    /// released exactly once (by its unique releaser), so on a cached run
    /// `hits + misses == tasks`. `scratch` holds the batch and its misses.
    fn release(
        &self,
        g: &Shared,
        ready: impl IntoIterator<Item = TaskId>,
        scratch: &mut Scratch,
        via: Option<WorkerId>,
        now: f64,
        obs: &ObsCell,
    ) {
        let Some(rc) = self.cache else {
            let view = self.view(g, now);
            for t in ready {
                self.front.push(t, via, &view);
                obs.bump(Counter::Pushes);
            }
            let _ = self.front.drain_prefetches(); // unified memory: no-op
            return;
        };
        let graph = &g.graph;
        let lane = via.map_or(self.cells.len(), |w| w.index());
        let Scratch { batch, misses } = scratch;
        batch.clear();
        batch.extend(ready);
        misses.clear();
        let mut next = 0;
        while let Some(&t) = batch.get(next) {
            next += 1;
            let entry = match graph.cache_meta(t).map(|m| rc.lookup(m, true)) {
                Some(Lookup::Hit(e)) => e,
                other => {
                    if matches!(other, Some(Lookup::Invalidated)) {
                        self.cache_invalidations.fetch_add(1, Ordering::Relaxed);
                        self.event(lane, RuntimeEventKind::CacheInvalidated);
                    }
                    self.cache_misses.fetch_add(1, Ordering::Relaxed);
                    misses.push(t);
                    continue;
                }
            };
            // Materialize the payload in the same dedup'd write order
            // the populate path stored it. The task is ready, so WAR/RAW
            // edges guarantee no live reader or writer of these buffers
            // — locking is as safe as executing.
            let payload = entry
                .payload
                .as_ref()
                .expect("payload-less entry served to the runtime");
            for (i, d) in distinct_writes(graph.task(t)).enumerate() {
                let src = &payload[i];
                let mut buf = self.buffers[d.index()].write().expect("buffer poisoned");
                buf.clear();
                buf.extend_from_slice(src);
            }
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.bytes_materialized
                .fetch_add(entry.bytes, Ordering::Relaxed);
            self.event(lane, RuntimeEventKind::CacheHit);
            g.done[t.index()].store(true, Ordering::Release);
            self.ledger.complete(g.tenant_of[t.index()] as usize, true);
            self.completed.fetch_add(1, Ordering::AcqRel);
            batch.extend(g.readied(t, self.now_us()));
        }
        let view = self.view(g, now);
        for &t in misses.iter() {
            self.front.push(t, via, &view);
            obs.bump(Counter::Pushes);
        }
        let _ = self.front.drain_prefetches();
    }

    /// A worker's self-published death: re-route its queued work, and
    /// abort typed instead of hanging when some remaining task keeps no
    /// capable surviving worker.
    fn quarantine(&self, w: WorkerId) {
        self.worker_failures.fetch_add(1, Ordering::Relaxed);
        self.event(w.index(), RuntimeEventKind::WorkerFailed);
        let g = self.read();
        self.front.worker_disabled(w, &self.view(&g, self.now_us()));
        match self.doomed(&g, 0) {
            Some(t) => self.fail(RunError::NoCapableWorker { task: t }),
            None => self.wake.notify(),
        }
    }

    /// A failed attempt of `t`: abort with `exhausted(attempts)` once the
    /// retry budget is spent, otherwise back off and re-enter the
    /// scheduler. Returns whether the worker carries on.
    fn retry(
        &self,
        t: TaskId,
        w: WorkerId,
        obs: &ObsCell,
        exhausted: impl FnOnce(u32) -> RunError,
    ) -> bool {
        let made = self.read().attempts[t.index()].fetch_add(1, Ordering::AcqRel) + 1;
        if made >= self.retry.max_attempts {
            self.fail(exhausted(made));
            return false;
        }
        self.tasks_retried.fetch_add(1, Ordering::Relaxed);
        self.event(w.index(), RuntimeEventKind::TaskRetried);
        let backoff = self.retry.backoff_for(made);
        if backoff > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(backoff * 1e-6));
        }
        let g = self.read();
        self.front
            .push_retry(t, made, &self.view(&g, self.now_us()));
        drop(g);
        obs.bump(Counter::Pushes);
        self.wake.notify();
        true
    }

    /// The worker loop of worker `wi`.
    fn worker(&self, wi: usize) {
        let w = WorkerId::from_index(wi);
        let obs = &self.cells[wi];
        let arch = self.platform.worker(w).arch;
        let class = self.worker_classes[wi];
        let kill_after = self.faults.kill_after(wi);
        // Committed tasks on this worker; read only by its own
        // kill-threshold check.
        let mut my_done = 0u32;
        let mut spans = SpanBuffer {
            eng: self,
            spans: Vec::new(),
        };
        let mut scratch = Scratch::default();
        // The running task's buffer guards; empty between tasks.
        let mut guards: Vec<BufRef<'_>> = Vec::new();
        loop {
            // Epoch BEFORE the exit check and the pop attempt: any
            // completion, abort, push or commit bumps it *after* its
            // state change, so either the check/pop below observes the
            // change, or wait() sees a moved epoch and returns
            // immediately. (Reading the epoch after the exit check left
            // a window where the final completed-increment and its
            // notify both landed in between: the worker then parked on
            // the fresh epoch with no notify ever coming — a rare
            // end-of-run hang.)
            let seen = self.wake.current();
            // Fault plan: die after the configured number of completions.
            // The death is self-published here, between tasks — never
            // mid-kernel — so nothing is lost in flight.
            if kill_after.is_some_and(|k| my_done >= k)
                && self.alive[wi].swap(false, Ordering::AcqRel)
            {
                self.quarantine(w);
                return;
            }
            if self.aborted()
                || (self.closed.load(Ordering::Acquire)
                    && self.completed.load(Ordering::Acquire)
                        >= self.admitted.load(Ordering::Acquire))
            {
                self.wake.notify();
                return;
            }

            // First guard: pop through start.
            let g = self.read();
            let popped = self.front.pop(w, &self.view(&g, self.now_us()));
            let Some(t) = popped else {
                drop(g);
                // Nothing for us now. If the scheduler holds tasks back,
                // poppability can change by time alone — bounded
                // re-poll; otherwise park until the next push,
                // completion or commit.
                let bound = (self.front.pending() > 0).then_some(HOLDBACK_REPOLL);
                self.event(wi, RuntimeEventKind::Park);
                self.wake.wait(seen, bound);
                self.event(wi, RuntimeEventKind::Wake);
                continue;
            };
            obs.bump(Counter::Pops);
            let ti = t.index();
            // Injected transient failure: the attempt dies before the
            // kernel runs, so a failed attempt leaves no effect on the
            // buffers (effectively-once semantics need exactly one
            // *committed* execution; failed attempts must be pure).
            if self
                .faults
                .transient_fails(ti, g.attempts[ti].load(Ordering::Relaxed))
            {
                drop(g);
                if !self.retry(t, w, obs, |made| RunError::RetryExhausted {
                    task: t,
                    attempts: made,
                }) {
                    return;
                }
                continue;
            }
            // Estimate for the load table, then execute. A missing model
            // entry falls back to an arch mean or the uncalibrated
            // default instead of silently recording zero load.
            let graph = &g.graph;
            let delta_est = Estimator::new(graph, self.platform, self.model).delta_or_mean(t, arch);
            if !delta_est.is_exact() {
                let tt = graph.task(t).ttype;
                if self.warned.first(tt, arch) {
                    let kind = match delta_est {
                        DeltaEstimate::ArchMean(_) => "arch-class mean",
                        _ => "uncalibrated default",
                    };
                    eprintln!(
                        "mp-runtime: no calibrated estimate for task type \
                         '{}' on arch {:?}; using {} of {:.1} µs",
                        graph.task_type(tt).name,
                        arch,
                        kind,
                        delta_est.us(),
                    );
                }
            }
            let t_start = self.now_us();
            self.loads.set(w, t_start + delta_est.us());
            self.front
                .feedback(&SchedEvent::TaskStarted { t, w }, &self.view(&g, t_start));
            // Resolve the kernel before touching buffers; a miss is a
            // scheduler bug — abort the run with a typed error instead
            // of panicking in a scoped thread.
            let Some(kernel) = g.impls[ti].get(class).cloned() else {
                self.fail(RunError::MissingKernel { task: t, class });
                return;
            };
            // Lock buffers in access order (deps guarantee no cycles
            // among concurrent tasks).
            guards.extend(graph.task(t).accesses.iter().map(|a| {
                let b = &self.buffers[a.data.index()];
                if a.mode.writes() {
                    BufRef::W(b.write().expect("buffer poisoned"))
                } else {
                    BufRef::R(b.read().expect("buffer poisoned"))
                }
            }));
            drop(g);

            // Run the kernel behind a panic boundary: a panicking user
            // kernel must not unwind through the scoped-thread team
            // (which would poison the span mutex and re-panic the whole
            // run) — it becomes a typed error with a partial trace.
            // `ctx` lives outside the closure, so its buffer guards drop
            // on the normal path and the `RwLock`s are never poisoned.
            let mut ctx = TaskCtx::new(mem::take(&mut guards));
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.faults.kernel_panics(ti) {
                    panic!("injected kernel panic ({t:?})");
                }
                kernel(&mut ctx);
            }))
            .is_err();
            guards = ctx.into_bufs();
            guards.clear();
            if panicked {
                // A retryable panic leaves the worker alive; the task
                // re-enters the scheduler after backoff.
                self.loads.set(w, self.now_us());
                if !self.retry(t, w, obs, |_| RunError::KernelPanicked { task: t }) {
                    return;
                }
                continue;
            }
            // Injected slow-down/stall: sleeps *inside* the measured
            // window, so history models observe the perturbed duration
            // like a real hiccup.
            if let Some(delay) = self.faults.kernel_delay(ti) {
                std::thread::sleep(delay);
            }
            let t_end = self.now_us();
            self.loads.set(w, t_end);

            // Second guard: completion through release.
            let g = self.read();
            let graph = &g.graph;
            let task = graph.task(t);
            Estimator::new(graph, self.platform, self.model).record(t, arch, t_end - t_start);
            spans.spans.push(TaskSpan {
                task: t,
                ttype: task.ttype,
                worker: w,
                ready_at: f64::from_bits(g.ready_at[ti].load(Ordering::Relaxed)),
                start: t_start,
                end: t_end,
            });
            // Populate the result cache before releasing successors:
            // clone the written buffers in dedup'd write order — the
            // same order a future hit materializes them back — while no
            // successor can yet be re-writing them.
            if let (Some(rc), Some(meta)) = (self.cache, graph.cache_meta(t)) {
                let mut payload: Vec<Vec<f64>> = Vec::new();
                let mut bytes = 0u64;
                for d in distinct_writes(task) {
                    let buf = self.buffers[d.index()].read().expect("buffer poisoned");
                    bytes += (buf.len() * 8) as u64;
                    payload.push(buf.clone());
                }
                rc.insert(meta, Some(payload), bytes);
            }
            // Release successors and report completion. Events and
            // pushes reach the front-end in this thread's program order;
            // the front-end sequences them globally (GlobalLock by its
            // mutex, the sharded adapter by its event log).
            self.front.feedback(
                &SchedEvent::TaskFinished {
                    t,
                    w,
                    elapsed_us: t_end - t_start,
                },
                &self.view(&g, t_end),
            );
            g.done[ti].store(true, Ordering::Release);
            self.release(&g, g.readied(t, t_end), &mut scratch, Some(w), t_end, obs);
            self.ledger.complete(g.tenant_of[ti] as usize, false);
            self.completed.fetch_add(1, Ordering::AcqRel);
            drop(g);
            my_done += 1;
            // Injected wakeup latency: successors were already pushed,
            // but parked workers learn about it late.
            if let Some(delay) = self.faults.wake_delay() {
                std::thread::sleep(delay);
            }
            // Every push/completion wakes parked workers.
            self.wake.notify();
        }
    }

    /// Quiesce: hand the graph state back and fold everything the
    /// execution recorded, and the driver's `decisions`, into one report.
    fn finish(self, (admitted, rejections): Decisions) -> (Shared, RunReport) {
        // Mid-run failures surface on the report next to the partial
        // trace — `Err` is reserved for checks made before the start.
        let makespan_us = self.now_us();
        let error = self.error.into_inner().unwrap_or_else(|p| p.into_inner());
        let mut trace = Trace::new(self.cells.len());
        trace.tasks = self
            .spans
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .concat();
        // Wall-clock ties are real under coarse timers: break them by
        // task id so the span order (and every downstream export) is
        // deterministic.
        trace
            .tasks
            .sort_by(|a, b| a.end.total_cmp(&b.end).then(a.task.cmp(&b.task)));
        let mut counters = self.front.counters();
        self.host_obs.drain_into(&mut counters);
        for c in &self.cells {
            c.drain_into(&mut counters);
        }
        let (cache_evictions, persist) = self
            .cache
            .map_or_else(Default::default, |rc| rc.since(&self.cache_mark));
        let mut events = self.events.into_inner().unwrap_or_else(|p| p.into_inner());
        events.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.worker.cmp(&b.worker)));
        let report = RunReport {
            makespan_us,
            trace,
            scheduler: self.front.name(),
            error,
            counters,
            events,
            tasks_admitted: self.admitted.into_inner(),
            tasks_completed: self.completed.into_inner(),
            cache_hits: self.cache_hits.into_inner(),
            cache_misses: self.cache_misses.into_inner(),
            cache_invalidations: self.cache_invalidations.into_inner(),
            bytes_materialized: self.bytes_materialized.into_inner(),
            cache_evictions,
            persist,
            worker_failures: self.worker_failures.into_inner(),
            tasks_retried: self.tasks_retried.into_inner(),
            tenants: self.ledger.counts(),
            subdags_admitted: admitted.iter().flatten().count() as u64,
            subdags_rejected: rejections.len() as u64,
            admitted,
            rejections,
        };
        let shared = self.shared.into_inner().unwrap_or_else(|e| e.into_inner());
        (shared, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_perfmodel::{TableModel, TimeFn};
    use mp_platform::presets::homogeneous;
    use mp_sched::concurrent::{RelaxedConfig, RelaxedMultiQueue, ShardedAdapter};
    use mp_sched::FifoScheduler;

    fn model() -> Arc<dyn PerfModel> {
        Arc::new(
            TableModel::builder()
                .set("AXPY", ArchClass::Cpu, TimeFn::Const(10.0))
                .set("SUM", ArchClass::Cpu, TimeFn::Const(10.0))
                .build(),
        )
    }

    #[test]
    fn runs_a_chain_with_correct_results() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![1.0; 100], "x");
        // x *= 3, twice => x == 9 elementwise.
        for _ in 0..2 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v *= 3.0;
                        }
                    })
                    .flops(100.0),
            );
        }
        let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
        assert_eq!(report.trace.tasks.len(), 2);
        assert!(report.trace.validate().is_ok());
        assert!(rt.buffer(x).iter().all(|&v| v == 9.0));
    }

    #[test]
    fn parallel_fan_out_and_reduce() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let parts: Vec<DataId> = (0..8)
            .map(|i| rt.register(vec![0.0], &format!("p{i}")))
            .collect();
        let total = rt.register(vec![0.0], "total");
        for (i, &p) in parts.iter().enumerate() {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(p, AccessMode::Write)
                    .cpu(move |ctx| ctx.w(0)[0] = (i + 1) as f64)
                    .flops(1.0),
            );
        }
        // Reduction reads all parts.
        let mut tb = TaskBuilder::new("SUM").access(total, AccessMode::Write);
        for &p in &parts {
            tb = tb.access(p, AccessMode::Read);
        }
        rt.submit(
            tb.cpu(|ctx| {
                let mut s = 0.0;
                for i in 1..ctx.len() {
                    s += ctx.r(i)[0];
                }
                ctx.w(0)[0] = s;
            })
            .flops(8.0),
        );
        assert_eq!(rt.graph().task_count(), 9);
        let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
        assert_eq!(report.trace.tasks.len(), 9);
        assert!(report.trace.validate().is_ok());
        // The reduction must have executed last and computed 1+2+...+8.
        let last = report.trace.tasks.last().unwrap();
        assert_eq!(last.ttype.index(), 1, "SUM finishes last");
        assert_eq!(rt.buffer(total)[0], 36.0);
    }

    #[test]
    fn sharded_front_end_runs_the_same_dag() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let x = rt.register(vec![1.0; 64], "x");
        for _ in 0..4 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v *= 2.0;
                        }
                    })
                    .flops(64.0),
            );
        }
        let front = ShardedAdapter::new(4, &|| Box::new(FifoScheduler::new()));
        let report = rt.run_concurrent(&front).expect("run failed");
        assert_eq!(report.trace.tasks.len(), 4);
        assert!(report.trace.validate().is_ok());
        assert!(report.scheduler.contains("sharded"));
        assert!(rt.buffer(x).iter().all(|&v| v == 16.0));
    }

    /// Regression: quiesce must not lose the final wakeup. The worker
    /// loop once read the wake epoch *after* its exit check; the last
    /// completion (increment + notify) could land in between, leaving a
    /// peer parked on the fresh epoch with no notify ever coming — a
    /// rare end-of-run hang. Many tiny runs with more workers than
    /// tasks maximize that window; the watchdog turns a recurrence into
    /// a test failure instead of a hung suite.
    #[test]
    fn quiesce_never_loses_the_final_wakeup() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..200u32 {
                let mut rt = Runtime::new(homogeneous(4), model());
                let x = rt.register(vec![0.0; 4], "x");
                for _ in 0..2 {
                    rt.submit(
                        TaskBuilder::new("AXPY")
                            .access(x, AccessMode::ReadWrite)
                            .cpu(|ctx| ctx.w(0)[0] += 1.0)
                            .flops(1.0),
                    );
                }
                let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
                assert_eq!(report.trace.tasks.len(), 2, "round {round}");
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(120))
            .expect("a worker parked through the final notify (lost-wakeup hang)");
    }

    #[test]
    fn panicking_kernel_is_contained_with_a_partial_trace() {
        // One worker, a ReadWrite chain: execution order is the submit
        // order, so the panic victim and the partial-trace size are
        // deterministic.
        let mut rt = Runtime::new(homogeneous(1), model());
        let x = rt.register(vec![0.0; 8], "x");
        for _ in 0..2 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        let bad = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|_| panic!("kernel bug"))
                .flops(1.0),
        );
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let report = rt
            .run(Box::new(FifoScheduler::new()))
            .expect("panic is contained, not returned as Err");
        assert_eq!(report.error, Some(RunError::KernelPanicked { task: bad }));
        assert!(!report.is_complete());
        assert_eq!(report.trace.tasks.len(), 2, "spans up to the panic survive");
        assert!(report.trace.validate().is_ok(), "partial trace stays valid");
        // The panic never unwound while a buffer guard dropped, so the
        // buffers stay readable afterwards.
        assert_eq!(rt.buffer(x)[0], 2.0);
    }

    /// Regression for the lock-poisoning cascade: a kernel panic is
    /// contained by the worker loop's `catch_unwind`, but the panic
    /// machinery can poison scheduler-side mutexes touched during the
    /// unwind/abort window. The sharded and relaxed front-ends used to
    /// `expect("... poisoned")` on those, turning one `KernelPanicked`
    /// into a panic storm across the surviving workers. Both must now
    /// finish the run and surface the typed error.
    #[test]
    fn panicking_kernel_under_sharded_front_end_reports_kernel_panicked() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let x = rt.register(vec![0.0; 8], "x");
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let bad = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|_| panic!("kernel bug"))
                .flops(1.0),
        );
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let front = ShardedAdapter::new(4, &|| Box::new(FifoScheduler::new()));
        let report = rt
            .run_concurrent(&front)
            .expect("panic is contained, not returned as Err");
        assert_eq!(report.error, Some(RunError::KernelPanicked { task: bad }));
        assert!(!report.is_complete());
        assert!(report.trace.validate().is_ok(), "partial trace stays valid");
    }

    #[test]
    fn panicking_kernel_under_relaxed_front_end_reports_kernel_panicked() {
        let mut rt = Runtime::new(homogeneous(4), model());
        let x = rt.register(vec![0.0; 8], "x");
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let bad = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|_| panic!("kernel bug"))
                .flops(1.0),
        );
        rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        let front = RelaxedMultiQueue::new(4, RelaxedConfig::default());
        let report = rt
            .run_concurrent(&front)
            .expect("panic is contained, not returned as Err");
        assert_eq!(report.error, Some(RunError::KernelPanicked { task: bad }));
        assert!(!report.is_complete());
        assert!(report.trace.validate().is_ok(), "partial trace stays valid");
    }

    #[test]
    fn fault_plan_panic_mode_reports_kernel_panicked() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 8], "x");
        for _ in 0..4 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        rt.set_faults(FaultPlan {
            seed: 5,
            panic_prob: 1.0,
            ..FaultPlan::default()
        });
        let report = rt.run(Box::new(FifoScheduler::new())).expect("contained");
        assert!(
            matches!(report.error, Some(RunError::KernelPanicked { .. })),
            "got {:?}",
            report.error
        );
        assert!(report.trace.tasks.is_empty(), "every kernel panics");
    }

    #[test]
    fn killed_worker_is_quarantined_and_the_run_completes() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 4], "x");
        for _ in 0..6 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        rt.set_faults(FaultPlan::default().kill_worker(0, 1));
        let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert_eq!(report.trace.tasks.len(), 6);
        assert!(report.trace.validate().is_ok());
        // Effectively-once: each of the six increments landed exactly once.
        assert_eq!(rt.buffer(x)[0], 6.0);
    }

    #[test]
    fn transient_failures_are_retried_to_completion() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 4], "x");
        for _ in 0..4 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        let plan = FaultPlan {
            seed: 7,
            transient_fail_prob: 0.5,
            ..FaultPlan::default()
        };
        rt.set_faults(plan);
        rt.set_retry_policy(RetryPolicy::new(16, 0.0));
        let report = rt.run(Box::new(FifoScheduler::new())).expect("run failed");
        assert!(report.is_complete(), "{:?}", report.error);
        // A failed attempt must leave no effect: exactly one committed
        // execution (and one span) per task despite the retries.
        assert_eq!(report.trace.tasks.len(), 4);
        assert_eq!(rt.buffer(x)[0], 4.0);
        // Every failed attempt was retried, and the report counts each
        // one whatever the build's features.
        let failed: u64 = (0..4)
            .map(|ti| (0..16).take_while(|&a| plan.transient_fails(ti, a)).count() as u64)
            .sum();
        assert!(failed > 0, "the plan never failed an attempt");
        assert_eq!(report.tasks_retried, failed);
        assert_eq!(report.worker_failures, 0);
    }

    #[test]
    fn exhausted_retries_surface_typed() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 4], "x");
        let t = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .cpu(|ctx| ctx.w(0)[0] += 1.0)
                .flops(1.0),
        );
        rt.set_faults(FaultPlan {
            seed: 3,
            transient_fail_prob: 1.0,
            ..FaultPlan::default()
        });
        rt.set_retry_policy(RetryPolicy::new(3, 0.0));
        let report = rt.run(Box::new(FifoScheduler::new())).expect("contained");
        assert_eq!(
            report.error,
            Some(RunError::RetryExhausted {
                task: t,
                attempts: 3
            })
        );
        assert!(report.trace.tasks.is_empty());
        assert_eq!(rt.buffer(x)[0], 0.0, "failed attempts have no effect");
    }

    #[test]
    fn killing_every_worker_is_a_typed_no_capable_worker() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0; 4], "x");
        for _ in 0..2 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| ctx.w(0)[0] += 1.0)
                    .flops(1.0),
            );
        }
        rt.set_faults(FaultPlan::default().kill_worker(0, 0).kill_worker(1, 0));
        let report = rt.run(Box::new(FifoScheduler::new())).expect("contained");
        assert!(
            matches!(report.error, Some(RunError::NoCapableWorker { .. })),
            "got {:?}",
            report.error
        );
        assert!(report.trace.tasks.is_empty(), "both workers died at start");
        // The report counts both kills whatever the build's features.
        assert_eq!(report.worker_failures, 2);
        assert_eq!(report.tasks_retried, 0);
    }

    /// A pipeline with real data flow: init writes, two scale passes,
    /// a reduction. Registering `input` as the seed value exercises the
    /// content-addressed input versioning.
    fn cached_pipeline(input: f64) -> (Runtime, DataId, DataId) {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![input; 64], "x");
        let sum = rt.register(vec![0.0], "sum");
        for _ in 0..2 {
            rt.submit(
                TaskBuilder::new("AXPY")
                    .access(x, AccessMode::ReadWrite)
                    .cpu(|ctx| {
                        for v in ctx.w(0) {
                            *v *= 3.0;
                        }
                    })
                    .flops(64.0),
            );
        }
        rt.submit(
            TaskBuilder::new("SUM")
                .access(sum, AccessMode::Write)
                .access(x, AccessMode::Read)
                .cpu(|ctx| ctx.w(0)[0] = ctx.r(1).iter().sum())
                .flops(64.0),
        );
        (rt, x, sum)
    }

    #[test]
    fn warm_run_hits_everything_with_bit_identical_buffers() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, sum) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        let report = cold.run(Box::new(FifoScheduler::new())).expect("cold run");
        assert!(report.is_complete());
        assert_eq!(report.trace.tasks.len(), 3, "cold run executes everything");
        assert_eq!(cold.buffer(sum)[0], 9.0 * 64.0);
        let cold_digest = cold.buffers_digest();
        assert_eq!(cache.len(), 3);

        // Same program, same inputs, fresh runtime: every task hits.
        let (mut warm, x, sum) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let report = warm.run(Box::new(FifoScheduler::new())).expect("warm run");
        assert!(report.is_complete(), "{:?}", report.error);
        assert!(
            report.trace.tasks.is_empty(),
            "a fully-warm run executes nothing, got {} spans",
            report.trace.tasks.len()
        );
        assert!(warm.buffer(x).iter().all(|&v| v == 9.0));
        assert_eq!(warm.buffer(sum)[0], 9.0 * 64.0);
        assert_eq!(
            warm.buffers_digest(),
            cold_digest,
            "materialized outputs must be bit-identical to recomputed ones"
        );
    }

    #[test]
    fn changed_input_re_executes_and_never_serves_stale_data() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, _) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        cold.run(Box::new(FifoScheduler::new())).expect("cold run");

        // Different input contents: the registration content-hash
        // re-keys the whole read cone, so nothing may hit.
        let (mut edited, x, sum) = cached_pipeline(2.0);
        edited.set_cache(Arc::clone(&cache));
        let report = edited.run(Box::new(FifoScheduler::new())).expect("run");
        assert!(report.is_complete());
        assert_eq!(report.trace.tasks.len(), 3, "whole cone re-executes");
        assert!(edited.buffer(x).iter().all(|&v| v == 18.0));
        assert_eq!(edited.buffer(sum)[0], 18.0 * 64.0);
    }

    #[test]
    fn poisoned_entry_recomputes_instead_of_serving_garbage() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, _) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        cold.run(Box::new(FifoScheduler::new())).expect("cold run");
        let k0 = cold
            .graph()
            .cache_meta(TaskId::from_index(0))
            .expect("meta")
            .key;
        assert!(cache.poison(k0), "entry for t0 exists");

        let (mut warm, x, sum) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let report = warm.run(Box::new(FifoScheduler::new())).expect("warm run");
        assert!(report.is_complete());
        // The poisoned entry is detected (fingerprint mismatch), t0
        // re-executes, and its downstream tasks still hit.
        assert_eq!(report.trace.tasks.len(), 1, "only t0 re-executes");
        assert_eq!(report.trace.tasks[0].task, TaskId::from_index(0));
        assert!(warm.buffer(x).iter().all(|&v| v == 9.0));
        assert_eq!(warm.buffer(sum)[0], 9.0 * 64.0);
    }

    #[test]
    fn warm_run_works_under_the_sharded_front_end() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, _) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        cold.run_concurrent(&ShardedAdapter::new(2, &|| Box::new(FifoScheduler::new())))
            .expect("cold run");
        let digest = cold.buffers_digest();

        let (mut warm, _, _) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let report = warm
            .run_concurrent(&ShardedAdapter::new(2, &|| Box::new(FifoScheduler::new())))
            .expect("warm run");
        assert!(report.is_complete());
        assert!(report.trace.tasks.is_empty());
        assert_eq!(warm.buffers_digest(), digest);
    }

    #[test]
    fn cache_counters_balance_and_hit_tasks_skip_the_scheduler() {
        let cache = Arc::new(ResultCache::new());
        let (mut cold, _, _) = cached_pipeline(1.0);
        cold.set_cache(Arc::clone(&cache));
        let cold_report = cold.run(Box::new(FifoScheduler::new())).expect("cold run");
        assert_eq!(cold_report.cache_hits, 0);
        assert_eq!(cold_report.cache_misses, 3);

        let (mut warm, _, _) = cached_pipeline(1.0);
        warm.set_cache(Arc::clone(&cache));
        let warm_report = warm.run(Box::new(FifoScheduler::new())).expect("warm run");
        assert_eq!(warm_report.cache_hits, 3);
        assert_eq!(warm_report.cache_misses, 0);
        assert!(warm_report.bytes_materialized > 0);
        // Hit tasks bypass the scheduler front entirely: no pushes and
        // no pops.
        if obs_enabled() {
            assert_eq!(warm_report.counters.pushes, 0);
            assert_eq!(warm_report.counters.pops, 0);
            assert!(warm_report
                .events
                .iter()
                .any(|e| e.kind == RuntimeEventKind::CacheHit));
        } else {
            assert!(warm_report.counters.is_empty());
        }
    }

    #[test]
    fn unusable_task_is_a_typed_error_not_a_hang() {
        // CPU-only platform, GPU-only task: no worker can ever run it.
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0], "x");
        let t = rt.submit(
            TaskBuilder::new("AXPY")
                .access(x, AccessMode::ReadWrite)
                .gpu(|_| {})
                .flops(1.0),
        );
        match rt.run(Box::new(FifoScheduler::new())) {
            Err(RunError::NoUsableImpl {
                task,
                platform_classes,
                ..
            }) => {
                assert_eq!(task, t);
                assert_eq!(platform_classes, vec![ArchClass::Cpu]);
            }
            other => panic!("expected NoUsableImpl, got {other:?}"),
        }
    }

    #[test]
    fn task_without_any_implementation_is_a_typed_error() {
        let mut rt = Runtime::new(homogeneous(2), model());
        let x = rt.register(vec![0.0], "x");
        let t = rt.submit(TaskBuilder::new("AXPY").access(x, AccessMode::Read));
        match rt.run(Box::new(FifoScheduler::new())) {
            Err(RunError::NoUsableImpl { task, label, .. }) => {
                assert_eq!(task, t);
                assert_eq!(label, "AXPY");
            }
            other => panic!("expected NoUsableImpl, got {other:?}"),
        }
    }
}
