//! # mp-audit — differential sim/runtime validation harness
//!
//! Runs the **same DAG × platform × scheduler** through two independent
//! executors and diffs what must agree:
//!
//! * the discrete-event simulator ([`mp_sim::simulate`]) in virtual time;
//! * the threaded runtime ([`mp_runtime::Runtime`]) with the computing
//!   mirror kernels of [`mirror_graph_computing`], on real worker threads.
//!
//! The executors share almost no code past the scheduler trait — the
//! simulator's coherence/transfer machinery and the runtime's
//! thread/parking machinery are entirely disjoint — so invariants they
//! *both* uphold (exactly-once execution, full completion, precedence
//! ordering) are unlikely to hold by a shared bug.
//!
//! Three layers compound:
//!
//! 1. [`differential`] — one configuration end to end, returning a
//!    [`DiffReport`] of every disagreement;
//! 2. the simulator's built-in invariant auditor (build with
//!    `--features mp-sim/audit`) — MSI coherence, capacity, pin balance,
//!    link/event monotonicity — whose records the report surfaces;
//! 3. [`mp_runtime::FaultPlan`] — worker kills and transient failures on
//!    both sides, plus slow/stalled kernels, skewed estimates and delayed
//!    wakeups on the runtime side, proving the agreement is not an
//!    artifact of benign timing.
//!
//! Every audit takes one [`DiffConfig`] and honours all of it. Its
//! [`Front`] names the scheduler front-end: the global lock, the sharded
//! multi-queue, or the relaxed multi-queue, which the simulator drives
//! too. Its fault plan and retry budget apply to every run. One private
//! runner builds the chosen front-end and runs a closed graph or serves a
//! stream on it, so [`differential`], [`warm_cold_audit`] and the
//! [`restart`] audits drive the executors the same way. Serving runs are
//! checked by [`streaming_audit_cached`].
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use mp_audit::{differential, DiffConfig};
//! # use mp_sched::FifoScheduler;
//! # let graph = mp_dag::TaskGraph::new();
//! # let platform = mp_platform::presets::simple(2, 1);
//! # let model: Arc<dyn mp_perfmodel::PerfModel> =
//! #     Arc::new(mp_perfmodel::model::UniformModel { time_us: 10.0 });
//! let report = differential(
//!     &graph,
//!     &platform,
//!     &model,
//!     &|| Box::new(FifoScheduler::new()),
//!     &DiffConfig::default(),
//! );
//! assert!(report.is_clean(), "{:?}", report.mismatches);
//! ```

use std::sync::Arc;

use mp_dag::TaskGraph;
use mp_perfmodel::PerfModel;
use mp_platform::types::Platform;
use mp_runtime::{
    FaultPlan, RelaxedConfig, RelaxedMultiQueue, ResultCache, RetryPolicy, RunReport, Runtime,
    ShardedAdapter, StreamConfig, Submission,
};
use mp_sched::{ConcurrentScheduler, GlobalLock, Scheduler};
use mp_sim::{simulate_cached, SimConfig, SimResult};
use mp_trace::RankStats;

pub mod diff;
pub mod mirror;
pub mod restart;

pub use diff::{schedule_hash, DiffReport, Mismatch, Side};
pub use mirror::mirror_graph_computing;
pub use restart::{restart_audit, restart_audit_sim, restart_serve_audit, RestartReport};

/// Which scheduler front-end an audit drives.
#[derive(Clone, Copy, Debug, Default)]
pub enum Front {
    /// One `factory` policy behind the runtime's global lock
    /// ([`GlobalLock`]); the simulator drives another instance.
    #[default]
    Global,
    /// This many `factory` policies behind the sharded multi-queue
    /// ([`ShardedAdapter`]); the simulator drives one instance.
    Sharded(usize),
    /// The relaxed multi-queue ([`RelaxedMultiQueue`]) under this
    /// configuration, on both executors. `factory` is not used: the
    /// queue *is* the policy (priority order). Set
    /// [`track_rank`](RelaxedConfig::track_rank) to get staleness
    /// statistics on a [`DiffReport`].
    Relaxed(RelaxedConfig),
}

/// One audit configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiffConfig {
    /// Simulator configuration (seed, noise, tracing); the simulator
    /// side of an audit only.
    pub sim_cfg: SimConfig,
    /// The scheduler front-end every run drives.
    pub front: Front,
    /// Fault plan injected into both sides (`None` = no faults). The
    /// runtime honors every knob; the simulator mirrors the
    /// deterministic subset (worker kills, transient failures) in
    /// virtual time and ignores the wall-clock-only timing knobs.
    pub faults: Option<FaultPlan>,
    /// Retry budget applied to both sides. With retryable faults in the
    /// plan, the exactly-once check relaxes to *effectively-once*: at
    /// least one committed execution per task (recompute-recovery may
    /// legitimately commit a task more than once on the sim side), and
    /// precedence still holds exactly.
    pub retry: RetryPolicy,
}

/// What one run of an audit produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Final buffer digest of a threaded run; the schedule hash
    /// ([`schedule_hash`]) of a simulated one, which has no buffers.
    pub digest: u64,
    /// Tasks served from the result cache.
    pub hits: u64,
    /// Cache probes that missed.
    pub misses: u64,
    /// Task spans the run recorded.
    pub executed: usize,
}

/// What every audit is given, and the one place that turns a
/// [`DiffConfig`] into runs on either executor.
struct Harness<'a> {
    platform: &'a Platform,
    model: &'a Arc<dyn PerfModel>,
    factory: &'a dyn Fn() -> Box<dyn Scheduler>,
    cfg: &'a DiffConfig,
}

impl Harness<'_> {
    /// Simulate `graph` on the scheduler the front names: a `factory`
    /// policy, or the relaxed queue the threads also run. The fault plan
    /// and the retry budget override `sim_cfg`'s. Returns the queue's
    /// rank statistics alongside.
    fn simulate(
        &self,
        graph: &TaskGraph,
        cache: Option<&ResultCache>,
    ) -> (SimResult, Option<RankStats>) {
        let mut sim_cfg = self.cfg.sim_cfg;
        if let Some(plan) = self.cfg.faults {
            sim_cfg.faults = plan;
        }
        sim_cfg.retry = self.cfg.retry;
        let model = &**self.model;
        match self.cfg.front {
            Front::Relaxed(rc) => {
                let mut queue = RelaxedMultiQueue::new(self.platform.worker_count(), rc);
                let sim = simulate_cached(graph, self.platform, model, &mut queue, sim_cfg, cache);
                (sim, queue.rank_stats())
            }
            Front::Global | Front::Sharded(_) => {
                let mut sched = (self.factory)();
                let sim =
                    simulate_cached(graph, self.platform, model, sched.as_mut(), sim_cfg, cache);
                (sim, None)
            }
        }
    }

    /// Run `rt` on the front-end the config names, under its fault plan
    /// and retry budget: its whole graph, or `stream` served. A failure
    /// lands in `mismatches` as [`Mismatch::RuntimeFailed`], tagged with
    /// `phase`. Returns the report, unless the run never started, and
    /// the relaxed queue's rank statistics.
    fn run(
        &self,
        rt: &mut Runtime,
        stream: Option<(&StreamConfig, Vec<Submission>)>,
        phase: &str,
        mismatches: &mut Vec<Mismatch>,
    ) -> (Option<RunReport>, Option<RankStats>) {
        if let Some(plan) = self.cfg.faults {
            rt.set_faults(plan);
        }
        rt.set_retry_policy(self.cfg.retry);
        let (global, sharded, relaxed);
        let (front, queue): (&dyn ConcurrentScheduler, Option<&RelaxedMultiQueue>) =
            match self.cfg.front {
                Front::Global => {
                    global = GlobalLock::new((self.factory)());
                    (&global, None)
                }
                Front::Sharded(n) => {
                    sharded = ShardedAdapter::new(n, self.factory);
                    (&sharded, None)
                }
                Front::Relaxed(rc) => {
                    relaxed = RelaxedMultiQueue::new(self.platform.worker_count(), rc);
                    (&relaxed, Some(&relaxed))
                }
            };
        let run = match stream {
            None => rt.run_concurrent(front),
            Some((stream_cfg, submissions)) => rt.serve_concurrent(front, stream_cfg, submissions),
        };
        let failed = |err: &dyn std::fmt::Display| Mismatch::RuntimeFailed {
            error: format!("{phase}: {err}"),
        };
        match run {
            Ok(report) => {
                // Mid-run failures (misrouted task, panicking kernel)
                // come back as a report carrying the error and a
                // partial trace.
                if let Some(err) = &report.error {
                    mismatches.push(failed(err));
                }
                (Some(report), queue.and_then(RelaxedMultiQueue::rank_stats))
            }
            Err(err) => {
                mismatches.push(failed(&err));
                (None, None)
            }
        }
    }

    /// Run the computing mirror of `graph` once against `cache` and
    /// report its buffer digest, cache counts and spans.
    fn run_mirror(
        &self,
        graph: &TaskGraph,
        cache: Option<&Arc<ResultCache>>,
        phase: &str,
        mismatches: &mut Vec<Mismatch>,
    ) -> RunOutcome {
        let (mut rt, edge_mismatches) =
            mirror_graph_computing(graph, self.platform, Arc::clone(self.model));
        mismatches.extend(edge_mismatches);
        if let Some(c) = cache {
            rt.set_cache(Arc::clone(c));
        }
        let (report, _) = self.run(&mut rt, None, phase, mismatches);
        outcome(&rt, report.as_ref())
    }
}

/// What a threaded run left behind; all zeros when it never started.
fn outcome(rt: &Runtime, report: Option<&RunReport>) -> RunOutcome {
    report.map_or_else(RunOutcome::default, |r| RunOutcome {
        digest: rt.buffers_digest(),
        hits: r.cache_hits,
        misses: r.cache_misses,
        executed: r.trace.tasks.len(),
    })
}

/// Run one DAG through both executors under the front-end `cfg` names
/// (schedulers built by `factory`, one set per executor) and diff the
/// results.
///
/// Never panics on scheduler or executor misbehavior: typed failures of
/// either side land in the report as [`Mismatch`]es alongside any
/// invariant-audit records, execution-count, completion and precedence
/// disagreements.
pub fn differential(
    graph: &TaskGraph,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
) -> DiffReport {
    let harness = Harness {
        platform,
        model,
        factory,
        cfg,
    };
    let mut mismatches = Vec::new();
    // Under retryable faults or worker kills the trace may legitimately
    // hold more than one committed span per task (sim-side recompute
    // recovery re-commits producers whose output died with a device), so
    // the per-side check relaxes to effectively-once.
    let relaxes = |p: &FaultPlan| p.has_retryable_faults() || p.kills_any();
    let lenient = cfg.faults.as_ref().is_some_and(relaxes) || relaxes(&cfg.sim_cfg.faults);

    // Side 1: discrete-event simulation, virtual time. The simulator
    // mirrors the deterministic fault subset of the runtime's plan.
    let (sim, sim_rank) = harness.simulate(graph, None);
    if let Some(err) = &sim.error {
        mismatches.push(Mismatch::SimFailed {
            error: err.to_string(),
        });
    }
    if !sim.audit.is_empty() {
        mismatches.push(Mismatch::InvariantViolations {
            count: sim.audit.len(),
            first: sim.audit[0].to_string(),
        });
    }
    check_trace(
        graph,
        &sim.trace,
        Side::Sim,
        sim.error.is_some(),
        lenient,
        &mut mismatches,
    );

    // Side 2: threaded runtime, wall clock, mirrored DAG.
    let (mut rt, edge_mismatches) = mirror_graph_computing(graph, platform, Arc::clone(model));
    mismatches.extend(edge_mismatches);
    let (run, runtime_rank) = harness.run(&mut rt, None, "differential", &mut mismatches);
    let runtime_makespan = run.map(|report| {
        check_trace(
            graph,
            &report.trace,
            Side::Runtime,
            report.error.is_some(),
            lenient,
            &mut mismatches,
        );
        report.makespan_us
    });

    DiffReport {
        scheduler: sim.scheduler,
        mismatches,
        sim_makespan: sim.makespan,
        runtime_makespan,
        sim_rank,
        runtime_rank,
    }
}

/// Result of one warm/cold cache audit (see [`warm_cold_audit`]).
#[derive(Debug)]
pub struct WarmColdReport {
    /// Every disagreement found; empty means the config passed.
    pub mismatches: Vec<Mismatch>,
    /// Buffer digest of the uncached reference run.
    pub reference_digest: u64,
    /// Buffer digest after the cold (cache-populating) run.
    pub cold_digest: u64,
    /// Buffer digest after the warm (cache-consuming) run.
    pub warm_digest: u64,
    /// Tasks the cold run executed (== DAG size on a clean pass).
    pub cold_executed: usize,
    /// Tasks the warm run executed (0 on a clean fault-free pass; under
    /// retryable faults re-executions are legal, so only the digest
    /// must agree).
    pub warm_executed: usize,
}

impl WarmColdReport {
    /// Did every run agree bit-for-bit?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Prove cache-hit outputs bit-identical to recomputed ones for one
/// configuration: run the *computing* mirror of `graph`
/// ([`mirror_graph_computing`]) three times — uncached reference, cold
/// run populating `cache`, warm run consuming it — and compare the final
/// buffer digests bit for bit. Every run drives the configured front-end
/// under the configured faults and retries, so the proof also covers
/// kill/transient fault plans.
///
/// Pass a fresh [`ResultCache`], or a byte-capped one
/// ([`ResultCache::with_capacity`]). A fault-free run whose cache
/// reports no capacity eviction must also execute exactly zero tasks
/// warm (100 % hit rate); under a pressed cap the warm run may
/// legitimately re-execute evicted tasks. The digests must agree always:
/// eviction costs recomputes, never correctness.
pub fn warm_cold_audit(
    graph: &TaskGraph,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
    cache: &Arc<ResultCache>,
) -> WarmColdReport {
    let harness = Harness {
        platform,
        model,
        factory,
        cfg,
    };
    let mut mismatches = Vec::new();
    let reference = harness.run_mirror(graph, None, "reference", &mut mismatches);
    let cold = harness.run_mirror(graph, Some(cache), "cold", &mut mismatches);
    let warm = harness.run_mirror(graph, Some(cache), "warm", &mut mismatches);

    for (phase, run) in [("cold", cold), ("warm", warm)] {
        if run.digest != reference.digest {
            mismatches.push(Mismatch::CachedOutputDivergence {
                phase,
                expected: reference.digest,
                got: run.digest,
            });
        }
    }
    // Fault-free with an uncapped (or never-pressed) cache: the warm
    // run must be all hits. Under retryable fault plans or capacity
    // eviction, legitimate re-executions exist, so only digests are
    // checked.
    if cfg.faults.is_none() && cache.evictions() == 0 && warm.executed != 0 {
        mismatches.push(Mismatch::CacheCoverage {
            executed: warm.executed,
            expected: 0,
        });
    }
    WarmColdReport {
        mismatches,
        reference_digest: reference.digest,
        cold_digest: cold.digest,
        warm_digest: warm.digest,
        cold_executed: cold.executed,
        warm_executed: warm.executed,
    }
}

/// Audit one **streaming** (serving-mode) run over the final grown
/// graph, given the cache hits its report claims
/// ([`mp_runtime::RunReport::cache_hits`]).
///
/// Under streaming admission the final graph *is* the admitted set — a
/// rejected [`mp_dag::SubmissionStage`] is dropped before touching the
/// graph — so these checks together prove the serving invariants:
///
/// * every admitted task of every interleaved sub-DAG executed exactly
///   once (nothing lost to backpressure, nothing double-executed by the
///   concurrent front-ends);
/// * per-sub-DAG precedence held, including cross-submission edges
///   resolved by data identity (no task started before each of its
///   predecessors — possibly from an earlier submission — ended);
/// * rejections stranded nothing: a stranded dependency would surface
///   as an admitted task with zero executions.
///
/// With `cache_hits == 0` every task must hold exactly one span, and
/// each that does not is one [`Mismatch::ExecutionCount`]. A task served
/// from the [`mp_runtime::ResultCache`] completes at its release instant
/// and records no span, so with hits exactly-once relaxes to *at most
/// once*, plus an exact hit ledger: the number of span-less tasks must
/// equal `cache_hits`. A hit that silently swallowed a task the cache
/// never served (or a double execution slipping through as a "hit")
/// therefore surfaces as [`Mismatch::CacheCoverage`] or
/// [`Mismatch::ExecutionCount`]. Precedence applies to the executed
/// spans either way; span-less (hit) predecessors are release-ordered by
/// construction.
///
/// Pass [`mp_runtime::RunReport::trace`] and the post-serve
/// [`mp_runtime::Runtime::graph`]. Returns every violation found; empty
/// means the run passed.
pub fn streaming_audit_cached(
    graph: &TaskGraph,
    trace: &mp_trace::Trace,
    cache_hits: u64,
) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let spans = diff::span_table(graph, trace, Side::Runtime, &mut out);
    if cache_hits == 0 {
        diff::miscounted(&spans, Side::Runtime, |count| count != 1, &mut out);
    } else {
        diff::miscounted(&spans, Side::Runtime, |count| count > 1, &mut out);
        let executed = graph
            .tasks()
            .iter()
            .filter(|t| spans.count(t.id) > 0)
            .count();
        let expected = graph.task_count().saturating_sub(cache_hits as usize);
        if executed != expected {
            out.push(Mismatch::CacheCoverage { executed, expected });
        }
    }
    diff::precedence(&spans, Side::Runtime, &mut out);
    out
}

/// The per-side checks: exactly-once execution (effectively-once under
/// retryable faults) and precedence order. A truncated trace (the side
/// failed mid-run) flags the truncation once instead of one
/// `ExecutionCount` finding per unexecuted task; precedence still
/// applies to the prefix that did run.
fn check_trace(
    graph: &TaskGraph,
    trace: &mp_trace::Trace,
    side: Side,
    truncated: bool,
    lenient: bool,
    out: &mut Vec<Mismatch>,
) {
    let spans = diff::span_table(graph, trace, side, out);
    if truncated {
        out.push(Mismatch::TruncatedTrace {
            side,
            executed: trace.tasks.len(),
            total: graph.task_count(),
        });
    } else if lenient {
        diff::miscounted(&spans, side, |count| count == 0, out);
    } else {
        diff::miscounted(&spans, side, |count| count != 1, out);
    }
    diff::precedence(&spans, side, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dag::{AccessMode, StfBuilder};
    use mp_perfmodel::model::UniformModel;
    use mp_platform::presets::simple;
    use mp_sched::FifoScheduler;

    fn diamond() -> TaskGraph {
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("K", true, true);
        let d0 = stf.graph_mut().add_data(1024, "d0");
        let d1 = stf.graph_mut().add_data(1024, "d1");
        stf.submit(k, vec![(d0, AccessMode::Write)], 1.0, "t0");
        stf.submit(
            k,
            vec![(d0, AccessMode::Read), (d1, AccessMode::Write)],
            1.0,
            "t1",
        );
        stf.submit(k, vec![(d0, AccessMode::ReadWrite)], 1.0, "t2");
        stf.submit(
            k,
            vec![(d0, AccessMode::Read), (d1, AccessMode::Read)],
            1.0,
            "t3",
        );
        stf.finish()
    }

    #[test]
    fn agreeing_executions_produce_a_clean_report() {
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let report = differential(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &DiffConfig::default(),
        );
        assert!(report.is_clean(), "{:?}", report.mismatches);
        assert!(report.sim_makespan > 0.0);
        assert!(report.runtime_makespan.is_some());
    }

    #[test]
    fn sim_side_failure_lands_in_the_report() {
        // A GPU-only kernel on a CPU-only platform: the sim deadlocks
        // (typed), the runtime rejects at submit (typed) — both surface.
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("GPUONLY", false, true);
        let d = stf.graph_mut().add_data(64, "d");
        stf.submit(k, vec![(d, AccessMode::ReadWrite)], 1.0, "t0");
        let g = stf.finish();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let report = differential(
            &g,
            &mp_platform::presets::homogeneous(2),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &DiffConfig::default(),
        );
        assert!(!report.is_clean());
        assert!(report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::SimFailed { .. })));
        assert!(report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::RuntimeFailed { .. })));
        // The sim side deadlocked: one truncation finding, not one
        // ExecutionCount finding per unexecuted task.
        assert!(report.mismatches.iter().any(|m| matches!(
            m,
            Mismatch::TruncatedTrace {
                side: Side::Sim,
                ..
            }
        )));
        assert!(!report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::ExecutionCount { .. })));
    }

    #[test]
    fn kill_plan_differential_is_clean_with_retries() {
        // Kill worker 0 after one completed task: both sides quarantine
        // the victim and the survivors finish the DAG. The checks relax
        // to effectively-once; precedence must still hold exactly.
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let cfg = DiffConfig {
            faults: Some(FaultPlan::default().kill_worker(0, 1)),
            retry: RetryPolicy::new(4, 0.0),
            ..DiffConfig::default()
        };
        let report = differential(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &cfg,
        );
        assert!(report.is_clean(), "{:?}", report.mismatches);
        assert!(report.runtime_makespan.is_some());
    }

    #[test]
    fn warm_cold_audit_is_clean_and_all_hit() {
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let report = warm_cold_audit(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &DiffConfig::default(),
            &Arc::new(ResultCache::new()),
        );
        assert!(report.is_clean(), "{:?}", report.mismatches);
        assert_eq!(report.cold_executed, g.task_count());
        assert_eq!(report.warm_executed, 0, "fault-free warm run is all hits");
        assert_eq!(report.warm_digest, report.reference_digest);
    }

    #[test]
    fn warm_cold_audit_survives_kill_and_transient_faults() {
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let cfg = DiffConfig {
            faults: Some(FaultPlan {
                transient_fail_prob: 0.3,
                ..FaultPlan::default().kill_worker(0, 1)
            }),
            retry: RetryPolicy::new(8, 0.0),
            ..DiffConfig::default()
        };
        let report = warm_cold_audit(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &cfg,
            &Arc::new(ResultCache::new()),
        );
        assert!(report.is_clean(), "{:?}", report.mismatches);
        assert_eq!(report.warm_digest, report.reference_digest);
    }

    #[test]
    fn fault_injection_is_repeat_deterministic() {
        // The same kill plan must reproduce the schedule bit for bit:
        // virtual time only, no wall clock anywhere in the fault path.
        let g = diamond();
        let model = UniformModel { time_us: 20.0 };
        let platform = simple(2, 1);
        let cfg = mp_sim::SimConfig::default()
            .with_faults(FaultPlan::default().kill_worker(0, 1))
            .with_retry(RetryPolicy::new(4, 0.0));
        let run = || {
            let mut s = FifoScheduler::new();
            mp_sim::simulate(&g, &platform, &model, &mut s, cfg)
        };
        let (a, b) = (run(), run());
        assert!(a.error.is_none(), "{:?}", a.error);
        assert_eq!(a.stats.worker_failures, 1);
        assert_eq!(schedule_hash(&a.trace), schedule_hash(&b.trace));
    }

    #[test]
    fn streaming_audit_passes_a_served_stream_and_catches_tampering() {
        use mp_runtime::serve::TenantSpec;
        use mp_runtime::{Runtime, StreamConfig, Submission, TaskBuilder};

        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
        let mut rt = Runtime::new(mp_platform::presets::homogeneous(2), model);
        let d = rt.register(vec![0.0], "d");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let stream: Vec<Submission> = (0..6)
            .map(|i| Submission {
                tenant: i % 2,
                tasks: vec![
                    TaskBuilder::new("K")
                        .access(d, AccessMode::ReadWrite)
                        .cpu(|ctx| ctx.w(0)[0] += 1.0),
                    TaskBuilder::new("K")
                        .access(d, AccessMode::Read)
                        .cpu(|_| {}),
                ],
            })
            .collect();
        let report = rt
            .serve(Box::new(FifoScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        let clean = streaming_audit_cached(rt.graph(), &report.trace, 0);
        assert!(clean.is_empty(), "{clean:?}");
        // Tampering must be caught: drop a span (a stranded/lost task)...
        let mut lost = report.trace.clone();
        lost.tasks.pop();
        assert!(streaming_audit_cached(rt.graph(), &lost, 0)
            .iter()
            .any(|m| matches!(m, Mismatch::ExecutionCount { count: 0, .. })));
        // ...and rewind a start past its predecessor's end.
        let mut early = report.trace.clone();
        let last = early.tasks.len() - 1;
        early.tasks[last].start = -1.0;
        assert!(!streaming_audit_cached(rt.graph(), &early, 0).is_empty());
    }

    /// A cache-backed stream of write-only fork-join sub-DAGs: identical
    /// resubmissions hit, so the trace holds spans only for the cold
    /// rounds.
    fn served_warm_stream() -> (mp_runtime::Runtime, mp_runtime::RunReport) {
        use mp_runtime::serve::TenantSpec;
        use mp_runtime::{Runtime, StreamConfig, Submission, TaskBuilder};

        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
        let mut rt = Runtime::new(mp_platform::presets::homogeneous(2), model);
        rt.set_cache(Arc::new(mp_runtime::ResultCache::new()));
        let d = rt.register(vec![0.0], "d");
        let cfg = StreamConfig::new(TenantSpec::equal(2));
        let stream: Vec<Submission> = (0..8)
            .map(|i| Submission {
                tenant: i % 2,
                tasks: vec![
                    TaskBuilder::new("K")
                        .access(d, AccessMode::Write)
                        .cpu(|ctx| ctx.w(0)[0] = 3.0),
                    TaskBuilder::new("K")
                        .access(d, AccessMode::Read)
                        .cpu(|_| {}),
                ],
            })
            .collect();
        let report = rt
            .serve(Box::new(FifoScheduler::new()), &cfg, stream)
            .expect("serve failed");
        assert!(report.is_complete(), "{:?}", report.error);
        assert!(report.cache_hits > 0, "warm stream should hit");
        (rt, report)
    }

    #[test]
    fn cached_streaming_audit_accounts_for_every_hit() {
        let (rt, report) = served_warm_stream();
        let clean = streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits);
        assert!(clean.is_empty(), "{clean:?}");
        // Claiming no hits flags each span-less hit as a lost task — the
        // claimed hits must account for them exactly.
        assert!(!streaming_audit_cached(rt.graph(), &report.trace, 0).is_empty());
        // A lying hit count is caught...
        assert!(
            streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits + 1)
                .iter()
                .any(|m| matches!(m, Mismatch::CacheCoverage { .. }))
        );
        // ...and so is a double execution smuggled in as a "hit".
        let mut doubled = report.trace.clone();
        let dup = doubled.tasks[0].clone();
        doubled.tasks.push(dup);
        assert!(
            streaming_audit_cached(rt.graph(), &doubled, report.cache_hits)
                .iter()
                .any(|m| matches!(m, Mismatch::ExecutionCount { count: 2, .. }))
        );
    }

    /// The grown graph a stream leaves behind is a closed DAG, so the
    /// warm/cold digest proof applies to it directly.
    #[test]
    fn warm_cold_audit_is_clean_over_a_grown_graph() {
        let (rt, report) = served_warm_stream();
        let findings = streaming_audit_cached(rt.graph(), &report.trace, report.cache_hits);
        assert!(findings.is_empty(), "{findings:?}");
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
        let audit = warm_cold_audit(
            rt.graph(),
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &DiffConfig::default(),
            &Arc::new(ResultCache::new()),
        );
        assert!(audit.is_clean(), "{:?}", audit);
        assert_eq!(audit.warm_executed, 0);
        assert_eq!(audit.warm_digest, audit.reference_digest);
    }

    #[test]
    fn warm_cold_audit_over_a_grown_graph_survives_kill_and_transient_faults() {
        let (rt, _) = served_warm_stream();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
        let cfg = DiffConfig {
            faults: Some(FaultPlan {
                transient_fail_prob: 0.3,
                ..FaultPlan::default().kill_worker(0, 1)
            }),
            retry: RetryPolicy::new(8, 0.0),
            ..DiffConfig::default()
        };
        let audit = warm_cold_audit(
            rt.graph(),
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &cfg,
            &Arc::new(ResultCache::new()),
        );
        assert!(audit.is_clean(), "{:?}", audit);
        assert_eq!(audit.warm_digest, audit.reference_digest);
    }

    #[test]
    fn panicking_kernel_truncates_the_runtime_trace_cleanly() {
        let g = diamond();
        let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 20.0 });
        let cfg = DiffConfig {
            faults: Some(FaultPlan {
                seed: 21,
                panic_prob: 1.0,
                ..FaultPlan::default()
            }),
            ..DiffConfig::default()
        };
        let report = differential(
            &g,
            &simple(2, 1),
            &model,
            &|| Box::new(FifoScheduler::new()),
            &cfg,
        );
        assert!(report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::RuntimeFailed { .. })));
        assert!(report.mismatches.iter().any(|m| matches!(
            m,
            Mismatch::TruncatedTrace {
                side: Side::Runtime,
                ..
            }
        )));
        // The partial trace is still internally consistent: no
        // precedence findings, the makespan is reported.
        assert!(!report
            .mismatches
            .iter()
            .any(|m| matches!(m, Mismatch::PrecedenceViolation { .. })));
        assert!(report.runtime_makespan.is_some());
    }
}
