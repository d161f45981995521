//! Trace comparison: the invariants both executions must share.
//!
//! The simulator and the runtime do not agree on *times* (virtual vs
//! wall clock) or necessarily on *placement* (the runtime's thread
//! interleavings legitimately reorder pops). What they must agree on:
//!
//! * **exactly-once** — every task of the graph executes exactly once;
//! * **completion** — both sides finish the whole DAG;
//! * **precedence** — no task starts before all its predecessors ended,
//!   in each side's own clock.
//!
//! Any typed engine error, runtime error, STF edge divergence, or
//! auditor record is also surfaced as a [`Mismatch`].

use mp_dag::hash::{FNV_OFFSET, FNV_PRIME};
use mp_dag::{TaskGraph, TaskId};
use mp_trace::{SpanTable, Trace};

/// Which execution a finding refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The discrete-event simulator (`mp-sim`).
    Sim,
    /// The threaded runtime (`mp-runtime`).
    Runtime,
}

/// One disagreement between (or within) the two executions.
#[derive(Clone, Debug, PartialEq)]
pub enum Mismatch {
    /// The simulator stopped with a typed error.
    SimFailed {
        /// `SimError` rendering.
        error: String,
    },
    /// The runtime returned a `RunError`.
    RuntimeFailed {
        /// `RunError` rendering.
        error: String,
    },
    /// STF inference on the mirrored submissions produced different
    /// dependencies than the original graph.
    EdgeMismatch {
        /// The task whose predecessor set diverged.
        task: TaskId,
        /// Predecessors in the original graph (sorted).
        expected: Vec<TaskId>,
        /// Predecessors inferred by the mirror (sorted).
        got: Vec<TaskId>,
    },
    /// A task executed a number of times other than one.
    ExecutionCount {
        /// Which execution.
        side: Side,
        /// The task.
        task: TaskId,
        /// How many spans the trace holds for it.
        count: usize,
    },
    /// A span names a task the graph does not have (a corrupt or
    /// mismatched trace).
    UnknownTask {
        /// Which execution.
        side: Side,
        /// The task id the span names.
        task: TaskId,
        /// Tasks in the graph.
        total: usize,
    },
    /// A task started before one of its predecessors ended.
    PrecedenceViolation {
        /// Which execution.
        side: Side,
        /// The early task.
        task: TaskId,
        /// The predecessor it overtook.
        pred: TaskId,
        /// The task's start time.
        start: f64,
        /// The predecessor's end time.
        pred_end: f64,
    },
    /// One side stopped early with a typed error, so its trace covers
    /// only a prefix of the DAG. Reported *instead of* one
    /// [`Mismatch::ExecutionCount`] per unexecuted task — the truncation
    /// is one finding, not thousands.
    TruncatedTrace {
        /// Which execution.
        side: Side,
        /// Spans the partial trace holds.
        executed: usize,
        /// Tasks in the graph.
        total: usize,
    },
    /// The simulator's invariant auditor recorded violations
    /// (only possible with `--features audit`).
    InvariantViolations {
        /// Number of audit records.
        count: usize,
        /// Rendering of the first record.
        first: String,
    },
    /// A cached run left the buffers in a different bit-for-bit state
    /// than the uncached reference execution (DESIGN.md §12: the cache
    /// may serve wrong-speed, never wrong-data).
    CachedOutputDivergence {
        /// Which run diverged ("cold" or "warm").
        phase: &'static str,
        /// Buffer digest of the uncached reference run.
        expected: u64,
        /// Buffer digest the cached run produced.
        got: u64,
    },
    /// A warm run re-executed tasks it should have served from the
    /// cache (or vice versa).
    CacheCoverage {
        /// Tasks the warm run executed.
        executed: usize,
        /// Tasks it was expected to execute.
        expected: usize,
    },
    /// The persistent cache log broke a durability or recovery rule
    /// (DESIGN.md §14): unbalanced load ledger, a clean shutdown losing
    /// records, or a restart run disagreeing with its in-process twin.
    PersistInvariant {
        /// What broke, in words.
        detail: String,
    },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::SimFailed { error } => write!(f, "sim failed: {error}"),
            Mismatch::RuntimeFailed { error } => write!(f, "runtime failed: {error}"),
            Mismatch::EdgeMismatch {
                task,
                expected,
                got,
            } => write!(
                f,
                "mirrored {task:?} has preds {got:?}, original has {expected:?}"
            ),
            Mismatch::ExecutionCount { side, task, count } => {
                write!(f, "{side:?}: {task:?} executed {count} times")
            }
            Mismatch::UnknownTask { side, task, total } => {
                write!(
                    f,
                    "{side:?}: a span names {task:?}, outside the {total}-task graph"
                )
            }
            Mismatch::PrecedenceViolation {
                side,
                task,
                pred,
                start,
                pred_end,
            } => write!(
                f,
                "{side:?}: {task:?} started at {start} before predecessor \
                 {pred:?} ended at {pred_end}"
            ),
            Mismatch::TruncatedTrace {
                side,
                executed,
                total,
            } => write!(
                f,
                "{side:?}: trace truncated by the failure ({executed}/{total} tasks executed)"
            ),
            Mismatch::InvariantViolations { count, first } => {
                write!(f, "{count} invariant violation(s), first: {first}")
            }
            Mismatch::CachedOutputDivergence {
                phase,
                expected,
                got,
            } => write!(
                f,
                "{phase} cached run left buffers at {got:#018x}, \
                 uncached reference at {expected:#018x}"
            ),
            Mismatch::CacheCoverage { executed, expected } => write!(
                f,
                "warm run executed {executed} task(s), expected {expected}"
            ),
            Mismatch::PersistInvariant { detail } => {
                write!(f, "persistence invariant broken: {detail}")
            }
        }
    }
}

/// Everything one differential configuration produced.
#[derive(Debug)]
pub struct DiffReport {
    /// Scheduler name (as the sim run reported it).
    pub scheduler: String,
    /// Every disagreement found; empty means the config passed.
    pub mismatches: Vec<Mismatch>,
    /// Virtual-time makespan of the sim run (µs).
    pub sim_makespan: f64,
    /// Wall-clock makespan of the runtime run (µs), when it ran.
    pub runtime_makespan: Option<f64>,
    /// Staleness of the relaxed queue on the simulator versus the exact
    /// priority oracle. `Some` only under
    /// [`Front::Relaxed`](crate::Front::Relaxed) with rank tracking on.
    pub sim_rank: Option<mp_trace::RankStats>,
    /// Staleness of the relaxed queue on the runtime, likewise.
    pub runtime_rank: Option<mp_trace::RankStats>,
}

impl DiffReport {
    /// Did the two executions agree on every checked invariant?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Every task executes exactly once: the trace holds exactly one span
/// per task of the graph.
pub fn check_exactly_once(graph: &TaskGraph, trace: &Trace, side: Side, out: &mut Vec<Mismatch>) {
    let spans = span_table(graph, trace, side, out);
    miscounted(&spans, side, |count| count != 1, out);
}

/// Effectively-once, for runs under retryable faults: every task commits
/// at least once. More than one committed span per task is legitimate on
/// the sim side — recompute-recovery re-executes a producer whose output
/// was lost with a failed node — so only *missing* executions are
/// findings here. Failed attempts never record spans on either side.
pub fn check_effectively_once(
    graph: &TaskGraph,
    trace: &Trace,
    side: Side,
    out: &mut Vec<Mismatch>,
) {
    let spans = span_table(graph, trace, side, out);
    miscounted(&spans, side, |count| count == 0, out);
}

/// No task starts before all its predecessors ended (per-side clock).
/// With several spans per task (recompute-recovery), every span of the
/// successor is checked against the *earliest* end among the
/// predecessor's spans — the dependency was first satisfied then.
pub fn check_precedence(graph: &TaskGraph, trace: &Trace, side: Side, out: &mut Vec<Mismatch>) {
    let spans = span_table(graph, trace, side, out);
    precedence(&spans, side, out);
}

/// Index `trace` by the tasks of `graph`, reporting each span that names
/// a task outside the graph as [`Mismatch::UnknownTask`]. Every check
/// reads the table, so a bad id is a finding, never an index panic.
pub(crate) fn span_table<'a>(
    graph: &'a TaskGraph,
    trace: &'a Trace,
    side: Side,
    out: &mut Vec<Mismatch>,
) -> SpanTable<'a> {
    let spans = SpanTable::new(trace, graph);
    out.extend(
        spans
            .out_of_range()
            .iter()
            .map(|&task| Mismatch::UnknownTask {
                side,
                task,
                total: graph.task_count(),
            }),
    );
    spans
}

/// One [`Mismatch::ExecutionCount`] per task whose span count is `bad`.
pub(crate) fn miscounted(
    spans: &SpanTable<'_>,
    side: Side,
    bad: impl Fn(usize) -> bool,
    out: &mut Vec<Mismatch>,
) {
    for i in 0..spans.task_count() {
        let task = TaskId::from_index(i);
        let count = spans.count(task);
        if bad(count) {
            out.push(Mismatch::ExecutionCount { side, task, count });
        }
    }
}

/// [`SpanTable::check_precedence`]'s violations as
/// [`Mismatch::PrecedenceViolation`]s. Span-less predecessors are not
/// precedence findings: the execution-count and cache-coverage checks
/// report them.
pub(crate) fn precedence(spans: &SpanTable<'_>, side: Side, out: &mut Vec<Mismatch>) {
    out.extend(spans.check_precedence().violations.into_iter().map(|v| {
        Mismatch::PrecedenceViolation {
            side,
            task: v.task,
            pred: v.pred,
            start: v.start,
            pred_end: v.pred_end,
        }
    }));
}

/// Order-sensitive FNV-1a hash over a trace's task spans: task id,
/// worker id, and the exact bit patterns of the start/end times. Two
/// runs of the same configuration — including the same fault plan —
/// must produce the same hash: the repeat-determinism gate for fault
/// injection.
pub fn schedule_hash(trace: &Trace) -> u64 {
    fn mix(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
    let mut h = FNV_OFFSET;
    for s in &trace.tasks {
        h = mix(h, s.task.index() as u64);
        h = mix(h, s.worker.index() as u64);
        h = mix(h, s.start.to_bits());
        h = mix(h, s.end.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dag::{AccessMode, StfBuilder};
    use mp_trace::TaskSpan;

    fn chain2() -> TaskGraph {
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("K", true, false);
        let d = stf.graph_mut().add_data(8, "d");
        stf.submit(k, vec![(d, AccessMode::ReadWrite)], 1.0, "t0");
        stf.submit(k, vec![(d, AccessMode::ReadWrite)], 1.0, "t1");
        stf.finish()
    }

    fn span(t: u32, start: f64, end: f64) -> TaskSpan {
        TaskSpan {
            task: TaskId(t),
            ttype: mp_dag::TaskTypeId(0),
            worker: mp_platform::types::WorkerId(0),
            ready_at: 0.0,
            start,
            end,
        }
    }

    #[test]
    fn clean_trace_produces_no_findings() {
        let g = chain2();
        let mut trace = Trace::new(1);
        trace.tasks = vec![span(0, 0.0, 10.0), span(1, 10.0, 20.0)];
        let mut out = Vec::new();
        check_exactly_once(&g, &trace, Side::Sim, &mut out);
        check_precedence(&g, &trace, Side::Sim, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn duplicate_and_missing_spans_are_flagged() {
        let g = chain2();
        let mut trace = Trace::new(1);
        trace.tasks = vec![span(0, 0.0, 10.0), span(0, 10.0, 20.0)];
        let mut out = Vec::new();
        check_exactly_once(&g, &trace, Side::Runtime, &mut out);
        assert_eq!(
            out,
            vec![
                Mismatch::ExecutionCount {
                    side: Side::Runtime,
                    task: TaskId(0),
                    count: 2,
                },
                Mismatch::ExecutionCount {
                    side: Side::Runtime,
                    task: TaskId(1),
                    count: 0,
                },
            ]
        );
    }

    #[test]
    fn out_of_range_span_is_a_finding_not_a_panic() {
        let g = chain2();
        let mut trace = Trace::new(1);
        trace.tasks = vec![span(0, 0.0, 10.0), span(9, 5.0, 6.0), span(1, 10.0, 20.0)];
        let unknown = Mismatch::UnknownTask {
            side: Side::Sim,
            task: TaskId(9),
            total: 2,
        };
        type Check = fn(&TaskGraph, &Trace, Side, &mut Vec<Mismatch>);
        let checks: [Check; 3] = [check_exactly_once, check_effectively_once, check_precedence];
        for check in checks {
            let mut out = Vec::new();
            check(&g, &trace, Side::Sim, &mut out);
            assert_eq!(out, vec![unknown.clone()]);
        }
    }

    #[test]
    fn out_of_order_start_is_flagged() {
        let g = chain2();
        let mut trace = Trace::new(1);
        trace.tasks = vec![span(0, 0.0, 10.0), span(1, 5.0, 20.0)];
        let mut out = Vec::new();
        check_precedence(&g, &trace, Side::Sim, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            Mismatch::PrecedenceViolation {
                task: TaskId(1),
                pred: TaskId(0),
                ..
            }
        ));
    }
}
