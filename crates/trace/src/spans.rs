//! Per-task span table and the precedence check built on it.
//!
//! Finding a task's span by scanning the trace costs O(spans), so one
//! lookup per DAG edge costs O(edges × spans). [`SpanTable`] indexes a
//! trace by [`TaskId`] in one O(spans) pass, after which
//! [`SpanTable::check_precedence`] checks every edge of the graph in
//! O(spans + edges). `mp-sim`'s post-run validation, `mp-audit`'s
//! precedence and execution-count audits and
//! [`crate::practical_critical_path`] all read this one table.

use std::cmp::Ordering;

use mp_dag::graph::TaskGraph;
use mp_dag::ids::TaskId;

use crate::record::Trace;

/// Start-time slack of [`SpanTable::check_precedence`], µs. Within one
/// clock the engines order completions before dependent starts exactly,
/// but float accumulation in the simulator's virtual time warrants a hair
/// of tolerance.
const EPS: f64 = 1e-6;

/// A trace's spans indexed by the tasks of a graph: how many spans each
/// task has and the earliest end among them.
///
/// With several spans per task (recompute-recovery re-executes a
/// producer whose output was lost), the earliest end is when the task's
/// dependents were first released; `mp-sim` records spans in completion
/// order, so that is the first span it records for the task. Ties, and
/// ends that do not compare (NaN), keep the span recorded first.
#[derive(Debug)]
pub struct SpanTable<'a> {
    trace: &'a Trace,
    graph: &'a TaskGraph,
    /// Earliest span end per task; meaningful only where `count > 0`.
    end: Vec<f64>,
    /// Spans per task (saturating).
    count: Vec<u32>,
    /// Task ids named by spans but outside the graph, in trace order.
    out_of_range: Vec<TaskId>,
}

/// One edge whose successor started before its predecessor ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeViolation {
    /// The successor that started early.
    pub task: TaskId,
    /// The predecessor it overtook.
    pub pred: TaskId,
    /// The successor span's start, µs.
    pub start: f64,
    /// The predecessor's earliest end, µs.
    pub pred_end: f64,
}

/// Findings of [`SpanTable::check_precedence`], each list in trace order
/// (span by span, then predecessor by predecessor).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrecedenceReport {
    /// Edges whose successor started more than 1e-6 µs before its
    /// predecessor's earliest end.
    pub violations: Vec<EdgeViolation>,
    /// Edges `(task, pred)` of executed tasks whose predecessor has no
    /// span: it never ran, or a result cache served it without running.
    pub unspanned: Vec<(TaskId, TaskId)>,
}

impl<'a> SpanTable<'a> {
    /// Index `trace` by the tasks of `graph` in one pass. Spans naming a
    /// task the graph does not have are left out of the table and listed
    /// by [`Self::out_of_range`].
    pub fn new(trace: &'a Trace, graph: &'a TaskGraph) -> Self {
        let n = graph.task_count();
        let mut end = vec![0.0; n];
        let mut count = vec![0u32; n];
        let mut out_of_range = Vec::new();
        for s in &trace.tasks {
            let i = s.task.index();
            let Some(c) = count.get_mut(i) else {
                out_of_range.push(s.task);
                continue;
            };
            if *c == 0 || s.end < end[i] {
                end[i] = s.end;
            }
            *c = c.saturating_add(1);
        }
        Self {
            trace,
            graph,
            end,
            count,
            out_of_range,
        }
    }

    /// Number of tasks the table covers (those of the graph).
    pub fn task_count(&self) -> usize {
        self.count.len()
    }

    /// Earliest end of `t`'s spans, µs; `None` if it has none.
    #[inline]
    pub fn end(&self, t: TaskId) -> Option<f64> {
        let i = t.index();
        (*self.count.get(i)? > 0).then(|| self.end[i])
    }

    /// Number of spans `t` has.
    #[inline]
    pub fn count(&self, t: TaskId) -> usize {
        self.count.get(t.index()).map_or(0, |&c| c as usize)
    }

    /// Task ids of spans that name a task outside the graph, in trace
    /// order (a corrupt or mismatched trace; an engine never records
    /// one).
    pub fn out_of_range(&self) -> &[TaskId] {
        &self.out_of_range
    }

    /// Check every edge `pred → task` against every span of `task`: the
    /// span must start no earlier than 1e-6 µs before `pred`'s earliest
    /// end, and times that do not compare (NaN) fail. Edges whose
    /// predecessor has no span are reported apart from violations, since
    /// a result cache legitimately completes a task without one. One pass
    /// over the spans and their predecessor lists: O(spans + edges).
    pub fn check_precedence(&self) -> PrecedenceReport {
        let mut report = PrecedenceReport::default();
        for span in &self.trace.tasks {
            if span.task.index() >= self.count.len() {
                continue;
            }
            for &pred in self.graph.preds(span.task) {
                let Some(pred_end) = self.end(pred) else {
                    report.unspanned.push((span.task, pred));
                    continue;
                };
                if span
                    .start
                    .partial_cmp(&(pred_end - EPS))
                    .is_none_or(Ordering::is_lt)
                {
                    report.violations.push(EdgeViolation {
                        task: span.task,
                        pred,
                        start: span.start,
                        pred_end,
                    });
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TaskSpan;
    use mp_dag::access::AccessMode;
    use mp_dag::ids::TaskTypeId;
    use mp_platform::types::WorkerId;

    fn span(task: u32, start: f64, end: f64) -> TaskSpan {
        TaskSpan {
            task: TaskId(task),
            ttype: TaskTypeId(0),
            worker: WorkerId(0),
            ready_at: start,
            start,
            end,
        }
    }

    /// `n` tasks with the given edges.
    fn graph(n: usize, edges: &[(u32, u32)]) -> TaskGraph {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, false);
        let d = g.add_data(1, "d");
        for i in 0..n {
            g.add_task(k, vec![(d, AccessMode::Read)], 1.0, format!("t{i}"));
        }
        for &(a, b) in edges {
            g.add_edge(TaskId(a), TaskId(b));
        }
        g
    }

    fn trace(spans: Vec<TaskSpan>) -> Trace {
        let mut tr = Trace::new(1);
        tr.tasks = spans;
        tr
    }

    #[test]
    fn violation_names_task_pred_start_and_pred_end() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        let tr = trace(vec![
            span(0, 0.0, 10.0),
            span(1, 4.0, 12.0),
            span(2, 12.0, 13.0),
        ]);
        let report = SpanTable::new(&tr, &g).check_precedence();
        assert_eq!(
            report.violations,
            vec![EdgeViolation {
                task: TaskId(1),
                pred: TaskId(0),
                start: 4.0,
                pred_end: 10.0,
            }]
        );
        assert!(report.unspanned.is_empty());
    }

    #[test]
    fn slack_is_exactly_precedence_eps() {
        let g = graph(2, &[(0, 1)]);
        let at_slack = 10.0 - EPS;
        let tr = trace(vec![span(0, 0.0, 10.0), span(1, at_slack, 20.0)]);
        assert_eq!(
            SpanTable::new(&tr, &g).check_precedence(),
            PrecedenceReport::default()
        );

        let beyond = f64::from_bits(at_slack.to_bits() - 1);
        let tr = trace(vec![span(0, 0.0, 10.0), span(1, beyond, 20.0)]);
        let report = SpanTable::new(&tr, &g).check_precedence();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].start, beyond);
    }

    #[test]
    fn spanless_predecessor_is_reported_apart_from_violations() {
        // Task 0 has no span (never ran, or served from a cache); task 2
        // overtakes task 1.
        let g = graph(3, &[(0, 1), (1, 2)]);
        let tr = trace(vec![span(1, 0.0, 5.0), span(2, 1.0, 6.0)]);
        let table = SpanTable::new(&tr, &g);
        assert_eq!(table.end(TaskId(0)), None);
        assert_eq!(table.count(TaskId(0)), 0);
        let report = table.check_precedence();
        assert_eq!(report.unspanned, vec![(TaskId(1), TaskId(0))]);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].task, TaskId(2));
        assert_eq!(report.violations[0].pred, TaskId(1));
    }

    #[test]
    fn recomputed_task_is_checked_against_its_earliest_end() {
        // Task 0 ran twice (recompute-recovery): first ending at 5, then
        // again ending at 30. Task 1 was released by the first run.
        let g = graph(2, &[(0, 1)]);
        let tr = trace(vec![
            span(0, 0.0, 5.0),
            span(1, 5.0, 8.0),
            span(0, 20.0, 30.0),
        ]);
        let table = SpanTable::new(&tr, &g);
        assert_eq!(table.count(TaskId(0)), 2);
        assert_eq!(table.end(TaskId(0)), Some(5.0));
        assert_eq!(table.check_precedence(), PrecedenceReport::default());

        // Recorded out of completion order, the earliest end still wins.
        let tr = trace(vec![
            span(0, 20.0, 30.0),
            span(0, 0.0, 5.0),
            span(1, 5.0, 8.0),
        ]);
        assert_eq!(SpanTable::new(&tr, &g).end(TaskId(0)), Some(5.0));
    }

    #[test]
    fn every_span_of_a_successor_is_checked() {
        let g = graph(2, &[(0, 1)]);
        let tr = trace(vec![
            span(0, 0.0, 5.0),
            span(1, 5.0, 6.0),
            span(1, 2.0, 3.0),
        ]);
        let report = SpanTable::new(&tr, &g).check_precedence();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].start, 2.0);
    }

    #[test]
    fn nan_start_is_a_violation() {
        let g = graph(2, &[(0, 1)]);
        let tr = trace(vec![span(0, 0.0, 5.0), span(1, f64::NAN, 6.0)]);
        assert_eq!(
            SpanTable::new(&tr, &g).check_precedence().violations.len(),
            1
        );
    }

    #[test]
    fn out_of_range_spans_are_listed_not_indexed() {
        let g = graph(2, &[(0, 1)]);
        let tr = trace(vec![
            span(0, 0.0, 5.0),
            span(7, 0.0, 1.0),
            span(1, 5.0, 6.0),
        ]);
        let table = SpanTable::new(&tr, &g);
        assert_eq!(table.out_of_range(), &[TaskId(7)]);
        assert_eq!(table.count(TaskId(7)), 0);
        assert_eq!(table.end(TaskId(7)), None);
        assert_eq!(table.check_precedence(), PrecedenceReport::default());
    }
}
