//! Trace analysis over whole runs: the practical critical path of a
//! simulated schedule against a brute-force oracle, and a scale guard for
//! the indexed precedence check every validation and audit shares.

use multiprio_suite::apps::dense::{potrf, DenseConfig};
use multiprio_suite::apps::dense_model;
use multiprio_suite::audit::diff::{check_exactly_once, check_precedence};
use multiprio_suite::audit::Side;
use multiprio_suite::bench::run_once;
use multiprio_suite::dag::access::AccessMode;
use multiprio_suite::dag::graph::TaskGraph;
use multiprio_suite::dag::ids::{TaskId, TaskTypeId};
use multiprio_suite::platform::presets::homogeneous;
use multiprio_suite::platform::types::WorkerId;
use multiprio_suite::trace::{practical_critical_path, SpanTable, TaskSpan, Trace};

/// Earliest end among `t`'s spans, by scanning the whole trace.
fn brute_end(trace: &Trace, t: TaskId) -> Option<f64> {
    trace
        .tasks
        .iter()
        .filter(|s| s.task == t)
        .map(|s| s.end)
        .reduce(f64::min)
}

/// Does `a` beat `b` as the latest-ending task (ties to the smaller id)?
fn later(a: (TaskId, f64), b: (TaskId, f64)) -> bool {
    a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)
}

#[test]
fn practical_path_of_a_simulated_potrf_matches_a_brute_force_oracle() {
    // Eight identical CPUs: equal kernels started together end together,
    // so the walk meets ties between predecessors.
    let w = potrf(DenseConfig::new(8 * 960, 960));
    let r = run_once(&w.graph, &homogeneous(8), &dense_model(), "multiprio", 4);
    let (g, trace) = (&w.graph, &r.trace);
    let path = practical_critical_path(trace, g);
    assert!(path.len() > 1, "{path:?}");

    // It ends at the task that finished last.
    let last = trace
        .tasks
        .iter()
        .map(|s| (s.task, s.end))
        .reduce(|best, x| if later(x, best) { x } else { best })
        .expect("the run executed tasks");
    assert_eq!(*path.last().unwrap(), last.0);

    // Every hop is a graph edge to the predecessor that ended latest.
    let mut tied_hops = 0;
    for hop in path.windows(2) {
        let (pred, task) = (hop[0], hop[1]);
        assert!(g.preds(task).contains(&pred), "{pred:?} -> {task:?}");
        let pred_end = brute_end(trace, pred).expect("every task ran");
        for &other in g.preds(task) {
            if other != pred {
                let other_end = brute_end(trace, other).expect("every task ran");
                assert!(
                    later((pred, pred_end), (other, other_end)),
                    "{task:?}: took {pred:?} (end {pred_end}) over {other:?} (end {other_end})"
                );
                tied_hops += usize::from(other_end == pred_end);
            }
        }
    }
    assert!(
        tied_hops > 0,
        "no tie on the path: the tie rule went unchecked"
    );

    // It starts at a source: the walk stops only where no predecessor ran.
    assert!(g.preds(path[0]).is_empty(), "{:?}", path[0]);
}

/// A 200,000-task chain, checked in full. Looking up one span per edge
/// by scanning the trace would take ~2·10¹⁰ span reads here, so a
/// quadratic precedence check or critical-path walk hangs this test.
#[test]
fn precedence_check_and_critical_path_scale_linearly_on_a_long_chain() {
    const N: usize = 200_000;
    let mut g = TaskGraph::new();
    let k = g.register_type("K", true, false);
    let d = g.add_data(8, "d");
    let mut trace = Trace::new(1);
    for i in 0..N {
        let t = g.add_task(k, vec![(d, AccessMode::ReadWrite)], 1.0, "t");
        if i > 0 {
            g.add_edge(TaskId::from_index(i - 1), t);
        }
        trace.tasks.push(TaskSpan {
            task: t,
            ttype: TaskTypeId(0),
            worker: WorkerId(0),
            ready_at: i as f64,
            start: i as f64,
            end: i as f64 + 1.0,
        });
    }

    let report = SpanTable::new(&trace, &g).check_precedence();
    assert!(report.violations.is_empty() && report.unspanned.is_empty());
    let mut findings = Vec::new();
    check_exactly_once(&g, &trace, Side::Sim, &mut findings);
    check_precedence(&g, &trace, Side::Sim, &mut findings);
    assert!(
        findings.is_empty(),
        "{:?}",
        &findings[..findings.len().min(3)]
    );
    assert_eq!(practical_critical_path(&trace, &g).len(), N);

    // One early start is found among 200k edges.
    trace.tasks[N - 1].start -= 0.5;
    let report = SpanTable::new(&trace, &g).check_precedence();
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].task, TaskId::from_index(N - 1));
}
