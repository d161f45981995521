//! Idle-time statistics and the practical critical path (Fig. 4 style).

use mp_dag::graph::TaskGraph;
use mp_dag::ids::TaskId;
use mp_platform::types::{ArchId, Platform, WorkerId};

use crate::record::Trace;
use crate::spans::SpanTable;

/// Idle-time report for one resource group.
#[derive(Clone, Debug, PartialEq)]
pub struct IdleStats {
    /// Group label (worker or architecture name).
    pub label: String,
    /// Busy µs summed over the group's workers.
    pub busy: f64,
    /// Idle µs (group size × makespan − busy).
    pub idle: f64,
    /// Idle percentage in [0, 100].
    pub idle_pct: f64,
}

impl IdleStats {
    fn new(label: String, busy: f64, wall: f64) -> Self {
        let idle = (wall - busy).max(0.0);
        let idle_pct = if wall > 0.0 { idle / wall * 100.0 } else { 0.0 };
        Self {
            label,
            busy,
            idle,
            idle_pct,
        }
    }
}

/// Idle stats aggregated per architecture type.
pub fn idle_per_arch(trace: &Trace, platform: &Platform) -> Vec<IdleStats> {
    let makespan = trace.makespan();
    platform
        .archs()
        .iter()
        .map(|a| {
            let workers = platform.workers_of_arch(a.id);
            let busy: f64 = workers.iter().map(|&w| trace.busy_time(w)).sum();
            IdleStats::new(a.name.clone(), busy, makespan * workers.len() as f64)
        })
        .collect()
}

/// Idle percentage of a single worker.
pub fn worker_idle_pct(trace: &Trace, w: WorkerId) -> f64 {
    let makespan = trace.makespan();
    if makespan == 0.0 {
        return 0.0;
    }
    (makespan - trace.busy_time(w)).max(0.0) / makespan * 100.0
}

/// Idle percentage of one architecture (averaged over its workers).
pub fn arch_idle_pct(trace: &Trace, platform: &Platform, a: ArchId) -> f64 {
    let workers = platform.workers_of_arch(a);
    if workers.is_empty() {
        return 0.0;
    }
    workers
        .iter()
        .map(|&w| worker_idle_pct(trace, w))
        .sum::<f64>()
        / workers.len() as f64
}

/// The *practical* critical path: start from the task that finished last
/// and repeatedly follow the predecessor that finished last, until a task
/// with no predecessors is reached. These are the tasks Fig. 4 highlights
/// with a red border — the chain that actually determined the makespan in
/// this particular execution. Ties go to the smaller task id; a task with
/// several spans counts with its earliest end ([`SpanTable`]).
pub fn practical_critical_path(trace: &Trace, graph: &TaskGraph) -> Vec<TaskId> {
    let Some(last) = trace
        .tasks
        .iter()
        .max_by(|a, b| a.end.total_cmp(&b.end).then(b.task.cmp(&a.task)))
    else {
        return Vec::new();
    };
    let spans = SpanTable::new(trace, graph);
    let mut path = vec![last.task];
    let mut cur = last.task;
    loop {
        let next = graph
            .preds(cur)
            .iter()
            .filter_map(|&p| spans.end(p).map(|end| (p, end)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        match next {
            Some((p, _)) => {
                path.push(p);
                cur = p;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TaskSpan;
    use mp_dag::access::AccessMode;
    use mp_dag::ids::TaskTypeId;
    use mp_platform::presets::homogeneous;

    fn span(task: u32, worker: u32, start: f64, end: f64) -> TaskSpan {
        TaskSpan {
            task: TaskId(task),
            ttype: TaskTypeId(0),
            worker: WorkerId(worker),
            ready_at: start,
            start,
            end,
        }
    }

    #[test]
    fn idle_percentages() {
        let p = homogeneous(2);
        let mut tr = Trace::new(2);
        tr.tasks.push(span(0, 0, 0.0, 10.0));
        tr.tasks.push(span(1, 1, 0.0, 5.0));
        assert_eq!(worker_idle_pct(&tr, WorkerId(0)), 0.0);
        assert_eq!(worker_idle_pct(&tr, WorkerId(1)), 50.0);
        let per_arch = idle_per_arch(&tr, &p);
        assert!((per_arch[0].idle_pct - 25.0).abs() < 1e-9);
        assert!((arch_idle_pct(&tr, &p, ArchId(0)) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn practical_path_follows_last_finishing_preds() {
        // DAG: 0 -> 1 -> 3, 0 -> 2 -> 3; task 2 finishes after task 1,
        // so the practical path is 0, 2, 3.
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, false);
        let d = g.add_data(1, "d");
        for i in 0..4 {
            g.add_task(k, vec![(d, AccessMode::Read)], 1.0, format!("t{i}"));
        }
        g.add_edge(TaskId(0), TaskId(1));
        g.add_edge(TaskId(0), TaskId(2));
        g.add_edge(TaskId(1), TaskId(3));
        g.add_edge(TaskId(2), TaskId(3));
        let mut tr = Trace::new(2);
        tr.tasks.push(span(0, 0, 0.0, 1.0));
        tr.tasks.push(span(1, 0, 1.0, 2.0));
        tr.tasks.push(span(2, 1, 1.0, 4.0));
        tr.tasks.push(span(3, 0, 4.0, 5.0));
        let path = practical_critical_path(&tr, &g);
        assert_eq!(path, vec![TaskId(0), TaskId(2), TaskId(3)]);
    }

    #[test]
    fn empty_trace_has_empty_path() {
        let g = TaskGraph::new();
        let tr = Trace::new(1);
        assert!(practical_critical_path(&tr, &g).is_empty());
    }
}
