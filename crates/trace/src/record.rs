//! Trace records: task and transfer spans.

use mp_dag::ids::{DataId, TaskId, TaskTypeId};
use mp_platform::types::{MemNodeId, WorkerId};

/// One executed task.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpan {
    /// The task.
    pub task: TaskId,
    /// Its kernel type.
    pub ttype: TaskTypeId,
    /// The worker that executed it.
    pub worker: WorkerId,
    /// When the task became ready (pushed to the scheduler), µs.
    pub ready_at: f64,
    /// When execution began (after input transfers), µs.
    pub start: f64,
    /// When execution finished, µs.
    pub end: f64,
}

impl TaskSpan {
    /// Execution duration in µs.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Time spent between readiness and execution start, µs.
    pub fn wait(&self) -> f64 {
        self.start - self.ready_at
    }
}

/// Why a transfer happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferKind {
    /// Required by a task about to execute.
    Demand,
    /// Scheduler-requested prefetch.
    Prefetch,
    /// Dirty-replica write-back caused by memory eviction.
    WriteBack,
}

/// One data movement between memory nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferSpan {
    /// The handle moved.
    pub data: DataId,
    /// Source node.
    pub from: MemNodeId,
    /// Destination node.
    pub to: MemNodeId,
    /// Bytes moved.
    pub bytes: u64,
    /// Start time, µs.
    pub start: f64,
    /// End time, µs.
    pub end: f64,
    /// Reason for the transfer.
    pub kind: TransferKind,
}

/// A complete execution trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Executed tasks, in completion order.
    pub tasks: Vec<TaskSpan>,
    /// Data transfers, in completion order.
    pub transfers: Vec<TransferSpan>,
    /// Number of workers in the platform that produced the trace.
    pub worker_count: usize,
}

impl Trace {
    /// New empty trace for a platform with `worker_count` workers.
    pub fn new(worker_count: usize) -> Self {
        Self {
            tasks: Vec::new(),
            transfers: Vec::new(),
            worker_count,
        }
    }

    /// Completion time of the last task (0 for an empty trace).
    pub fn makespan(&self) -> f64 {
        self.tasks.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Total busy time of one worker.
    pub fn busy_time(&self, w: WorkerId) -> f64 {
        self.tasks
            .iter()
            .filter(|s| s.worker == w)
            .map(TaskSpan::duration)
            .sum()
    }

    /// Total bytes transferred, by kind.
    pub fn bytes_transferred(&self, kind: TransferKind) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.bytes)
            .sum()
    }

    /// CSV dump of task spans (`task,type,worker,ready,start,end`).
    ///
    /// An empty or error-truncated trace is a typed
    /// [`EmptyTrace`](crate::EmptyTrace) error, not a header-only file.
    pub fn tasks_csv(&self) -> Result<String, crate::EmptyTrace> {
        if self.tasks.is_empty() {
            return Err(crate::EmptyTrace);
        }
        let mut out = String::from("task,type,worker,ready_at,start,end\n");
        for s in &self.tasks {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.3}\n",
                s.task.index(),
                s.ttype.index(),
                s.worker.index(),
                s.ready_at,
                s.start,
                s.end
            ));
        }
        Ok(out)
    }

    /// Validate basic sanity: spans are well-formed and workers never run
    /// two tasks at once. Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut by_worker: Vec<Vec<&TaskSpan>> = vec![Vec::new(); self.worker_count];
        for s in &self.tasks {
            if s.start < s.ready_at - 1e-9 {
                return Err(format!("{:?} started before ready", s.task));
            }
            if s.end < s.start {
                return Err(format!("{:?} has negative duration", s.task));
            }
            by_worker
                .get_mut(s.worker.index())
                .ok_or_else(|| format!("{:?} ran on unknown worker {:?}", s.task, s.worker))?
                .push(s);
        }
        for spans in &mut by_worker {
            spans.sort_by(|a, b| a.start.total_cmp(&b.start));
            for pair in spans.windows(2) {
                if pair[1].start < pair[0].end - 1e-9 {
                    return Err(format!(
                        "{:?} and {:?} overlap on {:?}",
                        pair[0].task, pair[1].task, pair[0].worker
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn makespan_and_busy() {
        let mut tr = Trace::new(2);
        tr.tasks.push(span(0, 0, 0.0, 5.0));
        tr.tasks.push(span(1, 1, 2.0, 9.0));
        tr.tasks.push(span(2, 0, 5.0, 6.0));
        assert_eq!(tr.makespan(), 9.0);
        assert_eq!(tr.busy_time(WorkerId(0)), 6.0);
        assert_eq!(tr.busy_time(WorkerId(1)), 7.0);
        assert!(tr.validate().is_ok());
    }

    #[test]
    fn overlap_detected() {
        let mut tr = Trace::new(1);
        tr.tasks.push(span(0, 0, 0.0, 5.0));
        tr.tasks.push(span(1, 0, 4.0, 6.0));
        assert!(tr.validate().unwrap_err().contains("overlap"));
    }

    #[test]
    fn start_before_ready_detected() {
        let mut tr = Trace::new(1);
        tr.tasks.push(TaskSpan {
            task: TaskId(0),
            ttype: TaskTypeId(0),
            worker: WorkerId(0),
            ready_at: 5.0,
            start: 3.0,
            end: 6.0,
        });
        assert!(tr.validate().unwrap_err().contains("before ready"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tr = Trace::new(1);
        tr.tasks.push(span(0, 0, 0.0, 1.0));
        let csv = tr.tasks_csv().unwrap();
        assert!(csv.starts_with("task,type,worker"));
        assert_eq!(csv.lines().count(), 2);
        assert_eq!(Trace::new(1).tasks_csv(), Err(crate::EmptyTrace));
    }

    #[test]
    fn transfer_accounting() {
        let mut tr = Trace::new(1);
        tr.transfers.push(TransferSpan {
            data: DataId(0),
            from: MemNodeId(0),
            to: MemNodeId(1),
            bytes: 100,
            start: 0.0,
            end: 1.0,
            kind: TransferKind::Demand,
        });
        tr.transfers.push(TransferSpan {
            data: DataId(1),
            from: MemNodeId(0),
            to: MemNodeId(1),
            bytes: 50,
            start: 0.0,
            end: 1.0,
            kind: TransferKind::Prefetch,
        });
        assert_eq!(tr.bytes_transferred(TransferKind::Demand), 100);
        assert_eq!(tr.bytes_transferred(TransferKind::Prefetch), 50);
        assert_eq!(tr.bytes_transferred(TransferKind::WriteBack), 0);
    }
}

/// Per-kernel-type busy-time breakdown (diagnostics for reports).
impl Trace {
    /// Total busy µs per task type id, indexed densely (missing = 0).
    pub fn busy_by_type(&self) -> Vec<(TaskTypeId, f64)> {
        let mut acc: Vec<f64> = Vec::new();
        for s in &self.tasks {
            let i = s.ttype.index();
            if acc.len() <= i {
                acc.resize(i + 1, 0.0);
            }
            acc[i] += s.duration();
        }
        acc.into_iter()
            .enumerate()
            .filter(|&(_, v)| v > 0.0)
            .map(|(i, v)| (TaskTypeId::from_index(i), v))
            .collect()
    }

    /// CSV dump of transfers (`data,from,to,bytes,start,end,kind`).
    ///
    /// A fully empty trace (no tasks *and* no transfers) is a typed
    /// [`EmptyTrace`](crate::EmptyTrace) error; a run that legitimately
    /// moved no data but executed tasks still exports a header-only CSV.
    pub fn transfers_csv(&self) -> Result<String, crate::EmptyTrace> {
        if self.tasks.is_empty() && self.transfers.is_empty() {
            return Err(crate::EmptyTrace);
        }
        let mut out = String::from("data,from,to,bytes,start,end,kind\n");
        for t in &self.transfers {
            out.push_str(&format!(
                "{},{},{},{},{:.3},{:.3},{:?}\n",
                t.data.index(),
                t.from.index(),
                t.to.index(),
                t.bytes,
                t.start,
                t.end,
                t.kind
            ));
        }
        Ok(out)
    }

    /// Aggregate wait time (readiness → execution start) over all tasks;
    /// a scheduler-quality signal independent of the makespan.
    pub fn total_wait(&self) -> f64 {
        self.tasks.iter().map(TaskSpan::wait).sum()
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn span(task: u32, ttype: u32, start: f64, end: f64) -> TaskSpan {
        TaskSpan {
            task: TaskId(task),
            ttype: TaskTypeId(ttype),
            worker: WorkerId(0),
            ready_at: start - 1.0,
            start,
            end,
        }
    }

    #[test]
    fn busy_by_type_accumulates() {
        let mut tr = Trace::new(1);
        tr.tasks.push(span(0, 0, 0.0, 2.0));
        tr.tasks.push(span(1, 2, 2.0, 5.0));
        tr.tasks.push(span(2, 0, 5.0, 6.0));
        let by = tr.busy_by_type();
        assert_eq!(by, vec![(TaskTypeId(0), 3.0), (TaskTypeId(2), 3.0)]);
    }

    #[test]
    fn transfers_csv_format() {
        let mut tr = Trace::new(1);
        tr.transfers.push(TransferSpan {
            data: DataId(3),
            from: MemNodeId(0),
            to: MemNodeId(1),
            bytes: 42,
            start: 1.0,
            end: 2.0,
            kind: TransferKind::Prefetch,
        });
        let csv = tr.transfers_csv().unwrap();
        assert!(csv.starts_with("data,from,to"));
        assert!(csv.contains("3,0,1,42,1.000,2.000,Prefetch"));
        assert_eq!(Trace::new(1).transfers_csv(), Err(crate::EmptyTrace));
    }

    #[test]
    fn total_wait_sums_start_minus_ready() {
        let mut tr = Trace::new(1);
        tr.tasks.push(span(0, 0, 1.0, 2.0)); // ready 0.0, start 1.0
        tr.tasks.push(span(1, 0, 3.0, 4.0)); // ready 2.0, start 3.0
        assert!((tr.total_wait() - 2.0).abs() < 1e-12);
    }
}
