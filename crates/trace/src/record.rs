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
