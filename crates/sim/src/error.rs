//! Typed simulation failures.
//!
//! A buggy scheduler (or a corrupted memory state) used to abort the
//! whole process via `panic!` deep inside the engine. Every such path
//! now produces a [`SimError`] surfaced in
//! [`SimResult::error`](crate::SimResult::error), so the caller gets a
//! diagnosable partial report — trace and statistics up to the failure —
//! instead of a dead process.

use mp_dag::ids::{DataId, TaskId};
use mp_platform::types::{MemNodeId, WorkerId};

/// Why a simulation stopped before completing every task.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The scheduler handed a task to a worker whose architecture cannot
    /// execute it (violates the `Scheduler::pop` contract).
    IncapableWorker {
        /// The misrouted task.
        task: TaskId,
        /// The worker it was handed to.
        worker: WorkerId,
    },
    /// A task needed to read a handle of which no node holds a replica —
    /// the coherence state is corrupt (every handle starts with a valid
    /// RAM copy, and write-backs persist dirty victims before eviction).
    NoValidReplica {
        /// The orphaned handle.
        data: DataId,
        /// The task that needed it.
        task: TaskId,
        /// The node it was being staged to.
        node: MemNodeId,
    },
    /// A task's working set cannot fit in its target device memory even
    /// after evicting everything evictable.
    OutOfMemory {
        /// The full memory node.
        node: MemNodeId,
        /// Bytes currently allocated (all pinned).
        used: u64,
        /// Extra bytes the task needed.
        needed: u64,
        /// The node's capacity.
        capacity: u64,
    },
    /// The scheduler returned a task that was already popped — executing
    /// it twice would corrupt the data state.
    DoubleExecution {
        /// The twice-scheduled task.
        task: TaskId,
    },
    /// The run ended with unfinished tasks: the scheduler refused every
    /// idle worker while nothing was running.
    Deadlock {
        /// Tasks that did complete.
        completed: usize,
        /// Total tasks in the graph.
        total: usize,
        /// Tasks still held inside the scheduler.
        pending: usize,
        /// The first few unfinished tasks, each with its unmet
        /// predecessors (empty for a stuck task whose dependencies all
        /// completed — it is the scheduler holding it, not the graph).
        /// Capped at [`SimError::DEADLOCK_DETAIL_CAP`] entries.
        stuck: Vec<(TaskId, Vec<TaskId>)>,
    },
    /// After a worker failure, a remaining task has no surviving worker
    /// whose architecture can execute it — the run can never complete.
    NoCapableWorker {
        /// The unexecutable task.
        task: TaskId,
    },
    /// A task failed on every allowed attempt (see
    /// `RetryPolicy::max_attempts`).
    RetryExhausted {
        /// The failing task.
        task: TaskId,
        /// Attempts made.
        attempts: u32,
    },
    /// A serving configuration that cannot run, rejected before the
    /// first arrival.
    BadServeConfig {
        /// What is wrong with it.
        reason: String,
    },
}

impl SimError {
    /// Max stuck tasks (and unmet preds per task) detailed in
    /// [`SimError::Deadlock`].
    pub const DEADLOCK_DETAIL_CAP: usize = 8;
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::IncapableWorker { task, worker } => {
                write!(
                    f,
                    "scheduler assigned {task:?} to incapable worker {worker:?}"
                )
            }
            SimError::NoValidReplica { data, task, node } => write!(
                f,
                "no valid replica of {data:?} anywhere while staging {task:?} to {node:?}"
            ),
            SimError::OutOfMemory {
                node,
                used,
                needed,
                capacity,
            } => write!(
                f,
                "node {node:?} out of memory: {used} used + {needed} needed > {capacity} \
                 capacity, nothing evictable"
            ),
            SimError::DoubleExecution { task } => {
                write!(f, "scheduler popped {task:?} twice")
            }
            SimError::Deadlock {
                completed,
                total,
                pending,
                stuck,
            } => {
                write!(
                    f,
                    "scheduler deadlocked: {completed} of {total} tasks executed, \
                     {pending} still pending inside the scheduler"
                )?;
                if !stuck.is_empty() {
                    write!(f, "; stuck:")?;
                    for (t, unmet) in stuck {
                        if unmet.is_empty() {
                            write!(f, " {t:?} (deps met, held by scheduler)")?;
                        } else {
                            write!(f, " {t:?} (waiting on {unmet:?})")?;
                        }
                    }
                }
                Ok(())
            }
            SimError::NoCapableWorker { task } => write!(
                f,
                "no surviving worker can execute {task:?} after worker failure"
            ),
            SimError::RetryExhausted { task, attempts } => {
                write!(f, "{task:?} failed on all {attempts} allowed attempt(s)")
            }
            SimError::BadServeConfig { reason } => write!(f, "bad serving config: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = SimError::IncapableWorker {
            task: TaskId(3),
            worker: WorkerId(1),
        };
        assert!(e.to_string().contains("incapable worker"));
        let e = SimError::Deadlock {
            completed: 2,
            total: 5,
            pending: 3,
            stuck: vec![(TaskId(2), vec![TaskId(1)]), (TaskId(4), vec![])],
        };
        assert!(e.to_string().contains("deadlocked"));
        assert!(e.to_string().contains("2 of 5"));
        assert!(e.to_string().contains("t2 (waiting on [t1])"), "{e}");
        assert!(e.to_string().contains("t4 (deps met"), "{e}");
        let e = SimError::NoCapableWorker { task: TaskId(7) };
        assert!(e.to_string().contains("no surviving worker"));
        let e = SimError::RetryExhausted {
            task: TaskId(9),
            attempts: 3,
        };
        assert!(e.to_string().contains("all 3 allowed"));
    }
}
