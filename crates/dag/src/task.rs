//! Tasks and task types (kernels).

use crate::access::AccessMode;
use crate::ids::{DataId, TaskId, TaskTypeId};

/// A task *type* describes a kernel shared by many task instances:
/// its name (e.g. `GEMM`, `P2P`) and which architecture *classes* provide
/// an implementation. Which concrete archs can run a task is ultimately
/// decided by the performance model (an arch without an estimate cannot
/// execute the type), mirroring StarPU where a codelet lists its
/// implementations.
#[derive(Clone, Debug)]
pub struct TaskType {
    /// Dense id of the type within its graph's registry.
    pub id: TaskTypeId,
    /// Human-readable kernel name.
    pub name: String,
    /// True if a CPU implementation exists.
    pub cpu_impl: bool,
    /// True if a GPU (accelerator) implementation exists.
    pub gpu_impl: bool,
}

/// One access of a task to a data handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The data handle being accessed.
    pub data: DataId,
    /// The access mode (drives dependency inference and coherence).
    pub mode: AccessMode,
}

/// A task instance: a vertex of the DAG.
#[derive(Clone, Debug)]
pub struct Task {
    /// Dense id of the task within its graph.
    pub id: TaskId,
    /// The kernel this task runs.
    pub ttype: TaskTypeId,
    /// Data accesses in declaration order.
    pub accesses: Vec<Access>,
    /// Expert-provided priority (used only by priority-aware baselines
    /// such as Dmdas; MultiPrio never reads it). Higher = more urgent.
    /// `0` everywhere means "no user priorities" as in the paper's FMM
    /// and sparse-QR experiments.
    pub user_priority: i64,
    /// Work estimate in floating-point operations; consumed by
    /// rate-based performance models.
    pub flops: f64,
    /// Free-form label for traces (e.g. `POTRF(3,3)`).
    pub label: String,
}

impl Task {
    /// Iterate over the data handles this task reads (R or RW).
    pub fn reads(&self) -> impl Iterator<Item = DataId> + '_ {
        self.accesses
            .iter()
            .filter(|a| a.mode.reads())
            .map(|a| a.data)
    }

    /// Iterate over the data handles this task writes (W or RW).
    pub fn writes(&self) -> impl Iterator<Item = DataId> + '_ {
        self.accesses
            .iter()
            .filter(|a| a.mode.writes())
            .map(|a| a.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_task() -> Task {
        Task {
            id: TaskId(0),
            ttype: TaskTypeId(0),
            accesses: vec![
                Access {
                    data: DataId(0),
                    mode: AccessMode::Read,
                },
                Access {
                    data: DataId(1),
                    mode: AccessMode::ReadWrite,
                },
                Access {
                    data: DataId(2),
                    mode: AccessMode::Write,
                },
            ],
            user_priority: 0,
            flops: 1.0,
            label: String::new(),
        }
    }

    #[test]
    fn reads_includes_rw() {
        let t = mk_task();
        let r: Vec<_> = t.reads().collect();
        assert_eq!(r, vec![DataId(0), DataId(1)]);
    }

    #[test]
    fn writes_includes_rw() {
        let t = mk_task();
        let w: Vec<_> = t.writes().collect();
        assert_eq!(w, vec![DataId(1), DataId(2)]);
    }
}
