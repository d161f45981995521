//! # mp-dag — task graphs for heterogeneous scheduling
//!
//! This crate provides the application-side model used throughout the
//! MultiPrio reproduction:
//!
//! * [`Task`]s with typed kernels ([`TaskType`]) and data accesses
//!   ([`AccessMode`]) over sized [`DataDesc`] handles;
//! * a [`TaskGraph`] (DAG) with explicit predecessor/successor lists;
//! * an [`StfBuilder`] that infers the DAG from a *sequential task flow*:
//!   tasks are submitted in program order and RAW/WAR/WAW dependencies are
//!   derived from their data access modes, exactly like the StarPU STF
//!   model described in the paper (Sec. I, Sec. III-A);
//! * graph analyses: topological order, critical path, width profile.
//!
//! The scheduler crates only ever consume this representation; none of the
//! workload generators talk to a scheduler directly.

pub mod access;
pub mod analysis;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod stf;
pub mod task;

pub use access::AccessMode;
pub use analysis::{bottom_levels, critical_path, topological_order, width_profile, CriticalPath};
pub use graph::{CacheMeta, DataDesc, GraphStats, TaskGraph};
pub use ids::{DataId, TaskId, TaskTypeId};
pub use stf::{Draft, StfBuilder, StfState, SubmissionStage};
pub use task::{Task, TaskType};
