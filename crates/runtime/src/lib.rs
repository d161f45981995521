//! # mp-runtime — a real multithreaded task runtime
//!
//! Where `mp-sim` replays schedules in virtual time, this crate actually
//! *executes* tasks on worker threads, driving the very same
//! [`mp_sched::Scheduler`] implementations. It provides:
//!
//! * an STF submission front-end (register `Vec<f64>` buffers, submit
//!   tasks with access modes — dependencies are inferred);
//! * per-architecture-class kernel implementations as Rust closures (the
//!   "CPU codelet" / "GPU codelet" pair of a StarPU task);
//! * worker threads bound to the platform's workers, parked on an
//!   eventcount-style wake epoch and woken on every PUSH/completion;
//! * one worker loop behind two entry points: a closed run
//!   ([`Runtime::run_concurrent`]) and open-loop serving
//!   ([`Runtime::serve_concurrent`]), each taking any concurrent
//!   scheduler front-end — a global-lock baseline, a sharded multi-queue
//!   with randomized two-choice stealing, or the relaxed multi-queue
//!   ([`mp_sched::concurrent`]) — and each ending in one [`RunReport`];
//! * measured execution times fed back into the performance model
//!   (closing StarPU's calibration loop for history-based models);
//! * a wall-clock `mp-trace` trace.
//!
//! **Heterogeneity emulation** (documented substitution, DESIGN.md): on a
//! CPU-only host, "GPU" workers are ordinary threads that run the task's
//! GPU-class closure — typically an optimized kernel variant — while CPU
//! workers run the plain one. Memory is unified: the data-locality
//! machinery reports every handle resident everywhere, and no transfers
//! are performed. Compute heterogeneity (different measured δ per class,
//! the thing the schedulers actually decide on) is therefore real and
//! measured; transfer heterogeneity is exercised by the simulator only.

pub mod data;
pub mod engine;
pub mod serve;

pub use data::{BufRef, TaskCtx};
pub use engine::{RunError, RunReport, Runtime, TaskBuilder};
pub use mp_cache::{
    BitFlip, LoadReport, Lookup, PersistConfig, PersistFaultPlan, PersistStats, ResultCache,
};
pub use mp_fault::{FaultPlan, KillSpec, RetryPolicy};
pub use mp_sched::concurrent::{RelaxedConfig, RelaxedMultiQueue, ShardedAdapter};
pub use serve::{StreamConfig, StreamReport, Submission, TenantCounts};
