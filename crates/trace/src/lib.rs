//! # mp-trace — execution traces and their analysis
//!
//! The simulator (and the threaded runtime) record every task execution
//! and data transfer into a [`Trace`]. This crate computes the paper's
//! Fig. 4 style diagnostics from it:
//!
//! * makespan and per-worker / per-node **idle percentages**;
//! * the **practical critical path** — the chain of tasks obtained by
//!   walking back from the last-finishing task through the predecessor
//!   that finished last (the red-bordered tasks of Fig. 4);
//! * ASCII and SVG **Gantt charts**;
//! * CSV export for external plotting;
//! * the **precedence check** over a task graph, in O(spans + edges)
//!   through a per-task [`SpanTable`] — the one check every engine's
//!   post-run validation and every audit uses.

pub mod analysis;
pub mod audit;
pub mod chrome;
pub mod gantt;
pub mod obs;
pub mod record;
pub mod spans;

pub use analysis::{practical_critical_path, IdleStats};
pub use audit::{AuditKind, AuditRecord};
pub use chrome::{chrome_trace, chrome_trace_with, EmptyTrace};
pub use obs::{
    Counter, CounterSnapshot, DecisionInstant, LatencyStats, ObsCell, RankStats, RuntimeEvent,
    RuntimeEventKind,
};
pub use record::{TaskSpan, Trace, TransferKind, TransferSpan};
pub use spans::{EdgeViolation, PrecedenceReport, SpanTable};
