//! # mp-serve — serving policies shared by both time bases
//!
//! The batch engines (`mp-sim`, `mp-runtime`) take one closed DAG and
//! run it to completion. Their serving modes (DESIGN.md §13) run the
//! same engines on a graph that keeps growing while tasks stream in
//! from many concurrent clients as independent sub-DAGs. This crate
//! holds the policies those modes share, and nothing that executes:
//!
//! * **tenants** — per-client fair-share weights; the fairness layer
//!   scales a task's priority score by its tenant's weight before
//!   the scheduler buckets it, with starvation aging on top
//!   ([`effective_priority`]);
//! * **admission control** — bounded in-flight work with typed
//!   backpressure rejections ([`AdmitError::Backpressure`]);
//! * **arrival processes** — deterministic open-loop Poisson and bursty
//!   drivers built on the suite's splitmix64 idiom; no wall clock
//!   anywhere ([`ArrivalProcess`]).
//!
//! `mp_sim::serve_sim` serves a stream in virtual time on the
//! simulator's one event loop, bit-identically across repeats;
//! `mp_runtime::Runtime::serve` executes real kernels on the threaded
//! runtime's one worker loop, where determinism is not required and
//! correctness (exactly-once, per-sub-DAG precedence) is audited
//! instead.

pub mod admission;
pub mod arrival;
pub mod tenant;

pub use admission::{AdmissionConfig, AdmitError};
pub use arrival::ArrivalProcess;
pub use tenant::{effective_priority, FairnessConfig, TenantSpec, PRIORITY_RESOLUTION};
