//! # mp-serve — online multi-tenant streaming STF serving mode
//!
//! The batch engines (`mp-sim`, `mp-runtime`) take one closed DAG and
//! run it to completion. This crate adds the *serving* shape of the same
//! problem (DESIGN.md §13): tasks stream in continuously from many
//! concurrent clients as independent sub-DAGs, and the system must keep
//! scheduling while the graph is still growing. It provides:
//!
//! * **tenants** — per-client weight and base priority; the fairness
//!   layer scales a task's priority score by its tenant's weight before
//!   the scheduler buckets it, with starvation aging on top
//!   ([`effective_priority`]);
//! * **admission control** — bounded in-flight work with typed
//!   backpressure rejections ([`AdmitError::Backpressure`]), decided
//!   deterministically in virtual time;
//! * **arrival processes** — deterministic open-loop Poisson and bursty
//!   drivers built on the suite's splitmix64 idiom; no wall clock
//!   anywhere ([`ArrivalProcess`]);
//! * **a virtual-time serving engine** — [`serve_sim`] ingests staged
//!   sub-DAGs through [`mp_dag::SubmissionStage`] (cross-submission
//!   dependencies resolve by data identity), drives any sequential
//!   [`mp_sched::Scheduler`], and reports sustained decision throughput
//!   and per-tenant scheduling-latency distributions, bit-identically
//!   across repeats;
//! * **warm serving** — [`serve_sim_cached`] layers a shared
//!   [`mp_cache::ResultCache`] under the same engine: released tasks
//!   probe the cache before the scheduler ever sees them, verified hits
//!   complete at the release instant (cascading through all-hit
//!   successors), and hit counts land per tenant in
//!   [`TenantStats::cache_hits`]. A resubmitted near-identical sub-DAG
//!   re-executes only its dirty cone.
//!
//! The threaded counterpart (`mp_runtime::Runtime::serve`) reuses the
//! tenant/admission/fairness vocabulary defined here and executes real
//! kernels on the same worker loop as a closed threaded run, fault
//! injection and retries included; there, determinism is not required —
//! correctness (exactly-once, per-sub-DAG precedence) is audited
//! instead.

pub mod admission;
pub mod arrival;
pub mod engine;
pub mod report;
pub mod tenant;

pub use admission::{AdmissionConfig, AdmitError};
pub use arrival::ArrivalProcess;
pub use engine::{serve_sim, serve_sim_cached, ServeConfig, ServeError, SubDagShape};
pub use report::{ServeReport, TenantStats};
pub use tenant::{effective_priority, FairnessConfig, TenantSpec};
