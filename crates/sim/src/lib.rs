//! # mp-sim — discrete-event simulation of task-based execution
//!
//! Executes a `mp-dag` task graph on a `mp-platform` machine under any
//! `mp-sched` scheduler, in virtual time. This is the reproduction's
//! stand-in for running StarPU on the paper's two testbeds — the same
//! methodology the paper itself uses for its Fig. 4 study (StarPU over
//! SimGrid, refs [24, 25, 27]).
//!
//! Modeled effects:
//!
//! * per-(kernel, arch) execution times from the performance model, with
//!   optional seeded log-normal noise;
//! * **data coherence** (MSI-like): tasks fetch missing read replicas to
//!   their worker's memory node; writes invalidate remote replicas;
//! * **transfer costs** with per-directed-link FIFO serialization (PCIe
//!   contention) — including GPU↔GPU via the slower peer link;
//! * **bounded GPU memory** with LRU eviction of clean replicas and
//!   write-back of dirty ones (the `getrf > 100k` pathology of Fig. 5);
//! * **prefetching**: schedulers may request replication ahead of time
//!   (the Dmda family does at push); prefetches share the link queues;
//! * full **trace recording** (`mp-trace`) and post-run validation.
//!
//! **One loop, two feeds.** [`simulate`] runs a closed graph as the
//! loop's single submission at t = 0; [`serve_sim`] feeds it an open-loop
//! multi-tenant stream whose arrivals are one more event kind and whose
//! admitted sub-DAGs grow the graph while it runs (DESIGN.md §13). Both
//! get every effect above, the pop vetting and the validation below, and
//! both return a [`SimResult`]; a served one carries its stream's
//! ledgers in [`SimResult::serving`].
//!
//! Determinism: identical inputs and seed produce identical results; the
//! event queue breaks time ties by sequence number.
//!
//! Failures are typed: a scheduler that violates its contract (incapable
//! worker, double pop, deadlock) or a memory state that cannot be
//! satisfied stops the run with a [`SimError`] in [`SimResult::error`]
//! rather than panicking.
//!
//! **Fault tolerance** (DESIGN.md §9): a [`FaultPlan`] can kill workers
//! deterministically after a fixed number of completions and inject
//! per-attempt transient execution failures. The engine quarantines dead
//! workers (`Scheduler::worker_disabled`), retries failed attempts under
//! a [`RetryPolicy`] with exponential backoff in virtual time, promotes
//! surviving replicas when a memory node dies with its last worker, and
//! re-executes the producing task chain of any value whose only copy was
//! lost. A run that can no longer complete fails typed:
//! [`SimError::NoCapableWorker`] / [`SimError::RetryExhausted`].
//!
//! Built with `--features audit`, every [`data::DataStore`] mutation and
//! every event additionally runs an invariant auditor (MSI coherence,
//! capacity, pin balance, link/event monotonicity); violations are
//! reported as [`mp_trace::AuditRecord`]s in [`SimResult::audit`]. With
//! the feature off the checks compile to nothing.

pub mod config;
pub mod data;
pub mod engine;
pub mod error;
pub mod result;
pub mod serve;

pub use config::SimConfig;
pub use engine::{simulate, simulate_cached};
pub use error::SimError;
pub use mp_cache::{
    BitFlip, LoadReport, Lookup, PersistConfig, PersistFaultPlan, PersistStats, ResultCache,
};
pub use mp_fault::{FaultPlan, KillSpec, RetryPolicy};
pub use result::{ServeStats, SimResult, SimStats, TenantStats};
pub use serve::{serve_sim, serve_sim_cached, ServeConfig};
