//! # multiprio — the paper's scheduler
//!
//! Implementation of **MultiPrio** (Tayeb, Bramas, Faverge, Guermouche,
//! *Dynamic Tasks Scheduling with Multiple Priorities on Heterogeneous
//! Computing Systems*, 2024): a dynamic task scheduler for heterogeneous
//! nodes that balances task/resource *affinity*, task *criticality*, data
//! *locality* and resource *workload*.
//!
//! Architecture (paper Sec. III–V):
//!
//! * one **binary max-heap of ready tasks per memory node** ([`heap`]);
//!   a ready task is *duplicated* into the heap of every memory node whose
//!   processing units can execute it;
//! * each heap entry carries a pair of scores, compared lexicographically:
//!   1. the **gain** heuristic (Eq. 1, [`score`]) — how much is gained by
//!      running the task on this architecture rather than the alternative;
//!   2. the **criticality** heuristic (Eq. 2, [`criticality`]) — the
//!      Normalized Out-Degree (NOD): how much follow-up parallelism
//!      completing this task releases;
//! * at POP, the worker takes the **most data-local task among the top-n
//!   heap entries within ε of the top score** (Eq. 3, LS_SDH², [`locality`]);
//! * a **pop condition + eviction mechanism** ([`scheduler`]) keeps
//!   ill-suited workers from stealing tasks whose best workers will be
//!   free soon enough, using a `best_remaining_work` estimate per memory
//!   node (paper Sec. V-D, ablated in Fig. 4).
//!
//! The scheduler implements the [`mp_sched::Scheduler`] trait and is
//! driven by the `mp-sim` simulator or the `mp-runtime` threaded runtime.
//!
//! ```
//! use multiprio::{MultiPrioConfig, MultiPrioScheduler};
//! let sched = MultiPrioScheduler::new(MultiPrioConfig::default());
//! assert_eq!(mp_sched::Scheduler::name(&sched), "multiprio");
//! ```

pub mod config;
pub mod criticality;
pub mod energy;
pub mod heap;
pub mod locality;
pub mod provenance;
pub mod reference;
pub mod scheduler;
pub mod score;

pub use config::MultiPrioConfig;
pub use criticality::nod;
pub use energy::EnergyPolicy;
pub use heap::{RemovableMaxHeap, Score, ScoredHeap};
pub use locality::ls_sdh2;
pub use provenance::{PopOutcome, PopRecord, ProvenanceRing, WindowEntry};
pub use reference::ReferenceScheduler;
pub use scheduler::MultiPrioScheduler;
pub use score::GainTracker;
