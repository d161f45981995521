//! # mp-sched — scheduler interface and baseline schedulers
//!
//! The execution engines (the `mp-sim` discrete-event simulator and the
//! `mp-runtime` threaded runtime) drive schedulers through the
//! [`Scheduler`] trait, which mirrors StarPU's two intervention points
//! (paper Sec. IV-A):
//!
//! * **PUSH** — a task became ready (all predecessors finished);
//! * **POP** — a worker is idle and requests a task.
//!
//! This crate also implements every baseline the paper compares against
//! or cites:
//!
//! | name | family | paper reference |
//! |------|--------|-----------------|
//! | [`FifoScheduler`] | central queue | (sanity baseline) |
//! | [`EagerPrioScheduler`] | central queue | StarPU's `prio` policy |
//! | [`RandomScheduler`] | central queue | (sanity baseline) |
//! | [`LwsScheduler`] | resource-centric | locality work stealing (Sec. II) |
//! | [`DequeModelScheduler`] `dm` | task-centric | heft-tm-pr (Sec. II) |
//! | [`DequeModelScheduler`] `dmda` | task-centric | heft-tmdp-pr (Sec. II) |
//! | [`DequeModelScheduler`] `dmdas` | task-centric | the paper's main comparator |
//! | [`HeteroPrioScheduler`] | affinity-based | Agullo et al. [3], auto priorities per Flint et al. [9] |
//!
//! MultiPrio itself lives in the `multiprio` crate (the paper's
//! contribution) and implements the same trait.

pub mod api;
pub mod concurrent;
pub mod dm;
pub mod fifo;
pub mod heteroprio;
pub mod lws;
pub mod prio;
pub mod random;
pub mod relaxed;
pub mod testutil;
pub mod util;

pub use api::{DataLocator, LoadInfo, PrefetchReq, SchedEvent, SchedView, Scheduler};
pub use concurrent::{ConcurrentScheduler, GlobalLock, ShardedAdapter};
pub use dm::{DequeModelScheduler, DmVariant};
pub use fifo::FifoScheduler;
pub use heteroprio::HeteroPrioScheduler;
pub use lws::LwsScheduler;
pub use prio::EagerPrioScheduler;
pub use random::RandomScheduler;
pub use relaxed::{RankTracker, RelaxedConfig, RelaxedMultiQueue, RelaxedSeqScheduler};
