//! # mp-bench — reproduction harness for every table, figure and ablation
//!
//! One module per experiment (see DESIGN.md's experiment index):
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`figures::table2`] | Table II — gain-heuristic worked example |
//! | [`figures::fig3`] | Fig. 3 — NOD worked example |
//! | [`figures::fig4`] | Fig. 4 — eviction-mechanism ablation (Cholesky 960×20, 1 GPU + 6 CPUs) |
//! | [`figures::fig5`] | Fig. 5 — dense potrf/getrf/geqrf vs Dmdas on both platforms |
//! | [`figures::fig6`] | Fig. 6 — TBFMM execution time vs GPU streams |
//! | [`figures::fig7`] | Fig. 7 — the sparse matrix table |
//! | [`figures::fig8`] | Fig. 8 — sparse QR ratios vs Dmdas |
//! | [`figures::ablation`] | MultiPrio's components, `n` and `ε` on sparse QR; hierarchical tasks |
//!
//! Each module returns plain row structs and the `repro` binary prints
//! them as the paper-style tables. [`contract`] is the behavioural
//! contract: `repro contract` prints one line per simulated run of a
//! fixed sweep, and CI diffs it against the committed
//! `ci/contract.txt`. Host time is measured only by the separate
//! `perfbench/` package.

pub mod contract;
pub mod figures;
pub mod harness;
pub mod replay;
pub mod report;

pub use harness::{make_scheduler, make_scheduler_factory, run_noisy, run_once, SCHEDULER_NAMES};
pub use replay::{replay, ReplayStats};
