//! Ablations of MultiPrio's design choices (DESIGN.md §10).
//!
//! * Component ablation: full MultiPrio against one component switched
//!   off at a time (eviction, locality, criticality, per-worker backlog)
//!   and the energy-aware extension.
//! * Hyperparameter sweeps: the locality window `n` and the score
//!   threshold `ε`, which the paper fixes empirically at `n = 10` and
//!   `ε = 0.8`.
//!
//! Both run the Fig. 8 setup on flower_7_4 (Intel-V100 with four
//! streams per GPU, seed 8, noise cv 0.25). The hierarchical-task
//! outlook (paper Sec. VII) sweeps the fraction of expanded block tasks
//! on Intel-V100 with two streams per GPU.

use mp_apps::hierarchical::{hierarchical, hierarchical_model, HierConfig};
use mp_apps::sparseqr::{matrix, sparse_qr, SparseQrConfig};
use mp_apps::sparseqr_model;
use mp_platform::presets::intel_v100_streams;
use mp_sim::{simulate, SimConfig};
use multiprio::{MultiPrioConfig, MultiPrioScheduler};

use crate::figures::fig8::SPARSE_NOISE_CV;
use crate::harness::{run_noisy, run_once};

/// The component variants, full MultiPrio first.
pub const VARIANTS: [&str; 6] = [
    "multiprio",
    "multiprio-noevict",
    "multiprio-nolocality",
    "multiprio-nocrit",
    "multiprio-brwtotal",
    "multiprio-energy",
];

/// Locality windows swept (paper: `n = 10`).
pub const WINDOWS: [usize; 5] = [1, 4, 10, 25, 50];

/// Score thresholds swept (paper: `ε = 0.8`).
pub const EPSILONS: [f64; 5] = [0.05, 0.2, 0.4, 0.8, 1.0];

/// Fractions of hierarchical block tasks expanded.
pub const EXPAND_RATIOS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Schedulers of the hierarchical expansion sweep.
pub const HIER_SCHEDULERS: [&str; 3] = ["multiprio", "dmdas", "heteroprio"];

/// Makespans in seconds of the sparse-QR ablation, one per entry of
/// [`VARIANTS`], [`WINDOWS`] and [`EPSILONS`] in order.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Component variants.
    pub components: Vec<f64>,
    /// Locality-window sweep.
    pub window: Vec<f64>,
    /// Score-threshold sweep.
    pub epsilon: Vec<f64>,
}

/// One point of the hierarchical expansion sweep.
#[derive(Clone, Debug)]
pub struct HierRow {
    /// Fraction of block tasks expanded into fine subgraphs.
    pub expand_ratio: f64,
    /// Makespans in ms, one per entry of [`HIER_SCHEDULERS`].
    pub makespan_ms: [f64; 3],
}

/// Run the component ablation and both hyperparameter sweeps.
pub fn run() -> Ablation {
    const SEED: u64 = 8;
    let w = sparse_qr(
        matrix("flower_7_4").expect("flower_7_4 is a Fig. 7 matrix"),
        SparseQrConfig::default(),
    );
    let platform = intel_v100_streams(4);
    let model = sparseqr_model();
    let swept = |cfg: MultiPrioConfig| {
        let mut s = MultiPrioScheduler::new(cfg);
        let cfg = SimConfig::seeded(SEED).with_noise(SPARSE_NOISE_CV);
        simulate(&w.graph, &platform, &model, &mut s, cfg).makespan / 1e6
    };
    Ablation {
        components: VARIANTS
            .iter()
            .map(|s| {
                run_noisy(&w.graph, &platform, &model, s, SEED, SPARSE_NOISE_CV).makespan / 1e6
            })
            .collect(),
        window: WINDOWS
            .iter()
            .map(|&n| {
                swept(MultiPrioConfig {
                    locality_window: n,
                    ..MultiPrioConfig::default()
                })
            })
            .collect(),
        epsilon: EPSILONS
            .iter()
            .map(|&eps| {
                swept(MultiPrioConfig {
                    epsilon: eps,
                    ..MultiPrioConfig::default()
                })
            })
            .collect(),
    }
}

/// Run the hierarchical expansion sweep.
pub fn hierarchical_sweep() -> Vec<HierRow> {
    let platform = intel_v100_streams(2);
    let model = hierarchical_model();
    EXPAND_RATIOS
        .iter()
        .map(|&expand_ratio| {
            let w = hierarchical(HierConfig {
                expand_ratio,
                ..HierConfig::default()
            });
            HierRow {
                expand_ratio,
                makespan_ms: HIER_SCHEDULERS
                    .map(|s| run_once(&w.graph, &platform, &model, s, 11).makespan / 1e3),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_matters_most_and_the_paper_defaults_win() {
        let a = run();
        let full = a.components[0];
        let noevict = a.components[1];
        for (name, &t) in VARIANTS.iter().zip(&a.components) {
            assert!(
                full <= t,
                "full multiprio {full:.3} s slower than {name} {t:.3} s"
            );
            assert!(
                noevict >= t,
                "{name} {t:.3} s slower than noevict {noevict:.3} s"
            );
        }
        let n = |w| a.window[WINDOWS.iter().position(|&x| x == w).unwrap()];
        assert!(
            n(10) < n(1),
            "window n = 10 ({:.3} s) should beat n = 1 ({:.3} s)",
            n(10),
            n(1)
        );
    }
}
