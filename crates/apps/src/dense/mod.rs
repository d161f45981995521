//! CHAMELEON-style dense tile algorithms.
//!
//! A dense `n × n` matrix is cut into `nt × nt` square tiles of `tile`
//! elements per side (f64), each tile being one data handle. The three
//! generators emit the classic right-looking tile algorithms whose DAGs
//! the paper evaluates in Fig. 5:
//!
//! * [`potrf()`] — Cholesky factorization (POTRF/TRSM/SYRK/GEMM);
//! * [`getrf()`] — LU without pivoting (GETRF/TRSM/GEMM), same diamond DAG
//!   shape as Cholesky but ~2× the work and more transfers;
//! * [`geqrf()`] — tile QR (GEQRT/UNMQR/TSQRT/TSMQR), the most
//!   panel-heavy of the three.
//!
//! Every generator sets expert priorities (bottom levels), because
//! CHAMELEON ships hand-tuned priorities that Dmdas consumes.

pub mod geqrf;
pub mod getrf;
pub mod potrf;

pub use geqrf::geqrf;
pub use getrf::getrf;
pub use potrf::potrf;

use mp_dag::{DataId, TaskGraph};

/// Parameters of a dense workload.
#[derive(Clone, Copy, Debug)]
pub struct DenseConfig {
    /// Matrix dimension (elements per side).
    pub n: usize,
    /// Tile dimension (elements per side), e.g. 960.
    pub tile: usize,
}

impl DenseConfig {
    /// Convenience constructor.
    pub fn new(n: usize, tile: usize) -> Self {
        assert!(n >= tile && tile > 0, "need at least one full tile");
        Self { n, tile }
    }

    /// Number of tile rows/columns (`ceil(n / tile)`).
    pub fn nt(&self) -> usize {
        self.n.div_ceil(self.tile)
    }

    /// Bytes per tile (dense f64).
    pub fn tile_bytes(&self) -> u64 {
        (self.tile * self.tile * 8) as u64
    }
}

/// A generated dense workload.
#[derive(Clone, Debug)]
pub struct DenseWorkload {
    /// The task graph (with expert priorities set).
    pub graph: TaskGraph,
    /// Total useful flops (for GFlop/s reporting).
    pub total_flops: f64,
    /// Tile count per side.
    pub nt: usize,
    /// The configuration used.
    pub config: DenseConfig,
}

/// The full square grid of tile handles (row-major).
pub(crate) struct TileMatrix {
    tiles: Vec<DataId>,
    nt: usize,
}

impl TileMatrix {
    pub(crate) fn new(graph: &mut TaskGraph, cfg: &DenseConfig, name: &str) -> Self {
        let nt = cfg.nt();
        let bytes = cfg.tile_bytes();
        let tiles = (0..nt * nt)
            .map(|i| graph.add_data(bytes, format!("{name}({},{})", i / nt, i % nt)))
            .collect();
        Self { tiles, nt }
    }

    #[inline]
    pub(crate) fn at(&self, i: usize, j: usize) -> DataId {
        debug_assert!(i < self.nt && j < self.nt);
        self.tiles[i * self.nt + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nt_rounds_up() {
        assert_eq!(DenseConfig::new(19200, 960).nt(), 20);
        assert_eq!(DenseConfig::new(19201, 960).nt(), 21);
        assert_eq!(DenseConfig::new(960, 960).nt(), 1);
    }

    #[test]
    fn tile_bytes_f64() {
        assert_eq!(DenseConfig::new(960, 960).tile_bytes(), 960 * 960 * 8);
    }

    #[test]
    #[should_panic(expected = "full tile")]
    fn rejects_tiny_matrices() {
        DenseConfig::new(100, 960);
    }
}
