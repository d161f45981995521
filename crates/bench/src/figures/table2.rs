//! Table II — the gain-heuristic worked example, regenerated.

use mp_platform::types::ArchId;
use multiprio::GainTracker;

/// One cell row of the regenerated Table II.
#[derive(Clone, Debug, PartialEq)]
pub struct Table2 {
    /// `hd(a1)` and `hd(a2)` after observing the three tasks.
    pub hd: (f64, f64),
    /// `gain(t, a1)` for tasks A, B, C.
    pub gain_a1: [f64; 3],
    /// `gain(t, a2)` for tasks A, B, C.
    pub gain_a2: [f64; 3],
}

/// Regenerate Table II from the paper's δ values
/// (A: 1/20 ms, B: 5/10 ms, C: 20/10 ms).
pub fn run() -> Table2 {
    let a1 = ArchId(0);
    let a2 = ArchId(1);
    let cands = |d1: f64, d2: f64| {
        let mut v = vec![(a1, d1), (a2, d2)];
        v.sort_by(|x, y| x.1.total_cmp(&y.1));
        v
    };
    let tasks = [cands(1.0, 20.0), cands(5.0, 10.0), cands(20.0, 10.0)];
    let g = GainTracker::new();
    for t in &tasks {
        g.observe(t);
    }
    Table2 {
        hd: (g.hd(a1), g.hd(a2)),
        gain_a1: [
            g.gain(&tasks[0], a1),
            g.gain(&tasks[1], a1),
            g.gain(&tasks[2], a1),
        ],
        gain_a2: [
            g.gain(&tasks[0], a2),
            g.gain(&tasks[1], a2),
            g.gain(&tasks[2], a2),
        ],
    }
}

/// The paper's published values (3 decimal places).
pub const PAPER_GAIN_A1: [f64; 3] = [1.0, 0.631, 0.236];
/// Row 2 of the table.
pub const PAPER_GAIN_A2: [f64; 3] = [0.0, 0.368, 0.763];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerated_table_matches_paper() {
        let t = run();
        assert_eq!(t.hd, (19.0, 19.0));
        for i in 0..3 {
            assert!(
                (t.gain_a1[i] - PAPER_GAIN_A1[i]).abs() < 1e-3,
                "a1 task {i}"
            );
            assert!(
                (t.gain_a2[i] - PAPER_GAIN_A2[i]).abs() < 1e-3,
                "a2 task {i}"
            );
        }
    }
}
