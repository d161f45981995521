//! Task criticality via Normalized Out-Degree (paper Eq. 2, after Lin et
//! al. \[23\]).
//!
//! ```text
//! NOD(t) = Σ_{s ∈ λ⁺(t)} 1 / |λ⁻(s)|
//! ```
//!
//! Each successor `s` of `t` contributes the *fraction of its release*
//! that completing `t` provides: a successor with a single predecessor is
//! fully unlocked (worth 1), a successor waiting on four tasks is a
//! quarter-unlocked. A high NOD means finishing the task fans out a lot
//! of follow-up parallelism — exactly the property a dynamic scheduler
//! can evaluate on the partial DAG available at runtime, since it only
//! inspects direct successors and their direct predecessor counts.

use mp_dag::graph::TaskGraph;
use mp_dag::ids::TaskId;

/// Compute `NOD(t)` on the current graph.
pub fn nod(g: &TaskGraph, t: TaskId) -> f64 {
    g.succs(t)
        .iter()
        .map(|&s| {
            let preds = g.preds(s).len();
            debug_assert!(preds >= 1, "successor must have t as predecessor");
            1.0 / preds as f64
        })
        .sum()
}

/// Running maximum used to normalize NOD values into [0, 1] (scores in
/// the heaps are normalized, Sec. V).
#[derive(Clone, Copy, Debug, Default)]
pub struct NodNormalizer {
    max_seen: f64,
}

impl NodNormalizer {
    /// New normalizer with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe a raw NOD value and return it normalized by the largest
    /// value seen so far (including this one). 0 maps to 0.
    pub fn normalize(&mut self, raw: f64) -> f64 {
        debug_assert!(raw >= 0.0);
        self.max_seen = self.max_seen.max(raw);
        if self.max_seen == 0.0 {
            0.0
        } else {
            raw / self.max_seen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dag::access::AccessMode;

    /// Reconstruction of the paper's Fig. 3 scenario: tasks 2 and 3 are
    /// ready; NOD(T2) = 2.5 and NOD(T3) = 1.
    ///
    /// * T2 → {T4, T5, T6}: T4 and T5 have T2 as their only predecessor
    ///   (1 + 1), T6 also depends on T3 (+ 1/2) → 2.5.
    /// * T3 → {T6, T7}: T6 depends on {T2, T3} (1/2), T7 depends on
    ///   {T3, T4} (1/2) → 1.
    #[test]
    fn fig3_example() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(1, "d");
        let mk =
            |g: &mut TaskGraph, name: &str| g.add_task(k, vec![(d, AccessMode::Read)], 1.0, name);
        let t2 = mk(&mut g, "T2");
        let t3 = mk(&mut g, "T3");
        let t4 = mk(&mut g, "T4");
        let t5 = mk(&mut g, "T5");
        let t6 = mk(&mut g, "T6");
        let t7 = mk(&mut g, "T7");
        g.add_edge(t2, t4);
        g.add_edge(t2, t5);
        g.add_edge(t2, t6);
        g.add_edge(t3, t6);
        g.add_edge(t3, t7);
        g.add_edge(t4, t7);
        assert!((nod(&g, t2) - 2.5).abs() < 1e-12, "NOD(T2) = 2.5");
        assert!((nod(&g, t3) - 1.0).abs() < 1e-12, "NOD(T3) = 1");
        // T2 should be prioritized, matching the paper's conclusion.
        assert!(nod(&g, t2) > nod(&g, t3));
    }

    #[test]
    fn sink_task_has_zero_nod() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(1, "d");
        let t = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "sink");
        assert_eq!(nod(&g, t), 0.0);
    }

    #[test]
    fn chain_nod_is_one() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(1, "d");
        let a = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "a");
        let b = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "b");
        g.add_edge(a, b);
        assert_eq!(nod(&g, a), 1.0);
    }

    #[test]
    fn wide_fanout_scores_high() {
        let mut g = TaskGraph::new();
        let k = g.register_type("K", true, true);
        let d = g.add_data(1, "d");
        let root = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, "root");
        for i in 0..10 {
            let s = g.add_task(k, vec![(d, AccessMode::Read)], 1.0, format!("s{i}"));
            g.add_edge(root, s);
        }
        assert_eq!(nod(&g, root), 10.0);
    }

    #[test]
    fn normalizer_tracks_running_max() {
        let mut n = NodNormalizer::new();
        assert_eq!(n.normalize(0.0), 0.0);
        assert_eq!(n.normalize(2.0), 1.0);
        assert_eq!(n.normalize(1.0), 0.5);
        assert_eq!(n.normalize(4.0), 1.0);
        assert_eq!(n.normalize(1.0), 0.25);
    }
}
