//! Seeded submission order.
//!
//! A tiled factorization can be submitted in many sequential orders that
//! all describe the same DAG: any topological order keeps every pair of
//! conflicting accesses in place, so STF inference derives the same
//! edges. [`resubmit`] re-submits a graph in a seeded topological order
//! from [`seeded_order`] that stays close to the original one (each task
//! may move ahead of at most `window` earlier-submitted independent
//! tasks). Only task ids change, and with them the id tie-breaks of the
//! scheduler — which is what makes a Cholesky input depend on the
//! benchmark seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mp_dag::{StfBuilder, TaskGraph, TaskId};

/// splitmix64: the benchmark's only random source.
#[derive(Clone, Debug)]
pub struct Mix(pub u64);

impl Mix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded topological order of `graph`: `order[new] = old`.
pub fn seeded_order(graph: &TaskGraph, seed: u64, window: usize) -> Vec<TaskId> {
    let n = graph.task_count();
    let mut mix = Mix(seed);
    let key: Vec<u64> = (0..n)
        .map(|i| (i + mix.below(window.max(1))) as u64)
        .collect();
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.preds(TaskId::from_index(i)).len())
        .collect();
    let mut ready: BinaryHeap<Reverse<(u64, usize)>> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| Reverse((key[i], i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, i))) = ready.pop() {
        let t = TaskId::from_index(i);
        order.push(t);
        for &s in graph.succs(t) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                ready.push(Reverse((key[s.index()], s.index())));
            }
        }
    }
    order
}

/// Re-submit `graph` through STF in `order` (from [`seeded_order`]).
/// Types, data handles, flops, priorities and labels are kept.
pub fn resubmit(graph: &TaskGraph, order: &[TaskId]) -> TaskGraph {
    let mut stf = StfBuilder::new();
    for tt in graph.types() {
        stf.graph_mut()
            .register_type(&tt.name, tt.cpu_impl, tt.gpu_impl);
    }
    for d in graph.data() {
        stf.graph_mut().add_data(d.size, d.label.clone());
    }
    for &old in order {
        let task = graph.task(old);
        let _s = crate::trace::span(crate::trace::Name::Submit, old.index() as u32);
        stf.submit_prio(
            task.ttype,
            task.accesses.iter().map(|a| (a.data, a.mode)).collect(),
            task.flops,
            task.user_priority,
            task.label.clone(),
        );
    }
    stf.finish()
}

/// Does `new` (re-submitted in `order`) have exactly `old`'s edges
/// under the relabeling?
pub fn same_edges(old: &TaskGraph, new: &TaskGraph, order: &[TaskId]) -> bool {
    if old.task_count() != new.task_count() || old.edge_count() != new.edge_count() {
        return false;
    }
    order.iter().enumerate().all(|(ni, &o)| {
        let mut got: Vec<TaskId> = new
            .preds(TaskId::from_index(ni))
            .iter()
            .map(|p| order[p.index()])
            .collect();
        let mut want = old.preds(o).to_vec();
        got.sort_unstable();
        want.sort_unstable();
        got == want
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_apps::dense::{potrf, DenseConfig};

    #[test]
    fn reordered_cholesky_keeps_its_edges() {
        let g = potrf(DenseConfig::new(8 * 96, 96)).graph;
        let order = seeded_order(&g, 42, 16);
        assert_ne!(
            order,
            (0..g.task_count())
                .map(TaskId::from_index)
                .collect::<Vec<_>>()
        );
        let r = resubmit(&g, &order);
        assert!(same_edges(&g, &r, &order));
        assert_eq!(seeded_order(&g, 42, 16), order);
    }
}
