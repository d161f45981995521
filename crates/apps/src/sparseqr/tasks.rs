//! Task-graph emission for the multifrontal QR.

use mp_dag::{AccessMode, StfBuilder, TaskGraph};

use super::fronts::elimination_tree;
use super::matrices::MatrixMeta;
use super::SparseQrConfig;

/// A generated sparse QR workload.
#[derive(Clone, Debug)]
pub struct SparseQrWorkload {
    /// The task graph (no user priorities — matching the paper).
    pub graph: TaskGraph,
    /// Total flops, normalized to the published op count.
    pub total_flops: f64,
    /// Number of fronts in the elimination tree.
    pub fronts: usize,
}

/// Build the multifrontal QR task graph of `meta`.
///
/// Per front (children first):
/// 1. `SQR_ACTIVATE` — allocate/initialize the front's panels (W);
/// 2. one `SQR_ASSEMBLE` per child — scatter the child's contribution
///    block into the front (R child CB, RW one panel; CPU-only,
///    memory-bound);
/// 3. 1-D block-column factorization: for each panel `k`,
///    `SQR_GEQRT(k)` (RW panel k), then `SQR_TSMQR(k→j)` for `j > k`
///    (R panel k, RW panel j);
/// 4. the last panel's factorization additionally writes the front's
///    contribution block, consumed by the parent's assembly.
///
/// Panel flops use the tall-QR formulas with the rows remaining below the
/// eliminated block, then the whole graph is normalized so total flops
/// equal the published `meta.gflops` exactly.
pub fn sparse_qr(meta: &MatrixMeta, cfg: SparseQrConfig) -> SparseQrWorkload {
    let tree = elimination_tree(meta, cfg.seed);
    let mut stf = StfBuilder::new();
    let k_act = stf.graph_mut().register_type("SQR_ACTIVATE", true, false);
    let k_asm = stf.graph_mut().register_type("SQR_ASSEMBLE", true, false);
    let k_geqrt = stf.graph_mut().register_type("SQR_GEQRT", true, false);
    let k_tsmqr = stf.graph_mut().register_type("SQR_TSMQR", true, true);

    // Contribution-block handle per front.
    let cbs: Vec<_> = tree
        .iter()
        .map(|f| {
            let side = f.cb_rows() as u64;
            stf.graph_mut()
                .add_data(side * side * 8, format!("CB[{}]", f.id))
        })
        .collect();

    for f in &tree {
        let npanels = f.cols.div_ceil(cfg.panel);
        let panel_bytes = (f.rows * cfg.panel.min(f.cols) * 8) as u64;
        let panels: Vec<_> = (0..npanels)
            .map(|j| {
                stf.graph_mut()
                    .add_data(panel_bytes, format!("F{}p{j}", f.id))
            })
            .collect();

        // 1. Activation: W all panels.
        let act_accesses: Vec<_> = panels.iter().map(|&p| (p, AccessMode::Write)).collect();
        stf.submit(k_act, act_accesses, 0.0, format!("ACTIVATE({})", f.id));

        // 2. Assembly of each child's contribution block.
        for (ci, &c) in f.children.iter().enumerate() {
            let target = panels[ci % npanels];
            stf.submit(
                k_asm,
                vec![(cbs[c], AccessMode::Read), (target, AccessMode::ReadWrite)],
                0.0,
                format!("ASSEMBLE({}<-{})", f.id, c),
            );
        }

        // 3. Block-column factorization.
        for k in 0..npanels {
            let nb = cfg.panel.min(f.cols - k * cfg.panel) as f64;
            let m_k = (f.rows - (k * cfg.panel).min(f.rows.saturating_sub(1))) as f64;
            let geqrt_flops = 2.0 * nb * nb * (m_k - nb / 3.0).max(nb);
            let mut acc = vec![(panels[k], AccessMode::ReadWrite)];
            let is_last = k == npanels - 1;
            if is_last {
                // Producing the contribution block for the parent.
                acc.push((cbs[f.id], AccessMode::Write));
            }
            stf.submit(k_geqrt, acc, geqrt_flops, format!("GEQRT({},{k})", f.id));
            for j in k + 1..npanels {
                let update_flops = 4.0 * m_k * nb * nb;
                stf.submit(
                    k_tsmqr,
                    vec![
                        (panels[k], AccessMode::Read),
                        (panels[j], AccessMode::ReadWrite),
                    ],
                    update_flops,
                    format!("TSMQR({},{k}->{j})", f.id),
                );
            }
        }
    }

    let mut graph = stf.finish();
    // Normalize flops so the total equals the published op count exactly.
    let raw: f64 = graph.stats().total_flops;
    let target = meta.gflops * 1e9;
    let scale = target / raw;
    for i in 0..graph.task_count() {
        let t = mp_dag::TaskId::from_index(i);
        let f = graph.task(t).flops * scale;
        // Rewrite in place via a tiny helper: flops is a plain field.
        graph_set_flops(&mut graph, t, f);
    }
    let total_flops = graph.stats().total_flops;
    SparseQrWorkload {
        graph,
        total_flops,
        fronts: tree.len(),
    }
}

/// Set a task's flops (kept local: generators own their graphs).
fn graph_set_flops(graph: &mut TaskGraph, t: mp_dag::TaskId, flops: f64) {
    // TaskGraph intentionally exposes no blanket mutators; reach through
    // the one sanctioned hook.
    graph.set_task_flops(t, flops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparseqr::matrices::matrix;

    fn small() -> SparseQrWorkload {
        sparse_qr(matrix("cat_ears_4_4").unwrap(), SparseQrConfig::default())
    }

    #[test]
    fn builds_valid_dag_with_exact_flops() {
        let w = small();
        assert!(w.graph.validate_acyclic().is_ok());
        let target = 236.0 * 1e9;
        assert!(
            (w.total_flops - target).abs() / target < 1e-9,
            "normalized to published: {} vs {}",
            w.total_flops,
            target
        );
        assert!(w.fronts >= 24);
    }

    #[test]
    fn parent_waits_for_child_contribution() {
        let w = small();
        let g = &w.graph;
        // Every ASSEMBLE reads a CB written by a child's last GEQRT.
        let mut checked = 0;
        for t in g.tasks() {
            if g.task_type(t.ttype).name == "SQR_ASSEMBLE" {
                assert!(
                    g.preds(t.id)
                        .iter()
                        .any(|&p| g.task_type(g.task(p).ttype).name == "SQR_GEQRT"),
                    "assembly must wait for the child factorization"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "tree has internal fronts");
    }

    #[test]
    fn task_granularity_is_wildly_mixed() {
        let w = sparse_qr(matrix("TF17").unwrap(), SparseQrConfig::default());
        let flops: Vec<f64> = w
            .graph
            .tasks()
            .iter()
            .map(|t| t.flops)
            .filter(|&f| f > 0.0)
            .collect();
        let min = flops.iter().copied().fold(f64::INFINITY, f64::min);
        let max = flops.iter().copied().fold(0.0, f64::max);
        assert!(max > 100.0 * min, "flop spread {min:.2e}..{max:.2e}");
    }

    #[test]
    fn updates_dominate_panels_in_flops() {
        let w = sparse_qr(matrix("neos2").unwrap(), SparseQrConfig::default());
        let g = &w.graph;
        let sum = |name: &str| -> f64 {
            g.tasks()
                .iter()
                .filter(|t| g.task_type(t.ttype).name == name)
                .map(|t| t.flops)
                .sum()
        };
        // GPU-friendly updates should carry most of the work on big
        // squarish matrices — the property that lets GPUs help at all.
        assert!(sum("SQR_TSMQR") > sum("SQR_GEQRT"));
    }

    #[test]
    fn no_user_priorities() {
        let w = small();
        assert!(w.graph.tasks().iter().all(|t| t.user_priority == 0));
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.graph.task_count(), b.graph.task_count());
        assert_eq!(a.total_flops, b.total_flops);
    }
}
