//! Mirror a [`TaskGraph`] into a [`Runtime`].
//!
//! The differential harness feeds the *same* DAG to the discrete-event
//! simulator and to the threaded runtime. The simulator consumes a
//! `TaskGraph` directly; the runtime builds its own graph from STF
//! submissions. This module replays the original graph's tasks — same
//! kernel-type names, same access lists, same priorities — into a
//! [`Runtime`] with small computing kernels, then checks that STF
//! dependency inference reproduced exactly the original edges. Any
//! divergence is itself a finding: the two front-ends would not even be
//! running the same DAG.

use std::sync::Arc;

use mp_dag::access::AccessMode;
use mp_dag::TaskGraph;
use mp_perfmodel::PerfModel;
use mp_platform::types::Platform;
use mp_runtime::{Runtime, TaskBuilder, TaskCtx};

use crate::diff::Mismatch;

/// Buffer length for mirrored handles. The runtime's unified-memory
/// model performs no transfers, so buffer sizes do not affect any of the
/// compared invariants — tiny buffers keep a many-config sweep cheap.
fn mirror_len(bytes: u64) -> usize {
    (bytes / 8).clamp(1, 64) as usize
}

/// Rebuild `graph` inside a [`Runtime`] on `platform`, with a
/// *computing* kernel for every architecture class the original task
/// type declares: every task folds its readable buffers into an
/// accumulator and writes a value derived from it (plus a per-task salt
/// and access position) into every written element. Deterministic,
/// input-dependent and order-sensitive — if a result cache ever
/// materializes stale or corrupted bytes, the divergence propagates to
/// the final buffer digest ([`warm_cold_audit`](crate::warm_cold_audit)).
///
/// Returns the runtime plus any [`Mismatch::EdgeMismatch`] found when
/// comparing the STF-inferred dependencies against the original edges
/// (an empty vector means the DAGs are identical).
///
/// The salt is the task's cache-fingerprint key when it carries one
/// (falling back to the task index): the cache presumes
/// fingerprint-identical tasks compute the same function, so the
/// mirror must honor that — a graph grown by warm resubmission
/// legitimately contains such twins, and a within-run hit between them
/// must reproduce the reference digest, not corrupt it.
pub fn mirror_graph_computing(
    graph: &TaskGraph,
    platform: &Platform,
    model: Arc<dyn PerfModel>,
) -> (Runtime, Vec<Mismatch>) {
    let mut rt = Runtime::new(platform.clone(), model);
    for d in graph.data() {
        rt.register(vec![0.0; mirror_len(d.size)], &d.label);
    }
    for task in graph.tasks() {
        let ttype = graph.task_type(task.ttype);
        let mut tb = TaskBuilder::new(&ttype.name)
            .flops(task.flops)
            .priority(task.user_priority)
            .label(&*task.label);
        for a in &task.accesses {
            tb = tb.access(a.data, a.mode);
        }
        let modes: Vec<AccessMode> = task.accesses.iter().map(|a| a.mode).collect();
        let seed = graph
            .cache_meta(task.id)
            .map(|m| m.key)
            .unwrap_or(task.id.index() as u64);
        let kernel = computing_kernel(seed, modes);
        if ttype.cpu_impl {
            tb = tb.cpu(kernel.clone());
        }
        if ttype.gpu_impl {
            tb = tb.gpu(kernel);
        }
        let mirrored = rt.submit(tb);
        debug_assert_eq!(mirrored, task.id, "submission order preserves ids");
    }

    // STF inference must reproduce the original dependency structure.
    let mut mismatches = Vec::new();
    let mirrored = rt.graph();
    for task in graph.tasks() {
        let mut expected: Vec<_> = graph.preds(task.id).to_vec();
        let mut got: Vec<_> = mirrored.preds(task.id).to_vec();
        expected.sort_unstable();
        got.sort_unstable();
        if expected != got {
            mismatches.push(Mismatch::EdgeMismatch {
                task: task.id,
                expected,
                got,
            });
        }
    }
    (rt, mismatches)
}

fn computing_kernel(
    seed: u64,
    modes: Vec<AccessMode>,
) -> impl Fn(&mut TaskCtx<'_>) + Send + Sync + Clone {
    move |ctx: &mut TaskCtx<'_>| {
        let mut acc = 1.0 + (seed % 8191) as f64;
        for (i, m) in modes.iter().enumerate() {
            if m.reads() {
                acc += ctx.r(i).iter().sum::<f64>() * (i as f64 + 1.0);
            }
        }
        for (i, m) in modes.iter().enumerate() {
            if m.writes() {
                let salt = ((seed >> 13) % 4096) as f64 * 31.0 + i as f64;
                for (j, v) in ctx.w(i).iter_mut().enumerate() {
                    *v = acc * 0.5 + salt + j as f64 * 1e-3;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_dag::{AccessMode, StfBuilder};
    use mp_perfmodel::model::UniformModel;
    use mp_platform::presets::simple;

    #[test]
    fn mirrored_graph_has_identical_edges() {
        // Diamond: t0 writes d0; t1, t2 read d0 and write d1/d2; t3 reads both.
        let mut stf = StfBuilder::new();
        let k = stf.graph_mut().register_type("K", true, true);
        let d0 = stf.graph_mut().add_data(1024, "d0");
        let d1 = stf.graph_mut().add_data(1024, "d1");
        let d2 = stf.graph_mut().add_data(1024, "d2");
        stf.submit(k, vec![(d0, AccessMode::Write)], 1.0, "t0");
        stf.submit(
            k,
            vec![(d0, AccessMode::Read), (d1, AccessMode::Write)],
            1.0,
            "t1",
        );
        stf.submit(
            k,
            vec![(d0, AccessMode::Read), (d2, AccessMode::Write)],
            1.0,
            "t2",
        );
        stf.submit(
            k,
            vec![(d1, AccessMode::Read), (d2, AccessMode::Read)],
            1.0,
            "t3",
        );
        let g = stf.finish();
        let (rt, mismatches) =
            mirror_graph_computing(&g, &simple(2, 1), Arc::new(UniformModel { time_us: 10.0 }));
        assert!(mismatches.is_empty(), "{mismatches:?}");
        assert_eq!(rt.graph().task_count(), g.task_count());
        assert_eq!(rt.graph().edge_count(), g.edge_count());
    }
}
