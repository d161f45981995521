//! Scheduler-only replay driver: drives a [`Scheduler`] through an entire
//! DAG without the simulator's data-movement machinery, so the pop order
//! it records is the scheduling decisions alone (push + pop +
//! bookkeeping). The view handed to the scheduler is static: all data
//! sits in RAM and every worker is free.
//!
//! The behavioural contract ([`crate::contract`]) pins the pop order of
//! six policies on two 16k-task DAGs, and `prop_invariants` checks the
//! slab MultiPrio against its reference implementation through it.

use mp_dag::hash::{FNV_OFFSET, FNV_PRIME};
use mp_dag::ids::{DataId, TaskId};
use mp_dag::TaskGraph;
use mp_perfmodel::{Estimator, PerfModel};
use mp_platform::types::{MemNodeId, Platform, WorkerId};
use mp_sched::api::{DataLocator, LoadInfo, SchedView, Scheduler};

/// All data lives in RAM (node 0); no replicas move during a replay.
struct RamLocator;

impl DataLocator for RamLocator {
    fn is_on(&self, _d: DataId, m: MemNodeId) -> bool {
        m == MemNodeId(0)
    }

    fn holders(&self, _d: DataId) -> Vec<MemNodeId> {
        vec![MemNodeId(0)]
    }
}

/// Every worker is permanently free.
struct FreeLoad;

impl LoadInfo for FreeLoad {
    fn busy_until(&self, _w: WorkerId) -> f64 {
        0.0
    }
}

/// Counters of one replay run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayStats {
    /// Tasks scheduled (== graph task count on success).
    pub scheduled: usize,
    /// Total `pop` calls, including ones that returned no task.
    pub pops: usize,
    /// Order fingerprint: FNV-1a over the (worker, task) pop sequence.
    /// Two runs of a deterministic scheduler must agree bit-for-bit.
    pub schedule_hash: u64,
}

fn fnv1a(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Replay `graph` through `sched`: push tasks as they become ready,
/// round-robin idle workers over `pop`, release successors on every hit.
/// Panics if the scheduler stops yielding tasks while some remain.
pub fn replay(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Scheduler,
) -> ReplayStats {
    let n = graph.task_count();
    let nw = platform.worker_count();
    let loc = RamLocator;
    let load = FreeLoad;
    let mut indeg: Vec<usize> = (0..n)
        .map(|i| graph.preds(TaskId::from_index(i)).len())
        .collect();
    let mut stats = ReplayStats::default();
    let mut hash = FNV_OFFSET;

    let view = SchedView {
        est: Estimator::new(graph, platform, model),
        loc: &loc,
        load: &load,
        now: 0.0,
    };
    for (i, &d) in indeg.iter().enumerate().take(n) {
        if d == 0 {
            sched.push(TaskId::from_index(i), None, &view);
        }
    }
    // Round-robin pops; a full idle lap without a hit while tasks remain
    // means the scheduler deadlocked.
    let mut w = 0usize;
    let mut idle_lap = 0usize;
    while stats.scheduled < n {
        let wid = WorkerId::from_index(w);
        w = (w + 1) % nw;
        stats.pops += 1;
        match sched.pop(wid, &view) {
            Some(t) => {
                stats.scheduled += 1;
                idle_lap = 0;
                hash = fnv1a(hash, ((wid.index() as u64) << 32) | u64::from(t.0));
                for &s in graph.succs(t) {
                    indeg[s.index()] -= 1;
                    if indeg[s.index()] == 0 {
                        sched.push(s, Some(wid), &view);
                    }
                }
            }
            None => {
                idle_lap += 1;
                assert!(
                    idle_lap <= nw,
                    "scheduler '{}' deadlocked in replay: {} of {n} tasks scheduled, \
                     {} pending inside the scheduler",
                    sched.name(),
                    stats.scheduled,
                    sched.pending()
                );
            }
        }
    }
    stats.schedule_hash = hash;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_scheduler;
    use mp_apps::random::{random_dag, random_model, RandomDagConfig};
    use mp_platform::presets::simple;

    #[test]
    fn replay_schedules_every_task_deterministically() {
        let g = random_dag(RandomDagConfig {
            layers: 8,
            width: 10,
            ..Default::default()
        });
        let m = random_model();
        let p = simple(3, 1);
        for name in ["multiprio", "dmdas", "heteroprio", "lws", "fifo"] {
            let run = || {
                let mut s = make_scheduler(name);
                replay(&g, &p, &m, s.as_mut())
            };
            let (a, b) = (run(), run());
            assert_eq!(a.scheduled, g.task_count(), "{name}");
            assert_eq!(
                a.schedule_hash, b.schedule_hash,
                "{name} must be deterministic"
            );
        }
    }
}
