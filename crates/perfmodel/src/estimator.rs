//! [`Estimator`]: a model bound to a graph and a platform.
//!
//! Schedulers manipulate `δ(t, a)` constantly (best arch, speedups,
//! second-fastest arch, ...); this type centralizes those derived queries
//! and applies the platform's per-arch speed factors.

use std::collections::HashSet;
use std::sync::Mutex;

use mp_dag::graph::TaskGraph;
use mp_dag::ids::{TaskId, TaskTypeId};
use mp_platform::types::{ArchId, Platform};

use crate::model::{EstimateQuery, PerfModel};

/// Calibration default used when a model has no estimate for an arch at
/// all (see [`Estimator::delta_or_mean`]): 1 ms, the order of magnitude
/// of an uncalibrated first run in StarPU's history models.
pub const UNCALIBRATED_DELTA_US: f64 = 1_000.0;

/// Outcome of [`Estimator::delta_or_mean`]: the estimate plus where it
/// came from, so engines can log fallbacks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaEstimate {
    /// The model had an entry for this (task, arch).
    Exact(f64),
    /// No entry; mean δ of same-arch estimates over other tasks.
    ArchMean(f64),
    /// The model has no estimate for this arch at all.
    Uncalibrated(f64),
}

impl DeltaEstimate {
    /// The estimate in µs, whatever its provenance.
    pub fn us(self) -> f64 {
        match self {
            DeltaEstimate::Exact(d)
            | DeltaEstimate::ArchMean(d)
            | DeltaEstimate::Uncalibrated(d) => d,
        }
    }

    /// Did the model actually have an entry?
    pub fn is_exact(self) -> bool {
        matches!(self, DeltaEstimate::Exact(_))
    }
}

/// Warn-once bookkeeping for fallback estimates.
///
/// Engines that use [`Estimator::delta_or_mean`] should log a fallback
/// once per **(task type, arch)** pair per run — not once per task
/// execution, which floods stderr on large graphs. This tracker
/// centralizes the dedup (it used to be re-implemented ad hoc in each
/// engine) and is thread-safe so concurrent workers share one instance.
#[derive(Debug, Default)]
pub struct FallbackWarnings {
    seen: Mutex<HashSet<(TaskTypeId, ArchId)>>,
}

impl FallbackWarnings {
    /// An empty tracker (no pair warned yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// True exactly once per `(task type, arch)` pair: the caller should
    /// emit its warning when this returns true and stay silent otherwise.
    pub fn first(&self, tt: TaskTypeId, a: ArchId) -> bool {
        self.seen.lock().expect("warn set poisoned").insert((tt, a))
    }

    /// Number of distinct pairs warned about so far.
    pub fn count(&self) -> usize {
        self.seen.lock().expect("warn set poisoned").len()
    }
}

/// A read-only view combining graph, platform and model.
#[derive(Clone, Copy)]
pub struct Estimator<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    model: &'a dyn PerfModel,
}

impl<'a> Estimator<'a> {
    /// Bind the three parts together.
    pub fn new(graph: &'a TaskGraph, platform: &'a Platform, model: &'a dyn PerfModel) -> Self {
        Self {
            graph,
            platform,
            model,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'a TaskGraph {
        self.graph
    }

    /// The underlying platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    fn query(&self, t: TaskId, a: ArchId) -> EstimateQuery<'a> {
        let task = self.graph.task(t);
        EstimateQuery {
            task,
            ttype: self.graph.task_type(task.ttype),
            arch: self.platform.arch(a),
            footprint: self.graph.footprint(t),
        }
    }

    /// `δ(t, a)` in µs on arch `a`, `None` when `a` cannot run `t`.
    /// The arch's relative speed factor is applied here.
    pub fn delta(&self, t: TaskId, a: ArchId) -> Option<f64> {
        let arch = self.platform.arch(a);
        self.model
            .estimate(&self.query(t, a))
            .map(|base| base / arch.speed)
    }

    /// Can arch `a` execute `t` at all?
    pub fn can_exec(&self, t: TaskId, a: ArchId) -> bool {
        self.delta(t, a).is_some()
    }

    /// Can *some* worker execute `t`? (Sanity check for generators.)
    pub fn executable(&self, t: TaskId) -> bool {
        self.platform
            .archs()
            .iter()
            .any(|arch| self.platform.has_workers(arch.id) && self.can_exec(t, arch.id))
    }

    /// All (arch, δ) pairs able to run `t`, fastest first. Only archs with
    /// at least one worker are considered (Algorithm 1's
    /// `get_worker_count(a) > 0` guard). Ties break on arch id for
    /// determinism.
    pub fn archs_by_delta(&self, t: TaskId) -> Vec<(ArchId, f64)> {
        let mut v = Vec::new();
        self.archs_by_delta_into(t, &mut v);
        v
    }

    /// Like [`Self::archs_by_delta`], filling a caller-provided buffer so
    /// per-push scheduler hot paths can reuse one allocation.
    pub fn archs_by_delta_into(&self, t: TaskId, out: &mut Vec<(ArchId, f64)>) {
        out.clear();
        out.extend(
            self.platform
                .archs()
                .iter()
                .filter(|arch| self.platform.has_workers(arch.id))
                .filter_map(|arch| self.delta(t, arch.id).map(|d| (arch.id, d))),
        );
        // Unstable sort never allocates; the comparator is total on finite
        // deltas (arch-id tie-break), so the order is still deterministic.
        out.sort_unstable_by(|x, y| x.1.total_cmp(&y.1).then(x.0.cmp(&y.0)));
    }

    /// The bound model's [`PerfModel::version`] — changes whenever
    /// estimates may have changed (history feedback).
    pub fn model_version(&self) -> u64 {
        self.model.version()
    }

    /// The fastest arch for `t` (the paper's `normalized_speedup(t,a)==1`
    /// arch), if any arch can run it.
    pub fn best_arch(&self, t: TaskId) -> Option<ArchId> {
        self.archs_by_delta(t).first().map(|&(a, _)| a)
    }

    /// δ on the fastest arch.
    pub fn best_delta(&self, t: TaskId) -> Option<f64> {
        self.archs_by_delta(t).first().map(|&(_, d)| d)
    }

    /// Like [`Self::delta`], but never silently zero: when the model has
    /// no entry for `(t, a)` the estimate falls back to the mean δ of
    /// other tasks the model *can* estimate on `a` (the arch-class mean),
    /// and to [`UNCALIBRATED_DELTA_US`] when the model knows nothing
    /// about the arch at all. Engines use this for load-table accounting,
    /// where recording 0 would corrupt Dmdas/MultiPrio busy-until tables.
    pub fn delta_or_mean(&self, t: TaskId, a: ArchId) -> DeltaEstimate {
        if let Some(d) = self.delta(t, a) {
            return DeltaEstimate::Exact(d);
        }
        // Arch-class mean over a bounded sample of the other tasks.
        const SCAN_CAP: usize = 1024;
        const SAMPLE_CAP: usize = 64;
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..self.graph.task_count().min(SCAN_CAP) {
            let other = TaskId::from_index(i);
            if other == t {
                continue;
            }
            if let Some(d) = self.delta(other, a) {
                sum += d;
                n += 1;
                if n >= SAMPLE_CAP {
                    break;
                }
            }
        }
        if n > 0 {
            DeltaEstimate::ArchMean(sum / n as f64)
        } else {
            DeltaEstimate::Uncalibrated(UNCALIBRATED_DELTA_US)
        }
    }

    /// Record a measured execution time (feeds history-based models).
    pub fn record(&self, t: TaskId, a: ArchId, measured_us: f64) {
        // Store reference-unit time so history stays speed-normalized.
        let arch = self.platform.arch(a);
        self.model
            .record(&self.query(t, a), measured_us * arch.speed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{TableModel, TimeFn};
    use mp_dag::access::AccessMode;
    use mp_platform::presets::simple;
    use mp_platform::types::ArchClass;

    fn fixture() -> (TaskGraph, TableModel) {
        let mut g = TaskGraph::new();
        let both = g.register_type("BOTH", true, true);
        let cpu_only = g.register_type("CPUONLY", true, false);
        let d = g.add_data(1024, "d");
        g.add_task(both, vec![(d, AccessMode::ReadWrite)], 1e6, "t0");
        g.add_task(cpu_only, vec![(d, AccessMode::Read)], 1e6, "t1");
        let m = TableModel::builder()
            .set("BOTH", ArchClass::Cpu, TimeFn::Const(100.0))
            .set("BOTH", ArchClass::Gpu, TimeFn::Const(10.0))
            .set("CPUONLY", ArchClass::Cpu, TimeFn::Const(50.0))
            .build();
        (g, m)
    }

    #[test]
    fn best_arch_is_gpu_for_fast_kernel() {
        let (g, m) = fixture();
        let p = simple(2, 1);
        let est = Estimator::new(&g, &p, &m);
        let t0 = TaskId(0);
        let gpu = p.mem_node(mp_platform::types::MemNodeId(1)).arch;
        assert_eq!(est.best_arch(t0), Some(gpu));
        assert_eq!(est.best_delta(t0), Some(10.0));
        assert_eq!(est.delta(t0, mp_platform::types::ArchId(0)), Some(100.0));
    }

    #[test]
    fn cpu_only_kernel_has_single_arch() {
        let (g, m) = fixture();
        let p = simple(2, 1);
        let est = Estimator::new(&g, &p, &m);
        let t1 = TaskId(1);
        assert_eq!(est.archs_by_delta(t1).len(), 1);
        assert_eq!(est.best_arch(t1), Some(mp_platform::types::ArchId(0)));
        assert!(!est.can_exec(t1, mp_platform::types::ArchId(1)));
    }

    #[test]
    fn speed_factor_scales_delta() {
        let (g, m) = fixture();
        // amd-like: half-speed CPUs.
        let p = mp_platform::presets::hetero_node(
            "half-cpu",
            3,
            0.5,
            1,
            1.0,
            1 << 30,
            1,
            mp_platform::link::Link::pcie_gen3(),
        );
        let est = Estimator::new(&g, &p, &m);
        // Base CPU time 100 µs, speed 0.5 => 200 µs.
        assert_eq!(
            est.delta(TaskId(0), mp_platform::types::ArchId(0)),
            Some(200.0)
        );
    }

    #[test]
    fn fallback_warnings_fire_once_per_type_arch_pair() {
        let w = FallbackWarnings::new();
        let (tt0, tt1) = (TaskTypeId(0), TaskTypeId(1));
        let (a0, a1) = (ArchId(0), ArchId(1));
        assert!(w.first(tt0, a0), "first sighting warns");
        assert!(!w.first(tt0, a0), "repeat stays silent");
        assert!(w.first(tt0, a1), "same type, other arch warns again");
        assert!(w.first(tt1, a0), "other type warns again");
        assert!(!w.first(tt0, a1));
        assert!(!w.first(tt1, a0));
        assert_eq!(w.count(), 3);
    }

    #[test]
    fn executable_requires_workers() {
        let (g, m) = fixture();
        let p = mp_platform::presets::homogeneous(2);
        let est = Estimator::new(&g, &p, &m);
        assert!(est.executable(TaskId(0)));
        // GPU-only task on a CPU-only platform would not be executable;
        // both fixture tasks have CPU impls so both are executable here.
        assert!(est.executable(TaskId(1)));
    }
}
