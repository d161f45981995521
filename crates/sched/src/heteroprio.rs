//! HeteroPrio (Agullo et al. \[3\]) with automatic priorities (Flint et
//! al. \[9\]), paper Sec. II.
//!
//! Affinity-based: ready tasks are binned into *buckets, one per task
//! type*. Each architecture ranks the buckets by the type's measured
//! GPU-vs-CPU speedup: GPU workers serve buckets in *descending* speedup
//! order (take what they accelerate most), CPU workers in *ascending*
//! order (take what loses least by staying on the host). This is the
//! "priority per type of task" design whose per-type granularity the
//! paper identifies as MultiPrio's motivating limitation.
//!
//! The automatic variant computes the per-type speedups online from the
//! performance model as tasks are pushed (a running mean), so no user
//! input is required — matching how the paper runs it.

use std::collections::VecDeque;

use mp_dag::ids::{TaskId, TaskTypeId};
use mp_platform::types::{ArchClass, WorkerId};

use crate::api::{SchedView, Scheduler};

#[derive(Debug, Default)]
struct Bucket {
    queue: VecDeque<TaskId>,
    /// Running mean of δ_cpu/δ_gpu for tasks of this type; `f64::INFINITY`
    /// for GPU-only types, `0.0` for CPU-only ones.
    speedup_sum: f64,
    speedup_n: u64,
    gpu_only: bool,
    cpu_only: bool,
}

impl Bucket {
    fn speedup(&self) -> f64 {
        if self.gpu_only {
            f64::INFINITY
        } else if self.cpu_only || self.speedup_n == 0 {
            0.0
        } else {
            self.speedup_sum / self.speedup_n as f64
        }
    }
}

/// Bucket-per-type scheduler with per-arch bucket orderings.
#[derive(Debug, Default)]
pub struct HeteroPrioScheduler {
    buckets: Vec<Bucket>,
    pending: usize,
    /// Cached bucket orders per class, recomputed only when a push moved
    /// some bucket's speedup estimate (`orders_dirty`).
    cpu_order: Vec<usize>,
    gpu_order: Vec<usize>,
    orders_dirty: bool,
    /// Quarantined workers (worker failure): the backlog guard must not
    /// reserve work for dead "favored" workers.
    disabled: Vec<bool>,
    /// Push-path scratch for `archs_by_delta_into`.
    archs: Vec<(mp_platform::types::ArchId, f64)>,
}

impl HeteroPrioScheduler {
    /// Stealing threshold: a worker leaves a bucket favoring the other
    /// class by at least this factor to the favored workers unless the
    /// bucket is backlogged (see `pop`).
    const STEAL_SLOWDOWN_LIMIT: f64 = 4.0;

    /// New empty scheduler; priorities are learned automatically.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, tt: TaskTypeId) {
        if self.buckets.len() <= tt.index() {
            self.buckets.resize_with(tt.index() + 1, Bucket::default);
        }
    }

    /// Recompute the cached bucket orders: GPUs scan descending speedup,
    /// CPUs ascending. Ties break on bucket index, so the comparators are
    /// total and `sort_unstable_by` (which never allocates) is
    /// deterministic.
    fn refresh_orders(&mut self) {
        let buckets = &self.buckets;
        self.gpu_order.clear();
        self.gpu_order.extend(0..buckets.len());
        self.gpu_order.sort_unstable_by(|&a, &b| {
            buckets[b]
                .speedup()
                .total_cmp(&buckets[a].speedup())
                .then(a.cmp(&b))
        });
        self.cpu_order.clear();
        self.cpu_order.extend(0..buckets.len());
        self.cpu_order.sort_unstable_by(|&a, &b| {
            buckets[a]
                .speedup()
                .total_cmp(&buckets[b].speedup())
                .then(a.cmp(&b))
        });
        self.orders_dirty = false;
    }
}

impl Scheduler for HeteroPrioScheduler {
    fn name(&self) -> &'static str {
        "heteroprio"
    }

    fn push(&mut self, t: TaskId, _releaser: Option<WorkerId>, view: &SchedView<'_>) {
        let tt = view.graph().task(t).ttype;
        self.ensure(tt);
        // Update the type's affinity estimate from this task's deltas.
        let mut archs = std::mem::take(&mut self.archs);
        view.est.archs_by_delta_into(t, &mut archs);
        let bucket = &mut self.buckets[tt.index()];
        let cpu = archs
            .iter()
            .find(|&&(a, _)| view.platform().arch(a).class == ArchClass::Cpu)
            .map(|&(_, d)| d);
        let gpu = archs
            .iter()
            .find(|&&(a, _)| view.platform().arch(a).class == ArchClass::Gpu)
            .map(|&(_, d)| d);
        match (cpu, gpu) {
            (Some(c), Some(g)) => {
                bucket.speedup_sum += c / g;
                bucket.speedup_n += 1;
            }
            (None, Some(_)) => bucket.gpu_only = true,
            (Some(_), None) => bucket.cpu_only = true,
            (None, None) => panic!("task {t:?} executable nowhere"),
        }
        bucket.queue.push_back(t);
        self.archs = archs;
        self.orders_dirty = true;
        self.pending += 1;
    }

    fn pop(&mut self, w: WorkerId, view: &SchedView<'_>) -> Option<TaskId> {
        let platform = view.platform();
        let class = platform.arch(platform.worker(w).arch).class;
        if self.orders_dirty {
            self.refresh_orders();
        }
        // *Alive* worker counts per class, for the backlog guard: a dead
        // favored worker can no longer take the work it was owed.
        let disabled = &self.disabled;
        let workers_of = |c: ArchClass| {
            platform
                .workers()
                .iter()
                .enumerate()
                .filter(|&(i, x)| {
                    platform.arch(x.arch).class == c && !disabled.get(i).copied().unwrap_or(false)
                })
                .count()
        };
        for k in 0..self.buckets.len() {
            let b = match class {
                ArchClass::Gpu => self.gpu_order[k],
                ArchClass::Cpu => self.cpu_order[k],
            };
            // Buckets are homogeneous in type, so executability is a
            // per-bucket property: check the front only.
            let Some(&front) = self.buckets[b].queue.front() else {
                continue;
            };
            if !view.worker_can_exec(front, w) {
                continue;
            }
            // Backlog guard (HeteroPrio's slow-worker protection, [3, 20]):
            // a worker only *steals* from a bucket strongly favoring the
            // other class when that bucket holds more work than the
            // favored workers can start soon — otherwise a slow worker
            // stretches the makespan with a task the fast ones would have
            // taken momentarily.
            let speedup = self.buckets[b].speedup();
            let (favored, ratio) = if speedup >= 1.0 {
                (ArchClass::Gpu, speedup)
            } else {
                (ArchClass::Cpu, 1.0 / speedup.max(1e-12))
            };
            if favored != class && ratio >= Self::STEAL_SLOWDOWN_LIMIT {
                let fav_workers = workers_of(favored);
                if fav_workers > 0 && self.buckets[b].queue.len() <= 2 * fav_workers {
                    continue;
                }
            }
            self.pending -= 1;
            return self.buckets[b].queue.pop_front();
        }
        None
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn worker_disabled(&mut self, w: WorkerId, view: &SchedView<'_>) {
        let n = view.platform().worker_count();
        if self.disabled.len() < n {
            self.disabled.resize(n, false);
        }
        self.disabled[w.index()] = true;
        // Buckets are shared across workers — nothing to drain.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;

    #[test]
    fn gpu_takes_accelerated_cpu_takes_flat() {
        let mut fx = Fixture::two_arch();
        // Add a second two-impl kernel with no GPU advantage.
        let flat = fx.graph.register_type("FLAT", true, true);
        fx.model = mp_perfmodel::TableModel::builder()
            .set(
                "BOTH",
                mp_platform::types::ArchClass::Cpu,
                mp_perfmodel::TimeFn::Const(100.0),
            )
            .set(
                "BOTH",
                mp_platform::types::ArchClass::Gpu,
                mp_perfmodel::TimeFn::Const(10.0),
            )
            .set(
                "FLAT",
                mp_platform::types::ArchClass::Cpu,
                mp_perfmodel::TimeFn::Const(20.0),
            )
            .set(
                "FLAT",
                mp_platform::types::ArchClass::Gpu,
                mp_perfmodel::TimeFn::Const(20.0),
            )
            .build();
        let t_acc = fx.add_task(fx.both, 64, "acc");
        let t_flat = fx.add_task(flat, 64, "flat");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = HeteroPrioScheduler::new();
        s.push(t_acc, None, &view);
        s.push(t_flat, None, &view);
        assert_eq!(s.pop(g0, &view), Some(t_acc), "gpu prefers the 10x bucket");
        assert_eq!(s.pop(c0, &view), Some(t_flat), "cpu prefers the 1x bucket");
    }

    #[test]
    fn single_impl_types_pin_to_their_arch_order() {
        let mut fx = Fixture::two_arch();
        let tc = fx.add_task(fx.cpu_only, 64, "c");
        let tg = fx.add_task(fx.gpu_only, 64, "g");
        let tb = fx.add_task(fx.both, 64, "b");
        let view = fx.view();
        let (c0, _, g0) = fx.workers();
        let mut s = HeteroPrioScheduler::new();
        for t in [tc, tg, tb] {
            s.push(t, None, &view);
        }
        // CPU order: cpu-only (0) < both (10) < gpu-only (inf).
        assert_eq!(s.pop(c0, &view), Some(tc));
        // GPU order: gpu-only first.
        assert_eq!(s.pop(g0, &view), Some(tg));
        // Both workers can fall back to the shared bucket.
        assert_eq!(s.pop(g0, &view), Some(tb));
        assert_eq!(s.pop(c0, &view), None);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn backlog_guard_holds_then_releases_cpu_stealing() {
        let mut fx = Fixture::two_arch();
        // BOTH is 10× faster on the single GPU worker: a lone task is
        // reserved for it (the guard), but a backlog of more than
        // 2 × |gpu workers| opens the bucket to CPU stealing.
        let lone = fx.add_task(fx.both, 64, "lone");
        let view = fx.view();
        let (c0, ..) = fx.workers();
        let mut s = HeteroPrioScheduler::new();
        s.push(lone, None, &view);
        assert_eq!(s.pop(c0, &view), None, "guard protects a short queue");
        let more: Vec<_> = (0..3)
            .map(|i| fx.add_task(fx.both, 64, &format!("m{i}")))
            .collect();
        let view = fx.view();
        let mut s = HeteroPrioScheduler::new();
        s.push(lone, None, &view);
        for &t in &more {
            s.push(t, None, &view);
        }
        // 4 tasks > 2 × 1 gpu worker: the CPU may now help.
        assert_eq!(s.pop(c0, &view), Some(lone));
    }
}
