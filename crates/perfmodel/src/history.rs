//! History-based online calibration, mirroring StarPU's behaviour
//! (Augonnet et al. \[21\] in the paper): per (kernel, arch class, size
//! bucket) running averages of measured execution times, with a fallback
//! base model until enough samples exist.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use mp_platform::types::ArchClass;

use crate::model::{EstimateQuery, PerfModel};

/// Welford running mean/variance.
#[derive(Clone, Copy, Debug, Default)]
struct Running {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Running {
    fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// One calibration bucket is keyed by (arch class, kernel name,
/// log2-bucketed task footprint) — tasks of similar size share a bucket,
/// as StarPU keys history entries by data footprint hash. The key is
/// spread over three map levels (class array → name map → bucket map) so
/// the read path can look the name up by `&str` without cloning it; only
/// `record` (cold path) ever allocates a key.
type Buckets = [HashMap<String, HashMap<u32, Running>>; 2];

fn class_idx(class: ArchClass) -> usize {
    match class {
        ArchClass::Cpu => 0,
        ArchClass::Gpu => 1,
    }
}

fn size_bucket(footprint: u64, flops: f64) -> u32 {
    // Combine both magnitudes so kernels whose cost is flop-driven and
    // kernels whose cost is byte-driven both bucket sensibly.
    let f = (flops.max(1.0)).log2() as u32;
    let b = 64 - footprint.max(1).leading_zeros();
    f.wrapping_mul(67).wrapping_add(b)
}

/// An online model: measured times override the base estimate once a
/// bucket has at least `min_samples` observations.
pub struct HistoryModel<B> {
    base: B,
    min_samples: u64,
    buckets: RwLock<Buckets>,
    version: AtomicU64,
}

impl<B: PerfModel> HistoryModel<B> {
    /// Wrap `base`; history wins after `min_samples` measurements.
    pub fn new(base: B, min_samples: u64) -> Self {
        assert!(min_samples >= 1);
        Self {
            base,
            min_samples,
            buckets: RwLock::new(Buckets::default()),
            version: AtomicU64::new(0),
        }
    }

    /// Number of calibration buckets currently populated.
    pub fn bucket_count(&self) -> usize {
        let buckets = self.buckets.read().expect("history lock poisoned");
        buckets
            .iter()
            .flat_map(|per_class| per_class.values())
            .map(|per_name| per_name.len())
            .sum()
    }

    /// The calibrated mean/σ for a query, if its bucket is warm.
    pub fn calibrated(&self, q: &EstimateQuery<'_>) -> Option<(f64, f64)> {
        let bucket = size_bucket(q.footprint, q.task.flops);
        let buckets = self.buckets.read().expect("history lock poisoned");
        buckets[class_idx(q.arch.class)]
            .get(q.ttype.name.as_str())
            .and_then(|per_name| per_name.get(&bucket))
            .filter(|r| r.n >= self.min_samples)
            .map(|r| (r.mean, r.variance().sqrt()))
    }
}

impl<B: PerfModel> PerfModel for HistoryModel<B> {
    fn estimate(&self, q: &EstimateQuery<'_>) -> Option<f64> {
        if !q.has_impl() {
            return None;
        }
        if let Some((mean, _)) = self.calibrated(q) {
            return Some(mean);
        }
        self.base.estimate(q)
    }

    fn record(&self, q: &EstimateQuery<'_>, measured_us: f64) {
        let bucket = size_bucket(q.footprint, q.task.flops);
        let mut buckets = self.buckets.write().expect("history lock poisoned");
        let per_name = &mut buckets[class_idx(q.arch.class)];
        // `entry` needs an owned key; probe first so the steady state
        // (name already present) stays allocation-free.
        if !per_name.contains_key(q.ttype.name.as_str()) {
            per_name.insert(q.ttype.name.clone(), HashMap::new());
        }
        let per_bucket = per_name
            .get_mut(q.ttype.name.as_str())
            .expect("present: probed or just inserted");
        per_bucket.entry(bucket).or_default().push(measured_us);
        self.version.fetch_add(1, Ordering::AcqRel);
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::UniformModel;
    use mp_dag::ids::{TaskId, TaskTypeId};
    use mp_dag::task::{Task, TaskType};
    use mp_platform::types::{Arch, ArchClass, ArchId};

    fn fixture() -> (Task, TaskType, Arch) {
        (
            Task {
                id: TaskId(0),
                ttype: TaskTypeId(0),
                accesses: vec![],
                user_priority: 0,
                flops: 1000.0,
                label: String::new(),
            },
            TaskType {
                id: TaskTypeId(0),
                name: "K".into(),
                cpu_impl: true,
                gpu_impl: true,
            },
            Arch {
                id: ArchId(0),
                class: ArchClass::Cpu,
                name: "cpu".into(),
                speed: 1.0,
            },
        )
    }

    #[test]
    fn falls_back_to_base_when_cold() {
        let (task, tt, arch) = fixture();
        let m = HistoryModel::new(UniformModel { time_us: 3.0 }, 2);
        let q = EstimateQuery {
            task: &task,
            ttype: &tt,
            arch: &arch,
            footprint: 64,
        };
        assert_eq!(m.estimate(&q), Some(3.0));
    }

    #[test]
    fn history_takes_over_after_min_samples() {
        let (task, tt, arch) = fixture();
        let m = HistoryModel::new(UniformModel { time_us: 3.0 }, 2);
        let q = EstimateQuery {
            task: &task,
            ttype: &tt,
            arch: &arch,
            footprint: 64,
        };
        m.record(&q, 10.0);
        assert_eq!(m.estimate(&q), Some(3.0), "one sample is not enough");
        m.record(&q, 20.0);
        assert_eq!(m.estimate(&q), Some(15.0), "mean of 10 and 20");
    }

    #[test]
    fn buckets_isolate_kernels_and_sizes() {
        let (task, tt, arch) = fixture();
        let m = HistoryModel::new(UniformModel { time_us: 3.0 }, 1);
        let q_small = EstimateQuery {
            task: &task,
            ttype: &tt,
            arch: &arch,
            footprint: 64,
        };
        m.record(&q_small, 50.0);
        // Different footprint magnitude => different bucket => base model.
        let q_big = EstimateQuery {
            task: &task,
            ttype: &tt,
            arch: &arch,
            footprint: 1 << 26,
        };
        assert_eq!(m.estimate(&q_big), Some(3.0));
        assert_eq!(m.estimate(&q_small), Some(50.0));
        assert_eq!(m.bucket_count(), 1);
    }

    #[test]
    fn sigma_reported() {
        let (task, tt, arch) = fixture();
        let m = HistoryModel::new(UniformModel { time_us: 3.0 }, 1);
        let q = EstimateQuery {
            task: &task,
            ttype: &tt,
            arch: &arch,
            footprint: 64,
        };
        for x in [10.0, 12.0, 14.0] {
            m.record(&q, x);
        }
        let (mean, sigma) = m.calibrated(&q).unwrap();
        assert!((mean - 12.0).abs() < 1e-9);
        assert!((sigma - 2.0).abs() < 1e-9);
    }
}
