//! The gain heuristic (paper Eq. 1) — per-(task, arch) affinity scores.
//!
//! For a task `t` and architecture type `a`:
//!
//! ```text
//!            ⎧ 1                                        only one arch can run t
//! gain(t,a) =⎨ (δ(t,a₂ₙd) − δ(t,a) + hd(a)) / (2·hd(a))  a is the fastest arch
//!            ⎩ (δ(t,a₁ₛₜ) − δ(t,a) + hd(a)) / (2·hd(a))  otherwise
//! ```
//!
//! where `hd(a)` is the *highest execution-time difference recorded so
//! far* on arch `a` — a running maximum updated as tasks are pushed, which
//! keeps all scores in [0, 1] (Sec. V-A; worked example in Table II).

use std::sync::atomic::{AtomicU64, Ordering};

use mp_platform::types::ArchId;

/// Architectures a [`GainTracker`] can hold, as many as the memory nodes
/// MultiPrio's bitmasks allow: every architecture a task can be queued
/// for owns at least one memory node.
const MAX_ARCHS: usize = 64;

/// The per-arch `hd` updates implied by observing one task's fastest-first
/// candidate list.
fn hd_updates(archs: &[(ArchId, f64)]) -> impl Iterator<Item = (ArchId, f64)> + '_ {
    let d_best = archs.first().map(|&(_, d)| d).unwrap_or(0.0);
    let d_2nd = archs.get(1).map(|&(_, d)| d).unwrap_or(0.0);
    archs.iter().enumerate().map(move |(i, &(a, d))| {
        // For the fastest arch the relevant difference is vs the
        // second-fastest; for the rest it is vs the fastest.
        let diff = if i == 0 { d_2nd - d } else { d_best - d };
        (a, diff.abs())
    })
}

/// Tracks `hd(a)` per architecture and evaluates the gain formula.
///
/// The formula's only mutable state is the per-arch running maximum
/// `hd(a)`, so one tracker serves a lone scheduler and every shard
/// instance of a sharded front-end alike: shards that share one (via
/// `MultiPrioScheduler::with_shared_gain`) order their heaps by the
/// *global* gain, exactly as a single instance would. The table is a
/// fixed array of atomics holding the bits of each `hd(a)`, so it takes
/// no lock: reads are relaxed loads, and an observation raises an entry
/// with `fetch_max` only when it beats the stored value (non-negative
/// f64 bit patterns sort like the floats they encode).
#[derive(Debug)]
pub struct GainTracker {
    /// `hd(a)` as f64 bits, indexed by arch.
    hd: [AtomicU64; MAX_ARCHS],
    /// Bumped whenever an observation raises some `hd(a)` — i.e.
    /// whenever previously computed gain values may have changed.
    /// Consumers key caches on this so `observe` *invalidates* instead of
    /// forcing recomputation on every push.
    epoch: AtomicU64,
}

impl Default for GainTracker {
    fn default() -> Self {
        Self {
            hd: std::array::from_fn(|_| AtomicU64::new(0f64.to_bits())),
            epoch: AtomicU64::new(0),
        }
    }
}

impl GainTracker {
    /// New tracker with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current `hd(a)` (0 until a two-arch task was observed).
    pub fn hd(&self, a: ArchId) -> f64 {
        self.hd
            .get(a.index())
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }

    /// Record a newly-ready task's execution-time estimates (`archs`
    /// sorted fastest-first, as produced by
    /// `mp_perfmodel::Estimator::archs_by_delta`). Must be called before
    /// [`Self::gain`] for the same task so the running maxima include it.
    /// Callable concurrently; panics on an arch index of 64 or more.
    pub fn observe(&self, archs: &[(ArchId, f64)]) {
        if archs.len() < 2 {
            return;
        }
        let mut raised = false;
        for (a, diff) in hd_updates(archs) {
            let cell = &self.hd[a.index()];
            if diff > f64::from_bits(cell.load(Ordering::Relaxed)) {
                cell.fetch_max(diff.to_bits(), Ordering::Relaxed);
                raised = true;
            }
        }
        if raised {
            // Release: a reader that sees the new epoch (Acquire in
            // `epoch`) also sees the raises made before it.
            self.epoch.fetch_add(1, Ordering::Release);
        }
    }

    /// The dirty epoch: changes whenever some `hd(a)` grows (see the
    /// field doc). Equal epochs guarantee equal gain values for equal
    /// inputs on one thread. Under concurrency a cache keyed on it is
    /// conservative when the epoch is read before the gains it covers: a
    /// racing observe can only make a later read newer, causing an
    /// unnecessary recomputation, never a stale hit.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Evaluate `gain(t, a)`. `archs` is the same fastest-first slice
    /// passed to [`Self::observe`]; `a` must appear in it.
    ///
    /// Degenerate case: when `hd(a) == 0` every observed task so far runs
    /// equally fast everywhere; all archs are equally good and we return
    /// the neutral 0.5.
    pub fn gain(&self, archs: &[(ArchId, f64)], a: ArchId) -> f64 {
        assert!(!archs.is_empty(), "gain of a task no arch can run");
        if archs.len() == 1 {
            // |A| = 1 for this task: the formula's first branch.
            return 1.0;
        }
        let d_a = archs
            .iter()
            .find(|&&(x, _)| x == a)
            .map(|&(_, d)| d)
            .expect("arch must be one of the task's candidates");
        let hd = self.hd(a);
        if hd == 0.0 {
            return 0.5;
        }
        let is_fastest = archs[0].0 == a;
        let reference = if is_fastest { archs[1].1 } else { archs[0].1 };
        let g = ((reference - d_a) + hd) / (2.0 * hd);
        debug_assert!((-1e-9..=1.0 + 1e-9).contains(&g), "gain {g} out of [0,1]");
        g.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A1: ArchId = ArchId(0);
    const A2: ArchId = ArchId(1);

    /// Fastest-first candidate list for a task with the given per-arch δ.
    fn cands(d1: f64, d2: f64) -> Vec<(ArchId, f64)> {
        let mut v = vec![(A1, d1), (A2, d2)];
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// The paper's Table II, verbatim: three tasks, two arch types,
    /// hd(a1) = hd(a2) = 19 after observing all three.
    #[test]
    fn table2_values() {
        let g = GainTracker::new();
        let ta = cands(1.0, 20.0); // δ(t_A, a1)=1ms, δ(t_A, a2)=20ms
        let tb = cands(5.0, 10.0);
        let tc = cands(20.0, 10.0);
        g.observe(&ta);
        g.observe(&tb);
        g.observe(&tc);
        assert_eq!(g.hd(A1), 19.0);
        assert_eq!(g.hd(A2), 19.0);

        let check = |x: f64, expect: f64| assert!((x - expect).abs() < 1e-3, "{x} != {expect}");
        check(g.gain(&ta, A1), 1.0);
        check(g.gain(&ta, A2), 0.0);
        check(g.gain(&tb, A1), 0.631);
        check(g.gain(&tb, A2), 0.368);
        check(g.gain(&tc, A1), 0.236);
        check(g.gain(&tc, A2), 0.763);
    }

    #[test]
    fn table2_priority_order_per_heap() {
        // Resulting per-arch orders from the paper's narrative:
        // a1 heap: A > B > C; a2 heap: C > B > A.
        let g = GainTracker::new();
        let (ta, tb, tc) = (cands(1.0, 20.0), cands(5.0, 10.0), cands(20.0, 10.0));
        for t in [&ta, &tb, &tc] {
            g.observe(t);
        }
        assert!(g.gain(&ta, A1) > g.gain(&tb, A1));
        assert!(g.gain(&tb, A1) > g.gain(&tc, A1));
        assert!(g.gain(&tc, A2) > g.gain(&tb, A2));
        assert!(g.gain(&tb, A2) > g.gain(&ta, A2));
    }

    #[test]
    fn single_arch_task_scores_one() {
        let g = GainTracker::new();
        assert_eq!(g.gain(&[(A1, 42.0)], A1), 1.0);
    }

    #[test]
    fn zero_hd_is_neutral() {
        let g = GainTracker::new();
        let t = cands(10.0, 10.0);
        g.observe(&t);
        assert_eq!(g.hd(A1), 0.0);
        assert_eq!(g.gain(&t, A1), 0.5);
        assert_eq!(g.gain(&t, A2), 0.5);
    }

    #[test]
    fn hd_is_a_running_max() {
        let g = GainTracker::new();
        g.observe(&cands(5.0, 10.0)); // diff 5
        assert_eq!(g.hd(A1), 5.0);
        g.observe(&cands(1.0, 3.0)); // diff 2: max stays 5
        assert_eq!(g.hd(A1), 5.0);
        g.observe(&cands(100.0, 1.0)); // diff 99
        assert_eq!(g.hd(A1), 99.0);
        assert_eq!(g.hd(A2), 99.0);
    }

    #[test]
    fn epoch_moves_only_when_some_hd_grows() {
        let g = GainTracker::new();
        g.observe(&cands(5.0, 10.0));
        let e = g.epoch();
        g.observe(&cands(1.0, 3.0)); // diff 2 < 5: nothing grows
        g.observe(&[(A1, 4.0)]); // one arch: no difference to record
        assert_eq!(g.epoch(), e);
        g.observe(&cands(1.0, 30.0));
        assert_eq!(g.epoch(), e + 1);
    }

    #[test]
    fn concurrent_observe_is_a_running_max() {
        let shared = GainTracker::new();
        std::thread::scope(|s| {
            for k in 0..4 {
                let shared = &shared;
                s.spawn(move || {
                    for i in 0..100 {
                        let d = 1.0 + (k * 100 + i) as f64;
                        shared.observe(&cands(1.0, d));
                    }
                });
            }
        });
        // Global max diff observed by any thread: 400 - 1 = 399.
        assert_eq!(shared.hd(A1), 399.0);
        assert_eq!(shared.hd(A2), 399.0);
    }

    #[test]
    fn fastest_arch_always_at_least_half() {
        // gain(fastest) = (δ2nd − δbest + hd)/(2hd) ≥ 0.5 since δ2nd ≥ δbest.
        let g = GainTracker::new();
        for (d1, d2) in [(1.0, 2.0), (3.0, 30.0), (7.0, 7.5)] {
            let c = cands(d1, d2);
            g.observe(&c);
            let best = c[0].0;
            assert!(g.gain(&c, best) >= 0.5);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Gains stay in [0,1] and the fastest arch never scores below the
        /// other arch for the same task.
        #[test]
        fn prop_gain_bounds(times in proptest::collection::vec((0.1f64..1e4, 0.1f64..1e4), 1..100)) {
            let g = GainTracker::new();
            let all: Vec<Vec<(ArchId, f64)>> = times
                .iter()
                .map(|&(d1, d2)| {
                    let mut v = vec![(ArchId(0), d1), (ArchId(1), d2)];
                    v.sort_by(|a, b| a.1.total_cmp(&b.1));
                    v
                })
                .collect();
            for c in &all {
                g.observe(c);
            }
            for c in &all {
                let g0 = g.gain(c, ArchId(0));
                let g1 = g.gain(c, ArchId(1));
                prop_assert!((0.0..=1.0).contains(&g0));
                prop_assert!((0.0..=1.0).contains(&g1));
                let fastest = c[0].0;
                let (gf, gs) = if fastest == ArchId(0) { (g0, g1) } else { (g1, g0) };
                prop_assert!(gf + 1e-12 >= gs, "fastest arch must score >= slower arch");
            }
        }
    }
}
