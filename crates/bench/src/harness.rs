//! Scheduler factory and single-run helper shared by all experiments.

use mp_dag::TaskGraph;
use mp_perfmodel::PerfModel;
use mp_platform::types::Platform;
use mp_sched::{
    DequeModelScheduler, DmVariant, FifoScheduler, HeteroPrioScheduler, LwsScheduler,
    RandomScheduler, Scheduler,
};
use mp_sim::{simulate, SimConfig, SimResult};
use multiprio::{GainTracker, MultiPrioConfig, MultiPrioScheduler};

/// Every constructible scheduler name.
pub const SCHEDULER_NAMES: [&str; 14] = [
    "multiprio",
    "multiprio-reference",
    "multiprio-noevict",
    "multiprio-nolocality",
    "multiprio-nocrit",
    "multiprio-brwtotal",
    "multiprio-energy",
    "dmdas",
    "dmda",
    "dm",
    "heteroprio",
    "lws",
    "fifo",
    "prio",
];

/// The configuration of each MultiPrio variant, by scheduler name.
fn multiprio_config(name: &str) -> Option<MultiPrioConfig> {
    Some(match name {
        "multiprio" => MultiPrioConfig::default(),
        "multiprio-noevict" => MultiPrioConfig::without_eviction(),
        "multiprio-nolocality" => MultiPrioConfig::without_locality(),
        "multiprio-nocrit" => MultiPrioConfig::without_criticality(),
        "multiprio-brwtotal" => MultiPrioConfig::with_total_brw(),
        "multiprio-energy" => MultiPrioConfig::energy_aware(),
        _ => return None,
    })
}

/// Build a scheduler by name (panics on unknown names — the caller is
/// always one of our own tables).
pub fn make_scheduler(name: &str) -> Box<dyn Scheduler> {
    if let Some(cfg) = multiprio_config(name) {
        return Box::new(MultiPrioScheduler::new(cfg));
    }
    match name {
        "multiprio-reference" => Box::new(multiprio::ReferenceScheduler::with_defaults()),
        "dmdas" => Box::new(DequeModelScheduler::new(DmVariant::Dmdas)),
        "dmda" => Box::new(DequeModelScheduler::new(DmVariant::Dmda)),
        "dm" => Box::new(DequeModelScheduler::new(DmVariant::Dm)),
        "heteroprio" => Box::new(HeteroPrioScheduler::new()),
        "lws" => Box::new(LwsScheduler::new()),
        "prio" => Box::new(mp_sched::EagerPrioScheduler::new()),
        "fifo" => Box::new(FifoScheduler::new()),
        "random" => Box::new(RandomScheduler::new(0xbad5eed)),
        other => panic!("unknown scheduler '{other}'"),
    }
}

/// A factory building fresh instances of the named scheduler, for the
/// sharded runtime front-end (`ShardedAdapter`). MultiPrio
/// variants share one [`GainTracker`] across every instance the
/// factory builds, so per-shard copies agree on the running-max `hd(a)`
/// term of the gain score (Eq. 1) exactly as a single instance would.
pub fn make_scheduler_factory(name: &str) -> Box<dyn Fn() -> Box<dyn Scheduler> + Send + Sync> {
    match multiprio_config(name) {
        Some(cfg) => {
            let gain = std::sync::Arc::new(GainTracker::new());
            Box::new(move || Box::new(MultiPrioScheduler::with_shared_gain(cfg, gain.clone())))
        }
        None => {
            let name = name.to_string();
            Box::new(move || make_scheduler(&name))
        }
    }
}

/// Simulate `graph` on `platform` under the named scheduler, without
/// execution-time noise (regular workloads: the history model predicts
/// dense tile kernels almost exactly).
pub fn run_once(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &str,
    seed: u64,
) -> SimResult {
    run_noisy(graph, platform, model, sched, seed, 0.0)
}

/// Simulate with log-normal execution-time noise of coefficient of
/// variation `cv`. Irregular workloads (FMM particle groups, sparse
/// fronts) are mispredicted by history-based models in practice — the
/// paper's dynamic-vs-static argument rests on it — so the Fig. 6 and
/// Fig. 8 experiments run with a calibrated `cv` (see EXPERIMENTS.md).
pub fn run_noisy(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &str,
    seed: u64,
    cv: f64,
) -> SimResult {
    let mut s = make_scheduler(sched);
    simulate(
        graph,
        platform,
        model,
        s.as_mut(),
        SimConfig::seeded(seed).with_noise(cv),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_apps::random::{random_dag, random_model, RandomDagConfig};
    use mp_platform::presets::simple;

    #[test]
    fn factory_builds_every_name() {
        for name in SCHEDULER_NAMES {
            let s = make_scheduler(name);
            assert!(!s.name().is_empty());
        }
    }

    #[test]
    fn shard_factory_builds_every_name() {
        for name in SCHEDULER_NAMES {
            let f = make_scheduler_factory(name);
            let a = f();
            let b = f();
            assert_eq!(a.name(), b.name());
            assert!(!a.name().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn factory_rejects_unknown() {
        make_scheduler("heft-galactic");
    }

    #[test]
    fn run_once_completes() {
        let g = random_dag(RandomDagConfig {
            layers: 4,
            width: 6,
            ..Default::default()
        });
        let m = random_model();
        let p = simple(2, 1);
        for name in ["multiprio", "dmdas", "heteroprio"] {
            let r = run_once(&g, &p, &m, name, 1);
            assert_eq!(r.stats.tasks, g.task_count(), "{name}");
        }
    }
}
