//! Open-loop multi-tenant serving in virtual time.
//!
//! A serving run is the simulator's one event loop fed by a stream
//! instead of a closed graph: submission `k` arrives at the `k`-th
//! instant of a deterministic [`ArrivalProcess`], and the loop links
//! what it admits into a graph that grows *while it is being executed*.
//! Only the serving policies live here:
//!
//! * each arrival stages one fork-join sub-DAG for its tenant through
//!   [`mp_dag::SubmissionStage`]; consecutive sub-DAGs of a tenant reuse
//!   the tenant's data handles, so cross-submission RAW/WAR/WAW edges
//!   resolve by data identity exactly as in the batch STF path;
//! * admission ([`AdmissionConfig`]) rejects a staged sub-DAG whole when
//!   in-flight bounds would overflow — the stage is dropped untouched,
//!   so later submissions still chain onto the last *admitted* writer;
//! * admitted tasks get their [`effective_priority`] (the tenant's
//!   weight, plus starvation aging) before commit;
//! * per-tenant accounting, latency samples and the decision fold of
//!   [`ServeStats::schedule_hash`], returned as the result's
//!   [`SimResult::serving`] section next to the closed path's trace,
//!   statistics and counters.
//!
//! Everything else — staging and transfers on the platform's memory
//! nodes, pop vetting, the cache probe and hit cascade, validation — is
//! the closed path's. Everything is a pure function of `(platform,
//! model, scheduler policy, config)`: no wall clock, no ambient RNG —
//! repeat runs are bit-identical.

use mp_cache::ResultCache;
use mp_dag::access::AccessMode;
use mp_dag::hash;
use mp_dag::ids::{DataId, TaskId, TaskTypeId};
use mp_dag::stf::StfBuilder;
use mp_perfmodel::PerfModel;
use mp_platform::types::{Platform, WorkerId};
use mp_sched::api::Scheduler;
use mp_serve::{effective_priority, AdmissionConfig, ArrivalProcess, FairnessConfig, TenantSpec};

use crate::engine::{Engine, Feed};
use crate::result::{ServeStats, TenantStats};
use crate::{SimConfig, SimError, SimResult};

/// Each arrival submits a fork-join of `1 + WIDTH + 1` tasks (root
/// writer → `WIDTH` parallel readers → join) over its tenant's handles.
const WIDTH: usize = 4;
/// Work estimate per task (feeds rate-based models).
const FLOPS: f64 = 1000.0;
/// Handle-pool slots per tenant: submission `s` of a tenant uses slot
/// `s % POOL`, so up to `POOL` of its sub-DAGs can be in flight
/// concurrently while every `POOL`-th submission still chains on its
/// predecessor by data identity (RAW/WAR/WAW on the slot's handles).
const POOL: usize = 4;
/// Seed of every deterministic draw (arrival gaps and mutations).
const SEED: u64 = 0x5EED_5E12_7E00_0001;

/// Full configuration of one serving run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The tenants submitting work (round-robin over arrivals).
    pub tenants: Vec<TenantSpec>,
    /// Priority-weighting fairness layer.
    pub fairness: FairnessConfig,
    /// Admission bounds.
    pub admission: AdmissionConfig,
    /// Open-loop arrival process.
    pub arrivals: ArrivalProcess,
    /// Total sub-DAG submissions to inject.
    pub submissions: usize,
    /// Fraction of submissions whose flops are deterministically
    /// perturbed (drawn per arrival index). Flops are part of the cache
    /// fingerprint, so a mutated submission's whole sub-DAG re-executes
    /// under warm serving — `0.0` (the default) streams bit-identical
    /// resubmissions.
    pub mutation_frac: f64,
}

impl ServeConfig {
    /// A run of `submissions` sub-DAGs from `tenants` under `arrivals`,
    /// with default fairness and admission knobs and no mutation.
    pub fn new(tenants: Vec<TenantSpec>, arrivals: ArrivalProcess, submissions: usize) -> Self {
        Self {
            tenants,
            fairness: FairnessConfig::default(),
            admission: AdmissionConfig::default(),
            arrivals,
            submissions,
            mutation_frac: 0.0,
        }
    }

    /// Can this configuration run? An empty stream needs no tenants; a
    /// non-empty one needs at least one, and an arrival process that
    /// can generate its instants.
    fn check(&self) -> Result<(), SimError> {
        if self.submissions > 0 && self.tenants.is_empty() {
            let reason = format!("{} submission(s) but no tenant", self.submissions);
            return Err(SimError::BadServeConfig { reason });
        }
        self.arrivals
            .check()
            .map_err(|reason| SimError::BadServeConfig { reason })
    }
}

/// The persistent handles one sub-DAG instance of a tenant writes
/// through.
struct SlotHandles {
    root: DataId,
    outs: Vec<DataId>,
    join: DataId,
}

/// The serving side of a run: the fork-join generator over tenant slots,
/// admission and aging, and the ledgers the engine updates at every
/// decision and completion.
pub(crate) struct Stream<'c> {
    cfg: &'c ServeConfig,
    ttype: TaskTypeId,
    /// `slots[tenant][slot]`.
    slots: Vec<Vec<SlotHandles>>,
    /// Arrivals seen per tenant (admitted or not) — drives the slot
    /// rotation deterministically.
    arrivals_seen: Vec<u64>,
    /// Tenant of every linked task, by task index.
    tenant_of: Vec<u32>,
    admitted: u64,
    tenant_in_flight: Vec<usize>,
    /// Virtual instant of the tenant's last progress mark (completion,
    /// or admission while its pipeline was empty) — the starvation-aging
    /// reference point.
    last_progress: Vec<f64>,
    tstats: Vec<TenantStats>,
    samples: Vec<u64>,
    decisions: u64,
    schedule_hash: u64,
}

impl<'c> Stream<'c> {
    /// The stream of `cfg`, and the builder of the graph it grows with
    /// every tenant slot's handles registered up front.
    fn new(cfg: &'c ServeConfig) -> (Self, StfBuilder) {
        let mut stf = StfBuilder::new();
        let g = stf.graph_mut();
        let ttype = g.register_type("SRV", true, true);
        let slots = cfg
            .tenants
            .iter()
            .map(|t| {
                (0..POOL)
                    .map(|s| SlotHandles {
                        root: g.add_data(1024, format!("{}.{s}.root", t.name)),
                        outs: (0..WIDTH)
                            .map(|i| g.add_data(1024, format!("{}.{s}.o{i}", t.name)))
                            .collect(),
                        join: g.add_data(1024, format!("{}.{s}.join", t.name)),
                    })
                    .collect()
            })
            .collect();
        let nt = cfg.tenants.len();
        let tstats = cfg
            .tenants
            .iter()
            .map(|t| TenantStats {
                name: t.name.clone(),
                weight: t.weight,
                ..TenantStats::default()
            })
            .collect();
        let stream = Self {
            cfg,
            ttype,
            slots,
            arrivals_seen: vec![0; nt],
            tenant_of: Vec::new(),
            admitted: 0,
            tenant_in_flight: vec![0; nt],
            last_progress: vec![0.0; nt],
            tstats,
            samples: Vec::new(),
            decisions: 0,
            schedule_hash: hash::FNV_OFFSET,
        };
        (stream, stf)
    }

    /// Arrival `k` at `now`, with `completed` tasks done so far: decide
    /// admission and commit the tenant's sub-DAG with effective
    /// priorities. The engine links and releases what this adds.
    pub(crate) fn arrive(&mut self, stf: &mut StfBuilder, k: usize, now: f64, completed: usize) {
        let ti = k % self.cfg.tenants.len();
        let slot = (self.arrivals_seen[ti] % self.slots[ti].len() as u64) as usize;
        self.arrivals_seen[ti] += 1;
        let n_tasks = WIDTH + 2;
        let in_flight = self.admitted as usize - completed;
        let decision = self
            .cfg
            .admission
            .check(ti, n_tasks, in_flight, self.tenant_in_flight[ti]);
        if decision.is_err() {
            self.tstats[ti].subdags_rejected += 1;
            return;
        }
        let boost = if self.tenant_in_flight[ti] > 0 {
            self.cfg.fairness.aging_boost(now - self.last_progress[ti])
        } else {
            self.last_progress[ti] = now;
            0
        };
        let spec = &self.cfg.tenants[ti];
        let eff = effective_priority(0, spec.weight, boost);
        // Flops feed the fingerprint, so a mutated arrival is a cache
        // miss over its whole sub-DAG. The perturbation is drawn per
        // arrival index — a constant offset (as `resubmit_with_mutation`
        // uses on closed DAGs) would make all mutated arrivals a second
        // warm family that hits itself.
        let mutate = self.cfg.mutation_frac > 0.0
            && mp_fault::unit(SEED, k as u64, 0xCACE) < self.cfg.mutation_frac;
        let flops = if mutate {
            FLOPS * (1.0625 + mp_fault::unit(SEED, k as u64, 0xF10)) + 1.0
        } else {
            FLOPS
        };
        let (ttype, sh) = (self.ttype, &self.slots[ti][slot]);
        let mut stage = stf.begin_submission();
        stage.submit_prio(
            ttype,
            vec![(sh.root, AccessMode::Write)],
            flops,
            eff,
            format!("t{ti}.s{k}.root"),
        );
        for (i, &o) in sh.outs.iter().enumerate() {
            stage.submit_prio(
                ttype,
                vec![(sh.root, AccessMode::Read), (o, AccessMode::Write)],
                flops,
                eff,
                format!("t{ti}.s{k}.mid{i}"),
            );
        }
        let mut join_acc: Vec<(DataId, AccessMode)> =
            sh.outs.iter().map(|&o| (o, AccessMode::Read)).collect();
        join_acc.push((sh.join, AccessMode::Write));
        stage.submit_prio(ttype, join_acc, flops, eff, format!("t{ti}.s{k}.join"));
        let added = stage.commit().len();
        debug_assert_eq!(added, n_tasks);

        self.tstats[ti].subdags_admitted += 1;
        self.tstats[ti].tasks_admitted += added as u64;
        self.admitted += added as u64;
        self.tenant_in_flight[ti] += added;
        self.tenant_of
            .resize(self.tenant_of.len() + added, ti as u32);
    }

    /// The scheduler handed `t`, ready since `ready_at`, to `w` at `now`.
    pub(crate) fn popped(&mut self, t: TaskId, w: WorkerId, now: f64, ready_at: f64) {
        let lat_us = (now - ready_at).max(0.0).round() as u64;
        self.samples.push(lat_us);
        let ti = self.tenant_of[t.index()] as usize;
        self.tstats[ti].latency.record(lat_us);
        self.decisions += 1;
        for word in [t.index() as u64, w.index() as u64, now.to_bits()] {
            self.schedule_hash ^= word;
            self.schedule_hash = self.schedule_hash.wrapping_mul(hash::FNV_PRIME);
        }
    }

    /// `t` completed at `now`, executed or (`hit`) served by the cache.
    pub(crate) fn completed(&mut self, t: TaskId, now: f64, hit: bool) {
        let ti = self.tenant_of[t.index()] as usize;
        self.tstats[ti].tasks_completed += 1;
        self.tstats[ti].cache_hits += u64::from(hit);
        self.tenant_in_flight[ti] -= 1;
        self.last_progress[ti] = now;
    }

    /// Close the ledgers into the result's serving section.
    pub(crate) fn into_stats(self) -> ServeStats {
        ServeStats {
            arrivals: self.cfg.arrivals.label(),
            decisions: self.decisions,
            tasks_admitted: self.admitted,
            subdags_admitted: self.tstats.iter().map(|t| t.subdags_admitted).sum(),
            subdags_rejected: self.tstats.iter().map(|t| t.subdags_rejected).sum(),
            samples_us: self.samples,
            tenants: self.tstats,
            schedule_hash: self.schedule_hash,
            sorted: Default::default(),
        }
    }
}

/// Run one open-loop serving session in virtual time (see module docs).
/// Deterministic: equal inputs produce a bit-identical [`SimResult`],
/// whose [`SimResult::serving`] section is always set. Equivalent to
/// [`serve_sim_cached`] with caching off.
pub fn serve_sim(
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Scheduler,
    cfg: &ServeConfig,
) -> SimResult {
    serve_sim_cached(platform, model, sched, cfg, None)
}

/// [`serve_sim`] with an optional shared [`ResultCache`]: every task
/// released with all dependencies met probes the cache first, and a
/// verified hit completes at the release instant without ever entering
/// the scheduler (no push/pop/estimate, no latency sample, no decision
/// fold) — cascades of all-hit successors drain in the same instant.
/// Completed tasks populate the cache payload-less, so a warm
/// resubmission of an identical sub-DAG over the same tenant slot hits
/// end to end. With `cache: None` the run is bit-identical to
/// [`serve_sim`].
///
/// A configuration that cannot run (a non-empty stream without tenants,
/// an arrival process without a finite positive rate or with an empty
/// burst) stops before the first arrival with
/// [`SimError::BadServeConfig`].
pub fn serve_sim_cached(
    platform: &Platform,
    model: &dyn PerfModel,
    sched: &mut dyn Scheduler,
    cfg: &ServeConfig,
    cache: Option<&ResultCache>,
) -> SimResult {
    let (stream, mut stf) = Stream::new(cfg);
    let arrivals = cfg
        .check()
        .map(|()| cfg.arrivals.times_us(cfg.submissions, SEED));
    let eng = Engine::new(
        stf.graph(),
        platform,
        model,
        sched,
        SimConfig::default(),
        cache,
        Some(stream),
    );
    eng.run(&mut Feed::Open(&mut stf), arrivals)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use mp_perfmodel::{TableModel, TimeFn};
    use mp_platform::presets::{homogeneous, simple};
    use mp_platform::types::ArchClass;
    use mp_sched::EagerPrioScheduler;
    use multiprio::MultiPrioScheduler;

    fn model() -> TableModel {
        TableModel::builder()
            .set("SRV", ArchClass::Cpu, TimeFn::Const(25.0))
            .build()
    }

    fn run(cfg: &ServeConfig, workers: usize) -> SimResult {
        let platform = homogeneous(workers);
        let model = model();
        let mut sched = EagerPrioScheduler::new();
        serve_sim(&platform, &model, &mut sched, cfg)
    }

    fn serving(r: &SimResult) -> &ServeStats {
        r.serving
            .as_ref()
            .expect("a serving run has a serving section")
    }

    #[test]
    fn open_loop_run_completes_and_is_deterministic() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(3),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            200,
        );
        let (ra, rb) = (run(&cfg, 8), run(&cfg, 8));
        let (a, b) = (serving(&ra), serving(&rb));
        assert!(ra.is_complete(), "error: {:?}", ra.error);
        assert!(a.decisions > 0 && ra.makespan > 0.0);
        // Bit-identical repeat.
        assert_eq!(a.schedule_hash, b.schedule_hash);
        assert_eq!(a.samples_us, b.samples_us);
        assert_eq!(ra.makespan.to_bits(), rb.makespan.to_bits());
        // Latency accounting covers every decision.
        assert_eq!(a.samples_us.len() as u64, a.decisions);
    }

    #[test]
    fn overload_rejects_with_backpressure_but_strands_nothing() {
        let mut cfg = ServeConfig::new(
            TenantSpec::equal(2),
            ArrivalProcess::Bursty {
                rate_per_sec: 50_000.0,
                burst: 16,
            },
            400,
        );
        cfg.admission.max_in_flight = 48;
        let res = run(&cfg, 2);
        let r = serving(&res);
        assert!(r.subdags_rejected > 0, "expected backpressure rejections");
        // Every *admitted* task still completed: rejections never strand
        // an admitted predecessor.
        assert!(res.is_complete(), "error: {:?}", res.error);
        assert_eq!(
            r.subdags_admitted + r.subdags_rejected,
            cfg.submissions as u64
        );
        // In-flight never exceeded the high-water mark: each admitted
        // sub-DAG fits the bound by construction of the check.
        assert!(r.tasks_admitted >= r.subdags_admitted * 6);
    }

    #[test]
    fn heavier_tenant_sees_lower_scheduling_latency_under_saturation() {
        let mut cfg = ServeConfig::new(
            vec![TenantSpec::new("heavy", 8.0), TenantSpec::new("light", 1.0)],
            ArrivalProcess::Poisson {
                rate_per_sec: 40_000.0,
            },
            600,
        );
        cfg.admission.max_in_flight = 2048;
        // Aging off: measure pure weight separation.
        cfg.fairness.aging_quantum_us = 0.0;
        let r = run(&cfg, 4);
        assert!(r.is_complete(), "error: {:?}", r.error);
        let heavy = &serving(&r).tenants[0];
        let light = &serving(&r).tenants[1];
        assert!(heavy.tasks_completed > 0 && light.tasks_completed > 0);
        assert!(
            heavy.latency.mean_us() < light.latency.mean_us(),
            "weighted tenant should be scheduled first under saturation: \
             heavy {:.1}µs vs light {:.1}µs",
            heavy.latency.mean_us(),
            light.latency.mean_us()
        );
    }

    #[test]
    fn starvation_aging_narrows_the_latency_gap() {
        let base = {
            let mut cfg = ServeConfig::new(
                vec![TenantSpec::new("heavy", 8.0), TenantSpec::new("light", 1.0)],
                ArrivalProcess::Poisson {
                    rate_per_sec: 40_000.0,
                },
                600,
            );
            cfg.admission.max_in_flight = 2048;
            cfg.fairness.aging_quantum_us = 0.0;
            cfg
        };
        let mut aged = base.clone();
        aged.fairness.aging_quantum_us = 200.0;
        aged.fairness.max_aging_boost = 64;
        let r0 = run(&base, 4);
        let r1 = run(&aged, 4);
        assert!(r0.is_complete() && r1.is_complete());
        let gap = |r: &SimResult| {
            let t = &serving(r).tenants;
            t[1].latency.mean_us() - t[0].latency.mean_us()
        };
        assert!(
            gap(&r1) < gap(&r0),
            "aging should narrow the starved tenant's latency gap: \
             {:.1}µs (aged) vs {:.1}µs (no aging)",
            gap(&r1),
            gap(&r0)
        );
    }

    #[test]
    fn warm_resubmission_hits_the_cache_and_skips_the_scheduler() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(3),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            200,
        );
        let platform = homogeneous(8);
        let model = model();
        let cache = mp_cache::ResultCache::new();
        let mut sched = EagerPrioScheduler::new();
        let r = serve_sim_cached(&platform, &model, &mut sched, &cfg, Some(&cache));
        assert!(r.is_complete(), "error: {:?}", r.error);
        let (s, hits) = (serving(&r), r.stats.cache_hits);
        // Serve roots are write-only, so submission s and s+pool on the
        // same tenant slot key identically: after one cold round per
        // (tenant, slot) — 3 tenants × 4 slots × 6 tasks — everything
        // hits, in the same single run.
        let cold = 3 * 4 * 6;
        assert_eq!(r.stats.cache_misses, cold);
        assert_eq!(hits, s.tasks_admitted - cold);
        assert!(
            hits as f64 >= 0.9 * s.tasks_admitted as f64,
            "hits {hits} of {}",
            s.tasks_admitted
        );
        // Hit tasks never entered the scheduler: decisions and latency
        // samples cover only the cold misses.
        assert_eq!(s.decisions, r.stats.cache_misses);
        assert_eq!(s.samples_us.len() as u64, s.decisions);
        // Per-tenant hit accounting adds up, and hits are a subset of
        // completions.
        assert_eq!(s.tenants.iter().map(|t| t.cache_hits).sum::<u64>(), hits);
        for t in &s.tenants {
            assert!(t.cache_hits <= t.tasks_completed);
        }
    }

    /// Warm serving where it pays: 16 workers under prio, tenants
    /// weighted 4/2/1/1, Poisson arrivals at 20× the offered load, 1,000
    /// identical resubmissions and unbounded admission. Past each slot's
    /// first round every task hits at release, so the warm run serves
    /// tasks at least 5× faster in virtual time than the cache-off run,
    /// which is service-limited.
    #[test]
    fn warm_serving_at_overload_hits_and_outpaces_the_cache_off_run() {
        let tenants = vec![
            TenantSpec::new("gold", 4.0),
            TenantSpec::new("silver", 2.0),
            TenantSpec::new("bronze", 1.0),
            TenantSpec::new("bronze2", 1.0),
        ];
        // 16 workers finish 16e6 / 25 tasks per second, in six-task
        // sub-DAGs.
        let rate_per_sec = (16.0 * 1e6 / 25.0 / 6.0 * 20.0_f64).round();
        let mut cfg = ServeConfig::new(tenants, ArrivalProcess::Poisson { rate_per_sec }, 1_000);
        cfg.admission.max_in_flight = 1 << 30;
        let (platform, model) = (homogeneous(16), model());
        let run = |cache: Option<&ResultCache>| {
            let mut sched = EagerPrioScheduler::new();
            serve_sim_cached(&platform, &model, &mut sched, &cfg, cache)
        };
        let cold = run(None);
        let warm = run(Some(&ResultCache::new()));
        for r in [&cold, &warm] {
            assert!(r.is_complete(), "error: {:?}", r.error);
            assert_eq!(serving(r).subdags_rejected, 0);
        }
        assert_eq!((cold.stats.cache_hits, cold.stats.cache_misses), (0, 0));
        let (hits, admitted) = (warm.stats.cache_hits, serving(&warm).tasks_admitted);
        assert!(hits * 100 >= admitted * 95, "hits {hits} of {admitted}");
        let served_per_us = |r: &SimResult| r.stats.tasks as f64 / r.makespan;
        let speedup = served_per_us(&warm) / served_per_us(&cold);
        assert!(
            speedup >= 5.0,
            "warm serves only {speedup:.2}x the cold rate"
        );
    }

    #[test]
    fn warm_cache_carries_across_runs() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(2),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            60,
        );
        let platform = homogeneous(4);
        let model = model();
        let cache = mp_cache::ResultCache::new();
        let cold = serve_sim_cached(
            &platform,
            &model,
            &mut EagerPrioScheduler::new(),
            &cfg,
            Some(&cache),
        );
        // Handle identities are (dense id, size)-derived, so a second
        // engine over the same config re-creates the same keys: every
        // task of the warm run hits and the scheduler is never used.
        let warm = serve_sim_cached(
            &platform,
            &model,
            &mut EagerPrioScheduler::new(),
            &cfg,
            Some(&cache),
        );
        assert!(cold.stats.cache_misses > 0);
        assert!(warm.is_complete());
        assert_eq!(warm.stats.cache_hits, serving(&warm).tasks_admitted);
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(serving(&warm).decisions, 0);
        // All-hit completions collapse onto arrival instants: the warm
        // makespan is the last arrival, well under the cold makespan's
        // trailing execution.
        assert!(warm.makespan <= cold.makespan);
    }

    #[test]
    fn mutated_resubmissions_re_execute_their_dirty_cone() {
        let mk = |mf: f64| {
            let mut cfg = ServeConfig::new(
                TenantSpec::equal(2),
                ArrivalProcess::Poisson {
                    rate_per_sec: 5000.0,
                },
                200,
            );
            cfg.mutation_frac = mf;
            let platform = homogeneous(8);
            let model = model();
            let cache = mp_cache::ResultCache::new();
            serve_sim_cached(
                &platform,
                &model,
                &mut EagerPrioScheduler::new(),
                &cfg,
                Some(&cache),
            )
        };
        let pure = mk(0.0);
        let dirty = mk(0.3);
        assert!(pure.is_complete() && dirty.is_complete());
        // Mutated flops change the fingerprint of the whole sub-DAG
        // (root key, then every in-version downstream), so the dirty
        // stream re-executes more and still serves the rest warm.
        assert!(
            dirty.stats.cache_misses > pure.stats.cache_misses,
            "mutation must add misses: {} vs {}",
            dirty.stats.cache_misses,
            pure.stats.cache_misses
        );
        assert!(dirty.stats.cache_hits > 0, "unmutated arrivals still hit");
        assert_eq!(serving(&dirty).decisions, dirty.stats.cache_misses);
        // Repeat-deterministic: the mutation draw is seeded, not random.
        let again = mk(0.3);
        assert_eq!(serving(&again).schedule_hash, serving(&dirty).schedule_hash);
        assert_eq!(again.stats.cache_misses, dirty.stats.cache_misses);
    }

    #[test]
    fn cache_off_is_bit_identical_to_the_uncached_engine() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(3),
            ArrivalProcess::Bursty {
                rate_per_sec: 20_000.0,
                burst: 8,
            },
            150,
        );
        let platform = homogeneous(4);
        let model = model();
        let a = serve_sim(&platform, &model, &mut EagerPrioScheduler::new(), &cfg);
        let b = serve_sim_cached(
            &platform,
            &model,
            &mut EagerPrioScheduler::new(),
            &cfg,
            None,
        );
        assert_eq!(serving(&a).schedule_hash, serving(&b).schedule_hash);
        assert_eq!(serving(&a).samples_us, serving(&b).samples_us);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(b.stats.cache_hits, 0);
        assert_eq!(b.stats.cache_misses, 0);
    }

    #[test]
    fn tenant_stats_sum_to_the_stream_totals() {
        let cfg = ServeConfig::new(
            TenantSpec::equal(2),
            ArrivalProcess::Poisson {
                rate_per_sec: 5000.0,
            },
            50,
        );
        let r = run(&cfg, 4);
        let s = serving(&r);
        let sum = |f: fn(&TenantStats) -> u64| s.tenants.iter().map(f).sum::<u64>();
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(sum(|t| t.tasks_admitted), s.tasks_admitted);
        assert_eq!(sum(|t| t.tasks_completed), r.stats.tasks as u64);
        assert_eq!(sum(|t| t.subdags_admitted), s.subdags_admitted);
        assert_eq!(sum(|t| t.subdags_rejected), s.subdags_rejected);
        // Per-tenant counts live on the serving section alone.
        if !mp_trace::obs::obs_enabled() {
            assert!(r.counters.is_empty(), "{}", r.counters.render());
        }
    }

    /// Serving on a platform with separate device memory stages data on
    /// it: the trace holds one span per decision and the transfers that
    /// fed the GPU.
    #[test]
    fn serving_traces_every_decision_and_its_transfers() {
        let model = TableModel::builder()
            .set("SRV", ArchClass::Cpu, TimeFn::Const(25.0))
            .set("SRV", ArchClass::Gpu, TimeFn::Const(25.0))
            .build();
        let cfg = ServeConfig::new(
            TenantSpec::equal(2),
            ArrivalProcess::Poisson {
                rate_per_sec: 20_000.0,
            },
            100,
        );
        let mut sched = MultiPrioScheduler::with_defaults();
        let r = serve_sim(&simple(1, 1), &model, &mut sched, &cfg);
        assert!(r.is_complete(), "error: {:?}", r.error);
        assert_eq!(r.trace.tasks.len() as u64, serving(&r).decisions);
        assert!(!r.trace.transfers.is_empty(), "no transfer was traced");
        assert!(r.audit.is_empty(), "{:?}", r.audit);
        // The closed path's statistics come with the stream's.
        assert_eq!(r.stats.tasks as u64, serving(&r).tasks_admitted);
        assert!(r.stats.demand_bytes > 0, "no demand transfer counted");
    }

    fn bad_config(r: &SimResult, needle: &str) -> bool {
        matches!(&r.error, Some(SimError::BadServeConfig { reason }) if reason.contains(needle))
            && serving(r).tasks_admitted == 0
    }

    #[test]
    fn empty_tenant_list_serves_only_an_empty_stream() {
        let arrivals = ArrivalProcess::Poisson {
            rate_per_sec: 5000.0,
        };
        let empty = run(&ServeConfig::new(Vec::new(), arrivals.clone(), 0), 2);
        assert!(empty.is_complete(), "error: {:?}", empty.error);
        assert_eq!(serving(&empty).decisions, 0);
        let r = run(&ServeConfig::new(Vec::new(), arrivals, 3), 2);
        assert!(bad_config(&r, "no tenant"), "error: {:?}", r.error);
    }

    /// An empty burst never fills the arrival sequence; the watchdog
    /// turns a hang into a failure.
    #[test]
    fn empty_burst_is_a_typed_error_not_a_hang() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let arrivals = ArrivalProcess::Bursty {
                rate_per_sec: 1000.0,
                burst: 0,
            };
            let _ = tx.send(run(
                &ServeConfig::new(TenantSpec::equal(2), arrivals, 10),
                2,
            ));
        });
        let r = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("an empty burst hung the run");
        assert!(bad_config(&r, "burst"), "error: {:?}", r.error);
    }

    #[test]
    fn rate_that_is_not_finite_and_positive_is_a_typed_error() {
        for rate_per_sec in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            for arrivals in [
                ArrivalProcess::Poisson { rate_per_sec },
                ArrivalProcess::Bursty {
                    rate_per_sec,
                    burst: 4,
                },
            ] {
                let r = run(&ServeConfig::new(TenantSpec::equal(2), arrivals, 10), 2);
                assert!(
                    bad_config(&r, "finite positive rate"),
                    "rate {rate_per_sec}: {:?}",
                    r.error
                );
            }
        }
    }
}
