//! Restart audits: prove the **persistent** result cache (DESIGN.md
//! §14) gives the same answers across a process boundary as a cache
//! that never left memory — including when the persisting process is
//! killed mid-write or the on-disk image loses a bit.
//!
//! Every audit here runs the same three-act play:
//!
//! 1. **In-process twin** — cold run populating a purely in-memory
//!    cache, then a warm run consuming it. This pins down the expected
//!    warm behavior (digest / schedule hash / hit count) with no disk
//!    involved.
//! 2. **Persist + crash** — a fresh cache with a
//!    [`PersistConfig`] carrying the caller's [`PersistFaultPlan`]
//!    runs cold, streaming every insert to the segment log, then
//!    [`ResultCache::crash`]es: the simulated kill truncates the log to
//!    its durable frontier and applies any planned bit flip.
//! 3. **Reopen + warm** — [`ResultCache::open`] replays whatever
//!    survived and the warm run repeats against the recovered cache.
//!    The outputs must be **bit-identical** to the in-process twin's:
//!    corruption may cost recomputes (misses), never correctness.
//!
//! A clean plan ([`PersistFaultPlan::is_clean`]) additionally requires
//! zero rejected records and full warm coverage — a lossless round
//! trip. All runs are deterministic; findings come back as typed
//! [`Mismatch`]es, never panics.

use std::path::Path;
use std::sync::Arc;

use mp_dag::TaskGraph;
use mp_perfmodel::PerfModel;
use mp_platform::types::Platform;
use mp_runtime::{
    LoadReport, PersistConfig, PersistFaultPlan, RelaxedConfig, RelaxedMultiQueue, ResultCache,
    Runtime, ShardedAdapter, StreamConfig, Submission,
};
use mp_sched::Scheduler;
use mp_sim::{simulate_cached, SimConfig};

use crate::diff::{schedule_hash, Mismatch};
use crate::{mirror_graph_computing, streaming_audit_cached, DiffConfig};

/// Persist config for an audit phase: defaults plus the caller's plan,
/// and a small segment size so multi-record sweeps exercise rotation.
fn audit_persist_cfg(plan: PersistFaultPlan) -> PersistConfig {
    PersistConfig {
        fault: plan,
        ..PersistConfig::default()
    }
}

/// Push a [`Mismatch::PersistInvariant`] built from `detail`.
fn broken(mismatches: &mut Vec<Mismatch>, detail: String) {
    mismatches.push(Mismatch::PersistInvariant { detail });
}

/// Ledger + stats checks every reopen must pass, fault plan or not.
fn check_load_ledger(cache: &ResultCache, load: &LoadReport, mismatches: &mut Vec<Mismatch>) {
    if load.loaded + load.rejected != load.records_scanned {
        broken(
            mismatches,
            format!(
                "load ledger unbalanced: {} loaded + {} rejected != {} scanned",
                load.loaded, load.rejected, load.records_scanned
            ),
        );
    }
    let ps = cache.persist_stats();
    if ps.loaded != load.loaded || ps.load_rejects != load.rejected {
        broken(
            mismatches,
            format!("persist_stats ({ps:?}) disagrees with the load report ({load:?})"),
        );
    }
}

/// Result of one [`restart_audit`] (threaded runtime, batch mode).
#[derive(Debug)]
pub struct RestartReport {
    /// Every disagreement found; empty means the config passed.
    pub mismatches: Vec<Mismatch>,
    /// Buffer digest of the in-process (never-persisted) runs — the
    /// bit-exact target every disk-backed run must reproduce.
    pub reference_digest: u64,
    /// Buffer digest of the warm run against the reopened cache.
    pub restart_warm_digest: u64,
    /// What the reopen recovered from the (possibly corrupted) log.
    pub load: LoadReport,
    /// Tasks the post-restart warm run executed (0 under a clean plan;
    /// corruption may force recomputes).
    pub warm_executed: usize,
}

impl RestartReport {
    /// Did every phase agree?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Prove a **runtime** (threaded, computing-kernel) workload survives a
/// crash of its persisting process: cold-run `graph` into a cache
/// streaming to `dir` under `plan`, crash, reopen, and require the warm
/// run's buffers bit-identical to an in-process twin's. Honors
/// [`DiffConfig::shards`] (0 = global lock) for every run; `dir` is
/// created if missing and should start empty.
pub fn restart_audit(
    graph: &TaskGraph,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
    dir: &Path,
    plan: PersistFaultPlan,
) -> RestartReport {
    let mut mismatches = Vec::new();
    let run_once = |cache: &Arc<ResultCache>,
                    phase: &'static str,
                    mismatches: &mut Vec<Mismatch>|
     -> (u64, usize) {
        let (mut rt, edge_mismatches) = mirror_graph_computing(graph, platform, Arc::clone(model));
        mismatches.extend(edge_mismatches);
        rt.set_cache(Arc::clone(cache));
        let run = if cfg.shards == 0 {
            rt.run(factory())
        } else {
            rt.run_concurrent(&ShardedAdapter::new(cfg.shards, factory))
        };
        match run {
            Ok(report) => {
                if let Some(err) = &report.error {
                    mismatches.push(Mismatch::RuntimeFailed {
                        error: format!("{phase}: {err}"),
                    });
                }
                (rt.buffers_digest(), report.trace.tasks.len())
            }
            Err(err) => {
                mismatches.push(Mismatch::RuntimeFailed {
                    error: format!("{phase}: {err}"),
                });
                (0, 0)
            }
        }
    };

    // Act 1: the in-process twin fixes the expected answer.
    let twin_cache = Arc::new(ResultCache::new());
    let (reference_digest, _) = run_once(&twin_cache, "twin-cold", &mut mismatches);
    let (twin_warm_digest, _) = run_once(&twin_cache, "twin-warm", &mut mismatches);
    if twin_warm_digest != reference_digest {
        mismatches.push(Mismatch::CachedOutputDivergence {
            phase: "twin-warm",
            expected: reference_digest,
            got: twin_warm_digest,
        });
    }

    // Act 2: persist cold, then crash.
    let persist_cache = Arc::new(ResultCache::new());
    if let Err(err) = persist_cache.persist_with(dir, audit_persist_cfg(plan)) {
        broken(&mut mismatches, format!("persist_with failed: {err}"));
    }
    let (persist_cold_digest, _) = run_once(&persist_cache, "persist-cold", &mut mismatches);
    if persist_cold_digest != reference_digest {
        mismatches.push(Mismatch::CachedOutputDivergence {
            phase: "persist-cold",
            expected: reference_digest,
            got: persist_cold_digest,
        });
    }
    if let Err(err) = persist_cache.crash() {
        broken(&mut mismatches, format!("crash injection failed: {err}"));
    }
    drop(persist_cache);

    // Act 3: reopen whatever survived and re-run warm.
    let (restart_cache, load) = match ResultCache::open(dir) {
        Ok((c, l)) => (Arc::new(c), l),
        Err(err) => {
            broken(
                &mut mismatches,
                format!("open failed on crashed log: {err}"),
            );
            (Arc::new(ResultCache::new()), LoadReport::default())
        }
    };
    check_load_ledger(&restart_cache, &load, &mut mismatches);
    let (restart_warm_digest, warm_executed) =
        run_once(&restart_cache, "restart-warm", &mut mismatches);
    if restart_warm_digest != reference_digest {
        mismatches.push(Mismatch::CachedOutputDivergence {
            phase: "restart-warm",
            expected: reference_digest,
            got: restart_warm_digest,
        });
    }
    if plan.is_clean() {
        if load.rejected != 0 {
            broken(
                &mut mismatches,
                format!("clean shutdown rejected {} record(s)", load.rejected),
            );
        }
        if warm_executed != 0 && restart_cache.evictions() == 0 {
            mismatches.push(Mismatch::CacheCoverage {
                executed: warm_executed,
                expected: 0,
            });
        }
    }
    RestartReport {
        mismatches,
        reference_digest,
        restart_warm_digest,
        load,
        warm_executed,
    }
}

/// Result of one [`restart_audit_sim`] (discrete-event simulator).
#[derive(Debug)]
pub struct RestartSimReport {
    /// Every disagreement found; empty means the config passed.
    pub mismatches: Vec<Mismatch>,
    /// What the reopen recovered from the (possibly corrupted) log.
    pub load: LoadReport,
    /// Cache hits of the post-restart warm simulation.
    pub warm_hits: u64,
    /// Cache misses (forced recomputes) of that simulation.
    pub warm_misses: u64,
}

impl RestartSimReport {
    /// Did every phase agree?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// [`restart_audit`] for the **simulator** engine. Sim cache entries
/// are payload-less (virtual time has no buffers), so the proof is over
/// the schedule instead of output bytes: a clean plan must replay every
/// record and make the warm simulation all-hits with a schedule hash
/// bit-identical to the in-process twin's; a corrupting plan may force
/// misses, but every task still resolves to exactly one verified hit or
/// one recompute, and the run never errors.
pub fn restart_audit_sim(
    graph: &TaskGraph,
    platform: &Platform,
    model: &dyn PerfModel,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    sim_cfg: SimConfig,
    dir: &Path,
    plan: PersistFaultPlan,
) -> RestartSimReport {
    let mut mismatches = Vec::new();
    let run_once = |cache: &ResultCache, phase: &'static str, mismatches: &mut Vec<Mismatch>| {
        let mut sched = factory();
        let res = simulate_cached(graph, platform, model, sched.as_mut(), sim_cfg, Some(cache));
        if let Some(err) = &res.error {
            mismatches.push(Mismatch::SimFailed {
                error: format!("{phase}: {err}"),
            });
        }
        res
    };

    // Act 1: in-process twin.
    let twin_cache = ResultCache::new();
    let _ = run_once(&twin_cache, "twin-cold", &mut mismatches);
    let twin_warm = run_once(&twin_cache, "twin-warm", &mut mismatches);
    let twin_hash = schedule_hash(&twin_warm.trace);

    // Act 2: persist cold, crash.
    let persist_cache = ResultCache::new();
    if let Err(err) = persist_cache.persist_with(dir, audit_persist_cfg(plan)) {
        broken(&mut mismatches, format!("persist_with failed: {err}"));
    }
    let _ = run_once(&persist_cache, "persist-cold", &mut mismatches);
    if let Err(err) = persist_cache.crash() {
        broken(&mut mismatches, format!("crash injection failed: {err}"));
    }
    drop(persist_cache);

    // Act 3: reopen, warm-simulate, compare schedules.
    let (restart_cache, load) = match ResultCache::open(dir) {
        Ok((c, l)) => (c, l),
        Err(err) => {
            broken(
                &mut mismatches,
                format!("open failed on crashed log: {err}"),
            );
            (ResultCache::new(), LoadReport::default())
        }
    };
    check_load_ledger(&restart_cache, &load, &mut mismatches);
    let warm = run_once(&restart_cache, "restart-warm", &mut mismatches);
    let (warm_hits, warm_misses) = (warm.stats.cache_hits, warm.stats.cache_misses);
    if (warm_hits + warm_misses) as usize != graph.task_count() {
        broken(
            &mut mismatches,
            format!(
                "restart warm run resolved {warm_hits} hit(s) + {warm_misses} miss(es) \
                 over {} task(s)",
                graph.task_count()
            ),
        );
    }
    if plan.is_clean() {
        if load.rejected != 0 {
            broken(
                &mut mismatches,
                format!("clean shutdown rejected {} record(s)", load.rejected),
            );
        }
        if warm_misses != 0 {
            mismatches.push(Mismatch::CacheCoverage {
                executed: warm_misses as usize,
                expected: 0,
            });
        }
        let warm_hash = schedule_hash(&warm.trace);
        if warm_hash != twin_hash {
            broken(
                &mut mismatches,
                format!(
                    "clean restart warm schedule {warm_hash:#018x} != \
                     in-process twin {twin_hash:#018x}"
                ),
            );
        }
    }
    RestartSimReport {
        mismatches,
        load,
        warm_hits,
        warm_misses,
    }
}

/// Which serving front-end a [`restart_serve_audit`] drives.
#[derive(Clone, Copy, Debug)]
pub enum ServeFrontend {
    /// One scheduler behind the global lock ([`Runtime::serve`]).
    Global,
    /// Sharded multi-queue with this many policy instances
    /// ([`ShardedAdapter`]).
    Sharded(usize),
    /// Relaxed multi-queue ([`RelaxedMultiQueue`]).
    Relaxed(RelaxedConfig),
}

/// Result of one [`restart_serve_audit`].
#[derive(Debug)]
pub struct RestartServeReport {
    /// Every disagreement found; empty means the config passed.
    pub mismatches: Vec<Mismatch>,
    /// What the reopen recovered from the (possibly corrupted) log.
    pub load: LoadReport,
    /// Cache hits of the in-process twin's warm serve — the target.
    pub twin_warm_hits: u64,
    /// Cache hits of the post-restart warm serve.
    pub restart_warm_hits: u64,
}

impl RestartServeReport {
    /// Did every phase agree?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// [`restart_audit`] for **serving mode**: serve the same stream twice
/// (cold populating, warm consuming) both in-process and across a
/// persist → crash → reopen boundary, under any of the three concurrent
/// front-ends. `setup` registers data on a fresh [`Runtime`] and
/// returns the stream — it is called once per serve, so every phase
/// sees an identical workload. Each serve is additionally checked with
/// [`streaming_audit_cached`]; final buffer digests must agree across
/// all phases (concurrent interleavings may reorder the schedule, never
/// the data), and a clean plan must reproduce the twin's warm hit count
/// exactly.
#[allow(clippy::too_many_arguments)]
pub fn restart_serve_audit(
    frontend: ServeFrontend,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    stream_cfg: &StreamConfig,
    setup: &dyn Fn(&mut Runtime) -> Vec<Submission>,
    dir: &Path,
    plan: PersistFaultPlan,
) -> RestartServeReport {
    let mut mismatches = Vec::new();
    let serve_once = |cache: &Arc<ResultCache>,
                      phase: &'static str,
                      mismatches: &mut Vec<Mismatch>|
     -> (u64, u64) {
        let mut rt = Runtime::new(platform.clone(), Arc::clone(model));
        rt.set_cache(Arc::clone(cache));
        let stream = setup(&mut rt);
        let run = match frontend {
            ServeFrontend::Global => rt.serve(factory(), stream_cfg, stream),
            ServeFrontend::Sharded(n) => {
                rt.serve_concurrent(&ShardedAdapter::new(n, factory), stream_cfg, stream)
            }
            ServeFrontend::Relaxed(rc) => {
                let front = RelaxedMultiQueue::new(platform.worker_count(), rc);
                rt.serve_concurrent(&front, stream_cfg, stream)
            }
        };
        match run {
            Ok(report) => {
                if let Some(err) = &report.error {
                    mismatches.push(Mismatch::RuntimeFailed {
                        error: format!("{phase}: {err}"),
                    });
                }
                mismatches.extend(streaming_audit_cached(
                    rt.graph(),
                    &report.trace,
                    report.cache_hits,
                ));
                (rt.buffers_digest(), report.cache_hits)
            }
            Err(err) => {
                mismatches.push(Mismatch::RuntimeFailed {
                    error: format!("{phase}: {err}"),
                });
                (0, 0)
            }
        }
    };

    // Act 1: in-process twin.
    let twin_cache = Arc::new(ResultCache::new());
    let (reference_digest, _) = serve_once(&twin_cache, "twin-cold", &mut mismatches);
    let (twin_warm_digest, twin_warm_hits) = serve_once(&twin_cache, "twin-warm", &mut mismatches);
    if twin_warm_digest != reference_digest {
        mismatches.push(Mismatch::CachedOutputDivergence {
            phase: "twin-warm",
            expected: reference_digest,
            got: twin_warm_digest,
        });
    }

    // Act 2: persist cold, crash.
    let persist_cache = Arc::new(ResultCache::new());
    if let Err(err) = persist_cache.persist_with(dir, audit_persist_cfg(plan)) {
        broken(&mut mismatches, format!("persist_with failed: {err}"));
    }
    let (persist_cold_digest, _) = serve_once(&persist_cache, "persist-cold", &mut mismatches);
    if persist_cold_digest != reference_digest {
        mismatches.push(Mismatch::CachedOutputDivergence {
            phase: "persist-cold",
            expected: reference_digest,
            got: persist_cold_digest,
        });
    }
    if let Err(err) = persist_cache.crash() {
        broken(&mut mismatches, format!("crash injection failed: {err}"));
    }
    drop(persist_cache);

    // Act 3: reopen, warm-serve, compare.
    let (restart_cache, load) = match ResultCache::open(dir) {
        Ok((c, l)) => (Arc::new(c), l),
        Err(err) => {
            broken(
                &mut mismatches,
                format!("open failed on crashed log: {err}"),
            );
            (Arc::new(ResultCache::new()), LoadReport::default())
        }
    };
    check_load_ledger(&restart_cache, &load, &mut mismatches);
    let (restart_warm_digest, restart_warm_hits) =
        serve_once(&restart_cache, "restart-warm", &mut mismatches);
    if restart_warm_digest != reference_digest {
        mismatches.push(Mismatch::CachedOutputDivergence {
            phase: "restart-warm",
            expected: reference_digest,
            got: restart_warm_digest,
        });
    }
    if plan.is_clean() {
        if load.rejected != 0 {
            broken(
                &mut mismatches,
                format!("clean shutdown rejected {} record(s)", load.rejected),
            );
        }
        if restart_warm_hits != twin_warm_hits {
            mismatches.push(Mismatch::CacheCoverage {
                executed: restart_warm_hits as usize,
                expected: twin_warm_hits as usize,
            });
        }
    } else if restart_warm_hits > twin_warm_hits {
        broken(
            &mut mismatches,
            format!(
                "corrupted restart hit {restart_warm_hits} time(s), more than the \
                 lossless twin's {twin_warm_hits}"
            ),
        );
    }
    RestartServeReport {
        mismatches,
        load,
        twin_warm_hits,
        restart_warm_hits,
    }
}
