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
//!    its durable frontier and applies any planned bit flip. Segments
//!    hold 256 bytes, so every multi-record run rotates through several.
//! 3. **Reopen + warm** — [`ResultCache::open`] replays whatever
//!    survived, the load ledger must balance (and lose nothing under a
//!    clean plan, [`PersistFaultPlan::is_clean`]), and the warm run
//!    repeats against the recovered cache.
//!
//! The play records every run in one [`RestartReport`]; each audit adds
//! only its own comparison rule. Corruption may cost recomputes
//! (misses), never correctness. All runs are deterministic; findings
//! come back as typed [`Mismatch`]es, never panics.

use std::path::Path;
use std::sync::Arc;

use mp_dag::TaskGraph;
use mp_perfmodel::PerfModel;
use mp_platform::types::Platform;
use mp_runtime::{
    LoadReport, PersistConfig, PersistFaultPlan, ResultCache, Runtime, StreamConfig, Submission,
};
use mp_sched::Scheduler;

use crate::diff::{schedule_hash, Mismatch};
use crate::{outcome, streaming_audit_cached, DiffConfig, Harness, RunOutcome};

/// Persist config for an audit phase: defaults plus the caller's plan,
/// and a small segment size so multi-record sweeps exercise rotation.
fn audit_persist_cfg(plan: PersistFaultPlan) -> PersistConfig {
    PersistConfig {
        fault: plan,
        segment_bytes: 256,
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

/// Result of one restart audit: every finding, and what each of the
/// play's four runs produced.
#[derive(Debug)]
pub struct RestartReport {
    /// Every disagreement found; empty means the config passed.
    pub mismatches: Vec<Mismatch>,
    /// What the reopen recovered from the (possibly corrupted) log.
    pub load: LoadReport,
    /// The in-process twin's cold run: the reference.
    pub twin_cold: RunOutcome,
    /// The in-process twin's warm run: the target.
    pub twin_warm: RunOutcome,
    /// The persisting cold run the crash cut short.
    pub persist_cold: RunOutcome,
    /// The warm run against the reopened cache.
    pub restart_warm: RunOutcome,
}

impl RestartReport {
    /// Did every phase agree?
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The threaded rule: every run leaves the buffers bit-identical to
    /// the twin's cold run.
    fn require_reference_outputs(&mut self) {
        let expected = self.twin_cold.digest;
        for (phase, run) in [
            ("twin-warm", self.twin_warm),
            ("persist-cold", self.persist_cold),
            ("restart-warm", self.restart_warm),
        ] {
            if run.digest != expected {
                self.mismatches.push(Mismatch::CachedOutputDivergence {
                    phase,
                    expected,
                    got: run.digest,
                });
            }
        }
    }
}

/// The three acts (see the module docs). `run` performs one run against
/// the cache it is given, pushing its failures, tagged with the phase,
/// into the mismatches it is given.
fn play(
    dir: &Path,
    plan: PersistFaultPlan,
    mut run: impl FnMut(&Arc<ResultCache>, &'static str, &mut Vec<Mismatch>) -> RunOutcome,
) -> RestartReport {
    let mut mismatches = Vec::new();

    // Act 1: the in-process twin fixes the expected answer.
    let twin_cache = Arc::new(ResultCache::new());
    let twin_cold = run(&twin_cache, "twin-cold", &mut mismatches);
    let twin_warm = run(&twin_cache, "twin-warm", &mut mismatches);

    // Act 2: persist cold, then crash.
    let persist_cache = Arc::new(ResultCache::new());
    if let Err(err) = persist_cache.persist_with(dir, audit_persist_cfg(plan)) {
        broken(&mut mismatches, format!("persist_with failed: {err}"));
    }
    let persist_cold = run(&persist_cache, "persist-cold", &mut mismatches);
    if let Err(err) = persist_cache.crash() {
        broken(&mut mismatches, format!("crash injection failed: {err}"));
    }
    drop(persist_cache);

    // Act 3: reopen whatever survived, check the ledger, re-run warm.
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
    if plan.is_clean() && load.rejected != 0 {
        broken(
            &mut mismatches,
            format!("clean shutdown rejected {} record(s)", load.rejected),
        );
    }
    let restart_warm = run(&restart_cache, "restart-warm", &mut mismatches);
    RestartReport {
        mismatches,
        load,
        twin_cold,
        twin_warm,
        persist_cold,
        restart_warm,
    }
}

/// Prove a **runtime** (threaded, computing-kernel) workload survives a
/// crash of its persisting process: cold-run `graph` into a cache
/// streaming to `dir` under `plan`, crash, reopen, and require every
/// run's buffers bit-identical to the in-process twin's cold run. A
/// clean plan must also make the warm run after the restart execute
/// nothing. Every run drives the configured front-end under the
/// configured faults and retries; `dir` is created if missing and should
/// start empty.
pub fn restart_audit(
    graph: &TaskGraph,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
    dir: &Path,
    plan: PersistFaultPlan,
) -> RestartReport {
    let harness = Harness {
        platform,
        model,
        factory,
        cfg,
    };
    let mut report = play(dir, plan, |cache, phase, mismatches| {
        harness.run_mirror(graph, Some(cache), phase, mismatches)
    });
    report.require_reference_outputs();
    if plan.is_clean() && report.restart_warm.executed != 0 {
        report.mismatches.push(Mismatch::CacheCoverage {
            executed: report.restart_warm.executed,
            expected: 0,
        });
    }
    report
}

/// [`restart_audit`] for the **simulator** engine, on the scheduler the
/// configured front-end names and under the configured faults and
/// retries. Sim cache entries are payload-less (virtual time has no
/// buffers), so the proof is over the schedule instead of output bytes:
/// every task of the warm run after the restart resolves to exactly one
/// verified hit or one miss, and a clean plan must make that run
/// all-hits with a schedule hash bit-identical to the in-process twin's
/// warm run.
pub fn restart_audit_sim(
    graph: &TaskGraph,
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
    dir: &Path,
    plan: PersistFaultPlan,
) -> RestartReport {
    let harness = Harness {
        platform,
        model,
        factory,
        cfg,
    };
    let mut report = play(dir, plan, |cache, phase, mismatches| {
        let (res, _) = harness.simulate(graph, Some(cache));
        if let Some(err) = &res.error {
            mismatches.push(Mismatch::SimFailed {
                error: format!("{phase}: {err}"),
            });
        }
        RunOutcome {
            digest: schedule_hash(&res.trace),
            hits: res.stats.cache_hits,
            misses: res.stats.cache_misses,
            executed: res.trace.tasks.len(),
        }
    });
    let warm = report.restart_warm;
    if (warm.hits + warm.misses) as usize != graph.task_count() {
        broken(
            &mut report.mismatches,
            format!(
                "restart warm run resolved {} hit(s) + {} miss(es) over {} task(s)",
                warm.hits,
                warm.misses,
                graph.task_count()
            ),
        );
    }
    if plan.is_clean() {
        if warm.misses != 0 {
            report.mismatches.push(Mismatch::CacheCoverage {
                executed: warm.misses as usize,
                expected: 0,
            });
        }
        let twin = report.twin_warm.digest;
        if warm.digest != twin {
            broken(
                &mut report.mismatches,
                format!(
                    "clean restart warm schedule {:#018x} != in-process twin {twin:#018x}",
                    warm.digest
                ),
            );
        }
    }
    report
}

/// [`restart_audit`] for **serving mode**: serve the same stream twice
/// (cold populating, warm consuming) both in-process and across a
/// persist → crash → reopen boundary, on the configured front-end under
/// the configured faults and retries. `setup` registers data on a fresh
/// [`Runtime`] and returns the stream — it is called once per serve, so
/// every phase sees an identical workload. Each serve is additionally
/// checked with [`streaming_audit_cached`]; final buffer digests must
/// agree across all phases (concurrent interleavings may reorder the
/// schedule, never the data), a clean plan must reproduce the twin's
/// warm hit count exactly, and a corrupting one may only lose hits.
#[allow(clippy::too_many_arguments)]
pub fn restart_serve_audit(
    platform: &Platform,
    model: &Arc<dyn PerfModel>,
    factory: &dyn Fn() -> Box<dyn Scheduler>,
    cfg: &DiffConfig,
    stream_cfg: &StreamConfig,
    setup: &dyn Fn(&mut Runtime) -> Vec<Submission>,
    dir: &Path,
    plan: PersistFaultPlan,
) -> RestartReport {
    let harness = Harness {
        platform,
        model,
        factory,
        cfg,
    };
    let mut report = play(dir, plan, |cache, phase, mismatches| {
        let mut rt = Runtime::new(platform.clone(), Arc::clone(model));
        rt.set_cache(Arc::clone(cache));
        let stream = setup(&mut rt);
        let (run, _) = harness.run(&mut rt, Some((stream_cfg, stream)), phase, mismatches);
        if let Some(r) = &run {
            mismatches.extend(streaming_audit_cached(rt.graph(), &r.trace, r.cache_hits));
        }
        outcome(&rt, run.as_ref())
    });
    report.require_reference_outputs();
    let (twin_hits, restart_hits) = (report.twin_warm.hits, report.restart_warm.hits);
    if plan.is_clean() {
        if restart_hits != twin_hits {
            report.mismatches.push(Mismatch::CacheCoverage {
                executed: restart_hits as usize,
                expected: twin_hits as usize,
            });
        }
    } else if restart_hits > twin_hits {
        broken(
            &mut report.mismatches,
            format!(
                "corrupted restart hit {restart_hits} time(s), more than the \
                 lossless twin's {twin_hits}"
            ),
        );
    }
    report
}
