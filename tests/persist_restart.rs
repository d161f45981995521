//! Kill-during-write chaos sweep for the persistent result cache
//! (DESIGN.md §14).
//!
//! Every configuration drives a full restart audit — in-process twin,
//! persist-and-crash, reopen-and-rerun — across **both engines**
//! (threaded runtime via [`restart_audit`], discrete-event simulator
//! via [`restart_audit_sim`]) and **all three front-ends** (batch and
//! served, [`restart_serve_audit`]), under a fault matrix of:
//!
//! * `clean` — graceful shutdown: zero rejects, full warm coverage;
//! * `kill-N` — writer killed after `N` record-stream bytes: the torn
//!   record and everything after it are lost, nothing else;
//! * `dropflush-K` — page cache lost from flush ordinal `K` on;
//! * `flip-S` — one seed-derived bit flipped in the on-disk image.
//!
//! The byte-granular exhaustive crash sweep lives in
//! `crates/cache/tests/persist_corruption.rs`; this sweep proves the
//! end-to-end property on top: whatever the crash left behind, the
//! reopened cache produces **bit-identical outputs** to a process that
//! never died — corruption costs recomputes, never correctness.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use mp_fault::splitmix64;
use multiprio_suite::audit::{
    restart_audit, restart_audit_sim, restart_serve_audit, DiffConfig, Front,
};
use multiprio_suite::dag::{AccessMode, StfBuilder, TaskGraph};
use multiprio_suite::perfmodel::model::UniformModel;
use multiprio_suite::perfmodel::PerfModel;
use multiprio_suite::platform::presets::simple;
use multiprio_suite::runtime::serve::TenantSpec;
use multiprio_suite::runtime::{
    PersistFaultPlan, RelaxedConfig, Runtime, StreamConfig, Submission, TaskBuilder,
};
use multiprio_suite::sched::{FifoScheduler, Scheduler};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mp-restart-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Two diamonds sharing a spine: 8 tasks, a mix of fingerprint shapes,
/// enough records that a mid-log kill leaves both survivors and losses.
fn two_diamonds() -> TaskGraph {
    let mut stf = StfBuilder::new();
    let k = stf.graph_mut().register_type("K", true, true);
    let d0 = stf.graph_mut().add_data(1024, "d0");
    let d1 = stf.graph_mut().add_data(1024, "d1");
    for round in 0..2 {
        stf.submit(k, vec![(d0, AccessMode::Write)], 1.0 + round as f64, "t0");
        stf.submit(
            k,
            vec![(d0, AccessMode::Read), (d1, AccessMode::Write)],
            1.0,
            "t1",
        );
        stf.submit(k, vec![(d0, AccessMode::ReadWrite)], 1.0, "t2");
        stf.submit(
            k,
            vec![(d0, AccessMode::Read), (d1, AccessMode::Read)],
            1.0,
            "t3",
        );
    }
    stf.finish()
}

/// The fault matrix: clean shutdown, kills at small / mid / large
/// record-stream offsets, lost page cache from several flush ordinals,
/// and seed-derived bit flips.
fn plans() -> Vec<(String, PersistFaultPlan)> {
    let mut out = vec![("clean".to_string(), PersistFaultPlan::default())];
    for &n in &[0u64, 1, 9, 100, 777, 4096] {
        out.push((
            format!("kill-{n}"),
            PersistFaultPlan::seeded(n).kill_after_bytes(n),
        ));
    }
    for &k in &[0u64, 1, 4, 9] {
        out.push((
            format!("dropflush-{k}"),
            PersistFaultPlan::seeded(k).drop_flush_after(k),
        ));
    }
    for seed in 0..4u64 {
        let off = splitmix64(seed ^ 0xB1F0_F11D);
        let bit = (splitmix64(seed ^ 0x0DD_B175) % 8) as u8;
        out.push((
            format!("flip-{seed}"),
            PersistFaultPlan::seeded(seed).bit_flip(off, bit),
        ));
    }
    out
}

fn fifo() -> Box<dyn Scheduler> {
    Box::new(FifoScheduler::new())
}

#[test]
fn runtime_restart_survives_the_fault_matrix() {
    let g = two_diamonds();
    let platform = simple(2, 1);
    let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
    for (tag, plan) in plans() {
        let dir = tmpdir(&format!("rt-{tag}"));
        let report = restart_audit(
            &g,
            &platform,
            &model,
            &fifo,
            &DiffConfig::default(),
            &dir,
            plan,
        );
        assert!(report.is_clean(), "{tag}: {:?}", report.mismatches);
        assert_eq!(report.restart_warm.digest, report.twin_cold.digest, "{tag}");
        if plan.is_clean() {
            assert_eq!(
                report.restart_warm.executed, 0,
                "{tag}: clean restart must all-hit"
            );
            assert_eq!(report.load.loaded, g.task_count() as u64, "{tag}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn sharded_runtime_restart_survives_a_kill() {
    // The sharded front-end shares the cache across policy instances,
    // and the relaxed one replaces the policy; one representative kill
    // + one clean pass each keep the sweep fast.
    let g = two_diamonds();
    let platform = simple(2, 1);
    let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
    for (fname, front) in [
        ("sharded", Front::Sharded(2)),
        ("relaxed", Front::Relaxed(RelaxedConfig::default())),
    ] {
        let cfg = DiffConfig {
            front,
            ..DiffConfig::default()
        };
        for (tag, plan) in [
            ("clean", PersistFaultPlan::default()),
            ("kill", PersistFaultPlan::seeded(7).kill_after_bytes(600)),
        ] {
            let dir = tmpdir(&format!("rt-{fname}-{tag}"));
            let report = restart_audit(&g, &platform, &model, &fifo, &cfg, &dir, plan);
            assert!(report.is_clean(), "{fname}/{tag}: {:?}", report.mismatches);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn sim_restart_survives_the_fault_matrix() {
    let g = two_diamonds();
    let platform = simple(2, 1);
    let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
    for (tag, plan) in plans() {
        let dir = tmpdir(&format!("sim-{tag}"));
        let report = restart_audit_sim(
            &g,
            &platform,
            &model,
            &fifo,
            &DiffConfig::default(),
            &dir,
            plan,
        );
        assert!(report.is_clean(), "{tag}: {:?}", report.mismatches);
        assert_eq!(
            (report.restart_warm.hits + report.restart_warm.misses) as usize,
            g.task_count(),
            "{tag}: every task resolves to a hit or a recompute"
        );
        if plan.is_clean() {
            assert_eq!(
                report.restart_warm.misses, 0,
                "{tag}: clean restart must all-hit"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A warm-friendly stream: per-submission fork (Write) and join (Read)
/// on one handle, serialized by data dependencies, so identical
/// resubmissions hit deterministically under every front-end.
fn serve_stream(rt: &mut Runtime) -> Vec<Submission> {
    let d = rt.register(vec![0.0; 16], "d");
    (0..6)
        .map(|i| Submission {
            tenant: i % 2,
            tasks: vec![
                TaskBuilder::new("K")
                    .access(d, AccessMode::Write)
                    .cpu(|ctx| ctx.w(0)[0] = 3.0),
                TaskBuilder::new("K")
                    .access(d, AccessMode::Read)
                    .cpu(|_| {}),
            ],
        })
        .collect()
}

#[test]
fn every_serve_frontend_survives_restart_chaos() {
    let platform = multiprio_suite::platform::presets::homogeneous(2);
    let model: Arc<dyn PerfModel> = Arc::new(UniformModel { time_us: 5.0 });
    let stream_cfg = StreamConfig::new(TenantSpec::equal(2));
    let fronts = [
        ("global", Front::Global),
        ("sharded", Front::Sharded(2)),
        ("relaxed", Front::Relaxed(RelaxedConfig::default())),
    ];
    // One representative plan per fault class — the full matrix runs on
    // the batch engines above; front-ends share the same cache code.
    let serve_plans = [
        ("clean", PersistFaultPlan::default()),
        ("kill", PersistFaultPlan::seeded(3).kill_after_bytes(150)),
        (
            "flip",
            PersistFaultPlan::seeded(5).bit_flip(splitmix64(5), 3),
        ),
    ];
    for (fname, front) in fronts {
        let cfg = DiffConfig {
            front,
            ..DiffConfig::default()
        };
        for (pname, plan) in serve_plans {
            let dir = tmpdir(&format!("serve-{fname}-{pname}"));
            let report = restart_serve_audit(
                &platform,
                &model,
                &fifo,
                &cfg,
                &stream_cfg,
                &serve_stream,
                &dir,
                plan,
            );
            assert!(
                report.is_clean(),
                "{fname}/{pname}: {:?}",
                report.mismatches
            );
            assert!(report.twin_warm.hits > 0, "{fname}/{pname}: warm must hit");
            if plan.is_clean() {
                assert_eq!(
                    report.restart_warm.hits, report.twin_warm.hits,
                    "{fname}/{pname}: clean restart must match the twin's hits"
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
