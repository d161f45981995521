//! `repro` and `compare` reject bad input before anything runs: an
//! unknown flag or experiment name prints `repro`'s usage to stderr and
//! exits 2, and an unknown probe matrix, scheduler or platform is a
//! one-line error naming the valid ones, also with status 2.

use std::process::Command;

/// Run the binary `exe` with `args`; its exit code, stdout and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    run(env!("CARGO_BIN_EXE_repro"), args)
}

fn compare(args: &[&str]) -> (Option<i32>, String, String) {
    run(env!("CARGO_BIN_EXE_compare"), args)
}

/// Assert a one-line status-2 rejection that names `bad` and `valid`.
fn assert_rejected((code, stdout, stderr): (Option<i32>, String, String), bad: &str, valid: &str) {
    assert_eq!((code, stdout.as_str()), (Some(2), ""));
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains(bad) && stderr.contains(valid), "{stderr}");
}

#[test]
fn unknown_experiment_prints_the_usage_and_exits_2() {
    let (code, stdout, stderr) = repro(&["fig99"]);
    assert_eq!((code, stdout.as_str()), (Some(2), ""));
    assert!(
        stderr.contains("fig99") && stderr.contains("usage: repro"),
        "{stderr}"
    );
}

#[test]
fn unknown_flag_prints_the_usage_and_exits_2() {
    let (code, stdout, stderr) = repro(&["--serv"]);
    assert_eq!((code, stdout.as_str()), (Some(2), ""));
    assert!(
        stderr.contains("--serv") && stderr.contains("usage: repro"),
        "{stderr}"
    );
}

#[test]
fn unknown_probe_matrix_names_the_fig7_presets_and_exits_2() {
    assert_rejected(repro(&["probe", "NOPE"]), "NOPE", "TF17");
}

#[test]
fn unknown_serve_policy_names_the_schedulers_and_exits_2() {
    let valid = "multiprio, multiprio-reference";
    assert_rejected(repro(&["--serve", "--policy", "heft"]), "heft", valid);
    let cached = repro(&["--serve", "--cache", "--policy", "heft"]);
    assert_rejected(cached, "heft", "prio, random");
}

#[test]
fn compare_rejects_an_unknown_scheduler_or_platform_with_status_2() {
    assert_rejected(compare(&["potrf", "intel", "heft"]), "heft", "dmdas");
    let platform = compare(&["potrf", "mars"]);
    assert_rejected(platform, "mars", "intel, amd, simple");
}
