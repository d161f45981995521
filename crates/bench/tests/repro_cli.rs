//! `repro` rejects bad input before anything runs: an unknown flag or
//! experiment name prints the usage to stderr and exits 2, and an
//! unknown probe matrix is a one-line error naming the Fig. 7 presets.

use std::process::Command;

/// Run `repro` with `args`; its exit code, stdout and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
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
    let (code, stdout, stderr) = repro(&["probe", "NOPE"]);
    assert_eq!((code, stdout.as_str()), (Some(2), ""));
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.contains("NOPE") && stderr.contains("TF17"),
        "{stderr}"
    );
}
