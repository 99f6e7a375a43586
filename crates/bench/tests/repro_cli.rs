//! Argument checking of the `repro` binary: an unrecognised flag or artefact
//! name must fail with exit code 2 before anything runs, so a typo in a CI
//! invocation cannot pass for a clean, empty audit.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_rejected(args: &[&str], unknown: &str) {
    let output = repro(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
    assert!(output.stdout.is_empty(), "{args:?} rendered output");
    assert!(stderr.contains(unknown), "{args:?}: stderr:\n{stderr}");
    assert!(
        stderr.contains("headline") && stderr.contains("case-study"),
        "{args:?}: the valid artefact names are listed:\n{stderr}"
    );
}

#[test]
fn misspelled_flag_exits_2() {
    assert_rejected(
        &["--smoke", "--check-invariant", "headline"],
        "--check-invariant",
    );
}

#[test]
fn unknown_artefact_exits_2() {
    assert_rejected(&["--smoke", "--check-invariants", "tabel1"], "tabel1");
}

#[test]
fn list_scenarios_still_exits_0() {
    let output = repro(&["--list-scenarios"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("paper-two-year"));
}
