//! A release whose sensitive ids lie past the `.dat`'s item universe is
//! refused by every command that reads one, never with a panic.
//!
//! `anonymize --stream-batch --sensitive` widens the release's universe to
//! hold every named sensitive id, so on `fixtures/demo.dat` (items 0..30)
//! `--sensitive 36,37,38` writes exactly such a release. `check` reports
//! it as a `CAHD-S002` finding; `verify`, `evaluate`, `attack` and
//! `audit --release` fail with a run error.
//!
//! Runs the real binary so a panic shows as exit code 101, not as a
//! caught unwind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn demo_dat() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/demo.dat")
        .to_string_lossy()
        .into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cahd_universe_cli_{}_{name}", std::process::id()))
}

fn cahd_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .args(args)
        .env_remove("CAHD_SEED")
        .output()
        .unwrap()
}

/// Writes the past-universe release and returns its path.
fn wide_release(name: &str) -> PathBuf {
    let out = tmp(name);
    let run = cahd_cli(&[
        "anonymize",
        &demo_dat(),
        "--p",
        "2",
        "--stream-batch",
        "20",
        "--sensitive",
        "36,37,38",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    out
}

/// Asserts a plain run failure (exit 1) naming the out-of-universe id.
fn assert_refused(run: &Output, command: &str) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{command}: {stderr}");
    assert!(
        stderr.contains("release names sensitive item 36, outside the data's universe of 30 items"),
        "{command}: {stderr}"
    );
}

#[test]
fn check_reports_the_release_as_a_finding() {
    let release = wide_release("check.json");
    let run = cahd_cli(&["check", &demo_dat(), release.to_str().unwrap(), "--p", "2"]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(
        run.status.code(),
        Some(1),
        "{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("error[CAHD-S002]"), "{stdout}");
    std::fs::remove_file(release).ok();
}

#[test]
fn verify_refuses_the_release() {
    let release = wide_release("verify.json");
    let run = cahd_cli(&["verify", &demo_dat(), release.to_str().unwrap(), "--p", "2"]);
    assert_refused(&run, "verify");
    std::fs::remove_file(release).ok();
}

#[test]
fn evaluate_refuses_the_release() {
    let release = wide_release("evaluate.json");
    let run = cahd_cli(&["evaluate", &demo_dat(), release.to_str().unwrap()]);
    assert_refused(&run, "evaluate");
    std::fs::remove_file(release).ok();
}

#[test]
fn attack_refuses_the_release() {
    let release = wide_release("attack.json");
    let run = cahd_cli(&["attack", &demo_dat(), release.to_str().unwrap(), "--p", "2"]);
    assert_refused(&run, "attack");
    std::fs::remove_file(release).ok();
}

#[test]
fn audit_refuses_the_release() {
    let release = wide_release("audit.json");
    let run = cahd_cli(&[
        "audit",
        &demo_dat(),
        "--release",
        release.to_str().unwrap(),
        "--trials",
        "10",
    ]);
    assert_refused(&run, "audit");
    std::fs::remove_file(release).ok();
}
