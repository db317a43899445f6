//! Commands and flags that another command answers are gone, and naming
//! one is a usage error (exit 2 with the usage text), never a run:
//! `verify` is `check`, `profile` is `anonymize --trace-json` followed by
//! `check --trace` and `evaluate --trace-json`, and `audit --release` is
//! `attack --attacker linkage`.
//!
//! Runs the real binary, as a user would.

use std::path::Path;
use std::process::Command;

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Asserts exit 2 with `error: <message>` and the usage text on stderr.
fn assert_usage_error(args: &[&str], message: &str) {
    let run = Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(run.stdout.is_empty(), "{args:?}");
}

#[test]
fn removed_commands_and_flags_are_usage_errors() {
    let (data, release) = (fixture("demo.dat"), fixture("demo_release.json"));
    assert_usage_error(
        &["verify", &data, &release, "--p", "4"],
        "unknown command \"verify\"",
    );
    assert_usage_error(
        &["profile", &data, "--p", "4", "--sensitive", "14,26,28"],
        "unknown command \"profile\"",
    );
    assert_usage_error(
        &["audit", &data, "--release", &release],
        "unknown flag --release",
    );
}
