//! The `cahd-cli` binary on the adversary suite's edges: releases whose
//! `sensitive_counts` name items that are not sensitive, or lie outside
//! the item universe, and the `attack --trace-json` span tree.
//!
//! Runs the real binary so a panic shows as exit code 101, not as a
//! caught unwind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cahd_core::PublishedDataset;
use cahd_obs::TraceReport;

/// The demo release was built with `--p 4`.
const DEMO_P: &str = "4";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cahd_attack_cli_{}_{name}", std::process::id()))
}

fn cahd_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .args(args)
        .output()
        .unwrap()
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn bogus_sensitive_counts_fail_closed() {
    let data = fixture("demo.dat");
    let clean: PublishedDataset =
        serde_json::from_str(&std::fs::read_to_string(fixture("demo_release.json")).unwrap())
            .unwrap();
    assert!(!clean.sensitive_items.contains(&3));
    // A QID item named as sensitive, and an id past the universe.
    for (tag, entry) in [("nonsensitive", (3, 1)), ("out_of_universe", (999, 1))] {
        let mut release = clean.clone();
        release.groups[0].sensitive_counts.push(entry);
        let path = tmp(&format!("{tag}.json"));
        std::fs::write(&path, serde_json::to_string(&release).unwrap()).unwrap();
        let args = [path_str(&data), path_str(&path), "--p", DEMO_P];

        let attack = cahd_cli(&[&["attack"], &args[..]].concat());
        let code = attack.status.code();
        assert!(
            matches!(code, Some(0 | 1)),
            "{tag}: attack exited with {code:?}\n{}",
            String::from_utf8_lossy(&attack.stderr)
        );

        let check = cahd_cli(&[&["check"], &args[..], &["--json"]].concat());
        assert_eq!(
            check.status.code(),
            Some(1),
            "{tag}: check must fail\n{}",
            String::from_utf8_lossy(&check.stderr)
        );
        let report = String::from_utf8_lossy(&check.stdout);
        assert!(
            report.contains("CAHD-S001") || report.contains("CAHD-S002"),
            "{tag}: no sensitive-summary error in {report}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn attack_trace_has_one_child_span_per_stage() {
    let data = fixture("demo.dat");
    let release = fixture("demo_release.json");
    let trace_path = tmp("trace.json");
    let attack = cahd_cli(&[
        "attack",
        path_str(&data),
        path_str(&release),
        "--p",
        DEMO_P,
        "--trace-json",
        path_str(&trace_path),
    ]);
    assert_eq!(attack.status.code(), Some(0));
    let trace: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let children: Vec<&str> = trace
        .span_children("attack")
        .iter()
        .map(|s| s.path.as_str())
        .collect();
    assert_eq!(
        children,
        [
            "attack/background",
            "attack/index",
            "attack/intersection",
            "attack/linkage",
            "attack/vulnerable"
        ]
    );
    assert!(
        trace.orphan_spans().is_empty(),
        "{:?}",
        trace.orphan_spans()
    );
    assert!(trace.counter_or_zero("eval.attack_curve_points") > 0);

    // The trace passes its own CAHD-O001 audit.
    let check = cahd_cli(&[
        "check",
        path_str(&data),
        path_str(&release),
        "--p",
        DEMO_P,
        "--trace",
        path_str(&trace_path),
        "--json",
    ]);
    let report = String::from_utf8_lossy(&check.stdout);
    assert_eq!(check.status.code(), Some(0), "{report}");
    assert!(!report.contains("CAHD-O001"), "{report}");
    std::fs::remove_file(&trace_path).ok();
}
