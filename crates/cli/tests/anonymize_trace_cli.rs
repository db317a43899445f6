//! The `anonymize --trace-json` span tree of the batch `cahd` and
//! `--stream-batch` paths, from the real binary: the trace covers the
//! whole run from the `.dat` input (`ingest`) through `pipeline` (and, when
//! streaming, the chunk `merge`) to the written release (`serialize`),
//! every span is rooted, and `check --trace` audits it clean.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cahd_obs::TraceReport;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cahd_anon_trace_cli_{}_{name}", std::process::id()))
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

/// `check --trace` on the written release and trace passes, and the
/// trace-obs pass ran without a `CAHD-O001` finding.
fn assert_check_passes(data: &Path, release: &Path, trace: &Path) {
    let check = cahd_cli(&[
        "check",
        path_str(data),
        path_str(release),
        "--p",
        "4",
        "--trace",
        path_str(trace),
        "--json",
    ]);
    let report = String::from_utf8_lossy(&check.stdout);
    assert_eq!(check.status.code(), Some(0), "{report}");
    assert!(report.contains("\"trace-obs\""), "{report}");
    assert!(!report.contains("CAHD-O001"), "{report}");
}

#[test]
fn batch_trace_spans_ingest_to_serialize() {
    let data = fixture("demo.dat");
    let release = tmp("release.json");
    let trace_f = tmp("trace.json");
    // `--memory` too, so the memory section's per-span windows are
    // audited with the new root spans in place.
    let run = cahd_cli(&[
        "anonymize",
        path_str(&data),
        "--p",
        "4",
        "--random-m",
        "3",
        "--seed",
        "5",
        "--rowgraph",
        "implicit",
        "--memory",
        "--out",
        path_str(&release),
        "--trace-json",
        path_str(&trace_f),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let trace: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
    for root in ["ingest", "pipeline", "serialize"] {
        let span = trace.span(root).unwrap_or_else(|| panic!("no {root} span"));
        assert_eq!(span.count, 1, "{root}");
    }
    assert!(trace.span("pipeline/rcm/aat_build/degrees").is_some());
    assert!(trace.counter_or_zero("sparse.degree_words") > 0);
    assert_eq!(trace.orphan_spans(), Vec::<&str>::new());
    assert_eq!(trace.consistency_findings(), Vec::<String>::new());
    assert_check_passes(&data, &release, &trace_f);
    for f in [release, trace_f] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn stream_trace_spans_ingest_merge_and_serialize() {
    let data = fixture("demo.dat");
    let release = tmp("stream_release.json");
    let trace_f = tmp("stream_trace.json");
    let run = cahd_cli(&[
        "anonymize",
        path_str(&data),
        "--p",
        "4",
        "--sensitive",
        "14,26,28",
        "--stream-batch",
        "40",
        "--memory",
        "--out",
        path_str(&release),
        "--trace-json",
        path_str(&trace_f),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let trace: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
    for root in ["ingest", "merge", "serialize"] {
        let span = trace.span(root).unwrap_or_else(|| panic!("no {root} span"));
        assert_eq!(span.count, 1, "{root}");
    }
    // One pipeline window per released batch of the 120 rows.
    assert_eq!(trace.span("pipeline").map(|s| s.count), Some(3));
    let mem = trace.memory.as_ref().expect("memory section present");
    for root in ["ingest", "merge", "serialize"] {
        assert!(mem.span(root).is_some(), "no {root} memory window");
    }
    assert_eq!(trace.orphan_spans(), Vec::<&str>::new());
    assert_eq!(trace.consistency_findings(), Vec::<String>::new());
    assert_check_passes(&data, &release, &trace_f);
    for f in [release, trace_f] {
        let _ = std::fs::remove_file(f);
    }
}
