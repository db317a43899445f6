//! The `anonymize --trace-json` span tree of the batch `cahd`,
//! `--stream-batch`, `--weighted` and `--bad-input` paths, from the real
//! binary: the
//! trace covers the whole run from the input (`ingest`) through `pipeline`
//! (and, when streaming, the chunk `merge`) to the written release
//! (`serialize`), every span is rooted, and `check --trace` audits it
//! clean. `check --trace-json` writes a root `ingest` span (reading the
//! data and the release), one `check/<pass>` span per default pass under
//! a root `check` span and the `check.*` size counters, and that trace
//! audits clean too. A
//! traced run writes the same release bytes as an untraced one on the
//! batch and `--stream-batch` paths, and its band gauges are the
//! statistics `BandReduction::band_stats` computes on request.

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

/// The committed trace fixture (what CI's traced fixture run writes:
/// `anonymize fixtures/demo.dat --sensitive 14,26,28 --p 4 --shards 4
/// --threads 2 --trace-json --metrics`) and the release it describes audit
/// clean, and the trace reads back with the run's root spans.
#[test]
fn committed_trace_fixture_audits_clean() {
    let trace_f = fixture("demo_trace.json");
    assert_check_passes(
        &fixture("demo.dat"),
        &fixture("demo_trace_release.json"),
        &trace_f,
    );
    let report: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
    for root in ["ingest", "pipeline", "serialize"] {
        assert!(report.span(root).is_some(), "missing root span {root}");
    }
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

#[test]
fn check_trace_spans_every_pass_and_audits_clean() {
    let data = fixture("demo.dat");
    let release = fixture("demo_release.json");
    let trace_f = tmp("check_trace.json");
    let run = cahd_cli(&[
        "check",
        path_str(&data),
        path_str(&release),
        "--p",
        "4",
        "--trace-json",
        path_str(&trace_f),
    ]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(run.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("trace written to"), "{stdout}");
    let trace: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
    assert_eq!(trace.span("ingest").map(|s| s.count), Some(1));
    assert_eq!(trace.span("check").map(|s| s.count), Some(1));
    let published: cahd_core::PublishedDataset =
        serde_json::from_str(&std::fs::read_to_string(&release).unwrap()).unwrap();
    let sizes: Vec<u64> = published.groups.iter().map(|g| g.size() as u64).collect();
    assert_eq!(
        trace.counter_or_zero("check.band_pairs"),
        sizes.iter().map(|&s| s * (s - 1) / 2).sum::<u64>()
    );
    assert_eq!(
        trace.counter_or_zero("check.largest_group"),
        *sizes.iter().max().unwrap()
    );
    let registry = cahd_check::default_registry();
    for pass in registry.passes() {
        let path = format!("check/{}", pass.name());
        assert_eq!(trace.span(&path).map(|s| s.count), Some(1), "{path}");
    }
    assert_eq!(trace.span_children("check").len(), registry.passes().len());
    assert_eq!(trace.orphan_spans(), Vec::<&str>::new());
    assert_eq!(trace.consistency_findings(), Vec::<String>::new());
    // `--json` keeps stdout one JSON object while still writing the trace.
    let json = cahd_cli(&[
        "check",
        path_str(&data),
        path_str(&release),
        "--p",
        "4",
        "--json",
        "--trace-json",
        path_str(&trace_f),
    ]);
    let out = String::from_utf8_lossy(&json.stdout);
    assert_eq!(json.status.code(), Some(0), "{out}");
    assert_eq!(out.lines().count(), 1, "{out}");
    assert!(out.starts_with('{'), "{out}");
    // The check's own trace passes the trace audit.
    assert_check_passes(&data, &release, &trace_f);
    let _ = std::fs::remove_file(trace_f);
}

#[test]
fn weighted_trace_spans_ingest_to_serialize() {
    let wdat = tmp("weighted.wdat");
    let release = tmp("weighted_release.json");
    let trace_f = tmp("weighted_trace.json");
    // Items 0..3 QID-ish with counts, item 3 sensitive in every 12th row.
    let mut lines = String::new();
    for i in 0..60 {
        let sens = if i % 12 == 0 { " 3:1" } else { "" };
        lines.push_str(&format!("{}:2 2:1{sens}\n", i % 2));
    }
    std::fs::write(&wdat, lines).unwrap();
    let run = cahd_cli(&[
        "anonymize",
        path_str(&wdat),
        "--weighted",
        "--p",
        "4",
        "--sensitive",
        "3",
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
    let mem = trace.memory.as_ref().expect("memory section present");
    for root in ["ingest", "pipeline", "serialize"] {
        assert!(mem.span(root).is_some(), "no {root} memory window");
    }
    assert_eq!(trace.orphan_spans(), Vec::<&str>::new());
    assert_eq!(trace.consistency_findings(), Vec::<String>::new());
    assert_eq!(mem.consistency_findings(), Vec::<String>::new());
    // The scorer's path counters balance the scanned candidates
    // (`CAHD-O001`). `check` cannot read a weighted input or release, but
    // its trace passes read only the trace, so they run beside the demo
    // pair.
    assert!(trace.counter_or_zero("core.candidates_scanned") > 0);
    assert_check_passes(
        &fixture("demo.dat"),
        &fixture("demo_release.json"),
        &trace_f,
    );
    for f in [wdat, release, trace_f] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn bad_input_trace_spans_ingest_to_serialize() {
    let data = tmp("bad_input.dat");
    let release = tmp("bad_input_release.json");
    let trace_f = tmp("bad_input_trace.json");
    // The demo rows plus one that repeats an item: quarantined, sanitized
    // and published in the final group.
    let mut text = std::fs::read_to_string(fixture("demo.dat")).unwrap();
    text.push_str("3 5 5 9\n");
    std::fs::write(&data, text).unwrap();
    let run = cahd_cli(&[
        "anonymize",
        path_str(&data),
        "--p",
        "4",
        "--sensitive",
        "14,26,28",
        "--bad-input",
        "quarantine",
        "--memory",
        "--out",
        path_str(&release),
        "--trace-json",
        path_str(&trace_f),
    ]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("1 quarantined rows"), "{stdout}");
    let trace: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
    for root in ["ingest", "pipeline", "serialize"] {
        let span = trace.span(root).unwrap_or_else(|| panic!("no {root} span"));
        assert_eq!(span.count, 1, "{root}");
    }
    let mem = trace.memory.as_ref().expect("memory section present");
    for root in ["ingest", "pipeline", "serialize"] {
        assert!(mem.span(root).is_some(), "no {root} memory window");
    }
    assert_eq!(trace.counter("core.quarantined_rows"), Some(1));
    assert_eq!(trace.orphan_spans(), Vec::<&str>::new());
    assert_eq!(trace.consistency_findings(), Vec::<String>::new());
    assert_check_passes(&data, &release, &trace_f);
    for f in [data, release, trace_f] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn traced_and_untraced_releases_are_the_same_bytes() {
    // 600 rows over a 2M-item universe: every row holds an item of its
    // own, every third row one of 24 shared items, and the sensitive items
    // 100 and 101 sit in one row in ten each, so about half the rows
    // share no item with another row.
    let data = tmp("same_bytes.dat");
    let mut text = String::new();
    for i in 0..600u32 {
        let mut row = Vec::new();
        if i % 3 == 0 {
            row.push(i % 24);
        }
        match i % 10 {
            1 => row.push(100),
            6 => row.push(101),
            _ => {}
        }
        row.push(1_000_000 + 2 * i);
        let row: Vec<String> = row.iter().map(u32::to_string).collect();
        text.push_str(&row.join(" "));
        text.push('\n');
    }
    std::fs::write(&data, text).unwrap();
    let trace_f = tmp("same_bytes_trace.json");
    for (name, extra) in [
        ("batch", &[][..]),
        ("stream", &["--stream-batch", "200"][..]),
    ] {
        let release = |traced: bool| {
            let out = tmp(&format!("same_bytes_{name}_{traced}.json"));
            let mut args = vec![
                "anonymize",
                path_str(&data),
                "--p",
                "4",
                "--sensitive",
                "100,101",
                "--out",
                path_str(&out),
            ];
            args.extend_from_slice(extra);
            if traced {
                args.extend_from_slice(&["--trace-json", path_str(&trace_f), "--memory"]);
            }
            let run = cahd_cli(&args);
            assert!(
                run.status.success(),
                "{name}: {}",
                String::from_utf8_lossy(&run.stderr)
            );
            let bytes = std::fs::read(&out).unwrap();
            let _ = std::fs::remove_file(out);
            bytes
        };
        assert!(
            release(false) == release(true),
            "{name}: traced release differs"
        );
        let trace: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
        for span in ["pipeline/rcm/columns", "pipeline/rcm/stats"] {
            assert!(trace.span(span).is_some(), "{name}: no {span} span");
        }
        if name == "batch" {
            // The traced run's gauges are the statistics the reduction
            // computes on request.
            let set = cahd_data::io::read_dat_file(&data, None).unwrap();
            let a = set.matrix();
            let opts = cahd_rcm::UnsymOptions::default();
            let red = cahd_rcm::reduce_unsymmetric(a, opts, &cahd_obs::Recorder::disabled());
            let stats = red.band_stats(a);
            for (gauge, want) in [
                (
                    "rcm.bandwidth_before",
                    stats.before.max_diag_distance as f64,
                ),
                ("rcm.bandwidth_after", stats.after.max_diag_distance as f64),
                ("rcm.mean_row_span_before", stats.before.mean_row_span),
                ("rcm.mean_row_span_after", stats.after.mean_row_span),
            ] {
                assert_eq!(trace.gauge(gauge), Some(want), "{gauge}");
            }
        }
    }
    for f in [data, trace_f] {
        let _ = std::fs::remove_file(f);
    }
}
