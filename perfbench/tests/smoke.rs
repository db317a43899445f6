//! Runs every workload end to end at smoke size, untraced and traced, and
//! checks the result line carries every metric `BENCHMARK.json` declares;
//! checks `layers.json` maps every per-layer metric onto declared metrics
//! and workloads.

use std::process::Command;

use serde_json::Value;

fn json(text: &str) -> Value {
    serde_json::from_str(text).expect("valid JSON")
}

fn spec() -> Value {
    json(include_str!("../../BENCHMARK.json"))
}

fn strings(v: Option<&Value>) -> Vec<String> {
    match v {
        Some(Value::Array(items)) => items
            .iter()
            .map(|i| match i {
                Value::Str(s) => s.clone(),
                other => panic!("expected a string, got {other:?}"),
            })
            .collect(),
        other => panic!("expected an array, got {other:?}"),
    }
}

/// The `name` of every entry of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    match spec().get(section) {
        Some(Value::Array(entries)) => entries
            .iter()
            .map(|e| match e.get("name") {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{section}: bad name {other:?}"),
            })
            .collect(),
        other => panic!("{section}: expected an array, got {other:?}"),
    }
}

fn result(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_cahd-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace}:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json(stdout.lines().last().unwrap_or_default())
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for workload in declared("workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = result(&workload, trace);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{line:?}");
            assert_eq!(line.get("failed"), Some(&Value::Num(0.0)), "{line:?}");
            let metrics = line.get("metrics").expect("metrics present");
            for metric in declared(section) {
                let value = metrics.get(&metric).and_then(|m| m.get("value"));
                assert!(
                    matches!(value, Some(Value::Num(_))),
                    "{workload}: {metric} missing"
                );
            }
        }
    }
}

#[test]
fn layer_map_covers_every_per_layer_metric() {
    let map = json(include_str!("../layers.json"));
    let Some(Value::Array(layers)) = map.get("layers") else {
        panic!("layers.json has no layers array");
    };
    let per_layer = declared("per_layer");
    let end_to_end = declared("end_to_end");
    let workloads = declared("workloads");
    let mapped: Vec<String> = layers
        .iter()
        .map(|l| match l.get("metric") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("bad metric {other:?}"),
        })
        .collect();
    assert_eq!(
        mapped, per_layer,
        "layers.json must list per_layer in order"
    );
    for (l, metric) in layers.iter().zip(&mapped) {
        for moved in strings(l.get("moves")) {
            assert!(end_to_end.contains(&moved), "{metric}: unknown {moved}");
        }
        let on = strings(l.get("on"));
        assert!(!on.is_empty(), "{metric}: no workload");
        for w in on {
            assert!(workloads.contains(&w), "{metric}: unknown workload {w}");
        }
        match l.get("explains") {
            Some(Value::Null) => {}
            Some(Value::Str(s)) => assert!(per_layer.contains(s), "{metric}: explains {s}"),
            other => panic!("{metric}: bad explains {other:?}"),
        }
    }
}
