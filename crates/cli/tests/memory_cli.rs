//! End-to-end `--memory` coverage for the CLI command functions, with
//! the tracking allocator registered the way the real `cahd-cli` binary
//! registers it in `main.rs`.
//!
//! One `#[test]` on purpose: the allocator counters are process-global,
//! so parallel tests in one binary would interleave their windows.

use cahd_cli::args::{Args, FlagSpec};
use cahd_cli::commands;
use cahd_obs::{memtrack, TraceReport, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("cahd_memcli_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn parse(spec: &[FlagSpec], argv: &[&str]) -> Args {
    let v: Vec<String> = argv.iter().map(std::string::ToString::to_string).collect();
    Args::parse(&v, spec).unwrap()
}

#[test]
fn memory_flag_reports_per_phase_allocation_everywhere() {
    assert!(memtrack::is_active());
    let data_f = tmp("mem.dat");
    let rel_f = tmp("mem_rel.json");
    let trace_f = tmp("mem_trace.json");
    commands::generate(&parse(
        commands::GENERATE_FLAGS,
        &[
            "quest",
            "--out",
            &data_f,
            "--transactions",
            "400",
            "--items",
            "60",
            "--seed",
            "13",
        ],
    ))
    .unwrap();

    // --- anonymize --memory: rendering implied, memory block present ----
    let out = commands::anonymize(&parse(
        commands::ANONYMIZE_FLAGS,
        &[&data_f, "--p", "5", "--random-m", "4", "--memory"],
    ))
    .unwrap();
    assert!(out.contains("memory (tracking allocator"), "{out}");
    assert!(out.contains("mem.peak_bytes"), "{out}");
    assert!(out.contains("peak@close"), "{out}");

    // --- anonymize --memory --trace-json: report has the memory section
    // and survives the full check registry, CAHD-O002 included ----------
    let out = commands::anonymize(&parse(
        commands::ANONYMIZE_FLAGS,
        &[
            &data_f,
            "--p",
            "5",
            "--random-m",
            "4",
            "--memory",
            "--out",
            &rel_f,
            "--trace-json",
            &trace_f,
        ],
    ))
    .unwrap();
    assert!(out.contains("trace written to"), "{out}");
    // --memory with --trace-json does not imply the human rendering.
    assert!(!out.contains("memory (tracking allocator"), "{out}");
    let trace: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
    let mem = trace.memory.as_ref().expect("memory section present");
    assert!(mem.span("pipeline").is_some());
    assert!(mem.totals.peak_bytes > 0);
    let ok = commands::check(&parse(
        commands::CHECK_FLAGS,
        &[&data_f, &rel_f, "--p", "5", "--trace", &trace_f],
    ))
    .unwrap();
    assert!(ok.contains("check: PASS"), "{ok}");
    // Corrupting the memory totals makes the CAHD-O002 pass fail.
    let mut bad = trace.clone();
    bad.memory.as_mut().unwrap().totals.dealloc_bytes = u64::MAX;
    std::fs::write(&trace_f, serde_json::to_string(&bad).unwrap()).unwrap();
    let err = commands::check(&parse(
        commands::CHECK_FLAGS,
        &[&data_f, &rel_f, "--p", "5", "--trace", &trace_f],
    ));
    match err {
        Err(cahd_cli::CliError::Check(out)) => assert!(out.contains("CAHD-O002"), "{out}"),
        other => panic!("expected CliError::Check, got {other:?}"),
    }

    // --- weighted path: tracing is no longer rejected -------------------
    let wdat_f = tmp("mem.wdat");
    let mut lines = String::new();
    for i in 0..60 {
        let sens = if i % 12 == 0 { " 3:1" } else { "" };
        lines.push_str(&format!("{}:2 2:1{sens}\n", i % 2));
    }
    std::fs::write(&wdat_f, lines).unwrap();
    let out = commands::anonymize(&parse(
        commands::ANONYMIZE_FLAGS,
        &[
            &wdat_f,
            "--weighted",
            "--p",
            "4",
            "--sensitive",
            "3",
            "--memory",
            "--metrics",
        ],
    ))
    .unwrap();
    assert!(out.contains("weighted"), "{out}");
    assert!(out.contains("spans:"), "{out}");
    assert!(out.contains("memory (tracking allocator"), "{out}");

    // --- streaming path: batched pipeline windows accumulate ------------
    let stream_f = tmp("mem_stream.dat");
    let mut lines = String::new();
    for i in 0..180 {
        let sens = if i % 20 == 0 { " 9" } else { "" };
        lines.push_str(&format!("{} {}{sens}\n", i % 5, 5 + i % 3));
    }
    std::fs::write(&stream_f, lines).unwrap();
    let out = commands::anonymize(&parse(
        commands::ANONYMIZE_FLAGS,
        &[
            &stream_f,
            "--p",
            "3",
            "--sensitive",
            "9",
            "--stream-batch",
            "50",
            "--memory",
        ],
    ))
    .unwrap();
    assert!(out.contains("streaming"), "{out}");
    assert!(out.contains("memory (tracking allocator"), "{out}");
    assert!(out.contains("pipeline"), "{out}");

    // --- bad-input on a clean file: the raw rows are the dataset -------
    // The robust path sanitizes once, so on a clean input its peak is the
    // batch path's: no second copy of the input CSR beside it.
    let peak = |argv: &[&str]| {
        commands::anonymize(&parse(commands::ANONYMIZE_FLAGS, argv)).unwrap();
        let t: TraceReport =
            serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
        t.memory.expect("memory section present").totals.peak_bytes
    };
    let base = [
        data_f.as_str(),
        "--p",
        "5",
        "--random-m",
        "4",
        "--memory",
        "--trace-json",
        &trace_f,
    ];
    let batch_peak = peak(&base);
    let robust_peak = peak(&[&base[..], &["--bad-input", "strict"]].concat());
    let data = cahd_data::io::read_dat_file(&data_f, None).unwrap();
    let csr_bytes = 4 * data.matrix().nnz() + 8 * (data.n_transactions() + 1);
    assert!(
        robust_peak < batch_peak + csr_bytes as u64 / 8,
        "--bad-input peak {robust_peak} vs batch {batch_peak}: a second copy of the \
         {csr_bytes}-byte input CSR"
    );

    // --- evaluate --trace-json: the query workload, audited -------------
    let plain = commands::evaluate(&parse(commands::EVALUATE_FLAGS, &[&data_f, &rel_f])).unwrap();
    let eval_f = tmp("mem_eval_trace.json");
    let traced = commands::evaluate(&parse(
        commands::EVALUATE_FLAGS,
        &[&data_f, &rel_f, "--trace-json", &eval_f],
    ))
    .unwrap();
    assert_eq!(traced, format!("{plain}trace written to {eval_f}\n"));
    let trace: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&eval_f).unwrap()).unwrap();
    assert!(trace.span("eval").is_some() && trace.span("eval/index").is_some());
    assert!(trace.counter("eval.queries").is_some_and(|q| q > 0));
    let ok = commands::check(&parse(
        commands::CHECK_FLAGS,
        &[&data_f, &rel_f, "--p", "5", "--trace", &eval_f],
    ))
    .unwrap();
    assert!(ok.contains("check: PASS"), "{ok}");

    for f in [&data_f, &rel_f, &trace_f, &wdat_f, &stream_f, &eval_f] {
        std::fs::remove_file(f).ok();
    }
}
