//! Allocation regression test for group formation over a huge item
//! universe, with the tracking allocator registered the way the real
//! `cahd-cli` binary registers it in `main.rs`.
//!
//! A stream batch of 1,000 rows over a 2M-item universe touches a few
//! thousand items. Group formation must allocate for those, not for the
//! universe: a similarity kernel sized on all 2M items would allocate
//! ~7.6 MiB of stamps per batch, and a universe-wide sensitive bitmap
//! another ~1.9 MiB. The same run writes its release with `--out`, so
//! the `serialize` window and the run's peak are bounded too.
//!
//! A test binary of its own: the allocator counters are process-global,
//! so parallel tests in one binary would interleave their windows.

use cahd_cli::args::{Args, FlagSpec};
use cahd_cli::commands;
use cahd_obs::{memtrack, TraceReport, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Ceiling on `pipeline/group`'s allocation per stream batch.
const GROUP_BYTES_PER_BATCH: u64 = 1 << 20;

/// Ceiling on the `serialize` window's allocation. The merged release is
/// ~200 KiB of JSON and must stream to disk through a fixed buffer:
/// building it as one string allocates ~512 KiB.
const SERIALIZE_BYTES: u64 = 128 << 10;

/// Ceiling on the `anonymize` run's process peak above the bytes live
/// when it starts. Each row may exist once per form it needs: raw until
/// its batch releases, and once in the merge dataset. Cloning rows per
/// batch or sanitizing them again at the merge lifts this run past
/// 1.2 MiB.
const PROCESS_PEAK_BYTES: u64 = 1 << 20;

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("cahd_groupmem_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn parse(spec: &[FlagSpec], argv: &[&str]) -> Args {
    let v: Vec<String> = argv.iter().map(std::string::ToString::to_string).collect();
    Args::parse(&v, spec).unwrap()
}

#[test]
fn stream_group_phase_allocates_per_batch_not_per_universe() {
    assert!(memtrack::is_active());
    let data_f = tmp("wide.dat");
    let trace_f = tmp("trace.json");
    let release_f = tmp("release.json");
    commands::generate(&parse(
        commands::GENERATE_FLAGS,
        &[
            "quest",
            "--out",
            &data_f,
            "--transactions",
            "4000",
            "--items",
            "2000000",
            "--avg-len",
            "4",
            "--patterns",
            "100000",
            "--seed",
            "7",
        ],
    ))
    .unwrap();
    let text = std::fs::read_to_string(&data_f).unwrap();
    let first: Vec<&str> = text.lines().next().unwrap().split(' ').take(2).collect();
    let sensitive = first.join(",");

    memtrack::reset_peak();
    let live_before = memtrack::stats().live_bytes;
    let out = commands::anonymize(&parse(
        commands::ANONYMIZE_FLAGS,
        &[
            &data_f,
            "--p",
            "4",
            "--sensitive",
            &sensitive,
            "--stream-batch",
            "1000",
            "--memory",
            "--trace-json",
            &trace_f,
            "--out",
            &release_f,
        ],
    ))
    .unwrap();
    let run_peak = memtrack::stats().peak_bytes - live_before;
    assert!(out.contains("4 chunks"), "{out}");
    let trace: TraceReport =
        serde_json::from_str(&std::fs::read_to_string(&trace_f).unwrap()).unwrap();
    let mem = trace.memory.as_ref().expect("memory section present");
    let group = mem.span("pipeline/group").expect("group window");
    assert_eq!(group.count, 4);
    let per_batch = group.alloc_bytes / group.count;
    assert!(
        per_batch < GROUP_BYTES_PER_BATCH,
        "pipeline/group allocated {per_batch} bytes per batch"
    );

    let serialize = mem.span("serialize").expect("serialize window");
    assert!(
        serialize.alloc_bytes < SERIALIZE_BYTES,
        "serialize allocated {} bytes",
        serialize.alloc_bytes
    );
    assert!(
        run_peak < PROCESS_PEAK_BYTES,
        "anonymize peaked {run_peak} bytes above its start"
    );

    for f in [&data_f, &trace_f, &release_f] {
        std::fs::remove_file(f).ok();
    }
}
