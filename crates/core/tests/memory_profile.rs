//! Memory observability through the real pipeline, with
//! `cahd_obs::TrackingAllocator` registered as this binary's global
//! allocator.
//!
//! One `#[test]` on purpose: the allocator counters are process-global,
//! so parallel tests in the same binary would contaminate each other's
//! deltas. Four contracts are pinned here:
//!
//! 1. **Nothing kept when off** — every pipeline run with a disabled
//!    recorder performs exactly the same allocations.
//! 2. **Coherent attribution when on** — a memory-tracking run emits a
//!    `memory` section whose invariants (the `CAHD-O002` surface) hold,
//!    for sequential, sharded and streaming/checkpoint execution.
//! 3. **Cross-section agreement** — every memory window belongs to a
//!    recorded wall-clock span, and the `mem.*` gauges never exceed the
//!    snapshot totals.
//! 4. **The weighted split belongs to its group phase** — the flat row
//!    split of the weighted engine allocates inside `pipeline/group`, not
//!    in the parent `pipeline` window.

use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
use cahd_core::shard::ParallelConfig;
use cahd_core::split::RowSplit;
use cahd_core::streaming::StreamingAnonymizer;
use cahd_core::weighted::{anonymize_weighted, WeightedSimilarity};
use cahd_core::CahdConfig;
use cahd_data::{ItemId, SensitiveSet, TransactionSet, WeightedTransactionSet};
use cahd_obs::{memtrack, Recorder, TraceReport, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

const N: usize = 64;
const D: usize = 24;
const P: usize = 4;

fn rows() -> Vec<Vec<ItemId>> {
    (0..N)
        .map(|i| {
            let mut row = vec![
                (i % 20) as ItemId,
                ((i * 3) % 20) as ItemId,
                ((i * 7) % 20) as ItemId,
            ];
            if i % 8 == 0 {
                row.push(20);
            }
            if i % 8 == 4 {
                row.push(21);
            }
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect()
}

fn dataset() -> (TransactionSet, SensitiveSet) {
    (
        TransactionSet::from_rows(&rows(), D),
        SensitiveSet::new(vec![20, 21], D),
    )
}

/// Allocations performed by `f`, as an (allocs, alloc_bytes) delta.
fn alloc_delta<F: FnOnce()>(f: F) -> (u64, u64) {
    let before = memtrack::stats();
    f();
    let after = memtrack::stats();
    (
        after.allocs - before.allocs,
        after.alloc_bytes - before.alloc_bytes,
    )
}

fn audit_memory(report: &TraceReport) {
    let findings = report.consistency_findings();
    assert!(findings.is_empty(), "{findings:?}");
    let mem = report.memory.as_ref().expect("memory section present");
    let findings = mem.consistency_findings();
    assert!(findings.is_empty(), "{findings:?}");
    // Every memory window belongs to a recorded wall-clock span and
    // cannot have executed more often than it.
    for w in &mem.spans {
        let span = report
            .span(&w.path)
            .unwrap_or_else(|| panic!("memory window `{}` has no wall-clock span", w.path));
        assert!(w.count <= span.count, "{}", w.path);
    }
    // Gauges were recorded before the snapshot read its totals; both
    // counters are monotone.
    for (gauge, total) in [
        ("mem.alloc_bytes", mem.totals.alloc_bytes),
        ("mem.dealloc_bytes", mem.totals.dealloc_bytes),
        ("mem.allocs", mem.totals.allocs),
        ("mem.deallocs", mem.totals.deallocs),
        ("mem.peak_bytes", mem.totals.peak_bytes),
    ] {
        let g = report
            .gauge(gauge)
            .unwrap_or_else(|| panic!("gauge {gauge} missing"));
        assert!(g <= total as f64, "{gauge}: {g} > {total}");
    }
}

#[test]
fn memory_observability_end_to_end() {
    assert!(memtrack::is_active());
    let (data, sens) = dataset();
    let cfg = AnonymizerConfig::with_privacy_degree(P);
    let anon = Anonymizer::new(cfg);

    // --- 1. nothing kept when off ---------------------------------------
    // Warm up caches and lazy initialization, then compare two runs with
    // a disabled recorder: tracing off must keep no state between runs.
    for _ in 0..2 {
        anon.anonymize(&data, &sens, &Recorder::disabled())
            .expect("feasible");
    }
    let plain = alloc_delta(|| {
        anon.anonymize(&data, &sens, &Recorder::disabled())
            .expect("feasible");
    });
    let disabled = alloc_delta(|| {
        anon.anonymize(&data, &sens, &Recorder::disabled())
            .expect("feasible");
    });
    assert_eq!(
        plain, disabled,
        "a disabled recorder changed the pipeline's allocations"
    );

    // --- 2. sequential attribution --------------------------------------
    let rec = Recorder::new().with_memory();
    anon.anonymize(&data, &sens, &rec).expect("feasible");
    let report = rec.snapshot();
    audit_memory(&report);
    let mem = report.memory.as_ref().expect("memory section present");
    for path in [
        "pipeline",
        "pipeline/rcm",
        "pipeline/permute",
        "pipeline/group",
        "pipeline/unpermute",
    ] {
        assert!(mem.span(path).is_some(), "missing memory window {path}");
    }
    let root = mem.span("pipeline").expect("root window");
    assert!(root.alloc_bytes > 0, "pipeline window saw no allocations");

    // --- 3. sharded attribution (merge phase included) ------------------
    let sharded_cfg =
        AnonymizerConfig::with_privacy_degree(P).with_parallel(ParallelConfig::new(2, 2));
    let rec = Recorder::new().with_memory();
    Anonymizer::new(sharded_cfg)
        .anonymize(&data, &sens, &rec)
        .expect("feasible");
    let report = rec.snapshot();
    audit_memory(&report);
    let mem = report.memory.as_ref().expect("memory section present");
    assert!(
        mem.span("pipeline/group/merge").is_some(),
        "sharded run must attribute the merge phase"
    );

    // --- 4. streaming/checkpoint path ------------------------------------
    let rec = Recorder::new().with_memory();
    let mut stream = StreamingAnonymizer::new(
        AnonymizerConfig::with_privacy_degree(P),
        sens.clone(),
        4 * P,
    )
    .with_recorder(&rec);
    let mut released = 0usize;
    for row in rows() {
        if let Some(chunk) = stream.push(row).expect("stream accepts rows") {
            released += chunk.published.n_transactions();
        }
    }
    if let Some(chunk) = stream.finish().expect("stream finishes") {
        released += chunk.published.n_transactions();
    }
    assert_eq!(released, N);
    let report = rec.snapshot();
    audit_memory(&report);
    let mem = report.memory.as_ref().expect("memory section present");
    let root = mem.span("pipeline").expect("batched pipeline windows");
    assert!(root.count >= 2, "expected multiple batch windows");

    // --- 5. weighted split inside pipeline/group -------------------------
    let counted: Vec<Vec<(ItemId, u32)>> = rows()
        .iter()
        .enumerate()
        .map(|(t, row)| row.iter().map(|&i| (i, 1 + (t as u32 + i) % 3)).collect())
        .collect();
    let wdata = WeightedTransactionSet::from_rows(&counted, D);
    let (_, split_bytes) = alloc_delta(|| drop(RowSplit::of_weighted(&wdata, &sens)));
    let rec = Recorder::new().with_memory();
    anonymize_weighted(
        &wdata,
        &sens,
        &CahdConfig::new(P),
        WeightedSimilarity::MinCount,
        &rec,
    )
    .expect("feasible");
    let report = rec.snapshot();
    audit_memory(&report);
    let mem = report.memory.as_ref().expect("memory section present");
    let root = mem.span("pipeline").expect("weighted pipeline window");
    let group = mem.span("pipeline/group").expect("weighted group window");
    let children: u64 = mem
        .span_children("pipeline")
        .iter()
        .map(|w| w.alloc_bytes)
        .sum();
    assert!(
        group.alloc_bytes >= split_bytes,
        "pipeline/group allocated {} bytes, the split alone {split_bytes}",
        group.alloc_bytes
    );
    assert!(
        root.alloc_bytes - children < split_bytes,
        "pipeline allocated {} bytes outside its phases, the split {split_bytes}",
        root.alloc_bytes - children
    );
}
