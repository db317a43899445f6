//! Determinism contract of the observability layer, over the same random
//! feasible instances as the PR 2 sequential-equivalence harness.
//!
//! Two properties:
//!
//! 1. **Counter thread-invariance** — every `core.*` counter of a traced
//!    sharded run (pivots scanned, groups formed, rollbacks, candidates
//!    scanned, merge dissolutions, ...) is identical for every thread
//!    count in `{1, 2, 8}` (plus the CI matrix's `CAHD_TEST_THREADS`).
//!    Only counters are pinned: gauges and histogram *values* may carry
//!    scheduling-dependent measurements by design, but the deterministic
//!    histogram *counts* (`core.candidate_list_len`, `core.shard_scan_ns`)
//!    are asserted too.
//! 2. **Serde round-trip** — the `TraceReport` behind `--trace-json`
//!    survives a round trip through the vendored serde shim bit-for-bit.
//!
//! Every report must also be internally coherent (empty
//! `consistency_findings`) and fully rooted (no orphan spans), which is
//! what the `cahd-check` CAHD-O001 pass enforces on emitted files.

use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
use cahd_core::shard::ParallelConfig;
use cahd_core::CahdConfig;
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_obs::{Recorder, TraceReport};
use proptest::prelude::*;

/// Thread counts every sweep covers: the fixed `{1, 2, 8}` plus an
/// optional override from `CAHD_TEST_THREADS` (the CI matrix).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(v) = std::env::var("CAHD_TEST_THREADS") {
        if let Ok(extra) = v.trim().parse::<usize>() {
            if extra >= 1 && !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

/// A random dataset, sensitive set and config with `p in {2,4,8}` and
/// `alpha in {2,3}` (the harness matrix of `parallel_equivalence.rs`).
fn arb_instance() -> impl Strategy<Value = (TransactionSet, SensitiveSet, CahdConfig)> {
    (12usize..72, 6usize..16, 0usize..3, 2usize..4).prop_flat_map(|(n, d, p_idx, alpha)| {
        let p = [2usize, 4, 8][p_idx];
        (
            proptest::collection::vec(proptest::collection::vec(0..d as u32, 1..6), n..=n),
            proptest::collection::btree_set(0..d as u32, 1..3),
            Just(d),
            Just(p),
            Just(alpha),
        )
            .prop_map(|(rows, sens_items, d, p, alpha)| {
                let data = TransactionSet::from_rows(&rows, d);
                let sens = SensitiveSet::new(sens_items.into_iter().collect(), d);
                (data, sens, CahdConfig::new(p).with_alpha(alpha))
            })
    })
}

/// Runs the full traced pipeline and returns its report, asserting basic
/// coherence on the way out.
fn traced_report(
    data: &TransactionSet,
    sens: &SensitiveSet,
    cfg: CahdConfig,
    parallel: ParallelConfig,
) -> TraceReport {
    let rec = Recorder::new();
    let mut config = AnonymizerConfig::with_privacy_degree(cfg.p).with_parallel(parallel);
    config.cahd = cfg;
    Anonymizer::new(config)
        .anonymize(data, sens, &rec)
        .expect("instance was assumed feasible");
    let trace = rec.snapshot();
    assert!(
        trace.consistency_findings().is_empty(),
        "{:?}",
        trace.consistency_findings()
    );
    assert!(
        trace.orphan_spans().is_empty(),
        "{:?}",
        trace.orphan_spans()
    );
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn counters_are_thread_count_invariant(
        (data, sens, cfg) in arb_instance(),
        shards in 1usize..9,
    ) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * cfg.p <= data.n_transactions()));
        let base = traced_report(&data, &sens, cfg, ParallelConfig::new(shards, 1));
        for threads in thread_counts() {
            let trace = traced_report(&data, &sens, cfg, ParallelConfig::new(shards, threads));
            // The entire counter section is identical, not just a few
            // named entries — any scheduling-dependent counter anywhere in
            // the stack fails here.
            prop_assert_eq!(&base.counters, &trace.counters, "threads={}", threads);
            // Deterministic histogram *counts* (values are timings and may
            // differ): one candidate-list observation per scanned pivot,
            // one shard-scan observation per shard.
            prop_assert_eq!(
                trace.histogram("core.candidate_list_len").map(|h| h.count).unwrap_or(0),
                trace.counter_or_zero("core.pivots_scanned"),
                "threads={}", threads
            );
            if shards >= 2 {
                let k = shards.min(data.n_transactions());
                prop_assert_eq!(
                    trace.histogram("core.shard_scan_ns").expect("sharded run").count,
                    k as u64,
                    "threads={}", threads
                );
            }
            // The counter relation the CAHD-O001 pass enforces.
            prop_assert_eq!(
                trace.counter_or_zero("core.pivots_scanned"),
                trace.counter_or_zero("core.groups_formed")
                    + trace.counter_or_zero("core.rollbacks")
                    + trace.counter_or_zero("core.insufficient_candidates")
            );
        }
    }

    #[test]
    fn trace_report_roundtrips_through_serde_shim(
        (data, sens, cfg) in arb_instance(),
        shards in 1usize..5,
    ) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * cfg.p <= data.n_transactions()));
        let trace = traced_report(&data, &sens, cfg, ParallelConfig::new(shards, 2));
        let json = serde_json::to_string(&trace).expect("report serializes");
        let back: TraceReport = serde_json::from_str(&json).expect("report deserializes");
        prop_assert_eq!(&trace, &back);
        // Pretty output (what `--trace-json` writes) round-trips too.
        let pretty = serde_json::to_string_pretty(&trace).expect("report serializes");
        let back2: TraceReport = serde_json::from_str(&pretty).expect("report deserializes");
        prop_assert_eq!(&trace, &back2);
    }
}
