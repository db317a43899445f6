//! Corrupt input rows across the shard and thread matrix.
//!
//! Two really corrupt rows — one with a duplicate item id, one with an
//! item past the universe — are quarantined by the robust pipeline across
//! shards `{1, 4}` and threads `{1, 8}` (plus `CAHD_TEST_THREADS` from the
//! CI matrix). The contract under test: exactly those rows are
//! quarantined, every row is still published, and the release passes the
//! full `cahd-check` registry (trace included) with zero diagnostics.

use cahd_check::{default_registry, CheckInput};
use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
use cahd_core::recovery::RecoveryConfig;
use cahd_core::shard::ParallelConfig;
use cahd_data::{ItemId, SensitiveSet};
use cahd_obs::Recorder;

const P: usize = 4;
const N_ITEMS: usize = 12;

/// A fixed, feasible 64-row instance: enough mass per shard that even the
/// 4-shard split forms several groups, with sensitive items 9 and 11.
/// Row 2 repeats an item and row 5 names item 12, past the universe.
fn rows() -> Vec<Vec<ItemId>> {
    let mut rows: Vec<Vec<ItemId>> = (0..64u32)
        .map(|i| {
            let mut row = vec![i % 7, 7 + (i / 7) % 2];
            if i % 16 == 0 {
                row.push(9);
            }
            if i % 21 == 5 {
                row.push(11);
            }
            row
        })
        .collect();
    rows[2].push(2);
    rows[5].push(N_ITEMS as ItemId);
    rows
}

/// The thread dimension: `{1, 8}` plus an optional CI override.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 8];
    if let Ok(v) = std::env::var("CAHD_TEST_THREADS") {
        if let Ok(extra) = v.trim().parse::<usize>() {
            if extra >= 1 && !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

#[test]
fn corrupt_rows_quarantine_across_shards_and_threads() {
    let sens = SensitiveSet::new(vec![9, 11], N_ITEMS);
    let raw = rows();
    for shards in [1usize, 4] {
        for threads in thread_counts() {
            let mut acfg = AnonymizerConfig::with_privacy_degree(P);
            if shards > 1 || threads > 1 {
                acfg = acfg.with_parallel(ParallelConfig::new(shards, threads));
            }
            let rec = Recorder::new();
            let robust = Anonymizer::new(acfg)
                .anonymize_rows(
                    raw.iter().map(Vec::as_slice),
                    &sens,
                    &RecoveryConfig::quarantine(),
                    &rec,
                )
                .unwrap();
            assert_eq!(robust.quarantined, vec![2, 5], "shards={shards}");
            let trace = &rec.snapshot();
            assert_eq!(trace.counter("core.quarantined_rows"), Some(2));
            assert_eq!(
                robust.result.published.n_transactions(),
                raw.len(),
                "quarantined rows are still published"
            );
            // The full registry — recovery accounting included — is clean.
            let report = default_registry().run(
                &CheckInput {
                    data: &robust.data,
                    sensitive: &sens,
                    published: &robust.result.published,
                    p: P,
                    trace: Some(trace),
                    attack: None,
                },
                &Recorder::disabled(),
            );
            assert!(
                report.is_clean(),
                "shards={shards} threads={threads}:\n{}",
                report.render_human()
            );
        }
    }
}
