//! Property-based tests: CAHD must uphold its invariants on arbitrary
//! (feasible) inputs.

use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
use cahd_core::{cahd, verify_published, CahdConfig, CahdError};
use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_obs::Recorder;
use proptest::prelude::*;

/// A random dataset plus a sensitive set and a privacy degree.
fn arb_instance() -> impl Strategy<Value = (TransactionSet, SensitiveSet, usize)> {
    (10usize..60, 5usize..15, 2usize..5).prop_flat_map(|(n, d, p)| {
        (
            proptest::collection::vec(proptest::collection::vec(0..d as u32, 1..6), n..=n),
            proptest::collection::btree_set(0..d as u32, 1..3),
            Just(d),
            Just(p),
        )
            .prop_map(|(rows, sens_items, d, p)| {
                let data = TransactionSet::from_rows(&rows, d);
                let sens = SensitiveSet::new(sens_items.into_iter().collect(), d);
                (data, sens, p)
            })
    })
}

/// How a [`arb_stream`] instance ingests its rows.
#[derive(Clone, Copy, Debug)]
enum Ingest {
    /// Every row clean (in range, no duplicate; often unsorted), strict
    /// policy.
    Strict,
    /// Raw rows with out-of-range items and duplicates, quarantined.
    Quarantine,
}

/// Raw stream rows over `0..d` (plus the out-of-range ids `d` and
/// `d + 1` unless the policy is strict), a sensitive set, `p`, a batch
/// size in `2p..=4p` and the ingestion mode. Sensitive items are dense
/// enough that batches regularly defer an offender to the next one.
fn arb_stream() -> impl Strategy<Value = (Vec<Vec<ItemId>>, SensitiveSet, usize, usize, Ingest)> {
    (12usize..60, 5usize..10, 2usize..4, 0u8..2).prop_flat_map(|(n, d, p, mode)| {
        (
            proptest::collection::vec(proptest::collection::vec(0..d as u32 + 2, 1..6), n..=n),
            proptest::collection::btree_set(0..d as u32, 1..3),
            Just(d),
            Just(p),
            2 * p..=4 * p,
            Just(mode),
        )
            .prop_map(|(rows, sens_items, d, p, batch, mode)| {
                let ingest = [Ingest::Strict, Ingest::Quarantine][mode as usize];
                let rows = match ingest {
                    // In range and first occurrences only, in drawn order.
                    Ingest::Strict => rows
                        .into_iter()
                        .map(|row| {
                            let mut clean: Vec<ItemId> = Vec::new();
                            for i in row {
                                if (i as usize) < d && !clean.contains(&i) {
                                    clean.push(i);
                                }
                            }
                            clean
                        })
                        .collect(),
                    Ingest::Quarantine => rows,
                };
                let sens = SensitiveSet::new(sens_items.into_iter().collect(), d);
                (rows, sens, p, batch, ingest)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cahd_output_verifies_or_is_infeasible((data, sens, p) in arb_instance()) {
        match cahd(&data, &sens, &CahdConfig::new(p)) {
            Ok((published, stats)) => {
                prop_assert!(verify_published(&data, &sens, &published, p).is_ok());
                // Regular groups have size exactly p.
                let regular = published.groups.len()
                    - usize::from(stats.fallback_group_size > 0);
                for g in published.groups.iter().take(regular) {
                    prop_assert_eq!(g.size(), p);
                }
            }
            Err(CahdError::Infeasible { item, support, .. }) => {
                // Infeasibility must be real.
                let rank = sens.index_of(item).unwrap();
                let counts = sens.occurrence_counts(&data);
                prop_assert_eq!(counts[rank], support);
                prop_assert!(support * p > data.n_transactions());
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    #[test]
    fn feasible_instances_always_succeed((data, sens, p) in arb_instance()) {
        let counts = sens.occurrence_counts(&data);
        let feasible = counts.iter().all(|&c| c * p <= data.n_transactions());
        prop_assume!(feasible);
        // Guaranteed-solution claim of Section IV: if a solution exists,
        // the one-occurrence heuristic finds one.
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        prop_assert!(published.satisfies(p));
    }

    #[test]
    fn pipeline_matches_direct_cahd_privacy((data, sens, p) in arb_instance()) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * p <= data.n_transactions()));
        let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap();
        prop_assert!(verify_published(&data, &sens, &res.published, p).is_ok());
    }

    #[test]
    fn weighted_presence_equals_binary((data, sens, p) in arb_instance()) {
        use cahd_core::weighted::{cahd_weighted, verify_weighted, WeightedSimilarity};
        use cahd_data::WeightedTransactionSet;
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * p <= data.n_transactions()));
        // Lift to weighted with all-ones counts: grouping must match the
        // binary algorithm exactly under the presence scorer.
        let rows: Vec<Vec<(u32, u32)>> = data
            .iter()
            .map(|t| t.iter().map(|&i| (i, 1)).collect())
            .collect();
        let wdata = WeightedTransactionSet::from_rows(&rows, data.n_items());
        let (wpub, _) = cahd_weighted(
            &wdata,
            &sens,
            &CahdConfig::new(p),
            WeightedSimilarity::PresenceOverlap, &Recorder::disabled())
        .unwrap();
        prop_assert!(verify_weighted(&wdata, &sens, &wpub, p).is_ok());
        let (bpub, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let wm: Vec<Vec<u32>> = wpub.groups.iter().map(|g| g.members.clone()).collect();
        let bm: Vec<Vec<u32>> = bpub.groups.iter().map(|g| g.members.clone()).collect();
        prop_assert_eq!(wm, bm);
    }

    #[test]
    fn streaming_chunks_all_verify((data, sens, p) in arb_instance()) {
        use cahd_core::StreamingAnonymizer;
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * p <= data.n_transactions()));
        let batch = (2 * p).max(8);
        let mut s = StreamingAnonymizer::new(
            AnonymizerConfig::with_privacy_degree(p),
            sens.clone(),
            batch,
        );
        let mut chunks = Vec::new();
        let mut ok = true;
        for t in 0..data.n_transactions() {
            match s.push(data.transaction(t).to_vec()) {
                Ok(Some(c)) => chunks.push(c),
                Ok(None) => {}
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            match s.finish() {
                Ok(Some(c)) => chunks.push(c),
                Ok(None) => {}
                Err(_) => ok = false,
            }
        }
        // A batch-infeasible stream may legitimately fail at the final
        // flush; when it succeeds, coverage and privacy must hold.
        prop_assume!(ok);
        let total: usize = chunks.iter().map(|c| c.stream_ids.len()).sum();
        prop_assert_eq!(total, data.n_transactions());
        let mut seen = vec![false; data.n_transactions()];
        for c in &chunks {
            prop_assert!(c.published.satisfies(p));
            for &id in &c.stream_ids {
                prop_assert!(!seen[id as usize], "stream id {} twice", id);
                seen[id as usize] = true;
            }
        }
    }

    #[test]
    fn releases_are_diagnostics_clean((data, sens, p) in arb_instance()) {
        // Every release the crate can produce — batch, weighted, streaming —
        // must yield zero error-severity diagnostics from the full
        // `cahd-check` pass registry, not just pass the fail-fast verifier.
        use cahd_check::{default_registry, CheckInput};
        use cahd_core::weighted::{cahd_weighted, WeightedSimilarity};
        use cahd_core::StreamingAnonymizer;
        use cahd_data::WeightedTransactionSet;
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * p <= data.n_transactions()));
        let registry = default_registry();
        macro_rules! assert_clean {
            ($data:expr, $published:expr, $what:expr) => {{
                let report = registry.run(&CheckInput {
                    data: $data,
                    sensitive: &sens,
                    published: $published,
                    p,
                    trace: None,
                    attack: None,
                }, &cahd_obs::Recorder::disabled());
                prop_assert!(report.is_clean(), "{}:\n{}", $what, report.render_human());
            }};
        }

        // Batch pipeline.
        let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap();
        assert_clean!(&data, &res.published, "batch");

        // Sharded parallel pipeline (end to end, including the RCM
        // permutation mapping), for a shard count that forces merging.
        use cahd_core::ParallelConfig;
        let sharded = Anonymizer::new(
            AnonymizerConfig::with_privacy_degree(p)
                .with_parallel(ParallelConfig::new(4, 2)),
        )
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap();
        prop_assert!(sharded.sharded_stats.is_some());
        assert_clean!(&data, &sharded.published, "sharded batch");

        // Weighted pipeline, checked through its binary projection.
        let rows: Vec<Vec<(u32, u32)>> = data
            .iter()
            .map(|t| t.iter().map(|&i| (i, 1)).collect())
            .collect();
        let wdata = WeightedTransactionSet::from_rows(&rows, data.n_items());
        let (wpub, _) = cahd_weighted(
            &wdata,
            &sens,
            &CahdConfig::new(p),
            WeightedSimilarity::MinCount, &Recorder::disabled())
        .unwrap();
        assert_clean!(&wdata.to_binary(), &wpub.to_binary(), "weighted");

        // Streaming pipeline: each released chunk is a self-contained
        // release over the chunk's own transactions.
        let mut s = StreamingAnonymizer::new(
            AnonymizerConfig::with_privacy_degree(p),
            sens.clone(),
            (2 * p).max(8),
        );
        let mut chunks = Vec::new();
        let mut ok = true;
        for t in 0..data.n_transactions() {
            match s.push(data.transaction(t).to_vec()) {
                Ok(Some(c)) => chunks.push(c),
                Ok(None) => {}
                Err(_) => { ok = false; break; }
            }
        }
        if ok {
            if let Ok(Some(c)) = s.finish() {
                chunks.push(c);
            }
        }
        for (i, c) in chunks.iter().enumerate() {
            let rows: Vec<Vec<u32>> = c
                .stream_ids
                .iter()
                .map(|&id| data.transaction(id as usize).to_vec())
                .collect();
            let chunk_data = TransactionSet::from_rows(&rows, data.n_items());
            assert_clean!(&chunk_data, &c.published, format!("stream chunk {i}"));
        }
    }

    #[test]
    fn refinement_preserves_validity_and_objective((data, sens, p) in arb_instance()) {
        use cahd_core::{intra_group_overlap, refine_groups};
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * p <= data.n_transactions()));
        let (mut published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let before = intra_group_overlap(&published);
        let stats = refine_groups(&mut published, &data, &sens, p, 2, 3);
        let after = intra_group_overlap(&published);
        prop_assert!(after >= before);
        prop_assert_eq!(after - before, stats.objective_gain);
        prop_assert!(verify_published(&data, &sens, &published, p).is_ok());
    }

    #[test]
    fn alpha_only_changes_quality_not_privacy((data, sens, p) in arb_instance()) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * p <= data.n_transactions()));
        for alpha in [1usize, 2, 5] {
            let (published, _) =
                cahd(&data, &sens, &CahdConfig::new(p).with_alpha(alpha)).unwrap();
            prop_assert!(verify_published(&data, &sens, &published, p).is_ok());
        }
    }

    #[test]
    fn stream_chunks_equal_the_robust_pipeline_on_their_batch(
        (rows, sens, p, batch, ingest) in arb_stream()
    ) {
        use cahd_core::recovery::RecoveryConfig;
        use cahd_core::StreamingAnonymizer;
        let recovery = match ingest {
            Ingest::Strict => RecoveryConfig::strict(),
            Ingest::Quarantine => RecoveryConfig::quarantine(),
        };
        let cfg = AnonymizerConfig::with_privacy_degree(p);
        let mut s = StreamingAnonymizer::new(cfg, sens.clone(), batch).with_recovery(recovery);
        let mut chunks = Vec::new();
        for row in &rows {
            match s.push(row.clone()) {
                Ok(Some(c)) => chunks.push(c),
                Ok(None) => {}
                Err(_) => break,
            }
        }
        if let Ok(Some(c)) = s.finish() {
            chunks.push(c);
        }
        // Every chunk released before any final error is exactly the
        // robust pipeline's release of the same rows, in batch order
        // (deferred rows open the batch after the one they left).
        for chunk in &chunks {
            let batch_rows: Vec<Vec<ItemId>> = chunk
                .stream_ids
                .iter()
                .map(|&id| rows[id as usize].clone())
                .collect();
            let expected = Anonymizer::new(cfg)
                .anonymize_rows(
                    batch_rows.iter().map(Vec::as_slice),
                    &sens,
                    &recovery,
                    &Recorder::disabled(),
                )
                .unwrap();
            prop_assert_eq!(&chunk.published, &expected.result.published);
        }
    }
}
