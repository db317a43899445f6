//! Cross-crate integration tests: the complete anonymization pipeline on
//! realistic (BMS-like) workloads, all three methods, verified end to end.

use cahd::prelude::*;

fn bms1_small() -> (TransactionSet, SensitiveSet) {
    let data = cahd::data::profiles::bms1_like(0.03, 12);
    let mut rng = rand_seed(5);
    let sens = SensitiveSet::select_random(&data, 10, 20, &mut rng).unwrap();
    (data, sens)
}

fn bms2_small() -> (TransactionSet, SensitiveSet) {
    let data = cahd::data::profiles::bms2_like(0.02, 12);
    let mut rng = rand_seed(5);
    let sens = SensitiveSet::select_random(&data, 10, 20, &mut rng).unwrap();
    (data, sens)
}

#[test]
fn cahd_pipeline_verifies_across_privacy_degrees() {
    let (data, sens) = bms1_small();
    for p in [2usize, 5, 10, 20] {
        let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap_or_else(|e| panic!("p={p}: {e}"));
        verify_published(&data, &sens, &res.published, p).unwrap_or_else(|e| panic!("p={p}: {e}"));
        // Published degree meets or exceeds the requirement.
        assert!(res.published.privacy_degree().is_none_or(|d| d >= p));
    }
}

#[test]
fn all_methods_verify_on_both_profiles() {
    for (data, sens) in [bms1_small(), bms2_small()] {
        let p = 10;
        let cahd_pub = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap()
            .published;
        let (pm_pub, _) = perm_mondrian(&data, &sens, &PmConfig::new(p)).unwrap();
        let rnd_pub = random_grouping(&data, &sens, p, 77).unwrap();
        for (name, pub_) in [("cahd", &cahd_pub), ("pm", &pm_pub), ("random", &rnd_pub)] {
            verify_published(&data, &sens, pub_, p).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

#[test]
fn cahd_beats_pm_on_correlated_data() {
    // The paper's headline claim, on strongly block-structured data where
    // the outcome is not noise-driven: transactions come from two disjoint
    // item universes, each with its own sensitive item.
    let mut rows = Vec::new();
    for i in 0..200u32 {
        let base = if i % 2 == 0 { 0u32 } else { 20 };
        let mut row = vec![base + (i / 2) % 10, base + (i / 2 + 3) % 10, base + 19];
        if i % 20 == 0 {
            row.push(40 + (i % 2)); // sensitive item per block
        }
        rows.push(row);
    }
    let data = TransactionSet::from_rows(&rows, 42);
    let sens = SensitiveSet::new(vec![40, 41], 42);
    let p = 5;

    let cahd_pub = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap()
        .published;
    let rnd_pub = random_grouping(&data, &sens, p, 3).unwrap();

    let queries: Vec<GroupByQuery> = vec![
        GroupByQuery::new(40, vec![19, 0, 3]),
        GroupByQuery::new(41, vec![39, 20, 23]),
        GroupByQuery::new(40, vec![19, 39]),
        GroupByQuery::new(41, vec![39, 19]),
    ];
    let kl_cahd = evaluate_workload(&data, &cahd_pub, &queries).mean_kl;
    let kl_rnd = evaluate_workload(&data, &rnd_pub, &queries).mean_kl;
    // CAHD keeps each sensitive item's group inside its own block, so the
    // block-membership cells reconstruct essentially exactly; random
    // grouping mixes blocks.
    assert!(
        kl_cahd < kl_rnd,
        "cahd {kl_cahd} should beat random {kl_rnd} on block data"
    );
}

#[test]
fn qid_patterns_survive_exactly() {
    let (data, sens) = bms1_small();
    let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(10))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap();
    // Pick the two most frequent QID items; pair support must be identical
    // in the release (permutation publishing is lossless on QID).
    let supports = data.item_supports();
    let mut qid_items: Vec<(usize, u32)> = supports
        .iter()
        .enumerate()
        .filter(|&(i, _)| !sens.contains(i as u32))
        .map(|(i, &s)| (s, i as u32))
        .collect();
    qid_items.sort_unstable();
    let (_, a) = qid_items[qid_items.len() - 1];
    let (_, b) = qid_items[qid_items.len() - 2];
    let orig = data
        .iter()
        .filter(|t| t.contains(&a) && t.contains(&b))
        .count();
    let published = res
        .published
        .groups
        .iter()
        .flat_map(|g| g.qid_rows.iter())
        .filter(|r| r.contains(&a) && r.contains(&b))
        .count();
    assert_eq!(orig, published);
}

#[test]
fn anonymization_reduces_sensitive_linkability() {
    let (data, sens) = bms1_small();
    let p = 10;
    let res = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap();
    // In every group, the association probability of any member with any
    // sensitive item is at most 1/p by construction; check the exact bound
    // from the published summaries.
    for g in &res.published.groups {
        for &(_, f) in &g.sensitive_counts {
            assert!(f as f64 / g.size() as f64 <= 1.0 / p as f64 + 1e-12);
        }
    }
}

#[test]
fn sharded_pipeline_verifies_and_matches_sequential_at_one_shard() {
    let (data, sens) = bms1_small();
    for p in [2usize, 5, 10] {
        let seq = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap();
        // shards = 1: the parallel config must not change the release,
        // whatever the thread count (threads only touch the A·Aᵀ build).
        let one = Anonymizer::new(
            AnonymizerConfig::with_privacy_degree(p).with_parallel(ParallelConfig::new(1, 8)),
        )
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap();
        assert_eq!(seq.published, one.published, "p={p}");
        assert!(one.sharded_stats.is_none());
        // Genuinely sharded runs verify end to end.
        for shards in [2usize, 5, 16] {
            let par = Anonymizer::new(
                AnonymizerConfig::with_privacy_degree(p)
                    .with_parallel(ParallelConfig::new(shards, 4)),
            )
            .anonymize(&data, &sens, &Recorder::disabled())
            .unwrap();
            verify_published(&data, &sens, &par.published, p)
                .unwrap_or_else(|e| panic!("p={p} shards={shards}: {e}"));
            let stats = par.sharded_stats.expect("sharded run must report stats");
            assert_eq!(stats.shards, shards.min(data.n_transactions()));
        }
    }
}

#[test]
fn sharded_pipeline_handles_shard_with_fewer_than_p_sensitive_rows() {
    // 4 shards of 8 rows. Shard 2 (rows 16..24) holds exactly ONE
    // sensitive transaction — fewer than p = 4 — so its CAHD scan can
    // never assemble a full group from sensitive pivots alone and must
    // fall back to candidate neighbors or the pooled leftover. The other
    // sensitive occurrences sit in shard 0.
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for i in 0..32u32 {
        let mut row = vec![i / 8, 4 + i % 3];
        match i {
            0 | 4 => row.push(10), // two occurrences in shard 0
            18 => row.push(11),    // lone sensitive row in shard 2
            _ => {}
        }
        row.sort_unstable();
        rows.push(row);
    }
    let data = TransactionSet::from_rows(&rows, 12);
    let sens = SensitiveSet::new(vec![10, 11], 12);
    let p = 4;
    // Drive cahd_sharded directly (no RCM) so the shard boundaries above
    // are exactly the ones the scan sees.
    let (published, stats) = cahd_sharded(
        &data,
        &sens,
        &CahdConfig::new(p),
        &ParallelConfig::new(4, 2),
    )
    .unwrap();
    verify_published(&data, &sens, &published, p).unwrap();
    assert!(published.satisfies(p));
    assert_eq!(published.n_transactions(), 32);
    assert_eq!(stats.shards, 4);
    // The lone sensitive row was still published exactly once.
    let times_seen = published
        .groups
        .iter()
        .flat_map(|g| g.members.iter())
        .filter(|&&m| m == 18)
        .count();
    assert_eq!(times_seen, 1);
}

#[test]
fn infeasible_privacy_reported_not_violated() {
    let (data, _) = bms1_small();
    // Make the most frequent item sensitive: high support -> infeasible
    // for large p.
    let supports = data.item_supports();
    let top = (0..data.n_items() as u32)
        .max_by_key(|&i| supports[i as usize])
        .unwrap();
    let sens = SensitiveSet::new(vec![top], data.n_items());
    let p = data.n_transactions() / supports[top as usize] + 1;
    let err = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap_err();
    assert!(matches!(err, CahdError::Infeasible { item, .. } if item == top));
}
