//! Every production grouping path against the literal Figs. 7/8 oracle
//! (`common/fig8.rs`), byte for byte on seeded inputs:
//!
//! * [`cahd`] over the rows as given;
//! * [`cahd_sharded`] with one shard;
//! * the pipeline's clean-row [`Anonymizer::anonymize_rows`];
//! * a [`StreamingAnonymizer`] whose one batch holds every row;
//! * the unit-weight weighted pipeline under both similarities (its
//!   binary projection; every published count must be 1).
//!
//! The pipeline paths group in the band order their own RCM phase
//! computes, so the oracle runs over the rows in that order and names
//! members by their original ids. The counters of the engine (groups,
//! rollbacks, short candidate lists, candidates scored, leftover size)
//! must match the oracle's too.

mod common;

use cahd_core::shard::{cahd_sharded, ParallelConfig};
use cahd_core::weighted::anonymize_weighted;
use cahd_core::{
    cahd, Anonymizer, AnonymizerConfig, CahdConfig, PublishedDataset, RecoveryConfig,
    StreamingAnonymizer, WeightedSimilarity,
};
use cahd_data::{profiles, SensitiveSet, TransactionSet, WeightedTransactionSet};
use cahd_obs::Recorder;
use cahd_rcm::{reduce_unsymmetric, UnsymOptions};
use common::fig8::{fig8, release, Fig8};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn json(release: &PublishedDataset) -> String {
    serde_json::to_string(release).unwrap()
}

/// The oracle's counters in the order of [`counters`].
fn oracle_counters(want: &Fig8) -> (usize, usize, usize, u64, usize) {
    (
        want.formed,
        want.rollbacks,
        want.short_lists,
        want.scored,
        want.leftover,
    )
}

fn counters(stats: &cahd_core::CahdStats) -> (usize, usize, usize, u64, usize) {
    (
        stats.groups_formed,
        stats.rollbacks,
        stats.insufficient_candidates,
        stats.candidates_considered,
        stats.fallback_group_size,
    )
}

/// Checks every grouping path on `data` against the oracle. The instance
/// must be feasible (`support(s) · p ≤ n` for every sensitive item).
fn assert_paths_match_the_oracle(
    data: &TransactionSet,
    sens: &SensitiveSet,
    p: usize,
    alpha: usize,
) {
    let cfg = CahdConfig::new(p).with_alpha(alpha);
    let (n, d) = (data.n_transactions(), data.n_items());
    let s = sens.items();
    let rows: Vec<Vec<u32>> = data.iter().map(<[u32]>::to_vec).collect();

    // The engine over the rows as given, which it takes to be in band order.
    let want = fig8(&rows, s, p, alpha);
    let want_json = json(&release(&rows, s, d, &want.groups, |t| t as u32));
    let (got, stats) = cahd(data, sens, &cfg).unwrap();
    assert_eq!(json(&got), want_json, "cahd");
    assert_eq!(counters(&stats), oracle_counters(&want), "cahd");
    let (got, stats) = cahd_sharded(data, sens, &cfg, &ParallelConfig::new(1, 2)).unwrap();
    assert_eq!(json(&got), want_json, "one shard");
    assert_eq!(counters(&stats.cahd), oracle_counters(&want), "one shard");

    // The pipeline paths, over the band order of their RCM phase.
    let perm = reduce_unsymmetric(
        data.matrix(),
        UnsymOptions::default(),
        &Recorder::disabled(),
    )
    .row_perm;
    let band: Vec<Vec<u32>> = (0..n).map(|i| rows[perm.new_to_old(i)].clone()).collect();
    let want = fig8(&band, s, p, alpha);
    let want_json = json(&release(&band, s, d, &want.groups, |t| {
        perm.new_to_old(t) as u32
    }));
    let config = AnonymizerConfig {
        cahd: cfg,
        ..AnonymizerConfig::with_privacy_degree(p)
    };

    let robust = Anonymizer::new(config)
        .anonymize_rows(
            rows.iter().map(Vec::as_slice),
            sens,
            &RecoveryConfig::strict(),
            &Recorder::disabled(),
        )
        .unwrap();
    assert_eq!(json(&robust.result.published), want_json, "anonymize_rows");
    assert_eq!(
        counters(&robust.result.cahd_stats),
        oracle_counters(&want),
        "anonymize_rows"
    );

    let mut stream = StreamingAnonymizer::new(config, sens.clone(), n.max(2 * p));
    let mut chunks = Vec::new();
    for row in &rows {
        chunks.extend(stream.push(row.clone()).unwrap());
    }
    chunks.extend(stream.finish().unwrap());
    assert_eq!(chunks.len(), 1, "one batch holds every row");
    let ids: Vec<u64> = (0..n as u64).collect();
    assert_eq!(chunks[0].stream_ids, ids);
    assert_eq!(json(&chunks[0].published), want_json, "one-batch stream");

    let unit: Vec<Vec<(u32, u32)>> = rows
        .iter()
        .map(|row| row.iter().map(|&i| (i, 1)).collect())
        .collect();
    let wdata = WeightedTransactionSet::from_rows(&unit, d);
    for similarity in [
        WeightedSimilarity::PresenceOverlap,
        WeightedSimilarity::MinCount,
    ] {
        let (got, stats) =
            anonymize_weighted(&wdata, sens, &cfg, similarity, &Recorder::disabled()).unwrap();
        let all_unit = got
            .groups
            .iter()
            .flat_map(|g| g.qid_rows.iter().flatten())
            .all(|&(_, c)| c == 1);
        assert!(all_unit, "{similarity:?}: unit weights must publish as 1");
        assert_eq!(json(&got.to_binary()), want_json, "weighted {similarity:?}");
        assert_eq!(
            counters(&stats),
            oracle_counters(&want),
            "weighted {similarity:?}"
        );
    }
}

/// Universe sizes spanning the kernel's dense/sparse crossover, plus a
/// 2M-item universe the kernel relabels (as in `kernel_equivalence.rs`).
fn arb_universe() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|i| [16usize, 64, 300, 1200, 1 << 21][i])
}

/// A random item of a universe of `d` items: uniform over `0..d`, or over
/// 256 evenly spread ids when `d` is 2M, so that rows still overlap.
fn arb_item(d: usize) -> impl Strategy<Value = u32> {
    let (pool, step) = if d > 4096 {
        (256, d as u32 / 256)
    } else {
        (d as u32, 1)
    };
    (0..pool).prop_map(move |v| v * step)
}

/// A random dataset with 1–3 sensitive items, `p ∈ {2, 3, 4, 8}` and
/// `α ∈ {1, 2, 3}`.
fn arb_instance() -> impl Strategy<Value = (TransactionSet, SensitiveSet, usize, usize)> {
    (arb_universe(), 8usize..90, 0usize..4, 1usize..4).prop_flat_map(|(d, n, p_idx, alpha)| {
        let p = [2usize, 3, 4, 8][p_idx];
        (
            proptest::collection::vec(proptest::collection::vec(arb_item(d), 0..10), n..=n),
            proptest::collection::btree_set(arb_item(d), 1..4),
        )
            .prop_map(move |(rows, sens_items)| {
                let data = TransactionSet::from_rows(&rows, d);
                let sens = SensitiveSet::new(sens_items.into_iter().collect(), d);
                (data, sens, p, alpha)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_grouping_path_matches_figs_7_and_8(
        (data, sens, p, alpha) in arb_instance(),
    ) {
        let n = data.n_transactions();
        prop_assume!(sens
            .occurrence_counts(&data)
            .iter()
            .all(|&c| c * p <= n));
        assert_paths_match_the_oracle(&data, &sens, p, alpha);
    }
}

/// The BMS-WebView-1 shape (duplicate-heavy, a long tail of short rows),
/// at a size the literal oracle scans in well under a second.
#[test]
fn clickstream_shaped_inputs_match_figs_7_and_8() {
    for seed in [1u64, 7] {
        let data = profiles::bms1_like(0.02, seed);
        for (p, alpha) in [(2, 3), (4, 3), (8, 2)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let sens = SensitiveSet::select_random(&data, 4, p, &mut rng).unwrap();
            assert_paths_match_the_oracle(&data, &sens, p, alpha);
        }
    }
}
