//! Equivalence harness for the adaptive similarity kernel
//! (`cahd_core::kernel`).
//!
//! Two properties, 256 cases each, over random instances whose item
//! universes range from one bitset word to dozens (so the adaptive
//! crossover genuinely mixes the sparse and dense paths), plus a 2M-item
//! universe the kernel relabels to the items the rows use (its compacted
//! path, where the crossover is taken on the compacted width):
//!
//! 1. **score equivalence** — [`SimilarityKernel`] produces the same
//!    score for every `(pivot, candidate)` pair as the reference
//!    [`QidOverlapScorer`], item-for-item;
//! 2. **release equivalence** — the published dataset is byte-identical
//!    (same serialized JSON) across thread counts {1, 8}, at each shard
//!    count.
//!
//! `CAHD_TEST_THREADS` (used by the CI matrix) adds one more thread count
//! to the sweep, mirroring `parallel_equivalence.rs`.

use cahd_core::kernel::{QidOverlapScorer, SimilarityKernel};
use cahd_core::shard::{cahd_sharded, ParallelConfig};
use cahd_core::split::FlatRows;
use cahd_core::CahdConfig;
use cahd_data::{SensitiveSet, TransactionSet};
use proptest::prelude::*;

/// Thread counts the release sweep covers, plus the CI override.
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

/// Universe sizes spanning the adaptive crossover: 1 word (everything
/// dense-eligible), a few words (mixed), wide (mostly sparse), and 2M
/// items, far wider than twice any instance's non-zeros, so the kernel
/// scores in its compacted item space.
fn arb_universe() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|i| [16usize, 64, 300, 1200, 1 << 21][i])
}

/// Items the rows of a 2M-item instance draw from, spread evenly over
/// the universe so that rows still overlap.
const WIDE_POOL: u32 = 256;

/// A random item of a universe of `d` items: uniform over `0..d`, or over
/// the `WIDE_POOL` multiples of `d / WIDE_POOL` when `d` is 2M.
fn arb_item(d: usize) -> impl Strategy<Value = u32> {
    let (pool, step) = if d > 4096 {
        (WIDE_POOL, d as u32 / WIDE_POOL)
    } else {
        (d as u32, 1)
    };
    (0..pool).prop_map(move |v| v * step)
}

/// Random QID rows over a universe of `d` items.
fn arb_rows(d: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(arb_item(d), 1..12), 8usize..40)
}

/// A random dataset, sensitive set and config with `p in {2,4,8}` and
/// `alpha in {2,3}`, over a crossover-spanning universe.
fn arb_instance() -> impl Strategy<Value = (TransactionSet, SensitiveSet, CahdConfig)> {
    (arb_universe(), 12usize..72, 0usize..3, 2usize..4).prop_flat_map(|(d, n, p_idx, alpha)| {
        let p = [2usize, 4, 8][p_idx];
        (
            proptest::collection::vec(proptest::collection::vec(arb_item(d), 1..12), n..=n),
            proptest::collection::btree_set(arb_item(d), 1..3),
        )
            .prop_map(move |(rows, sens_items)| {
                let data = TransactionSet::from_rows(&rows, d);
                let sens = SensitiveSet::new(sens_items.into_iter().collect(), d);
                (data, sens, CahdConfig::new(p).with_alpha(alpha))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_scores_match_the_reference_item_for_item(
        (d, rows) in arb_universe().prop_flat_map(|d| (Just(d), arb_rows(d))),
    ) {
        // Deduplicated sorted rows, as `split_transaction` would produce.
        let rows: Vec<Vec<u32>> = rows
            .into_iter()
            .map(|mut r| {
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        let n = rows.len();
        let flat = FlatRows::from_rows(&rows);
        let mut reference = QidOverlapScorer::new(&rows, d);
        let mut kernel = SimilarityKernel::new(flat.rows(), d);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for t in 0..n {
            let candidates: Vec<usize> = (0..n).filter(|&c| c != t).collect();
            reference.score(t, &candidates, &mut want);
            kernel.score(t, &candidates, &mut got);
            prop_assert_eq!(&got, &want, "pivot {}", t);
        }
        // Path accounting covers every score exactly once.
        let stats = kernel.stats();
        prop_assert_eq!(stats.total_scores(), (n * (n - 1)) as u64, "{:?}", stats);
        prop_assert!(stats.cache_hits <= stats.dense_scores, "{:?}", stats);
    }

    #[test]
    fn published_release_is_identical_across_threads(
        (data, sens, cfg) in arb_instance(),
        shards in (0usize..2).prop_map(|i| [1usize, 4][i]),
    ) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * cfg.p <= data.n_transactions()));
        let (reference, ref_stats) =
            cahd_sharded(&data, &sens, &cfg, &ParallelConfig::new(shards, 1)).unwrap();
        let reference_json = serde_json::to_string(&reference).unwrap();
        for threads in thread_counts() {
            let (out, stats) =
                cahd_sharded(&data, &sens, &cfg, &ParallelConfig::new(shards, threads)).unwrap();
            // Byte-identical release: same serialized bytes, not just
            // structural equality.
            let out_json = serde_json::to_string(&out).unwrap();
            prop_assert_eq!(
                &out_json, &reference_json,
                "shards {}, threads {}", shards, threads
            );
            // The engine made the same decisions along the way.
            prop_assert_eq!(
                stats.cahd.candidates_considered,
                ref_stats.cahd.candidates_considered,
                "threads {}", threads
            );
            prop_assert_eq!(stats.cahd.groups_formed, ref_stats.cahd.groups_formed);
            prop_assert_eq!(stats.cahd.rollbacks, ref_stats.cahd.rollbacks);
        }
    }
}
