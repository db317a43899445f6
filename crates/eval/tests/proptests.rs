//! Property-based tests for the evaluation crate.

use cahd_core::{cahd, AnonymizedGroup, CahdConfig, PublishedDataset};
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_eval::cells::{cell_of, n_cells};
use cahd_eval::mining::{frequent_itemsets, itemset_support};
use cahd_eval::{actual_pdf, estimated_pdf, kl_divergence, GroupByQuery, DEFAULT_SMOOTHING};
use proptest::prelude::*;

fn arb_data() -> impl Strategy<Value = TransactionSet> {
    proptest::collection::vec(proptest::collection::vec(0u32..12, 1..5), 4..30)
        .prop_map(|rows| TransactionSet::from_rows(&rows, 12))
}

/// A release over `data` formed by chunking transactions into fixed-size
/// groups (valid coverage by construction).
fn chunk_release(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    chunk: usize,
) -> PublishedDataset {
    let ids: Vec<u32> = (0..data.n_transactions() as u32).collect();
    PublishedDataset {
        n_items: data.n_items(),
        sensitive_items: sensitive.items().to_vec(),
        groups: ids
            .chunks(chunk.max(1))
            .map(|m| AnonymizedGroup::from_members(data, sensitive, m))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pdfs_are_distributions(data in arb_data(), s in 0u32..12, chunk in 1usize..6) {
        let sens = SensitiveSet::new(vec![s], 12);
        let published = chunk_release(&data, &sens, chunk);
        let qid: Vec<u32> = (0..12).filter(|&i| i != s).take(3).collect();
        let q = GroupByQuery::new(s, qid);
        if let Some(act) = actual_pdf(&data, &q) {
            prop_assert!((act.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(act.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let est = estimated_pdf(&published, &q).expect("item occurs in release too");
            prop_assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(est.iter().all(|&v| v >= -1e-12));
            // KL of distributions is finite and non-negative.
            let kl = kl_divergence(&act, &est, DEFAULT_SMOOTHING);
            prop_assert!(kl.is_finite());
            prop_assert!(kl >= 0.0);
        }
    }

    #[test]
    fn apriori_matches_brute_force(data in arb_data(), min_sup in 1usize..4) {
        let sets = frequent_itemsets(&data, min_sup, 3);
        for set in &sets {
            let brute = data
                .iter()
                .filter(|t| set.items.iter().all(|i| t.contains(i)))
                .count();
            prop_assert_eq!(set.support, brute, "{:?}", set.items);
            prop_assert!(set.support >= min_sup);
            prop_assert_eq!(itemset_support(&data, &set.items), brute);
        }
        // Completeness for pairs: every frequent pair is found.
        for a in 0..12u32 {
            for b in (a + 1)..12 {
                let sup = itemset_support(&data, &[a, b]);
                if sup >= min_sup {
                    prop_assert!(
                        sets.iter().any(|s| s.items == vec![a, b]),
                        "missing pair ({a},{b}) support {sup}"
                    );
                }
            }
        }
    }

    #[test]
    fn attack_posterior_never_exceeds_bound(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..12, 1..5), 12..40),
        p in 2usize..4,
    ) {
        use cahd_eval::attack_published;
        use rand::SeedableRng;
        let data = TransactionSet::from_rows(&rows, 12);
        let sens = SensitiveSet::new(vec![11], 12);
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts[0] >= 1 && counts[0] * p <= data.n_transactions());
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        if let Some(out) = attack_published(&data, &sens, &published, 1, 200, &mut rng) {
            prop_assert!(
                out.max_posterior <= 1.0 / p as f64 + 1e-9,
                "posterior {} exceeds 1/{}",
                out.max_posterior,
                p
            );
        }
    }

    #[test]
    fn cell_of_consistent_with_membership(
        txn in proptest::collection::btree_set(0u32..30, 0..8),
        qid in proptest::collection::btree_set(0u32..30, 1..6),
    ) {
        let txn: Vec<u32> = txn.into_iter().collect();
        let qid: Vec<u32> = qid.into_iter().collect();
        let cell = cell_of(&txn, &qid);
        prop_assert!((cell as usize) < n_cells(qid.len()));
        for (bit, q) in qid.iter().enumerate() {
            let present = txn.binary_search(q).is_ok();
            prop_assert_eq!(cell >> bit & 1 == 1, present);
        }
    }
}
