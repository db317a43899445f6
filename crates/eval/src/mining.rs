//! Frequent-itemset mining and pattern-preservation metrics.
//!
//! The paper motivates transaction publishing with market-basket analysis:
//! "the most likely purpose of the data is to infer certain purchasing
//! trends, characterized by correlations among purchased products". This
//! module provides an Apriori miner and the two pattern-level utility
//! checks that follow from the publishing format:
//!
//! * itemsets over **QID items only** must be preserved *exactly*
//!   (permutation publishing releases QID rows verbatim);
//! * itemsets containing a **sensitive item** are only estimable; their
//!   support estimate follows eq. (2) of the paper, and
//!   [`sensitive_support_error`] quantifies the relative error.

use cahd_core::PublishedDataset;
use cahd_data::{ItemId, TransactionSet};

/// A frequent itemset: sorted items plus its support count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Itemset {
    /// The items, sorted ascending.
    pub items: Vec<ItemId>,
    /// Number of transactions containing all of them.
    pub support: usize,
}

/// Mines all itemsets with `support >= min_support` and at most `max_len`
/// items, via Apriori with posting-list intersection counting.
///
/// Returns itemsets sorted by (length, items). `min_support` must be >= 1.
pub fn frequent_itemsets(
    data: &TransactionSet,
    min_support: usize,
    max_len: usize,
) -> Vec<Itemset> {
    assert!(min_support >= 1, "min_support must be positive");
    let inv = data.matrix().transpose();
    let supports = data.item_supports();

    // L1.
    let mut frequent: Vec<Itemset> = (0..data.n_items() as u32)
        .filter(|&i| supports[i as usize] >= min_support)
        .map(|i| Itemset {
            items: vec![i],
            support: supports[i as usize],
        })
        .collect();
    let mut result = frequent.clone();
    let mut k = 1;

    // Cache each frequent itemset's posting list alongside it.
    let mut postings: Vec<Vec<u32>> = frequent
        .iter()
        .map(|s| inv.row(s.items[0] as usize).to_vec())
        .collect();

    while k < max_len && !frequent.is_empty() {
        let mut next: Vec<Itemset> = Vec::new();
        let mut next_postings: Vec<Vec<u32>> = Vec::new();
        // Apriori join: extend each k-itemset with a larger single item
        // whose (k)-prefix matches; the classic "join step" over sets
        // sharing the first k-1 items.
        for a in 0..frequent.len() {
            for b in (a + 1)..frequent.len() {
                let (ia, ib) = (&frequent[a].items, &frequent[b].items);
                if ia[..k - 1] != ib[..k - 1] {
                    // Lists are sorted, so once prefixes diverge no later b
                    // matches either.
                    break;
                }
                let candidate_tail = ib[k - 1];
                let merged = intersect(&postings[a], inv.row(candidate_tail as usize));
                if merged.len() >= min_support {
                    let mut items = ia.clone();
                    items.push(candidate_tail);
                    next.push(Itemset {
                        support: merged.len(),
                        items,
                    });
                    next_postings.push(merged);
                }
            }
        }
        result.extend(next.iter().cloned());
        frequent = next;
        postings = next_postings;
        k += 1;
    }
    result
}

/// The `k` highest-support itemsets with at least `min_len` items, mined at
/// an adaptive support threshold. Convenience for "top patterns" reports.
pub fn top_k_itemsets(
    data: &TransactionSet,
    k: usize,
    min_len: usize,
    max_len: usize,
) -> Vec<Itemset> {
    // Start from a coarse threshold and lower until enough patterns emerge
    // (or the floor of 2 is reached).
    let mut min_support = (data.n_transactions() / 20).max(2);
    loop {
        let mut sets: Vec<Itemset> = frequent_itemsets(data, min_support, max_len)
            .into_iter()
            .filter(|s| s.items.len() >= min_len)
            .collect();
        if sets.len() >= k || min_support == 2 {
            sets.sort_by(|x, y| y.support.cmp(&x.support).then(x.items.cmp(&y.items)));
            sets.truncate(k);
            return sets;
        }
        min_support = (min_support / 2).max(2);
    }
}

/// Exact support of an itemset in the original data.
pub fn itemset_support(data: &TransactionSet, items: &[ItemId]) -> usize {
    let inv = data.matrix().transpose();
    match items {
        [] => data.n_transactions(),
        [first, rest @ ..] => {
            let mut acc = inv.row(*first as usize).to_vec();
            for &i in rest {
                acc = intersect(&acc, inv.row(i as usize));
                if acc.is_empty() {
                    break;
                }
            }
            acc.len()
        }
    }
}

/// Exact support of a QID-only itemset in a release (count over published
/// QID rows). For itemsets without sensitive items this equals the original
/// support — permutation publishing is lossless on the quasi-identifier.
pub fn published_qid_support(published: &PublishedDataset, items: &[ItemId]) -> usize {
    published
        .groups
        .iter()
        .flat_map(|g| g.qid_rows.iter())
        .filter(|row| items.iter().all(|i| row.binary_search(i).is_ok()))
        .count()
}

/// Estimated support of an itemset containing exactly one sensitive item
/// `s` plus QID items, reconstructed from the release via eq. (2):
/// within each group, `a * b / |G|` where `a` is `s`'s count and `b` the
/// number of rows matching the QID part.
pub fn estimated_sensitive_support(
    published: &PublishedDataset,
    sensitive_item: ItemId,
    qid_items: &[ItemId],
) -> f64 {
    let mut est = 0.0;
    for g in &published.groups {
        let a = g.sensitive_count_of(sensitive_item);
        if a == 0 {
            continue;
        }
        let b = g
            .qid_rows
            .iter()
            .filter(|row| qid_items.iter().all(|i| row.binary_search(i).is_ok()))
            .count();
        est += a as f64 * b as f64 / g.size() as f64;
    }
    est
}

/// Mean relative error of the reconstructed support over a set of
/// (sensitive item, QID itemset) patterns. Patterns with zero actual
/// support are skipped; returns `None` if none remain.
pub fn sensitive_support_error(
    data: &TransactionSet,
    published: &PublishedDataset,
    patterns: &[(ItemId, Vec<ItemId>)],
) -> Option<f64> {
    let mut total = 0.0;
    let mut n = 0usize;
    for (s, qid) in patterns {
        let mut items = qid.clone();
        items.push(*s);
        items.sort_unstable();
        let actual = itemset_support(data, &items);
        if actual == 0 {
            continue;
        }
        let est = estimated_sensitive_support(published, *s, qid);
        total += (est - actual as f64).abs() / actual as f64;
        n += 1;
    }
    (n > 0).then(|| total / n as f64)
}

/// Intersection of two sorted posting lists.
fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::AnonymizedGroup;
    use cahd_data::SensitiveSet;

    fn data() -> TransactionSet {
        TransactionSet::from_rows(
            &[
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 1, 3],
                vec![2, 3],
                vec![0, 2],
            ],
            5,
        )
    }

    #[test]
    fn apriori_finds_expected_itemsets() {
        let sets = frequent_itemsets(&data(), 3, 3);
        // supports: 0 -> 4, 1 -> 3, 2 -> 3, 3 -> 2; {0,1} -> 3.
        let find = |items: &[u32]| sets.iter().find(|s| s.items == items).map(|s| s.support);
        assert_eq!(find(&[0]), Some(4));
        assert_eq!(find(&[1]), Some(3));
        assert_eq!(find(&[2]), Some(3));
        assert_eq!(find(&[3]), None); // below threshold
        assert_eq!(find(&[0, 1]), Some(3));
        assert_eq!(find(&[0, 2]), None); // support 2
    }

    #[test]
    fn apriori_monotonicity() {
        // Every subset of a frequent itemset is frequent with >= support.
        let sets = frequent_itemsets(&data(), 2, 3);
        for s in &sets {
            if s.items.len() >= 2 {
                for drop in 0..s.items.len() {
                    let mut sub = s.items.clone();
                    sub.remove(drop);
                    let parent = sets.iter().find(|t| t.items == sub).unwrap();
                    assert!(parent.support >= s.support);
                }
            }
        }
    }

    #[test]
    fn supports_match_brute_force() {
        let d = data();
        let sets = frequent_itemsets(&d, 2, 3);
        for s in &sets {
            let brute = d
                .iter()
                .filter(|t| s.items.iter().all(|i| t.contains(i)))
                .count();
            assert_eq!(brute, s.support, "{:?}", s.items);
            assert_eq!(itemset_support(&d, &s.items), s.support);
        }
    }

    #[test]
    fn top_k_returns_highest_support() {
        let top = top_k_itemsets(&data(), 2, 2, 3);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].items, vec![0, 1]);
        assert!(top[0].support >= top[1].support);
    }

    #[test]
    fn qid_support_lossless_in_release() {
        let d = data();
        let sens = SensitiveSet::new(vec![4], 5);
        let published = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![4],
            groups: vec![
                AnonymizedGroup::from_members(&d, &sens, &[0, 1, 2]),
                AnonymizedGroup::from_members(&d, &sens, &[3, 4]),
            ],
        };
        for items in [vec![0u32], vec![0, 1], vec![2, 3]] {
            assert_eq!(
                published_qid_support(&published, &items),
                itemset_support(&d, &items),
                "{items:?}"
            );
        }
    }

    #[test]
    fn sensitive_estimate_exact_for_pure_groups() {
        // Sensitive item 4 occurs with QID {0}; group contains only rows
        // with identical QID -> estimate is exact.
        let d = TransactionSet::from_rows(&[vec![0, 4], vec![0], vec![1], vec![1]], 5);
        let sens = SensitiveSet::new(vec![4], 5);
        let published = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![4],
            groups: vec![
                AnonymizedGroup::from_members(&d, &sens, &[0, 1]),
                AnonymizedGroup::from_members(&d, &sens, &[2, 3]),
            ],
        };
        assert_eq!(estimated_sensitive_support(&published, 4, &[0]), 1.0);
        let err = sensitive_support_error(&d, &published, &[(4, vec![0])]).unwrap();
        assert!(err < 1e-12);
    }

    #[test]
    fn sensitive_estimate_degrades_for_mixed_groups() {
        let d = TransactionSet::from_rows(&[vec![0, 4], vec![1], vec![0], vec![1]], 5);
        let sens = SensitiveSet::new(vec![4], 5);
        let mixed = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![4],
            groups: vec![AnonymizedGroup::from_members(&d, &sens, &[0, 1, 2, 3])],
        };
        // a = 1, b(rows with item 0) = 2, |G| = 4 -> estimate 0.5, actual 1.
        assert!((estimated_sensitive_support(&mixed, 4, &[0]) - 0.5).abs() < 1e-12);
        let err = sensitive_support_error(&d, &mixed, &[(4, vec![0])]).unwrap();
        assert!((err - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_support_patterns_skipped() {
        let d = data();
        let published = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![4],
            groups: vec![],
        };
        assert!(sensitive_support_error(&d, &published, &[(4, vec![0])]).is_none());
    }

    #[test]
    fn empty_itemset_support_is_n() {
        assert_eq!(itemset_support(&data(), &[]), 5);
    }
}
