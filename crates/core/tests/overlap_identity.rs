//! `intra_group_overlap` counts the intra-group QID overlap through the
//! identity Σ over row pairs of `|a ∩ b|` = Σ over items of `C(c, 2)`.
//! This suite checks it against the definition itself: the pairwise
//! merge sum over every unordered pair of rows in every group.

use cahd_core::{intra_group_overlap, AnonymizedGroup, FlatRows, PublishedDataset};
use proptest::prelude::*;

/// The oracle: Σ over groups, Σ over row pairs `a < b`, of the size of
/// the merge-intersection of the two sorted rows.
fn pairwise_overlap(published: &PublishedDataset) -> u64 {
    let mut total = 0u64;
    for g in &published.groups {
        for a in 0..g.qid_rows.len() {
            for b in (a + 1)..g.qid_rows.len() {
                total += merge_overlap(g.qid_rows.row(a), g.qid_rows.row(b));
            }
        }
    }
    total
}

fn merge_overlap(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn group(qid_rows: &[Vec<u32>]) -> AnonymizedGroup {
    AnonymizedGroup {
        members: (0..qid_rows.len() as u32).collect(),
        qid_rows: FlatRows::from_rows(qid_rows),
        sensitive_counts: Vec::new(),
    }
}

/// A sorted, duplicate-free QID row over `0..d`; often empty.
fn arb_row(d: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    collection::btree_set(0..d, 0..=max_len).prop_map(|s| s.into_iter().collect())
}

/// A release of small groups (some of them empty), plus one large
/// leftover-style group inserted at a random position.
fn arb_release() -> impl Strategy<Value = PublishedDataset> {
    (1u32..60).prop_flat_map(|d| {
        (
            collection::vec(collection::vec(arb_row(d, 6), 0..7), 0..16),
            collection::vec(arb_row(d, 12), 0..300),
            0usize..16,
            Just(d),
        )
            .prop_map(|(small, leftover, at, d)| {
                let mut groups: Vec<AnonymizedGroup> = small.iter().map(|g| group(g)).collect();
                groups.insert(at.min(groups.len()), group(&leftover));
                PublishedDataset {
                    n_items: d as usize,
                    sensitive_items: Vec::new(),
                    groups,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn count_identity_matches_pairwise_merge(published in arb_release()) {
        prop_assert_eq!(intra_group_overlap(&published), pairwise_overlap(&published));
    }
}

#[test]
fn empty_rows_and_groups_contribute_nothing() {
    let published = PublishedDataset {
        n_items: 4,
        sensitive_items: Vec::new(),
        groups: vec![
            group(&[]),
            group(&[Vec::new(), Vec::new()]),
            group(&[vec![0, 1], Vec::new(), vec![1, 2]]),
        ],
    };
    assert_eq!(intra_group_overlap(&published), 1);
    assert_eq!(pairwise_overlap(&published), 1);
}

#[test]
fn leftover_group_of_identical_rows_counts_every_pair() {
    // 1000 copies of a 3-item row: C(1000, 2) pairs, each sharing 3 items.
    let published = PublishedDataset {
        n_items: 3,
        sensitive_items: Vec::new(),
        groups: vec![group(&vec![vec![0, 1, 2]; 1000])],
    };
    assert_eq!(intra_group_overlap(&published), 3 * 1000 * 999 / 2);
}
