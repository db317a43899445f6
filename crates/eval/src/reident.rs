//! The re-identification probability experiment (paper Table II).
//!
//! An attacker knows `k` items of a victim's transaction; re-identification
//! succeeds when exactly one transaction in the log contains all `k` items.
//! The probability is estimated by Monte-Carlo: sample a random transaction
//! with at least `k` (QID) items, sample `k` of its items, and count the
//! transactions matching all of them through the inverted index.

use rand::Rng;

use cahd_data::{ItemId, SensitiveSet, TransactionSet};

/// Estimates the probability that knowledge of `k` items re-identifies a
/// transaction, over `trials` Monte-Carlo samples.
///
/// When `sensitive` is provided, only QID items can be "known" (the
/// attacker model of the paper: background knowledge concerns innocuous
/// purchases). Transactions with fewer than `k` eligible items cannot be
/// attacked this way and are excluded from sampling.
///
/// Returns `None` when no transaction has `k` eligible items (in
/// particular when every item is sensitive and nothing can be "known"),
/// and for the degenerate `k == 0`.
pub fn reidentification_probability<R: Rng + ?Sized>(
    data: &TransactionSet,
    sensitive: Option<&SensitiveSet>,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> Option<f64> {
    if k == 0 {
        return None;
    }
    let inv = data.matrix().transpose();

    // Eligible items per transaction (QID items when a sensitive set is
    // given). Collect the indices of attackable transactions.
    let qid_items = |t: usize| -> Vec<ItemId> {
        match sensitive {
            Some(s) => data
                .transaction(t)
                .iter()
                .copied()
                .filter(|&i| !s.contains(i))
                .collect(),
            None => data.transaction(t).to_vec(),
        }
    };
    let attackable: Vec<u32> = (0..data.n_transactions())
        .filter(|&t| {
            let len = match sensitive {
                Some(s) => data
                    .transaction(t)
                    .iter()
                    .filter(|&&i| !s.contains(i))
                    .count(),
                None => data.len_of(t),
            };
            len >= k
        })
        .map(|t| t as u32)
        .collect();
    if attackable.is_empty() || trials == 0 {
        return None;
    }

    let mut successes = 0usize;
    let mut known: Vec<ItemId> = Vec::with_capacity(k);
    for _ in 0..trials {
        let t = attackable[rng.gen_range(0..attackable.len())] as usize;
        let mut items = qid_items(t);
        // Partial Fisher-Yates: first k become the attacker's knowledge.
        for i in 0..k {
            let j = rng.gen_range(i..items.len());
            items.swap(i, j);
        }
        known.clear();
        known.extend_from_slice(&items[..k]);
        if count_matching(&inv, &known, 2) == 1 {
            successes += 1;
        }
    }
    Some(successes as f64 / trials as f64)
}

/// Counts transactions containing all of `items`, stopping early at
/// `limit` matches (identification only needs to distinguish 1 from >= 2).
fn count_matching(inv: &cahd_sparse::CsrMatrix, items: &[ItemId], limit: usize) -> usize {
    debug_assert!(!items.is_empty());
    // Intersect posting lists, smallest first.
    let mut lists: Vec<&[u32]> = items.iter().map(|&i| inv.row(i as usize)).collect();
    lists.sort_by_key(|l| l.len());
    // cahd-lint: allow(L003, reason = "private helper; every caller passes a non-empty item list (debug_assert above)")
    let (first, rest) = lists.split_first().expect("non-empty");
    let mut count = 0;
    'outer: for &t in *first {
        for l in rest {
            if l.binary_search(&t).is_err() {
                continue 'outer;
            }
        }
        count += 1;
        if count >= limit {
            break;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unique_transactions_always_reidentified() {
        // Every transaction has a private item: knowing 1 item re-identifies
        // with probability ~ #unique-items / #items-per-txn.
        let data = TransactionSet::from_rows(&[vec![0, 9], vec![1, 9], vec![2, 9], vec![3, 9]], 10);
        let mut rng = StdRng::seed_from_u64(1);
        let p = reidentification_probability(&data, None, 2, 2_000, &mut rng).unwrap();
        // Knowing both items always pins the transaction (pairs are unique).
        assert!(p > 0.99, "p = {p}");
    }

    #[test]
    fn identical_transactions_never_reidentified() {
        let data = TransactionSet::from_rows(&vec![vec![0, 1]; 10], 2);
        let mut rng = StdRng::seed_from_u64(2);
        let p = reidentification_probability(&data, None, 2, 500, &mut rng).unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn probability_increases_with_k() {
        // Mixed data: more known items -> higher identification.
        let rows: Vec<Vec<u32>> = (0..200u32)
            .map(|i| vec![i % 10, 10 + (i % 7), 17 + (i % 5), 22 + (i % 3)])
            .collect();
        let data = TransactionSet::from_rows(&rows, 30);
        let mut rng = StdRng::seed_from_u64(3);
        let p1 = reidentification_probability(&data, None, 1, 2_000, &mut rng).unwrap();
        let p3 = reidentification_probability(&data, None, 3, 2_000, &mut rng).unwrap();
        assert!(p3 >= p1, "p1 {p1} p3 {p3}");
    }

    #[test]
    fn sensitive_items_excluded_from_knowledge() {
        // The only distinguishing item is sensitive; QID-only attack fails.
        let data = TransactionSet::from_rows(&[vec![0, 2], vec![0, 3]], 4);
        let sens = SensitiveSet::new(vec![2, 3], 4);
        let mut rng = StdRng::seed_from_u64(4);
        let p = reidentification_probability(&data, Some(&sens), 1, 500, &mut rng).unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn no_attackable_transactions() {
        let data = TransactionSet::from_rows(&[vec![0], vec![1]], 2);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(reidentification_probability(&data, None, 3, 100, &mut rng).is_none());
    }

    #[test]
    fn all_sensitive_fixture_returns_none_instead_of_panicking() {
        // Every item is sensitive, so k exceeds every transaction's
        // eligible-QID count (which is zero) and sampling has nothing to
        // draw from: the estimate must be `None`, not a panic.
        let data = TransactionSet::from_rows(&[vec![0, 1], vec![1, 2], vec![0, 2]], 3);
        let sens = SensitiveSet::new(vec![0, 1, 2], 3);
        let mut rng = StdRng::seed_from_u64(6);
        for k in 1..=3 {
            assert!(reidentification_probability(&data, Some(&sens), k, 100, &mut rng).is_none());
        }
    }

    #[test]
    fn k_zero_returns_none() {
        let data = TransactionSet::from_rows(&[vec![0, 1]], 2);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(reidentification_probability(&data, None, 0, 100, &mut rng).is_none());
    }
}
