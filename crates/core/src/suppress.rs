//! Suppression-based feasibility repair.
//!
//! A privacy degree `p` is achievable only when `support(s) * p <= n` for
//! every sensitive item `s` (Section IV's group-validation argument). Real
//! datasets can violate this for a handful of very frequent sensitive
//! items. Rather than failing, a data owner can *suppress* — remove from
//! the data — just enough occurrences of the offending items to restore
//! feasibility; suppression is the classical complement to generalization
//! (Sweeney, cited as \[7\]) and keeps the release truthful (it only omits
//! facts, never invents them).
//!
//! [`enforce_feasibility`] removes the minimum number of occurrences,
//! choosing victims deterministically from a seed, and reports exactly what
//! was dropped so the owner can publish the suppression counts alongside
//! the release (as Table-style metadata).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cahd_data::{ItemId, SensitiveSet, TransactionSet};

use crate::invariant::{strict_invariant, strict_invariant_eq};

/// What [`enforce_feasibility`] removed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuppressionReport {
    /// `(sensitive item, occurrences removed)`, sorted by item.
    pub suppressed: Vec<(ItemId, usize)>,
}

impl SuppressionReport {
    /// Total occurrences removed.
    pub fn total(&self) -> usize {
        self.suppressed.iter().map(|&(_, c)| c).sum()
    }

    /// Whether nothing was suppressed.
    pub fn is_empty(&self) -> bool {
        self.suppressed.is_empty()
    }
}

/// Returns a copy of `data` in which every sensitive item's support
/// satisfies `support * p <= n`, by removing occurrences of over-frequent
/// sensitive items from a random (seeded) subset of their transactions.
/// QID items are never touched; transaction count is unchanged.
pub fn enforce_feasibility(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
    seed: u64,
) -> (TransactionSet, SuppressionReport) {
    assert!(p >= 1, "p must be positive");
    let n = data.n_transactions();
    let budget = n / p; // max allowed support per sensitive item
    let counts = sensitive.occurrence_counts(data);

    let mut to_remove: Vec<(ItemId, usize)> = Vec::new();
    for (r, &c) in counts.iter().enumerate() {
        if c > budget {
            to_remove.push((sensitive.items()[r], c - budget));
        }
    }
    if to_remove.is_empty() {
        return (data.clone(), SuppressionReport::default());
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let inv = data.matrix().transpose();
    // For each offending item, pick the victim transactions.
    let mut drop_item_from: Vec<Vec<bool>> = Vec::new(); // parallel to to_remove
    for &(item, excess) in &to_remove {
        let holders = inv.row(item as usize);
        let mut idx: Vec<usize> = (0..holders.len()).collect();
        for i in 0..excess {
            let j = rng.gen_range(i..idx.len());
            idx.swap(i, j);
        }
        let mut drop = vec![false; holders.len()];
        for &k in &idx[..excess] {
            drop[k] = true;
        }
        drop_item_from.push(drop);
    }

    // Rebuild rows.
    let mut rows: Vec<Vec<ItemId>> = data.iter().map(<[u32]>::to_vec).collect();
    for (ri, &(item, _)) in to_remove.iter().enumerate() {
        let holders = inv.row(item as usize);
        for (k, &t) in holders.iter().enumerate() {
            if drop_item_from[ri][k] {
                rows[t as usize].retain(|&i| i != item);
            }
        }
    }
    let repaired = TransactionSet::from_rows(&rows, data.n_items());
    strict_invariant_eq!(
        repaired.n_transactions(),
        n,
        "suppression must not drop transactions"
    );
    strict_invariant!(
        sensitive
            .occurrence_counts(&repaired)
            .iter()
            .all(|&c| c <= budget),
        "suppression must restore feasibility for every sensitive item"
    );
    let report = SuppressionReport {
        suppressed: to_remove,
    };
    (repaired, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cahd::{cahd, CahdConfig};
    use crate::verify::verify_published;

    fn overloaded() -> (TransactionSet, SensitiveSet) {
        // Item 9 sensitive with support 6 of n=10: infeasible for p >= 2.
        let rows: Vec<Vec<u32>> = (0..10u32)
            .map(|i| if i < 6 { vec![i % 3, 9] } else { vec![i % 3] })
            .collect();
        (
            TransactionSet::from_rows(&rows, 10),
            SensitiveSet::new(vec![9], 10),
        )
    }

    #[test]
    fn removes_exactly_the_excess() {
        let (data, sens) = overloaded();
        let (fixed, report) = enforce_feasibility(&data, &sens, 2, 7);
        assert_eq!(report.suppressed, vec![(9, 1)]); // 6 -> 5 = 10/2
        assert_eq!(report.total(), 1);
        assert_eq!(sens.occurrence_counts(&fixed), vec![5]);
        assert_eq!(fixed.n_transactions(), 10);
    }

    #[test]
    fn feasible_input_untouched() {
        let (data, sens) = overloaded();
        let (fixed, report) = enforce_feasibility(&data, &sens, 1, 7);
        assert!(report.is_empty());
        assert_eq!(fixed, data);
    }

    #[test]
    fn qid_items_preserved() {
        let (data, sens) = overloaded();
        let (fixed, _) = enforce_feasibility(&data, &sens, 2, 7);
        for t in 0..10 {
            let orig_qid: Vec<u32> = data
                .transaction(t)
                .iter()
                .copied()
                .filter(|&i| !sens.contains(i))
                .collect();
            let new_qid: Vec<u32> = fixed
                .transaction(t)
                .iter()
                .copied()
                .filter(|&i| !sens.contains(i))
                .collect();
            assert_eq!(orig_qid, new_qid, "transaction {t}");
        }
    }

    #[test]
    fn repaired_data_anonymizes() {
        let (data, sens) = overloaded();
        assert!(cahd(&data, &sens, &CahdConfig::new(2)).is_err());
        let (fixed, _) = enforce_feasibility(&data, &sens, 2, 7);
        let (published, _) = cahd(&fixed, &sens, &CahdConfig::new(2)).unwrap();
        verify_published(&fixed, &sens, &published, 2).unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let (data, sens) = overloaded();
        let (a, _) = enforce_feasibility(&data, &sens, 2, 1);
        let (b, _) = enforce_feasibility(&data, &sens, 2, 1);
        let (c, _) = enforce_feasibility(&data, &sens, 2, 2);
        assert_eq!(a, b);
        assert_ne!(a, c); // different victims (6 choose 1 leaves room)
    }

    #[test]
    fn multiple_offenders() {
        let rows: Vec<Vec<u32>> = (0..8u32)
            .map(|i| match i {
                0..=5 => vec![0, 8, 9],
                _ => vec![1],
            })
            .collect();
        let data = TransactionSet::from_rows(&rows, 10);
        let sens = SensitiveSet::new(vec![8, 9], 10);
        let (fixed, report) = enforce_feasibility(&data, &sens, 4, 3);
        // budget = 2 each; both had 6 -> remove 4 each.
        assert_eq!(report.suppressed, vec![(8, 4), (9, 4)]);
        assert_eq!(sens.occurrence_counts(&fixed), vec![2, 2]);
    }
}
