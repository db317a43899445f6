//! Anatomy-flavored random grouping.
//!
//! Anatomy (Xiao & Tao, VLDB'06) creates `l`-diverse groups without any
//! regard for QID proximity. Adapted to transactions, the reference below
//! scans the dataset in a *random* order and greedily groups each sensitive
//! transaction with its nearest non-conflicting neighbors in that order
//! (one occurrence of each sensitive item per group), validating against
//! the same remaining-occurrence histogram CAHD uses.
//!
//! Compared to CAHD this removes both the band-matrix locality and the
//! QID-overlap candidate selection, so the utility gap between
//! [`random_grouping`] and CAHD measures exactly what correlation-aware
//! grouping buys — the role Anatomy plays in the paper's Section I
//! motivation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cahd_core::histogram::SensitiveHistogram;
use cahd_core::order::OrderList;
use cahd_core::{AnonymizedGroup, CahdError, PublishedDataset};
use cahd_data::{SensitiveSet, TransactionSet};

/// Groups `data` greedily in a seeded random order, ignoring QID
/// similarity. Returns a release in the same format as CAHD.
pub fn random_grouping(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
    seed: u64,
) -> Result<PublishedDataset, CahdError> {
    if p < 2 {
        return Err(CahdError::InvalidPrivacyDegree(p));
    }
    let n = data.n_transactions();
    if n == 0 {
        return Err(CahdError::EmptyDataset);
    }
    if sensitive.n_items() != data.n_items() {
        return Err(CahdError::UniverseMismatch {
            data_items: data.n_items(),
            sensitive_items: sensitive.n_items(),
        });
    }
    let counts = sensitive.occurrence_counts(data);
    for (r, &c) in counts.iter().enumerate() {
        if c * p > n {
            return Err(CahdError::Infeasible {
                item: sensitive.items()[r],
                support: c,
                p,
                n,
            });
        }
    }

    // Random scan order (slot k holds transaction shuffle[k]).
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffle: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        shuffle.swap(i, j);
    }

    let sens_of = |t: usize| sensitive.ranks(data.transaction(t));
    let mut hist = SensitiveHistogram::new(counts);
    let mut order = OrderList::new(n);
    let mut remaining = n;
    let mut groups: Vec<AnonymizedGroup> = Vec::new();
    let m = sensitive.len();
    let mut conflict_stamp = vec![0u32; m];
    let mut cstamp = 0u32;

    for slot in 0..n {
        let t = shuffle[slot] as usize;
        if !order.is_alive(slot) || sens_of(t).next().is_none() {
            continue;
        }
        cstamp += 1;
        for r in sens_of(t) {
            conflict_stamp[r] = cstamp;
        }
        // Nearest non-conflicting neighbors in the shuffled order,
        // alternating sides, until p - 1 found.
        let mut members_slots: Vec<usize> = vec![slot];
        let mut lo = order.prev(slot);
        let mut hi = order.next(slot);
        while members_slots.len() < p && (lo.is_some() || hi.is_some()) {
            if let Some(c) = lo {
                let tc = shuffle[c] as usize;
                if !sens_of(tc).any(|r| conflict_stamp[r] == cstamp) {
                    for r in sens_of(tc) {
                        conflict_stamp[r] = cstamp;
                    }
                    members_slots.push(c);
                }
                lo = order.prev(c);
            }
            if members_slots.len() >= p {
                break;
            }
            if let Some(c) = hi {
                let tc = shuffle[c] as usize;
                if !sens_of(tc).any(|r| conflict_stamp[r] == cstamp) {
                    for r in sens_of(tc) {
                        conflict_stamp[r] = cstamp;
                    }
                    members_slots.push(c);
                }
                hi = order.next(c);
            }
        }
        if members_slots.len() < p {
            continue;
        }
        // Validate against the histogram, as in CAHD.
        for &s in &members_slots {
            for r in sens_of(shuffle[s] as usize) {
                hist.remove_occurrence(r);
            }
        }
        let new_remaining = remaining - members_slots.len();
        if hist.feasible(p, new_remaining) {
            remaining = new_remaining;
            let mut members: Vec<u32> = members_slots.iter().map(|&s| shuffle[s]).collect();
            members.sort_unstable();
            for &s in &members_slots {
                order.remove(s);
            }
            groups.push(AnonymizedGroup::from_members(data, sensitive, &members));
        } else {
            for &s in &members_slots {
                for r in sens_of(shuffle[s] as usize) {
                    hist.restore_occurrence(r);
                }
            }
        }
    }

    let leftovers: Vec<u32> = {
        let mut v: Vec<u32> = order.iter().map(|s| shuffle[s]).collect();
        v.sort_unstable();
        v
    };
    if !leftovers.is_empty() {
        groups.push(AnonymizedGroup::from_members(data, sensitive, &leftovers));
    }

    let published = PublishedDataset {
        n_items: data.n_items(),
        sensitive_items: sensitive.items().to_vec(),
        groups,
    };
    debug_assert!(published.satisfies(p));
    Ok(published)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::verify_published;

    fn data() -> (TransactionSet, SensitiveSet) {
        let rows: Vec<Vec<u32>> = (0..20)
            .map(|i| {
                if i % 5 == 0 {
                    vec![i as u32 % 8, 9]
                } else {
                    vec![i as u32 % 8]
                }
            })
            .collect();
        (
            TransactionSet::from_rows(&rows, 10),
            SensitiveSet::new(vec![9], 10),
        )
    }

    #[test]
    fn release_verifies() {
        let (d, s) = data();
        for p in [2, 3, 4] {
            let pub_ = random_grouping(&d, &s, p, 7).unwrap();
            verify_published(&d, &s, &pub_, p).unwrap();
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (d, s) = data();
        let a = random_grouping(&d, &s, 3, 1).unwrap();
        let b = random_grouping(&d, &s, 3, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (d, s) = data();
        let a = random_grouping(&d, &s, 3, 1).unwrap();
        let b = random_grouping(&d, &s, 3, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn infeasible_detected() {
        let (d, _) = data();
        let s = SensitiveSet::new(vec![0], 10); // support 3 within 20? see below
                                                // item 0 appears in transactions 0, 8, 16 -> support 3; p=8: 24>20.
        assert!(matches!(
            random_grouping(&d, &s, 8, 1),
            Err(CahdError::Infeasible { .. })
        ));
    }

    #[test]
    fn parameter_validation() {
        let (d, s) = data();
        assert!(matches!(
            random_grouping(&d, &s, 1, 1),
            Err(CahdError::InvalidPrivacyDegree(1))
        ));
    }
}
