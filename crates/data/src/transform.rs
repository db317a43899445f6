//! Dataset transformation utilities.
//!
//! Real deployments rarely anonymize a log verbatim: they subsample for
//! experimentation, filter, or merge logs from several sources. These helpers keep such
//! plumbing out of application code; each returns a new
//! [`TransactionSet`] and, where transaction identity matters, the mapping
//! back to the original indices.

use rand::Rng;

use crate::transaction::{ItemId, TransactionSet};

/// Uniformly samples `k` transactions without replacement (seeded by the
/// caller's RNG). Returns the sample and the original indices, in
/// ascending original order. `k >= n` returns a full copy.
pub fn sample_transactions<R: Rng + ?Sized>(
    data: &TransactionSet,
    k: usize,
    rng: &mut R,
) -> (TransactionSet, Vec<u32>) {
    let n = data.n_transactions();
    if k >= n {
        return (data.clone(), (0..n as u32).collect());
    }
    let mut idx: Vec<u32> = (0..n as u32).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    let rows: Vec<Vec<ItemId>> = idx
        .iter()
        .map(|&t| data.transaction(t as usize).to_vec())
        .collect();
    (TransactionSet::from_rows(&rows, data.n_items()), idx)
}

/// Keeps only transactions satisfying `keep`; returns the filtered set and
/// the surviving original indices.
pub fn filter_transactions(
    data: &TransactionSet,
    mut keep: impl FnMut(usize, &[ItemId]) -> bool,
) -> (TransactionSet, Vec<u32>) {
    let mut rows = Vec::new();
    let mut idx = Vec::new();
    for t in 0..data.n_transactions() {
        let items = data.transaction(t);
        if keep(t, items) {
            rows.push(items.to_vec());
            idx.push(t as u32);
        }
    }
    (TransactionSet::from_rows(&rows, data.n_items()), idx)
}

/// Concatenates several logs over the same item universe.
///
/// # Panics
/// Panics if the item universes differ.
pub fn concat(parts: &[&TransactionSet]) -> TransactionSet {
    let Some(first) = parts.first() else {
        return TransactionSet::from_rows(&[], 0);
    };
    let d = first.n_items();
    let mut rows = Vec::new();
    for part in parts {
        assert_eq!(part.n_items(), d, "item universes must match");
        rows.extend(part.iter().map(<[u32]>::to_vec));
    }
    TransactionSet::from_rows(&rows, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data() -> TransactionSet {
        TransactionSet::from_rows(
            &(0..20u32)
                .map(|i| vec![i % 5, 5 + i % 3])
                .collect::<Vec<_>>(),
            10,
        )
    }

    #[test]
    fn sample_is_subset_with_mapping() {
        let d = data();
        let mut rng = StdRng::seed_from_u64(1);
        let (s, ids) = sample_transactions(&d, 7, &mut rng);
        assert_eq!(s.n_transactions(), 7);
        assert_eq!(ids.len(), 7);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        for (k, &orig) in ids.iter().enumerate() {
            assert_eq!(s.transaction(k), d.transaction(orig as usize));
        }
    }

    #[test]
    fn sample_all_is_identity() {
        let d = data();
        let mut rng = StdRng::seed_from_u64(1);
        let (s, ids) = sample_transactions(&d, 100, &mut rng);
        assert_eq!(s, d);
        assert_eq!(ids.len(), 20);
    }

    #[test]
    fn filter_keeps_matching() {
        let d = data();
        let (f, ids) = filter_transactions(&d, |_, items| items.contains(&0));
        assert_eq!(f.n_transactions(), 4); // i % 5 == 0: 0, 5, 10, 15
        assert_eq!(ids, vec![0, 5, 10, 15]);
    }

    #[test]
    fn concat_appends() {
        let d = data();
        let c = concat(&[&d, &d]);
        assert_eq!(c.n_transactions(), 40);
        assert_eq!(c.transaction(20), d.transaction(0));
        assert_eq!(concat(&[]).n_transactions(), 0);
    }

    #[test]
    #[should_panic(expected = "universes must match")]
    fn concat_rejects_mismatched_universe() {
        let a = TransactionSet::from_rows(&[vec![0]], 2);
        let b = TransactionSet::from_rows(&[vec![0]], 3);
        concat(&[&a, &b]);
    }
}
