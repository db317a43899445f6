//! The sensitive item set `S` and selection strategies.
//!
//! Definition 1 of the paper: `S ⊆ I` are the items whose association with
//! a transaction is a privacy breach; the rest (`Q = I \ S`) form the
//! quasi-identifier. The evaluation section selects `m` sensitive items at
//! random; [`SensitiveSet::select_random`] additionally bounds the support
//! of eligible items so that the privacy requirement stays satisfiable
//! (a solution with degree `p` requires `support(s) * p <= n` for every
//! sensitive item — see the group-validation argument in Section IV).

use rand::Rng;

use crate::transaction::{ItemId, TransactionSet};

/// An immutable set of `m` sensitive items over a universe of `n_items`,
/// in O(m) memory: the sorted ids plus a 64-bit mask with bit `i & 63` set
/// for every sensitive `i`. Membership and rank test the mask first, so
/// most non-sensitive items are rejected with one AND, and only a mask
/// hit pays the O(log m) binary search. Nothing is sized on the universe,
/// which a sparse dataset makes huge (2M items) next to `m` (a handful).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SensitiveSet {
    /// Sorted sensitive item ids.
    items: Vec<ItemId>,
    /// Size of the item universe.
    n_items: usize,
    /// Bit `i & 63` set for every sensitive item `i`.
    mask: u64,
}

/// The mask bit of `item`.
#[inline]
fn mask_bit(item: ItemId) -> u64 {
    1u64 << (item & 63)
}

/// Error from [`SensitiveSet::select_random`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotEnoughEligibleItems {
    /// Number of items satisfying the support bound.
    pub eligible: usize,
    /// Number requested.
    pub requested: usize,
}

impl std::fmt::Display for NotEnoughEligibleItems {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "only {} items satisfy the support bound, {} requested",
            self.eligible, self.requested
        )
    }
}

impl std::error::Error for NotEnoughEligibleItems {}

impl SensitiveSet {
    /// Builds a sensitive set from explicit item ids.
    ///
    /// # Panics
    /// Panics if an id is `>= n_items`.
    pub fn new(mut items: Vec<ItemId>, n_items: usize) -> Self {
        items.sort_unstable();
        items.dedup();
        let mut mask = 0u64;
        for &i in &items {
            assert!((i as usize) < n_items, "sensitive item {i} out of range");
            mask |= mask_bit(i);
        }
        SensitiveSet {
            items,
            n_items,
            mask,
        }
    }

    /// The empty sensitive set over a universe of `n_items`.
    pub fn empty(n_items: usize) -> Self {
        SensitiveSet {
            items: Vec::new(),
            n_items,
            mask: 0,
        }
    }

    /// Selects `m` distinct sensitive items uniformly among items with
    /// support in `1..=floor(n / p_max)`, mirroring the paper's random
    /// selection while guaranteeing that privacy degree `p_max` remains
    /// feasible.
    pub fn select_random<R: Rng + ?Sized>(
        data: &TransactionSet,
        m: usize,
        p_max: usize,
        rng: &mut R,
    ) -> Result<Self, NotEnoughEligibleItems> {
        let n = data.n_transactions();
        let cap = n.checked_div(p_max).unwrap_or(n);
        let supports = data.item_supports();
        let mut eligible: Vec<ItemId> = supports
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s >= 1 && s <= cap)
            .map(|(i, _)| i as ItemId)
            .collect();
        if eligible.len() < m {
            return Err(NotEnoughEligibleItems {
                eligible: eligible.len(),
                requested: m,
            });
        }
        // Partial Fisher–Yates for the first m positions.
        for i in 0..m {
            let j = rng.gen_range(i..eligible.len());
            eligible.swap(i, j);
        }
        eligible.truncate(m);
        Ok(SensitiveSet::new(eligible, data.n_items()))
    }

    /// Number of sensitive items `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sorted sensitive item ids.
    pub fn items(&self) -> &[ItemId] {
        self.items.as_slice()
    }

    /// Size of the item universe the set was built over.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Membership test: the mask, then a binary search on a mask hit;
    /// `false` for an id outside the universe.
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.index_of(item).is_some()
    }

    /// The dense rank of `item` within the set (`0..m`), or `None` if not
    /// sensitive (an id outside the universe included). Used to index
    /// per-sensitive-item histograms.
    #[inline]
    pub fn index_of(&self, item: ItemId) -> Option<usize> {
        if self.mask & mask_bit(item) == 0 {
            return None;
        }
        self.items.binary_search(&item).ok()
    }

    /// The ranks of `txn`'s sensitive items, in order, without
    /// allocating: the second half of [`SensitiveSet::split_transaction`].
    pub fn ranks<'a>(&'a self, txn: &'a [ItemId]) -> impl Iterator<Item = usize> + 'a {
        txn.iter().filter_map(|&item| self.index_of(item))
    }

    /// Splits a transaction into (QID items, sensitive-item ranks).
    pub fn split_transaction(&self, txn: &[ItemId]) -> (Vec<ItemId>, Vec<usize>) {
        let mut qid = Vec::with_capacity(txn.len());
        let mut sens = Vec::new();
        for &item in txn {
            match self.index_of(item) {
                Some(rank) => sens.push(rank),
                None => qid.push(item),
            }
        }
        (qid, sens)
    }

    /// Number of occurrences of each sensitive item (indexed by rank).
    pub fn occurrence_counts(&self, data: &TransactionSet) -> Vec<usize> {
        let mut counts = vec![0usize; self.len()];
        for txn in data.iter() {
            for &item in txn {
                if let Some(r) = self.index_of(item) {
                    counts[r] += 1;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data() -> TransactionSet {
        TransactionSet::from_rows(
            &[vec![0, 1, 5], vec![1, 5], vec![2, 5], vec![3], vec![4, 5]],
            6,
        )
    }

    #[test]
    fn membership_and_rank() {
        let s = SensitiveSet::new(vec![4, 1], 6);
        assert_eq!(s.len(), 2);
        assert!(s.contains(1));
        assert!(s.contains(4));
        assert!(!s.contains(0));
        assert_eq!(s.index_of(1), Some(0));
        assert_eq!(s.index_of(4), Some(1));
        assert_eq!(s.index_of(2), None);
        assert!(!s.contains(6));
        assert!(!s.contains(u32::MAX));
        assert_eq!(s.index_of(999), None);
    }

    #[test]
    fn split_transaction_partitions() {
        let s = SensitiveSet::new(vec![1, 4], 6);
        let (qid, sens) = s.split_transaction(&[0, 1, 4, 5]);
        assert_eq!(qid, vec![0, 5]);
        assert_eq!(sens, vec![0, 1]);
        assert_eq!(s.ranks(&[0, 1, 4, 5]).collect::<Vec<_>>(), sens);
        assert_eq!(s.ranks(&[0, 2, 9]).count(), 0);
    }

    #[test]
    fn occurrence_counts() {
        let s = SensitiveSet::new(vec![1, 5], 6);
        let counts = s.occurrence_counts(&data());
        assert_eq!(counts, vec![2, 4]); // item1 twice, item5 four times
    }

    #[test]
    fn random_selection_respects_support_bound() {
        let d = data();
        let mut rng = StdRng::seed_from_u64(5);
        // p_max = 2 -> cap = 5/2 = 2: item 5 (support 4) is ineligible,
        // item 1 (support 2) and singletons are eligible.
        for _ in 0..20 {
            let s = SensitiveSet::select_random(&d, 2, 2, &mut rng).unwrap();
            assert!(!s.contains(5));
            assert_eq!(s.len(), 2);
        }
    }

    #[test]
    fn random_selection_insufficient_items() {
        let d = data();
        let mut rng = StdRng::seed_from_u64(5);
        let err = SensitiveSet::select_random(&d, 10, 2, &mut rng).unwrap_err();
        assert_eq!(err.requested, 10);
        assert!(err.eligible < 10);
    }

    #[test]
    fn empty_set() {
        let s = SensitiveSet::empty(4);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        let (qid, sens) = s.split_transaction(&[0, 1]);
        assert_eq!(qid, vec![0, 1]);
        assert!(sens.is_empty());
    }

    #[test]
    fn mask_collisions_fall_through_to_the_search() {
        // 3, 67 and 131 share mask bit 3; 195 shares it but is not
        // sensitive.
        let s = SensitiveSet::new(vec![131, 3, 67], 200);
        assert_eq!(s.index_of(3), Some(0));
        assert_eq!(s.index_of(67), Some(1));
        assert_eq!(s.index_of(131), Some(2));
        assert!(!s.contains(195));
        assert_eq!(s.index_of(195), None);
        assert!(!s.contains(4));
        let (qid, sens) = s.split_transaction(&[3, 4, 67, 195]);
        assert_eq!(qid, vec![4, 195]);
        assert_eq!(sens, vec![0, 1]);
    }

    #[test]
    fn ids_outside_the_universe_are_not_members() {
        let s = SensitiveSet::new(vec![5, 63], 64);
        assert_eq!(s.n_items(), 64);
        // 69 and 127 hit the mask bits of 5 and 63 but lie past n_items.
        for id in [64, 69, 127, u32::MAX] {
            assert!(!s.contains(id), "{id}");
            assert_eq!(s.index_of(id), None, "{id}");
        }
        assert!(s.contains(63));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_an_id_past_the_universe() {
        let _ = SensitiveSet::new(vec![u32::MAX], 10);
    }

    #[test]
    fn empty_set_over_a_huge_universe_holds_nothing() {
        let s = SensitiveSet::empty(1 << 21);
        assert_eq!(s.n_items(), 1 << 21);
        assert_eq!(s, SensitiveSet::new(Vec::new(), 1 << 21));
        for id in [0, 63, 64, (1 << 21) - 1, u32::MAX] {
            assert!(!s.contains(id), "{id}");
            assert_eq!(s.index_of(id), None, "{id}");
        }
    }

    #[test]
    fn new_dedups() {
        let s = SensitiveSet::new(vec![2, 2, 2], 3);
        assert_eq!(s.len(), 1);
    }
}
