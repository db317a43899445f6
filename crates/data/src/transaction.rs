//! The transaction (basket) data model.

use cahd_sparse::{CsrMatrix, Permutation};

/// An item identifier: a column index of the binary transaction matrix.
pub type ItemId = u32;

/// A set of transactions over an item universe `0..n_items`.
///
/// Thin wrapper around a [`CsrMatrix`]: row `i` lists the (sorted, distinct)
/// items of transaction `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransactionSet {
    matrix: CsrMatrix,
}

impl TransactionSet {
    /// Builds from per-transaction item lists (sorted/de-duplicated
    /// internally).
    ///
    /// # Panics
    /// Panics if any item id is `>= n_items`.
    pub fn from_rows(rows: &[Vec<ItemId>], n_items: usize) -> Self {
        TransactionSet {
            matrix: CsrMatrix::from_rows(rows, n_items),
        }
    }

    /// Builds from an existing binary matrix.
    pub fn from_matrix(matrix: CsrMatrix) -> Self {
        TransactionSet { matrix }
    }

    /// Number of transactions `n`.
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.matrix.n_rows()
    }

    /// Size `d` of the item universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.matrix.n_cols()
    }

    /// Total number of (transaction, item) pairs.
    #[inline]
    pub fn total_items(&self) -> usize {
        self.matrix.nnz()
    }

    /// The sorted item list of transaction `t`.
    #[inline]
    pub fn transaction(&self, t: usize) -> &[ItemId] {
        self.matrix.row(t)
    }

    /// Length of transaction `t`.
    #[inline]
    pub fn len_of(&self, t: usize) -> usize {
        self.matrix.row_len(t)
    }

    /// Whether transaction `t` contains `item`.
    pub fn contains(&self, t: usize, item: ItemId) -> bool {
        self.matrix.get(t, item)
    }

    /// Iterates over transactions as sorted item slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[ItemId]> + '_ {
        self.matrix.rows()
    }

    /// The underlying binary matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The underlying binary matrix, moved out.
    pub fn into_matrix(self) -> CsrMatrix {
        self.matrix
    }

    /// Support (number of containing transactions) of every item.
    pub fn item_supports(&self) -> Vec<usize> {
        self.matrix.col_counts()
    }

    /// Reorders transactions: transaction `t` of the result is transaction
    /// `perm.new_to_old(t)` of `self`. Item ids are unchanged.
    pub fn permute(&self, perm: &Permutation) -> TransactionSet {
        TransactionSet {
            matrix: self.matrix.permute_rows(perm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TransactionSet {
        TransactionSet::from_rows(&[vec![0, 2], vec![1, 2], vec![]], 3)
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.n_transactions(), 3);
        assert_eq!(t.n_items(), 3);
        assert_eq!(t.total_items(), 4);
        assert_eq!(t.transaction(0), &[0, 2]);
        assert_eq!(t.len_of(2), 0);
        assert!(t.contains(1, 2));
        assert!(!t.contains(1, 0));
    }

    #[test]
    fn supports_and_inverted_index() {
        let t = sample();
        assert_eq!(t.item_supports(), vec![1, 1, 2]);
        let inv = t.matrix().transpose();
        assert_eq!(inv.row(2), &[0, 1]);
    }

    #[test]
    fn permute_reorders_transactions() {
        let t = sample();
        let p = Permutation::identity(3).reversed();
        let tp = t.permute(&p);
        assert_eq!(tp.transaction(0), &[] as &[u32]);
        assert_eq!(tp.transaction(2), &[0, 2]);
    }

    #[test]
    fn iter_matches_rows() {
        let t = sample();
        let lens: Vec<usize> = t.iter().map(<[u32]>::len).collect();
        assert_eq!(lens, vec![2, 2, 0]);
    }
}
