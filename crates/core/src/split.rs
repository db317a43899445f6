//! Every row split once into flat arrays (paper Section IV: group
//! formation reads each transaction as its QID items plus its sensitive
//! items).
//!
//! [`RowSplit`] walks a dataset once and fills three things: the QID rows
//! back to back ([`FlatRows`]), the sensitive ranks of every row the same
//! way, and the occurrence count of every sensitive item. Group formation,
//! the similarity kernel and the published rows all read slices of these,
//! so no row gets a heap `Vec` of its own until it is published.
//!
//! [`Rows`] is the borrowed view. Its offsets index the shared item array
//! directly, so [`Rows::slice`] hands a shard its rows without copying,
//! and the view's entries are exactly the items of those rows.

use std::fmt;
use std::ops::Range;

use cahd_data::{ItemId, SensitiveSet, TransactionSet, WeightedTransactionSet};
use serde::{Deserialize, Reader, Serialize, Writer};

use crate::invariant::strict_invariant;

/// Rows of `u32` entries stored back to back: row `r` is
/// `items[indptr[r]..indptr[r + 1]]`. The owned form that [`Rows`]
/// borrows, and the form a published group keeps its QID rows in: two
/// arrays per group, whatever its size. At most `u32::MAX` entries, like
/// the relabel ranks the kernel builds from them.
///
/// Its JSON is that of the `Vec<Vec<u32>>` it stands for, `[[..],[..]]`,
/// written and read directly; `Debug` prints the same list of lists.
#[derive(Clone, PartialEq, Eq)]
pub struct FlatRows {
    indptr: Vec<u32>,
    items: Vec<u32>,
}

impl FlatRows {
    /// No rows yet, with room for `n_rows` rows of `nnz` entries in all.
    pub(crate) fn with_capacity(n_rows: usize, nnz: usize) -> Self {
        let mut indptr = Vec::with_capacity(n_rows + 1);
        indptr.push(0);
        FlatRows {
            indptr,
            items: Vec::with_capacity(nnz),
        }
    }

    /// The given rows, copied back to back in order.
    pub fn from_rows(rows: &[Vec<u32>]) -> Self {
        let mut flat = FlatRows::with_capacity(rows.len(), rows.iter().map(Vec::len).sum());
        for row in rows {
            flat.push_row(row.iter().copied());
        }
        flat
    }

    /// Rows `picks` of `rows`, in that order, at exactly the capacity
    /// they need.
    pub fn gather(rows: Rows<'_>, picks: &[usize]) -> Self {
        let nnz = picks.iter().map(|&r| rows.range(r).len()).sum();
        let mut flat = FlatRows::with_capacity(picks.len(), nnz);
        for &r in picks {
            flat.push_row(rows.row(r).iter().copied());
        }
        flat
    }

    /// Appends one row.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = u32>) {
        self.items.extend(row);
        self.end_row();
    }

    /// Closes the row the entries pushed since the last call form.
    fn end_row(&mut self) {
        strict_invariant!(
            self.items.len() <= u32::MAX as usize,
            "at most u32::MAX entries"
        );
        self.indptr.push(self.items.len() as u32);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries over all rows.
    pub fn nnz(&self) -> usize {
        self.items.len()
    }

    /// Row `r`.
    ///
    /// # Panics
    /// If `r >= self.len()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        self.rows().row(r)
    }

    /// Row `r`, or `None` past the last row.
    pub fn get(&self, r: usize) -> Option<&[u32]> {
        (r < self.len()).then(|| self.row(r))
    }

    /// Every row, in order.
    pub fn iter(&self) -> RowIter<'_> {
        self.rows().iter()
    }

    /// Every row copied into a `Vec` of its own: a working copy to edit
    /// row by row, turned back with [`FlatRows::from_rows`].
    pub fn to_rows(&self) -> Vec<Vec<u32>> {
        self.iter().map(<[u32]>::to_vec).collect()
    }

    /// Rewrites the rows through a working copy ([`FlatRows::to_rows`]),
    /// rebuilt once when `edit` returns.
    pub fn edit_rows(&mut self, edit: impl FnOnce(&mut Vec<Vec<u32>>)) {
        let mut rows = self.to_rows();
        edit(&mut rows);
        *self = FlatRows::from_rows(&rows);
    }

    /// The borrowed view of every row.
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            indptr: &self.indptr,
            items: &self.items,
        }
    }
}

impl fmt::Debug for FlatRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a FlatRows {
    type Item = &'a [u32];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl Serialize for FlatRows {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_array();
        for row in self {
            w.element();
            row.serialize(w);
        }
        w.end_array();
    }
}

impl Deserialize for FlatRows {
    /// Reads `[[..],[..]]` straight into the two arrays, failing with the
    /// messages a `Vec<Vec<u32>>` read would give.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let mut flat = FlatRows::with_capacity(0, 0);
        r.array("array", |r| {
            r.array("array", |r| {
                flat.items.push(u32::deserialize(r)?);
                Ok(())
            })?;
            if flat.items.len() > u32::MAX as usize {
                return Err(serde::Error::custom("more than u32::MAX row entries"));
            }
            flat.indptr.push(flat.items.len() as u32);
            Ok(())
        })?;
        Ok(flat)
    }
}

/// The rows of a [`Rows`] view (or a [`FlatRows`]), in order.
#[derive(Clone, Debug)]
pub struct RowIter<'a> {
    rows: Rows<'a>,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [u32];

    #[inline]
    fn next(&mut self) -> Option<&'a [u32]> {
        let r = self.next;
        (r < self.rows.len()).then(|| {
            self.next += 1;
            self.rows.row(r)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// A borrowed run of rows: row `r` is `items[indptr[r]..indptr[r + 1]]`.
/// `indptr` indexes the whole shared `items`, so rows `lo..hi` of a
/// larger view are just the offsets `indptr[lo..=hi]` ([`Rows::slice`]).
#[derive(Clone, Copy, Debug)]
pub struct Rows<'a> {
    indptr: &'a [u32],
    items: &'a [u32],
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Whether the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positions of row `r`'s entries in the shared item array.
    #[inline]
    pub fn range(&self, r: usize) -> Range<usize> {
        self.indptr[r] as usize..self.indptr[r + 1] as usize
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [u32] {
        &self.items[self.range(r)]
    }

    /// Position of the view's first entry in the shared item array.
    #[inline]
    pub fn base(&self) -> usize {
        self.indptr[0] as usize
    }

    /// The entries of the view's own rows, back to back.
    pub fn entries(&self) -> &'a [u32] {
        &self.items[self.base()..self.indptr[self.len()] as usize]
    }

    /// Every row of the view, in order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            rows: *self,
            next: 0,
        }
    }

    /// Rows `lo..hi` of this view, sharing its item array.
    pub fn slice(&self, lo: usize, hi: usize) -> Rows<'a> {
        Rows {
            indptr: &self.indptr[lo..=hi],
            items: self.items,
        }
    }
}

/// A dataset split once: QID rows, sensitive ranks and the occurrence
/// count of every sensitive item, filled in one pass over the rows.
#[derive(Clone, Debug)]
pub struct RowSplit {
    qid: FlatRows,
    /// The count of every QID entry, aligned with the QID item array;
    /// empty for binary data.
    weights: Vec<u32>,
    sens: FlatRows,
    occurrences: Vec<usize>,
}

impl RowSplit {
    /// Splits every transaction of `data` into its QID items and the
    /// ranks of its sensitive items.
    pub fn of(data: &TransactionSet, sensitive: &SensitiveSet) -> Self {
        let rows = data.iter().map(|txn| txn.iter().map(|&item| (item, 0)));
        RowSplit::build(rows, data.total_items(), sensitive, false)
    }

    /// [`RowSplit::of`] for count-valued data: the QID entries keep their
    /// counts ([`RowSplit::weights`]).
    pub fn of_weighted(data: &WeightedTransactionSet, sensitive: &SensitiveSet) -> Self {
        let rows = (0..data.n_transactions()).map(|t| data.transaction(t));
        RowSplit::build(rows, data.pattern().nnz(), sensitive, true)
    }

    fn build<R: IntoIterator<Item = (ItemId, u32)>>(
        rows: impl ExactSizeIterator<Item = R>,
        nnz: usize,
        sensitive: &SensitiveSet,
        weighted: bool,
    ) -> Self {
        let n = rows.len();
        let mut qid = FlatRows::with_capacity(n, nnz);
        let mut weights = Vec::with_capacity(if weighted { nnz } else { 0 });
        let mut sens = FlatRows::with_capacity(n, 0);
        let mut occurrences = vec![0usize; sensitive.len()];
        for row in rows {
            for (item, count) in row {
                match sensitive.index_of(item) {
                    Some(r) => {
                        sens.items.push(r as u32);
                        occurrences[r] += 1;
                    }
                    None => {
                        qid.items.push(item);
                        if weighted {
                            weights.push(count);
                        }
                    }
                }
            }
            qid.end_row();
            sens.end_row();
        }
        RowSplit {
            qid,
            weights,
            sens,
            occurrences,
        }
    }

    /// The QID rows: each row's items minus its sensitive ones, in order.
    pub fn qid(&self) -> Rows<'_> {
        self.qid.rows()
    }

    /// The count of every QID entry, aligned with the item array behind
    /// [`RowSplit::qid`] (row `r`'s are `weights()[qid().range(r)]`);
    /// empty for binary data.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The sensitive ranks of every row (see [`SensitiveSet::index_of`]).
    pub fn sens(&self) -> Rows<'_> {
        self.sens.rows()
    }

    /// Occurrences of each sensitive item over every row, by rank.
    pub fn occurrences(&self) -> &[usize] {
        &self.occurrences
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_matches_split_transaction_and_occurrence_counts() {
        let data = TransactionSet::from_rows(
            &[vec![0, 1, 5], vec![1, 5], vec![], vec![2, 4, 5], vec![3]],
            6,
        );
        let sens = SensitiveSet::new(vec![4, 5], 6);
        let split = RowSplit::of(&data, &sens);
        assert_eq!(split.qid().len(), 5);
        for (t, txn) in data.iter().enumerate() {
            let (qid, ranks) = sens.split_transaction(txn);
            assert_eq!(split.qid().row(t), qid.as_slice(), "row {t}");
            let got: Vec<usize> = split.sens().row(t).iter().map(|&r| r as usize).collect();
            assert_eq!(got, ranks, "row {t}");
        }
        assert_eq!(
            split.occurrences(),
            sens.occurrence_counts(&data).as_slice()
        );
        assert!(split.weights().is_empty());
    }

    #[test]
    fn weighted_split_keeps_counts_aligned() {
        let data = WeightedTransactionSet::from_rows(
            &[
                vec![(0, 5), (1, 3), (5, 1)],
                vec![(2, 4), (5, 2)],
                vec![(3, 7)],
            ],
            6,
        );
        let sens = SensitiveSet::new(vec![5], 6);
        let split = RowSplit::of_weighted(&data, &sens);
        let qid = split.qid();
        let rows: Vec<Vec<(u32, u32)>> = (0..qid.len())
            .map(|r| {
                qid.row(r)
                    .iter()
                    .zip(&split.weights()[qid.range(r)])
                    .map(|(&i, &c)| (i, c))
                    .collect()
            })
            .collect();
        assert_eq!(rows, vec![vec![(0, 5), (1, 3)], vec![(2, 4)], vec![(3, 7)]]);
        assert_eq!(split.occurrences(), &[2]);
    }

    #[test]
    fn a_slice_sees_only_its_rows() {
        let flat = FlatRows::from_rows(&[vec![1, 2], vec![], vec![3], vec![4, 5, 6]]);
        let all = flat.rows();
        let mid = all.slice(1, 3);
        assert_eq!(mid.len(), 2);
        assert_eq!(mid.row(0), &[] as &[u32]);
        assert_eq!(mid.row(1), &[3]);
        assert_eq!(mid.base(), 2);
        assert_eq!(mid.entries(), &[3]);
        assert_eq!(all.entries(), &[1, 2, 3, 4, 5, 6]);
        assert!(all.slice(2, 2).is_empty());
    }
}
