//! Compressed sparse row binary pattern matrices.
//!
//! A [`CsrMatrix`] stores only the *positions* of non-zero entries: per row,
//! a sorted, duplicate-free slice of column indices. This is exactly the
//! information the anonymization pipeline needs — a transaction either
//! contains an item or it does not.

use std::borrow::Cow;

use crate::perm::Permutation;
use crate::relabel::Relabel;

/// A binary sparse matrix in compressed sparse row format.
///
/// # Examples
///
/// ```
/// use cahd_sparse::CsrMatrix;
///
/// // Two transactions over three items.
/// let m = CsrMatrix::from_rows(&[vec![0, 2], vec![1]], 3);
/// assert_eq!(m.row(0), &[0, 2]);
/// assert!(m.get(1, 1));
/// assert_eq!(m.transpose().row(2), &[0]); // item 2 occurs in row 0
/// ```
///
/// Invariants (enforced by all constructors):
/// * `indptr.len() == n_rows + 1`, `indptr[0] == 0`, non-decreasing,
///   `indptr[n_rows] == indices.len()`;
/// * column indices within each row are strictly increasing (sorted, no
///   duplicates) and `< n_cols`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl CsrMatrix {
    /// Builds a matrix from per-row column lists.
    ///
    /// Rows are sorted and de-duplicated; the only failure mode is a column
    /// index out of range.
    ///
    /// # Panics
    /// Panics if any column index is `>= n_cols`.
    pub fn from_rows(rows: &[Vec<u32>], n_cols: usize) -> Self {
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        indptr.push(0usize);
        let mut scratch: Vec<u32> = Vec::new();
        for row in rows {
            scratch.clear();
            scratch.extend_from_slice(row);
            scratch.sort_unstable();
            scratch.dedup();
            if let Some(&max) = scratch.last() {
                assert!(
                    (max as usize) < n_cols,
                    "column index {max} out of range for {n_cols} columns"
                );
            }
            indices.extend_from_slice(&scratch);
            indptr.push(indices.len());
        }
        CsrMatrix {
            n_rows: rows.len(),
            n_cols,
            indptr,
            indices,
        }
    }

    /// Builds a matrix from raw CSR parts that are already valid.
    ///
    /// # Panics
    /// Panics (cheaply, without scanning entries in release builds beyond
    /// the structural checks) if the invariants listed on [`CsrMatrix`] do
    /// not hold.
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
    ) -> Self {
        assert_eq!(indptr.len(), n_rows + 1, "indptr length mismatch");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(
            // cahd-lint: allow(L003, reason = "indptr.len() == n_rows + 1 >= 1 was just asserted")
            *indptr.last().unwrap(),
            indices.len(),
            "indptr end mismatch"
        );
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "indptr must be non-decreasing");
        }
        for r in 0..n_rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {r} not strictly sorted");
            }
            if let Some(&max) = row.last() {
                assert!((max as usize) < n_cols, "column index out of range");
            }
        }
        CsrMatrix {
            n_rows,
            n_cols,
            indptr,
            indices,
        }
    }

    /// Builds an `n x n` matrix from an (unordered, possibly duplicated)
    /// edge/entry list.
    pub fn from_entries(n_rows: usize, n_cols: usize, entries: &[(u32, u32)]) -> Self {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n_rows];
        for &(r, c) in entries {
            assert!((r as usize) < n_rows, "row index out of range");
            rows[r as usize].push(c);
        }
        Self::from_rows(&rows, n_cols)
    }

    /// The empty `0 x 0` matrix.
    pub fn empty() -> Self {
        CsrMatrix {
            n_rows: 0,
            n_cols: 0,
            indptr: vec![0],
            indices: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of entries that are non-zero; `0.0` for an empty matrix.
    pub fn density(&self) -> f64 {
        let cells = self.n_rows as f64 * self.n_cols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }

    /// The sorted column indices of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Number of non-zeros in row `r`.
    #[inline]
    pub fn row_len(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Whether entry `(r, c)` is set.
    pub fn get(&self, r: usize, c: u32) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Iterates over rows as sorted column slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.n_rows).map(move |r| self.row(r))
    }

    /// The raw `indptr` array (length `n_rows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The raw concatenated column-index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The `indptr` and column-index arrays, moved out
    /// ([`CsrMatrix::from_raw_parts`] takes them back).
    pub fn into_raw_parts(self) -> (Vec<usize>, Vec<u32>) {
        (self.indptr, self.indices)
    }

    /// Number of non-zeros in each column.
    pub fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_cols];
        for &c in &self.indices {
            counts[c as usize] += 1;
        }
        counts
    }

    /// The transpose pattern: a `n_cols x n_rows` matrix whose row `j` lists
    /// the rows of `self` containing column `j` (an inverted index).
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.n_cols + 1);
        let mut total = 0usize;
        indptr.push(0);
        for c in self.col_counts() {
            total += c;
            indptr.push(total);
        }
        let mut cursor = indptr[..self.n_cols].to_vec();
        let mut indices = vec![0u32; total];
        for r in 0..self.n_rows {
            for &c in self.row(r) {
                indices[cursor[c as usize]] = r as u32;
                cursor[c as usize] += 1;
            }
        }
        // Rows of the transpose are automatically sorted because we visit
        // rows of `self` in increasing order.
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr,
            indices,
        }
    }

    /// Whether the pattern is square and symmetric.
    pub fn is_symmetric(&self) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        let t = self.transpose();
        t.indices == self.indices && t.indptr == self.indptr
    }

    /// Whether a universe of `n_cols` columns is wide for `nnz` non-zeros:
    /// wider than twice the non-zeros. Only then do the callers that could
    /// borrow their rows relabel them to the touched columns
    /// ([`Relabel::when_wide`]: the band reduction through
    /// [`ColumnSpace`](crate::ColumnSpace), the QID-similarity kernel in
    /// `cahd-core`); below that width every O(d) cost is already O(nnz),
    /// and the copy would only raise the peak.
    pub fn is_wide(n_cols: usize, nnz: usize) -> bool {
        n_cols > 2 * nnz
    }

    /// Drops the empty columns: the touched columns are relabeled `0..k`
    /// in ascending original id ([`Relabel`]), so every row stays sorted
    /// and every tie broken by column id breaks the same way. When every
    /// column is touched the matrix is borrowed, not copied.
    pub fn compact_columns(&self) -> (Cow<'_, CsrMatrix>, Relabel) {
        let (relabel, indices) = Relabel::of(self.n_cols, self.nnz(), self.indices.iter().copied());
        let k = relabel.ids().len();
        if k == self.n_cols {
            return (Cow::Borrowed(self), relabel);
        }
        let indptr = self.indptr.clone();
        (
            Cow::Owned(CsrMatrix::from_raw_parts(self.n_rows, k, indptr, indices)),
            relabel,
        )
    }

    /// `rows` read as sets over `0..n_cols` (a repeated id counts once,
    /// order is ignored, ids `>= n_cols` are dropped) and relabeled to the
    /// ids they hold: the sets and the [`Relabel`].
    pub fn from_sets(rows: &[&[u32]], n_cols: usize) -> (CsrMatrix, Relabel) {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        let mut held: Vec<u32> = Vec::with_capacity(rows.iter().map(|r| r.len()).sum());
        // Whether every row is already a strictly ascending set inside the
        // universe: then the ranks are the sets as they stand.
        let mut all_sets = true;
        indptr.push(0);
        for row in rows {
            if row.is_sorted_by(|a, b| a < b) && row.last().is_none_or(|&c| (c as usize) < n_cols) {
                held.extend_from_slice(row);
            } else {
                all_sets = false;
                held.extend(row.iter().filter(|&&c| (c as usize) < n_cols));
            }
            indptr.push(held.len());
        }
        let (relabel, mut indices) = Relabel::of(n_cols, held.len(), held.iter().copied());
        if !all_sets {
            // Rows are moved down over the ids a malformed row dropped; a
            // row that is not strictly ascending is sorted and deduplicated.
            let mut kept = 0;
            for r in 0..rows.len() {
                let (start, end) = (indptr[r], indptr[r + 1]);
                if kept < start {
                    indices.copy_within(start..end, kept);
                }
                let set = &mut indices[kept..kept + end - start];
                indptr[r] = kept;
                kept += set.len();
                if !set.is_sorted_by(|a, b| a < b) {
                    let mut sorted = set.to_vec();
                    sorted.sort_unstable();
                    sorted.dedup();
                    set[..sorted.len()].copy_from_slice(&sorted);
                    kept -= set.len() - sorted.len();
                }
            }
            indptr[rows.len()] = kept;
            indices.truncate(kept);
        }
        let sets = CsrMatrix {
            n_rows: rows.len(),
            n_cols: relabel.ids().len(),
            indptr,
            indices,
        };
        (sets, relabel)
    }

    /// Reorders rows: row `r` of the result is row `perm.new_to_old(r)` of
    /// `self`.
    ///
    /// # Panics
    /// Panics if `perm.len() != n_rows`.
    pub fn permute_rows(&self, perm: &Permutation) -> CsrMatrix {
        assert_eq!(perm.len(), self.n_rows, "row permutation length mismatch");
        let mut indptr = Vec::with_capacity(self.n_rows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        indptr.push(0usize);
        for new_r in 0..self.n_rows {
            let old_r = perm.new_to_old(new_r);
            indices.extend_from_slice(self.row(old_r));
            indptr.push(indices.len());
        }
        CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            indptr,
            indices,
        }
    }

    /// Relabels columns: column `c` becomes `perm.old_to_new(c)`; rows are
    /// re-sorted.
    ///
    /// # Panics
    /// Panics if `perm.len() != n_cols`.
    pub fn permute_cols(&self, perm: &Permutation) -> CsrMatrix {
        assert_eq!(
            perm.len(),
            self.n_cols,
            "column permutation length mismatch"
        );
        let mut indptr = Vec::with_capacity(self.n_rows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        indptr.push(0usize);
        let mut scratch: Vec<u32> = Vec::new();
        for r in 0..self.n_rows {
            scratch.clear();
            scratch.extend(
                self.row(r)
                    .iter()
                    .map(|&c| perm.old_to_new(c as usize) as u32),
            );
            scratch.sort_unstable();
            indices.extend_from_slice(&scratch);
            indptr.push(indices.len());
        }
        CsrMatrix {
            n_rows: self.n_rows,
            n_cols: self.n_cols,
            indptr,
            indices,
        }
    }

    /// Size of the intersection of two sorted index slices.
    ///
    /// Exposed because QID-overlap scoring in CAHD and the candidate
    /// selection tests both need it.
    pub fn intersection_len(a: &[u32], b: &[u32]) -> usize {
        let mut i = 0;
        let mut j = 0;
        let mut n = 0;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows(&[vec![0, 2], vec![1], vec![], vec![2, 3, 0]], 4)
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let m = CsrMatrix::from_rows(&[vec![3, 1, 3, 0]], 4);
        assert_eq!(m.row(0), &[0, 1, 3]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 4);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row(3), &[0, 2, 3]);
        assert_eq!(m.row_len(2), 0);
        assert!(m.get(0, 2));
        assert!(!m.get(0, 1));
        assert!((m.density() - 6.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_is_inverted_index() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.row(0), &[0, 3]); // item 0 in rows 0 and 3
        assert_eq!(t.row(1), &[1]);
        assert_eq!(t.row(2), &[0, 3]);
        assert_eq!(t.row(3), &[3]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn symmetry_check() {
        let sym = CsrMatrix::from_rows(&[vec![0, 1], vec![0, 1]], 2);
        assert!(sym.is_symmetric());
        let asym = CsrMatrix::from_rows(&[vec![1], vec![]], 2);
        assert!(!asym.is_symmetric());
        let rect = CsrMatrix::from_rows(&[vec![0]], 2);
        assert!(!rect.is_symmetric());
    }

    #[test]
    fn permute_rows_reorders() {
        let m = sample();
        let p = Permutation::from_new_to_old(vec![3, 2, 1, 0]).unwrap();
        let pm = m.permute_rows(&p);
        assert_eq!(pm.row(0), m.row(3));
        assert_eq!(pm.row(3), m.row(0));
        assert_eq!(pm.nnz(), m.nnz());
    }

    #[test]
    fn permute_cols_relabels() {
        let m = CsrMatrix::from_rows(&[vec![0, 1]], 3);
        // old->new: 0->2, 1->0, 2->1
        let p = Permutation::from_old_to_new(vec![2, 0, 1]).unwrap();
        let pm = m.permute_cols(&p);
        assert_eq!(pm.row(0), &[0, 2]);
    }

    #[test]
    fn from_entries_dedups() {
        let m = CsrMatrix::from_entries(2, 2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(m.row(0), &[1]);
        assert_eq!(m.row(1), &[0]);
    }

    #[test]
    fn intersection_len_works() {
        assert_eq!(CsrMatrix::intersection_len(&[1, 3, 5], &[2, 3, 5, 9]), 2);
        assert_eq!(CsrMatrix::intersection_len(&[], &[1]), 0);
        assert_eq!(CsrMatrix::intersection_len(&[7], &[7]), 1);
    }

    #[test]
    #[should_panic(expected = "column index")]
    fn out_of_range_panics() {
        CsrMatrix::from_rows(&[vec![5]], 3);
    }

    /// Checks `compact_columns` against its definition: the touched
    /// columns in ascending order, each row relabeled through them.
    fn assert_compaction(m: &CsrMatrix) {
        let (c, ids) = m.compact_columns();
        let mut touched: Vec<u32> = m.indices().to_vec();
        touched.sort_unstable();
        touched.dedup();
        assert_eq!(ids.ids(), touched);
        assert_eq!(c.n_cols(), ids.ids().len());
        assert_eq!(c.n_rows(), m.n_rows());
        for r in 0..m.n_rows() {
            let back: Vec<u32> = c.row(r).iter().map(|&j| ids.ids()[j as usize]).collect();
            assert_eq!(back, m.row(r), "row {r}");
        }
    }

    #[test]
    fn compact_columns_of_empty_matrix() {
        let m = CsrMatrix::empty();
        let (c, ids) = m.compact_columns();
        assert!(matches!(c, Cow::Borrowed(_)));
        assert_eq!(*c, m);
        assert!(ids.ids().is_empty());
    }

    #[test]
    fn compact_columns_with_no_touched_column() {
        let m = CsrMatrix::from_rows(&[vec![], vec![]], 100);
        let (c, ids) = m.compact_columns();
        assert_eq!((c.n_rows(), c.n_cols(), c.nnz()), (2, 0, 0));
        assert!(ids.ids().is_empty());
    }

    #[test]
    fn compact_columns_with_every_column_touched_is_identity() {
        let m = sample();
        let (c, ids) = m.compact_columns();
        assert!(matches!(c, Cow::Borrowed(_)));
        assert_eq!(*c, m);
        assert_eq!(ids.ids(), &[0, 1, 2, 3]);
    }

    #[test]
    fn compact_columns_keeps_the_last_column() {
        let m = CsrMatrix::from_rows(&[vec![3, 999], vec![], vec![0, 64, 999]], 1000);
        let (c, ids) = m.compact_columns();
        assert_eq!(ids.ids(), &[0, 3, 64, 999]);
        assert_eq!(c.row(0), &[1, 3]);
        assert_eq!(c.row(2), &[0, 2, 3]);
        assert_compaction(&m);
    }

    #[test]
    fn compact_columns_at_word_boundaries() {
        for d in [64usize, 65] {
            let last = d as u32 - 1;
            assert_compaction(&CsrMatrix::from_rows(&[vec![0, 63], vec![last]], d));
            assert_compaction(&CsrMatrix::from_rows(&[vec![1, last], vec![62]], d));
            let every: Vec<u32> = (0..d as u32).collect();
            let full = CsrMatrix::from_rows(&[every], d);
            assert!(matches!(full.compact_columns().0, Cow::Borrowed(_)));
        }
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::empty();
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.transpose(), m);
    }
}
