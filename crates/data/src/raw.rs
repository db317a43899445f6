//! Rows exactly as written, in one CSR.

use crate::transaction::ItemId;

/// Rows of item ids exactly as a source wrote them — order, duplicates
/// and ids past any universe kept — back to back in one array: row `r`
/// is `ids[indptr[r]..indptr[r + 1]]`.
///
/// The `.dat` reader ([`crate::io::read_dat_raw`]) returns one, and the
/// streaming buffer keeps its unreleased rows in one, so a row costs no
/// heap block of its own. Ingestion layers classify the rows and build
/// the sanitized dataset from them; when every row is already in normal
/// form the arrays move into that dataset unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRows {
    indptr: Vec<usize>,
    ids: Vec<ItemId>,
}

impl Default for RawRows {
    fn default() -> Self {
        RawRows::new()
    }
}

impl RawRows {
    /// No rows.
    #[must_use]
    pub fn new() -> Self {
        RawRows {
            indptr: vec![0],
            ids: Vec::new(),
        }
    }

    /// Rebuilds from the arrays [`RawRows::into_parts`] returned.
    ///
    /// # Panics
    /// Panics unless `indptr` starts at 0, never decreases and ends at
    /// `ids.len()`.
    #[must_use]
    pub fn from_parts(indptr: Vec<usize>, ids: Vec<ItemId>) -> Self {
        assert_eq!(indptr.first(), Some(&0), "indptr must start at 0");
        assert_eq!(indptr.last(), Some(&ids.len()), "indptr end mismatch");
        assert!(
            indptr.windows(2).all(|w| w[0] <= w[1]),
            "indptr must be non-decreasing"
        );
        RawRows { indptr, ids }
    }

    /// The offsets (length `len() + 1`) and the ids, for moving into a
    /// CSR matrix.
    #[must_use]
    pub fn into_parts(self) -> (Vec<usize>, Vec<ItemId>) {
        (self.indptr, self.ids)
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `r` as written.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[ItemId] {
        &self.ids[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Every row in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[ItemId]> + Clone + '_ {
        (0..self.len()).map(move |r| self.row(r))
    }

    /// Appends one row.
    pub fn push(&mut self, row: &[ItemId]) {
        self.ids.extend_from_slice(row);
        self.indptr.push(self.ids.len());
    }

    /// Removes row `r`, shifting the later rows down one place.
    pub fn remove(&mut self, r: usize) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        self.ids.drain(lo..hi);
        self.indptr.remove(r + 1);
        for end in &mut self.indptr[r + 1..] {
            *end -= hi - lo;
        }
    }

    /// Moves every row of `other` onto the end, leaving `other` empty.
    pub fn append(&mut self, other: &mut RawRows) {
        let base = self.ids.len();
        self.ids.append(&mut other.ids);
        self.indptr
            .extend(other.indptr[1..].iter().map(|&end| base + end));
        other.indptr.truncate(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RawRows {
        let mut rows = RawRows::new();
        for row in [&[5, 2, 5][..], &[], &[7, 1], &[3]] {
            rows.push(row);
        }
        rows
    }

    #[test]
    fn rows_come_back_as_pushed() {
        let rows = sample();
        assert_eq!(rows.len(), 4);
        let got: Vec<&[ItemId]> = rows.iter().collect();
        assert_eq!(got, [&[5, 2, 5][..], &[], &[7, 1], &[3]]);
        let (indptr, ids) = rows.clone().into_parts();
        assert_eq!(indptr, [0, 3, 3, 5, 6]);
        assert_eq!(RawRows::from_parts(indptr, ids), rows);
    }

    #[test]
    fn remove_and_append_match_nested_vectors() {
        let mut rows = sample();
        let mut nested: Vec<Vec<ItemId>> = rows.iter().map(<[ItemId]>::to_vec).collect();
        for r in [2, 0, 1] {
            rows.remove(r);
            nested.remove(r);
            assert!(rows.iter().eq(nested.iter().map(Vec::as_slice)));
        }
        let mut tail = sample();
        rows.append(&mut tail);
        nested.extend(sample().iter().map(<[ItemId]>::to_vec));
        assert!(rows.iter().eq(nested.iter().map(Vec::as_slice)));
        assert!(tail.is_empty());
        tail.push(&[9]);
        assert_eq!(tail.row(0), &[9]);
    }

    #[test]
    #[should_panic(expected = "indptr end mismatch")]
    fn from_parts_checks_the_offsets() {
        let _ = RawRows::from_parts(vec![0, 2], vec![1]);
    }
}
