//! Relabeling a column universe to the columns in use: a stream batch
//! over a 2M-item universe holds a few thousand items, and every table
//! sized on the universe should be sized on those instead.

use std::borrow::Cow;

use crate::csr::CsrMatrix;

/// The distinct columns touched out of a universe of `n_cols`, ascending,
/// and each one's rank among them: sorted rows stay sorted.
///
/// The representation follows from the inputs alone. When the universe
/// is narrower than the references (`n_cols < nnz`), a table of every
/// column's rank answers a rank with one load. When it takes no more
/// 64-bit words than there are references (`⌈n_cols/64⌉ ≤ nnz`), a bitmap
/// of touched columns with per-word rank prefixes answers a rank in O(1).
/// Otherwise one sort of the references finds the ids, a rank is a binary
/// search, and nothing is sized on the universe. The rank table takes
/// fewer bytes than the ranks [`Relabel::of`] returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabel {
    /// The touched columns, ascending: `ids[rank] = id`.
    ids: Vec<u32>,
    index: RankIndex,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum RankIndex {
    /// `rank[id]` for every id of the universe; `u32::MAX` when untouched.
    Dense(Vec<u32>),
    /// `bits` holds bit `id % 64` of word `id / 64` for every touched id;
    /// `prefix[w]` counts the touched ids in the words before `w`.
    Bitmap { bits: Vec<u64>, prefix: Vec<u32> },
    /// Ranks are positions in the sorted `ids`.
    Sorted,
}

impl Relabel {
    /// The relabel of the columns `refs` names, out of `0..n_cols`, and
    /// the rank of every reference, in order. `refs` yields `nnz` ids (at
    /// most `u32::MAX`), each `< n_cols` (the table and bitmap paths
    /// panic on any other), repeats allowed.
    pub fn of(
        n_cols: usize,
        nnz: usize,
        refs: impl IntoIterator<Item = u32, IntoIter: Clone>,
    ) -> (Relabel, Vec<u32>) {
        let refs = refs.into_iter();
        let mut ranks = Vec::with_capacity(nnz);
        if n_cols < nnz {
            let mut rank = vec![u32::MAX; n_cols];
            for c in refs.clone() {
                rank[c as usize] = 0;
            }
            let mut ids = Vec::new();
            for (c, r) in rank.iter_mut().enumerate() {
                if *r == 0 {
                    *r = ids.len() as u32;
                    ids.push(c as u32);
                }
            }
            ranks.extend(refs.map(|c| rank[c as usize]));
            let index = RankIndex::Dense(rank);
            return (Relabel { ids, index }, ranks);
        }
        let words = n_cols.div_ceil(64);
        if words > nnz {
            // One sort of (id, position) pairs gives the ids in order and
            // every reference its rank.
            let mut pairs: Vec<u64> = Vec::with_capacity(nnz);
            pairs.extend(refs.zip(0u64..).map(|(c, p)| (u64::from(c) << 32) | p));
            pairs.sort_unstable();
            ranks.resize(pairs.len(), 0);
            let mut ids: Vec<u32> = Vec::new();
            for pair in pairs {
                let c = (pair >> 32) as u32;
                if ids.last() != Some(&c) {
                    ids.push(c);
                }
                ranks[pair as u32 as usize] = ids.len() as u32 - 1;
            }
            let index = RankIndex::Sorted;
            return (Relabel { ids, index }, ranks);
        }
        let mut bits = vec![0u64; words];
        for c in refs.clone() {
            bits[c as usize / 64] |= 1u64 << (c % 64);
        }
        let mut prefix = Vec::with_capacity(words);
        let mut ids = Vec::new();
        for (wi, &w) in bits.iter().enumerate() {
            prefix.push(ids.len() as u32);
            let mut w = w;
            while w != 0 {
                ids.push((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        ranks.extend(refs.map(|c| {
            let w = c as usize / 64;
            prefix[w] + (bits[w] & ((1u64 << (c % 64)) - 1)).count_ones()
        }));
        let index = RankIndex::Bitmap { bits, prefix };
        (Relabel { ids, index }, ranks)
    }

    /// [`Relabel::of`] when the universe is wide for its `nnz` references
    /// ([`CsrMatrix::is_wide`]), else `None`: callers that can use their
    /// rows as given decide here and nowhere else.
    pub fn when_wide(
        n_cols: usize,
        nnz: usize,
        refs: impl IntoIterator<Item = u32, IntoIter: Clone>,
    ) -> Option<(Relabel, Vec<u32>)> {
        CsrMatrix::is_wide(n_cols, nnz).then(|| Relabel::of(n_cols, nnz, refs))
    }

    /// The touched columns, ascending: `ids()[rank]` is the original id.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The rank of `id` among the touched columns, or `None` when `id` is
    /// untouched (any id, past the universe included).
    #[inline]
    pub fn rank(&self, id: u32) -> Option<u32> {
        match &self.index {
            RankIndex::Dense(rank) => rank.get(id as usize).copied().filter(|&r| r != u32::MAX),
            RankIndex::Bitmap { bits, prefix } => {
                let w = id as usize / 64;
                let word = *bits.get(w)?;
                let bit = 1u64 << (id % 64);
                (word & bit != 0).then(|| prefix[w] + (word & (bit - 1)).count_ones())
            }
            RankIndex::Sorted => self.ids.binary_search(&id).ok().map(|r| r as u32),
        }
    }
}

/// A matrix in its own column space: compacted to its touched columns
/// ([`CsrMatrix::compact_columns`]) when its universe is wide for it
/// ([`Relabel::when_wide`]), else the matrix itself.
pub struct ColumnSpace<'a> {
    /// The matrix to work on.
    pub matrix: Cow<'a, CsrMatrix>,
    /// The compacted columns; `None` when `matrix` is the input itself.
    pub relabel: Option<Relabel>,
}

impl<'a> ColumnSpace<'a> {
    /// The column space of `a`.
    pub fn of(a: &'a CsrMatrix) -> Self {
        match Relabel::when_wide(a.n_cols(), a.nnz(), a.indices().iter().copied()) {
            Some((relabel, indices)) => {
                let (n, k, indptr) = (a.n_rows(), relabel.ids.len(), a.indptr().to_vec());
                let matrix = Cow::Owned(CsrMatrix::from_raw_parts(n, k, indptr, indices));
                ColumnSpace {
                    matrix,
                    relabel: Some(relabel),
                }
            }
            None => ColumnSpace {
                matrix: Cow::Borrowed(a),
                relabel: None,
            },
        }
    }

    /// The original id of column `j` of `matrix`.
    pub fn original(&self, j: u32) -> u32 {
        self.relabel.as_ref().map_or(j, |r| r.ids[j as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Relabel {
        fn is_bitmap(&self) -> bool {
            matches!(self.index, RankIndex::Bitmap { .. })
        }

        fn is_dense(&self) -> bool {
            matches!(self.index, RankIndex::Dense(_))
        }
    }

    /// [`Relabel::of`] over `touched`, claiming `nnz` references, with each
    /// reference's rank checked against [`Relabel::rank`].
    fn relabel(n_cols: usize, nnz: usize, touched: &[u32]) -> Relabel {
        let (r, ranks) = Relabel::of(n_cols, nnz, touched.iter().copied());
        let want: Vec<Option<u32>> = touched.iter().map(|&c| r.rank(c)).collect();
        assert_eq!(ranks.into_iter().map(Some).collect::<Vec<_>>(), want);
        r
    }

    /// Checks `r` against a plain sort of `touched` on every id below
    /// `probe_to`.
    fn assert_matches_sort(r: &Relabel, touched: &[u32], probe_to: u32) {
        let mut want = touched.to_vec();
        want.sort_unstable();
        want.dedup();
        assert_eq!(r.ids(), &want[..]);
        for id in 0..probe_to {
            let rank = want.binary_search(&id).ok().map(|p| p as u32);
            assert_eq!(r.rank(id), rank, "id {id}");
        }
        assert_eq!(r.rank(u32::MAX), None);
    }

    #[test]
    fn both_representations_match_a_sort() {
        let touched = [130, 3, 64, 3, 0, 129, 63, 199];
        // 200 columns: 4 words against 8 references, then against 3.
        let bitmap = relabel(200, touched.len(), &touched);
        assert!(bitmap.is_bitmap());
        assert_matches_sort(&bitmap, &touched, 256);
        let sorted = relabel(200, 3, &touched);
        assert!(!sorted.is_bitmap());
        assert_matches_sort(&sorted, &touched, 256);
        assert_eq!(bitmap.ids(), sorted.ids());
    }

    #[test]
    fn representation_switches_at_one_word_per_reference() {
        // ⌈d/64⌉ = nnz takes the bitmap, one word more the sort.
        let touched: Vec<u32> = vec![5, 70, 140];
        assert!(relabel(192, 3, &touched).is_bitmap());
        assert!(relabel(129, 3, &touched).is_bitmap());
        let wide = relabel(193, 3, &touched);
        assert!(!wide.is_bitmap());
        assert_matches_sort(&wide, &touched, 200);
    }

    #[test]
    fn universes_narrower_than_the_references_take_the_table() {
        // 200 columns against 201 references, then against 200.
        let touched: Vec<u32> = (0..201).map(|i| (i * 7) % 199).collect();
        let dense = relabel(200, touched.len(), &touched);
        assert!(dense.is_dense());
        assert_matches_sort(&dense, &touched, 256);
        let bitmap = relabel(200, 200, &touched[..200]);
        assert!(bitmap.is_bitmap());
        assert_eq!(dense.ids(), bitmap.ids());
        // Column 199 is never touched: the table reads it as absent.
        assert_eq!(dense.rank(199), None);
    }

    #[test]
    fn no_touched_column() {
        for n_cols in [0, 1, 64, 1000] {
            let r = relabel(n_cols, 0, &[]);
            assert!(r.ids().is_empty());
            assert_eq!(r.rank(0), None);
        }
        // A bitmap over words that hold no touched id.
        let r = relabel(64, 5, &[]);
        assert!(r.is_bitmap() && r.ids().is_empty());
        assert_eq!(r.rank(63), None);
    }

    #[test]
    fn every_column_touched() {
        let every: Vec<u32> = (0..130).rev().collect();
        let r = relabel(130, every.len(), &every);
        assert!(r.is_bitmap());
        assert_eq!(r.ids(), &(0..130).collect::<Vec<u32>>()[..]);
        assert_matches_sort(&r, &every, 140);
    }

    #[test]
    fn only_wide_universes_relabel() {
        assert!(Relabel::when_wide(8, 4, [1, 2, 3, 4]).is_none());
        let (r, ranks) = Relabel::when_wide(9, 4, [7, 1, 7, 2]).unwrap();
        assert_eq!((r.ids(), &ranks[..]), (&[1, 2, 7][..], &[2, 0, 2, 1][..]));
    }
}
