//! Input hygiene: how the robust entry points treat corrupt rows.
//!
//! A row with an out-of-range item or a duplicate item id is either
//! rejected or, under [`RecoveryConfig::Quarantine`], sanitized and pinned
//! to the final leftover group instead of aborting the run (see
//! [`crate::pipeline::Anonymizer::anonymize_rows`]). Quarantined rows are
//! counted by the scheduling-invariant `cahd-obs` counter
//! `core.quarantined_rows`, audited by the `CAHD-R001` check pass. A
//! killed stream resumes from a
//! [`crate::checkpoint::StreamingCheckpoint`] (counted by
//! `core.resumed_batches`).

use cahd_data::{ItemId, RawRows, TransactionSet};
use cahd_sparse::CsrMatrix;

use crate::error::CahdError;

/// How ingestion treats rows with out-of-range items or duplicate ids,
/// threaded through the robust entry points
/// ([`crate::pipeline::Anonymizer::anonymize_rows`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryConfig {
    /// Reject the run with [`crate::CahdError::CorruptRow`] on the first
    /// bad row (the default: nothing unexpected is ever published).
    #[default]
    Strict,
    /// Sanitize the bad row (drop out-of-range items, de-duplicate) and
    /// pin it to the final leftover group; the row is published but never
    /// acts as a pivot or candidate. Counted by `core.quarantined_rows`.
    Quarantine,
}

impl RecoveryConfig {
    /// The strict policy: validation without degradation.
    #[must_use]
    pub fn strict() -> Self {
        RecoveryConfig::Strict
    }

    /// The quarantine policy: the graceful-degradation configuration.
    #[must_use]
    pub fn quarantine() -> Self {
        RecoveryConfig::Quarantine
    }
}

/// Why a raw row is considered corrupt against a universe of `n_items`
/// items, or `None` for a clean row. A clean row may still be unsorted —
/// ordering is a representation detail the dataset constructor fixes, not
/// a corruption. A row already in normal form is answered without
/// allocating.
#[must_use]
pub fn bad_row_reason(row: &[ItemId], n_items: usize) -> Option<String> {
    if is_normal(row, n_items) {
        return None;
    }
    if let Some(&bad) = row.iter().find(|&&i| (i as usize) >= n_items) {
        return Some(format!("item {bad} out of range (universe {n_items})"));
    }
    let mut seen: Vec<ItemId> = row.to_vec();
    seen.sort_unstable();
    for w in seen.windows(2) {
        if w[0] == w[1] {
            return Some(format!("duplicate item {}", w[0]));
        }
    }
    None
}

/// Whether `row` is already the normal form [`sanitize_row`] produces:
/// strictly ascending, every item inside a universe of `n_items`.
pub(crate) fn is_normal(row: &[ItemId], n_items: usize) -> bool {
    row.windows(2).all(|w| w[0] < w[1]) && row.last().is_none_or(|&i| (i as usize) < n_items)
}

/// The sanitized form of a possibly-corrupt row: in-range items only,
/// sorted and de-duplicated. This is exactly the normal form
/// `TransactionSet::from_rows` would store, so a sanitized row round-trips
/// through publication and verification.
#[must_use]
pub fn sanitize_row(row: &[ItemId], n_items: usize) -> Vec<ItemId> {
    let mut clean: Vec<ItemId> = row
        .iter()
        .copied()
        .filter(|&i| (i as usize) < n_items)
        .collect();
    clean.sort_unstable();
    clean.dedup();
    clean
}

/// The dataset of every row's [`sanitize_row`] form, built straight into
/// one CSR allocated at its final size. A row already in normal form (the
/// common case) is copied in without a per-row allocation.
pub fn sanitize_rows<'r, I>(rows: I, n_items: usize) -> TransactionSet
where
    I: Iterator<Item = &'r [ItemId]> + Clone,
{
    let (n_rows, nnz) = rows
        .clone()
        .fold((0, 0), |(n, nnz), row| (n + 1, nnz + row.len()));
    let mut indptr = Vec::with_capacity(n_rows + 1);
    indptr.push(0);
    let mut indices: Vec<ItemId> = Vec::with_capacity(nnz);
    for row in rows {
        if is_normal(row, n_items) {
            indices.extend_from_slice(row);
        } else {
            indices.extend_from_slice(&sanitize_row(row, n_items));
        }
        indptr.push(indices.len());
    }
    TransactionSet::from_matrix(CsrMatrix::from_raw_parts(n_rows, n_items, indptr, indices))
}

/// The dataset of `rows` when every row is already in normal form: the
/// CSR arrays move in unchanged.
fn adopt_normal(rows: RawRows, n_items: usize) -> TransactionSet {
    let n = rows.len();
    let (indptr, ids) = rows.into_parts();
    TransactionSet::from_matrix(CsrMatrix::from_raw_parts(n, n_items, indptr, ids))
}

/// Raw rows and their sanitized dataset ([`sanitize_rows`]), kept as one
/// CSR when they are the same: when every row is already in normal form
/// the raw arrays *are* the dataset, moved, and only an input with a
/// non-normal row keeps a second, sanitized CSR beside the raw one.
#[derive(Debug)]
pub struct SanitizedRows {
    data: TransactionSet,
    /// The rows as written, when some row differs from its sanitized form.
    raw: Option<RawRows>,
}

impl SanitizedRows {
    /// Sanitizes `raw` against a universe of `n_items` items.
    #[must_use]
    pub fn new(raw: RawRows, n_items: usize) -> Self {
        if raw.iter().all(|row| is_normal(row, n_items)) {
            SanitizedRows {
                data: adopt_normal(raw, n_items),
                raw: None,
            }
        } else {
            SanitizedRows {
                data: sanitize_rows(raw.iter(), n_items),
                raw: Some(raw),
            }
        }
    }

    /// The sanitized dataset.
    #[must_use]
    pub fn data(&self) -> &TransactionSet {
        &self.data
    }

    /// Row `r` as written.
    #[must_use]
    pub fn raw_row(&self, r: usize) -> &[ItemId] {
        match &self.raw {
            Some(raw) => raw.row(r),
            None => self.data.transaction(r),
        }
    }

    /// Every row as written, in order.
    pub fn raw_rows(&self) -> impl ExactSizeIterator<Item = &[ItemId]> + Clone + '_ {
        (0..self.data.n_transactions()).map(move |r| self.raw_row(r))
    }

    /// Whether the dataset and the raw rows are one CSR (every row was
    /// already in normal form).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        self.raw.is_none()
    }

    /// The sanitized dataset, dropping the raw rows kept beside it.
    #[must_use]
    pub fn into_data(self) -> TransactionSet {
        self.data
    }
}

/// Runs `f` on the sanitized dataset of `rows`. When every row is already
/// in normal form the dataset is `rows`' own arrays, lent to `f` and put
/// back afterwards; otherwise it is a sanitized copy.
pub(crate) fn with_sanitized<R>(
    rows: &mut RawRows,
    n_items: usize,
    f: impl FnOnce(&TransactionSet) -> R,
) -> R {
    if !rows.iter().all(|row| is_normal(row, n_items)) {
        return f(&sanitize_rows(rows.iter(), n_items));
    }
    let data = adopt_normal(std::mem::take(rows), n_items);
    let out = f(&data);
    let (indptr, ids) = data.into_matrix().into_raw_parts();
    *rows = RawRows::from_parts(indptr, ids);
    out
}

/// Ingestion: classifies every raw row against `recovery` (by its
/// [`bad_row_reason`]), then builds the sanitized dataset
/// ([`sanitize_rows`]) the pipeline runs on. Returns it with the indices
/// of the quarantined rows (ascending; always empty under
/// [`RecoveryConfig::Strict`]).
///
/// # Errors
/// [`CahdError::CorruptRow`] naming the index (in `rows`) of the first bad
/// row under [`RecoveryConfig::Strict`].
pub(crate) fn ingest_rows<'r, I>(
    rows: I,
    n_items: usize,
    recovery: &RecoveryConfig,
) -> Result<(TransactionSet, Vec<usize>), CahdError>
where
    I: Iterator<Item = &'r [ItemId]> + Clone,
{
    let quarantined = classify_rows(rows.clone(), n_items, recovery)?;
    Ok((sanitize_rows(rows, n_items), quarantined))
}

/// The classification half of [`ingest_rows`]: the ascending indices of
/// the rows to quarantine.
///
/// # Errors
/// [`CahdError::CorruptRow`] naming the index (in `rows`) of the first bad
/// row under [`RecoveryConfig::Strict`].
pub(crate) fn classify_rows<'r>(
    rows: impl Iterator<Item = &'r [ItemId]>,
    n_items: usize,
    recovery: &RecoveryConfig,
) -> Result<Vec<usize>, CahdError> {
    let mut quarantined: Vec<usize> = Vec::new();
    for (i, row) in rows.enumerate() {
        if let Some(reason) = bad_row_reason(row, n_items) {
            match recovery {
                RecoveryConfig::Strict => return Err(CahdError::CorruptRow { row: i, reason }),
                RecoveryConfig::Quarantine => quarantined.push(i),
            }
        }
    }
    Ok(quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The splitmix64 mixer, seeding the test rows.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// `bad_row_reason` before its allocation-free fast path: range scan,
    /// then a sorted copy searched for duplicates.
    fn reference_reason(row: &[ItemId], n_items: usize) -> Option<String> {
        if let Some(&bad) = row.iter().find(|&&i| (i as usize) >= n_items) {
            return Some(format!("item {bad} out of range (universe {n_items})"));
        }
        let mut seen: Vec<ItemId> = row.to_vec();
        seen.sort_unstable();
        for w in seen.windows(2) {
            if w[0] == w[1] {
                return Some(format!("duplicate item {}", w[0]));
            }
        }
        None
    }

    /// 5,000 seeded rows of 0..7 items drawn from `0..8` (a universe of 6,
    /// so some ids are out of range): sorted, unsorted, repeated.
    fn seeded_rows() -> Vec<Vec<ItemId>> {
        (0..5_000u64)
            .map(|r| {
                let h = splitmix64(r);
                let len = (h % 7) as usize;
                (0..len)
                    .map(|k| (splitmix64(h ^ k as u64) % 8) as ItemId)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bad_row_reason_matches_the_sort_based_reference() {
        let mut unsorted_clean = 0;
        for row in seeded_rows() {
            assert_eq!(
                bad_row_reason(&row, 6),
                reference_reason(&row, 6),
                "{row:?}"
            );
            let sorted = row.windows(2).all(|w| w[0] < w[1]);
            if !sorted && reference_reason(&row, 6).is_none() {
                unsorted_clean += 1;
            }
        }
        assert!(unsorted_clean > 100, "{unsorted_clean}");
        // Unsorted rows without duplicates are clean.
        assert_eq!(bad_row_reason(&[5, 0, 3], 6), None);
        assert_eq!(bad_row_reason(&[], 6), None);
        assert!(bad_row_reason(&[0, 6], 6).unwrap().contains("out of range"));
        assert!(bad_row_reason(&[1, 1], 6).unwrap().contains("duplicate"));
    }

    #[test]
    fn sanitize_rows_builds_the_sanitized_rows() {
        let rows = seeded_rows();
        let data = sanitize_rows(rows.iter().map(Vec::as_slice), 6);
        let sanitized: Vec<Vec<ItemId>> = rows.iter().map(|r| sanitize_row(r, 6)).collect();
        assert_eq!(data, TransactionSet::from_rows(&sanitized, 6));
    }

    fn raw(rows: &[Vec<ItemId>]) -> RawRows {
        let mut raw = RawRows::new();
        for row in rows {
            raw.push(row);
        }
        raw
    }

    #[test]
    fn sanitized_rows_share_the_csr_only_when_every_row_is_normal() {
        let rows = seeded_rows();
        let clean: Vec<Vec<ItemId>> = rows.iter().map(|r| sanitize_row(r, 6)).collect();
        for (input, shared) in [(&rows, false), (&clean, true)] {
            let view = SanitizedRows::new(raw(input), 6);
            assert_eq!(view.is_shared(), shared);
            assert_eq!(view.data(), &TransactionSet::from_rows(&clean, 6));
            assert!(view.raw_rows().eq(input.iter().map(Vec::as_slice)));
            assert_eq!(view.raw_row(3), input[3].as_slice());
        }
    }

    #[test]
    fn with_sanitized_lends_normal_rows_and_puts_them_back() {
        let rows = seeded_rows();
        let clean: Vec<Vec<ItemId>> = rows.iter().map(|r| sanitize_row(r, 6)).collect();
        let want = TransactionSet::from_rows(&clean, 6);
        for input in [&rows, &clean] {
            let mut buffer = raw(input);
            let ids = buffer.clone().into_parts().1;
            let lent = with_sanitized(&mut buffer, 6, |data| {
                assert_eq!(data, &want);
                data.matrix().indices().as_ptr()
            });
            // A clean buffer is the dataset itself: same array, moved back.
            assert_eq!(lent == buffer.row(0).as_ptr(), input == &clean);
            assert!(buffer.iter().eq(input.iter().map(Vec::as_slice)));
            assert_eq!(buffer.into_parts().1, ids);
        }
    }

    #[test]
    fn ingest_classifies_like_the_row_checks() {
        let rows = seeded_rows();
        let slices = || rows.iter().map(Vec::as_slice);
        let bad: Vec<usize> = (0..rows.len())
            .filter(|&i| bad_row_reason(&rows[i], 6).is_some())
            .collect();
        let (data, quarantined) = ingest_rows(slices(), 6, &RecoveryConfig::quarantine()).unwrap();
        assert_eq!(quarantined, bad);
        assert_eq!(data.n_transactions(), rows.len());
        let first = rows
            .iter()
            .position(|r| bad_row_reason(r, 6).is_some())
            .unwrap();
        let err = ingest_rows(slices(), 6, &RecoveryConfig::strict()).unwrap_err();
        assert_eq!(
            err,
            CahdError::CorruptRow {
                row: first,
                reason: bad_row_reason(&rows[first], 6).unwrap(),
            }
        );
    }

    #[test]
    fn row_hygiene_classifies_and_sanitizes() {
        assert_eq!(bad_row_reason(&[0, 3, 1], 4), None);
        assert!(bad_row_reason(&[0, 9], 4).unwrap().contains("out of range"));
        assert!(bad_row_reason(&[2, 1, 2], 4).unwrap().contains("duplicate"));
        assert_eq!(sanitize_row(&[9, 2, 1, 2], 4), vec![1, 2]);
        assert_eq!(sanitize_row(&[9, 9], 4), Vec::<ItemId>::new());
    }
}
