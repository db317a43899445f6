//! Fault tolerance: deterministic fault injection and input hygiene.
//!
//! A production anonymization service must survive three failure classes
//! without discarding work or weakening the release:
//!
//! * a **shard worker** that panics or exceeds its deadline (see
//!   [`crate::shard::cahd_sharded_recovering`]): retried once, then its
//!   slice is rescanned uncaught, outside the fault plan;
//! * a **corrupt input row** (out-of-range items, duplicate item ids):
//!   under [`InputPolicy::Quarantine`] the row is sanitized and pinned to
//!   the final leftover group instead of aborting the run (see
//!   [`crate::pipeline::Anonymizer::anonymize_rows`]);
//! * a **killed process** mid-stream: the
//!   [`crate::streaming::StreamingAnonymizer`] state serializes to a
//!   [`crate::checkpoint::StreamingCheckpoint`] and resumes exactly.
//!
//! Every recovery action is observable through three scheduling-invariant
//! `cahd-obs` counters (`core.recovered_shards`, `core.quarantined_rows`,
//! `core.resumed_batches`), audited by the `CAHD-R001` check pass.
//!
//! # Determinism
//!
//! Faults are injected from a [`FaultPlan`] keyed by *shard index and
//! attempt* (or row index) — never by wall clock or thread identity — so
//! every recovery path is drivable from tests and the resulting release
//! and counters are byte-identical across thread counts. In particular a
//! "deadline" fault *simulates* an exceeded deadline deterministically;
//! real preemption would make counters scheduling-dependent, which the
//! observability determinism contract forbids.

use std::collections::{BTreeMap, BTreeSet};

use cahd_data::{ItemId, RawRows, TransactionSet};
use cahd_sparse::CsrMatrix;

use crate::error::CahdError;

/// The failure mode injected into a shard worker attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFault {
    /// The worker panics mid-scan (caught by the recovery wrapper).
    Panic,
    /// The worker reports its deadline as exceeded and abandons the
    /// attempt (simulated deterministically — see the module docs).
    Deadline,
}

/// How ingestion treats rows with out-of-range items or duplicate ids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InputPolicy {
    /// Reject the run with [`crate::CahdError::CorruptRow`] on the first
    /// bad row (the default: nothing unexpected is ever published).
    #[default]
    Strict,
    /// Sanitize the bad row (drop out-of-range items, de-duplicate) and
    /// pin it to the final leftover group; the row is published but never
    /// acts as a pivot or candidate. Counted by `core.quarantined_rows`.
    Quarantine,
}

/// A deterministic fault-injection plan: which shard attempts fail, with
/// which failure mode, and which input rows read as corrupt.
///
/// An empty plan (the default) injects nothing and leaves every recovery
/// code path byte-identical to the fault-free pipeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// shard index -> (failure mode, number of failing attempts).
    shard_faults: BTreeMap<usize, (ShardFault, u32)>,
    /// Row indices (pre-pipeline order) treated as corrupt on ingestion.
    corrupt_rows: BTreeSet<usize>,
}

impl FaultPlan {
    /// The empty plan: no injected faults.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shard_faults.is_empty() && self.corrupt_rows.is_empty()
    }

    /// Whether any shard-level fault is planned.
    #[must_use]
    pub fn has_shard_faults(&self) -> bool {
        !self.shard_faults.is_empty()
    }

    /// Makes the first `attempts` attempts of shard `shard` fail with
    /// `fault`. `attempts = 1` exercises the retry path; `attempts >= 2`
    /// forces the sequential fallback (the worker only retries once).
    #[must_use]
    pub fn with_shard_fault(mut self, shard: usize, fault: ShardFault, attempts: u32) -> Self {
        if attempts > 0 {
            self.shard_faults.insert(shard, (fault, attempts));
        }
        self
    }

    /// Marks row `row` as corrupt on ingestion.
    #[must_use]
    pub fn with_corrupt_row(mut self, row: usize) -> Self {
        self.corrupt_rows.insert(row);
        self
    }

    /// A pseudo-random plan derived only from `seed` (splitmix64 over the
    /// shard/row index — no wall clock, no thread identity): roughly one
    /// in four of the first `shards` shards faults (alternating mode and
    /// retry depth) and roughly one in sixteen of the first `rows` rows is
    /// corrupt. Used by the fuzzing harness; identical seeds give
    /// identical plans forever.
    #[must_use]
    pub fn seeded(seed: u64, shards: usize, rows: usize) -> Self {
        let mut plan = FaultPlan::none();
        for s in 0..shards {
            let h = splitmix64(seed ^ 0x5348_4152_4400_0000 ^ s as u64);
            if h.is_multiple_of(4) {
                let fault = if h & 16 == 0 {
                    ShardFault::Panic
                } else {
                    ShardFault::Deadline
                };
                let attempts = if h & 32 == 0 { 1 } else { 2 };
                plan = plan.with_shard_fault(s, fault, attempts);
            }
        }
        for r in 0..rows {
            if splitmix64(seed ^ 0x524f_5753_0000_0000 ^ r as u64).is_multiple_of(16) {
                plan = plan.with_corrupt_row(r);
            }
        }
        plan
    }

    /// The fault injected into attempt `attempt` (0-based) of shard
    /// `shard`, if any.
    #[must_use]
    pub fn shard_fault(&self, shard: usize, attempt: u32) -> Option<ShardFault> {
        self.shard_faults
            .get(&shard)
            .and_then(|&(fault, attempts)| (attempt < attempts).then_some(fault))
    }

    /// Whether row `row` is injected as corrupt.
    #[must_use]
    pub fn row_is_corrupt(&self, row: usize) -> bool {
        self.corrupt_rows.contains(&row)
    }

    /// Number of planned shard faults targeting shards `< shards` — the
    /// exact value `core.recovered_shards` must reach when the plan runs
    /// against a `shards`-shard layout (every injected fault recovers).
    #[must_use]
    pub fn expected_recovered_shards(&self, shards: usize) -> usize {
        self.shard_faults.keys().filter(|&&s| s < shards).count()
    }

    /// Number of planned corrupt rows with index `< rows` — the exact
    /// value `core.quarantined_rows` must reach on an otherwise-clean
    /// `rows`-row dataset under [`InputPolicy::Quarantine`].
    #[must_use]
    pub fn expected_corrupt_rows(&self, rows: usize) -> usize {
        self.corrupt_rows.iter().filter(|&&r| r < rows).count()
    }
}

/// Ingestion policy plus fault plan, threaded through the robust entry
/// points ([`crate::pipeline::Anonymizer::anonymize_rows`]).
#[derive(Clone, Debug, Default)]
pub struct RecoveryConfig {
    /// Treatment of corrupt input rows.
    pub policy: InputPolicy,
    /// Injected faults (empty in production).
    pub plan: FaultPlan,
}

impl RecoveryConfig {
    /// Strict policy, no injected faults — validation without degradation.
    #[must_use]
    pub fn strict() -> Self {
        RecoveryConfig::default()
    }

    /// Quarantine policy, no injected faults — the graceful-degradation
    /// production configuration.
    #[must_use]
    pub fn quarantine() -> Self {
        RecoveryConfig {
            policy: InputPolicy::Quarantine,
            plan: FaultPlan::none(),
        }
    }

    /// Replaces the fault plan (testing hook).
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
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

/// Ingestion: classifies every raw row against `recovery` (an injected
/// corruption or a [`bad_row_reason`]), then builds the sanitized dataset
/// ([`sanitize_rows`]) the pipeline runs on. Returns it with the indices
/// of the quarantined rows (ascending; always empty under
/// [`InputPolicy::Strict`]).
///
/// # Errors
/// [`CahdError::CorruptRow`] naming the index (in `rows`) of the first bad
/// row under [`InputPolicy::Strict`].
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
/// row under [`InputPolicy::Strict`].
pub(crate) fn classify_rows<'r>(
    rows: impl Iterator<Item = &'r [ItemId]>,
    n_items: usize,
    recovery: &RecoveryConfig,
) -> Result<Vec<usize>, CahdError> {
    let mut quarantined: Vec<usize> = Vec::new();
    for (i, row) in rows.enumerate() {
        let reason = if recovery.plan.row_is_corrupt(i) {
            Some("injected corruption".to_string())
        } else {
            bad_row_reason(row, n_items)
        };
        if let Some(reason) = reason {
            match recovery.policy {
                InputPolicy::Strict => return Err(CahdError::CorruptRow { row: i, reason }),
                InputPolicy::Quarantine => quarantined.push(i),
            }
        }
    }
    Ok(quarantined)
}

/// Installs (once, process-wide) a panic hook that suppresses the stderr
/// report for panics whose payload starts with `"injected fault"` — the
/// message every [`FaultPlan`]-injected panic carries — and delegates any
/// other panic to the previously installed hook unchanged. Test harnesses
/// that drive fault plans call this so recovered injections don't flood
/// the output while real panics keep their full report.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|s| s.starts_with("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// The splitmix64 mixing function — the standard seedable 64-bit mixer,
/// used to derive per-key fault decisions from a single seed.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.has_shard_faults());
        assert_eq!(plan.shard_fault(0, 0), None);
        assert!(!plan.row_is_corrupt(0));
        assert_eq!(plan.expected_recovered_shards(8), 0);
        assert_eq!(plan.expected_corrupt_rows(100), 0);
    }

    #[test]
    fn shard_faults_fire_per_attempt() {
        let plan = FaultPlan::none()
            .with_shard_fault(1, ShardFault::Panic, 1)
            .with_shard_fault(3, ShardFault::Deadline, 2);
        assert_eq!(plan.shard_fault(1, 0), Some(ShardFault::Panic));
        assert_eq!(plan.shard_fault(1, 1), None); // retry succeeds
        assert_eq!(plan.shard_fault(3, 0), Some(ShardFault::Deadline));
        assert_eq!(plan.shard_fault(3, 1), Some(ShardFault::Deadline));
        assert_eq!(plan.shard_fault(3, 2), None); // fallback is never injected
        assert_eq!(plan.shard_fault(0, 0), None);
        // Expected counters scale with the effective shard count.
        assert_eq!(plan.expected_recovered_shards(8), 2);
        assert_eq!(plan.expected_recovered_shards(2), 1);
        assert_eq!(plan.expected_recovered_shards(1), 0);
    }

    #[test]
    fn zero_attempt_fault_is_dropped() {
        let plan = FaultPlan::none().with_shard_fault(0, ShardFault::Panic, 0);
        assert!(plan.is_empty());
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(7, 16, 64);
        let b = FaultPlan::seeded(7, 16, 64);
        assert_eq!(a, b);
        // Different seeds almost surely differ; pin one that does.
        let c = FaultPlan::seeded(8, 16, 64);
        assert_ne!(a, c);
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
            .filter(|&i| bad_row_reason(&rows[i], 6).is_some() || i == 7)
            .collect();
        let recovery =
            RecoveryConfig::quarantine().with_plan(FaultPlan::none().with_corrupt_row(7));
        let (data, quarantined) = ingest_rows(slices(), 6, &recovery).unwrap();
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
