//! Batched (streaming) anonymization.
//!
//! Transaction logs grow continuously; re-anonymizing the full history for
//! every release is wasteful, and the paper's pipeline is a batch
//! algorithm. [`StreamingAnonymizer`] wraps it for append-only streams:
//! transactions are buffered, and whenever a batch is full (or on
//! [`StreamingAnonymizer::finish`]) the batch is anonymized with the usual
//! RCM + CAHD pipeline and emitted as an independent release chunk.
//!
//! Two properties make per-batch processing sound:
//!
//! * privacy composes: each chunk satisfies degree `p` on its own, and
//!   chunks are disjoint, so the union does too (an attacker knowing the
//!   batch boundaries learns nothing beyond the per-chunk releases);
//! * feasibility may fail for a batch even when the stream is globally
//!   feasible (a burst of one sensitive item). Rather than failing, the
//!   offending *sensitive transactions* are carried over to the next
//!   batch, where the burst has diluted.
//!
//! # Fault tolerance
//!
//! The full in-flight state (buffer, stash, stream cursor) freezes into a
//! [`StreamingCheckpoint`] via [`StreamingAnonymizer::checkpoint`] and
//! thaws with [`StreamingAnonymizer::resume`], so a killed process picks
//! up exactly where it stopped — already-released chunks are never
//! recomputed, and the resumed run emits the identical remaining chunks.
//! Corrupt input rows are handled per the configured
//! [`RecoveryConfig`] ([`StreamingAnonymizer::with_recovery`]): rejected
//! under `Strict`, quarantined into the chunk's final group under
//! `Quarantine`. Resumes are counted by the `core.resumed_batches`
//! counter on the recorder configured with
//! [`StreamingAnonymizer::with_recorder`].

use cahd_data::{ItemId, RawRows, SensitiveSet};
use cahd_obs::Recorder;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{StreamingCheckpoint, CHECKPOINT_VERSION};
use crate::error::CahdError;
use crate::group::PublishedDataset;
use crate::invariant::{strict_invariant, strict_invariant_eq};
use crate::pipeline::{Anonymizer, AnonymizerConfig};
use crate::recovery::{classify_rows, is_normal, sanitize_row, with_sanitized, RecoveryConfig};

/// A released chunk: the batch's transactions (with their stream
/// positions) and the anonymized groups over them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReleaseChunk {
    /// Stream positions of the batch's transactions; group members index
    /// into this vector.
    pub stream_ids: Vec<u64>,
    /// The anonymized release of the batch.
    pub published: PublishedDataset,
}

/// Unreleased rows in arrival order: their stream ids, and their items
/// as written in one flat CSR.
#[derive(Debug, Default)]
struct Pending {
    ids: Vec<u64>,
    rows: RawRows,
}

impl Pending {
    fn from_pairs(pairs: &[(u64, Vec<ItemId>)]) -> Self {
        let mut pending = Pending::default();
        for (id, row) in pairs {
            pending.push(*id, row);
        }
        pending
    }

    /// The `(stream id, items)` pairs a checkpoint stores.
    fn to_pairs(&self) -> Vec<(u64, Vec<ItemId>)> {
        self.ids
            .iter()
            .zip(self.rows.iter())
            .map(|(&id, row)| (id, row.to_vec()))
            .collect()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, id: u64, row: &[ItemId]) {
        self.ids.push(id);
        self.rows.push(row);
    }

    fn append(&mut self, other: &mut Pending) {
        self.ids.append(&mut other.ids);
        self.rows.append(&mut other.rows);
    }

    /// Moves row `r` onto the end of `to`.
    fn move_row(&mut self, r: usize, to: &mut Pending) {
        to.push(self.ids.remove(r), self.rows.row(r));
        self.rows.remove(r);
    }
}

/// Buffers a transaction stream and anonymizes it batch by batch.
pub struct StreamingAnonymizer {
    config: AnonymizerConfig,
    sensitive: SensitiveSet,
    batch_size: usize,
    buffer: Pending,
    /// Transactions deferred from an infeasible batch, prepended to the
    /// next one.
    stash: Pending,
    next_id: u64,
    /// Total occurrences carried over so far, for monitoring.
    carried_over: usize,
    /// Whether [`StreamingAnonymizer::finish`] already ran.
    finished: bool,
    /// Corrupt-row policy for the per-batch pipeline runs.
    recovery: RecoveryConfig,
    /// Recorder the per-batch pipeline runs and recovery counters flow
    /// into (disabled unless configured).
    rec: Recorder,
}

impl std::fmt::Debug for StreamingAnonymizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingAnonymizer")
            .field("batch_size", &self.batch_size)
            .field("buffered", &self.buffer.len())
            .field("stashed", &self.stash.len())
            .field("next_id", &self.next_id)
            .field("carried_over", &self.carried_over)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl StreamingAnonymizer {
    /// Creates a streaming wrapper. `batch_size` must be at least
    /// `2 * p` so batches can hold at least two groups.
    ///
    /// # Panics
    /// Panics if `batch_size < 2 * p`.
    pub fn new(config: AnonymizerConfig, sensitive: SensitiveSet, batch_size: usize) -> Self {
        assert!(
            batch_size >= 2 * config.cahd.p,
            "batch_size must be at least 2p"
        );
        StreamingAnonymizer {
            config,
            sensitive,
            batch_size,
            buffer: Pending::default(),
            stash: Pending::default(),
            next_id: 0,
            carried_over: 0,
            finished: false,
            recovery: RecoveryConfig::strict(),
            rec: Recorder::disabled(),
        }
    }

    /// Sets the corrupt-row policy for every batch this stream releases.
    /// The default is [`RecoveryConfig::strict`]: a bad row fails the
    /// batch with [`CahdError::CorruptRow`].
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Routes batch pipeline runs and recovery counters
    /// (`core.quarantined_rows`, `core.resumed_batches`, ...) into `rec`.
    #[must_use]
    pub fn with_recorder(mut self, rec: &Recorder) -> Self {
        self.rec = rec.clone();
        self
    }

    /// Number of buffered (not yet released) transactions.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Total sensitive transactions deferred to a later batch so far.
    pub fn carried_over(&self) -> usize {
        self.carried_over
    }

    /// The stream id the next pushed transaction will receive — equal to
    /// the number of transactions pushed so far, which lets a resuming
    /// reader skip straight to its position in the source.
    pub fn next_stream_id(&self) -> u64 {
        self.next_id
    }

    /// Whether [`StreamingAnonymizer::finish`] already ran.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Freezes the resumable state — buffered rows, carry-over stash,
    /// stream cursor, and the remaining-occurrence histogram — into a
    /// sealed, self-digesting checkpoint. Cheap (copies the buffer);
    /// callers typically checkpoint right after each released chunk, so
    /// a resume re-anonymizes nothing already published.
    #[must_use]
    pub fn checkpoint(&self) -> StreamingCheckpoint {
        let mut cp = StreamingCheckpoint {
            version: CHECKPOINT_VERSION,
            p: self.config.cahd.p as u64,
            batch_size: self.batch_size as u64,
            n_items: self.sensitive.n_items() as u64,
            next_id: self.next_id,
            carried_over: self.carried_over as u64,
            finished: self.finished,
            buffer: self.buffer.to_pairs(),
            stash: self.stash.to_pairs(),
            sensitive_items: self.sensitive.items().to_vec(),
            remaining_counts: Vec::new(),
            digest: 0,
        };
        cp.seal();
        cp
    }

    /// Thaws a checkpointed stream, fail-closed: the checkpoint is
    /// validated ([`StreamingCheckpoint::validate`]) and cross-checked
    /// against the live `config` and `sensitive` set before any of its
    /// state is trusted. The resumed stream continues exactly where the
    /// checkpointed one stopped — same buffered rows, same stream ids,
    /// same carry-over — so the remaining chunks are identical to an
    /// uninterrupted run's. Each successful resume bumps the
    /// `core.resumed_batches` counter on `rec`, which also becomes the
    /// stream's recorder (as if passed to
    /// [`StreamingAnonymizer::with_recorder`]).
    ///
    /// # Errors
    /// [`CahdError::CorruptCheckpoint`] if validation or any cross-check
    /// fails.
    pub fn resume(
        config: AnonymizerConfig,
        sensitive: SensitiveSet,
        cp: &StreamingCheckpoint,
        rec: &Recorder,
    ) -> Result<Self, CahdError> {
        cp.validate()?;
        let mismatch = |reason: String| Err(CahdError::CorruptCheckpoint { reason });
        if cp.p != config.cahd.p as u64 {
            return mismatch(format!(
                "checkpoint privacy degree {} does not match the configured {}",
                cp.p, config.cahd.p
            ));
        }
        if cp.n_items != sensitive.n_items() as u64 {
            return mismatch(format!(
                "checkpoint universe {} does not match the sensitive set's {}",
                cp.n_items,
                sensitive.n_items()
            ));
        }
        if cp.sensitive_items != sensitive.items() {
            return mismatch("checkpoint sensitive items differ from the live set".to_string());
        }
        rec.add("core.resumed_batches", 1);
        Ok(StreamingAnonymizer {
            config,
            sensitive,
            batch_size: cp.batch_size as usize,
            buffer: Pending::from_pairs(&cp.buffer),
            stash: Pending::from_pairs(&cp.stash),
            next_id: cp.next_id,
            carried_over: cp.carried_over as usize,
            finished: cp.finished,
            recovery: RecoveryConfig::strict(),
            rec: rec.clone(),
        })
    }

    /// Appends a transaction; returns a release chunk when a batch
    /// completed.
    ///
    /// # Errors
    /// [`CahdError::StreamFinished`] after [`StreamingAnonymizer::finish`];
    /// otherwise whatever the per-batch pipeline reports.
    #[allow(
        clippy::needless_pass_by_value,
        reason = "the owned-row API callers already use; push_row borrows"
    )]
    pub fn push(&mut self, items: Vec<ItemId>) -> Result<Option<ReleaseChunk>, CahdError> {
        self.push_row(&items)
    }

    /// [`StreamingAnonymizer::push`] from a borrowed row: its items are
    /// copied into the stream's one flat buffer.
    ///
    /// # Errors
    /// As [`StreamingAnonymizer::push`].
    pub fn push_row(&mut self, items: &[ItemId]) -> Result<Option<ReleaseChunk>, CahdError> {
        if self.finished {
            return Err(CahdError::StreamFinished);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.buffer.push(id, items);
        if self.buffer.len() >= self.batch_size {
            self.release_batch(false).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Flushes the remaining buffer as a final chunk (no carry-over
    /// allowed: infeasibility is now a hard error the caller must
    /// handle). Closes the stream: later [`push`](Self::push) calls
    /// error with [`CahdError::StreamFinished`], and calling `finish`
    /// again is a no-op returning `Ok(None)`.
    pub fn finish(&mut self) -> Result<Option<ReleaseChunk>, CahdError> {
        if self.finished {
            return Ok(None);
        }
        self.finished = true;
        self.buffer.append(&mut self.stash);
        if self.buffer.len() == 0 {
            return Ok(None);
        }
        self.release_batch(true).map(Some)
    }

    fn release_batch(&mut self, final_flush: bool) -> Result<ReleaseChunk, CahdError> {
        let p = self.config.cahd.p;
        let n_items = self.sensitive.n_items();
        loop {
            // The batch is classified and its sanitized rows counted;
            // under Strict a corrupt row fails the batch under its
            // *stream* id.
            let quarantined = classify_rows(self.buffer.rows.iter(), n_items, &self.recovery)
                .map_err(|e| match e {
                    CahdError::CorruptRow { row, reason } => CahdError::CorruptRow {
                        row: usize::try_from(self.buffer.ids[row]).unwrap_or(usize::MAX),
                        reason,
                    },
                    other => other,
                })?;
            let n = self.buffer.len();
            let counts = self.sanitized_counts();
            // Find the worst offender, if any.
            let offender = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c * p > n)
                .max_by_key(|&(_, &c)| c)
                .map(|(r, _)| self.sensitive.items()[r]);
            match offender {
                None => {
                    self.config.cahd.validate()?;
                    // A batch of normal-form rows lends its flat buffer as
                    // the dataset; any other batch is sanitized into one.
                    let anonymizer = Anonymizer::new(self.config);
                    let (sensitive, rec) = (&self.sensitive, &self.rec);
                    let published = with_sanitized(&mut self.buffer.rows, n_items, |data| {
                        anonymizer.anonymize_ingested(data, &quarantined, sensitive, rec)
                    })?
                    .published;
                    let stream_ids = std::mem::take(&mut self.buffer.ids);
                    strict_invariant!(
                        published.satisfies(p),
                        "a released chunk must satisfy the privacy degree"
                    );
                    strict_invariant_eq!(
                        published.n_transactions(),
                        stream_ids.len(),
                        "a chunk must publish exactly the batch it covers"
                    );
                    // Deferred transactions open the next batch.
                    self.buffer = std::mem::take(&mut self.stash);
                    return Ok(ReleaseChunk {
                        stream_ids,
                        published,
                    });
                }
                Some(item) if !final_flush => {
                    // Defer one transaction holding the offender to the
                    // next batch and retry.
                    let pos = (0..n)
                        .rev()
                        .find(|&r| self.buffer.rows.row(r).contains(&item))
                        // cahd-lint: allow(L003, reason = "item was counted from this same buffer, so at least one holder is present")
                        .expect("offender has holders");
                    self.buffer.move_row(pos, &mut self.stash);
                    self.carried_over += 1;
                }
                Some(item) => {
                    // cahd-lint: allow(L003, reason = "item came out of a scan over this same SensitiveSet, so index_of is Some")
                    let support = counts[self.sensitive.index_of(item).unwrap()];
                    return Err(CahdError::Infeasible {
                        item,
                        support,
                        p,
                        n,
                    });
                }
            }
        }
    }

    /// The occurrence count of every sensitive item over the buffer's
    /// sanitized rows ([`SensitiveSet::occurrence_counts`] of the batch
    /// dataset), without building it.
    fn sanitized_counts(&self) -> Vec<usize> {
        let n_items = self.sensitive.n_items();
        let mut counts = vec![0usize; self.sensitive.len()];
        let mut tally = |row: &[ItemId]| {
            for r in self.sensitive.ranks(row) {
                counts[r] += 1;
            }
        };
        for row in self.buffer.rows.iter() {
            if is_normal(row, n_items) {
                tally(row);
            } else {
                tally(&sanitize_row(row, n_items));
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_published;
    use cahd_data::TransactionSet;

    fn sensitive() -> SensitiveSet {
        SensitiveSet::new(vec![9], 10)
    }

    fn config(p: usize) -> AnonymizerConfig {
        AnonymizerConfig::with_privacy_degree(p)
    }

    #[test]
    fn batches_release_and_verify() {
        let mut s = StreamingAnonymizer::new(config(2), sensitive(), 8);
        let mut chunks = Vec::new();
        for i in 0..20u32 {
            let mut row = vec![i % 4];
            if i % 8 == 0 {
                row.push(9);
            }
            if let Some(chunk) = s.push(row).unwrap() {
                chunks.push(chunk);
            }
        }
        if let Some(chunk) = s.finish().unwrap() {
            chunks.push(chunk);
        }
        assert_eq!(chunks.len(), 3); // 8 + 8 + 4
        let total: usize = chunks.iter().map(|c| c.stream_ids.len()).sum();
        assert_eq!(total, 20);
        for c in &chunks {
            assert!(c.published.satisfies(2));
            // Rebuild the batch data from the stream and verify fully.
            let rows: Vec<Vec<u32>> = c
                .stream_ids
                .iter()
                .map(|&id| {
                    let mut row = vec![(id as u32) % 4];
                    if id % 8 == 0 {
                        row.push(9);
                    }
                    row
                })
                .collect();
            let data = TransactionSet::from_rows(&rows, 10);
            verify_published(&data, &sensitive(), &c.published, 2).unwrap();
        }
    }

    #[test]
    fn burst_is_carried_over() {
        // First batch: 3 sensitive among 6 (infeasible for p = 3: 3*3 > 6);
        // later traffic dilutes it.
        let mut s = StreamingAnonymizer::new(config(3), sensitive(), 6);
        let mut rows: Vec<Vec<u32>> = vec![vec![0, 9], vec![1, 9], vec![2, 9]];
        rows.extend((0..15).map(|i| vec![i % 4]));
        let mut chunks = Vec::new();
        for row in rows {
            if let Some(c) = s.push(row).unwrap() {
                chunks.push(c);
            }
        }
        assert!(s.carried_over() > 0);
        if let Some(c) = s.finish().unwrap() {
            chunks.push(c);
        }
        let total: usize = chunks.iter().map(|c| c.stream_ids.len()).sum();
        assert_eq!(total, 18);
        for c in &chunks {
            assert!(c.published.satisfies(3));
        }
    }

    #[test]
    fn final_flush_infeasible_is_error() {
        let mut s = StreamingAnonymizer::new(config(3), sensitive(), 6);
        for _ in 0..4 {
            assert!(s.push(vec![0, 9]).unwrap().is_none());
        }
        let err = s.finish().unwrap_err();
        assert!(matches!(err, CahdError::Infeasible { item: 9, .. }));
    }

    #[test]
    fn empty_stream() {
        let mut s = StreamingAnonymizer::new(config(2), sensitive(), 10);
        assert!(s.finish().unwrap().is_none());
    }

    #[test]
    #[should_panic(expected = "at least 2p")]
    fn tiny_batch_rejected() {
        StreamingAnonymizer::new(config(5), sensitive(), 9);
    }

    #[test]
    fn finish_with_less_than_p_sensitive_rows_is_infeasible() {
        // Fewer buffered rows than p, one of them sensitive: the final
        // flush cannot satisfy 1/p and must error, not silently release.
        let mut s = StreamingAnonymizer::new(config(4), sensitive(), 8);
        assert!(s.push(vec![0, 9]).unwrap().is_none());
        assert!(s.push(vec![1]).unwrap().is_none());
        assert!(s.buffered() < 4);
        let err = s.finish().unwrap_err();
        assert!(matches!(err, CahdError::Infeasible { item: 9, p: 4, .. }));
        // The error closed the stream all the same.
        assert!(s.is_finished());
    }

    #[test]
    fn push_after_finish_is_rejected() {
        let mut s = StreamingAnonymizer::new(config(2), sensitive(), 8);
        for i in 0..3u32 {
            assert!(s.push(vec![i % 4]).unwrap().is_none());
        }
        let final_chunk = s.finish().unwrap().expect("buffered rows flush");
        assert_eq!(final_chunk.stream_ids, vec![0, 1, 2]);
        assert_eq!(s.push(vec![0]).unwrap_err(), CahdError::StreamFinished);
        // A second finish is an idempotent no-op.
        assert!(s.finish().unwrap().is_none());
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn checkpoint_resume_round_trip_releases_identical_chunks() {
        let rows: Vec<Vec<u32>> = (0..20u32)
            .map(|i| {
                let mut row = vec![i % 4];
                if i % 8 == 0 {
                    row.push(9);
                }
                row
            })
            .collect();
        // Uninterrupted reference run.
        let mut s = StreamingAnonymizer::new(config(2), sensitive(), 8);
        let mut reference = Vec::new();
        for row in &rows {
            if let Some(c) = s.push(row.clone()).unwrap() {
                reference.push(c);
            }
        }
        if let Some(c) = s.finish().unwrap() {
            reference.push(c);
        }
        // Kill after 11 rows, checkpoint, resume, replay the tail.
        let mut s = StreamingAnonymizer::new(config(2), sensitive(), 8);
        let mut chunks = Vec::new();
        for row in &rows[..11] {
            if let Some(c) = s.push(row.clone()).unwrap() {
                chunks.push(c);
            }
        }
        let cp = s.checkpoint();
        drop(s); // the "killed" process
        let rec = Recorder::new();
        let mut s = StreamingAnonymizer::resume(config(2), sensitive(), &cp, &rec).unwrap();
        assert_eq!(s.buffered(), 3); // 11 pushed, 8 released
        for row in &rows[11..] {
            if let Some(c) = s.push(row.clone()).unwrap() {
                chunks.push(c);
            }
        }
        if let Some(c) = s.finish().unwrap() {
            chunks.push(c);
        }
        assert_eq!(chunks, reference);
        assert_eq!(rec.snapshot().counter("core.resumed_batches"), Some(1));
    }

    #[test]
    fn resume_cross_checks_fail_closed() {
        let mut s = StreamingAnonymizer::new(config(2), sensitive(), 8);
        s.push(vec![0]).unwrap();
        let cp = s.checkpoint();
        // Wrong privacy degree.
        let err = StreamingAnonymizer::resume(config(3), sensitive(), &cp, &Recorder::disabled())
            .unwrap_err();
        assert!(matches!(err, CahdError::CorruptCheckpoint { ref reason }
            if reason.contains("privacy degree")));
        // Wrong sensitive set.
        let err = StreamingAnonymizer::resume(
            config(2),
            SensitiveSet::new(vec![8], 10),
            &cp,
            &Recorder::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, CahdError::CorruptCheckpoint { .. }));
        // Tampered payload.
        let mut bad = cp.clone();
        bad.buffer[0].1 = vec![7];
        let err = StreamingAnonymizer::resume(config(2), sensitive(), &bad, &Recorder::disabled())
            .unwrap_err();
        assert!(matches!(err, CahdError::CorruptCheckpoint { ref reason }
            if reason.contains("digest")));
    }

    #[test]
    fn quarantine_policy_keeps_bad_stream_rows() {
        let mut s = StreamingAnonymizer::new(config(2), sensitive(), 8)
            .with_recovery(RecoveryConfig::quarantine());
        let mut chunks = Vec::new();
        for i in 0..8u32 {
            let row = if i == 3 {
                vec![1, 1, 99] // duplicate + out-of-range
            } else {
                vec![i % 4]
            };
            if let Some(c) = s.push(row).unwrap() {
                chunks.push(c);
            }
        }
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].published.n_transactions(), 8);
        assert!(chunks[0].published.satisfies(2));

        // The same stream under the default strict policy errors, naming
        // the stream id.
        let mut s = StreamingAnonymizer::new(config(2), sensitive(), 8);
        for i in 0..7u32 {
            let row = if i == 3 { vec![1, 1, 99] } else { vec![i % 4] };
            if i < 7 {
                match s.push(row) {
                    Ok(None) => {}
                    other => panic!("unexpected: {other:?}"),
                }
            }
        }
        let err = s.push(vec![0]).unwrap_err();
        assert!(
            matches!(err, CahdError::CorruptRow { row: 3, .. }),
            "{err:?}"
        );
    }
}
