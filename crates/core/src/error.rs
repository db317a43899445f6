//! Error types for the anonymization pipeline.

use std::fmt;

/// Errors reported by the CAHD algorithm and the pipeline around it.
///
/// # Reporting precedence
///
/// When an input is degenerate in several ways at once, every entry point
/// ([`crate::cahd::cahd`], [`crate::shard::cahd_sharded`],
/// [`crate::weighted::cahd_weighted`], and the traced variants) reports
/// errors in this fixed order:
///
/// 1. **parameter errors** — [`InvalidPrivacyDegree`] before
///    [`InvalidAlpha`] (both from [`crate::CahdConfig::validate`]); a
///    caller always learns about a bad config first, even on an empty
///    dataset;
/// 2. [`UniverseMismatch`] — the dataset and sensitive set disagree on the
///    item universe, so no shape question about the data is meaningful;
/// 3. [`EmptyDataset`];
/// 4. [`Infeasible`] — parameters and shapes are fine, but no degree-`p`
///    partition exists.
///
/// So `p == 0` on an empty dataset yields [`InvalidPrivacyDegree`], not
/// [`EmptyDataset`] — the precedence test in this module pins it.
///
/// The ingestion and persistence errors ([`CorruptRow`],
/// [`CorruptCheckpoint`], [`StreamFinished`]) are raised *before* the
/// pipeline runs — by the robust entry points and the streaming layer —
/// so they precede everything above when they apply at all.
///
/// [`InvalidPrivacyDegree`]: CahdError::InvalidPrivacyDegree
/// [`InvalidAlpha`]: CahdError::InvalidAlpha
/// [`UniverseMismatch`]: CahdError::UniverseMismatch
/// [`EmptyDataset`]: CahdError::EmptyDataset
/// [`Infeasible`]: CahdError::Infeasible
/// [`CorruptRow`]: CahdError::CorruptRow
/// [`CorruptCheckpoint`]: CahdError::CorruptCheckpoint
/// [`StreamFinished`]: CahdError::StreamFinished
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CahdError {
    /// No partitioning with the requested privacy degree exists: some
    /// sensitive item is too frequent (`support * p > n`).
    Infeasible {
        /// The offending sensitive item id.
        item: u32,
        /// Its number of occurrences.
        support: usize,
        /// The requested privacy degree.
        p: usize,
        /// Total number of transactions.
        n: usize,
    },
    /// The requested privacy degree is degenerate (`p < 2`).
    InvalidPrivacyDegree(usize),
    /// The candidate-list width parameter is degenerate (`alpha < 1`).
    InvalidAlpha(usize),
    /// The dataset contains no transactions.
    EmptyDataset,
    /// The sensitive set was built over a different item universe than the
    /// dataset.
    UniverseMismatch {
        /// Items in the dataset.
        data_items: usize,
        /// Items in the sensitive set.
        sensitive_items: usize,
    },
    /// An input row failed validation under
    /// [`crate::recovery::RecoveryConfig::Strict`] (out-of-range item or
    /// duplicate item id).
    CorruptRow {
        /// Index of the offending row in the submitted batch.
        row: usize,
        /// Human-readable description of what is wrong with the row.
        reason: String,
    },
    /// A streaming checkpoint failed validation on load (bad digest,
    /// inconsistent fields, or wrong format version). Resume fails closed:
    /// nothing from a corrupt checkpoint is ever trusted.
    CorruptCheckpoint {
        /// Human-readable description of the failed validation.
        reason: String,
    },
    /// [`crate::streaming::StreamingAnonymizer::push`] was called after
    /// [`crate::streaming::StreamingAnonymizer::finish`]; the stream is
    /// closed and its final chunk may already be published.
    StreamFinished,
}

impl fmt::Display for CahdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CahdError::Infeasible {
                item,
                support,
                p,
                n,
            } => write!(
                f,
                "no solution with privacy degree {p}: sensitive item {item} occurs {support} \
                 times in {n} transactions ({support} * {p} > {n})"
            ),
            CahdError::InvalidPrivacyDegree(p) => {
                write!(f, "privacy degree must be >= 2, got {p}")
            }
            CahdError::InvalidAlpha(a) => write!(f, "alpha must be >= 1, got {a}"),
            CahdError::EmptyDataset => write!(f, "dataset contains no transactions"),
            CahdError::UniverseMismatch {
                data_items,
                sensitive_items,
            } => write!(
                f,
                "item universe mismatch: dataset has {data_items} items, sensitive set built \
                 over {sensitive_items}"
            ),
            CahdError::CorruptRow { row, reason } => {
                write!(f, "corrupt input row {row}: {reason}")
            }
            CahdError::CorruptCheckpoint { reason } => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            CahdError::StreamFinished => {
                write!(
                    f,
                    "stream already finished: push after finish is not allowed"
                )
            }
        }
    }
}

impl std::error::Error for CahdError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cahd::{cahd, CahdConfig};
    use crate::shard::{cahd_sharded, ParallelConfig};
    use cahd_data::{SensitiveSet, TransactionSet};

    /// Pins the documented reporting precedence on inputs that are
    /// degenerate in several ways at once.
    #[test]
    fn parameter_errors_precede_dataset_shape_errors() {
        let empty = TransactionSet::from_rows(&[], 3);
        let sens = SensitiveSet::new(vec![2], 3);
        let mismatched = SensitiveSet::new(vec![1], 2);

        // p == 0 AND alpha == 0 AND empty dataset: p wins, then alpha.
        let bad_both = CahdConfig::new(0).with_alpha(0);
        assert_eq!(
            cahd(&empty, &sens, &bad_both),
            Err(CahdError::InvalidPrivacyDegree(0))
        );
        assert_eq!(
            cahd(&empty, &sens, &CahdConfig::new(2).with_alpha(0)),
            Err(CahdError::InvalidAlpha(0))
        );
        // Universe mismatch AND empty dataset: mismatch wins.
        assert_eq!(
            cahd(&empty, &mismatched, &CahdConfig::new(2)),
            Err(CahdError::UniverseMismatch {
                data_items: 3,
                sensitive_items: 2,
            })
        );
        // Only then is the empty dataset itself reported.
        assert_eq!(
            cahd(&empty, &sens, &CahdConfig::new(2)),
            Err(CahdError::EmptyDataset)
        );
        // The sharded entry point orders identically.
        let par = ParallelConfig::new(4, 2);
        assert_eq!(
            cahd_sharded(&empty, &sens, &bad_both, &par),
            Err(CahdError::InvalidPrivacyDegree(0))
        );
        assert_eq!(
            cahd_sharded(&empty, &mismatched, &CahdConfig::new(2), &par),
            Err(CahdError::UniverseMismatch {
                data_items: 3,
                sensitive_items: 2,
            })
        );
    }

    #[test]
    fn display_messages() {
        let e = CahdError::Infeasible {
            item: 3,
            support: 40,
            p: 10,
            n: 100,
        };
        let s = e.to_string();
        assert!(s.contains("item 3"));
        assert!(s.contains("40 * 10 > 100"));
        assert!(CahdError::InvalidPrivacyDegree(1)
            .to_string()
            .contains(">= 2"));
        assert!(CahdError::EmptyDataset
            .to_string()
            .contains("no transactions"));
    }
}
