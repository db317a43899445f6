//! Independent verification of a published dataset.
//!
//! [`verify_all`] re-derives every property a release must have from the
//! original data, without trusting the algorithm that produced it:
//! coverage (every transaction in exactly one group), faithful QID
//! publication, correct sensitive summaries, and the privacy degree — and
//! reports *every* violation it finds. [`verify_published`] is the
//! fail-fast wrapper returning only the first violation; both CAHD and the
//! baselines are checked through this single gate in the test suites and
//! the experiment harness, and the `cahd-check` pass framework maps each
//! [`VerificationError`] to a stable diagnostic code.

use std::fmt;

use cahd_data::{ItemId, SensitiveSet, TransactionSet};

use crate::group::PublishedDataset;

/// A violated release property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerificationError {
    /// A transaction appears in zero or multiple groups.
    Coverage {
        /// The transaction index.
        transaction: usize,
        /// How many groups contain it.
        times_seen: usize,
    },
    /// A group references a transaction index outside the original data.
    MemberOutOfRange {
        /// Group index.
        group: usize,
        /// The out-of-range transaction index.
        transaction: usize,
        /// Number of transactions in the original data.
        n_transactions: usize,
    },
    /// The number of published transactions differs from the original.
    Cardinality {
        /// Original transaction count.
        expected: usize,
        /// Published transaction count.
        actual: usize,
    },
    /// A published QID row does not match the original transaction's QID
    /// items.
    QidMismatch {
        /// Group index.
        group: usize,
        /// Member position within the group.
        member: usize,
    },
    /// A group's sensitive summary does not match its members.
    SensitiveCountMismatch {
        /// Group index.
        group: usize,
    },
    /// A group violates the privacy degree.
    PrivacyViolation {
        /// Group index.
        group: usize,
        /// The group's actual degree (None = unbounded, can't happen here).
        degree: Option<usize>,
        /// The required degree.
        required: usize,
    },
    /// The release's sensitive-item list differs from the sensitive set.
    SensitiveItemsMismatch,
}

impl fmt::Display for VerificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationError::Coverage {
                transaction,
                times_seen,
            } => write!(f, "transaction {transaction} appears in {times_seen} groups"),
            VerificationError::MemberOutOfRange {
                group,
                transaction,
                n_transactions,
            } => write!(
                f,
                "group {group} references transaction {transaction}, but the data has only {n_transactions}"
            ),
            VerificationError::Cardinality { expected, actual } => {
                write!(f, "published {actual} transactions, expected {expected}")
            }
            VerificationError::QidMismatch { group, member } => {
                write!(f, "group {group}, member {member}: QID row mismatch")
            }
            VerificationError::SensitiveCountMismatch { group } => {
                write!(f, "group {group}: sensitive summary mismatch")
            }
            VerificationError::PrivacyViolation {
                group,
                degree,
                required,
            } => write!(
                f,
                "group {group} has privacy degree {degree:?}, required {required}"
            ),
            VerificationError::SensitiveItemsMismatch => {
                write!(f, "published sensitive-item list mismatch")
            }
        }
    }
}

impl std::error::Error for VerificationError {}

/// Verifies `published` against the original `data`, the sensitive set and
/// a required privacy degree `p`, collecting **every** violation instead of
/// stopping at the first. An empty vector means the release is valid.
///
/// One pass over the members: each transaction is compared with its
/// published QID row in place (sensitive items skipped) while its
/// sensitive ranks are tallied into one reused `m`-slot buffer. Nothing
/// is allocated per member or per group, and nothing is sized by the item
/// universe or by a value read from the release: only the `n`-slot
/// coverage tally and the `m`-slot rank tally.
pub fn verify_all(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    published: &PublishedDataset,
    p: usize,
) -> Vec<VerificationError> {
    let mut errors = Vec::new();
    if published.sensitive_items != sensitive.items() {
        errors.push(VerificationError::SensitiveItemsMismatch);
    }
    let n = data.n_transactions();
    if published.n_transactions() != n {
        errors.push(VerificationError::Cardinality {
            expected: n,
            actual: published.n_transactions(),
        });
    }

    // Coverage: every original transaction in exactly one group, and no
    // group referencing a transaction outside the data.
    let mut seen = vec![0u32; n];
    for (gi, g) in published.groups.iter().enumerate() {
        for &mt in &g.members {
            if (mt as usize) < n {
                seen[mt as usize] = seen[mt as usize].saturating_add(1);
            } else {
                errors.push(VerificationError::MemberOutOfRange {
                    group: gi,
                    transaction: mt as usize,
                    n_transactions: n,
                });
            }
        }
    }
    for (t, &c) in seen.iter().enumerate() {
        if c != 1 {
            errors.push(VerificationError::Coverage {
                transaction: t,
                times_seen: c as usize,
            });
        }
    }

    let mut counts: Vec<u32> = vec![0; sensitive.len()];
    for (gi, g) in published.groups.iter().enumerate() {
        // QID rows and sensitive counts must match the members.
        // Out-of-range members were already reported above; skipping them
        // here keeps the remaining checks well-defined.
        counts.fill(0);
        let mut summary_defined = true;
        for (k, &mt) in g.members.iter().enumerate() {
            if (mt as usize) >= n {
                summary_defined = false;
                continue;
            }
            let row = g.qid_rows.get(k);
            if !tally_member(data.transaction(mt as usize), sensitive, row, &mut counts) {
                errors.push(VerificationError::QidMismatch {
                    group: gi,
                    member: k,
                });
            }
        }
        if summary_defined {
            let expected = counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(r, &c)| (sensitive.items()[r], c));
            if !expected.eq(g.sensitive_counts.iter().copied()) {
                errors.push(VerificationError::SensitiveCountMismatch { group: gi });
            }
        }
        // Privacy.
        if !g.satisfies(p) {
            errors.push(VerificationError::PrivacyViolation {
                group: gi,
                degree: g.privacy_degree(),
                required: p,
            });
        }
    }
    errors
}

/// Adds the sensitive ranks of `txn` to `counts` and reports whether
/// `row` is exactly its QID items in order (`None`: no published row).
/// The whole transaction is always read, so the tally is complete even
/// when the row mismatches early.
fn tally_member(
    txn: &[ItemId],
    sensitive: &SensitiveSet,
    row: Option<&[ItemId]>,
    counts: &mut [u32],
) -> bool {
    let mut matches = row.is_some();
    let row = row.unwrap_or(&[]);
    let mut j = 0;
    for &item in txn {
        match sensitive.index_of(item) {
            Some(rank) => counts[rank] += 1,
            None => {
                matches &= row.get(j) == Some(&item);
                j += 1;
            }
        }
    }
    matches && j == row.len()
}

/// Fail-fast wrapper over [`verify_all`]: returns the first violation.
pub fn verify_published(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    published: &PublishedDataset,
    p: usize,
) -> Result<(), VerificationError> {
    match verify_all(data, sensitive, published, p).into_iter().next() {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cahd::{cahd, CahdConfig};
    use crate::group::AnonymizedGroup;
    use crate::split::FlatRows;

    fn setup() -> (TransactionSet, SensitiveSet, PublishedDataset) {
        let data =
            TransactionSet::from_rows(&[vec![0, 1, 4], vec![0, 1], vec![2, 3], vec![2, 3, 5]], 6);
        let sens = SensitiveSet::new(vec![4, 5], 6);
        let (pub_, _) = cahd(&data, &sens, &CahdConfig::new(2)).unwrap();
        (data, sens, pub_)
    }

    #[test]
    fn valid_release_passes() {
        let (data, sens, pub_) = setup();
        verify_published(&data, &sens, &pub_, 2).unwrap();
    }

    #[test]
    fn detects_privacy_violation() {
        let (data, sens, pub_) = setup();
        let err = verify_published(&data, &sens, &pub_, 10).unwrap_err();
        assert!(matches!(err, VerificationError::PrivacyViolation { .. }));
    }

    #[test]
    fn detects_missing_transaction() {
        let (data, sens, mut pub_) = setup();
        pub_.groups[0].members[0] = pub_.groups[0].members[1];
        let err = verify_published(&data, &sens, &pub_, 2).unwrap_err();
        assert!(matches!(err, VerificationError::Coverage { .. }));
    }

    #[test]
    fn detects_tampered_qid() {
        let (data, sens, mut pub_) = setup();
        pub_.groups[0].qid_rows.edit_rows(|rows| rows[0] = vec![5]);
        let err = verify_published(&data, &sens, &pub_, 2).unwrap_err();
        assert!(matches!(
            err,
            VerificationError::QidMismatch {
                group: 0,
                member: 0
            }
        ));
    }

    #[test]
    fn detects_wrong_sensitive_summary() {
        let (data, sens, mut pub_) = setup();
        // Tamper with whichever group has a sensitive count.
        let gi = pub_
            .groups
            .iter()
            .position(|g| !g.sensitive_counts.is_empty())
            .unwrap();
        pub_.groups[gi].sensitive_counts[0].1 += 1;
        let err = verify_published(&data, &sens, &pub_, 2).unwrap_err();
        assert!(matches!(
            err,
            VerificationError::SensitiveCountMismatch { .. }
        ));
    }

    #[test]
    fn detects_cardinality_mismatch() {
        let (data, sens, mut pub_) = setup();
        pub_.groups.push(AnonymizedGroup {
            members: vec![0],
            qid_rows: FlatRows::from_rows(&[vec![0, 1]]),
            sensitive_counts: vec![],
        });
        let err = verify_published(&data, &sens, &pub_, 2).unwrap_err();
        assert!(matches!(err, VerificationError::Cardinality { .. }));
    }

    #[test]
    fn detects_sensitive_list_mismatch() {
        let (data, sens, mut pub_) = setup();
        pub_.sensitive_items = vec![1];
        let err = verify_published(&data, &sens, &pub_, 2).unwrap_err();
        assert_eq!(err, VerificationError::SensitiveItemsMismatch);
    }

    #[test]
    fn detects_member_out_of_range() {
        let (data, sens, mut pub_) = setup();
        pub_.groups[0].members[0] = 999;
        let err = verify_published(&data, &sens, &pub_, 2).unwrap_err();
        assert!(matches!(
            err,
            VerificationError::MemberOutOfRange {
                transaction: 999,
                ..
            }
        ));
        // Distinct from a plain coverage error: the dropped original member
        // is *also* reported, as uncovered.
        let all = verify_all(&data, &sens, &pub_, 2);
        assert!(all
            .iter()
            .any(|e| matches!(e, VerificationError::Coverage { times_seen: 0, .. })));
    }

    #[test]
    fn verify_all_collects_multiple_violations() {
        let (data, sens, mut pub_) = setup();
        pub_.sensitive_items = vec![1];
        pub_.groups[0].qid_rows.edit_rows(|rows| rows[0] = vec![5]);
        let all = verify_all(&data, &sens, &pub_, 2);
        assert!(all.len() >= 2, "expected several violations, got {all:?}");
        assert!(all.contains(&VerificationError::SensitiveItemsMismatch));
        assert!(all
            .iter()
            .any(|e| matches!(e, VerificationError::QidMismatch { .. })));
    }

    #[test]
    fn error_messages_render() {
        let e = VerificationError::PrivacyViolation {
            group: 1,
            degree: Some(2),
            required: 4,
        };
        assert!(e.to_string().contains("group 1"));
    }
}
