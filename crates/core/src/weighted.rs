//! CAHD for count-valued (non-binary) transactions.
//!
//! Realizes the paper's future-work direction ("anonymization of
//! high-dimensional data for non-binary databases", motivated by the
//! Netflix Prize ratings release). The privacy model is unchanged — a
//! privacy breach is the *association* of a transaction with a sensitive
//! item, regardless of its count — so the sensitive side still publishes
//! per-group presence frequencies. What changes:
//!
//! * published QID rows carry their exact counts (lossless, like the binary
//!   case publishes exact item sets);
//! * candidate scoring can exploit the counts: two transactions that bought
//!   similar *quantities* are more similar than two that merely share the
//!   item ([`WeightedSimilarity`]).
//!
//! Group formation reuses the verified engine of [`crate::cahd::cahd`]; only the
//! scorer and the published representation differ.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use cahd_data::{ItemId, SensitiveSet, WeightedTransactionSet};
use cahd_obs::Recorder;

use crate::cahd::{form_groups, CahdConfig, CahdStats, FeasibilityCheck};
use crate::error::CahdError;
use crate::group::{AnonymizedGroup, PublishedDataset};
use crate::invariant::strict_invariant;
use crate::kernel::{MinCountScorer, SimilarityKernel};
use crate::split::{FlatRows, RowSplit};

/// How candidate similarity is computed from counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WeightedSimilarity {
    /// Number of shared QID items — identical to binary CAHD; counts only
    /// affect the published form.
    PresenceOverlap,
    /// Sum over shared QID items of `min(count_t, count_c)`: rewards
    /// matching quantities. The default.
    #[default]
    MinCount,
}

/// One anonymized group of weighted transactions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightedGroup {
    /// Original transaction indices.
    pub members: Vec<u32>,
    /// Published QID `(item, count)` rows, aligned with `members`.
    pub qid_rows: Vec<Vec<(ItemId, u32)>>,
    /// Sensitive presence frequencies, as in the binary model.
    pub sensitive_counts: Vec<(ItemId, u32)>,
}

impl WeightedGroup {
    /// Number of members.
    pub fn size(&self) -> usize {
        self.qid_rows.len()
    }

    /// Whether the group satisfies privacy degree `p`.
    pub fn satisfies(&self, p: usize) -> bool {
        let g = self.size();
        self.sensitive_counts
            .iter()
            .all(|&(_, f)| (f as usize) * p <= g)
    }
}

/// A complete weighted release.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightedPublished {
    /// Size of the item universe.
    pub n_items: usize,
    /// Sensitive item ids (sorted).
    pub sensitive_items: Vec<ItemId>,
    /// The groups.
    pub groups: Vec<WeightedGroup>,
}

impl WeightedPublished {
    /// Total published transactions.
    pub fn n_transactions(&self) -> usize {
        self.groups.iter().map(WeightedGroup::size).sum()
    }

    /// Whether every group satisfies degree `p`.
    pub fn satisfies(&self, p: usize) -> bool {
        self.groups.iter().all(|g| g.satisfies(p))
    }

    /// Projects the release onto the binary model: QID rows keep their
    /// items and drop the counts. The sensitive summaries are already
    /// presence frequencies, so the result is a valid release of
    /// `data.to_binary()` and can be fed to the binary verifier and the
    /// `cahd-check` pass registry.
    pub fn to_binary(&self) -> PublishedDataset {
        PublishedDataset {
            n_items: self.n_items,
            sensitive_items: self.sensitive_items.clone(),
            groups: self
                .groups
                .iter()
                .map(|g| {
                    let nnz = g.qid_rows.iter().map(Vec::len).sum();
                    let mut qid_rows = FlatRows::with_capacity(g.qid_rows.len(), nnz);
                    for row in &g.qid_rows {
                        qid_rows.push_row(row.iter().map(|&(item, _)| item));
                    }
                    AnonymizedGroup {
                        members: g.members.clone(),
                        qid_rows,
                        sensitive_counts: g.sensitive_counts.clone(),
                    }
                })
                .collect(),
        }
    }
}

/// Runs CAHD over count-valued data (assumed band-ordered, exactly like
/// [`crate::cahd::cahd`]), recording the `pipeline/group` span and the
/// greedy engine's `core.*` counters into `rec` (the weighted analogue of
/// [`crate::cahd::cahd_traced`]).
pub fn cahd_weighted(
    data: &WeightedTransactionSet,
    sensitive: &SensitiveSet,
    config: &CahdConfig,
    similarity: WeightedSimilarity,
    rec: &Recorder,
) -> Result<(WeightedPublished, CahdStats), CahdError> {
    config.validate()?;
    if sensitive.n_items() != data.n_items() {
        return Err(CahdError::UniverseMismatch {
            data_items: data.n_items(),
            sensitive_items: sensitive.n_items(),
        });
    }
    let _group_span = rec.span("pipeline/group");
    // cahd-lint: allow(L002, reason = "elapsed-time stat only; release bytes never depend on it")
    let t_start = Instant::now();

    // Split rows into QID items, their counts and sensitive ranks.
    let split = RowSplit::of_weighted(data, sensitive);
    let (qid, sens, weights) = (split.qid(), split.sens(), split.weights());

    // Both similarities score through the kernel layer (crate::kernel).
    // PresenceOverlap is the binary overlap on the item sets, so it rides
    // the adaptive sparse/dense kernel directly; MinCount needs the
    // pivot's counts alongside the stamps, which a one-bit bitset cannot
    // carry, so it uses the sparse-only count scorer.
    let counts = split.occurrences().to_vec();
    let formed = match similarity {
        WeightedSimilarity::PresenceOverlap => {
            let mut kernel = SimilarityKernel::new(qid, data.n_items());
            let formed = form_groups(
                sens,
                counts,
                sensitive.items(),
                config,
                |t, cl, out| kernel.score(t, cl, out),
                FeasibilityCheck::Enforce,
                rec,
            )?;
            kernel.flush_to(rec);
            formed
        }
        WeightedSimilarity::MinCount => {
            let mut scorer = MinCountScorer::new(qid, weights, data.n_items());
            let formed = form_groups(
                sens,
                counts,
                sensitive.items(),
                config,
                |t, cl, out| scorer.score(t, cl, out),
                FeasibilityCheck::Enforce,
                rec,
            )?;
            scorer.flush_to(rec);
            formed
        }
    };

    let make = |members: &[usize]| -> WeightedGroup {
        let mut scounts = vec![0u32; sensitive.len()];
        let mut qid_rows = Vec::with_capacity(members.len());
        for &mt in members {
            let row = qid.row(mt).iter().zip(&weights[qid.range(mt)]);
            qid_rows.push(row.map(|(&item, &c)| (item, c)).collect());
            for &r in sens.row(mt) {
                scounts[r as usize] += 1;
            }
        }
        WeightedGroup {
            members: members.iter().map(|&mt| mt as u32).collect(),
            qid_rows,
            sensitive_counts: scounts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(r, &c)| (sensitive.items()[r], c))
                .collect(),
        }
    };
    let mut groups: Vec<WeightedGroup> = formed.groups.iter().map(|m| make(m)).collect();
    if !formed.leftover.is_empty() {
        groups.push(make(&formed.leftover));
    }
    let mut stats = formed.stats;
    stats.elapsed = t_start.elapsed();

    let published = WeightedPublished {
        n_items: data.n_items(),
        sensitive_items: sensitive.items().to_vec(),
        groups,
    };
    strict_invariant!(
        published.satisfies(config.p),
        "weighted CAHD invariant violated"
    );
    Ok((published, stats))
}

/// End-to-end weighted pipeline: RCM band reorganization on the occurrence
/// pattern, then [`cahd_weighted`], with group members mapped back to
/// original transaction indices. The weighted analogue of
/// [`crate::pipeline::Anonymizer`].
///
/// Records the full pipeline span taxonomy (`pipeline`,
/// `pipeline/rcm/*`, `pipeline/permute`, `pipeline/group`,
/// `pipeline/unpermute`), the `rcm.*`/`sparse.*`/`core.*` metrics of the
/// phases, and — under a memory-tracking recorder — the `mem.*` gauges
/// into `rec`. This is what backs `--trace-json`/`--metrics`/`--memory`
/// on `cahd-cli anonymize --weighted`.
pub fn anonymize_weighted(
    data: &WeightedTransactionSet,
    sensitive: &SensitiveSet,
    config: &CahdConfig,
    similarity: WeightedSimilarity,
    rec: &Recorder,
) -> Result<(WeightedPublished, CahdStats), CahdError> {
    let pipeline_span = rec.span("pipeline");
    let red = cahd_rcm::reduce_unsymmetric(data.pattern(), cahd_rcm::UnsymOptions::default(), rec);
    let permuted = {
        let _s = rec.span("pipeline/permute");
        data.permute(&red.row_perm)
    };
    let (mut published, stats) = cahd_weighted(&permuted, sensitive, config, similarity, rec)?;
    {
        let _s = rec.span("pipeline/unpermute");
        for g in &mut published.groups {
            for m in &mut g.members {
                *m = red.row_perm.new_to_old(*m as usize) as u32;
            }
        }
    }
    drop(pipeline_span);
    rec.record_memory_gauges();
    Ok((published, stats))
}

/// Independently verifies a weighted release: coverage, verbatim QID rows
/// (items *and* counts), correct sensitive summaries and the privacy
/// degree. Mirrors [`crate::verify::verify_published`].
pub fn verify_weighted(
    data: &WeightedTransactionSet,
    sensitive: &SensitiveSet,
    published: &WeightedPublished,
    p: usize,
) -> Result<(), crate::verify::VerificationError> {
    use crate::verify::VerificationError as E;
    if published.sensitive_items != sensitive.items() {
        return Err(E::SensitiveItemsMismatch);
    }
    let n = data.n_transactions();
    if published.n_transactions() != n {
        return Err(E::Cardinality {
            expected: n,
            actual: published.n_transactions(),
        });
    }
    let mut seen = vec![0usize; n];
    for g in &published.groups {
        for &mt in &g.members {
            if (mt as usize) < n {
                seen[mt as usize] += 1;
            } else {
                return Err(E::Coverage {
                    transaction: mt as usize,
                    times_seen: 0,
                });
            }
        }
    }
    if let Some((t, &c)) = seen.iter().enumerate().find(|&(_, &c)| c != 1) {
        return Err(E::Coverage {
            transaction: t,
            times_seen: c,
        });
    }
    for (gi, g) in published.groups.iter().enumerate() {
        let mut counts = vec![0u32; sensitive.len()];
        for (k, &mt) in g.members.iter().enumerate() {
            let mut qid: Vec<(ItemId, u32)> = Vec::new();
            for (item, c) in data.transaction(mt as usize) {
                match sensitive.index_of(item) {
                    Some(r) => counts[r] += 1,
                    None => qid.push((item, c)),
                }
            }
            if g.qid_rows.get(k) != Some(&qid) {
                return Err(E::QidMismatch {
                    group: gi,
                    member: k,
                });
            }
        }
        let expected: Vec<(ItemId, u32)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(r, &c)| (sensitive.items()[r], c))
            .collect();
        if expected != g.sensitive_counts {
            return Err(E::SensitiveCountMismatch { group: gi });
        }
        if !g.satisfies(p) {
            return Err(E::PrivacyViolation {
                group: gi,
                degree: None,
                required: p,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ratings-style data: items 0..4 QID with counts 1..5, item 5/6
    /// sensitive.
    fn ratings() -> (WeightedTransactionSet, SensitiveSet) {
        let data = WeightedTransactionSet::from_rows(
            &[
                vec![(0, 5), (1, 3), (5, 1)],
                vec![(0, 5), (1, 3)],
                vec![(0, 1), (1, 1)],
                vec![(2, 4), (3, 2), (6, 1)],
                vec![(2, 4), (3, 2)],
                vec![(2, 1)],
            ],
            7,
        );
        (data, SensitiveSet::new(vec![5, 6], 7))
    }

    #[test]
    fn weighted_release_verifies() {
        let (data, sens) = ratings();
        let (pub_, stats) = cahd_weighted(
            &data,
            &sens,
            &CahdConfig::new(2),
            WeightedSimilarity::MinCount,
            &Recorder::disabled(),
        )
        .unwrap();
        verify_weighted(&data, &sens, &pub_, 2).unwrap();
        assert!(stats.groups_formed >= 2);
        assert_eq!(pub_.n_transactions(), 6);
    }

    #[test]
    fn min_count_prefers_matching_quantities() {
        // Pivot 0 has (0,5),(1,3). Candidate 1 matches counts exactly
        // (score 8); candidate 2 shares items but with count 1 each
        // (score 2). MinCount must pick candidate 1.
        let (data, sens) = ratings();
        let (pub_, _) = cahd_weighted(
            &data,
            &sens,
            &CahdConfig::new(2),
            WeightedSimilarity::MinCount,
            &Recorder::disabled(),
        )
        .unwrap();
        let g0 = &pub_.groups[0];
        assert_eq!(g0.members, vec![0, 1]);
        assert_eq!(g0.qid_rows[0], vec![(0, 5), (1, 3)]);
    }

    #[test]
    fn presence_overlap_matches_binary_grouping() {
        let (data, sens) = ratings();
        let (wpub, _) = cahd_weighted(
            &data,
            &sens,
            &CahdConfig::new(2),
            WeightedSimilarity::PresenceOverlap,
            &Recorder::disabled(),
        )
        .unwrap();
        let (bpub, _) = crate::cahd::cahd(&data.to_binary(), &sens, &CahdConfig::new(2)).unwrap();
        let wm: Vec<Vec<u32>> = wpub.groups.iter().map(|g| g.members.clone()).collect();
        let bm: Vec<Vec<u32>> = bpub.groups.iter().map(|g| g.members.clone()).collect();
        assert_eq!(wm, bm, "presence scorer must reproduce binary grouping");
    }

    #[test]
    fn both_scorers_flush_their_path_counters() {
        let (data, sens) = ratings();
        for similarity in [
            WeightedSimilarity::PresenceOverlap,
            WeightedSimilarity::MinCount,
        ] {
            let rec = Recorder::new();
            cahd_weighted(&data, &sens, &CahdConfig::new(2), similarity, &rec).unwrap();
            let report = rec.snapshot();
            let scanned = report.counter_or_zero("core.candidates_scanned");
            let scored = report.counter_or_zero("core.kernel_dense_scores")
                + report.counter_or_zero("core.kernel_sparse_scores");
            assert!(scanned > 0, "{similarity:?}");
            assert_eq!(scored, scanned, "{similarity:?}");
        }
    }

    #[test]
    fn weighted_infeasible_detected() {
        let data = WeightedTransactionSet::from_rows(
            &[vec![(0, 1), (2, 9)], vec![(1, 1), (2, 1)], vec![(1, 1)]],
            3,
        );
        let sens = SensitiveSet::new(vec![2], 3);
        let err = cahd_weighted(
            &data,
            &sens,
            &CahdConfig::new(2),
            Default::default(),
            &Recorder::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, CahdError::Infeasible { item: 2, .. }));
    }

    #[test]
    fn verifier_catches_count_tampering() {
        let (data, sens) = ratings();
        let (mut pub_, _) = cahd_weighted(
            &data,
            &sens,
            &CahdConfig::new(2),
            Default::default(),
            &Recorder::disabled(),
        )
        .unwrap();
        pub_.groups[0].qid_rows[0][0].1 += 1; // corrupt a count
        let err = verify_weighted(&data, &sens, &pub_, 2).unwrap_err();
        assert!(matches!(
            err,
            crate::verify::VerificationError::QidMismatch { .. }
        ));
    }

    #[test]
    fn binary_projection_verifies() {
        let (data, sens) = ratings();
        let (pub_, _) = cahd_weighted(
            &data,
            &sens,
            &CahdConfig::new(2),
            Default::default(),
            &Recorder::disabled(),
        )
        .unwrap();
        crate::verify::verify_published(&data.to_binary(), &sens, &pub_.to_binary(), 2).unwrap();
    }

    #[test]
    fn serde_roundtrip() {
        let (data, sens) = ratings();
        let (pub_, _) = cahd_weighted(
            &data,
            &sens,
            &CahdConfig::new(2),
            Default::default(),
            &Recorder::disabled(),
        )
        .unwrap();
        let json = serde_json::to_string(&pub_).unwrap();
        let back: WeightedPublished = serde_json::from_str(&json).unwrap();
        assert_eq!(back, pub_);
    }
}
