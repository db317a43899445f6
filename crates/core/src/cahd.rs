//! The CAHD group-formation heuristic (paper Section IV, Fig. 8).
//!
//! The input is assumed to be in *band order* (rows already permuted by
//! RCM — see [`crate::pipeline`] for the full pipeline). The algorithm
//! scans the sequence, and for each still-ungrouped sensitive transaction
//! `t`:
//!
//! 1. builds a candidate list `CL(t)` of up to `alpha * p` predecessors and
//!    `alpha * p` successors that are not *conflicting* — no sensitive item
//!    may occur twice within `{t} ∪ CL(t)` (the one-occurrence-per-group
//!    heuristic); conflicting transactions are skipped, not counted;
//! 2. selects the `p - 1` candidates sharing the largest number of QID
//!    items with `t` (ties broken by band proximity);
//! 3. tentatively removes the group and validates the remaining-occurrence
//!    histogram (`H[s] * p <= remaining` for all `s`); on failure the group
//!    is rolled back and the scan continues with the next sensitive
//!    transaction.
//!
//! Whatever remains at the end of the scan is published as a single final
//! group; the histogram invariant guarantees it satisfies the privacy
//! degree.

use std::time::{Duration, Instant};

use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_obs::Recorder;

use crate::error::CahdError;
use crate::group::{AnonymizedGroup, PublishedDataset};
use crate::histogram::SensitiveHistogram;
use crate::invariant::{strict_invariant, strict_invariant_eq};
use crate::kernel::{KernelMode, SimilarityKernel};
use crate::order::OrderList;
use crate::split::{RowSplit, Rows};

/// Configuration of the CAHD heuristic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CahdConfig {
    /// Privacy degree `p`: no transaction may be associated with a
    /// sensitive item with probability above `1/p`. Must be >= 2.
    pub p: usize,
    /// Candidate-list width factor: `alpha * p` non-conflicting
    /// predecessors and successors are considered (paper Section IV; the
    /// evaluation uses `alpha = 3` by default and finds 2-3 a good
    /// compromise).
    pub alpha: usize,
    /// Break equal-overlap ties by band proximity (the distance in the RCM
    /// order). Disabling this is an ablation switch; ties then fall back to
    /// slot order.
    pub proximity_tie_break: bool,
    /// Read by nothing: the similarity kernel is always the adaptive one
    /// (see [`crate::kernel`]).
    pub kernel: KernelMode,
}

impl CahdConfig {
    /// The paper's default: `alpha = 3`, proximity tie-break on, adaptive
    /// similarity kernel.
    pub fn new(p: usize) -> Self {
        CahdConfig {
            p,
            alpha: 3,
            proximity_tie_break: true,
            kernel: KernelMode::Adaptive,
        }
    }

    /// Sets the candidate-list width factor.
    pub fn with_alpha(mut self, alpha: usize) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets [`CahdConfig::kernel`], which nothing reads.
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Checks the parameters for degeneracies: `p >= 2` (anything lower
    /// offers no protection) and `alpha >= 1` (an `alpha` of zero would
    /// produce empty candidate lists, silently degrading every pivot to
    /// the leftover group). Parameter errors are reported before any
    /// dataset-shape error, so a caller always learns about a bad config
    /// first.
    pub fn validate(&self) -> Result<(), CahdError> {
        if self.p < 2 {
            return Err(CahdError::InvalidPrivacyDegree(self.p));
        }
        if self.alpha < 1 {
            return Err(CahdError::InvalidAlpha(self.alpha));
        }
        Ok(())
    }
}

/// Counters describing a CAHD run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CahdStats {
    /// Regular (size-`p`) groups formed.
    pub groups_formed: usize,
    /// Groups rolled back by the histogram validation (Fig. 8 line 11).
    pub rollbacks: usize,
    /// Sensitive pivots skipped because fewer than `p - 1` non-conflicting
    /// candidates were found.
    pub insufficient_candidates: usize,
    /// Size of the final leftover group (0 if everything was grouped).
    pub fallback_group_size: usize,
    /// Total candidates submitted to the similarity kernel. Pivots whose
    /// candidate list fell short of `p - 1` contribute nothing (their
    /// candidates are never scored), so this always equals the kernel's
    /// `dense_scores + sparse_scores` — the `CAHD-O001` identity.
    pub candidates_considered: u64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl std::fmt::Display for CahdStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} groups formed, {} rollbacks, {} pivots lacking candidates, \
             leftover group of {}, {} candidates scored, {:.3}s",
            self.groups_formed,
            self.rollbacks,
            self.insufficient_candidates,
            self.fallback_group_size,
            self.candidates_considered,
            self.elapsed.as_secs_f64(),
        )
    }
}

/// Runs CAHD on `data` (assumed band-ordered) and returns the published
/// groups plus run statistics. Group members are row indices into `data`.
///
/// Errors if the parameters are degenerate, the dataset is empty, the item
/// universes mismatch, or no solution with degree `p` exists
/// (`support(s) * p > n` for some sensitive item `s`).
pub fn cahd(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    config: &CahdConfig,
) -> Result<(PublishedDataset, CahdStats), CahdError> {
    cahd_traced(data, sensitive, config, &Recorder::disabled())
}

/// Like [`cahd`], recording the group-formation phase into `rec`: the span
/// `pipeline/group`, the scheduling-invariant `core.*` counters of the
/// engine (see `form_groups`), the kernel path counters
/// (`core.kernel_dense_scores`, `core.kernel_sparse_scores`,
/// `core.kernel_cache_hits` — see [`crate::kernel`]), and the counter
/// `core.fallback_group_size` (size of the final leftover group).
pub fn cahd_traced(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    config: &CahdConfig,
    rec: &Recorder,
) -> Result<(PublishedDataset, CahdStats), CahdError> {
    config.validate()?;
    let n = data.n_transactions();
    if sensitive.n_items() != data.n_items() {
        return Err(CahdError::UniverseMismatch {
            data_items: data.n_items(),
            sensitive_items: sensitive.n_items(),
        });
    }
    let _group_span = rec.span("pipeline/group");
    // cahd-lint: allow(L002, reason = "elapsed-time stat only; release bytes never depend on it")
    let t_start = Instant::now();

    // Split every transaction into QID items and sensitive ranks once.
    let split = RowSplit::of(data, sensitive);
    let mut kernel = SimilarityKernel::new(split.qid(), data.n_items());
    let formed = form_groups(
        split.sens(),
        split.occurrences().to_vec(),
        sensitive.items(),
        config,
        |t, cl, out| kernel.score(t, cl, out),
        FeasibilityCheck::Enforce,
        rec,
    )?;
    kernel.flush_to(rec);
    drop(kernel);
    rec.add("core.fallback_group_size", formed.leftover.len() as u64);

    let mut stats = formed.stats;
    let groups = publish_groups(formed.groups, formed.leftover, sensitive, &split);
    stats.elapsed = t_start.elapsed();

    let published = PublishedDataset {
        n_items: data.n_items(),
        sensitive_items: sensitive.items().to_vec(),
        groups,
    };
    strict_invariant!(published.satisfies(config.p), "CAHD invariant violated");
    strict_invariant_eq!(
        published.n_transactions(),
        n,
        "CAHD must publish every transaction exactly once"
    );
    Ok((published, stats))
}

/// Whether [`form_groups`] should reject inputs where no degree-`p`
/// solution exists over its own row range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FeasibilityCheck {
    /// Error with [`CahdError::Infeasible`] when some sensitive item has
    /// `support * p > n`. The whole-dataset entry points use this.
    Enforce,
    /// Skip the up-front check. Used by the sharded pipeline, where a
    /// single shard may be locally infeasible (all occurrences of an item
    /// concentrated in it) while the dataset is globally feasible; the
    /// per-group histogram validation then simply rejects every group
    /// touching the overloaded item, and the shard merge repairs the rest
    /// (see [`crate::shard`]).
    Skip,
}

/// Result of the group-formation engine: member-index groups plus run
/// counters (`elapsed` left unset — the public entry points time their own
/// full runs).
pub(crate) struct FormedGroups {
    /// Regular groups, each of size exactly `p`, member indices sorted.
    pub groups: Vec<Vec<usize>>,
    /// The final leftover group (possibly empty).
    pub leftover: Vec<usize>,
    /// Run counters.
    pub stats: CahdStats,
}

/// The CAHD group-formation engine, generic over the candidate scorer so
/// binary and weighted (count-valued) data share one verified
/// implementation.
///
/// `score(pivot, candidates, out)` fills `out` with one utility score per
/// candidate (higher = more similar QID). Row `t` of `sens` holds
/// transaction `t`'s sensitive-item ranks (one row per transaction);
/// `initial_counts` is the per-rank occurrence histogram; `sens_items`
/// names the items for error reporting.
///
/// Records into `rec` — all scheduling-invariant, accumulated locally and
/// merged under one lock at the end so the hot loop never contends:
///
/// * counters `core.pivots_scanned` (sensitive pivots whose candidate list
///   was built; always `groups_formed + rollbacks +
///   insufficient_candidates`), `core.groups_formed`, `core.rollbacks`,
///   `core.insufficient_candidates`, `core.candidates_scanned` (candidates
///   actually submitted to the scorer — pivots failing the `p - 1`
///   candidate floor never score, so the kernel path counters
///   `core.kernel_dense_scores + core.kernel_sparse_scores` sum to
///   exactly this value);
/// * histogram `core.candidate_list_len` (one observation per scanned
///   pivot).
pub(crate) fn form_groups(
    sens: Rows<'_>,
    initial_counts: Vec<usize>,
    sens_items: &[ItemId],
    config: &CahdConfig,
    mut score: impl FnMut(usize, &[usize], &mut Vec<u64>),
    feasibility: FeasibilityCheck,
    rec: &Recorder,
) -> Result<FormedGroups, CahdError> {
    config.validate()?;
    let n = sens.len();
    if n == 0 {
        return Err(CahdError::EmptyDataset);
    }
    let p = config.p;
    if feasibility == FeasibilityCheck::Enforce {
        // Global feasibility: a solution must exist (Section IV).
        for (r, &c) in initial_counts.iter().enumerate() {
            if c * p > n {
                return Err(CahdError::Infeasible {
                    item: sens_items[r],
                    support: c,
                    p,
                    n,
                });
            }
        }
    }
    let mut hist = SensitiveHistogram::new(initial_counts);
    let mut order = OrderList::new(n);
    let mut remaining = n;
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut stats = CahdStats::default();

    // Stamped conflict set over sensitive ranks.
    let m = sens_items.len();
    let mut conflict_stamp = vec![0u32; m];
    let mut cstamp = 0u32;
    let mut cl: Vec<usize> = Vec::new();
    let mut scores: Vec<u64> = Vec::new();
    let mut scored: Vec<(u64, usize, usize)> = Vec::new();
    let limit = config.alpha * p;
    let mut pivots_scanned = 0u64;
    let mut cl_len_hist = cahd_obs::Histogram::new();
    let trace_on = rec.is_enabled();

    for t in 0..n {
        if !order.is_alive(t) || sens.row(t).is_empty() {
            continue;
        }

        // --- Build the candidate list (predecessors, then successors). ---
        cstamp += 1;
        for &r in sens.row(t) {
            conflict_stamp[r as usize] = cstamp;
        }
        cl.clear();
        let walk = |mut cur: Option<usize>,
                    step_prev: bool,
                    cl: &mut Vec<usize>,
                    conflict_stamp: &mut Vec<u32>,
                    order: &OrderList| {
            let mut taken = 0usize;
            while let Some(c) = cur {
                if taken >= limit {
                    break;
                }
                let conflicting = sens
                    .row(c)
                    .iter()
                    .any(|&r| conflict_stamp[r as usize] == cstamp);
                if !conflicting {
                    for &r in sens.row(c) {
                        conflict_stamp[r as usize] = cstamp;
                    }
                    cl.push(c);
                    taken += 1;
                }
                cur = if step_prev {
                    order.prev(c)
                } else {
                    order.next(c)
                };
            }
        };
        walk(order.prev(t), true, &mut cl, &mut conflict_stamp, &order);
        walk(order.next(t), false, &mut cl, &mut conflict_stamp, &order);
        pivots_scanned += 1;
        if trace_on {
            cl_len_hist.observe(cl.len() as u64);
        }

        if cl.len() < p - 1 {
            stats.insufficient_candidates += 1;
            continue;
        }

        // --- Score candidates by QID similarity to t. ---
        stats.candidates_considered += cl.len() as u64;
        score(t, &cl, &mut scores);
        strict_invariant_eq!(
            scores.len(),
            cl.len(),
            "scorer must fill one score per candidate"
        );
        scored.clear();
        scored.extend(cl.iter().zip(&scores).map(|(&c, &s)| (s, c.abs_diff(t), c)));
        let proximity = config.proximity_tie_break;
        scored.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then_with(|| {
                    if proximity {
                        a.1.cmp(&b.1)
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .then_with(|| a.2.cmp(&b.2))
        });

        // --- Tentatively form {t} ∪ best p-1 and validate. ---
        let mut members: Vec<usize> = Vec::with_capacity(p);
        members.push(t);
        members.extend(scored[..p - 1].iter().map(|&(_, _, c)| c));
        members.sort_unstable();
        for &mt in &members {
            for &r in sens.row(mt) {
                hist.remove_occurrence(r as usize);
            }
        }
        let new_remaining = remaining - members.len();
        if hist.feasible(p, new_remaining) {
            remaining = new_remaining;
            for &mt in &members {
                order.remove(mt);
            }
            strict_invariant_eq!(members.len(), p, "regular groups have size exactly p");
            groups.push(members);
            stats.groups_formed += 1;
        } else {
            for &mt in &members {
                for &r in sens.row(mt) {
                    hist.restore_occurrence(r as usize);
                }
            }
            stats.rollbacks += 1;
        }
    }

    // --- The leftovers become one final group. ---
    let leftover: Vec<usize> = order.iter().collect();
    strict_invariant_eq!(
        leftover.len(),
        remaining,
        "order list and histogram bookkeeping must agree"
    );
    stats.fallback_group_size = leftover.len();
    if trace_on {
        rec.add("core.pivots_scanned", pivots_scanned);
        rec.add("core.groups_formed", stats.groups_formed as u64);
        rec.add("core.rollbacks", stats.rollbacks as u64);
        rec.add(
            "core.insufficient_candidates",
            stats.insufficient_candidates as u64,
        );
        rec.add("core.candidates_scanned", stats.candidates_considered);
        rec.record_histogram("core.candidate_list_len", &cl_len_hist);
    }
    Ok(FormedGroups {
        groups,
        leftover,
        stats,
    })
}

/// The published groups, regular ones in formation order and then the
/// leftover (when not empty): each group's members (row indices of
/// `split`) and QID rows copied once, straight from the split, into
/// arrays of exactly the group's size. Each engine member list is freed
/// once its ids are copied, before its group's rows are.
pub(crate) fn publish_groups(
    groups: Vec<Vec<usize>>,
    leftover: Vec<usize>,
    sensitive: &SensitiveSet,
    split: &RowSplit,
) -> Vec<AnonymizedGroup> {
    let mut published = Vec::with_capacity(groups.len() + usize::from(!leftover.is_empty()));
    for members in groups.into_iter().chain(Some(leftover)) {
        if members.is_empty() {
            continue;
        }
        let ids: Vec<u32> = members.iter().map(|&mt| mt as u32).collect();
        drop(members);
        published.push(make_group(ids, sensitive, split));
    }
    published
}

fn make_group(members: Vec<u32>, sensitive: &SensitiveSet, split: &RowSplit) -> AnonymizedGroup {
    let (qid, sens) = (split.qid(), split.sens());
    let nnz = members.iter().map(|&mt| qid.range(mt as usize).len()).sum();
    AnonymizedGroup::assemble(members, sensitive, nnz, |mt, counts| {
        for &r in sens.row(mt) {
            counts[r as usize] += 1;
        }
        qid.row(mt).iter().copied()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example (Fig. 1), in the re-organized order of
    /// Fig. 1b: Bob, David, Ellen, Andrea, Claire. Items: 0 wine, 1 meat,
    /// 2 cream, 3 strawberries, 4 pregnancy test (S), 5 viagra (S).
    fn fig1_data() -> (TransactionSet, SensitiveSet) {
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 5], // Bob
                vec![0, 1],    // David
                vec![0, 1, 2], // Ellen
                vec![1, 3],    // Andrea
                vec![2, 3, 4], // Claire
            ],
            6,
        );
        let sens = SensitiveSet::new(vec![4, 5], 6);
        (data, sens)
    }

    #[test]
    fn fig1_example_produces_papers_groups() {
        let (data, sens) = fig1_data();
        let (pub_, stats) = cahd(&data, &sens, &CahdConfig::new(2)).unwrap();
        // Bob is the first sensitive transaction: group of size 2 with the
        // neighbor sharing most QID items (David, overlap 2).
        assert!(stats.groups_formed >= 1);
        assert!(pub_.satisfies(2));
        assert_eq!(pub_.n_transactions(), 5);
        let g0 = &pub_.groups[0];
        assert_eq!(g0.members, vec![0, 1]); // Bob + David
        assert_eq!(g0.sensitive_counts, vec![(5, 1)]);
    }

    #[test]
    fn privacy_holds_for_p3() {
        let (data, sens) = fig1_data();
        let (pub_, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        assert!(pub_.satisfies(3));
        assert_eq!(pub_.n_transactions(), 5);
    }

    #[test]
    fn every_transaction_published_exactly_once() {
        let (data, sens) = fig1_data();
        let (pub_, _) = cahd(&data, &sens, &CahdConfig::new(2)).unwrap();
        let mut seen = vec![0u32; data.n_transactions()];
        for g in &pub_.groups {
            for &mt in &g.members {
                seen[mt as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn infeasible_when_item_too_frequent() {
        let data = TransactionSet::from_rows(&[vec![0, 2], vec![1, 2], vec![1]], 3);
        let sens = SensitiveSet::new(vec![2], 3);
        // item 2 occurs twice in 3 transactions; p=2 needs 2*2 <= 3: fails.
        let err = cahd(&data, &sens, &CahdConfig::new(2)).unwrap_err();
        assert!(matches!(
            err,
            CahdError::Infeasible {
                item: 2,
                support: 2,
                ..
            }
        ));
    }

    #[test]
    fn conflicting_neighbors_are_skipped() {
        // Both 0 and 1 contain sensitive item 4; a p=2 group for 0 must
        // skip 1 and take 2 instead.
        let data = TransactionSet::from_rows(
            &[vec![0, 4], vec![0, 4], vec![0], vec![1], vec![1], vec![1]],
            5,
        );
        let sens = SensitiveSet::new(vec![4], 5);
        let (pub_, _) = cahd(&data, &sens, &CahdConfig::new(2)).unwrap();
        let g0 = &pub_.groups[0];
        assert_eq!(g0.members, vec![0, 2]);
        assert!(pub_.satisfies(2));
    }

    #[test]
    fn all_nonsensitive_single_group() {
        let data = TransactionSet::from_rows(&[vec![0], vec![1], vec![0, 1]], 3);
        let sens = SensitiveSet::new(vec![2], 3);
        let (pub_, stats) = cahd(&data, &sens, &CahdConfig::new(2)).unwrap();
        assert_eq!(pub_.n_groups(), 1);
        assert_eq!(stats.fallback_group_size, 3);
        assert_eq!(stats.groups_formed, 0);
        assert!(pub_.groups[0].sensitive_counts.is_empty());
    }

    #[test]
    fn parameter_validation() {
        let (data, sens) = fig1_data();
        assert!(matches!(
            cahd(&data, &sens, &CahdConfig::new(1)),
            Err(CahdError::InvalidPrivacyDegree(1))
        ));
        assert!(matches!(
            cahd(&data, &sens, &CahdConfig::new(2).with_alpha(0)),
            Err(CahdError::InvalidAlpha(0))
        ));
        let empty = TransactionSet::from_rows(&[], 6);
        assert!(matches!(
            cahd(&empty, &sens, &CahdConfig::new(2)),
            Err(CahdError::EmptyDataset)
        ));
        let other_universe = SensitiveSet::new(vec![1], 3);
        assert!(matches!(
            cahd(&data, &other_universe, &CahdConfig::new(2)),
            Err(CahdError::UniverseMismatch { .. })
        ));
    }

    #[test]
    fn overlap_selection_prefers_similar_qid() {
        // Pivot (slot 2) has QID {0,1,2}. Candidates: slot 0 shares 3 items,
        // slot 1 shares 0, slots 3,4 share 1. p=3 -> picks slots 0 and one
        // of 3/4 (proximity: 3).
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 2],
                vec![5, 6],
                vec![0, 1, 2, 9],
                vec![0, 7],
                vec![0, 8],
            ],
            10,
        );
        let sens = SensitiveSet::new(vec![9], 10);
        let (pub_, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        let g0 = &pub_.groups[0];
        assert_eq!(g0.members, vec![0, 2, 3]);
    }

    #[test]
    fn multi_sensitive_transaction_counts_each_item_once() {
        let data = TransactionSet::from_rows(
            &[vec![0, 8, 9], vec![0], vec![1], vec![1], vec![2], vec![3]],
            10,
        );
        let sens = SensitiveSet::new(vec![8, 9], 10);
        let (pub_, _) = cahd(&data, &sens, &CahdConfig::new(2)).unwrap();
        let g0 = &pub_.groups[0];
        assert_eq!(g0.sensitive_counts, vec![(8, 1), (9, 1)]);
        assert!(pub_.satisfies(2));
    }

    #[test]
    fn stats_are_populated() {
        let (data, sens) = fig1_data();
        let (_, stats) = cahd(&data, &sens, &CahdConfig::new(2)).unwrap();
        assert!(stats.groups_formed > 0);
        assert!(stats.candidates_considered > 0);
        let text = stats.to_string();
        assert!(text.contains("groups formed"), "{text}");
    }
}
