//! PermMondrian (PM): the paper's competitor method.
//!
//! PM partitions the dataset top-down, Mondrian-style, but over *binary
//! item space*: a split on item `q` separates the transactions containing
//! `q` from those that do not. Unlike the original Mondrian it publishes
//! exact QID values (Anatomy-style), so information loss comes only from
//! how well groups keep correlated transactions together.
//!
//! A split is admissible when both sides have at least `p` transactions
//! and remain *eligible* — no sensitive item occurs more than `|side| / p`
//! times (the Anatomy residual condition; this is what "the privacy
//! requirement does not allow any more splits" means for permutation
//! publishing). Following the paper's enhanced heuristic, among admissible
//! splits PM favors those that both balance the cardinality and keep the
//! sensitive-item distribution even across the sides, which preserves
//! splittability deeper into the recursion.

use std::time::{Duration, Instant};

use cahd_core::{AnonymizedGroup, CahdError, PublishedDataset};
use cahd_data::{SensitiveSet, TransactionSet};

/// Configuration of PermMondrian.
#[derive(Clone, Copy, Debug)]
pub struct PmConfig {
    /// Privacy degree `p` (>= 2).
    pub p: usize,
    /// How many of the most cardinality-balanced candidate items to
    /// evaluate exactly per node. Bounds the per-node cost at
    /// `max_candidates * nnz(node)`.
    pub max_candidates: usize,
    /// Enable the enhanced split heuristic (sensitive-item balance bonus).
    /// Disabling reverts to pure cardinality balance — the original
    /// Mondrian criterion — as an ablation.
    pub enhanced_split: bool,
}

impl PmConfig {
    /// Defaults matching the paper's description: enhanced split on,
    /// 16 exact candidate evaluations per node.
    pub fn new(p: usize) -> Self {
        PmConfig {
            p,
            max_candidates: 16,
            enhanced_split: true,
        }
    }
}

/// Counters describing a PM run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmStats {
    /// Number of leaf groups produced.
    pub groups: usize,
    /// Candidate splits evaluated exactly.
    pub splits_evaluated: usize,
    /// Splits actually performed.
    pub splits_performed: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// Runs PermMondrian on `data` and returns the release plus statistics.
pub fn perm_mondrian(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    config: &PmConfig,
) -> Result<(PublishedDataset, PmStats), CahdError> {
    let p = config.p;
    if p < 2 {
        return Err(CahdError::InvalidPrivacyDegree(p));
    }
    let n = data.n_transactions();
    if n == 0 {
        return Err(CahdError::EmptyDataset);
    }
    if sensitive.n_items() != data.n_items() {
        return Err(CahdError::UniverseMismatch {
            data_items: data.n_items(),
            sensitive_items: sensitive.n_items(),
        });
    }
    // The root itself must be publishable.
    let counts = sensitive.occurrence_counts(data);
    for (r, &c) in counts.iter().enumerate() {
        if c * p > n {
            return Err(CahdError::Infeasible {
                item: sensitive.items()[r],
                support: c,
                p,
                n,
            });
        }
    }
    // cahd-lint: allow(L002, reason = "elapsed-time stat only; release bytes never depend on it")
    let t0 = Instant::now();
    let mut stats = PmStats::default();
    let mut groups: Vec<AnonymizedGroup> = Vec::new();

    // Reusable per-item counters with a touched list, sized to the universe.
    let d = data.n_items();
    let mut item_count = vec![0u32; d];
    let mut touched: Vec<u32> = Vec::new();

    let mut stack: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
    while let Some(node) = stack.pop() {
        match try_split(
            data,
            sensitive,
            config,
            &node,
            &mut item_count,
            &mut touched,
            &mut stats,
        ) {
            Some((left, right)) => {
                stats.splits_performed += 1;
                stack.push(left);
                stack.push(right);
            }
            None => {
                groups.push(AnonymizedGroup::from_members(data, sensitive, &node));
            }
        }
    }
    stats.groups = groups.len();
    stats.elapsed = t0.elapsed();
    let published = PublishedDataset {
        n_items: d,
        sensitive_items: sensitive.items().to_vec(),
        groups,
    };
    debug_assert!(published.satisfies(p));
    Ok((published, stats))
}

/// Attempts the best admissible split of `node`; `None` makes it a leaf.
#[allow(clippy::too_many_arguments)]
fn try_split(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    config: &PmConfig,
    node: &[u32],
    item_count: &mut [u32],
    touched: &mut Vec<u32>,
    stats: &mut PmStats,
) -> Option<(Vec<u32>, Vec<u32>)> {
    let p = config.p;
    let size = node.len();
    if size < 2 * p {
        return None;
    }

    // Per-item support within the node (QID items only: PM partitions on
    // the quasi-identifier, never on sensitive items).
    for &r in node {
        for &it in data.transaction(r as usize) {
            if !sensitive.contains(it) {
                if item_count[it as usize] == 0 {
                    touched.push(it);
                }
                item_count[it as usize] += 1;
            }
        }
    }
    // Candidate items able to produce two sides of >= p transactions,
    // ranked by cardinality balance.
    let half = size as f64 / 2.0;
    let mut candidates: Vec<(u32, u32)> = Vec::new(); // (balance key, item)
    for &it in touched.iter() {
        let c = item_count[it as usize] as usize;
        if c >= p && size - c >= p {
            let key = ((c as f64 - half).abs() * 2.0) as u32;
            candidates.push((key, it));
        }
    }
    candidates.sort_unstable();
    candidates.truncate(config.max_candidates);
    // Reset the counters before any early return.
    for &it in touched.iter() {
        item_count[it as usize] = 0;
    }
    touched.clear();
    if candidates.is_empty() {
        return None;
    }

    // Exact evaluation of the shortlisted candidates.
    let m = sensitive.len();
    let mut best: Option<(f64, Vec<u32>, Vec<u32>)> = None;
    let mut sens_node = vec![0u32; m];
    for &r in node {
        for rk in sensitive.ranks(data.transaction(r as usize)) {
            sens_node[rk] += 1;
        }
    }
    for &(_, q) in &candidates {
        stats.splits_evaluated += 1;
        let mut left: Vec<u32> = Vec::new();
        let mut right: Vec<u32> = Vec::new();
        let mut sens_left = vec![0u32; m];
        for &r in node {
            if data.contains(r as usize, q) {
                left.push(r);
                for rk in sensitive.ranks(data.transaction(r as usize)) {
                    sens_left[rk] += 1;
                }
            } else {
                right.push(r);
            }
        }
        // Eligibility of both sides.
        let ok = (0..m).all(|rk| {
            let l = sens_left[rk] as usize;
            let rg = (sens_node[rk] - sens_left[rk]) as usize;
            l * p <= left.len() && rg * p <= right.len()
        });
        if !ok {
            continue;
        }
        let card_score = left.len().min(right.len()) as f64 / size as f64;
        let score = if config.enhanced_split {
            // Mean deviation of each sensitive item's left-share from the
            // cardinality left-share: 0 = perfectly proportional.
            let lshare = left.len() as f64 / size as f64;
            let mut dev = 0.0;
            let mut tracked = 0usize;
            for rk in 0..m {
                if sens_node[rk] > 0 {
                    dev += (sens_left[rk] as f64 / sens_node[rk] as f64 - lshare).abs();
                    tracked += 1;
                }
            }
            let sens_score = if tracked == 0 {
                1.0
            } else {
                1.0 - dev / tracked as f64
            };
            card_score + 0.5 * sens_score
        } else {
            card_score
        };
        if best.as_ref().is_none_or(|(b, _, _)| score > *b) {
            best = Some((score, left, right));
        }
    }
    best.map(|(_, l, r)| (l, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::verify_published;

    fn block_data() -> (TransactionSet, SensitiveSet) {
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 8],
                vec![4, 5],
                vec![0, 1],
                vec![4, 5, 9],
                vec![0, 2],
                vec![4, 6],
                vec![1, 2],
                vec![5, 6],
            ],
            10,
        );
        let sens = SensitiveSet::new(vec![8, 9], 10);
        (data, sens)
    }

    #[test]
    fn pm_release_verifies() {
        let (data, sens) = block_data();
        let (pub_, stats) = perm_mondrian(&data, &sens, &PmConfig::new(2)).unwrap();
        verify_published(&data, &sens, &pub_, 2).unwrap();
        assert!(stats.groups >= 2);
        assert_eq!(stats.groups, pub_.n_groups());
    }

    #[test]
    fn pm_splits_the_two_blocks_apart() {
        let (data, sens) = block_data();
        let (pub_, stats) = perm_mondrian(&data, &sens, &PmConfig::new(2)).unwrap();
        assert!(stats.splits_performed >= 1);
        // Transactions 0 and 1 live in different item blocks; PM's first
        // balanced split must separate them.
        let gi0 = pub_
            .groups
            .iter()
            .position(|g| g.members.contains(&0))
            .unwrap();
        let gi1 = pub_
            .groups
            .iter()
            .position(|g| g.members.contains(&1))
            .unwrap();
        assert_ne!(gi0, gi1);
    }

    #[test]
    fn no_split_possible_single_group() {
        // 3 transactions with p=2: size < 2p, leaf immediately.
        let data = TransactionSet::from_rows(&[vec![0], vec![1], vec![0, 2]], 3);
        let sens = SensitiveSet::new(vec![2], 3);
        let (pub_, stats) = perm_mondrian(&data, &sens, &PmConfig::new(2)).unwrap();
        assert_eq!(pub_.n_groups(), 1);
        assert_eq!(stats.splits_performed, 0);
        verify_published(&data, &sens, &pub_, 2).unwrap();
    }

    #[test]
    fn infeasible_root_rejected() {
        let data = TransactionSet::from_rows(&[vec![0, 2], vec![1, 2], vec![1]], 3);
        let sens = SensitiveSet::new(vec![2], 3);
        assert!(matches!(
            perm_mondrian(&data, &sens, &PmConfig::new(2)),
            Err(CahdError::Infeasible { .. })
        ));
    }

    #[test]
    fn split_never_isolates_sensitive_overload() {
        // 8 transactions, item 9 sensitive appearing 4 times on the side
        // containing item 0. Splitting on item 0 would give a left side of
        // 4 with 4 sensitive occurrences (ineligible for p=2), so PM must
        // either pick another split or stay a leaf — never violate privacy.
        let data = TransactionSet::from_rows(
            &[
                vec![0, 9],
                vec![0, 9],
                vec![0, 9],
                vec![0, 9],
                vec![1],
                vec![1],
                vec![1],
                vec![1],
            ],
            10,
        );
        let sens = SensitiveSet::new(vec![9], 10);
        let (pub_, _) = perm_mondrian(&data, &sens, &PmConfig::new(2)).unwrap();
        verify_published(&data, &sens, &pub_, 2).unwrap();
    }

    #[test]
    fn plain_split_heuristic_also_valid() {
        let (data, sens) = block_data();
        let cfg = PmConfig {
            enhanced_split: false,
            ..PmConfig::new(2)
        };
        let (pub_, _) = perm_mondrian(&data, &sens, &cfg).unwrap();
        verify_published(&data, &sens, &pub_, 2).unwrap();
    }

    #[test]
    fn parameter_validation() {
        let (data, sens) = block_data();
        assert!(matches!(
            perm_mondrian(&data, &sens, &PmConfig::new(1)),
            Err(CahdError::InvalidPrivacyDegree(1))
        ));
        let empty = TransactionSet::from_rows(&[], 10);
        assert!(matches!(
            perm_mondrian(&empty, &sens, &PmConfig::new(2)),
            Err(CahdError::EmptyDataset)
        ));
    }
}
