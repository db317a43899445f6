//! Additional diversity measures over anonymized groups.
//!
//! The paper's privacy degree `p` is *frequency* ℓ-diversity: no sensitive
//! item may account for more than `1/p` of a group. The ℓ-diversity paper
//! (Machanavajjhala et al., cited as \[1\]) also defines *entropy*
//! ℓ-diversity: the entropy of the sensitive-value distribution within
//! every group must be at least `log(l)`. [`group_entropy`] and
//! [`effective_l`] measure it per group, and [`privacy_report`] reports
//! the smallest effective ℓ of a release.
//!
//! For transaction groups the "values" are sensitive items, plus an
//! implicit *none* value for members holding no sensitive item — without
//! it, a group whose every member holds the same single sensitive item
//! (impossible under CAHD, but expressible in the release format) would
//! look maximally diverse.

use crate::group::{AnonymizedGroup, PublishedDataset};

/// The sensitive-value distribution of a group: per-item association
/// probabilities `f_s / |G|` plus the probability of holding no sensitive
/// item.
///
/// Multi-item transactions contribute to each of their items, so the item
/// probabilities can sum to more than `1 - p_none`; each coordinate is
/// still the correct marginal association probability, which is what every
/// diversity measure below consumes.
fn association_probabilities(group: &AnonymizedGroup) -> (Vec<f64>, f64) {
    let g = group.size() as f64;
    let probs: Vec<f64> = group
        .sensitive_counts
        .iter()
        .map(|&(_, f)| f as f64 / g)
        .collect();
    let occupied: u32 = group.sensitive_counts.iter().map(|&(_, f)| f).sum();
    // Lower bound on members with no sensitive item (exact when
    // transactions hold at most one sensitive item, as CAHD groups do).
    let none = ((group.size() as i64 - occupied as i64).max(0)) as f64 / g;
    (probs, none)
}

/// The entropy (nats) of a group's sensitive-value distribution, treating
/// "no sensitive item" as a value. Groups without sensitive items have
/// zero entropy by convention (a single value).
pub fn group_entropy(group: &AnonymizedGroup) -> f64 {
    if group.sensitive_counts.is_empty() || group.size() == 0 {
        return 0.0;
    }
    let (probs, none) = association_probabilities(group);
    // Normalize into a distribution (multi-item transactions can make the
    // raw mass exceed 1).
    let total: f64 = probs.iter().sum::<f64>() + none;
    let mut h = 0.0;
    for q in probs.iter().copied().chain(std::iter::once(none)) {
        let q = q / total;
        if q > 0.0 {
            h -= q * q.ln();
        }
    }
    h
}

/// The effective ℓ of a group under entropy ℓ-diversity: `exp(entropy)`.
pub fn effective_l(group: &AnonymizedGroup) -> f64 {
    group_entropy(group).exp()
}

/// An audit summary of a whole release.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyReport {
    /// Number of groups.
    pub groups: usize,
    /// Number of groups containing at least one sensitive item.
    pub sensitive_groups: usize,
    /// Minimum privacy degree over sensitive groups (`None` if none).
    pub min_privacy_degree: Option<usize>,
    /// Worst (largest) association probability of any member with any
    /// sensitive item.
    pub max_association_probability: f64,
    /// Minimum effective entropy-ℓ over sensitive groups.
    pub min_effective_l: f64,
    /// Smallest and largest group sizes.
    pub min_group_size: usize,
    /// Largest group size.
    pub max_group_size: usize,
}

/// Audits a release, summarizing degree, association probabilities and
/// entropy diversity in one pass.
pub fn privacy_report(published: &PublishedDataset) -> PrivacyReport {
    let mut report = PrivacyReport {
        groups: published.groups.len(),
        sensitive_groups: 0,
        min_privacy_degree: None,
        max_association_probability: 0.0,
        min_effective_l: f64::INFINITY,
        min_group_size: usize::MAX,
        max_group_size: 0,
    };
    for g in &published.groups {
        report.min_group_size = report.min_group_size.min(g.size());
        report.max_group_size = report.max_group_size.max(g.size());
        if g.sensitive_counts.is_empty() {
            continue;
        }
        report.sensitive_groups += 1;
        if let Some(d) = g.privacy_degree() {
            report.min_privacy_degree = Some(match report.min_privacy_degree {
                Some(cur) => cur.min(d),
                None => d,
            });
        }
        let assoc = g.max_sensitive_count() as f64 / g.size() as f64;
        report.max_association_probability = report.max_association_probability.max(assoc);
        report.min_effective_l = report.min_effective_l.min(effective_l(g));
    }
    if report.groups == 0 {
        report.min_group_size = 0;
    }
    if report.sensitive_groups == 0 {
        report.min_effective_l = f64::INFINITY;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_data::ItemId;

    fn group(size: usize, counts: &[(ItemId, u32)]) -> AnonymizedGroup {
        AnonymizedGroup {
            members: (0..size as u32).collect(),
            qid_rows: crate::FlatRows::from_rows(&vec![vec![]; size]),
            sensitive_counts: counts.to_vec(),
        }
    }

    #[test]
    fn entropy_of_uniform_two_values() {
        // 2 members: one with item 1, one without -> uniform over 2 values.
        let g = group(2, &[(1, 1)]);
        assert!((group_entropy(&g) - 2f64.ln()).abs() < 1e-12);
        assert!((effective_l(&g) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn entropy_zero_for_nonsensitive_group() {
        let g = group(3, &[]);
        assert_eq!(group_entropy(&g), 0.0);
        assert_eq!(effective_l(&g), 1.0);
    }

    #[test]
    fn skewed_group_has_low_entropy() {
        let uniform = group(10, &[(1, 5)]);
        let skewed = group(10, &[(1, 9)]);
        assert!(group_entropy(&skewed) < group_entropy(&uniform));
    }

    #[test]
    fn report_aggregates() {
        let published = PublishedDataset {
            n_items: 10,
            sensitive_items: vec![1, 2],
            groups: vec![
                group(4, &[(1, 1)]),
                group(6, &[(1, 2), (2, 1)]),
                group(3, &[]),
            ],
        };
        let r = privacy_report(&published);
        assert_eq!(r.groups, 3);
        assert_eq!(r.sensitive_groups, 2);
        assert_eq!(r.min_privacy_degree, Some(3)); // 6/2
        assert!((r.max_association_probability - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(r.min_group_size, 3);
        assert_eq!(r.max_group_size, 6);
        assert!(r.min_effective_l > 1.0);
    }

    #[test]
    fn empty_release_report() {
        let published = PublishedDataset {
            n_items: 0,
            sensitive_items: vec![],
            groups: vec![],
        };
        let r = privacy_report(&published);
        assert_eq!(r.groups, 0);
        assert_eq!(r.min_group_size, 0);
        assert_eq!(r.min_privacy_degree, None);
    }
}
