//! The intersection (composition) attacker.
//!
//! When the same population — or overlapping populations after row churn —
//! appears in several releases (CAHD next to PermMondrian next to Anatomy,
//! or a re-release after rows were added or dropped), an attacker
//! correlates them: QID rows are published verbatim by every method the
//! workspace implements, so the candidate set for a victim in each release
//! is keyed by QID *content* and the attacker can
//!
//! 1. intersect the candidate content sets, narrowing the victim to rows
//!    present in every release, and
//! 2. multiply the per-release sensitive posteriors and renormalize
//!    (independent-release composition).
//!
//! The composed posterior is **reported, never gated against `1/p`**:
//! each single release may honor Definition 3 while their composition
//! exceeds the bound (groups whose possible-sensitive-value sets barely
//! overlap leak under intersection — the classic composition attack on
//! partition-based schemes). The report is the measurement the four-way
//! method comparison reads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use cahd_data::ItemId;

use super::index::TargetIndex;
use super::CurvePoint;

/// Outcome of composing one set of releases at one knowledge size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IntersectionReport {
    /// Names of the composed releases, in order.
    pub targets: Vec<String>,
    /// Background-knowledge size.
    pub k: usize,
    /// Trials attempted.
    pub trials: usize,
    /// Trials where every release produced at least one candidate.
    pub composed_trials: usize,
    /// Composed trials where intersecting candidate contents across
    /// releases strictly narrowed the smallest per-release candidate set.
    pub narrowed_trials: usize,
    /// Composed trials narrowed to exactly one distinct QID content.
    pub unique_matches: usize,
    /// Composed trials whose top posterior item is the victim's actual
    /// sensitive item.
    pub successes: usize,
    /// Mean over composed trials of the top composed posterior.
    pub mean_composed_posterior: f64,
    /// Largest composed posterior observed for any item in any trial.
    pub max_composed_posterior: f64,
}

impl IntersectionReport {
    /// An empty report (no eligible victims or no trials).
    fn empty(targets: Vec<String>, k: usize) -> Self {
        IntersectionReport {
            targets,
            k,
            trials: 0,
            composed_trials: 0,
            narrowed_trials: 0,
            unique_matches: 0,
            successes: 0,
            mean_composed_posterior: 0.0,
            max_composed_posterior: 0.0,
        }
    }

    /// This report as a success-curve point.
    pub fn to_point(&self, k: usize) -> CurvePoint {
        CurvePoint {
            k,
            trials: self.trials,
            matches: self.composed_trials,
            successes: self.successes,
            unique_matches: self.unique_matches,
            mean_posterior: self.mean_composed_posterior,
            max_posterior: self.max_composed_posterior,
        }
    }
}

/// Per-release candidate evidence for one trial: the distinct matching
/// QID contents, as the release's class ids (ascending, so in the
/// lexicographic order of the contents), and the averaged
/// per-sensitive-item posterior vector.
struct Evidence {
    contents: Vec<u32>,
    posterior: Vec<f64>,
}

impl Evidence {
    /// Whether `items` (ascending original ids) is one of the contents of
    /// `release`, this evidence's release: a binary search over the
    /// contents, comparing item sets.
    fn contains(
        &self,
        release: &TargetIndex<'_>,
        items: &(impl Iterator<Item = ItemId> + Clone),
    ) -> bool {
        self.contents
            .binary_search_by(|&c| release.class_items(c).cmp(items.clone()))
            .is_ok()
    }
}

fn evidence(
    release: &TargetIndex<'_>,
    known: &[ItemId],
    n_sensitive: usize,
    candidates: &mut Vec<u32>,
) -> Option<Evidence> {
    release.candidates(known, candidates);
    if candidates.is_empty() {
        return None;
    }
    let classes = release.classes();
    let mut contents: Vec<u32> = candidates
        .iter()
        .map(|&r| classes.class_of[r as usize])
        .collect();
    contents.sort_unstable();
    contents.dedup();
    let mut posterior = vec![0.0f64; n_sensitive];
    release.add_group_posteriors(candidates, &mut posterior);
    for p in &mut posterior {
        *p /= candidates.len() as f64;
    }
    Some(Evidence {
        contents,
        posterior,
    })
}

/// Runs the composition attack over the indexed `releases` at knowledge
/// size `k`.
pub fn intersection_report(
    releases: &[&TargetIndex<'_>],
    names: &[String],
    k: usize,
    trials: usize,
    seed: u64,
) -> IntersectionReport {
    let targets: Vec<String> = names.to_vec();
    let Some(first) = releases.first() else {
        return IntersectionReport::empty(targets, k);
    };
    if k == 0 || trials == 0 {
        return IntersectionReport::empty(targets, k);
    }
    let population = first.population();
    let victims = population.victims(k);
    if victims.is_empty() {
        return IntersectionReport::empty(targets, k);
    }
    let n_sensitive = population.sensitive().len();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut known: Vec<ItemId> = Vec::with_capacity(k);
    let mut candidates: Vec<u32> = Vec::new();
    let mut composed_trials = 0usize;
    let mut narrowed_trials = 0usize;
    let mut unique = 0usize;
    let mut successes = 0usize;
    let mut sum_top = 0.0f64;
    let mut max_composed = 0.0f64;
    for _ in 0..trials {
        let v = victims[rng.gen_range(0..victims.len())] as usize;
        population.sample_known(v, k, &mut rng, &mut known);
        let v_sens = population.sensitive_ranks(v);

        let mut per_release = Vec::with_capacity(releases.len());
        for release in releases {
            match evidence(release, &known, n_sensitive, &mut candidates) {
                Some(e) => per_release.push(e),
                None => {
                    per_release.clear();
                    break;
                }
            }
        }
        if per_release.is_empty() {
            // Row churn: the victim is absent from some release, so no
            // composed claim is possible this trial.
            continue;
        }
        composed_trials += 1;

        // Candidate narrowing by QID-content intersection.
        let min_contents = per_release
            .iter()
            .map(|e| e.contents.len())
            .min()
            .unwrap_or(0);
        let intersected = per_release[0]
            .contents
            .iter()
            .filter(|&&c| {
                let items = releases[0].class_items(c);
                per_release[1..]
                    .iter()
                    .zip(&releases[1..])
                    .all(|(e, release)| e.contains(release, &items))
            })
            .count();
        if intersected < min_contents {
            narrowed_trials += 1;
        }
        if intersected == 1 {
            unique += 1;
        }

        // Independent-release composition: product of per-release
        // posteriors, renormalized over the sensitive items.
        let mut composed = vec![1.0f64; n_sensitive];
        for e in &per_release {
            for (c, &q) in composed.iter_mut().zip(e.posterior.iter()) {
                *c *= q;
            }
        }
        let total: f64 = composed.iter().sum();
        if total > 0.0 {
            for c in &mut composed {
                *c /= total;
            }
            let mut top = 0.0f64;
            let mut top_rank = 0usize;
            for (rank, &c) in composed.iter().enumerate() {
                if c > top {
                    top = c;
                    top_rank = rank;
                }
                max_composed = max_composed.max(c);
            }
            sum_top += top;
            if top > 0.0 && v_sens.contains(&(top_rank as u32)) {
                successes += 1;
            }
        }
    }
    IntersectionReport {
        targets,
        k,
        trials,
        composed_trials,
        narrowed_trials,
        unique_matches: unique,
        successes,
        mean_composed_posterior: if composed_trials == 0 {
            0.0
        } else {
            sum_top / composed_trials as f64
        },
        max_composed_posterior: max_composed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::index::Population;
    use cahd_baselines::{perm_mondrian, random_grouping, PmConfig};
    use cahd_core::{cahd, CahdConfig, PublishedDataset};
    use cahd_data::{SensitiveSet, TransactionSet};

    /// Composes `releases` of `data`, each indexed once.
    fn report(
        data: &TransactionSet,
        sens: &SensitiveSet,
        releases: &[&PublishedDataset],
        names: &[String],
        k: usize,
        trials: usize,
        seed: u64,
    ) -> IntersectionReport {
        let population = Population::new(data, sens);
        let indexes: Vec<TargetIndex<'_>> = releases
            .iter()
            .map(|&r| TargetIndex::new(&population, Some(r)))
            .collect();
        let refs: Vec<&TargetIndex<'_>> = indexes.iter().collect();
        intersection_report(&refs, names, k, trials, seed)
    }

    fn setup() -> (TransactionSet, SensitiveSet) {
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for i in 0..8u32 {
            rows.push(vec![i, 8 + i, 20]);
        }
        for i in 0..16u32 {
            rows.push(vec![i % 8, 16 + (i % 4)]);
        }
        (
            TransactionSet::from_rows(&rows, 21),
            SensitiveSet::new(vec![20], 21),
        )
    }

    #[test]
    fn composing_three_methods_runs_and_composes_every_trial() {
        let (data, sens) = setup();
        let p = 3;
        let (a, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let (b, _) = perm_mondrian(&data, &sens, &PmConfig::new(p)).unwrap();
        let c = random_grouping(&data, &sens, p, 9).unwrap();
        let names = vec!["cahd".to_string(), "pm".to_string(), "anatomy".to_string()];
        let report = report(&data, &sens, &[&a, &b, &c], &names, 2, 200, 3);
        // Same population in every release: the victim's own row matches
        // everywhere, so every trial composes.
        assert_eq!(report.composed_trials, report.trials);
        assert!(report.max_composed_posterior <= 1.0 + 1e-9);
        assert!(report.mean_composed_posterior >= 0.0);
    }

    #[test]
    fn row_churn_skips_absent_victims() {
        // Second release drops the first half of the population.
        let (data, sens) = setup();
        let p = 3;
        let (full, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let churned_rows: Vec<Vec<u32>> = (4..data.n_transactions())
            .map(|t| data.transaction(t).to_vec())
            .collect();
        let churned_data = TransactionSet::from_rows(&churned_rows, 21);
        let (churned, _) = cahd(&churned_data, &sens, &CahdConfig::new(p)).unwrap();
        let names = vec!["full".to_string(), "rerelease".to_string()];
        let report = report(&data, &sens, &[&full, &churned], &names, 2, 300, 5);
        // Victims 0..4 have unique QID pairs absent from the re-release,
        // so some trials must fail to compose.
        assert!(report.composed_trials < report.trials, "{report:?}");
        assert!(report.composed_trials > 0, "{report:?}");
    }

    #[test]
    fn release_rows_compose_as_sets() {
        // The same release with every QID row reversed and its first item
        // repeated: read as sets, its rows are the original rows, so it
        // composes with the original exactly as the original does.
        let (data, sens) = setup();
        let (a, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        let mut b = a.clone();
        for g in &mut b.groups {
            g.qid_rows.edit_rows(|rows| {
                for row in rows {
                    row.reverse();
                    if let Some(&last) = row.last() {
                        row.push(last);
                    }
                }
            });
        }
        let names = vec!["a".to_string(), "b".to_string()];
        for k in [1, 2] {
            let want = report(&data, &sens, &[&a, &a], &names, k, 200, 11);
            assert!(
                want.composed_trials > 0 && want.unique_matches > 0,
                "{want:?}"
            );
            assert_eq!(report(&data, &sens, &[&a, &b], &names, k, 200, 11), want);
            assert_eq!(report(&data, &sens, &[&b, &a], &names, k, 200, 11), want);
        }
    }

    #[test]
    fn self_composition_is_deterministic() {
        let (data, sens) = setup();
        let (a, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        let names = vec!["cahd".to_string()];
        let r1 = report(&data, &sens, &[&a], &names, 1, 100, 17);
        let r2 = report(&data, &sens, &[&a], &names, 1, 100, 17);
        assert_eq!(r1, r2);
    }
}
