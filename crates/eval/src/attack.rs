//! Linkage-attack simulation.
//!
//! The paper's threat model (Section I): Eve knows a few innocuous items of
//! a victim's transaction and tries to associate the victim with a
//! sensitive item. Definition 3 promises that after anonymization the
//! association probability never exceeds `1/p`. This module *runs the
//! attack* — against the raw data and against a release — so the guarantee
//! can be observed instead of assumed:
//!
//! * **raw data:** the attacker matches her background knowledge against
//!   all transactions; her posterior for sensitive item `s` is the fraction
//!   of matching transactions containing `s` (1.0 in the Claire example);
//! * **release:** QID rows are published verbatim, so matching works the
//!   same — but sensitive items exist only as group-level frequencies, so
//!   the posterior for `s` of a candidate row in group `G` is `f_s / |G|`,
//!   and averaging over candidates can never exceed `max_G f_s / |G| <= 1/p`.

use rand::Rng;

use cahd_core::PublishedDataset;
use cahd_data::{SensitiveSet, TransactionSet};

use crate::adversary::index::{Population, TargetIndex};

/// Aggregate outcome of a simulated linkage attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttackOutcome {
    /// Completed attack trials.
    pub trials: usize,
    /// Mean posterior probability the attacker assigns to the victim's
    /// *actual* sensitive item.
    pub mean_true_posterior: f64,
    /// Largest posterior observed for any (victim, sensitive item) pair.
    pub max_posterior: f64,
    /// Fraction of trials where the victim's transaction was the unique
    /// match (full re-identification of the row — harmless in the release,
    /// fatal in the raw data).
    pub unique_match_rate: f64,
}

impl std::fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trials: mean true posterior {:.4}, max posterior {:.4}, unique match {:.1}%",
            self.trials,
            self.mean_true_posterior,
            self.max_posterior,
            self.unique_match_rate * 100.0
        )
    }
}

/// Simulates the attack against the **raw data**. Victims are sampled
/// among sensitive transactions with at least `k` QID items; the attacker
/// knows `k` random QID items. Returns `None` when no transaction
/// qualifies (in particular when `k` exceeds every transaction's eligible
/// QID count, or `k == 0` — knowing nothing attacks nothing).
pub fn attack_raw<R: Rng + ?Sized>(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> Option<AttackOutcome> {
    let population = Population::new(data, sensitive);
    linkage(&TargetIndex::new(&population, None), k, trials, rng)
}

/// Simulates the attack against a **release**. The attacker matches her
/// known QID items against the published QID rows and combines the groups'
/// sensitive frequencies into a posterior. By construction the posterior
/// is bounded by `1/p` for a valid release.
pub fn attack_published<R: Rng + ?Sized>(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    published: &PublishedDataset,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> Option<AttackOutcome> {
    let population = Population::new(data, sensitive);
    linkage(
        &TargetIndex::new(&population, Some(published)),
        k,
        trials,
        rng,
    )
}

/// The linkage attack on an indexed target. The raw data is indexed as
/// one-row groups publishing their sensitive items exactly, so a
/// candidate's posterior `f / |G|` is 1 or 0 there and the per-item
/// posterior is the fraction of matching transactions holding the item.
pub(crate) fn linkage<R: Rng + ?Sized>(
    index: &TargetIndex<'_>,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> Option<AttackOutcome> {
    if k == 0 {
        return None;
    }
    let population = index.population();
    let victims = population.victims(k);
    if victims.is_empty() || trials == 0 {
        return None;
    }
    let n_sensitive = population.sensitive().len();
    let mut known = Vec::with_capacity(k);
    let mut candidates = Vec::new();
    let mut per_item = vec![0.0f64; n_sensitive];
    let mut sum_true = 0f64;
    let mut max_post = 0f64;
    let mut unique = 0usize;
    for _ in 0..trials {
        let v = victims[rng.gen_range(0..victims.len())] as usize;
        population.sample_known(v, k, rng, &mut known);
        index.candidates(&known, &mut candidates);
        if candidates.is_empty() {
            // On a *verified* release the victim's own row always matches;
            // on a tampered one (QID rows rewritten) it may not. The
            // attack-regression pass runs before conformance is known, so
            // a candidate-free trial counts as a failed attack instead of
            // being treated as unreachable.
            continue;
        }
        if candidates.len() == 1 {
            unique += 1;
        }
        per_item.fill(0.0);
        index.add_group_posteriors(&candidates, &mut per_item);
        for p in &mut per_item {
            *p /= candidates.len() as f64;
        }
        let v_sens = population.sensitive_ranks(v);
        for &rank in v_sens {
            sum_true += per_item[rank as usize] / v_sens.len() as f64;
        }
        for &p in &per_item {
            max_post = max_post.max(p);
        }
    }
    Some(AttackOutcome {
        trials,
        mean_true_posterior: sum_true / trials as f64,
        max_posterior: max_post,
        unique_match_rate: unique as f64 / trials as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::{cahd, verify_published, CahdConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A dataset where the attack on raw data is devastating: each
    /// sensitive transaction has a unique QID pair.
    fn setup() -> (TransactionSet, SensitiveSet) {
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for i in 0..8u32 {
            rows.push(vec![i, 8 + i, 20]); // sensitive, unique pair (i, 8+i)
        }
        for i in 0..16u32 {
            rows.push(vec![i % 8, 16 + (i % 4)]); // chaff
        }
        (
            TransactionSet::from_rows(&rows, 21),
            SensitiveSet::new(vec![20], 21),
        )
    }

    #[test]
    fn raw_attack_succeeds_on_unique_victims() {
        let (data, sens) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let out = attack_raw(&data, &sens, 2, 500, &mut rng).unwrap();
        // Known pair (i, 8+i) is unique -> full identification, posterior 1.
        assert!(out.unique_match_rate > 0.5, "{out:?}");
        assert!(out.mean_true_posterior > 0.5, "{out:?}");
        assert_eq!(out.max_posterior, 1.0);
    }

    #[test]
    fn published_attack_bounded_by_one_over_p() {
        let (data, sens) = setup();
        let p = 3;
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        verify_published(&data, &sens, &published, p).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let out = attack_published(&data, &sens, &published, 2, 500, &mut rng).unwrap();
        assert!(
            out.max_posterior <= 1.0 / p as f64 + 1e-9,
            "posterior {} exceeds 1/{p}",
            out.max_posterior
        );
        assert!(out.mean_true_posterior <= 1.0 / p as f64 + 1e-9);
    }

    #[test]
    fn anonymization_reduces_attack_success() {
        let (data, sens) = setup();
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        let mut rng1 = StdRng::seed_from_u64(3);
        let raw = attack_raw(&data, &sens, 2, 500, &mut rng1).unwrap();
        let mut rng2 = StdRng::seed_from_u64(3);
        let pub_ = attack_published(&data, &sens, &published, 2, 500, &mut rng2).unwrap();
        assert!(
            pub_.mean_true_posterior < raw.mean_true_posterior,
            "published {} !< raw {}",
            pub_.mean_true_posterior,
            raw.mean_true_posterior
        );
    }

    #[test]
    fn no_eligible_victims() {
        let data = TransactionSet::from_rows(&[vec![0], vec![1]], 3);
        let sens = SensitiveSet::new(vec![2], 3);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(attack_raw(&data, &sens, 1, 10, &mut rng).is_none());
    }

    #[test]
    fn all_sensitive_fixture_returns_none_instead_of_panicking() {
        // Every item is sensitive: no transaction has any eligible QID
        // item, so there is nothing for the attacker to know.
        let data = TransactionSet::from_rows(&[vec![0, 1], vec![1, 2]], 3);
        let sens = SensitiveSet::new(vec![0, 1, 2], 3);
        let mut rng = StdRng::seed_from_u64(6);
        assert!(attack_raw(&data, &sens, 1, 100, &mut rng).is_none());
        let (published, _) = {
            // A release over QID-free rows cannot be built by CAHD here;
            // attack a degenerate self-release instead.
            let sens2 = SensitiveSet::new(vec![2], 3);
            cahd(&data, &sens2, &CahdConfig::new(2)).unwrap()
        };
        assert!(attack_published(&data, &sens, &published, 1, 100, &mut rng).is_none());
    }

    #[test]
    fn k_zero_returns_none_instead_of_panicking() {
        let (data, sens) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(attack_raw(&data, &sens, 0, 100, &mut rng).is_none());
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        assert!(attack_published(&data, &sens, &published, 0, 100, &mut rng).is_none());
    }

    #[test]
    fn tampered_release_attacks_gracefully() {
        // Rewriting QID rows can leave a victim with zero candidates; the
        // trial must count as a failed attack, not panic.
        let (data, sens) = setup();
        let (mut published, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        for g in &mut published.groups {
            // Item 19: one no victim knows.
            g.qid_rows
                .edit_rows(|rows| rows.iter_mut().for_each(|row| *row = vec![19]));
        }
        let mut rng = StdRng::seed_from_u64(8);
        let out = attack_published(&data, &sens, &published, 2, 50, &mut rng).unwrap();
        assert_eq!(out.max_posterior, 0.0, "{out:?}");
        assert_eq!(out.unique_match_rate, 0.0);
    }

    #[test]
    fn more_knowledge_stronger_raw_attack() {
        let (data, sens) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let k1 = attack_raw(&data, &sens, 1, 1_000, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let k2 = attack_raw(&data, &sens, 2, 1_000, &mut rng).unwrap();
        assert!(k2.mean_true_posterior >= k1.mean_true_posterior);
    }
}
