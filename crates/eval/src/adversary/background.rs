//! The NS-style background-knowledge scoring attacker.
//!
//! Narayanan–Shmatikov's de-anonymization of sparse data scores every
//! candidate record by a support-weighted similarity to the attacker's
//! (possibly wrong, possibly incomplete) background knowledge, and claims
//! the best-scoring record only when it is *eccentric* — separated from
//! the runner-up by at least `phi` standard deviations of the score
//! distribution. Scoring is additive, so a wrong known-item costs score
//! instead of (as in plain intersection matching) discarding the true
//! record outright.
//!
//! Against a release the claimed row maps to its group, and the attacker's
//! posterior for a sensitive association is the group frequency
//! `f_s / |G|` — which a valid release bounds by `1/p`. Against the raw
//! data the claimed row *is* a transaction and its sensitive items are
//! read off directly (posterior 1 whenever the claim hits a
//! sensitive-bearing row). QID rows are published verbatim, so for a fixed
//! seed the score distribution over a release is a permutation of the raw
//! one: match decisions and success rates coincide, and only the posterior
//! differs — the measurable value of the anonymization.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cahd_data::ItemId;

use super::index::TargetIndex;
use super::{AttackPlan, CurvePoint};

/// One curve point of the background attack on an indexed target:
/// `trials` victims, `k` known items (`plan.wrong_items` of them
/// corrupted), eccentricity threshold `plan.phi`. A raw-data index
/// attacks the raw data.
pub fn background_point(
    index: &TargetIndex<'_>,
    k: usize,
    plan: &AttackPlan,
    seed: u64,
) -> CurvePoint {
    if k == 0 || plan.trials == 0 {
        return CurvePoint::empty(k);
    }
    let population = index.population();
    let victims = population.victims(k);
    if victims.is_empty() {
        return CurvePoint::empty(k);
    }
    let n_rows = index.n_rows();
    if n_rows == 0 {
        return CurvePoint::empty(k);
    }
    let data = population.data();
    // Items an attacker could plausibly mis-remember: any QID item that
    // occurs in the target.
    let qid_universe = index.qid_universe();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut score = vec![0.0f64; n_rows];
    let mut touched: Vec<u32> = Vec::new();
    let mut merged: Vec<u32> = Vec::new();
    let mut known: Vec<ItemId> = Vec::with_capacity(k);

    let mut matches = 0usize;
    let mut successes = 0usize;
    let mut unique = 0usize;
    let mut sum_posterior = 0.0f64;
    let mut max_posterior = 0.0f64;
    for _ in 0..plan.trials {
        let v = victims[rng.gen_range(0..victims.len())] as usize;
        population.sample_known(v, k, &mut rng, &mut known);
        // Corrupt the tail of the knowledge with random non-member items.
        let wrong = plan.wrong_items.min(k);
        for slot in known.iter_mut().rev().take(wrong) {
            if qid_universe.is_empty() {
                break;
            }
            for _ in 0..8 {
                let candidate = qid_universe[rng.gen_range(0..qid_universe.len())];
                if !data.contains(v, candidate) {
                    *slot = candidate;
                    break;
                }
            }
        }

        // Rare (identifying) items dominate the score: an item weighs
        // 1 / ln(1 + support). Scores add in `known` order; the touched
        // rows are the ascending union of the posting lists.
        for &item in &known {
            let w = index.weight(item);
            let list = index.postings(item);
            for &r in list {
                score[r as usize] += w;
            }
            union_into(&mut touched, list, &mut merged);
        }

        // Best and runner-up over *all* rows (untouched rows score 0);
        // sigma over the same population. Ties break to the lowest row.
        let mut best = 0.0f64;
        let mut best_row = usize::MAX;
        let mut second = 0.0f64;
        let mut n_best = 0usize;
        let mut sum = 0.0f64;
        let mut sumsq = 0.0f64;
        for &r in &touched {
            let s = score[r as usize];
            sum += s;
            sumsq += s * s;
            if s > best {
                second = best;
                best = s;
                best_row = r as usize;
                n_best = 1;
            } else if s == best {
                n_best += 1;
                second = second.max(s);
            } else if s > second {
                second = s;
            }
        }
        if touched.len() < n_rows {
            // The implicit zeros participate in runner-up and sigma.
            second = second.max(0.0);
        }
        let n = n_rows as f64;
        let mean = sum / n;
        let sigma = (sumsq / n - mean * mean).max(0.0).sqrt();
        if best > 0.0 && n_best == 1 {
            unique += 1;
        }
        let claimed = best_row != usize::MAX && sigma > 0.0 && (best - second) / sigma >= plan.phi;
        if claimed {
            matches += 1;
            let posterior = index.claim_posterior(index.group_of(best_row));
            sum_posterior += posterior;
            max_posterior = max_posterior.max(posterior);
            if index
                .row_set(best_row)
                .eq(population.qid(v).iter().copied())
            {
                successes += 1;
            }
        }

        for &r in &touched {
            score[r as usize] = 0.0;
        }
        touched.clear();
    }
    CurvePoint {
        k,
        trials: plan.trials,
        matches,
        successes,
        unique_matches: unique,
        mean_posterior: if matches == 0 {
            0.0
        } else {
            sum_posterior / matches as f64
        },
        max_posterior,
    }
}

/// Replaces `touched` by its union with `list`, both ascending, using
/// `merged` as scratch.
fn union_into(touched: &mut Vec<u32>, list: &[u32], merged: &mut Vec<u32>) {
    if touched.is_empty() {
        touched.extend_from_slice(list);
        return;
    }
    merged.clear();
    let (mut i, mut j) = (0, 0);
    while i < touched.len() && j < list.len() {
        let (a, b) = (touched[i], list[j]);
        merged.push(a.min(b));
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
    merged.extend_from_slice(&touched[i..]);
    merged.extend_from_slice(&list[j..]);
    std::mem::swap(touched, merged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::index::Population;
    use cahd_core::{cahd, verify_published, CahdConfig, PublishedDataset};
    use cahd_data::{SensitiveSet, TransactionSet};

    fn point(
        data: &TransactionSet,
        sens: &SensitiveSet,
        published: Option<&PublishedDataset>,
        k: usize,
        plan: &AttackPlan,
        seed: u64,
    ) -> CurvePoint {
        let population = Population::new(data, sens);
        background_point(&TargetIndex::new(&population, published), k, plan, seed)
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
    fn raw_attack_claims_unique_victims() {
        let (data, sens) = setup();
        let plan = AttackPlan {
            trials: 400,
            ..AttackPlan::default()
        };
        let pt = point(&data, &sens, None, 2, &plan, 7);
        // The (i, 8+i) pairs are globally unique and rare, so the scorer
        // must separate them eccentrically and claim correctly.
        assert!(pt.matches > 0, "{pt:?}");
        assert!(pt.successes > 0, "{pt:?}");
        assert_eq!(pt.max_posterior, 1.0);
        assert!(pt.successes <= pt.matches && pt.matches <= pt.trials);
    }

    #[test]
    fn release_attack_is_bounded_by_one_over_p() {
        let (data, sens) = setup();
        let p = 3;
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        verify_published(&data, &sens, &published, p).unwrap();
        let plan = AttackPlan {
            trials: 400,
            ..AttackPlan::default()
        };
        for k in [1, 2] {
            let pt = point(&data, &sens, Some(&published), k, &plan, 7);
            assert!(pt.max_posterior <= 1.0 / p as f64 + 1e-9, "k = {k}: {pt:?}");
        }
    }

    #[test]
    fn release_matches_mirror_raw_matches_for_same_seed() {
        // QID rows are verbatim, so the release score distribution is a
        // permutation of the raw one: claims and successes coincide.
        let (data, sens) = setup();
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        let plan = AttackPlan {
            trials: 300,
            ..AttackPlan::default()
        };
        let raw = point(&data, &sens, None, 2, &plan, 11);
        let rel = point(&data, &sens, Some(&published), 2, &plan, 11);
        assert_eq!(raw.matches, rel.matches);
        assert_eq!(raw.successes, rel.successes);
        assert_eq!(raw.unique_matches, rel.unique_matches);
        assert!(raw.max_posterior >= rel.max_posterior);
    }

    #[test]
    fn malformed_release_rows_succeed_like_their_sets() {
        // A row published unsorted and repeating an id is the same set:
        // the index reads it as one, and so does the success test.
        let (data, sens) = setup();
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(3)).unwrap();
        let mut malformed = published.clone();
        for g in &mut malformed.groups {
            g.qid_rows.edit_rows(|rows| {
                for row in rows {
                    row.reverse();
                    if let Some(&first) = row.last() {
                        row.push(first);
                    }
                }
            });
        }
        let plan = AttackPlan {
            trials: 300,
            ..AttackPlan::default()
        };
        for k in [1, 2] {
            let clean = point(&data, &sens, Some(&published), k, &plan, 11);
            assert!(clean.successes > 0, "k = {k}: {clean:?}");
            assert_eq!(
                point(&data, &sens, Some(&malformed), k, &plan, 11),
                clean,
                "k = {k}"
            );
        }
    }

    #[test]
    fn wrong_items_degrade_but_do_not_break_the_attack() {
        let (data, sens) = setup();
        let clean = AttackPlan {
            trials: 400,
            ..AttackPlan::default()
        };
        let noisy = AttackPlan {
            trials: 400,
            wrong_items: 1,
            ..AttackPlan::default()
        };
        let pt_clean = point(&data, &sens, None, 2, &clean, 13);
        let pt_noisy = point(&data, &sens, None, 2, &noisy, 13);
        // Additive scoring tolerates noise: the attack still runs and the
        // noisy variant cannot *out-succeed* the clean one on this fixture.
        assert!(pt_noisy.trials == pt_clean.trials);
        assert!(pt_noisy.successes <= pt_clean.successes, "{pt_noisy:?}");
    }

    #[test]
    fn k_zero_and_empty_data_are_graceful() {
        let (data, sens) = setup();
        assert_eq!(
            point(&data, &sens, None, 0, &AttackPlan::default(), 1),
            CurvePoint::empty(0)
        );
        let all_sensitive = TransactionSet::from_rows(&[vec![0], vec![1]], 2);
        let sens_all = SensitiveSet::new(vec![0, 1], 2);
        assert_eq!(
            point(
                &all_sensitive,
                &sens_all,
                None,
                1,
                &AttackPlan::default(),
                1
            ),
            CurvePoint::empty(1)
        );
    }
}
