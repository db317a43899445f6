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

use cahd_core::PublishedDataset;
use cahd_data::{ItemId, SensitiveSet, TransactionSet};

use super::{AttackPlan, CurvePoint};

/// The flattened view both variants score against: one QID row per
/// original transaction, plus (for releases) the owning group and its
/// worst-case sensitive posterior.
struct FlatRows {
    /// Sorted QID item sets, one per row.
    rows: Vec<Vec<ItemId>>,
    /// Posterior the attacker obtains by claiming each row: for a release
    /// row, `max_s f_s / |G|` of its group; for a raw row, 1.0 when the
    /// transaction carries any sensitive item.
    claim_posterior: Vec<f64>,
}

fn flatten_release(published: &PublishedDataset) -> FlatRows {
    let mut rows = Vec::with_capacity(published.n_transactions());
    let mut claim_posterior = Vec::with_capacity(published.n_transactions());
    for g in &published.groups {
        let size = g.size() as f64;
        let worst = g
            .sensitive_counts
            .iter()
            .map(|&(_, f)| f as f64 / size)
            .fold(0.0f64, f64::max);
        for row in &g.qid_rows {
            rows.push(row.clone());
            claim_posterior.push(worst);
        }
    }
    FlatRows {
        rows,
        claim_posterior,
    }
}

fn flatten_raw(data: &TransactionSet, sensitive: &SensitiveSet) -> FlatRows {
    let mut rows = Vec::with_capacity(data.n_transactions());
    let mut claim_posterior = Vec::with_capacity(data.n_transactions());
    for t in 0..data.n_transactions() {
        let (qid, sens) = sensitive.split_transaction(data.transaction(t));
        rows.push(qid);
        claim_posterior.push(if sens.is_empty() { 0.0 } else { 1.0 });
    }
    FlatRows {
        rows,
        claim_posterior,
    }
}

/// One curve point of the background attack: `trials` victims, `k` known
/// items (`plan.wrong_items` of them corrupted), eccentricity threshold
/// `plan.phi`. `published: None` attacks the raw data.
pub fn background_point(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    published: Option<&PublishedDataset>,
    k: usize,
    plan: &AttackPlan,
    seed: u64,
) -> CurvePoint {
    if k == 0 || plan.trials == 0 {
        return CurvePoint::empty(k);
    }
    let victims: Vec<u32> = (0..data.n_transactions())
        .filter(|&t| {
            let (qid, sens) = sensitive.split_transaction(data.transaction(t));
            !sens.is_empty() && qid.len() >= k
        })
        .map(|t| t as u32)
        .collect();
    if victims.is_empty() {
        return CurvePoint::empty(k);
    }
    let flat = match published {
        Some(release) => flatten_release(release),
        None => flatten_raw(data, sensitive),
    };
    let n_rows = flat.rows.len();
    if n_rows == 0 {
        return CurvePoint::empty(k);
    }

    // Posting lists over the flattened rows; the weight of an item is
    // 1 / ln(1 + support), so rare (identifying) items dominate the score.
    let n_items = data.n_items();
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); n_items];
    for (r, row) in flat.rows.iter().enumerate() {
        for &item in row {
            // A tampered release can carry ids outside the data's universe.
            // No victim knows such an item, so it never scores.
            if let Some(posting) = postings.get_mut(item as usize) {
                posting.push(r as u32);
            }
        }
    }
    let weight: Vec<f64> = postings
        .iter()
        .map(|p| {
            if p.is_empty() {
                0.0
            } else {
                1.0 / (1.0 + p.len() as f64).ln()
            }
        })
        .collect();
    // Items an attacker could plausibly mis-remember: any QID item that
    // occurs in the data.
    let qid_universe: Vec<ItemId> = (0..n_items as u32)
        .filter(|&i| !sensitive.contains(i) && !postings[i as usize].is_empty())
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut score = vec![0.0f64; n_rows];
    let mut marked = vec![false; n_rows];
    let mut touched: Vec<u32> = Vec::new();

    let mut matches = 0usize;
    let mut successes = 0usize;
    let mut unique = 0usize;
    let mut sum_posterior = 0.0f64;
    let mut max_posterior = 0.0f64;
    for _ in 0..plan.trials {
        let v = victims[rng.gen_range(0..victims.len())] as usize;
        let (mut qid, v_sens) = sensitive.split_transaction(data.transaction(v));
        debug_assert!(!v_sens.is_empty());
        for i in 0..k {
            let j = rng.gen_range(i..qid.len());
            qid.swap(i, j);
        }
        let mut known: Vec<ItemId> = qid[..k].to_vec();
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

        for &item in &known {
            let w = weight[item as usize];
            for &r in &postings[item as usize] {
                if !marked[r as usize] {
                    marked[r as usize] = true;
                    touched.push(r);
                }
                score[r as usize] += w;
            }
        }
        touched.sort_unstable();

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
            let posterior = flat.claim_posterior[best_row];
            sum_posterior += posterior;
            max_posterior = max_posterior.max(posterior);
            if flat.rows[best_row] == qid_of(data, sensitive, v) {
                successes += 1;
            }
        }

        for &r in &touched {
            score[r as usize] = 0.0;
            marked[r as usize] = false;
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

fn qid_of(data: &TransactionSet, sensitive: &SensitiveSet, t: usize) -> Vec<ItemId> {
    sensitive.split_transaction(data.transaction(t)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::{cahd, verify_published, CahdConfig};

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
        let pt = background_point(&data, &sens, None, 2, &plan, 7);
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
            let pt = background_point(&data, &sens, Some(&published), k, &plan, 7);
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
        let raw = background_point(&data, &sens, None, 2, &plan, 11);
        let rel = background_point(&data, &sens, Some(&published), 2, &plan, 11);
        assert_eq!(raw.matches, rel.matches);
        assert_eq!(raw.successes, rel.successes);
        assert_eq!(raw.unique_matches, rel.unique_matches);
        assert!(raw.max_posterior >= rel.max_posterior);
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
        let pt_clean = background_point(&data, &sens, None, 2, &clean, 13);
        let pt_noisy = background_point(&data, &sens, None, 2, &noisy, 13);
        // Additive scoring tolerates noise: the attack still runs and the
        // noisy variant cannot *out-succeed* the clean one on this fixture.
        assert!(pt_noisy.trials == pt_clean.trials);
        assert!(pt_noisy.successes <= pt_clean.successes, "{pt_noisy:?}");
    }

    #[test]
    fn k_zero_and_empty_data_are_graceful() {
        let (data, sens) = setup();
        assert_eq!(
            background_point(&data, &sens, None, 0, &AttackPlan::default(), 1),
            CurvePoint::empty(0)
        );
        let all_sensitive = TransactionSet::from_rows(&[vec![0], vec![1]], 2);
        let sens_all = SensitiveSet::new(vec![0, 1], 2);
        assert_eq!(
            background_point(
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
