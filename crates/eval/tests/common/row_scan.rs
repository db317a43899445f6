//! The row-scan adversary suite: the attackers as they were before the
//! per-target index, kept as the oracle `attack_index_equivalence.rs`
//! checks the indexed suite against.
//!
//! Every attacker here walks every group and every QID row on every
//! trial (a `binary_search` per known item), rebuilds its posting lists
//! on every call and recomputes the eligible victims on every call. The
//! bodies are the earlier library code, copied verbatim apart from
//! module paths; nothing here reads `cahd_eval::adversary::index`.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cahd_core::PublishedDataset;
use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_eval::adversary::{
    derive_seed, AttackPlan, AttackReport, AttackTarget, CurvePoint, IntersectionReport,
    SuccessCurve, VulnerableReport, VulnerableRow, ATTACKER_BACKGROUND, ATTACKER_INTERSECTION,
    ATTACKER_LINKAGE, ATTACKER_VULNERABLE,
};
use cahd_eval::AttackOutcome;

/// Number of worst rows retained in a vulnerable report.
const WORST_ROWS: usize = 8;

/// An empty intersection report (no eligible victims or no trials).
fn empty_intersection(targets: Vec<String>, k: usize) -> IntersectionReport {
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

/// Stream identifiers for [`derive_seed`], one per attacker kind.
fn stream(attacker: u64, target: usize, k: usize) -> u64 {
    (attacker << 48) ^ ((target as u64) << 24) ^ k as u64
}

/// Runs the full suite of `plan.attackers` against every target and
/// returns the curves and detail reports. Deterministic in
/// `(data, sensitive, targets, plan)`: every curve point derives its own
/// RNG stream, so attacker subsets and call order cannot perturb results.
pub fn run_attack_suite(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
    targets: &[AttackTarget<'_>],
    plan: &AttackPlan,
) -> AttackReport {
    let mut curves = Vec::new();
    let mut vulnerable = Vec::new();
    for (ti, t) in targets.iter().enumerate() {
        if plan.wants(ATTACKER_BACKGROUND) {
            let points = plan
                .ks
                .iter()
                .map(|&k| {
                    background_point(
                        data,
                        sensitive,
                        t.published,
                        k,
                        plan,
                        derive_seed(plan.seed, stream(0, ti, k)),
                    )
                })
                .collect();
            curves.push(SuccessCurve {
                attacker: ATTACKER_BACKGROUND.to_string(),
                target: t.name.clone(),
                points,
            });
        }
        if plan.wants(ATTACKER_LINKAGE) {
            let points = plan
                .ks
                .iter()
                .map(|&k| {
                    linkage_point(
                        data,
                        sensitive,
                        t.published,
                        k,
                        plan.trials,
                        derive_seed(plan.seed, stream(1, ti, k)),
                    )
                })
                .collect();
            curves.push(SuccessCurve {
                attacker: ATTACKER_LINKAGE.to_string(),
                target: t.name.clone(),
                points,
            });
        }
        if plan.wants(ATTACKER_INTERSECTION) {
            if let Some(published) = t.published {
                // Self-composition: the one-release degenerate case keeps
                // the (attacker x target) curve grid complete.
                let points = plan
                    .ks
                    .iter()
                    .map(|&k| {
                        intersection_report(
                            data,
                            sensitive,
                            &[published],
                            std::slice::from_ref(&t.name),
                            k,
                            plan.trials,
                            derive_seed(plan.seed, stream(2, ti, k)),
                        )
                        .to_point(k)
                    })
                    .collect();
                curves.push(SuccessCurve {
                    attacker: ATTACKER_INTERSECTION.to_string(),
                    target: t.name.clone(),
                    points,
                });
            }
        }
        if plan.wants(ATTACKER_VULNERABLE) {
            let report = vulnerable_scan(data, sensitive, t.published, p, plan.epsilon);
            curves.push(SuccessCurve {
                attacker: ATTACKER_VULNERABLE.to_string(),
                target: t.name.clone(),
                points: vec![report.to_point()],
            });
            let mut report = report;
            report.target = t.name.clone();
            vulnerable.push(report);
        }
    }
    let mut intersections = Vec::new();
    if plan.wants(ATTACKER_INTERSECTION) {
        let released: Vec<(&str, &PublishedDataset)> = targets
            .iter()
            .filter_map(|t| t.published.map(|r| (t.name.as_str(), r)))
            .collect();
        if released.len() >= 2 {
            let releases: Vec<&PublishedDataset> = released.iter().map(|(_, r)| *r).collect();
            let names: Vec<String> = released.iter().map(|(n, _)| (*n).to_string()).collect();
            for (ki, &k) in plan.ks.iter().enumerate() {
                intersections.push(intersection_report(
                    data,
                    sensitive,
                    &releases,
                    &names,
                    k,
                    plan.trials,
                    derive_seed(plan.seed, stream(3, targets.len() + ki, k)),
                ));
            }
        }
    }
    AttackReport {
        seed: plan.seed,
        p,
        curves,
        vulnerable,
        intersections,
    }
}

/// Adapts the naive linkage attacker (`attack_published`/`attack_raw`) to a curve point:
/// a "claim" is every trial, a "success" is a unique match (full row
/// re-identification).
fn linkage_point(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    published: Option<&PublishedDataset>,
    k: usize,
    trials: usize,
    seed: u64,
) -> CurvePoint {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = match published {
        Some(release) => attack_published(data, sensitive, release, k, trials, &mut rng),
        None => attack_raw(data, sensitive, k, trials, &mut rng),
    };
    match outcome {
        None => CurvePoint::empty(k),
        Some(o) => {
            let unique = (o.unique_match_rate * o.trials as f64).round() as usize;
            CurvePoint {
                k,
                trials: o.trials,
                matches: o.trials,
                successes: unique,
                unique_matches: unique,
                mean_posterior: o.mean_true_posterior,
                max_posterior: o.max_posterior,
            }
        }
    }
}

pub fn attack_raw<R: Rng + ?Sized>(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> Option<AttackOutcome> {
    if k == 0 {
        return None;
    }
    let victims = eligible_victims(data, sensitive, k);
    if victims.is_empty() || trials == 0 {
        return None;
    }
    let inv = data.matrix().transpose();
    let mut sum_true = 0f64;
    let mut max_post = 0f64;
    let mut unique = 0usize;
    for _ in 0..trials {
        let v = victims[rng.gen_range(0..victims.len())] as usize;
        let known = sample_known(data.transaction(v), sensitive, k, rng);
        // Matching transactions via posting-list intersection.
        let mut matches = inv.row(known[0] as usize).to_vec();
        for &item in &known[1..] {
            matches = intersect(&matches, inv.row(item as usize));
        }
        debug_assert!(matches.contains(&(v as u32)));
        if matches.len() == 1 {
            unique += 1;
        }
        // Posterior per sensitive item = fraction of matches containing it.
        let denom = matches.len() as f64;
        let (_, v_sens) = sensitive.split_transaction(data.transaction(v));
        for &rank in &v_sens {
            let item = sensitive.items()[rank];
            let hits = matches
                .iter()
                .filter(|&&t| data.contains(t as usize, item))
                .count();
            let post = hits as f64 / denom;
            sum_true += post / v_sens.len() as f64;
            max_post = max_post.max(post);
        }
        // Also track the attacker's best guess over all sensitive items.
        for &item in sensitive.items() {
            let hits = matches
                .iter()
                .filter(|&&t| data.contains(t as usize, item))
                .count();
            max_post = max_post.max(hits as f64 / denom);
        }
    }
    Some(AttackOutcome {
        trials,
        mean_true_posterior: sum_true / trials as f64,
        max_posterior: max_post,
        unique_match_rate: unique as f64 / trials as f64,
    })
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
    if k == 0 {
        return None;
    }
    let victims = eligible_victims(data, sensitive, k);
    if victims.is_empty() || trials == 0 {
        return None;
    }
    let mut sum_true = 0f64;
    let mut max_post = 0f64;
    let mut unique = 0usize;
    for _ in 0..trials {
        let v = victims[rng.gen_range(0..victims.len())] as usize;
        let known = sample_known(data.transaction(v), sensitive, k, rng);
        // Candidate rows across all groups; collect per-group match counts.
        let mut n_candidates = 0usize;
        let mut per_item: Vec<f64> = vec![0.0; sensitive.len()];
        for g in &published.groups {
            let b = g
                .qid_rows
                .iter()
                .filter(|row| known.iter().all(|i| row.binary_search(i).is_ok()))
                .count();
            if b == 0 {
                continue;
            }
            n_candidates += b;
            for &(item, f) in &g.sensitive_counts {
                let rank = sensitive
                    .index_of(item)
                    // cahd-lint: allow(L003, reason = "sensitive_counts only ever holds members of this SensitiveSet (release invariant CAHD-S001)")
                    .expect("published item is sensitive");
                // Each of the b candidate rows carries posterior f/|G|.
                per_item[rank] += b as f64 * f as f64 / g.size() as f64;
            }
        }
        if n_candidates == 0 {
            // On a *verified* release the victim's own row always matches;
            // on a tampered one (QID rows rewritten) it may not. The
            // attack-regression pass runs before conformance is known, so
            // a candidate-free trial counts as a failed attack instead of
            // being treated as unreachable.
            continue;
        }
        if n_candidates == 1 {
            unique += 1;
        }
        for p in &mut per_item {
            *p /= n_candidates as f64;
        }
        let (_, v_sens) = sensitive.split_transaction(data.transaction(v));
        for &rank in &v_sens {
            sum_true += per_item[rank] / v_sens.len() as f64;
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

fn eligible_victims(data: &TransactionSet, sensitive: &SensitiveSet, k: usize) -> Vec<u32> {
    (0..data.n_transactions())
        .filter(|&t| {
            let (qid, sens) = sensitive.split_transaction(data.transaction(t));
            !sens.is_empty() && qid.len() >= k
        })
        .map(|t| t as u32)
        .collect()
}

fn sample_known<R: Rng + ?Sized>(
    txn: &[ItemId],
    sensitive: &SensitiveSet,
    k: usize,
    rng: &mut R,
) -> Vec<ItemId> {
    let mut qid: Vec<ItemId> = txn
        .iter()
        .copied()
        .filter(|&i| !sensitive.contains(i))
        .collect();
    for i in 0..k {
        let j = rng.gen_range(i..qid.len());
        qid.swap(i, j);
    }
    qid.truncate(k);
    qid
}

fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

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
            rows.push(row.to_vec());
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

/// Per-release candidate evidence for one trial: the distinct matching
/// QID contents and the averaged per-sensitive-item posterior vector.
struct Evidence<'a> {
    contents: BTreeSet<&'a [ItemId]>,
    posterior: Vec<f64>,
}

fn evidence<'a>(
    release: &'a PublishedDataset,
    known: &[ItemId],
    n_sensitive: usize,
    index_of: &dyn Fn(ItemId) -> Option<usize>,
) -> Option<Evidence<'a>> {
    let mut contents: BTreeSet<&[ItemId]> = BTreeSet::new();
    let mut posterior = vec![0.0f64; n_sensitive];
    let mut n_candidates = 0usize;
    for g in &release.groups {
        let mut b = 0usize;
        for row in &g.qid_rows {
            if known.iter().all(|i| row.binary_search(i).is_ok()) {
                b += 1;
                contents.insert(row);
            }
        }
        if b == 0 {
            continue;
        }
        n_candidates += b;
        for &(item, f) in &g.sensitive_counts {
            if let Some(rank) = index_of(item) {
                posterior[rank] += b as f64 * f as f64 / g.size() as f64;
            }
        }
    }
    if n_candidates == 0 {
        return None;
    }
    for p in &mut posterior {
        *p /= n_candidates as f64;
    }
    Some(Evidence {
        contents,
        posterior,
    })
}

/// Runs the composition attack over `releases` at knowledge size `k`.
pub fn intersection_report(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    releases: &[&PublishedDataset],
    names: &[String],
    k: usize,
    trials: usize,
    seed: u64,
) -> IntersectionReport {
    let targets: Vec<String> = names.to_vec();
    if k == 0 || trials == 0 || releases.is_empty() {
        return empty_intersection(targets, k);
    }
    let victims: Vec<u32> = (0..data.n_transactions())
        .filter(|&t| {
            let (qid, sens) = sensitive.split_transaction(data.transaction(t));
            !sens.is_empty() && qid.len() >= k
        })
        .map(|t| t as u32)
        .collect();
    if victims.is_empty() {
        return empty_intersection(targets, k);
    }
    let index_of = |item: ItemId| sensitive.index_of(item);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut composed_trials = 0usize;
    let mut narrowed_trials = 0usize;
    let mut unique = 0usize;
    let mut successes = 0usize;
    let mut sum_top = 0.0f64;
    let mut max_composed = 0.0f64;
    for _ in 0..trials {
        let v = victims[rng.gen_range(0..victims.len())] as usize;
        let (mut qid, v_sens) = sensitive.split_transaction(data.transaction(v));
        for i in 0..k {
            let j = rng.gen_range(i..qid.len());
            qid.swap(i, j);
        }
        let known = &qid[..k];

        let mut per_release = Vec::with_capacity(releases.len());
        for release in releases {
            match evidence(release, known, sensitive.len(), &index_of) {
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
        let mut intersected = per_release[0].contents.clone();
        for e in &per_release[1..] {
            intersected = intersected.intersection(&e.contents).copied().collect();
        }
        if intersected.len() < min_contents {
            narrowed_trials += 1;
        }
        if intersected.len() == 1 {
            unique += 1;
        }

        // Independent-release composition: product of per-release
        // posteriors, renormalized over the sensitive items.
        let mut composed = vec![1.0f64; sensitive.len()];
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
            if top > 0.0 && v_sens.contains(&top_rank) {
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

/// Scans `published` (or, when `None`, the raw data) for rows whose
/// empirical posterior approaches `1/p`.
pub fn vulnerable_scan(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    published: Option<&PublishedDataset>,
    p: usize,
    epsilon: f64,
) -> VulnerableReport {
    let threshold = if p == 0 {
        f64::INFINITY
    } else {
        (1.0 - epsilon) / p as f64
    };
    let mut rows: Vec<VulnerableRow> = Vec::new();
    match published {
        Some(release) => {
            let mut flat = 0usize;
            for (gi, g) in release.groups.iter().enumerate() {
                let size = g.size() as f64;
                let worst = g
                    .sensitive_counts
                    .iter()
                    .map(|&(_, f)| f as f64 / size)
                    .fold(0.0f64, f64::max);
                for _ in 0..g.qid_rows.len() {
                    if worst > 0.0 {
                        rows.push(VulnerableRow {
                            transaction: flat,
                            group: Some(gi),
                            posterior: worst,
                        });
                    }
                    flat += 1;
                }
            }
        }
        None => {
            // Content classes over QID item sets: the posterior of a row
            // is resolved within its duplicate class.
            let mut classes: BTreeMap<Vec<ItemId>, Vec<usize>> = BTreeMap::new();
            for t in 0..data.n_transactions() {
                let (qid, _) = sensitive.split_transaction(data.transaction(t));
                classes.entry(qid).or_default().push(t);
            }
            for members in classes.values() {
                let size = members.len() as f64;
                for &t in members {
                    let (_, v_sens) = sensitive.split_transaction(data.transaction(t));
                    if v_sens.is_empty() {
                        continue;
                    }
                    let mut worst = 0.0f64;
                    for &rank in &v_sens {
                        let item = sensitive.items()[rank];
                        let hits = members.iter().filter(|&&m| data.contains(m, item)).count();
                        worst = worst.max(hits as f64 / size);
                    }
                    rows.push(VulnerableRow {
                        transaction: t,
                        group: None,
                        posterior: worst,
                    });
                }
            }
            rows.sort_by_key(|r| r.transaction);
        }
    }
    let rows_scanned = rows.len();
    let vulnerable_rows = rows.iter().filter(|r| r.posterior >= threshold).count();
    let max_posterior = rows.iter().map(|r| r.posterior).fold(0.0f64, f64::max);
    let sum: f64 = rows.iter().map(|r| r.posterior).sum();
    let mean_posterior = if rows_scanned == 0 {
        0.0
    } else {
        sum / rows_scanned as f64
    };
    // Worst offenders: highest posterior first, then lowest row index.
    rows.sort_by(|a, b| {
        b.posterior
            .total_cmp(&a.posterior)
            .then(a.transaction.cmp(&b.transaction))
    });
    rows.truncate(WORST_ROWS);
    VulnerableReport {
        target: String::new(),
        epsilon,
        threshold,
        rows_scanned,
        vulnerable_rows,
        max_posterior,
        mean_posterior,
        worst: rows,
    }
}
