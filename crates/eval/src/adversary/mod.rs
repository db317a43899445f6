//! The adversary suite: deterministic, seed-plumbed empirical attacks
//! against every release format the workspace publishes.
//!
//! The paper's Definition 3 bounds an attacker's posterior for any
//! (victim, sensitive item) association by `1/p`. The verifier checks the
//! bound *structurally* (`f_s * p <= |G|` per group); this module checks
//! it *empirically* by running realistic adversaries and measuring what
//! they actually achieve:
//!
//! * [`background`] — a Narayanan–Shmatikov-style scoring attacker for
//!   sparse data: weighted similarity over item sets
//!   (`weight = 1 / ln(1 + support)`), tolerant of wrong and missing
//!   known-items, claiming a row only when the eccentricity
//!   `(best - second) / sigma` clears a threshold;
//! * [`intersection`] — a composition attacker correlating multiple
//!   releases of overlapping populations (CAHD vs PermMondrian vs Anatomy
//!   of the same data, or re-releases after row churn) by intersecting
//!   QID-content candidate sets and multiplying per-release posteriors;
//! * [`vulnerable`] — a deterministic scanner enumerating the rows whose
//!   posterior approaches `1/p` (the population a real attacker would
//!   target first).
//!
//! Everything is driven by an [`AttackPlan`] (seed, background-knowledge
//! sizes, trial counts, attacker knobs) so a fixed plan replays
//! byte-identically — the property the `CAHD-A001` attack-regression pass
//! and the golden success-curve fixtures are built on. The intersection
//! attacker's *composed* posterior is reported but never gated against
//! `1/p`: composing independent releases can legitimately exceed the
//! single-release bound (that is the attack's point), while each
//! single-release attacker must stay under it.

pub mod background;
pub mod index;
pub mod intersection;
pub mod vulnerable;

use serde::{Deserialize, Serialize};

use cahd_core::PublishedDataset;
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_obs::Recorder;

use index::{Population, TargetIndex};
pub use intersection::IntersectionReport;
pub use vulnerable::{VulnerableReport, VulnerableRow};

/// Attacker kind: the NS-style background-knowledge scorer.
pub const ATTACKER_BACKGROUND: &str = "background";
/// Attacker kind: the paper's naive linkage attacker (`crate::attack`).
pub const ATTACKER_LINKAGE: &str = "linkage";
/// Attacker kind: the multi-release intersection/composition attacker.
pub const ATTACKER_INTERSECTION: &str = "intersection";
/// Attacker kind: the deterministic vulnerable-population scanner.
pub const ATTACKER_VULNERABLE: &str = "vulnerable";
/// Target name for the un-anonymized data.
pub const TARGET_RAW: &str = "raw";

/// SplitMix64-style finalizer: one deterministic sub-seed per
/// `(base, stream)` pair. Every Monte-Carlo entry point derives its RNG
/// from the single user-supplied seed through this mixer, so adjacent
/// streams (`k`, `k+1`, ...) are decorrelated instead of `seed ^ k`'s
/// single-bit flips.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A replayable attack configuration. Serializable so plans can be
/// committed next to the fixtures they gate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackPlan {
    /// Base seed; every attacker/target/k combination derives its own
    /// stream via [`derive_seed`].
    pub seed: u64,
    /// Background-knowledge sizes to sweep (the curve's x axis).
    pub ks: Vec<usize>,
    /// Monte-Carlo trials per curve point.
    pub trials: usize,
    /// Eccentricity threshold of the background attacker: claim only when
    /// `(best - second) / sigma >= phi`.
    pub phi: f64,
    /// How many of the `k` known items are corrupted to random non-member
    /// items per trial (the noisy-knowledge regime of NS).
    pub wrong_items: usize,
    /// Vulnerability slack: a row is vulnerable when its posterior is at
    /// least `(1 - epsilon) / p`.
    pub epsilon: f64,
    /// Additive tolerance on the `1/p` posterior gate.
    pub tolerance: f64,
    /// Budget on the unique-match rate of release attacks; `1.0` disables
    /// the gate (uniqueness of verbatim QID rows is a property of the
    /// data, so only committed fixture plans tighten this).
    pub max_unique_match_rate: f64,
    /// Attacker kinds to run (subset of the four `ATTACKER_*` names).
    pub attackers: Vec<String>,
}

impl Default for AttackPlan {
    fn default() -> Self {
        AttackPlan {
            seed: 42,
            ks: vec![1, 2],
            trials: 200,
            phi: 1.5,
            wrong_items: 0,
            epsilon: 0.05,
            tolerance: 1e-9,
            max_unique_match_rate: 1.0,
            attackers: vec![
                ATTACKER_BACKGROUND.to_string(),
                ATTACKER_LINKAGE.to_string(),
                ATTACKER_INTERSECTION.to_string(),
                ATTACKER_VULNERABLE.to_string(),
            ],
        }
    }
}

impl AttackPlan {
    /// A plan restricted to one attacker kind.
    pub fn with_attackers(mut self, attackers: Vec<String>) -> Self {
        self.attackers = attackers;
        self
    }

    /// Whether the plan runs the given attacker kind.
    pub fn wants(&self, attacker: &str) -> bool {
        self.attackers.iter().any(|a| a == attacker)
    }
}

/// One point of an attacker-success curve: what the attacker achieved at
/// background-knowledge size `k`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Background-knowledge size (0 for the k-independent scanner).
    pub k: usize,
    /// Trials performed (rows scanned, for the scanner).
    pub trials: usize,
    /// Trials where the attacker committed to a claim.
    pub matches: usize,
    /// Claims that were correct (the claimed row has the victim's QID
    /// content; vulnerable rows, for the scanner).
    pub successes: usize,
    /// Trials with an unambiguous single best candidate.
    pub unique_matches: usize,
    /// Mean posterior the attacker attaches to her claims.
    pub mean_posterior: f64,
    /// Largest posterior attached to any claim.
    pub max_posterior: f64,
}

impl CurvePoint {
    /// A point recording that no attack was possible at this `k`.
    pub fn empty(k: usize) -> Self {
        CurvePoint {
            k,
            trials: 0,
            matches: 0,
            successes: 0,
            unique_matches: 0,
            mean_posterior: 0.0,
            max_posterior: 0.0,
        }
    }

    /// Success rate (successes / trials; 0 when no trials ran).
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Unique-match rate (unique matches / trials; 0 when no trials ran).
    pub fn unique_match_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.unique_matches as f64 / self.trials as f64
        }
    }
}

/// One attacker-success curve: success rate vs background-knowledge size
/// for a given (attacker, target) pair.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SuccessCurve {
    /// Attacker kind (one of the `ATTACKER_*` names).
    pub attacker: String,
    /// Target name (`raw` or a release name).
    pub target: String,
    /// One point per `k` in the plan.
    pub points: Vec<CurvePoint>,
}

/// The aggregate result of one attack-suite run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackReport {
    /// Base seed the run derived all streams from.
    pub seed: u64,
    /// Privacy degree the targets claim.
    pub p: usize,
    /// Success curves for every (attacker, target) pair.
    pub curves: Vec<SuccessCurve>,
    /// Detailed vulnerable-population reports, one per target.
    pub vulnerable: Vec<VulnerableReport>,
    /// Multi-release composition reports (one per `k`), present when at
    /// least two releases were supplied.
    pub intersections: Vec<IntersectionReport>,
}

/// One attack target: a release, or the raw data (`published: None`).
pub struct AttackTarget<'a> {
    /// Display name (`raw`, `cahd`, a fixture stem, ...).
    pub name: String,
    /// The release under attack; `None` attacks the raw data.
    pub published: Option<&'a PublishedDataset>,
}

impl<'a> AttackTarget<'a> {
    /// The raw (un-anonymized) data as a target.
    pub fn raw() -> Self {
        AttackTarget {
            name: TARGET_RAW.to_string(),
            published: None,
        }
    }

    /// A named release target.
    pub fn release(name: &str, published: &'a PublishedDataset) -> Self {
        AttackTarget {
            name: name.to_string(),
            published: Some(published),
        }
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
///
/// Each target is indexed once ([`index::TargetIndex`]) and every
/// attacker and every `k` reads that index. The run is recorded under
/// the `attack` span, one child per stage (`attack/index` and one per
/// attacker), and the `eval.attack_*` counters are recorded once from the
/// finished report (see `docs/OBSERVABILITY.md`). The counters are pure
/// functions of the report, so they are invariant under scheduling by
/// construction. Pass [`Recorder::disabled`] to trace nothing.
pub fn run_attack_suite(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
    targets: &[AttackTarget<'_>],
    plan: &AttackPlan,
    rec: &Recorder,
) -> AttackReport {
    let attack_span = rec.span("attack");
    let index_span = rec.span("attack/index");
    let population = Population::new(data, sensitive);
    let indexes: Vec<TargetIndex<'_>> = targets
        .iter()
        .map(|t| TargetIndex::new(&population, t.published))
        .collect();
    drop(index_span);

    let mut curves = Vec::new();
    let mut vulnerable = Vec::new();
    for (ti, (t, index)) in targets.iter().zip(&indexes).enumerate() {
        if plan.wants(ATTACKER_BACKGROUND) {
            let _span = rec.span("attack/background");
            let points = plan
                .ks
                .iter()
                .map(|&k| {
                    background::background_point(
                        index,
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
            let _span = rec.span("attack/linkage");
            let points = plan
                .ks
                .iter()
                .map(|&k| {
                    linkage_point(
                        index,
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
        if plan.wants(ATTACKER_INTERSECTION) && index.is_published() {
            let _span = rec.span("attack/intersection");
            // Self-composition: the one-release degenerate case keeps
            // the (attacker x target) curve grid complete.
            let points = plan
                .ks
                .iter()
                .map(|&k| {
                    intersection::intersection_report(
                        &[index],
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
        if plan.wants(ATTACKER_VULNERABLE) {
            let _span = rec.span("attack/vulnerable");
            let mut report = vulnerable::vulnerable_scan(index, p, plan.epsilon);
            curves.push(SuccessCurve {
                attacker: ATTACKER_VULNERABLE.to_string(),
                target: t.name.clone(),
                points: vec![report.to_point()],
            });
            report.target = t.name.clone();
            vulnerable.push(report);
        }
    }
    let mut intersections = Vec::new();
    if plan.wants(ATTACKER_INTERSECTION) {
        let (names, releases): (Vec<String>, Vec<&TargetIndex<'_>>) = targets
            .iter()
            .zip(&indexes)
            .filter(|(_, index)| index.is_published())
            .map(|(t, index)| (t.name.clone(), index))
            .unzip();
        if releases.len() >= 2 {
            let _span = rec.span("attack/intersection");
            for (ki, &k) in plan.ks.iter().enumerate() {
                intersections.push(intersection::intersection_report(
                    &releases,
                    &names,
                    k,
                    plan.trials,
                    derive_seed(plan.seed, stream(3, targets.len() + ki, k)),
                ));
            }
        }
    }
    drop(attack_span);
    let report = AttackReport {
        seed: plan.seed,
        p,
        curves,
        vulnerable,
        intersections,
    };
    if rec.is_enabled() {
        record_counters(rec, &report, p, plan.tolerance);
    }
    report
}

/// Records the `eval.attack_*` counters of a finished report.
fn record_counters(rec: &Recorder, report: &AttackReport, p: usize, tolerance: f64) {
    let mut trials = 0u64;
    let mut matches = 0u64;
    let mut successes = 0u64;
    let mut unique = 0u64;
    let mut points = 0u64;
    for curve in &report.curves {
        for pt in &curve.points {
            points += 1;
            trials += pt.trials as u64;
            matches += pt.matches as u64;
            successes += pt.successes as u64;
            unique += pt.unique_matches as u64;
        }
    }
    rec.add("eval.attack_curve_points", points);
    rec.add("eval.attack_trials", trials);
    rec.add("eval.attack_matches", matches);
    rec.add("eval.attack_successes", successes);
    rec.add("eval.attack_unique_matches", unique);
    rec.add(
        "eval.attack_violations",
        posterior_violations(report, p, tolerance).len() as u64,
    );
}

/// The `1/p` posterior gate: every single-release attacker
/// (`background`, `linkage`, `vulnerable`) must stay at or below
/// `1/p + tolerance` on every non-raw target. Returns one message per
/// violating curve point. The intersection attacker is exempt —
/// composing releases can legitimately exceed the single-release bound.
pub fn posterior_violations(report: &AttackReport, p: usize, tolerance: f64) -> Vec<String> {
    let mut out = Vec::new();
    if p == 0 {
        return out;
    }
    let bound = 1.0 / p as f64 + tolerance;
    for curve in &report.curves {
        if curve.target == TARGET_RAW || curve.attacker == ATTACKER_INTERSECTION {
            continue;
        }
        for pt in &curve.points {
            if pt.max_posterior > bound {
                out.push(format!(
                    "{} attack on `{}` reached posterior {:.6} at k = {}, exceeding 1/{p} (+{:.1e})",
                    curve.attacker, curve.target, pt.max_posterior, pt.k, tolerance
                ));
            }
        }
    }
    out
}

/// The unique-match budget gate: the fraction of trials where a release
/// attack pinned a single candidate row must not exceed the committed
/// budget. Returns one message per violating curve point.
pub fn unique_match_violations(report: &AttackReport, budget: f64) -> Vec<String> {
    let mut out = Vec::new();
    for curve in &report.curves {
        if curve.target == TARGET_RAW
            || !(curve.attacker == ATTACKER_BACKGROUND || curve.attacker == ATTACKER_LINKAGE)
        {
            continue;
        }
        for pt in &curve.points {
            let rate = pt.unique_match_rate();
            if rate > budget + 1e-12 {
                out.push(format!(
                    "{} attack on `{}` uniquely matched {:.1}% of trials at k = {}, over the \
                     {:.1}% budget",
                    curve.attacker,
                    curve.target,
                    rate * 100.0,
                    pt.k,
                    budget * 100.0
                ));
            }
        }
    }
    out
}

/// Adapts the naive linkage attacker (`crate::attack`) to a curve point:
/// a "claim" is every trial, a "success" is a unique match (full row
/// re-identification).
fn linkage_point(index: &TargetIndex<'_>, k: usize, trials: usize, seed: u64) -> CurvePoint {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    match crate::attack::linkage(index, k, trials, &mut rng) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::{cahd, CahdConfig};

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
    fn derive_seed_decorrelates_streams() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(42, 0));
    }

    #[test]
    fn suite_is_deterministic_and_gated() {
        let (data, sens) = setup();
        let p = 3;
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let plan = AttackPlan::default();
        let targets = [
            AttackTarget::raw(),
            AttackTarget::release("cahd", &published),
        ];
        let a = run_attack_suite(&data, &sens, p, &targets, &plan, &Recorder::disabled());
        let b = run_attack_suite(&data, &sens, p, &targets, &plan, &Recorder::disabled());
        assert_eq!(a, b);
        assert!(posterior_violations(&a, p, plan.tolerance).is_empty());
        // The raw data on this fixture is catastrophically linkable, so
        // the raw curves must show real attack success somewhere.
        let raw_success: usize = a
            .curves
            .iter()
            .filter(|c| c.target == TARGET_RAW)
            .flat_map(|c| c.points.iter())
            .map(|pt| pt.successes)
            .sum();
        assert!(raw_success > 0, "{a:?}");
    }

    #[test]
    fn traced_suite_counters_balance() {
        let (data, sens) = setup();
        let p = 3;
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let plan = AttackPlan::default();
        let targets = [AttackTarget::release("cahd", &published)];
        let rec = Recorder::new();
        let report = run_attack_suite(&data, &sens, p, &targets, &plan, &rec);
        let trace = rec.snapshot();
        let c = |n: &str| trace.counter_or_zero(n);
        assert!(c("eval.attack_curve_points") > 0);
        assert!(c("eval.attack_successes") <= c("eval.attack_matches"));
        assert!(c("eval.attack_matches") <= c("eval.attack_trials"));
        assert!(c("eval.attack_unique_matches") <= c("eval.attack_trials"));
        assert_eq!(c("eval.attack_violations"), 0);
        assert!(posterior_violations(&report, p, plan.tolerance).is_empty());
        let children: Vec<&str> = trace
            .span_children("attack")
            .iter()
            .map(|s| s.path.as_str())
            .collect();
        assert_eq!(
            children,
            [
                "attack/background",
                "attack/index",
                "attack/intersection",
                "attack/linkage",
                "attack/vulnerable"
            ]
        );
        assert!(trace.orphan_spans().is_empty());
        assert!(trace.consistency_findings().is_empty());
    }

    #[test]
    fn attacker_subset_matches_full_run() {
        // Per-stream seeding: running one attacker alone reproduces the
        // same curve the full suite computes.
        let (data, sens) = setup();
        let p = 3;
        let (published, _) = cahd(&data, &sens, &CahdConfig::new(p)).unwrap();
        let targets = [
            AttackTarget::raw(),
            AttackTarget::release("cahd", &published),
        ];
        let full = run_attack_suite(
            &data,
            &sens,
            p,
            &targets,
            &AttackPlan::default(),
            &Recorder::disabled(),
        );
        let only = run_attack_suite(
            &data,
            &sens,
            p,
            &targets,
            &AttackPlan::default().with_attackers(vec![ATTACKER_BACKGROUND.to_string()]),
            &Recorder::disabled(),
        );
        let full_bg: Vec<&SuccessCurve> = full
            .curves
            .iter()
            .filter(|c| c.attacker == ATTACKER_BACKGROUND)
            .collect();
        let only_bg: Vec<&SuccessCurve> = only
            .curves
            .iter()
            .filter(|c| c.attacker == ATTACKER_BACKGROUND)
            .collect();
        assert_eq!(full_bg, only_bg);
    }
}
