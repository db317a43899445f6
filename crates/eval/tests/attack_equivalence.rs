//! Cross-schedule equivalence properties of the adversary suite
//! (`docs/ATTACKS.md`, "Determinism contract").
//!
//! Three properties, 256 proptest cases each:
//!
//! 1. every release format we publish — CAHD at shards {1, 4} ×
//!    threads {1, 8}, PermMondrian, Anatomy — stays within the `1/p`
//!    posterior bound under every attacker the suite runs;
//! 2. a fixed-seed [`cahd_eval::AttackReport`] serializes to the same
//!    bytes regardless of the thread count the release was built with;
//! 3. the raw-data attack weakly dominates the release attack: the
//!    release's verbatim QID rows are a permutation of the raw rows, so
//!    re-identification counts are *equal* for the same seed, while the
//!    sensitive-item posterior drops from 1.0 to at most `1/p`.

use cahd_baselines::{perm_mondrian, random_grouping, PmConfig};
use cahd_core::shard::{cahd_sharded, ParallelConfig};
use cahd_core::{CahdConfig, PublishedDataset};
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_eval::adversary::background::background_point;
use cahd_eval::adversary::index::{Population, TargetIndex};
use cahd_eval::adversary::{ATTACKER_INTERSECTION, TARGET_RAW};
use cahd_eval::{posterior_violations, run_attack_suite, AttackPlan, AttackTarget};
use cahd_obs::Recorder;
use proptest::prelude::*;

const UNIVERSE: usize = 10;
const SENSITIVE_ITEM: u32 = 9;

fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..10, 1..5), 10..26)
}

/// A small plan keeps each case cheap; everything else is the committed
/// default, so these tests exercise the same configuration `CAHD-A001`
/// replays.
fn plan(seed: u64) -> AttackPlan {
    AttackPlan {
        seed,
        ks: vec![1, 2],
        trials: 24,
        ..AttackPlan::default()
    }
}

/// Every release format the workspace can publish for `(data, sens, p)`,
/// with the CAHD pipeline run at the given thread count.
fn all_releases(
    data: &TransactionSet,
    sens: &SensitiveSet,
    p: usize,
    threads: usize,
    seed: u64,
) -> Vec<(String, PublishedDataset)> {
    let mut releases = Vec::new();
    for shards in [1usize, 4] {
        let (release, _) = cahd_sharded(
            data,
            sens,
            &CahdConfig::new(p),
            &ParallelConfig::new(shards, threads),
        )
        .unwrap();
        releases.push((format!("cahd_s{shards}"), release));
    }
    releases.push((
        "pm".to_string(),
        perm_mondrian(data, sens, &PmConfig::new(p)).unwrap().0,
    ));
    releases.push((
        "anatomy".to_string(),
        random_grouping(data, sens, p, seed).unwrap(),
    ));
    releases
}

fn attack_all(
    data: &TransactionSet,
    sens: &SensitiveSet,
    p: usize,
    releases: &[(String, PublishedDataset)],
    seed: u64,
) -> cahd_eval::AttackReport {
    let targets: Vec<AttackTarget<'_>> = std::iter::once(AttackTarget::raw())
        .chain(
            releases
                .iter()
                .map(|(name, release)| AttackTarget::release(name, release)),
        )
        .collect();
    run_attack_suite(data, sens, p, &targets, &plan(seed), &Recorder::disabled())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_release_format_stays_within_the_bound(
        rows in arb_rows(),
        p in 2usize..4,
        seed in 0u64..(1 << 32),
    ) {
        let data = TransactionSet::from_rows(&rows, UNIVERSE);
        let sens = SensitiveSet::new(vec![SENSITIVE_ITEM], UNIVERSE);
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts[0] >= 1 && counts[0] * p <= data.n_transactions());

        // Thread count must not matter (property 2 proves it bit-for-bit);
        // here the wide schedule gets attacked so both layouts see coverage.
        let releases = all_releases(&data, &sens, p, 8, seed);
        let report = attack_all(&data, &sens, p, &releases, seed);

        let gate = posterior_violations(&report, p, 1e-9);
        prop_assert!(gate.is_empty(), "gate violations: {gate:?}");

        // Belt and braces: walk the curves directly instead of trusting
        // the gate helper's exemption bookkeeping.
        let bound = 1.0 / p as f64 + 1e-9;
        for curve in &report.curves {
            if curve.target == TARGET_RAW || curve.attacker == ATTACKER_INTERSECTION {
                continue;
            }
            for point in &curve.points {
                prop_assert!(
                    point.max_posterior <= bound,
                    "{} on {} at k={}: posterior {} exceeds 1/{}",
                    curve.attacker, curve.target, point.k, point.max_posterior, p
                );
            }
        }
        for scan in &report.vulnerable {
            if scan.target != TARGET_RAW {
                prop_assert!(
                    scan.max_posterior <= bound,
                    "vulnerable scan on {}: posterior {} exceeds 1/{}",
                    scan.target, scan.max_posterior, p
                );
            }
        }
    }

    #[test]
    fn fixed_seed_reports_are_byte_identical_across_thread_counts(
        rows in arb_rows(),
        p in 2usize..4,
        seed in 0u64..(1 << 32),
    ) {
        let data = TransactionSet::from_rows(&rows, UNIVERSE);
        let sens = SensitiveSet::new(vec![SENSITIVE_ITEM], UNIVERSE);
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts[0] >= 1 && counts[0] * p <= data.n_transactions());

        let serialized: Vec<String> = [1usize, 8]
            .iter()
            .map(|&threads| {
                let releases = all_releases(&data, &sens, p, threads, seed);
                let report = attack_all(&data, &sens, p, &releases, seed);
                serde_json::to_string(&report).unwrap()
            })
            .collect();
        prop_assert_eq!(
            &serialized[0], &serialized[1],
            "attack report bytes differ between 1 and 8 pipeline threads"
        );
    }

    #[test]
    fn raw_attack_weakly_dominates_the_release_attack(
        rows in arb_rows(),
        p in 2usize..4,
        seed in 0u64..(1 << 32),
    ) {
        let data = TransactionSet::from_rows(&rows, UNIVERSE);
        let sens = SensitiveSet::new(vec![SENSITIVE_ITEM], UNIVERSE);
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts[0] >= 1 && counts[0] * p <= data.n_transactions());

        let (release, _) = cahd_sharded(
            &data,
            &sens,
            &CahdConfig::new(p),
            &ParallelConfig::new(1, 1),
        )
        .unwrap();
        let plan = plan(seed);
        let population = Population::new(&data, &sens);
        let raw_index = TargetIndex::new(&population, None);
        let release_index = TargetIndex::new(&population, Some(&release));
        for &k in &[1usize, 2, 3] {
            let raw = background_point(&raw_index, k, &plan, seed);
            let rel = background_point(&release_index, k, &plan, seed);
            // The release publishes QID rows verbatim — a permutation of
            // the raw rows — so the score multiset, the eccentricity test
            // and the claimed row's content coincide trial for trial.
            // Equality is the strongest form of weak dominance.
            prop_assert_eq!(raw.matches, rel.matches, "matches diverge at k={}", k);
            prop_assert_eq!(raw.successes, rel.successes, "successes diverge at k={}", k);
            prop_assert_eq!(
                raw.unique_matches, rel.unique_matches,
                "unique matches diverge at k={}", k
            );
            // What a successful claim *discloses* is where anonymization
            // bites: 1.0 on raw data, at most 1/p on the release.
            prop_assert!(raw.max_posterior <= 1.0 + 1e-12);
            prop_assert!(
                rel.max_posterior <= 1.0 / p as f64 + 1e-9,
                "release posterior {} exceeds 1/{} at k={}",
                rel.max_posterior, p, k
            );
        }
    }
}
