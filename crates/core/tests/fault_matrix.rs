//! Deterministic fault-injection matrix for the recovery layer.
//!
//! Every fault mode the [`FaultPlan`] can express — worker panic, missed
//! deadline, corrupt input row — is driven across shards `{1, 4}` and
//! threads `{1, 8}` (plus `CAHD_TEST_THREADS` from the CI matrix). The
//! contract under test:
//!
//! * with an **empty** plan the recovering entry point is byte-identical
//!   to the plain sharded pipeline (recovery must be free when unused);
//! * every injected fault is recovered: the release is byte-identical to
//!   the clean run's, passes the full `cahd-check` registry (trace
//!   included) with zero diagnostics, and the recovery counters equal
//!   exactly what the plan predicts — no more, no less;
//! * seeded plans are reproducible, so the whole matrix is deterministic
//!   regardless of scheduling.

use cahd_check::{default_registry, CheckInput};
use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
use cahd_core::recovery::{silence_injected_panics, FaultPlan, RecoveryConfig, ShardFault};
use cahd_core::shard::{cahd_sharded, cahd_sharded_recovering, ParallelConfig};
use cahd_core::CahdConfig;
use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_obs::Recorder;

const P: usize = 4;
const N_ITEMS: usize = 12;

/// A fixed, feasible 64-row instance: enough mass per shard that even the
/// 4-shard split forms several groups, with sensitive items 9 and 11.
fn rows() -> Vec<Vec<ItemId>> {
    (0..64u32)
        .map(|i| {
            let mut row = vec![i % 7, 7 + (i / 7) % 2];
            if i % 16 == 0 {
                row.push(9);
            }
            if i % 21 == 5 {
                row.push(11);
            }
            row
        })
        .collect()
}

fn instance() -> (TransactionSet, SensitiveSet, CahdConfig) {
    let data = TransactionSet::from_rows(&rows(), N_ITEMS);
    let sens = SensitiveSet::new(vec![9, 11], N_ITEMS);
    (data, sens, CahdConfig::new(P))
}

/// The thread dimension: `{1, 8}` plus an optional CI override.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 8];
    if let Ok(v) = std::env::var("CAHD_TEST_THREADS") {
        if let Ok(extra) = v.trim().parse::<usize>() {
            if extra >= 1 && !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

#[test]
fn empty_plan_is_byte_identical_to_the_plain_pipeline() {
    let (data, sens, cfg) = instance();
    for shards in [1usize, 4] {
        for threads in thread_counts() {
            let par = ParallelConfig::new(shards, threads);
            let (plain, plain_stats) = cahd_sharded(&data, &sens, &cfg, &par).unwrap();
            let (recov, stats) = cahd_sharded_recovering(
                &data,
                &sens,
                &cfg,
                &par,
                &FaultPlan::none(),
                &Recorder::disabled(),
            )
            .unwrap();
            assert_eq!(plain, recov, "shards={shards} threads={threads}");
            assert_eq!(stats.recovered_shards, 0);
            assert_eq!(stats.merge_dissolved, plain_stats.merge_dissolved);
        }
    }
}

#[test]
fn every_shard_fault_mode_recovers_byte_identically() {
    silence_injected_panics();
    let (data, sens, cfg) = instance();
    // (plan builder, expected recovered shards) per fault mode and depth:
    // one failed attempt is retried, two exhaust the retry and fall back
    // to an uncaught rescan — both count as one recovery.
    let fault_cases: Vec<(FaultPlan, usize)> = vec![
        (
            FaultPlan::none().with_shard_fault(0, ShardFault::Panic, 1),
            1,
        ),
        (
            FaultPlan::none().with_shard_fault(0, ShardFault::Panic, 2),
            1,
        ),
        (
            FaultPlan::none().with_shard_fault(0, ShardFault::Deadline, 1),
            1,
        ),
        (
            FaultPlan::none().with_shard_fault(0, ShardFault::Deadline, 2),
            1,
        ),
        (
            FaultPlan::none()
                .with_shard_fault(0, ShardFault::Panic, 2)
                .with_shard_fault(3, ShardFault::Deadline, 1),
            2,
        ),
    ];
    for shards in [1usize, 4] {
        for threads in thread_counts() {
            let par = ParallelConfig::new(shards, threads);
            let (clean, _) = cahd_sharded(&data, &sens, &cfg, &par).unwrap();
            for (plan, expected) in &fault_cases {
                let expected = expected.min(&shards);
                let rec = Recorder::new();
                let (recovered, stats) =
                    cahd_sharded_recovering(&data, &sens, &cfg, &par, plan, &rec).unwrap();
                assert_eq!(
                    clean, recovered,
                    "shards={shards} threads={threads} plan={plan:?}"
                );
                assert_eq!(
                    stats.recovered_shards, *expected,
                    "shards={shards} threads={threads} plan={plan:?}"
                );
                assert_eq!(
                    rec.snapshot().counter("core.recovered_shards"),
                    Some(*expected as u64)
                );
            }
        }
    }
}

/// A shard whose two attempts both fail is rescanned with the same
/// kernel, so a recovered run records every `core.*` counter of the clean
/// run (the kernel's path counters included) plus `core.recovered_shards`.
/// The fixture's rows all clear the dense crossover of its one-word
/// universe, so a sparse-only fallback would zero the dense scores.
#[test]
fn a_recovered_shard_counts_like_a_healthy_one() {
    silence_injected_panics();
    let (data, sens, cfg) = instance();
    let counters = |rec: &Recorder| -> Vec<(String, u64)> {
        rec.snapshot()
            .counters
            .into_iter()
            .filter(|c| c.name.starts_with("core.") && c.name != "core.recovered_shards")
            .map(|c| (c.name, c.value))
            .collect()
    };
    for threads in thread_counts() {
        let par = ParallelConfig::new(4, threads);
        let clean_rec = Recorder::new();
        cahd_sharded_recovering(&data, &sens, &cfg, &par, &FaultPlan::none(), &clean_rec).unwrap();
        let clean = counters(&clean_rec);
        let dense = clean
            .iter()
            .find(|(name, _)| name == "core.kernel_dense_scores")
            .map_or(0, |&(_, v)| v);
        assert!(dense > 0, "the fixture must score dense: {clean:?}");
        for plan in [
            FaultPlan::none().with_shard_fault(0, ShardFault::Panic, 2),
            FaultPlan::none().with_shard_fault(0, ShardFault::Deadline, 2),
            FaultPlan::none()
                .with_shard_fault(1, ShardFault::Panic, 2)
                .with_shard_fault(3, ShardFault::Deadline, 2),
        ] {
            let rec = Recorder::new();
            cahd_sharded_recovering(&data, &sens, &cfg, &par, &plan, &rec).unwrap();
            assert_eq!(counters(&rec), clean, "threads={threads} plan={plan:?}");
            assert_eq!(
                rec.snapshot().counter("core.recovered_shards"),
                Some(plan.expected_recovered_shards(4) as u64)
            );
        }
    }
}

#[test]
fn corrupt_row_injection_quarantines_exactly_the_planned_rows() {
    silence_injected_panics();
    let (_, sens, _) = instance();
    let raw = rows();
    let plan = FaultPlan::none().with_corrupt_row(2).with_corrupt_row(5);
    for shards in [1usize, 4] {
        for threads in thread_counts() {
            let mut acfg = AnonymizerConfig::with_privacy_degree(P);
            if shards > 1 || threads > 1 {
                acfg = acfg.with_parallel(ParallelConfig::new(shards, threads));
            }
            let rec = Recorder::new();
            let robust = Anonymizer::new(acfg)
                .anonymize_rows(
                    raw.iter().map(Vec::as_slice),
                    &sens,
                    &RecoveryConfig::quarantine().with_plan(plan.clone()),
                    &rec,
                )
                .unwrap();
            assert_eq!(robust.quarantined, vec![2, 5], "shards={shards}");
            let trace = &rec.snapshot();
            assert_eq!(trace.counter("core.quarantined_rows"), Some(2));
            assert_eq!(
                robust.result.published.n_transactions(),
                raw.len(),
                "quarantined rows are still published"
            );
            // The full registry — recovery accounting included — is clean.
            let report = default_registry().run(
                &CheckInput {
                    data: &robust.data,
                    sensitive: &sens,
                    published: &robust.result.published,
                    p: P,
                    trace: Some(trace),
                    attack: None,
                },
                &cahd_obs::Recorder::disabled(),
            );
            assert!(
                report.is_clean(),
                "shards={shards} threads={threads}:\n{}",
                report.render_human()
            );
        }
    }
}

#[test]
fn combined_faults_still_produce_a_clean_auditable_release() {
    silence_injected_panics();
    let (_, sens, _) = instance();
    let raw = rows();
    let plan = FaultPlan::none()
        .with_shard_fault(0, ShardFault::Panic, 2)
        .with_shard_fault(2, ShardFault::Deadline, 1)
        .with_corrupt_row(7);
    for threads in thread_counts() {
        let rec = Recorder::new();
        let robust = Anonymizer::new(
            AnonymizerConfig::with_privacy_degree(P).with_parallel(ParallelConfig::new(4, threads)),
        )
        .anonymize_rows(
            raw.iter().map(Vec::as_slice),
            &sens,
            &RecoveryConfig::quarantine().with_plan(plan.clone()),
            &rec,
        )
        .unwrap();
        assert_eq!(robust.quarantined, vec![7]);
        assert_eq!(robust.recovered_shards, 2);
        let trace = &rec.snapshot();
        assert_eq!(trace.counter("core.recovered_shards"), Some(2));
        assert_eq!(trace.counter("core.quarantined_rows"), Some(1));
        let report = default_registry().run(
            &CheckInput {
                data: &robust.data,
                sensitive: &sens,
                published: &robust.result.published,
                p: P,
                trace: Some(trace),
                attack: None,
            },
            &cahd_obs::Recorder::disabled(),
        );
        assert!(
            report.is_clean(),
            "threads={threads}:\n{}",
            report.render_human()
        );
    }
}

#[test]
fn seeded_plans_make_the_matrix_reproducible() {
    silence_injected_panics();
    let (data, sens, cfg) = instance();
    for seed in [1u64, 7, 1234] {
        let plan = FaultPlan::seeded(seed, 4, data.n_transactions());
        assert_eq!(
            plan,
            FaultPlan::seeded(seed, 4, data.n_transactions()),
            "seeded plans are pure functions of their inputs"
        );
        let par = ParallelConfig::new(4, 2);
        let (clean, _) = cahd_sharded(&data, &sens, &cfg, &par).unwrap();
        let rec = Recorder::new();
        let (recovered, stats) =
            cahd_sharded_recovering(&data, &sens, &cfg, &par, &plan, &rec).unwrap();
        assert_eq!(clean, recovered, "seed={seed}");
        assert_eq!(
            stats.recovered_shards,
            plan.expected_recovered_shards(4),
            "seed={seed}"
        );
    }
}
