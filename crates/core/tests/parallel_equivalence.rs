//! Sequential-equivalence harness for the sharded parallel pipeline.
//!
//! Three properties, over random feasible instances with `p in {2, 4, 8}`
//! and `alpha in {2, 3}`:
//!
//! 1. `shards = 1` is **byte-identical** to the sequential [`cahd`] —
//!    the parallel entry point is a strict superset, not a fork;
//! 2. any `shards >= 2` release passes the full `verify_all` gate with
//!    zero error-severity diagnostics from the `cahd-check` registry;
//! 3. the output is a function of the shard count only — every thread
//!    count in `{1, 2, 8}` produces the identical release
//!    (scheduling-independence).
//!
//! The `CAHD_TEST_THREADS` environment variable (used by the CI matrix)
//! adds one more thread count to every determinism sweep, so both a serial
//! and a heavily parallel schedule exercise the same assertions.

use cahd_check::{default_registry, CheckInput};
use cahd_core::cahd::cahd;
use cahd_core::shard::{cahd_sharded, ParallelConfig};
use cahd_core::verify::verify_all;
use cahd_core::CahdConfig;
use cahd_data::{SensitiveSet, TransactionSet};
use proptest::prelude::*;

/// Thread counts every determinism check sweeps: the fixed `{1, 2, 8}` of
/// the harness spec plus an optional override from `CAHD_TEST_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(v) = std::env::var("CAHD_TEST_THREADS") {
        if let Ok(extra) = v.trim().parse::<usize>() {
            if extra >= 1 && !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

/// A random dataset, sensitive set and config with `p in {2,4,8}` and
/// `alpha in {2,3}` (the harness matrix from the issue).
fn arb_instance() -> impl Strategy<Value = (TransactionSet, SensitiveSet, CahdConfig)> {
    (12usize..72, 6usize..16, 0usize..3, 2usize..4).prop_flat_map(|(n, d, p_idx, alpha)| {
        let p = [2usize, 4, 8][p_idx];
        (
            proptest::collection::vec(proptest::collection::vec(0..d as u32, 1..6), n..=n),
            proptest::collection::btree_set(0..d as u32, 1..3),
            Just(d),
            Just(p),
            Just(alpha),
        )
            .prop_map(|(rows, sens_items, d, p, alpha)| {
                let data = TransactionSet::from_rows(&rows, d);
                let sens = SensitiveSet::new(sens_items.into_iter().collect(), d);
                (data, sens, CahdConfig::new(p).with_alpha(alpha))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_shard_is_byte_identical_to_sequential(
        (data, sens, cfg) in arb_instance(),
    ) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * cfg.p <= data.n_transactions()));
        let (seq, seq_stats) = cahd(&data, &sens, &cfg).unwrap();
        for threads in thread_counts() {
            let (shd, stats) =
                cahd_sharded(&data, &sens, &cfg, &ParallelConfig::new(1, threads)).unwrap();
            // Byte-identical: same groups, same members, same summaries.
            prop_assert_eq!(&seq, &shd, "threads={}", threads);
            prop_assert_eq!(stats.cahd.groups_formed, seq_stats.groups_formed);
            prop_assert_eq!(stats.merge_dissolved, 0);
        }
    }

    #[test]
    fn sharded_releases_verify_with_zero_error_diagnostics(
        (data, sens, cfg) in arb_instance(),
        shards in 2usize..9,
    ) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * cfg.p <= data.n_transactions()));
        let (published, stats) =
            cahd_sharded(&data, &sens, &cfg, &ParallelConfig::new(shards, 2)).unwrap();
        // The independent collect-all verifier finds nothing.
        let errors = verify_all(&data, &sens, &published, cfg.p);
        prop_assert!(errors.is_empty(), "shards={}: {:?}", shards, errors);
        // ... and the full check registry (including the CAHD-P002
        // shard-merge pass) reports zero error-severity diagnostics.
        let report = default_registry().run(&CheckInput {
            data: &data,
            sensitive: &sens,
            published: &published,
            p: cfg.p,
            trace: None,
            attack: None,
        }, &cahd_obs::Recorder::disabled());
        prop_assert!(
            report.is_clean(),
            "shards={}:\n{}",
            shards,
            report.render_human()
        );
        // Stats stay coherent with the release.
        let shard_cap = shards.min(data.n_transactions());
        prop_assert_eq!(stats.shard_groups.len(), shard_cap);
        prop_assert_eq!(published.n_transactions(), data.n_transactions());
    }

    #[test]
    fn output_is_independent_of_thread_count(
        (data, sens, cfg) in arb_instance(),
        shards in 2usize..9,
    ) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * cfg.p <= data.n_transactions()));
        let par1 = ParallelConfig::new(shards, 1);
        let (base, base_stats) = cahd_sharded(&data, &sens, &cfg, &par1).unwrap();
        for threads in thread_counts() {
            let par = ParallelConfig::new(shards, threads);
            let (out, stats) = cahd_sharded(&data, &sens, &cfg, &par).unwrap();
            prop_assert_eq!(&base, &out, "threads={}", threads);
            prop_assert_eq!(&base_stats.shard_groups, &stats.shard_groups);
            prop_assert_eq!(base_stats.merge_dissolved, stats.merge_dissolved);
        }
    }
}
