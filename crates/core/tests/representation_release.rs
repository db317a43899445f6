//! Release-level representation equivalence: the full pipeline (RCM band
//! reorganization + CAHD group formation) publishes byte-identical
//! releases whether the `A x A^T` row graph is materialized or evaluated
//! implicitly through the inverted index, at every thread count, for
//! both graph-traversal strategies. The representation — like the
//! similarity kernel — moves time and memory, never output.
//!
//! `CAHD_TEST_THREADS` (used by the CI representation matrix) adds one
//! more thread count to the sweep, mirroring `kernel_equivalence.rs`.

use cahd_core::pipeline::{Anonymizer, AnonymizerConfig};
use cahd_core::shard::ParallelConfig;
use cahd_core::CahdConfig;
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_rcm::{OrderingStrategy, RowGraphMode};
use proptest::prelude::*;

/// Thread counts the sweep covers, plus the CI override.
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

/// A random feasible instance: rows over a modest universe, a sensitive
/// set, `p in {2, 4}`.
fn arb_instance() -> impl Strategy<Value = (TransactionSet, SensitiveSet, usize)> {
    (24usize..64, 8usize..20, 0usize..2).prop_flat_map(|(n, d, p_idx)| {
        let p = [2usize, 4][p_idx];
        (
            proptest::collection::vec(proptest::collection::vec(0..d as u32, 1..6), n..=n),
            proptest::collection::btree_set(0..d as u32, 1..3),
        )
            .prop_map(move |(rows, sens_items)| {
                let data = TransactionSet::from_rows(&rows, d);
                let sens = SensitiveSet::new(sens_items.into_iter().collect(), d);
                (data, sens, p)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn release_is_byte_identical_across_representations_and_threads(
        (data, sens, p) in arb_instance(),
    ) {
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * p <= data.n_transactions()));
        prop_assume!(counts.iter().any(|&c| c > 0));
        for strategy in [OrderingStrategy::Rcm, OrderingStrategy::Bfs] {
            let mut reference_json: Option<String> = None;
            for threads in thread_counts() {
                for mode in [RowGraphMode::Explicit, RowGraphMode::Implicit] {
                    let mut cfg = AnonymizerConfig::with_privacy_degree(p)
                        .with_ordering(strategy)
                        .with_rowgraph(mode);
                    cfg.cahd = CahdConfig::new(p);
                    if threads > 1 {
                        cfg = cfg.with_parallel(ParallelConfig::new(1, threads));
                    }
                    let res = Anonymizer::new(cfg).anonymize(&data, &sens).unwrap();
                    let band = res.band.as_ref().expect("RCM phase ran");
                    prop_assert_eq!(
                        band.used_explicit_aat,
                        mode == RowGraphMode::Explicit,
                        "representation not honored: {:?}", mode
                    );
                    let json = serde_json::to_string(&res.published).unwrap();
                    if let Some(want) = &reference_json {
                        prop_assert_eq!(
                            want, &json,
                            "release drifted: {} mode={:?} threads={}",
                            strategy.name(), mode, threads
                        );
                    } else {
                        reference_json = Some(json);
                    }
                }
            }
        }
    }
}
