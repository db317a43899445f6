//! Representation-equivalence harness: the implicit (inverted-index)
//! `A x A^T` oracle against the explicit (materialized) one.
//!
//! The tentpole contract of the implicit-first ordering backend:
//!
//! 1. **Byte-identity across representations**: with the hub cap off,
//!    [`band_order_with`] over [`ImplicitRowGraph`] and over the explicit
//!    [`RowGraph`] both equal the literal Fig. 4 transcription
//!    (`common/fig4.rs`) run on the `A x A^T` adjacency computed pair by
//!    pair from the rows — same bytes — for strategies `{rcm, bfs}` at
//!    thread counts `{1, 8}` (plus `CAHD_TEST_THREADS`), with the
//!    parallel claim path forced onto every frontier (`frontier_min = 1`)
//!    and at the production threshold. The implicit oracle enumerates
//!    neighbors in posting-list order, not sorted order, so this proves
//!    the engine's canonical within-parent rule absorbs
//!    representation-defined enumeration order.
//! 2. **Counter invariance**: the `rcm.*` counters are identical across
//!    representations and thread counts (same level sets, same
//!    expansions), and the `sparse.implicit_*` build counters satisfy the
//!    `CAHD-O001` accounting identities.
//! 3. **End-to-end agreement**: [`reduce_unsymmetric`] forced explicit
//!    and forced implicit produce identical row and column permutations
//!    at every thread count (the pipeline-level byte-identity is also
//!    proven over full releases in `cahd-core`'s representation tests).
//!
//! The `CAHD_TEST_THREADS` environment variable (used by the CI
//! representation matrix) adds one more thread count to every sweep.

mod common;

use cahd_obs::Recorder;
use cahd_rcm::{
    band_order_with, OrderingStrategy, RowGraphMode, UnsymOptions, PARALLEL_FRONTIER_MIN,
};
use cahd_sparse::{CsrMatrix, ImplicitRowGraph, RowGraph};
use common::fig4::{fig4, Traversal};
use common::{aat_adjacency, thread_counts};
use proptest::prelude::*;

/// The two graph-traversal strategies the implicit backend serves, with
/// the oracle traversal of each.
const STRATEGIES: [(OrderingStrategy, Traversal); 2] = [
    (OrderingStrategy::Rcm, Traversal::Cm),
    (OrderingStrategy::Bfs, Traversal::Bfs),
];

/// Checks both representations of `a`'s row graph against the oracle at
/// every thread count and eligibility threshold.
fn assert_representations_match_fig4(a: &CsrMatrix) -> Result<(), String> {
    let adj = aat_adjacency(a);
    let ex = RowGraph::build_explicit(a);
    let im = ImplicitRowGraph::new(a);
    for (strategy, traversal) in STRATEGIES {
        let want = fig4(&adj, traversal).order;
        for threads in thread_counts(&[1, 8]) {
            for frontier_min in [1, PARALLEL_FRONTIER_MIN] {
                let rec = Recorder::disabled();
                for (name, p) in [
                    (
                        "explicit",
                        band_order_with(&ex, strategy, threads, frontier_min, &rec),
                    ),
                    (
                        "implicit",
                        band_order_with(&im, strategy, threads, frontier_min, &rec),
                    ),
                ] {
                    prop_assert_eq!(
                        p.new_to_old_slice(),
                        &want[..],
                        "{} {} threads={} frontier_min={}",
                        name,
                        strategy.name(),
                        threads,
                        frontier_min
                    );
                }
            }
        }
    }
    Ok(())
}

/// Random sparse binary matrices biased toward transaction-data shapes:
/// plain random rows, hub-heavy rows (a few very frequent items inducing
/// the k-clique blow-up), block-structured rows, and matrices with empty
/// rows.
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (
        0usize..4,
        1usize..24,
        proptest::collection::vec(proptest::collection::vec(0u32..24, 0..6), 0..32),
    )
        .prop_map(|(kind, n_cols, rows)| {
            let d = n_cols as u32;
            let shaped: Vec<Vec<u32>> = match kind {
                // Plain random rows (duplicates inside a row are fine:
                // CsrMatrix::from_rows dedups).
                0 => rows
                    .iter()
                    .map(|r| r.iter().map(|&c| c % d).collect())
                    .collect(),
                // Hub-heavy: every non-empty row also contains item 0.
                1 => rows
                    .iter()
                    .map(|r| {
                        let mut v: Vec<u32> = r.iter().map(|&c| c % d).collect();
                        if !v.is_empty() {
                            v.push(0);
                        }
                        v
                    })
                    .collect(),
                // Block-structured: row i draws from a d/2-wide block.
                2 => rows
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let half = (d / 2).max(1);
                        let base = if i % 2 == 0 { 0 } else { d - half };
                        r.iter().map(|&c| base + c % half).collect()
                    })
                    .collect(),
                // Leading empty rows (isolated vertices in the row graph).
                _ => {
                    let mut v: Vec<Vec<u32>> = vec![Vec::new(); 3];
                    v.extend(
                        rows.iter()
                            .map(|r| r.iter().map(|&c| c % d).collect::<Vec<u32>>()),
                    );
                    v
                }
            };
            CsrMatrix::from_rows(&shaped, n_cols)
        })
}

#[test]
fn clique_heavy_rows_match_fig4() {
    // Rows share items heavily, so the implicit enumeration order differs
    // wildly from the explicit (sorted) order: the canonical within-parent
    // sort must absorb the difference for both strategies.
    let rows: Vec<Vec<u32>> = (0..40u32)
        .map(|i| vec![i % 4, 4 + i % 7, 11 + (i / 3) % 5])
        .collect();
    if let Err(e) = assert_representations_match_fig4(&CsrMatrix::from_rows(&rows, 16)) {
        panic!("{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn both_representations_are_byte_identical_to_fig4(a in arb_matrix()) {
        assert_representations_match_fig4(&a)?;
    }

    #[test]
    fn rcm_counters_are_representation_and_thread_invariant(a in arb_matrix()) {
        for (strategy, _) in STRATEGIES {
            let ex = RowGraph::build_explicit(&a);
            let im = ImplicitRowGraph::new(&a);
            let mut seen: Option<(u64, u64, u64, u64, u64)> = None;
            for threads in thread_counts(&[1, 8]) {
                for explicit in [true, false] {
                    let rec = Recorder::new();
                    if explicit {
                        band_order_with(&ex, strategy, threads, 2, &rec);
                    } else {
                        band_order_with(&im, strategy, threads, 2, &rec);
                    }
                    let report = rec.snapshot();
                    let counter = |c: &str| report.counter_or_zero(c);
                    let tuple = (
                        counter("rcm.components"),
                        counter("rcm.bfs_levels"),
                        counter("rcm.levels"),
                        counter("rcm.frontier_parallel"),
                        counter("rcm.frontier_sequential"),
                    );
                    prop_assert_eq!(
                        tuple.3 + tuple.4, tuple.2,
                        "split identity, explicit={} threads={}", explicit, threads
                    );
                    prop_assert!(
                        tuple.2 >= tuple.1,
                        "levels >= bfs_levels, explicit={} threads={}", explicit, threads
                    );
                    if let Some(prev) = seen {
                        prop_assert_eq!(
                            prev, tuple,
                            "counters drifted (explicit={} threads={})", explicit, threads
                        );
                    }
                    seen = Some(tuple);
                }
            }
        }
    }

    #[test]
    fn implicit_build_counters_satisfy_o001_identities(a in arb_matrix()) {
        for (hub_cap, threads) in [(None, 1usize), (None, 8), (Some(3u32), 1), (Some(3), 8)] {
            let rec = Recorder::new();
            let rg = RowGraph::build_mode_traced(
                &a,
                RowGraphMode::Implicit,
                usize::MAX,
                hub_cap,
                threads,
                &rec,
            );
            prop_assert!(!rg.is_explicit());
            let report = rec.snapshot();
            let counter = |c: &str| report.counter_or_zero(c);
            prop_assert_eq!(counter("sparse.implicit_builds"), 1);
            // Every nonzero lands on exactly one side of the hub cap.
            prop_assert_eq!(
                counter("sparse.implicit_postings") + counter("sparse.implicit_capped_postings"),
                counter("sparse.aat_nnz"),
                "posting split, hub_cap={:?} threads={}", hub_cap, threads
            );
            prop_assert!(
                counter("sparse.implicit_capped_postings") >= counter("sparse.implicit_hub_items"),
                "a hub item caps at least one posting"
            );
            prop_assert_eq!(
                counter("sparse.implicit_capped_postings") > 0,
                counter("sparse.implicit_hub_items") > 0,
                "capped postings and hub items appear together"
            );
            if hub_cap.is_none() {
                prop_assert_eq!(counter("sparse.implicit_hub_items"), 0);
            }
            // Explicit-build counters never appear on the implicit path.
            prop_assert_eq!(counter("sparse.aat_edges"), 0);
        }
    }

    #[test]
    fn reductions_agree_end_to_end_across_representations(a in arb_matrix()) {
        for (strategy, _) in STRATEGIES {
            let mut reference: Option<cahd_rcm::BandReduction> = None;
            for threads in thread_counts(&[1, 8]) {
                for mode in [RowGraphMode::Explicit, RowGraphMode::Implicit] {
                    let red = cahd_rcm::reduce_unsymmetric(
                        &a,
                        UnsymOptions {
                            threads,
                            ordering: strategy,
                            rowgraph: mode,
                            ..Default::default()
                        }, &Recorder::disabled());
                    prop_assert_eq!(
                        red.used_explicit_aat,
                        mode == RowGraphMode::Explicit,
                        "mode not honored"
                    );
                    if let Some(r) = &reference {
                        prop_assert_eq!(
                            r.row_perm.new_to_old_slice(),
                            red.row_perm.new_to_old_slice(),
                            "row perm drifted: {} mode={:?} threads={}",
                            strategy.name(), mode, threads
                        );
                        prop_assert_eq!(
                            r.band_stats(&a).col_perm(),
                            red.band_stats(&a).col_perm(),
                            "col perm drifted: {} mode={:?} threads={}",
                            strategy.name(), mode, threads
                        );
                    } else {
                        reference = Some(red);
                    }
                }
            }
        }
    }
}
