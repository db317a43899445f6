//! Duplicate-heavy inputs for the implicit row graph.
//!
//! Real click and query logs are mostly *twins*: identical transactions,
//! which have identical `A x A^T` neighborhoods. The implicit graph's
//! exact degree pass runs once per distinct row and expands the result
//! back to every twin. This suite checks that shortcut from outside,
//! against adjacency lists computed pair by pair from the rows, on
//! matrices where about half of the rows copy an earlier one:
//!
//! 1. **Degrees**: [`ParNeighborOracle::degree`] equals the oracle
//!    adjacency's list length for every row, under hub caps
//!    `{off, 1, 2, 5}` at every thread count — including empty rows,
//!    single-item rows and rows whose items are all over the cap.
//! 2. **Orders**: [`band_order_traced`] (and the engine with its parallel
//!    claim path forced onto every frontier) equals the literal Fig. 4
//!    transcription in `common/fig4.rs` — order, `rcm.components` and
//!    `rcm.bfs_levels` — on the same capped adjacency.
//!
//! The `CAHD_TEST_THREADS` environment variable (used by the CI matrix)
//! adds one more thread count to every sweep.

mod common;

use cahd_obs::Recorder;
use cahd_rcm::{band_order_traced, band_order_with, OrderingStrategy};
use cahd_sparse::{CsrMatrix, ImplicitRowGraph, ParNeighborOracle};
use common::fig4::{fig4, Traversal};
use common::{aat_adjacency, thread_counts};
use proptest::prelude::*;

/// The hub caps swept: off, and caps tight enough to skip most items of a
/// small matrix.
const HUB_CAPS: [Option<u32>; 4] = [None, Some(1), Some(2), Some(5)];

/// `A x A^T` under a hub cap, pair by pair: two rows are adjacent iff they
/// share an item held by at most `cap` rows.
fn capped_adjacency(a: &CsrMatrix, cap: Option<u32>) -> Vec<Vec<u32>> {
    let Some(cap) = cap else {
        return aat_adjacency(a);
    };
    let n = a.n_rows();
    let support = |item: &u32| (0..n).filter(|&r| a.row(r).contains(item)).count();
    (0..n)
        .map(|i| {
            (0..n as u32)
                .filter(|&j| {
                    j as usize != i
                        && a.row(i).iter().any(|item| {
                            a.row(j as usize).contains(item) && support(item) <= cap as usize
                        })
                })
                .collect()
        })
        .collect()
}

/// Checks degrees and orders of the implicit graph against the oracle
/// under every hub cap and thread count.
fn assert_twin_rows_match_oracle(a: &CsrMatrix) -> Result<(), String> {
    for hub_cap in HUB_CAPS {
        let adj = capped_adjacency(a, hub_cap);
        let want_rcm = fig4(&adj, Traversal::Cm);
        for threads in thread_counts(&[1, 2, 3, 8]) {
            let g = ImplicitRowGraph::with_options(a, hub_cap, threads);
            for (v, list) in adj.iter().enumerate() {
                prop_assert_eq!(
                    g.degree(v),
                    list.len(),
                    "row {} hub_cap={:?} threads={}",
                    v,
                    hub_cap,
                    threads
                );
            }
            // The production entry point, then the engine with its
            // parallel claim path forced onto every frontier.
            for forced in [false, true] {
                let rec = Recorder::new();
                let p = if forced {
                    band_order_with(&g, OrderingStrategy::Rcm, threads, 1, &rec)
                } else {
                    band_order_traced(&g, OrderingStrategy::Rcm, threads, &rec)
                };
                let ctx = format!("hub_cap={hub_cap:?} threads={threads} forced={forced}");
                prop_assert_eq!(p.new_to_old_slice(), &want_rcm.order[..], "{}", ctx);
                let report = rec.snapshot();
                prop_assert_eq!(
                    report.counter_or_zero("rcm.components"),
                    want_rcm.components,
                    "{}",
                    ctx
                );
                prop_assert_eq!(
                    report.counter_or_zero("rcm.bfs_levels"),
                    want_rcm.bfs_levels,
                    "{}",
                    ctx
                );
            }
        }
    }
    Ok(())
}

/// Random duplicate-heavy matrices: each row either copies an earlier row
/// (about half of them) or draws up to four items, so empty and
/// single-item rows are common, and a small item universe makes the
/// frequent items hubs under the swept caps.
fn arb_twin_matrix() -> impl Strategy<Value = CsrMatrix> {
    (
        1usize..10,
        proptest::collection::vec(
            (
                proptest::collection::vec(0u32..10, 0..5),
                AnyBool,
                0usize..1024,
            ),
            0..36,
        ),
    )
        .prop_map(|(d, specs)| {
            let mut rows: Vec<Vec<u32>> = Vec::with_capacity(specs.len());
            for (items, copy, pick) in specs {
                let row = if copy && !rows.is_empty() {
                    rows[pick % rows.len()].clone()
                } else {
                    items.iter().map(|&c| c % d as u32).collect()
                };
                rows.push(row);
            }
            CsrMatrix::from_rows(&rows, d)
        })
}

#[test]
fn twins_of_empty_single_item_and_all_hub_rows() {
    // Item 0 is a hub under every finite cap swept (support 8); rows 2
    // and 5 hold only item 0, so they have no neighbors once it is
    // capped, whatever their multiplicity. Rows 3 and 7 are empty twins.
    let rows: Vec<Vec<u32>> = vec![
        vec![0, 1],
        vec![0, 1],
        vec![0],
        vec![],
        vec![2],
        vec![0],
        vec![2],
        vec![],
        vec![0, 1],
        vec![0, 3],
        vec![0, 3],
        vec![0, 2],
    ];
    let a = CsrMatrix::from_rows(&rows, 4);
    if let Err(e) = assert_twin_rows_match_oracle(&a) {
        panic!("{e}");
    }
    let capped = ImplicitRowGraph::with_options(&a, Some(5), 1);
    assert_eq!(capped.degree(2), 0);
    assert_eq!(capped.degree(3), 0);
    // Uncapped, row 2 reaches every other holder of item 0.
    assert_eq!(ImplicitRowGraph::new(&a).degree(2), 7);
}

#[test]
fn all_rows_twins() {
    let a = CsrMatrix::from_rows(&vec![vec![1, 4]; 17], 5);
    if let Err(e) = assert_twin_rows_match_oracle(&a) {
        panic!("{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn duplicate_heavy_rows_match_the_oracle(a in arb_twin_matrix()) {
        assert_twin_rows_match_oracle(&a)?;
    }
}
