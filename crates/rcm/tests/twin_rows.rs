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
//!    adjacency's list length and the stamped twin-class pass in
//!    `common/stamped_degrees.rs` for every row, under hub caps
//!    `{off, 1, 2, 5}` at every thread count — including empty rows,
//!    single-item rows, rows whose items are all over the cap, inputs
//!    with more multiplicity tiers than a word has bits, and twin-free
//!    inputs.
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
use common::stamped_degrees::stamped_degrees;
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
    let mut support = vec![0usize; a.n_cols()];
    for r in 0..n {
        for &item in a.row(r) {
            support[item as usize] += 1;
        }
    }
    (0..n)
        .map(|i| {
            (0..n as u32)
                .filter(|&j| {
                    j as usize != i
                        && a.row(i).iter().any(|&item| {
                            a.row(j as usize).contains(&item)
                                && support[item as usize] <= cap as usize
                        })
                })
                .collect()
        })
        .collect()
}

/// Checks the implicit graph's degrees against the capped adjacency's list
/// lengths and the stamped twin-class pass at every thread count.
fn assert_degrees_match(
    a: &CsrMatrix,
    hub_cap: Option<u32>,
    adj: &[Vec<u32>],
) -> Result<(), String> {
    let stamped = stamped_degrees(a, hub_cap);
    for (v, list) in adj.iter().enumerate() {
        prop_assert_eq!(
            stamped[v] as usize,
            list.len(),
            "stamped row {} hub_cap={:?}",
            v,
            hub_cap
        );
    }
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
    }
    Ok(())
}

/// Checks degrees and orders of the implicit graph against the oracle
/// under every hub cap and thread count.
fn assert_twin_rows_match_oracle(a: &CsrMatrix) -> Result<(), String> {
    for hub_cap in HUB_CAPS {
        let adj = capped_adjacency(a, hub_cap);
        assert_degrees_match(a, hub_cap, &adj)?;
        let want_rcm = fig4(&adj, Traversal::Cm);
        for threads in thread_counts(&[1, 2, 3, 8]) {
            let g = ImplicitRowGraph::with_options(a, hub_cap, threads);
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

/// `rows` as a matrix over `d` items, taken with a stride of 7 (a prime,
/// so every row is taken once when 7 does not divide their count): twins
/// end up scattered over the matrix instead of side by side.
fn scattered(rows: &[Vec<u32>], d: usize) -> CsrMatrix {
    let n = rows.len();
    assert_ne!(n % 7, 0);
    let shuffled: Vec<Vec<u32>> = (0..n).map(|i| rows[i * 7 % n].clone()).collect();
    CsrMatrix::from_rows(&shuffled, d)
}

#[test]
fn many_multiplicity_tiers_match_the_oracle() {
    // 67 multiplicity tiers, more than the bits of a word, each with
    // words of its own, weighted by its own multiplicity:
    // - multiplicity 1: 150 classes {1, 400 + j}, filling words 0..=2,
    //   so item 1 is a dense set across two word boundaries; class 149
    //   also holds item 2;
    // - multiplicities 2..=66: one class {300 + m} each, in word m + 1,
    //   plus item 3 for even m (a dense set over 65 words), item 4 for m
    //   divisible by 7 (a sparse set) and item 2 for m = 66, so item 2's
    //   two positions sit 65 words apart;
    // - multiplicity 67: empty rows, in word 68.
    // Under the swept caps items 1 to 4 are hubs, and every class with
    // m > cap is all-hub.
    let mut rows: Vec<Vec<u32>> = (0..150u32)
        .map(|j| {
            if j == 149 {
                vec![1, 2, 400 + j]
            } else {
                vec![1, 400 + j]
            }
        })
        .collect();
    for m in 2..=66u32 {
        let mut class = vec![300 + m];
        if m % 2 == 0 {
            class.push(3);
        }
        if m % 7 == 0 {
            class.push(4);
        }
        if m == 66 {
            class.push(2);
        }
        class.sort_unstable();
        rows.extend(std::iter::repeat_n(class, m as usize));
    }
    rows.extend(std::iter::repeat_n(Vec::new(), 67));
    let a = scattered(&rows, 550);
    for hub_cap in HUB_CAPS {
        assert_degrees_match(&a, hub_cap, &capped_adjacency(&a, hub_cap)).unwrap();
    }
}

#[test]
fn twin_free_rows_match_the_oracle() {
    // Every row distinct, so each row is its own class and the sparse
    // sets borrow the row postings: item 0 sits in rows 0 and 299 only
    // (sparse), item 1 in every third row (dense), item 2 in rows 60..140
    // (dense, across a word boundary), plus one singleton item per row.
    let rows: Vec<Vec<u32>> = (0..300u32)
        .map(|j| {
            let mut row = vec![10 + j];
            if j == 0 || j == 299 {
                row.push(0);
            }
            if j % 3 == 0 {
                row.push(1);
            }
            if (60..140).contains(&j) {
                row.push(2);
            }
            row.sort_unstable();
            row
        })
        .collect();
    let a = CsrMatrix::from_rows(&rows, 310);
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
