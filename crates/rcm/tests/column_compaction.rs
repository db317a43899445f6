//! On a universe wider than twice its non-zeros, the band reduction works
//! in the touched columns' own space ([`CsrMatrix::compact_columns`]);
//! otherwise it works on the matrix as is. This suite checks that both
//! compute exactly what the full-width computation does, on universes of
//! 15 items (mostly the uncompacted path), 1000 and 2²¹ (compacted):
//!
//! 1. `col_perm()` and `order_columns` equal the dense reference below;
//! 2. the `before`/`after` band statistics equal the dense reference bit
//!    for bit;
//! 3. the row permutation equals the Fig. 4 oracle run on the adjacency
//!    of the *uncompacted* matrix;
//! 4. the `sparse.*` row-graph counters are the same whether the graph is
//!    built on the matrix or on its compaction, hub cap on or off.
//!
//! The reference is the dense, O(d) column ordering and band statistics
//! written out over the full universe; it shares no code with the crate.

mod common;

use cahd_obs::Recorder;
use cahd_rcm::unsym::order_columns;
use cahd_rcm::{reduce_unsymmetric, ColumnOrder, UnsymOptions};
use cahd_sparse::{CsrMatrix, Permutation, RectBandStats, RowGraph, RowGraphMode};
use common::aat_adjacency;
use common::fig4::{fig4, Traversal};
use proptest::prelude::*;

/// Columns by the mean permuted row position of their non-zeros, empty
/// columns last, ties by id — over every one of the `d` columns.
fn dense_order_columns(a: &CsrMatrix, row_perm: &Permutation) -> Permutation {
    let d = a.n_cols();
    let mut key: Vec<(f64, u32)> = (0..d as u32).map(|j| (f64::INFINITY, j)).collect();
    let mut sum = vec![0f64; d];
    let mut cnt = vec![0u32; d];
    for r in 0..a.n_rows() {
        let pos = row_perm.old_to_new(r);
        for &c in a.row(r) {
            let c = c as usize;
            sum[c] += pos as f64;
            cnt[c] += 1;
        }
    }
    for j in 0..d {
        if cnt[j] > 0 {
            key[j].0 = sum[j] / cnt[j] as f64;
        }
    }
    key.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let order: Vec<u32> = key.into_iter().map(|(_, j)| j).collect();
    Permutation::from_new_to_old(order).unwrap()
}

/// Row-span and scaled diagonal-distance statistics of `a` under a row
/// and a column permutation.
fn dense_band_stats(
    a: &CsrMatrix,
    row_perm: &Permutation,
    col_perm: &Permutation,
) -> RectBandStats {
    let n = a.n_rows().max(1) as f64;
    let d = a.n_cols().max(1) as f64;
    let scale = a.n_rows().max(a.n_cols()) as f64;
    let (mut max_row_span, mut span_sum, mut span_rows) = (0usize, 0u64, 0u64);
    let (mut max_diag, mut diag_sum, mut nnz) = (0f64, 0f64, 0u64);
    for r in 0..a.n_rows() {
        let row = a.row(r);
        if row.is_empty() {
            continue;
        }
        let rpos = row_perm.old_to_new(r);
        let (mut min_c, mut max_c) = (usize::MAX, 0usize);
        for &c in row {
            let cpos = col_perm.old_to_new(c as usize);
            min_c = min_c.min(cpos);
            max_c = max_c.max(cpos);
            let dist = ((rpos as f64 / n) - (cpos as f64 / d)).abs() * scale;
            max_diag = max_diag.max(dist);
            diag_sum += dist;
            nnz += 1;
        }
        let span = max_c - min_c;
        max_row_span = max_row_span.max(span);
        span_sum += span as u64;
        span_rows += 1;
    }
    RectBandStats {
        max_row_span,
        mean_row_span: if span_rows == 0 {
            0.0
        } else {
            span_sum as f64 / span_rows as f64
        },
        max_diag_distance: max_diag.round() as usize,
        mean_diag_distance: if nnz == 0 { 0.0 } else { diag_sum / nnz as f64 },
    }
}

const UNIVERSES: [usize; 3] = [15, 1000, 1 << 21];

/// Random rows over a universe of 15, 1000 or 2²¹ items. The rows draw
/// from a pool of up to 24 item ids scattered over the universe (so rows
/// share items even in the widest one), and the pool holds the last
/// column `d - 1` half of the time.
fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (
        0usize..UNIVERSES.len(),
        proptest::collection::vec(0u32..u32::MAX, 1..24),
        AnyBool,
        proptest::collection::vec(proptest::collection::vec(0usize..24, 0..6), 0..30),
    )
        .prop_map(|(u, seeds, with_last, picks)| {
            let d = UNIVERSES[u];
            let mut pool: Vec<u32> = seeds.iter().map(|&s| s % d as u32).collect();
            if with_last {
                pool[0] = d as u32 - 1;
            }
            let rows: Vec<Vec<u32>> = picks
                .iter()
                .map(|row| row.iter().map(|&i| pool[i % pool.len()]).collect())
                .collect();
            CsrMatrix::from_rows(&rows, d)
        })
}

/// The `sparse.*` counters of one row-graph build.
fn sparse_counters(a: &CsrMatrix, mode: RowGraphMode, hub_cap: Option<u32>) -> Vec<(String, u64)> {
    let rec = Recorder::new();
    drop(RowGraph::build_mode_traced(
        a,
        mode,
        RowGraph::DEFAULT_EDGE_BUDGET,
        hub_cap,
        1,
        &rec,
    ));
    rec.snapshot()
        .counters
        .into_iter()
        .filter(|c| c.name.starts_with("sparse."))
        .map(|c| (c.name, c.value))
        .collect()
}

fn bits(s: &RectBandStats) -> (usize, u64, usize, u64) {
    (
        s.max_row_span,
        s.mean_row_span.to_bits(),
        s.max_diag_distance,
        s.mean_diag_distance.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compacted_reduction_matches_the_dense_reference(a in arb_matrix()) {
        let reduce = |rowgraph| reduce_unsymmetric(&a, UnsymOptions { rowgraph, ..Default::default() });
        let explicit = reduce(RowGraphMode::Explicit);
        let implicit = reduce(RowGraphMode::Implicit);
        prop_assert_eq!(&explicit.row_perm, &implicit.row_perm);
        let want = fig4(&aat_adjacency(&a), Traversal::Cm).order;
        prop_assert_eq!(explicit.row_perm.new_to_old_slice(), &want[..]);
        let row_perm = &explicit.row_perm;
        let want_cols = dense_order_columns(&a, row_perm);
        prop_assert_eq!(&order_columns(&a, row_perm, ColumnOrder::MeanRowPos), &want_cols);
        let id_rows = Permutation::identity(a.n_rows());
        let id_cols = Permutation::identity(a.n_cols());
        let want_before = bits(&dense_band_stats(&a, &id_rows, &id_cols));
        let want_after = bits(&dense_band_stats(&a, row_perm, &want_cols));
        for red in [&explicit, &implicit] {
            prop_assert_eq!(&red.col_perm(), &want_cols);
            prop_assert_eq!(bits(&red.before), want_before);
            prop_assert_eq!(bits(&red.after), want_after);
        }
    }

    #[test]
    fn row_graph_counters_ignore_empty_columns(a in arb_matrix()) {
        let (compact, _) = a.compact_columns();
        for (mode, hub_cap) in [
            (RowGraphMode::Explicit, None),
            (RowGraphMode::Implicit, None),
            (RowGraphMode::Implicit, Some(1)),
            (RowGraphMode::Implicit, Some(3)),
        ] {
            prop_assert_eq!(
                sparse_counters(&a, mode, hub_cap),
                sparse_counters(&compact, mode, hub_cap),
                "mode={:?} hub_cap={:?}", mode, hub_cap
            );
        }
    }
}
