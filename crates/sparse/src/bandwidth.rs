//! Bandwidth and profile metrics.
//!
//! For a symmetric matrix (graph `G` with labeling `delta`), the paper
//! defines `B(G) = max |delta(v1) - delta(v2)|` over edges. For the
//! rectangular transaction matrix we additionally report *row-span* metrics
//! under a joint row/column permutation: the extent of each row's non-zeros
//! in permuted column space, which is what Fig. 6's plots make visible.

use crate::csr::CsrMatrix;
use crate::graph::Graph;
use crate::perm::Permutation;

/// Bandwidth/profile of a graph under a vertex labeling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphBandStats {
    /// `max |pos(u) - pos(v)|` over edges (0 for edgeless graphs).
    pub bandwidth: usize,
    /// Sum over vertices of `pos(v) - min(pos of v's closed neighborhood)`;
    /// the classic envelope/profile measure.
    pub profile: u64,
    /// Mean of `|pos(u) - pos(v)|` over directed edges (0.0 if edgeless).
    pub mean_edge_span: f64,
}

/// Computes [`GraphBandStats`] for `g` with vertices placed according to
/// `perm` (`old_to_new` gives each vertex its position).
///
/// # Panics
/// Panics if `perm.len() != g.n_vertices()`.
pub fn graph_band_stats(g: &Graph, perm: &Permutation) -> GraphBandStats {
    assert_eq!(perm.len(), g.n_vertices(), "permutation length mismatch");
    let mut bandwidth = 0usize;
    let mut profile = 0u64;
    let mut span_sum = 0u64;
    let mut span_count = 0u64;
    for v in 0..g.n_vertices() {
        let pv = perm.old_to_new(v);
        let mut min_pos = pv;
        for &w in g.neighbors(v) {
            let pw = perm.old_to_new(w as usize);
            let span = pv.abs_diff(pw);
            bandwidth = bandwidth.max(span);
            span_sum += span as u64;
            span_count += 1;
            min_pos = min_pos.min(pw);
        }
        profile += (pv - min_pos) as u64;
    }
    GraphBandStats {
        bandwidth,
        profile,
        mean_edge_span: if span_count == 0 {
            0.0
        } else {
            span_sum as f64 / span_count as f64
        },
    }
}

/// Band statistics of a rectangular binary matrix under a row and a column
/// permutation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RectBandStats {
    /// Max over rows of (max col pos − min col pos) among the row's
    /// non-zeros; 0 if every row has ≤ 1 non-zero.
    pub max_row_span: usize,
    /// Mean row span over rows with ≥ 1 non-zero.
    pub mean_row_span: f64,
    /// Max over non-zeros `(i, j)` of `|rpos(i)/n - cpos(j)/d|` scaled to
    /// `max(n, d)`: distance from the (scaled) main diagonal. This is the
    /// "total bandwidth" analogue for non-square matrices.
    pub max_diag_distance: usize,
    /// Mean scaled diagonal distance over non-zeros.
    pub mean_diag_distance: f64,
}

/// Computes [`RectBandStats`] for matrix `a` with rows placed by `row_perm`
/// and columns by `col_perm`.
///
/// # Panics
/// Panics on permutation length mismatches.
pub fn rect_band_stats(
    a: &CsrMatrix,
    row_perm: &Permutation,
    col_perm: &Permutation,
) -> RectBandStats {
    assert_eq!(
        row_perm.len(),
        a.n_rows(),
        "row permutation length mismatch"
    );
    assert_eq!(
        col_perm.len(),
        a.n_cols(),
        "column permutation length mismatch"
    );
    rect_band_stats_at(
        a,
        a.n_cols(),
        |r| row_perm.old_to_new(r),
        |c| col_perm.old_to_new(c as usize),
    )
}

/// [`RectBandStats`] of `a` read as an `a.n_rows() x n_cols` matrix: row
/// `r` sits at `rpos(r)` and stored column `c` at `cpos(c)`.
///
/// This lets a caller measure a column-compacted matrix (see
/// [`CsrMatrix::compact_columns`]) in its original `n_cols`-wide space:
/// empty columns hold no non-zero, so they change no sum. The sums run
/// row by row in stored order, so for the same positions the result is
/// bit-identical to [`rect_band_stats`] on the uncompacted matrix.
pub fn rect_band_stats_at(
    a: &CsrMatrix,
    n_cols: usize,
    rpos: impl Fn(usize) -> usize,
    cpos: impl Fn(u32) -> usize,
) -> RectBandStats {
    let n = a.n_rows().max(1) as f64;
    let d = n_cols.max(1) as f64;
    let scale = a.n_rows().max(n_cols) as f64;

    let mut max_row_span = 0usize;
    let mut span_sum = 0u64;
    let mut span_rows = 0u64;
    let mut max_diag = 0f64;
    let mut diag_sum = 0f64;
    let mut nnz = 0u64;

    for r in 0..a.n_rows() {
        let row = a.row(r);
        if row.is_empty() {
            continue;
        }
        let rpos = rpos(r);
        let mut min_c = usize::MAX;
        let mut max_c = 0usize;
        for &c in row {
            let cpos = cpos(c);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_graph_identity_vs_bad_order() {
        // Path 0-1-2-3: identity labeling has bandwidth 1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let id = Permutation::identity(4);
        let s = graph_band_stats(&g, &id);
        assert_eq!(s.bandwidth, 1);
        assert_eq!(s.profile, 3); // vertices 1,2,3 each look back 1

        // Bad order 0,2,1,3 -> positions: 0->0, 2->1, 1->2, 3->3
        let bad = Permutation::from_new_to_old(vec![0, 2, 1, 3]).unwrap();
        let sb = graph_band_stats(&g, &bad);
        assert_eq!(sb.bandwidth, 2);
        assert!(sb.profile > s.profile);
        assert!(sb.mean_edge_span > s.mean_edge_span);
    }

    #[test]
    fn edgeless_graph_zero() {
        let g = Graph::from_edges(3, &[]);
        let s = graph_band_stats(&g, &Permutation::identity(3));
        assert_eq!(s.bandwidth, 0);
        assert_eq!(s.profile, 0);
        assert_eq!(s.mean_edge_span, 0.0);
    }

    #[test]
    fn rect_stats_diagonal_matrix() {
        // Perfect diagonal: spans 0, diag distance 0.
        let a = CsrMatrix::from_rows(&[vec![0], vec![1], vec![2]], 3);
        let id = Permutation::identity(3);
        let s = rect_band_stats(&a, &id, &id);
        assert_eq!(s.max_row_span, 0);
        assert_eq!(s.max_diag_distance, 0);
        assert_eq!(s.mean_diag_distance, 0.0);
    }

    #[test]
    fn rect_stats_antidiagonal_is_worst() {
        let a = CsrMatrix::from_rows(&[vec![2], vec![1], vec![0]], 3);
        let id = Permutation::identity(3);
        let s = rect_band_stats(&a, &id, &id);
        assert_eq!(s.max_diag_distance, 2);
        // Flipping the rows recovers the diagonal.
        let flip = Permutation::identity(3).reversed();
        let s2 = rect_band_stats(&a, &flip, &id);
        assert_eq!(s2.max_diag_distance, 0);
    }

    #[test]
    fn row_span_measures_extent() {
        let a = CsrMatrix::from_rows(&[vec![0, 4], vec![2]], 5);
        let s = rect_band_stats(&a, &Permutation::identity(2), &Permutation::identity(5));
        assert_eq!(s.max_row_span, 4);
        assert_eq!(s.mean_row_span, 2.0);
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let a = CsrMatrix::from_rows(&[], 0);
        let s = rect_band_stats(&a, &Permutation::identity(0), &Permutation::identity(0));
        assert_eq!(s.max_row_span, 0);
        assert_eq!(s.mean_diag_distance, 0.0);
    }
}
