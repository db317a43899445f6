//! Bandwidth reduction for unsymmetric (rectangular) matrices.
//!
//! The paper's Fig. 5: build the symmetric pattern `B = A x A^T`, run RCM on
//! `B`, and apply the resulting permutation to the *rows* of `A`. Rows that
//! share many items end up adjacent, which is the property the CAHD group
//! formation exploits. Group formation reads only that row order, so the
//! reduction returns only it.
//!
//! A row permutation alone leaves the non-zeros scattered across the full
//! column range; for band-structure reporting and the Fig. 6 visualization a
//! column permutation is also produced (the paper permutes "rows and
//! columns"). Columns are ordered by the mean permuted row position of
//! their non-zeros ([`ColumnOrder`]). The column order and the before/after
//! band statistics are computed on demand by [`BandReduction::band_stats`];
//! [`reduce_unsymmetric`] calls it only for a recorder that is enabled, to
//! record the `pipeline/rcm/columns` and `pipeline/rcm/stats` spans and the
//! band gauges, so an untraced release never pays for them.
//!
//! Sparse data touches few of its items, so on a universe wider than twice
//! its non-zeros the reduction works in the touched columns' own space:
//! [`ColumnSpace`] drops the empty columns once (the shared
//! [`Relabel`](cahd_sparse::Relabel): a bitmap with rank prefixes when `⌈d/64⌉ ≤ nnz`, else a
//! sort of the touched ids), and the row graph, the column ordering and
//! both band statistics run over the `k` touched columns in
//! O(nnz + min(d/64, nnz log nnz)), not O(d). None of them depends on an
//! empty column, and the relabel keeps column order, so the results are
//! those of the full-width computation.

use std::time::{Duration, Instant};

use cahd_sparse::bandwidth::{rect_band_stats_at, RectBandStats};
use cahd_sparse::{ColumnSpace, CsrMatrix, Permutation, RowGraph, RowGraphMode};

use crate::ordering::cluster_order;
use crate::parallel::{band_order, band_order_traced};
use crate::strategy::OrderingStrategy;

/// How to order columns after the RCM row permutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColumnOrder {
    /// By the mean permuted row position of the column's non-zeros
    /// (empty columns last, in id order). Gives the smoothest diagonal
    /// band.
    MeanRowPos,
}

/// Which symmetrization of the paper's Fig. 5 step 1 to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AatMethod {
    /// Method *(ii)*: `A x A^T` — rows adjacent iff they share a column.
    /// Costlier but much better band quality on far-from-symmetric data;
    /// the paper (and this crate) use it by default.
    #[default]
    Product,
    /// Method *(i)*: `A + A^T` over the zero-padded square matrix — one
    /// vertex per row *and* per column, adjacency directly from the
    /// non-zeros. Cheap, and orders rows and columns simultaneously, but
    /// the paper notes quality suffers when `A` is far from symmetric
    /// (as transaction data is). Kept for the Fig. 5 comparison.
    Sum,
}

/// Options for [`reduce_unsymmetric`].
#[derive(Clone, Copy, Debug)]
pub struct UnsymOptions {
    /// Estimated-edge budget above which the implicit `A x A^T`
    /// representation is used under [`RowGraphMode::Auto`] (see
    /// [`RowGraph::build_mode_traced`]).
    pub edge_budget: usize,
    /// Column ordering strategy.
    pub column_order: ColumnOrder,
    /// Symmetrization method (paper Fig. 5 step 1).
    pub aat_method: AatMethod,
    /// Worker threads for the explicit `A x A^T` build *and* the
    /// frontier-parallel ordering (see [`crate::parallel`]). The graph
    /// and — under [`OrderingStrategy::Rcm`] — the permutation are
    /// byte-identical for every thread count.
    pub threads: usize,
    /// Band-reducing ordering strategy ([`OrderingStrategy::Rcm`] by
    /// default).
    pub ordering: OrderingStrategy,
    /// `A x A^T` representation policy ([`RowGraphMode::Auto`] by
    /// default).
    pub rowgraph: RowGraphMode,
    /// Optional hub-item support cap for the implicit representation:
    /// items whose support exceeds the cap are skipped during neighbor
    /// enumeration (see [`cahd_sparse::ImplicitRowGraph::with_options`]).
    /// A cap under [`RowGraphMode::Auto`] forces the implicit
    /// representation so it is never silently ignored.
    pub hub_cap: Option<u32>,
}

impl Default for UnsymOptions {
    fn default() -> Self {
        UnsymOptions {
            edge_budget: RowGraph::DEFAULT_EDGE_BUDGET,
            column_order: ColumnOrder::MeanRowPos,
            aat_method: AatMethod::Product,
            threads: 1,
            ordering: OrderingStrategy::Rcm,
            rowgraph: RowGraphMode::Auto,
            hub_cap: None,
        }
    }
}

/// Result of the unsymmetric bandwidth reduction.
#[derive(Clone, Debug)]
pub struct BandReduction {
    /// RCM row permutation (`old_to_new` places each original row).
    pub row_perm: Permutation,
    /// Whether the explicit `A x A^T` pattern was materialized.
    pub used_explicit_aat: bool,
    /// Wall-clock time of graph construction + RCM (excludes the column
    /// order and the band statistics).
    pub rcm_time: Duration,
    /// The joint column order of [`AatMethod::Sum`], which orders rows
    /// and columns in one pass; `None` under [`AatMethod::Product`].
    sum_col_perm: Option<Permutation>,
    column_order: ColumnOrder,
}

/// The column order and band statistics of a [`BandReduction`] (see
/// [`BandReduction::band_stats`]).
#[derive(Clone, Debug)]
pub struct BandStats {
    /// Band statistics of the original matrix (identity permutations).
    pub before: RectBandStats,
    /// Band statistics after applying both permutations.
    pub after: RectBandStats,
    /// Original ids of the placed columns, in placed order; every column
    /// not listed follows in ascending id (see [`BandStats::col_perm`]).
    placed_cols: Vec<u32>,
    n_cols: usize,
}

impl BandStats {
    /// The column permutation per [`ColumnOrder`], expanded to the full
    /// item universe on demand: on a wide universe only the order of the
    /// touched columns is stored.
    pub fn col_perm(&self) -> Permutation {
        expand_column_order(self.placed_cols.clone(), self.n_cols)
    }
}

impl BandReduction {
    /// The column order and the before/after band statistics of this
    /// reduction on `a`, the matrix it reduced. Group formation reads only
    /// [`BandReduction::row_perm`], so these are computed on request: for
    /// the Fig. 6 measurements and pictures, and by [`reduce_unsymmetric`]
    /// for an enabled recorder.
    pub fn band_stats(&self, a: &CsrMatrix) -> BandStats {
        self.band_stats_in(a, None, &cahd_obs::Recorder::disabled())
    }

    /// [`BandReduction::band_stats`] over `space` (the column space of `a`,
    /// built here when `None`), recording the `pipeline/rcm/columns` and
    /// `pipeline/rcm/stats` spans into `rec`.
    fn band_stats_in(
        &self,
        a: &CsrMatrix,
        space: Option<&ColumnSpace>,
        rec: &cahd_obs::Recorder,
    ) -> BandStats {
        let columns = rec.span("pipeline/rcm/columns");
        let mut built = None;
        let sp = match space {
            Some(sp) => sp,
            None => built.insert(ColumnSpace::of(a)),
        };
        let (placed_cols, col_pos) = match (self.column_order, &self.sum_col_perm) {
            // Method (i) already produced a joint column ordering over
            // every column; the MeanRowPos default defers to it.
            (ColumnOrder::MeanRowPos, Some(cp)) => {
                let pos = (0..sp.matrix.n_cols() as u32)
                    .map(|j| cp.old_to_new(sp.original(j) as usize))
                    .collect();
                (cp.new_to_old_slice().to_vec(), pos)
            }
            (ColumnOrder::MeanRowPos, None) => {
                let order = mean_row_pos_order(&sp.matrix, &self.row_perm);
                let mut pos = vec![0usize; order.len()];
                for (p, &j) in order.iter().enumerate() {
                    pos[j as usize] = p;
                }
                let placed = order.iter().map(|&j| sp.original(j)).collect();
                (placed, pos)
            }
        };
        drop(columns);

        let _s = rec.span("pipeline/rcm/stats");
        let (c, d, row_perm) = (&sp.matrix, a.n_cols(), &self.row_perm);
        BandStats {
            before: rect_band_stats_at(c, d, |r| r, |j| sp.original(j) as usize),
            after: rect_band_stats_at(c, d, |r| row_perm.old_to_new(r), |j| col_pos[j as usize]),
            placed_cols,
            n_cols: d,
        }
    }
}

/// Runs the paper's unsymmetric bandwidth-reduction pipeline on `a`,
/// recording per-phase spans and band metrics into `rec` (pass
/// [`Recorder::disabled`](cahd_obs::Recorder::disabled) to record
/// nothing):
///
/// * spans `pipeline/rcm` (whole reduction) with children
///   `pipeline/rcm/aat_build` (column compaction and row-graph
///   construction, `Product` method only) and `pipeline/rcm/order` (the
///   Cuthill-McKee ordering);
/// * the `sparse.*` counters of [`RowGraph::build_mode_traced`] and the
///   `rcm.*` ordering counters of [`band_order_traced`];
/// * for an enabled recorder only, [`BandReduction::band_stats`] under
///   the spans `pipeline/rcm/columns` (column ordering) and
///   `pipeline/rcm/stats` (band statistics before/after), and from it the
///   gauges `rcm.bandwidth_before` / `rcm.bandwidth_after` (the
///   [`RectBandStats::max_diag_distance`] rectangular-bandwidth analogue)
///   and `rcm.mean_row_span_before` / `rcm.mean_row_span_after`.
pub fn reduce_unsymmetric(
    a: &CsrMatrix,
    opts: UnsymOptions,
    rec: &cahd_obs::Recorder,
) -> BandReduction {
    let whole = rec.span("pipeline/rcm");
    // cahd-lint: allow(L002, reason = "elapsed-time stat only; release bytes never depend on it")
    let t0 = Instant::now();
    let mut space = None;
    let (row_perm, sum_col_perm, used_explicit_aat) = match opts.aat_method {
        // Cluster-then-order works on the matrix itself: no `A x A^T`
        // graph is built at all (`used_explicit_aat` is false).
        AatMethod::Product if opts.ordering == OrderingStrategy::Cluster => {
            let _s = rec.span("pipeline/rcm/order");
            (cluster_order(a, opts.threads), None, false)
        }
        AatMethod::Product => {
            let rg = {
                let _s = rec.span("pipeline/rcm/aat_build");
                // Adjacency, degrees and supports ignore empty columns.
                let c = &space.insert(ColumnSpace::of(a)).matrix;
                RowGraph::build_mode_traced(
                    c,
                    opts.rowgraph,
                    opts.edge_budget,
                    opts.hub_cap,
                    opts.threads,
                    rec,
                )
            };
            let explicit = rg.is_explicit();
            let _s = rec.span("pipeline/rcm/order");
            // Both representations are `Sync` oracles now: the frontier-
            // parallel engine runs either one, with byte-identical output
            // and counters (hub cap off).
            let perm = band_order_traced(&rg, opts.ordering, opts.threads, rec);
            (perm, None, explicit)
        }
        AatMethod::Sum => {
            let _s = rec.span("pipeline/rcm/order");
            let (rp, cp) = sum_method_orderings(a);
            (rp, Some(cp), true)
        }
    };
    let red = BandReduction {
        row_perm,
        used_explicit_aat,
        rcm_time: t0.elapsed(),
        sum_col_perm,
        column_order: opts.column_order,
    };
    if rec.is_enabled() {
        let stats = red.band_stats_in(a, space.as_ref(), rec);
        rec.gauge(
            "rcm.bandwidth_before",
            stats.before.max_diag_distance as f64,
        );
        rec.gauge("rcm.bandwidth_after", stats.after.max_diag_distance as f64);
        rec.gauge("rcm.mean_row_span_before", stats.before.mean_row_span);
        rec.gauge("rcm.mean_row_span_after", stats.after.mean_row_span);
    }
    drop(space);
    drop(whole);
    red
}

/// The `A + A^T` orderings (paper Fig. 5 method *(i)*): one RCM run over
/// the padded square pattern whose vertices are rows *and* columns, with
/// edges from the non-zeros. The combined ordering is split into its
/// row-vertex and column-vertex subsequences.
fn sum_method_orderings(a: &CsrMatrix) -> (Permutation, Permutation) {
    let n = a.n_rows();
    let d = a.n_cols();
    let size = n.max(d);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(a.nnz());
    for r in 0..n {
        for &c in a.row(r) {
            edges.push((r as u32, c));
        }
    }
    let graph = cahd_sparse::Graph::from_edges(size, &edges);
    let combined = band_order(&graph, OrderingStrategy::Rcm, 1);
    // Relative order of row vertices / column vertices.
    let mut row_order: Vec<u32> = (0..n as u32).collect();
    row_order.sort_by_key(|&r| combined.old_to_new(r as usize));
    let mut col_order: Vec<u32> = (0..d as u32).collect();
    col_order.sort_by_key(|&c| combined.old_to_new(c as usize));
    (
        // cahd-lint: allow(L003, reason = "row_order is a sort of 0..n, a permutation by construction")
        Permutation::from_new_to_old(row_order).expect("subsequence of a permutation"),
        // cahd-lint: allow(L003, reason = "col_order is a sort of 0..d, a permutation by construction")
        Permutation::from_new_to_old(col_order).expect("subsequence of a permutation"),
    )
}

/// Computes the column permutation for a given row permutation: the
/// non-empty columns by [`ColumnOrder`], then the empty ones in id order.
pub fn order_columns(a: &CsrMatrix, row_perm: &Permutation, order: ColumnOrder) -> Permutation {
    match order {
        ColumnOrder::MeanRowPos => {
            let sp = ColumnSpace::of(a);
            let placed = mean_row_pos_order(&sp.matrix, row_perm)
                .into_iter()
                .map(|j| sp.original(j))
                .collect();
            expand_column_order(placed, a.n_cols())
        }
    }
}

/// The columns of `c` sorted by the mean permuted row position of their
/// non-zeros, ties by id; empty columns last, in id order.
fn mean_row_pos_order(c: &CsrMatrix, row_perm: &Permutation) -> Vec<u32> {
    let k = c.n_cols();
    let mut sum = vec![0f64; k];
    let mut cnt = vec![0u32; k];
    for r in 0..c.n_rows() {
        let pos = row_perm.old_to_new(r);
        for &j in c.row(r) {
            sum[j as usize] += pos as f64;
            cnt[j as usize] += 1;
        }
    }
    let mut key: Vec<(f64, u32)> = sum
        .iter()
        .zip(&cnt)
        .zip(0u32..)
        .map(|((&s, &n), j)| match n {
            0 => (f64::INFINITY, j),
            n => (s / n as f64, j),
        })
        .collect();
    // Ids are distinct, so the order is total and the unstable sort exact.
    key.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    key.into_iter().map(|(_, j)| j).collect()
}

/// The `d`-column permutation that places the distinct ids of `placed`
/// first, in order, and every other column after them in ascending id.
fn expand_column_order(mut placed: Vec<u32>, d: usize) -> Permutation {
    let mut seen = vec![0u64; d.div_ceil(64)];
    for &j in &placed {
        seen[j as usize / 64] |= 1u64 << (j % 64);
    }
    placed.extend((0..d as u32).filter(|&j| seen[j as usize / 64] & (1u64 << (j % 64)) == 0));
    // cahd-lint: allow(L003, reason = "placed ids are distinct and < d, the rest fills 0..d")
    Permutation::from_new_to_old(placed).expect("each column appears once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_obs::Recorder;

    /// A block-structured matrix scrambled by an interleaving row order:
    /// rows 0,2,4 use items {0,1,2}; rows 1,3,5 use items {3,4,5}.
    fn scrambled_blocks() -> CsrMatrix {
        CsrMatrix::from_rows(
            &[
                vec![0, 1],
                vec![3, 4],
                vec![1, 2],
                vec![4, 5],
                vec![0, 2],
                vec![3, 5],
            ],
            6,
        )
    }

    #[test]
    fn blocks_are_grouped() {
        let a = scrambled_blocks();
        let red = reduce_unsymmetric(&a, UnsymOptions::default(), &Recorder::disabled());
        // After RCM the two blocks must be contiguous in row order: the
        // positions of even (block A) rows must be {0,1,2} or {3,4,5}.
        let mut pos_a: Vec<usize> = [0usize, 2, 4]
            .iter()
            .map(|&r| red.row_perm.old_to_new(r))
            .collect();
        pos_a.sort_unstable();
        assert!(
            pos_a == vec![0, 1, 2] || pos_a == vec![3, 4, 5],
            "{pos_a:?}"
        );
        // Band quality must improve.
        let stats = red.band_stats(&a);
        assert!(stats.after.mean_diag_distance < stats.before.mean_diag_distance);
    }

    #[test]
    fn column_order_mean_groups_items() {
        let a = scrambled_blocks();
        let red = reduce_unsymmetric(&a, UnsymOptions::default(), &Recorder::disabled());
        // Items of the first row block should occupy the first 3 column
        // positions (whichever block comes first).
        let col_perm = red.band_stats(&a).col_perm();
        let mut pos_items_a: Vec<usize> = [0usize, 1, 2]
            .iter()
            .map(|&c| col_perm.old_to_new(c))
            .collect();
        pos_items_a.sort_unstable();
        assert!(
            pos_items_a == vec![0, 1, 2] || pos_items_a == vec![3, 4, 5],
            "{pos_items_a:?}"
        );
    }

    #[test]
    fn empty_columns_sort_last() {
        // Column 2 never used.
        let a = CsrMatrix::from_rows(&[vec![0], vec![1]], 3);
        let p = order_columns(&a, &Permutation::identity(2), ColumnOrder::MeanRowPos);
        assert_eq!(p.old_to_new(2), 2);
    }

    #[test]
    fn implicit_and_explicit_agree_on_quality() {
        let a = scrambled_blocks();
        let explicit = reduce_unsymmetric(
            &a,
            UnsymOptions {
                edge_budget: usize::MAX,
                ..Default::default()
            },
            &Recorder::disabled(),
        );
        let implicit = reduce_unsymmetric(
            &a,
            UnsymOptions {
                edge_budget: 0,
                ..Default::default()
            },
            &Recorder::disabled(),
        );
        assert!(explicit.used_explicit_aat);
        assert!(!implicit.used_explicit_aat);
        assert_eq!(
            explicit.row_perm.new_to_old_slice(),
            implicit.row_perm.new_to_old_slice(),
            "representations must give identical orders"
        );
    }

    #[test]
    fn threaded_aat_build_gives_identical_reduction() {
        let a = scrambled_blocks();
        let seq = reduce_unsymmetric(&a, UnsymOptions::default(), &Recorder::disabled());
        for threads in [2usize, 4, 16] {
            let par = reduce_unsymmetric(
                &a,
                UnsymOptions {
                    threads,
                    ..Default::default()
                },
                &Recorder::disabled(),
            );
            assert_eq!(
                seq.row_perm.new_to_old_slice(),
                par.row_perm.new_to_old_slice(),
                "threads={threads}"
            );
            assert_eq!(
                seq.band_stats(&a).col_perm().new_to_old_slice(),
                par.band_stats(&a).col_perm().new_to_old_slice(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn traced_reduction_records_phases_and_gauges() {
        let a = scrambled_blocks();
        let rec = cahd_obs::Recorder::new();
        let red = reduce_unsymmetric(&a, UnsymOptions::default(), &rec);
        let report = rec.snapshot();
        for path in [
            "pipeline/rcm",
            "pipeline/rcm/aat_build",
            "pipeline/rcm/order",
            "pipeline/rcm/columns",
            "pipeline/rcm/stats",
        ] {
            assert!(report.span(path).is_some(), "missing span {path}");
        }
        // The gauges are the on-demand statistics.
        let stats = red.band_stats(&a);
        for (gauge, want) in [
            (
                "rcm.bandwidth_before",
                stats.before.max_diag_distance as f64,
            ),
            ("rcm.bandwidth_after", stats.after.max_diag_distance as f64),
            ("rcm.mean_row_span_before", stats.before.mean_row_span),
            ("rcm.mean_row_span_after", stats.after.mean_row_span),
        ] {
            assert_eq!(
                report.gauge(gauge).map(f64::to_bits),
                Some(want.to_bits()),
                "{gauge}"
            );
        }
        assert!(report.counter("rcm.components").unwrap() >= 1);
        assert!(report.counter("rcm.bfs_levels").unwrap() >= 1);
        assert!(
            report.consistency_findings().is_empty(),
            "{:?}",
            report.consistency_findings()
        );
        // Recording never changes the order: a disabled recorder gives the
        // same permutation, and the same statistics on request.
        let plain = reduce_unsymmetric(&a, UnsymOptions::default(), &Recorder::disabled());
        assert_eq!(
            plain.row_perm.new_to_old_slice(),
            red.row_perm.new_to_old_slice()
        );
        assert_eq!(plain.band_stats(&a).col_perm(), stats.col_perm());
    }

    #[test]
    fn sum_method_produces_valid_orderings() {
        let a = scrambled_blocks();
        let red = reduce_unsymmetric(
            &a,
            UnsymOptions {
                aat_method: AatMethod::Sum,
                ..Default::default()
            },
            &Recorder::disabled(),
        );
        assert_eq!(red.row_perm.len(), a.n_rows());
        let col_perm = red.band_stats(&a).col_perm();
        assert_eq!(col_perm.len(), a.n_cols());
        assert!(red.row_perm.then(&red.row_perm.inverse()).is_identity());
        assert!(col_perm.then(&col_perm.inverse()).is_identity());
        // Note: method (i) shares one index space between rows and columns
        // (row 0 and item 0 are the same vertex), so unlike method (ii) it
        // does NOT cleanly separate the blocks here — exactly the quality
        // deficit the paper describes. The comparison test below quantifies
        // it on rectangular data.
    }

    #[test]
    fn product_not_worse_than_sum_on_rectangular_data() {
        // A wide, far-from-symmetric matrix: the paper's reason to prefer
        // method (ii). Compare band quality.
        let rows: Vec<Vec<u32>> = (0..30u32)
            .map(|i| vec![(i / 3) * 4, (i / 3) * 4 + 1, (i / 3) * 4 + 3])
            .collect();
        let a = CsrMatrix::from_rows(&rows, 40);
        let product = reduce_unsymmetric(&a, UnsymOptions::default(), &Recorder::disabled());
        let sum = reduce_unsymmetric(
            &a,
            UnsymOptions {
                aat_method: AatMethod::Sum,
                ..Default::default()
            },
            &Recorder::disabled(),
        );
        let (product, sum) = (product.band_stats(&a).after, sum.band_stats(&a).after);
        assert!(
            product.mean_row_span <= sum.mean_row_span + 1e-9,
            "product {} > sum {}",
            product.mean_row_span,
            sum.mean_row_span
        );
    }
}
