//! Sparse binary matrices and graph kernels for the CAHD anonymization
//! pipeline.
//!
//! Transaction data is modeled as an `n x d` binary *pattern* matrix: entry
//! `(i, j)` is set iff transaction `i` contains item `j`. Only the pattern
//! (the positions of the non-zero entries) is stored, in [CSR
//! form](csr::CsrMatrix).
//!
//! The crate provides the substrates that the Reverse Cuthill-McKee
//! implementation in `cahd-rcm` is built on:
//!
//! * [`csr::CsrMatrix`] — compressed sparse row binary matrix with
//!   transpose, row/column permutation and symmetry checks,
//! * [`perm::Permutation`] — validated bijections with composition and
//!   inversion,
//! * [`graph::Graph`] — undirected adjacency built from a symmetric pattern,
//!   with degrees and connected components,
//! * [`aat::RowGraph`] — the pattern of `A x A^T` (two rows are adjacent iff
//!   they share a column), either materialized or evaluated lazily through a
//!   `Sync` inverted index ([`aat::ImplicitRowGraph`]) when the explicit edge
//!   set would be too large, selected by [`aat::RowGraphMode`],
//! * three tools every row set shares: [`relabel::Relabel`] (the columns
//!   in use, numbered in order), [`CsrMatrix::transpose`] (item → row
//!   postings) and [`aat::row_classes`] (rows grouped by item set),
//! * [`bandwidth`] — bandwidth/profile metrics for square graphs and
//!   rectangular matrices under row+column permutations,
//! * [`viz`] — density-grid renderers used to reproduce the paper's Fig. 6
//!   matrix plots.

pub mod aat;
pub mod bandwidth;
pub mod csr;
pub mod graph;
pub mod perm;
pub mod relabel;
pub mod viz;

pub use aat::{
    resolve_hub_cap, row_classes, ImplicitRowGraph, OracleScratch, ParNeighborOracle, RowClasses,
    RowGraph, RowGraphMode,
};
pub use bandwidth::{rect_band_stats, rect_band_stats_at, GraphBandStats, RectBandStats};
pub use csr::CsrMatrix;
pub use graph::Graph;
pub use perm::Permutation;
pub use relabel::{ColumnSpace, Relabel};
