//! Reverse Cuthill-McKee (RCM) bandwidth reduction.
//!
//! Implements the band-matrix reorganization of Section III of the CAHD
//! paper:
//!
//! * [`parallel`] — the ordering engine, the crate's one implementation of
//!   the paper's Fig. 4: per connected component, a George–Liu
//!   pseudo-peripheral root search (the "compute pseudo-diameter" step,
//!   over rooted BFS level structures), the Cuthill-McKee pass, and the
//!   final reversal. Frontiers expand level by level, in parallel when
//!   wide enough, with deterministic claim-by-minimum-parent reassembly,
//!   so the output is the same at every thread count,
//! * [`unsym`] — bandwidth reduction for *unsymmetric* (rectangular)
//!   matrices via the `A x A^T` pattern (Fig. 5 of the paper), including the
//!   column-ordering strategies used for reporting and visualization,
//! * [`ordering`] — alternative row orderings (MinHash signatures,
//!   lexicographic) implementing the paper's dimensionality-reduction
//!   future-work direction, comparable against RCM,
//! * [`strategy`] — the [`OrderingStrategy`] run-time selector
//!   (`--ordering {rcm,bfs,cluster}`).
//!
//! The engine works against the [`cahd_sparse::ParNeighborOracle`] trait
//! (caller-owned per-worker scratch, `Sync`), so it runs identically — and
//! in parallel — on materialized adjacency and on the inverted-index
//! (implicit) representation. Representation is selected by
//! [`cahd_sparse::RowGraphMode`] (`--rowgraph {auto,explicit,implicit}`).
//! Every choice comes from the caller's [`UnsymOptions`]; nothing here
//! reads the environment. The test tree checks the engine against a
//! literal transcription of Fig. 4.

mod level;
pub mod ordering;
pub mod parallel;
mod peripheral;
pub mod strategy;
pub mod unsym;

pub use cahd_sparse::RowGraphMode;
pub use ordering::{
    cluster_order, lexicographic_order, minhash_order, RowOrder, CLUSTER_HASHES, CLUSTER_SEED,
};
pub use parallel::{
    band_order, band_order_traced, band_order_with, PARALLEL_FRONTIER_MIN, PARALLEL_THREADS_MIN,
};
pub use strategy::OrderingStrategy;
pub use unsym::{
    reduce_unsymmetric, reduce_unsymmetric_traced, AatMethod, BandReduction, ColumnOrder,
    UnsymOptions,
};
