//! Scale smoke for the million-row `quest_xl` profile (ignored by
//! default: the full-scale run costs seconds of generation plus seconds
//! of ordering on a small container). Run it explicitly to measure the
//! implicit backend on the workload the snapshot's `questxl` entry
//! tracks:
//!
//! ```text
//! CAHD_QUESTXL_SCALE=0.25 cargo test --release \
//!     -p cahd-bench --test questxl_scale -- --ignored --nocapture
//! ```
//!
//! `CAHD_QUESTXL_SCALE` (default 0.25 = one million rows) shrinks the
//! workload for quick extrapolation; the run measures the uncapped
//! configuration the snapshot's `questxl` entry ships. The printed
//! posting statistics make the scaling visible alongside the phase
//! wall-clocks: `sum support^2` is the cost of the one-shot exact
//! degree pass (the traversals themselves are segment-deduplicated down
//! to O(nnz) per sweep).

use std::time::Instant;

use cahd_data::profiles;
use cahd_obs::Recorder;
use cahd_rcm::{reduce_unsymmetric_traced, OrderingStrategy, UnsymOptions};
use cahd_sparse::{RowGraph, RowGraphMode};

#[test]
#[ignore = "full-scale workload; run explicitly with --ignored"]
fn questxl_orders_under_the_implicit_backend() {
    let scale: f64 = std::env::var("CAHD_QUESTXL_SCALE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.25);
    let t0 = Instant::now();
    let data = profiles::quest_xl_like(scale, 7);
    let gen_s = t0.elapsed().as_secs_f64();
    let a = data.matrix();
    let supports = data.item_supports();
    let nnz: usize = supports.iter().sum();
    let top = supports.iter().copied().max().unwrap_or(0);
    let sum_sq: u64 = supports.iter().map(|&s| (s as u64) * (s as u64)).sum();
    eprintln!(
        "questxl scale={scale}: rows={} items={} nnz={nnz} top_support={top} sum_sq={sum_sq} gen={gen_s:.1}s",
        data.n_transactions(),
        data.n_items(),
    );
    let rec = Recorder::new();
    let t1 = Instant::now();
    let red = reduce_unsymmetric_traced(
        a,
        UnsymOptions {
            ordering: OrderingStrategy::Rcm,
            threads: 8,
            ..UnsymOptions::default()
        },
        &rec,
    );
    let order_s = t1.elapsed().as_secs_f64();
    let report = rec.snapshot();
    let span_s = |p: &str| report.span(p).map_or(0.0, |s| s.total_ns as f64 / 1e9);
    eprintln!(
        "order={order_s:.1}s (aat_build={:.1}s order={:.1}s) explicit={} bandwidth {} -> {}",
        span_s("pipeline/rcm/aat_build"),
        span_s("pipeline/rcm/order"),
        red.used_explicit_aat,
        red.before.max_diag_distance,
        red.after.max_diag_distance,
    );
    // The auto policy must route this shape to the inverted index.
    assert!(
        !red.used_explicit_aat,
        "questxl must ride the implicit representation"
    );
    assert_eq!(red.row_perm.len(), data.n_transactions());
}

/// The auto representation policy routes the XL shape implicit well
/// before full scale: a quarter-million-row slice already exceeds the
/// explicit edge budget. Not ignored — this is the cheap always-on guard
/// that the snapshot entry measures what it claims to measure.
#[test]
fn questxl_slice_routes_implicit_under_auto() {
    let data = profiles::quest_xl_like(0.25 / 4.0, 7);
    let budget = UnsymOptions::default().edge_budget;
    let g = RowGraph::build_mode_traced(
        data.matrix(),
        RowGraphMode::Auto,
        budget,
        None,
        1,
        &Recorder::disabled(),
    );
    assert!(
        !g.is_explicit(),
        "a 250k-row quest_xl slice must exceed the {budget}-edge explicit budget"
    );
}
