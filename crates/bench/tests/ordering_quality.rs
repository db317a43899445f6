//! Golden band-quality and release-quality regression tests for the
//! ordering strategies (`--ordering {rcm,bfs,cluster}`).
//!
//! The frontier-parallel `rcm` strategy is byte-identical to the Fig. 4
//! oracle of `cahd-rcm`'s equivalence suites, so its quality is pinned
//! exactly there; this file pins what the *alternative* strategies
//! are allowed to give up:
//!
//! * per-strategy rectangular-bandwidth bounds on a fixed BMS1-like
//!   workload (the band CAHD reads its candidate windows from), and
//! * a bounded end-to-end KL regression versus the RCM baseline on the
//!   paper's 100-query workload.
//!
//! The fixtures are deterministic (fixed profile scale and seed), so a
//! quality regression in any strategy fails `cargo test` outright.

use cahd_bench::runs::{kl_of, prepare, run_cahd, select_sensitive, PreparedDataset};
use cahd_data::profiles;
use cahd_rcm::{BandStats, OrderingStrategy, RowGraphMode, UnsymOptions};

const SEED: u64 = 42;
const SCALE: f64 = 0.02;
const P: usize = 4;
const M: usize = 4;
const R: usize = 4;

fn prepared(strategy: OrderingStrategy) -> PreparedDataset {
    let data = profiles::bms1_like(SCALE, SEED);
    let opts = UnsymOptions {
        ordering: strategy,
        ..UnsymOptions::default()
    };
    prepare(data, opts)
}

/// The band statistics of one strategy's ordering.
fn stats(prep: &PreparedDataset) -> BandStats {
    prep.band.band_stats(prep.data.matrix())
}

/// End-to-end mean KL of one strategy on the fixed workload.
fn mean_kl(prep: &PreparedDataset) -> f64 {
    let sensitive = select_sensitive(&prep.data, M, P, SEED);
    let res = run_cahd(prep, &sensitive, P, 3).expect("bms1-like workload is feasible");
    kl_of(&prep.data, &sensitive, &res.published, R, SEED).mean_kl
}

#[test]
fn bandwidth_bounds_per_strategy_on_bms1() {
    let rcm = prepared(OrderingStrategy::Rcm);
    let bfs = prepared(OrderingStrategy::Bfs);
    let cluster = prepared(OrderingStrategy::Cluster);
    let width = |p: &PreparedDataset| stats(p).after.max_diag_distance;
    // Every strategy must actually reduce the band versus the raw input
    // order (the whole point of the phase) ...
    for (name, p) in [("rcm", &rcm), ("bfs", &bfs), ("cluster", &cluster)] {
        let BandStats { before, after, .. } = stats(p);
        assert!(
            after.max_diag_distance < before.max_diag_distance,
            "{name}: bandwidth {} not below input {}",
            after.max_diag_distance,
            before.max_diag_distance
        );
    }
    // ... and the cheaper strategies may not lose more than 25% of the
    // band quality RCM achieves on this fixture.
    let budget = (width(&rcm) as f64 * 1.25) as usize;
    assert!(
        width(&bfs) <= budget,
        "bfs bandwidth {} exceeds 1.25x rcm ({})",
        width(&bfs),
        width(&rcm)
    );
    assert!(
        width(&cluster) <= budget,
        "cluster bandwidth {} exceeds 1.25x rcm ({})",
        width(&cluster),
        width(&rcm)
    );
}

#[test]
fn end_to_end_kl_regression_is_bounded() {
    let kl_rcm = mean_kl(&prepared(OrderingStrategy::Rcm));
    let kl_bfs = mean_kl(&prepared(OrderingStrategy::Bfs));
    let kl_cluster = mean_kl(&prepared(OrderingStrategy::Cluster));
    eprintln!("mean KL: rcm={kl_rcm:.4} bfs={kl_bfs:.4} cluster={kl_cluster:.4}");
    // Every strategy runs end to end to a finite, non-negative KL ...
    for (name, kl) in [("rcm", kl_rcm), ("bfs", kl_bfs), ("cluster", kl_cluster)] {
        assert!(
            kl.is_finite() && kl >= 0.0,
            "{name}: mean KL {kl} not a finite non-negative value"
        );
    }
    // ... and the cheaper strategies stay within a KL budget of RCM.
    // The absolute floor keeps the bound meaningful when the baseline KL
    // is near zero (tiny quick-scale fixtures).
    let budget = (kl_rcm * 1.5).max(kl_rcm + 0.05);
    assert!(
        kl_bfs <= budget,
        "bfs KL {kl_bfs:.4} exceeds budget {budget:.4} (rcm {kl_rcm:.4})"
    );
    assert!(
        kl_cluster <= budget,
        "cluster KL {kl_cluster:.4} exceeds budget {budget:.4} (rcm {kl_rcm:.4})"
    );
}

/// The hub-capped implicit variant is quality-budgeted exactly like
/// bfs/cluster: skipping the most frequent items during neighbor
/// enumeration kills the k² clique blow-up, and on this fixture it may
/// cost at most 25% of RCM's band quality and the shared KL budget.
#[test]
fn hub_capped_implicit_stays_within_quality_budget() {
    let rcm = prepared(OrderingStrategy::Rcm);
    // Cap at the 95th-percentile item support so the tail of genuinely
    // frequent items is skipped — the regime the flag exists for.
    let mut supports: Vec<usize> = rcm
        .data
        .matrix()
        .col_counts()
        .into_iter()
        .filter(|&c| c > 0)
        .collect();
    supports.sort_unstable();
    let cap = supports[supports.len() * 95 / 100] as u32;
    let n_hubs = supports.iter().filter(|&&c| c > cap as usize).count();
    assert!(n_hubs > 0, "fixture has no items above the cap {cap}");
    let capped = {
        let data = profiles::bms1_like(SCALE, SEED);
        prepare(
            data,
            UnsymOptions {
                ordering: OrderingStrategy::Rcm,
                rowgraph: RowGraphMode::Implicit,
                hub_cap: Some(cap),
                ..UnsymOptions::default()
            },
        )
    };
    assert!(!capped.band.used_explicit_aat);
    // Band budget: same 1.25x allowance the alternative strategies get.
    let (rcm_width, capped_width) = (
        stats(&rcm).after.max_diag_distance,
        stats(&capped).after.max_diag_distance,
    );
    let budget = (rcm_width as f64 * 1.25) as usize;
    assert!(
        capped_width <= budget,
        "hub-capped bandwidth {capped_width} exceeds 1.25x rcm ({rcm_width}) at cap {cap} ({n_hubs} hubs)",
    );
    // End-to-end KL budget: shared with bfs/cluster.
    let kl_rcm = mean_kl(&rcm);
    let kl_capped = mean_kl(&capped);
    let kl_budget = (kl_rcm * 1.5).max(kl_rcm + 0.05);
    eprintln!("mean KL: rcm={kl_rcm:.4} hub-capped={kl_capped:.4} (cap {cap}, {n_hubs} hubs)");
    assert!(
        kl_capped <= kl_budget,
        "hub-capped KL {kl_capped:.4} exceeds budget {kl_budget:.4} (rcm {kl_rcm:.4})"
    );
}
