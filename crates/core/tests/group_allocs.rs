//! Allocation regression test for group formation, with the tracking
//! allocator registered the way the real `cahd-cli` binary registers it.
//!
//! Group formation splits every row once into flat arrays, so between
//! entry and return an engine may allocate one published QID row per
//! input row, a handful of buffers per group, and a fixed amount of
//! scratch: `allocs ≤ n_rows + 8·n_groups + 256`. Giving every row its
//! own QID and sensitive `Vec`s, and cloning the QID row again for the
//! release, costs about three allocations per row and fails this bound.
//!
//! The input is BMS-WebView-1 shaped at quarter scale (14,900 rows, most
//! of them duplicates of a few thousand distinct ones, most ending in the
//! leftover group), in the band order the pipeline would hand the engine.
//!
//! A test binary of its own: the allocator counters are process-global,
//! so parallel tests in one binary would interleave their windows.

use cahd_core::shard::{cahd_sharded_traced, ParallelConfig};
use cahd_core::weighted::{cahd_weighted, WeightedSimilarity};
use cahd_core::{cahd_traced, CahdConfig};
use cahd_data::{profiles, SensitiveSet, WeightedTransactionSet};
use cahd_obs::{memtrack, Recorder, TrackingAllocator};
use cahd_rcm::{reduce_unsymmetric, UnsymOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Allocations `run` makes, and what it returns.
fn allocs_of<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = memtrack::stats().allocs;
    let out = run();
    (memtrack::stats().allocs - before, out)
}

fn ceiling(n_rows: usize, n_groups: usize) -> u64 {
    (n_rows + 8 * n_groups + 256) as u64
}

#[test]
fn group_formation_allocates_per_published_row_not_per_split() {
    assert!(memtrack::is_active());
    let raw = profiles::bms1_like(0.25, 7);
    let data = raw.permute(
        &reduce_unsymmetric(raw.matrix(), UnsymOptions::default(), &Recorder::disabled()).row_perm,
    );
    let mut rng = StdRng::seed_from_u64(7);
    let sens = SensitiveSet::select_random(&data, 4, 4, &mut rng).unwrap();
    let cfg = CahdConfig::new(4);
    let n = data.n_transactions();
    let rec = Recorder::disabled();

    let (allocs, out) = allocs_of(|| cahd_traced(&data, &sens, &cfg, &rec).unwrap());
    let groups = out.0.n_groups();
    assert!(groups > 100, "the input must form groups: {groups}");
    assert!(
        allocs <= ceiling(n, groups),
        "cahd_traced: {allocs} allocations for {n} rows and {groups} groups"
    );
    drop(out);

    let parallel = ParallelConfig::new(2, 1);
    let (allocs, out) =
        allocs_of(|| cahd_sharded_traced(&data, &sens, &cfg, &parallel, &rec).unwrap());
    let groups = out.0.n_groups();
    assert_eq!(out.1.shards, 2);
    assert!(
        allocs <= ceiling(n, groups),
        "cahd_sharded_traced: {allocs} allocations for {n} rows and {groups} groups"
    );
    drop(out);

    let rows: Vec<Vec<(u32, u32)>> = data
        .iter()
        .enumerate()
        .map(|(t, row)| row.iter().map(|&i| (i, 1 + (t as u32 + i) % 3)).collect())
        .collect();
    let wdata = WeightedTransactionSet::from_rows(&rows, data.n_items());
    for similarity in [
        WeightedSimilarity::MinCount,
        WeightedSimilarity::PresenceOverlap,
    ] {
        let (allocs, out) =
            allocs_of(|| cahd_weighted(&wdata, &sens, &cfg, similarity, &rec).unwrap());
        let groups = out.0.groups.len();
        assert!(
            allocs <= ceiling(n, groups),
            "weighted {similarity:?}: {allocs} allocations for {n} rows and {groups} groups"
        );
    }
}
