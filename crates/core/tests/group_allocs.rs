//! Allocation regression tests for group formation, with the tracking
//! allocator registered the way the real `cahd-cli` binary registers it.
//!
//! Group formation splits every row once into flat arrays, and a binary
//! release keeps each group's QID rows as one flat array of items plus
//! one of row offsets, so between entry and return `cahd_traced` and
//! `cahd_sharded_traced` allocate a handful of blocks per group and a
//! fixed amount of scratch, however many rows the groups hold:
//! `allocs ≤ 8·n_groups + 256`. A `Vec` per published row costs one
//! block per row (about 14.9k here) and fails this bound. The weighted
//! engine still publishes a `Vec` per row, bounded by
//! `allocs ≤ n_rows + 8·n_groups + 256`; giving every row its own QID and
//! sensitive `Vec`s, and cloning the QID row again for the release, costs
//! about three allocations per row and fails that bound too.
//!
//! The input is BMS-WebView-1 shaped at quarter scale (14,900 rows, most
//! of them duplicates of a few thousand distinct ones, most ending in the
//! leftover group), in the band order the pipeline would hand the engine.
//!
//! A test binary of its own, and its tests take turns: the allocator
//! counters are process-global, so parallel tests would interleave their
//! windows.

use std::sync::{Mutex, PoisonError};

use cahd_core::shard::{cahd_sharded_traced, ParallelConfig};
use cahd_core::weighted::{cahd_weighted, WeightedSimilarity};
use cahd_core::{cahd_traced, CahdConfig};
use cahd_data::{profiles, SensitiveSet, TransactionSet, WeightedTransactionSet};
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

/// One test at a time: the allocator counters are process-global.
static TURN: Mutex<()> = Mutex::new(());

/// The quarter-scale BMS1-shaped input in band order, and four of its
/// items as the sensitive set.
fn bms1_shape() -> (TransactionSet, SensitiveSet) {
    let raw = profiles::bms1_like(0.25, 7);
    let data = raw.permute(
        &reduce_unsymmetric(raw.matrix(), UnsymOptions::default(), &Recorder::disabled()).row_perm,
    );
    let mut rng = StdRng::seed_from_u64(7);
    let sens = SensitiveSet::select_random(&data, 4, 4, &mut rng).unwrap();
    (data, sens)
}

fn per_group_ceiling(n_groups: usize) -> u64 {
    (8 * n_groups + 256) as u64
}

#[test]
fn binary_release_allocates_per_group_not_per_row() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    assert!(memtrack::is_active());
    let (data, sens) = bms1_shape();
    let cfg = CahdConfig::new(4);
    let n = data.n_transactions();
    let rec = Recorder::disabled();

    let (allocs, out) = allocs_of(|| cahd_traced(&data, &sens, &cfg, &rec).unwrap());
    let groups = out.0.n_groups();
    assert!(groups > 100, "the input must form groups: {groups}");
    assert!(
        8 * groups < n,
        "the bound must sit below one block per row: {groups} groups, {n} rows"
    );
    assert!(
        allocs <= per_group_ceiling(groups),
        "cahd_traced: {allocs} allocations for {n} rows and {groups} groups"
    );
    drop(out);

    let parallel = ParallelConfig::new(2, 1);
    let (allocs, out) =
        allocs_of(|| cahd_sharded_traced(&data, &sens, &cfg, &parallel, &rec).unwrap());
    let groups = out.0.n_groups();
    assert_eq!(out.1.shards, 2);
    assert!(
        allocs <= per_group_ceiling(groups),
        "cahd_sharded_traced: {allocs} allocations for {n} rows and {groups} groups"
    );
}

#[test]
fn group_formation_allocates_per_published_row_not_per_split() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    assert!(memtrack::is_active());
    let (data, sens) = bms1_shape();
    let cfg = CahdConfig::new(4);
    let n = data.n_transactions();
    let rec = Recorder::disabled();

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
            allocs <= (n + 8 * groups + 256) as u64,
            "weighted {similarity:?}: {allocs} allocations for {n} rows and {groups} groups"
        );
    }
}
