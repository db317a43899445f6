//! Snapshot memory columns with the tracking allocator registered, the
//! way the `perf_snapshot` binary registers it. The allocator counters
//! are process-global, so every test here serializes its peak window
//! behind a lock.

use std::sync::Mutex;

use cahd_bench::snapshot::collect_filtered;
use cahd_obs::{memtrack, TrackingAllocator};
use cahd_sparse::{CsrMatrix, RowGraph};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Peak readings are process-global; tests that reset and read the peak
/// must not interleave.
static PEAK_WINDOW: Mutex<()> = Mutex::new(());

#[test]
fn snapshot_entries_carry_real_allocator_readings() {
    let _w = PEAK_WINDOW.lock().unwrap();
    let snap = collect_filtered(true, 7, Some("bms1/p4/shards1"));
    assert_eq!(snap.entries.len(), 1);
    let e = &snap.entries[0];
    // A real pipeline run allocates, and the per-repeat peak sits at or
    // above the net growth of the busiest moment — both columns must be
    // live, not the inert zeros of an allocator-less binary.
    assert!(e.allocs > 0, "allocs column is dead");
    assert!(
        e.peak_alloc_bytes >= 1024,
        "peak {} implausibly small for a pipeline run",
        e.peak_alloc_bytes
    );
}

/// Regression for the explicit-build reservation over-allocation: rows
/// arrive in blocks that share many items, so the raw traversal count
/// (`sum` of posting lengths) exceeds the deduplicated adjacency by the
/// shared-item factor. The old `fill_chunk` reserved the raw count —
/// ~78 MB up front for this fixture — and drove the 85–131 MB snapshot
/// peaks; the clamped reservation must keep the whole build within a
/// small multiple of the real adjacency (~3.1 MB).
#[test]
fn explicit_build_reservation_is_clamped_to_real_adjacency() {
    // 20k rows in blocks of 40; each block shares one 25-item pattern.
    // Raw traversal count per row: 25 items x 39 other holders = 975;
    // true neighbor count: 39. Duplicate factor 25.
    let n = 20_000usize;
    let block = 40usize;
    let k = 25u32;
    let rows: Vec<Vec<u32>> = (0..n)
        .map(|r| {
            let base = (r / block) as u32 * k;
            (base..base + k).collect()
        })
        .collect();
    let n_cols = (n / block) * k as usize;
    let a = CsrMatrix::from_rows(&rows, n_cols);
    let _w = PEAK_WINDOW.lock().unwrap();
    for threads in [1usize, 4] {
        let before = memtrack::stats().live_bytes;
        memtrack::reset_peak();
        let g = RowGraph::build_explicit_threaded(&a, threads);
        let peak = memtrack::stats().peak_bytes.saturating_sub(before);
        // True adjacency: 20k rows x 39 neighbors x 4 bytes ≈ 3.1 MB.
        // Budget: reservation clamp (4 MiB/chunk) + assembly copies +
        // indptr slack, far below the raw-count reservation (~78 MB).
        let budget = 24 << 20;
        assert!(
            peak <= budget,
            "explicit build peaked at {peak} bytes (> {budget}) with {threads} threads: \
             the fill_chunk reservation clamp regressed"
        );
        drop(g);
    }
}
