//! Allocation regression test for the ordering engine, with the tracking
//! allocator registered the way the real `cahd-cli` binary registers it.
//!
//! A streamed batch's row graph is mostly tiny components: two- and
//! three-row pieces and rows sharing no item at all. The engine owns its
//! level structures and next-level buffer and reuses them across every
//! George–Liu probe and Cuthill–McKee pass, so ordering such a graph
//! allocates a fixed number of blocks (marks, claim slots, scratches, the
//! output, buffer growth up to the largest component), however many
//! components it has. Allocating a level structure per probe and two
//! buffers per component costs several blocks per component and fails
//! here.
//!
//! A test binary of its own: the allocator counters are process-global,
//! so parallel tests in one binary would interleave their windows.

use cahd_obs::{memtrack, Recorder, TrackingAllocator};
use cahd_rcm::{band_order_with, OrderingStrategy, PARALLEL_FRONTIER_MIN};
use cahd_sparse::{CsrMatrix, ImplicitRowGraph, ParNeighborOracle, RowGraph};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Allocations `run` makes.
fn allocs_of<T>(run: impl FnOnce() -> T) -> u64 {
    let before = memtrack::stats().allocs;
    let out = run();
    let allocs = memtrack::stats().allocs - before;
    drop(out);
    allocs
}

/// `k` two-row components, `k` three-row paths (half of them entered at
/// the middle, so the root search restarts) and `k` isolated rows, as
/// transactions: rows sharing an item are adjacent. Components interleave
/// in id order.
fn small_components(k: usize) -> CsrMatrix {
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); 6 * k];
    let mut item = 0u32;
    for c in 0..k {
        let base = 6 * c;
        // A pair: rows base and base+3 share one item.
        rows[base].push(item);
        rows[base + 3].push(item);
        item += 1;
        // A path over rows base+1, base+2, base+4: ends base+1 and base+4
        // with the middle at base+2, or the middle at base+1.
        let (a, mid, b) = if c % 2 == 0 {
            (base + 2, base + 1, base + 4)
        } else {
            (base + 1, base + 2, base + 4)
        };
        for (x, y) in [(a, mid), (mid, b)] {
            rows[x].push(item);
            rows[y].push(item);
            item += 1;
        }
        // Row base+5 holds an item of its own.
        rows[base + 5].push(item);
        item += 1;
    }
    CsrMatrix::from_rows(&rows, item as usize)
}

/// The allocations of ordering `g` under every strategy the engine runs,
/// at one and two workers.
fn ordering_allocs<G: ParNeighborOracle>(g: &G) -> Vec<u64> {
    let mut out = Vec::new();
    for strategy in [OrderingStrategy::Rcm, OrderingStrategy::Bfs] {
        for threads in [1, 2] {
            out.push(allocs_of(|| {
                band_order_with(
                    g,
                    strategy,
                    threads,
                    PARALLEL_FRONTIER_MIN,
                    &Recorder::disabled(),
                )
            }));
        }
    }
    out
}

#[test]
fn ordering_allocates_independently_of_the_component_count() {
    assert!(memtrack::is_active());
    let (small, large) = (small_components(1000), small_components(2000));
    let (gs, gl) = (
        RowGraph::build_explicit(&small),
        RowGraph::build_explicit(&large),
    );
    let (is, il) = (ImplicitRowGraph::new(&small), ImplicitRowGraph::new(&large));
    for (name, a, b) in [
        ("explicit", ordering_allocs(&gs), ordering_allocs(&gl)),
        ("implicit", ordering_allocs(&is), ordering_allocs(&il)),
    ] {
        assert_eq!(
            a, b,
            "{name}: 3,000 components and 6,000 components must allocate alike \
             (rcm/bfs at one and two workers)"
        );
        assert!(
            a.iter().all(|&n| n <= 64),
            "{name}: a fixed handful of blocks per ordering, got {a:?}"
        );
    }
}
