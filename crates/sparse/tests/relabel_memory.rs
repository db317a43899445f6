//! Allocation bound for relabeling over the largest item universe, with
//! the tracking allocator registered the way `cahd-cli` registers it.
//!
//! A bitmap over `1 << 31` columns takes 256 MiB, and its rank prefixes
//! another 128 MiB. A few rows over that universe hold a few ids, so the
//! relabel must sort them instead, and the relabeled rows and their
//! transpose are sized on those ids.
//!
//! A test binary of its own: the allocator counters are process-global,
//! so parallel tests would interleave their windows.

use cahd_obs::{memtrack, TrackingAllocator};
use cahd_sparse::{ColumnSpace, CsrMatrix, Relabel};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

#[test]
fn huge_universe_allocates_no_bitmap() {
    assert!(memtrack::is_active());
    let n_cols = 1usize << 31;
    let top = (1u32 << 31) - 1;
    let rows: Vec<Vec<u32>> = vec![
        vec![0, 5, 1 << 20, top],
        vec![5, 1 << 30],
        vec![top, 7, 7, u32::MAX],
        vec![],
    ];
    let refs: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
    let clean: Vec<Vec<u32>> = vec![vec![0, 5, 1 << 20, top], vec![5, 1 << 30], vec![7, top]];
    let matrix = CsrMatrix::from_rows(&clean, n_cols);

    let before = memtrack::stats().alloc_bytes;
    let (relabel, _) = Relabel::of(n_cols, 8, clean.iter().flatten().copied());
    let (sets, held) = CsrMatrix::from_sets(&refs, n_cols);
    let postings = sets.transpose();
    let (compact, compacted) = matrix.compact_columns();
    let ColumnSpace {
        matrix: wide,
        relabel: wide_relabel,
    } = ColumnSpace::of(&matrix);
    let bytes = memtrack::stats().alloc_bytes - before;

    assert!(bytes < 16 << 10, "relabeling allocated {bytes} bytes");
    for r in [&relabel, &held, &compacted] {
        assert_eq!(r.ids(), &[0, 5, 7, 1 << 20, 1 << 30, top]);
    }
    assert_eq!(wide_relabel.as_ref(), Some(&relabel));
    assert_eq!(*wide, *compact);
    assert_eq!(sets.row(2), &[2, 5]);
    assert_eq!(postings.row(1), &[0, 1]);
}
