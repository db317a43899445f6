//! Allocation bounds for the release indexes over a huge item universe,
//! with the tracking allocator registered the way `cahd-cli` registers it.
//!
//! A release of a few hundred rows over a 2M-item universe holds a few
//! hundred items. `evaluate`'s [`WorkloadIndex`] and the attack suite's
//! [`TargetIndex`] relabel to those items and build their postings as a
//! transpose in that space: one table per universe id (postings offsets,
//! last-row stamps, the data's inverted index) would allocate ~16 MiB
//! each.
//!
//! A test binary of its own, with one test: the allocator counters are
//! process-global, so parallel tests would interleave their windows.

use cahd_core::{AnonymizedGroup, PublishedDataset};
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_eval::adversary::index::{Population, TargetIndex};
use cahd_eval::{evaluate_workload, GroupByQuery};
use cahd_obs::{memtrack, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Ceiling on the bytes each index build allocates. The rows below take
/// ~20 KiB in every form they are read in.
const INDEX_BYTES: u64 = 256 << 10;

/// Bytes allocated while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = memtrack::stats().alloc_bytes;
    let out = f();
    (out, memtrack::stats().alloc_bytes - before)
}

#[test]
fn wide_universe_indexes_allocate_per_item_held() {
    assert!(memtrack::is_active());
    let n_items = 2_000_000usize;
    // 400 rows of 4 items spread over the universe, sensitive item 0 in
    // every fourth row.
    let rows: Vec<Vec<u32>> = (0..400u32)
        .map(|t| {
            let mut row: Vec<u32> = (0..4)
                .map(|j| 1 + (t * 7 + j * 4_999) % 1_999_999)
                .collect();
            if t % 4 == 0 {
                row.push(0);
            }
            row
        })
        .collect();
    let data = TransactionSet::from_rows(&rows, n_items);
    let sens = SensitiveSet::new(vec![0], n_items);
    let members: Vec<u32> = (0..400).collect();
    let release = PublishedDataset {
        n_items,
        sensitive_items: vec![0],
        groups: members
            .chunks(4)
            .map(|m| AnonymizedGroup::from_members(&data, &sens, m))
            .collect(),
    };
    let queries: Vec<GroupByQuery> = (0..20u32)
        .map(|t| GroupByQuery::new(0, data.transaction(t as usize * 4)[1..3].to_vec()))
        .collect();

    let (summary, evaluate_bytes) = allocated(|| evaluate_workload(&data, &release, &queries));
    assert_eq!(summary.n_queries, queries.len(), "{summary:?}");
    assert!(
        evaluate_bytes < INDEX_BYTES,
        "evaluate allocated {evaluate_bytes} bytes"
    );

    let population = Population::new(&data, &sens);
    let (index, index_bytes) = allocated(|| TargetIndex::new(&population, Some(&release)));
    assert_eq!(index.n_rows(), 400);
    assert!(
        index_bytes < INDEX_BYTES,
        "the attack index allocated {index_bytes} bytes"
    );
}
