//! Allocation regression test for the `--stream-batch` ingest, with the
//! tracking allocator registered the way the real `cahd-cli` binary
//! registers it.
//!
//! The CLI reads the `.dat` file into one raw CSR, builds the sanitized
//! dataset from it (the same arrays when every row is clean), and copies
//! each row into the stream's flat buffer. Each of those grows a few
//! arrays, so the number of heap blocks must not depend on the row
//! count: reading twice the rows may cost a few more array doublings,
//! never a block per row. A `Vec` per row, in the reader or in the
//! buffer, fails this at once.
//!
//! A test binary of its own: the allocator counters are process-global,
//! so parallel tests in one binary would interleave their windows.

use std::io::{BufReader, Cursor};

use cahd_core::pipeline::AnonymizerConfig;
use cahd_core::recovery::{RecoveryConfig, SanitizedRows};
use cahd_core::streaming::StreamingAnonymizer;
use cahd_data::{io, profiles, QuestGenerator, SensitiveSet};
use cahd_obs::{memtrack, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// A `.dat` file of `n` rows of the stream workload's shape (a 2M-item
/// universe), written as the program writes it.
fn dat(n: usize) -> Vec<u8> {
    let mut cfg = profiles::quest_xl_config(1.0);
    cfg.n_transactions = n;
    let data = QuestGenerator::new(cfg, 7).generate();
    let mut bytes = Vec::new();
    io::write_dat(&mut bytes, &data).unwrap();
    bytes
}

/// Allocations made reading `bytes` and buffering every row in a stream
/// whose one batch is never full.
fn ingest_allocs(bytes: &[u8]) -> (u64, usize) {
    let before = memtrack::stats().allocs;
    let (raw, inferred) = io::read_dat_raw(BufReader::new(Cursor::new(bytes))).unwrap();
    let rows = SanitizedRows::new(raw, inferred);
    let n = rows.data().n_transactions();
    let sensitive = SensitiveSet::new(vec![rows.raw_row(0)[0]], inferred);
    let config = AnonymizerConfig::with_privacy_degree(4);
    let mut stream =
        StreamingAnonymizer::new(config, sensitive, n + 1).with_recovery(RecoveryConfig::strict());
    for row in rows.raw_rows() {
        assert!(stream.push_row(row).unwrap().is_none());
    }
    assert!(rows.is_shared(), "generated rows are clean");
    let allocs = memtrack::stats().allocs - before;
    assert_eq!(stream.buffered(), n);
    (allocs, n)
}

#[test]
fn stream_ingest_allocates_alike_for_n_and_2n_rows() {
    assert!(memtrack::is_active());
    let (small, n_small) = ingest_allocs(&dat(3_000));
    let (large, n_large) = ingest_allocs(&dat(6_000));
    assert!(n_large >= 2 * n_small - 10, "{n_small} vs {n_large} rows");
    // Twice the rows may take one more doubling of each growing array.
    assert!(
        large <= small + 16,
        "{small} allocations for {n_small} rows, {large} for {n_large}"
    );
    assert!(small < 128, "{small} allocations for {n_small} rows");
}
