//! End-to-end exercise of [`cahd_obs::TrackingAllocator`] with the
//! wrapper actually registered as this binary's global allocator.
//!
//! Everything lives in ONE test, run from `main` without the libtest
//! harness (`harness = false` in Cargo.toml): the allocator counters are
//! process-global, and the zero-cost assertion must see no foreign
//! allocations between its two readings. Concurrent tests in the same
//! binary would pollute each other's deltas, and so does the harness
//! itself: its main thread books each test it spawns into a map and a
//! queue (two allocations), which can land inside that window.

use cahd_obs::{memtrack, Recorder, TraceReport, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn main() {
    tracking_allocator_end_to_end();
    println!("test tracking_allocator_end_to_end ... ok");
}

fn tracking_allocator_end_to_end() {
    // --- the wrapper is live and its totals are coherent -----------------
    let warm = vec![1u8; 4096];
    drop(warm);
    assert!(memtrack::is_active());
    let s0 = memtrack::stats();
    assert!(s0.alloc_bytes >= 4096);
    assert!(s0.dealloc_bytes <= s0.alloc_bytes);
    assert!(s0.deallocs <= s0.allocs);
    assert_eq!(s0.live_bytes, s0.alloc_bytes - s0.dealloc_bytes);
    assert!(s0.peak_bytes >= s0.live_bytes);

    // --- zero-cost contract: a disabled recorder allocates nothing ------
    let rec = Recorder::disabled();
    let before = memtrack::stats();
    for i in 0..1000u64 {
        let _span = rec.span("pipeline/group");
        rec.add("core.groups_formed", i);
        rec.incr("core.pivots_scanned");
        rec.gauge("core.shards", 4.0);
        rec.observe("core.candidate_list_len", i);
        let _ = rec.snapshot();
    }
    let after = memtrack::stats();
    assert_eq!(
        before.allocs, after.allocs,
        "disabled-recorder instrumentation allocated"
    );
    assert_eq!(before.alloc_bytes, after.alloc_bytes);

    // --- enabled + opted-in recorder attributes windows to spans --------
    let rec = Recorder::new().with_memory();
    assert!(rec.memory_tracking());
    {
        let _root = rec.span("pipeline");
        let outer = vec![0u8; 1 << 16];
        {
            let _child = rec.span("pipeline/rcm");
            let inner = vec![0u8; 1 << 12];
            drop(inner);
        }
        drop(outer);
        rec.record_memory_gauges();
    }
    let report = rec.snapshot();
    assert!(report.consistency_findings().is_empty());
    let mem = report.memory.as_ref().expect("memory section present");
    assert!(mem.consistency_findings().is_empty(), "{mem:?}");
    let root = mem.span("pipeline").expect("root window recorded");
    let child = mem.span("pipeline/rcm").expect("child window recorded");
    assert!(root.alloc_bytes >= (1 << 16) + (1 << 12));
    assert!(child.alloc_bytes >= 1 << 12);
    assert!(child.alloc_bytes <= root.alloc_bytes);
    assert!(child.peak_bytes <= root.peak_bytes);
    assert!(root.peak_bytes <= mem.totals.peak_bytes);
    for g in [
        "mem.alloc_bytes",
        "mem.dealloc_bytes",
        "mem.allocs",
        "mem.deallocs",
        "mem.live_bytes",
        "mem.peak_bytes",
    ] {
        assert!(report.gauge(g).is_some(), "gauge {g} missing");
    }

    // --- a real memory section survives the serde shim ------------------
    let json = serde_json::to_string(&report).expect("report serializes");
    let back: TraceReport = serde_json::from_str(&json).expect("report re-parses");
    assert_eq!(report, back);

    // --- merge_from folds scratch windows into the target ---------------
    let target = Recorder::new().with_memory();
    {
        let _s = target.span("pipeline/group");
        let _v = vec![0u8; 512];
    }
    let scratch = Recorder::new().with_memory();
    {
        let _s = scratch.span("pipeline/group");
        let _v = vec![0u8; 512];
    }
    target.merge_from(&scratch);
    let merged = target.snapshot();
    let w = merged
        .memory
        .as_ref()
        .and_then(|m| m.span("pipeline/group"))
        .expect("merged window");
    assert_eq!(w.count, 2);
    assert!(w.alloc_bytes >= 1024);

    // --- reset_peak() rebaselines the high-water mark -------------------
    memtrack::reset_peak();
    let s1 = memtrack::stats();
    assert_eq!(s1.peak_bytes, s1.live_bytes);
    let big = vec![0u8; 1 << 20];
    let s2 = memtrack::stats();
    assert!(s2.peak_bytes >= s1.live_bytes + (1 << 20));
    drop(big);
}
