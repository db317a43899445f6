//! `check` fails closed on a release whose QID rows are malformed:
//! unsorted, repeating an item, or carrying item ids outside the
//! universe (up to `u32::MAX`). The full registry must run without a
//! panic, `CAHD-Q001` must name the tampered row, and the memory the run
//! needs must not grow with the item-id values the release carries. A
//! group whose `sensitive_counts` name a QID item or an id past the
//! universe must fail `CAHD-S001`/`CAHD-S002`, again without a panic, and
//! so must a group listing more or fewer QID rows than members: error
//! findings with `CAHD-*` codes, never a panic.
//!
//! One `#[test]` on purpose: the allocator counters are process-global,
//! so parallel tests in one binary would interleave their windows.

use std::fs;
use std::path::{Path, PathBuf};

use cahd_check::{default_registry, CheckInput, CheckReport, Severity};
use cahd_core::PublishedDataset;
use cahd_data::io::read_dat_file;
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_obs::{memtrack, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// The demo release was built with `--p 4`.
const DEMO_P: usize = 4;

/// Extra ids appended to a row in the memory comparison.
const EXTRA_IDS: u32 = 64;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

/// Runs the full registry and returns the report with the allocation
/// high-water mark the run reached above the bytes live at its start.
fn check(
    data: &TransactionSet,
    sens: &SensitiveSet,
    release: &PublishedDataset,
) -> (CheckReport, u64) {
    memtrack::reset_peak();
    let live = memtrack::stats().live_bytes;
    let report = default_registry().run(
        &CheckInput {
            data,
            sensitive: sens,
            published: release,
            p: DEMO_P,
            trace: None,
            attack: None,
        },
        &cahd_obs::Recorder::disabled(),
    );
    (report, memtrack::stats().peak_bytes - live)
}

#[test]
fn malformed_qid_rows_fail_closed_in_bounded_memory() {
    assert!(memtrack::is_active());
    let clean: PublishedDataset =
        serde_json::from_str(&fs::read_to_string(fixture("demo_release.json")).unwrap()).unwrap();
    let data = read_dat_file(fixture("demo.dat"), Some(clean.n_items)).unwrap();
    let sens = SensitiveSet::new(clean.sensitive_items.clone(), clean.n_items);
    let (report, _) = check(&data, &sens, &clean);
    assert!(report.is_clean(), "{}", report.render_human());

    // The first QID row with at least two items is the one tampered with.
    let (gi, mi) = clean
        .groups
        .iter()
        .enumerate()
        .find_map(|(gi, g)| {
            g.qid_rows
                .iter()
                .position(|r| r.len() >= 2)
                .map(|mi| (gi, mi))
        })
        .expect("the demo release has a multi-item QID row");
    let n_items = clean.n_items as u32;
    let tamper = |edit: &dyn Fn(&mut Vec<u32>)| {
        let mut release = clean.clone();
        release.groups[gi]
            .qid_rows
            .edit_rows(|rows| edit(&mut rows[mi]));
        release
    };

    let cases: Vec<(&str, PublishedDataset)> = vec![
        ("unsorted", tamper(&|r| r.reverse())),
        ("repeated item", tamper(&|r| r.insert(1, r[0]))),
        ("id == n_items", tamper(&|r| r.push(n_items))),
        ("id == u32::MAX", tamper(&|r| r.push(u32::MAX))),
        (
            "unsorted, repeated, u32::MAX",
            tamper(&|r| r.extend([u32::MAX, r[0], u32::MAX])),
        ),
    ];
    for (name, release) in &cases {
        let (report, _) = check(&data, &sens, release);
        assert!(!report.is_clean(), "{name}: {}", report.render_human());
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "CAHD-Q001" && d.group == Some(gi) && d.member == Some(mi)),
            "{name}: no CAHD-Q001 at group {gi}, member {mi}:\n{}",
            report.render_human()
        );
    }

    // Sensitive counts naming a QID item, or an id past the universe:
    // the summary check names the group, and no pass panics on the entry.
    assert!(!clean.sensitive_items.contains(&3));
    for (name, entry) in [("non-sensitive count", (3, 1)), ("count id 999", (999, 1))] {
        let mut release = clean.clone();
        release.groups[0].sensitive_counts.push(entry);
        let (report, _) = check(&data, &sens, &release);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error
                    && (d.code == "CAHD-S001" || d.code == "CAHD-S002")),
            "{name}: no CAHD-S001/S002 error:\n{}",
            report.render_human()
        );
    }

    // More or fewer published rows than members: findings, not a panic.
    // The release is read back from its JSON, as `check` reads it.
    for (name, rows) in [
        ("a row more", 1isize),
        ("a row fewer", -1),
        ("no rows", -99),
    ] {
        let mut release = clean.clone();
        release.groups[gi].qid_rows.edit_rows(|qid| {
            if rows > 0 {
                qid.push(vec![0]);
            } else {
                qid.truncate(qid.len().saturating_sub(rows.unsigned_abs()));
            }
        });
        assert_ne!(
            release.groups[gi].qid_rows.len(),
            release.groups[gi].members.len()
        );
        let text = serde_json::to_string(&release).unwrap();
        let release: PublishedDataset = serde_json::from_str(&text).unwrap();
        let (report, _) = check(&data, &sens, &release);
        let errors: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect();
        assert!(
            !errors.is_empty() && errors.iter().all(|c| c.starts_with("CAHD-")),
            "{name}: {errors:?}\n{}",
            report.render_human()
        );
    }

    // The same number of out-of-range ids just past the universe and just
    // below u32::MAX: no buffer may be sized by an id value.
    let low = tamper(&|r| r.extend(n_items..n_items + EXTRA_IDS));
    let high = tamper(&|r| r.extend(u32::MAX - EXTRA_IDS..u32::MAX));
    let (_, low_peak) = check(&data, &sens, &low);
    let (_, high_peak) = check(&data, &sens, &high);
    assert!(
        high_peak <= low_peak + (64 << 10),
        "peak {high_peak} B with ids near u32::MAX vs {low_peak} B just past n_items"
    );
}
