//! `cahd-cli evaluate` on the committed fixtures: the printed summary and
//! the full-precision KL aggregates behind it are pinned, and a release
//! whose QID rows are not canonical is refused without a KL.
//!
//! Runs the real binary so a panic shows as exit code 101, not as a
//! caught unwind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cahd_core::PublishedDataset;
use cahd_data::io::read_dat_file;
use cahd_data::SensitiveSet;
use cahd_eval::{evaluate_workload, generate_workload_seeded};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cahd_evaluate_cli_{}_{name}", std::process::id()))
}

fn cahd_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .args(args)
        .output()
        .unwrap()
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

fn read_release(path: &Path) -> PublishedDataset {
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// One pinned run: release fixture, `(r, queries, seed)`, the printed
/// line, and the bits of `mean_kl`, `median_kl`, `max_kl`, `std_kl`.
struct Golden {
    release: &'static str,
    workload: (usize, usize, u64),
    text: &'static str,
    bits: [u64; 4],
}

const GOLDENS: &[Golden] = &[
    Golden {
        release: "demo_release.json",
        workload: (4, 100, 42),
        text: "reconstruction error over 100 queries (r = 4): mean KL 0.4184, median 0.4177, max 0.7671, std 0.1325\n",
        bits: [0x3fdac69b86aaceb8, 0x3fdabc09b57179e6, 0x3fe88c3f7350c1e4, 0x3fc0f4e710614fae],
    },
    Golden {
        release: "demo_release.json",
        workload: (2, 30, 5),
        text: "reconstruction error over 30 queries (r = 2): mean KL 0.0928, median 0.0792, max 0.2449, std 0.0657\n",
        bits: [0x3fb7c3827948d106, 0x3fb447af597cf24e, 0x3fcf5a59b0bfac29, 0x3fb0d49f4a170071],
    },
    Golden {
        release: "demo_release_tampered.json",
        workload: (4, 100, 42),
        text: "reconstruction error over 100 queries (r = 4): mean KL 0.4225, median 0.4183, max 0.7115, std 0.1252\n",
        bits: [0x3fdb09a9ddc901fb, 0x3fdac59b1a254096, 0x3fe6c4f2acb9d8d6, 0x3fc005a711956f55],
    },
    Golden {
        release: "demo_release_tampered.json",
        workload: (2, 30, 5),
        text: "reconstruction error over 30 queries (r = 2): mean KL 0.0917, median 0.0807, max 0.2449, std 0.0654\n",
        bits: [0x3fb77b056c805a21, 0x3fb4a7d473e07c9a, 0x3fcf5a59b0bfac29, 0x3fb0bd35bd4843a4],
    },
    Golden {
        release: "demo_release_leaky.json",
        workload: (4, 100, 42),
        text: "reconstruction error over 100 queries (r = 4): mean KL 0.4047, median 0.4142, max 0.7650, std 0.1307\n",
        bits: [0x3fd9e63bff1a12bb, 0x3fda821f59ebbc4f, 0x3fe87a89ebab0b47, 0x3fc0bc452e2a7428],
    },
    Golden {
        release: "demo_release_leaky.json",
        workload: (2, 30, 5),
        text: "reconstruction error over 30 queries (r = 2): mean KL 0.0904, median 0.0697, max 0.2449, std 0.0664\n",
        bits: [0x3fb725aeaca4b96c, 0x3fb1d880389fc486, 0x3fcf5a59b0bfac29, 0x3fb0fe3703eeafda],
    },
];

#[test]
fn evaluate_text_matches_the_goldens() {
    let data = fixture("demo.dat");
    for g in GOLDENS {
        let (r, queries, seed) = g.workload;
        let (r, queries, seed) = (r.to_string(), queries.to_string(), seed.to_string());
        let mut args = vec!["evaluate", path_str(&data)];
        let release = fixture(g.release);
        args.push(path_str(&release));
        // The default workload is r = 4, 100 queries, seed 42.
        if g.workload != (4, 100, 42) {
            args.extend(["--r", &r, "--queries", &queries, "--seed", &seed]);
        }
        let out = cahd_cli(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: {}",
            g.release,
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            g.text,
            "{}",
            g.release
        );
    }
}

#[test]
fn evaluate_aggregates_match_the_golden_bits() {
    let data = read_dat_file(fixture("demo.dat"), None).unwrap();
    for g in GOLDENS {
        let release = read_release(&fixture(g.release));
        let sensitive = SensitiveSet::new(release.sensitive_items.clone(), data.n_items());
        let (r, n, seed) = g.workload;
        let queries = generate_workload_seeded(&data, &sensitive, r, n, seed);
        let s = evaluate_workload(&data, &release, &queries);
        let got = [s.mean_kl, s.median_kl, s.max_kl, s.std_kl].map(f64::to_bits);
        assert_eq!(got, g.bits, "{} {:?}", g.release, g.workload);
    }
}

#[test]
fn non_canonical_rows_fail_closed() {
    let data = fixture("demo.dat");
    let clean = read_release(&fixture("demo_release.json"));
    let row = clean.groups[2].qid_rows[1].clone();
    let mut unsorted = row.clone();
    unsorted.swap(0, 1);
    let mut repeated = row.clone();
    repeated.insert(0, row[0]);
    let mut past_universe = row;
    past_universe.push(clean.n_items as u32);
    for (tag, bad_row, reason) in [
        ("unsorted", unsorted, "not strictly ascending"),
        ("repeated", repeated, "not strictly ascending"),
        ("past_universe", past_universe, "outside the universe"),
    ] {
        let mut release = clean.clone();
        release.groups[2].qid_rows[1] = bad_row;
        let path = tmp(&format!("{tag}.json"));
        std::fs::write(&path, serde_json::to_string(&release).unwrap()).unwrap();
        let out = cahd_cli(&["evaluate", path_str(&data), path_str(&path)]);
        std::fs::remove_file(&path).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}: printed a KL");
        assert!(stderr.contains("group 2, QID row 1"), "{tag}: {stderr}");
        assert!(stderr.contains(reason), "{tag}: {stderr}");
    }
}
