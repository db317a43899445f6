//! Release goldens over a 2M-item universe, from the real binary.
//!
//! A quest input with 175 of its 2,000,000 items present is wide for
//! every row set the pipeline scores, so the band reduction and the
//! similarity kernel both work in the compacted item space (where the
//! kernel's dense crossover falls on the compacted width and most
//! candidates take the bitset path). The releases must still be the bytes
//! the uncompacted kernel wrote: the digests below were recorded with the
//! binary from before the kernel relabeled wide universes, for the batch,
//! `--stream-batch` and sharded paths.
//!
//! Each shard's kernel sizes its item space on the shard's own rows. The
//! sharded run's `core.kernel_*` counters below were recorded when every
//! shard still scored a copy of its rows, so a shard that saw the other
//! shard's items (a wider space, another dense crossover) would move them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Sensitive items of support 23–39 in the generated input.
const SENSITIVE: &str = "343356,441974,1590737,1953386";

/// `(byte length, FNV-1a 64)` of the generated `.dat` input.
const INPUT: (usize, u64) = (226_984, 0x892a_fa4c_1a1e_dc5b);

/// `(extra flags, byte length, FNV-1a 64)` of each release.
const RELEASES: &[(&[&str], usize, u64)] = &[
    (&[], 252_375, 0x1a83_2379_7b0c_3e10),
    (&["--stream-batch", "1000"], 252_377, 0xc043_8d5c_ca8b_7290),
    (
        &["--shards", "2", "--threads", "2"],
        252_375,
        0x1a83_2379_7b0c_3e10,
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cahd_wide_goldens_{}_{name}", std::process::id()))
}

fn cahd_cli(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn digest(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), fnv1a(&bytes))
}

#[test]
fn wide_universe_releases_match_the_uncompacted_goldens() {
    let data = tmp("quest.dat");
    let data_s = data.to_str().unwrap();
    cahd_cli(&[
        "generate",
        "quest",
        "--out",
        data_s,
        "--transactions",
        "3000",
        "--items",
        "2000000",
        "--seed",
        "11",
    ]);
    assert_eq!(digest(&data), INPUT, "the generated input drifted");
    for (i, &(extra, len, fnv)) in RELEASES.iter().enumerate() {
        let release = tmp(&format!("release_{i}.json"));
        let mut args = vec![
            "anonymize",
            data_s,
            "--p",
            "4",
            "--sensitive",
            SENSITIVE,
            "--out",
            release.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        cahd_cli(&args);
        let (got_len, got_fnv) = digest(&release);
        assert_eq!(
            (got_len, got_fnv),
            (len, fnv),
            "{extra:?}: release is {got_len} bytes, fnv1a {got_fnv:016x}"
        );
        let _ = std::fs::remove_file(release);
    }
    let _ = std::fs::remove_file(data);
}

/// Generates the 4,000-row quest input over 2,000,000 items (seed 3) at
/// `tmp(name)`.
fn quest_seed3(name: &str) -> PathBuf {
    let data = tmp(name);
    cahd_cli(&[
        "generate",
        "quest",
        "--out",
        data.to_str().unwrap(),
        "--transactions",
        "4000",
        "--items",
        "2000000",
        "--seed",
        "3",
    ]);
    data
}

/// Runs `anonymize --p 4 --metrics` with `extra` flags on `data` and
/// checks each `(counter, value)` of `want` against its metrics output.
fn assert_metrics(data: &Path, extra: &[&str], want: &[(&str, u64)]) {
    let mut args = vec![
        "anonymize",
        data.to_str().unwrap(),
        "--p",
        "4",
        "--sensitive",
        "23253,104823",
        "--metrics",
    ];
    args.extend_from_slice(extra);
    let text = String::from_utf8(cahd_cli(&args).stdout).unwrap();
    let counter = |name: &str| -> Option<u64> {
        text.lines().find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(name)).then(|| words.next()?.parse().ok())?
        })
    };
    for &(name, value) in want {
        assert_eq!(counter(name), Some(value), "{extra:?} {name}\n{text}");
    }
}

/// `core.kernel_*` counters of `anonymize --shards 2 --threads 2` on
/// [`quest_seed3`].
const SHARDED_KERNEL: &[(&str, u64)] = &[
    ("core.kernel_cache_hits", 13_754),
    ("core.kernel_dense_scores", 15_351),
    ("core.kernel_sparse_scores", 4),
];

#[test]
fn sharded_kernel_counters_match_the_copied_shard_rows() {
    let data = quest_seed3("quest_seed3.dat");
    assert_metrics(&data, &["--shards", "2", "--threads", "2"], SHARDED_KERNEL);
    let _ = std::fs::remove_file(data);
}

/// `rcm.*` counters of `anonymize --stream-batch 1000` on [`quest_seed3`]:
/// each of the four batches orders as one component.
const STREAM_RCM: &[(&str, u64)] = &[
    ("rcm.bfs_levels", 15),
    ("rcm.components", 4),
    ("rcm.frontier_parallel", 19),
    ("rcm.frontier_sequential", 35),
    ("rcm.levels", 54),
];

#[test]
fn stream_batch_ordering_counters_are_pinned() {
    let data = quest_seed3("quest_seed3_stream.dat");
    assert_metrics(&data, &["--stream-batch", "1000"], STREAM_RCM);
    let _ = std::fs::remove_file(data);
}
