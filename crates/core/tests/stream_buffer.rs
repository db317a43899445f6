//! The stream's flat buffer against the nested `(stream id, Vec)` buffer
//! it replaced: the same pushes must give the same checkpoint JSON and
//! the same chunks, byte for byte.
//!
//! The pinned digests and literals were recorded from the nested buffer
//! on the script below: a quarantined row (a duplicate id and one past
//! the universe), two batches that defer sensitive rows to the next one,
//! and a resume from a checkpoint whose stash is not empty.

use cahd_core::checkpoint::StreamingCheckpoint;
use cahd_core::pipeline::AnonymizerConfig;
use cahd_core::recovery::RecoveryConfig;
use cahd_core::streaming::{ReleaseChunk, StreamingAnonymizer};
use cahd_data::{ItemId, SensitiveSet};
use cahd_obs::Recorder;

/// FNV-1a over `lines`, each followed by `\n`.
fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn rows() -> Vec<Vec<ItemId>> {
    let mut rows: Vec<Vec<ItemId>> = vec![
        vec![0, 9],
        vec![1, 9],
        vec![2, 9],
        vec![3],
        vec![1, 1, 12],
        vec![0],
        vec![5, 4],
        vec![7],
        vec![9, 8],
    ];
    rows.extend([6, 2, 3, 4, 5, 6, 7, 8].map(|i| vec![i]));
    rows.push(vec![0, 1]);
    rows
}

fn sensitive() -> SensitiveSet {
    SensitiveSet::new(vec![9], 10)
}

fn stream(recovery: RecoveryConfig) -> StreamingAnonymizer {
    StreamingAnonymizer::new(AnonymizerConfig::with_privacy_degree(3), sensitive(), 6)
        .with_recovery(recovery)
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

/// Every checkpoint (one after each push, one after `finish`) and every
/// chunk of the script, pushing by `Vec` or by slice.
fn run(by_slice: bool) -> (Vec<String>, Vec<String>) {
    let mut s = stream(RecoveryConfig::quarantine());
    let (mut checkpoints, mut chunks) = (Vec::new(), Vec::new());
    for row in rows() {
        let released = if by_slice {
            s.push_row(&row)
        } else {
            s.push(row)
        };
        chunks.extend(released.unwrap().map(|c| json(&c)));
        checkpoints.push(json(&s.checkpoint()));
    }
    chunks.extend(s.finish().unwrap().map(|c| json(&c)));
    checkpoints.push(json(&s.checkpoint()));
    (checkpoints, chunks)
}

#[test]
fn checkpoints_and_chunks_match_the_nested_buffer() {
    for by_slice in [false, true] {
        let (checkpoints, chunks) = run(by_slice);
        assert_eq!(checkpoints.len(), 19);
        assert_eq!(digest(&checkpoints), 0xbd3e_f22c_939e_93c5, "{by_slice}");
        assert_eq!(chunks.len(), 4);
        assert_eq!(digest(&chunks), 0x339c_a963_937f_a7c0, "{by_slice}");
        // The first batch deferred two sensitive rows (stream ids 2 and
        // 1, in that order) and published the quarantined row 4.
        assert_eq!(
            checkpoints[5],
            "{\"version\":1,\"p\":3,\"batch_size\":6,\"n_items\":10,\"next_id\":6,\
             \"carried_over\":2,\"finished\":false,\"buffer\":[[2,[2,9]],[1,[1,9]]],\
             \"stash\":[],\"sensitive_items\":[9],\"remaining_counts\":[2],\
             \"digest\":1036833493614022}"
        );
        assert!(chunks[0].starts_with("{\"stream_ids\":[0,3,4,5],"));
    }
}

#[test]
fn a_resumed_stash_round_trips_and_releases_like_the_nested_buffer() {
    let (checkpoints, _) = run(true);
    let mut cp: StreamingCheckpoint = serde_json::from_str(&checkpoints[7]).unwrap();
    cp.stash = vec![(1, vec![1, 9])];
    cp.buffer.retain(|&(id, _)| id != 1);
    cp.seal();
    let text = json(&cp);
    assert_eq!(
        text,
        "{\"version\":1,\"p\":3,\"batch_size\":6,\"n_items\":10,\"next_id\":8,\
         \"carried_over\":2,\"finished\":false,\"buffer\":[[2,[2,9]],[6,[5,4]],[7,[7]]],\
         \"stash\":[[1,[1,9]]],\"sensitive_items\":[9],\"remaining_counts\":[2],\
         \"digest\":449677424167436}"
    );
    let config = AnonymizerConfig::with_privacy_degree(3);
    let mut s = StreamingAnonymizer::resume(config, sensitive(), &cp, &Recorder::disabled())
        .unwrap()
        .with_recovery(RecoveryConfig::quarantine());
    assert_eq!(json(&s.checkpoint()), text);
    let mut chunks = Vec::new();
    for row in &rows()[8..] {
        chunks.extend(s.push_row(row).unwrap().map(|c| json(&c)));
    }
    chunks.extend(s.finish().unwrap().map(|c| json(&c)));
    assert_eq!(chunks.len(), 3);
    assert_eq!(digest(&chunks), 0x4897_fda8_4856_65bf);
}

/// The splitmix64 mixer, seeding [`seeded_rows`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded rows over a universe of 40 with four sensitive items: sorted,
/// unsorted, repeated and out-of-range ids.
fn seeded_rows(n: u64) -> Vec<Vec<ItemId>> {
    (0..n)
        .map(|r| {
            let h = splitmix64(r ^ 0x5eed);
            let len = 1 + (h % 6) as usize;
            let mut row: Vec<ItemId> = (0..len)
                .map(|k| (splitmix64(h ^ k as u64) % 44) as ItemId)
                .collect();
            if h & 64 == 0 {
                row.sort_unstable();
                row.dedup();
            }
            row
        })
        .collect()
}

#[test]
fn vec_and_slice_pushes_release_identical_chunks() {
    let sens = SensitiveSet::new(vec![3, 17, 29, 38], 40);
    let release = |by_slice: bool| -> (Vec<ReleaseChunk>, String) {
        let mut s =
            StreamingAnonymizer::new(AnonymizerConfig::with_privacy_degree(4), sens.clone(), 96)
                .with_recovery(RecoveryConfig::quarantine());
        let mut chunks = Vec::new();
        for row in seeded_rows(1_000) {
            let released = if by_slice {
                s.push_row(&row)
            } else {
                s.push(row)
            };
            chunks.extend(released.unwrap());
        }
        let checkpoint = json(&s.checkpoint());
        chunks.extend(s.finish().unwrap());
        (chunks, checkpoint)
    };
    let (by_vec, cp_vec) = release(false);
    let (by_slice, cp_slice) = release(true);
    assert_eq!(by_vec.len(), 11);
    assert_eq!(by_vec, by_slice);
    assert_eq!(cp_vec, cp_slice);
}
