//! The streamed release's merge moves each chunk's published rows into
//! the final release instead of rebuilding them from the data, so a chunk
//! read back from a `--checkpoint` directory is trusted only as far as the
//! whole-dataset verification of the merged release. These tests edit a
//! paused run's chunk files and resume: the merge must fail closed with a
//! run error (exit 1) naming what failed, never panic (exit 101) and never
//! publish a repaired row; an untouched resume must reproduce the one-shot
//! release byte for byte.
//!
//! Runs the real binary so a panic shows as exit code 101, not as a
//! caught unwind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cahd_core::streaming::ReleaseChunk;

fn demo_dat() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/demo.dat")
        .to_string_lossy()
        .into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cahd_stream_merge_{}_{name}", std::process::id()))
}

fn cahd_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .args(args)
        .output()
        .unwrap()
}

/// `anonymize --stream-batch` on the fixture with `extra` flags appended.
fn stream(extra: &[&str]) -> Output {
    let dat = demo_dat();
    let mut argv = vec![
        "anonymize",
        &dat,
        "--p",
        "4",
        "--sensitive",
        "14,26,28",
        "--stream-batch",
        "40",
    ];
    argv.extend_from_slice(extra);
    cahd_cli(&argv)
}

fn assert_ok(run: &Output) {
    assert!(
        run.status.success(),
        "status {:?}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
}

/// Pauses a checkpointed run after two batches in `dir`.
fn paused(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    let run = stream(&["--checkpoint", dir.to_str().unwrap(), "--max-batches", "2"]);
    assert_ok(&run);
    assert!(dir.join("chunk-0001.json").exists());
}

/// Rewrites `dir`'s first chunk file through `edit`.
fn edit_first_chunk(dir: &Path, edit: impl FnOnce(&mut ReleaseChunk)) {
    let path = dir.join("chunk-0000.json");
    let mut chunk: ReleaseChunk =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    edit(&mut chunk);
    std::fs::write(&path, serde_json::to_string(&chunk).unwrap()).unwrap();
}

/// Resumes `dir`, writing the release to `out`.
fn resume(dir: &Path, out: &Path) -> Output {
    stream(&[
        "--checkpoint",
        dir.to_str().unwrap(),
        "--resume",
        "--out",
        out.to_str().unwrap(),
    ])
}

/// Asserts a run error (exit 1) whose message holds every one of
/// `needles`, and that no release was written.
fn assert_refused(run: &Output, out: &Path, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "missing {needle:?} in: {stderr}");
    }
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!out.exists(), "a refused merge must write no release");
}

#[test]
fn untouched_resume_matches_the_one_shot_release() {
    let (one, two, dir) = (tmp("one.json"), tmp("two.json"), tmp("clean"));
    assert_ok(&stream(&["--out", one.to_str().unwrap()]));
    paused(&dir);
    assert_ok(&resume(&dir, &two));
    assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&two).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    for f in [one, two] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn an_edited_qid_id_fails_verification() {
    let (dir, out) = (tmp("qid"), tmp("qid.json"));
    paused(&dir);
    edit_first_chunk(&dir, |chunk| {
        let row = chunk.published.groups[0]
            .qid_rows
            .iter_mut()
            .find(|row| !row.is_empty())
            .expect("the fixture's first group has a QID item");
        row[0] += 1;
    });
    let run = resume(&dir, &out);
    assert_refused(
        &run,
        &out,
        &[
            "merged stream release failed verification",
            "QID row mismatch",
        ],
    );
    assert!(!String::from_utf8_lossy(&run.stderr).contains("internal error"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_member_past_its_chunk_fails_the_merge() {
    let (dir, out) = (tmp("member"), tmp("member.json"));
    paused(&dir);
    edit_first_chunk(&dir, |chunk| chunk.published.groups[0].members[0] = 9999);
    assert_refused(
        &resume(&dir, &out),
        &out,
        &["stream merge: chunk 0, group 0", "member 9999"],
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dropped_qid_row_fails_the_merge() {
    let (dir, out) = (tmp("rows"), tmp("rows.json"));
    paused(&dir);
    edit_first_chunk(&dir, |chunk| {
        chunk.published.groups[0].qid_rows.pop();
    });
    assert_refused(
        &resume(&dir, &out),
        &out,
        &["stream merge: chunk 0, group 0", "QID rows for"],
    );
    std::fs::remove_dir_all(&dir).ok();
}
