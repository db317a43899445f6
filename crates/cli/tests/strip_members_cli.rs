//! `check` on a release written with `--strip-members` reports the one
//! cause — member lists stripped, so membership cannot be checked — as a
//! single `CAHD-C004` error, not one finding per row and group, and
//! still exits 1. The same release with its members passes.
//!
//! Runs the real binary, as a user would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cahd_strip_cli_{}_{name}", std::process::id()))
}

fn cahd_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .args(args)
        .output()
        .unwrap()
}

fn ok(run: &Output) {
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
}

#[test]
fn check_names_stripped_members_once() {
    let data = tmp("bms1.dat");
    let data = data.to_str().unwrap();
    ok(&cahd_cli(&[
        "generate", "bms1", "--scale", "0.05", "--seed", "7", "--out", data,
    ]));
    for strip in [false, true] {
        let release = tmp(&format!("release_{strip}.json"));
        let release = release.to_str().unwrap();
        let mut args = vec![
            "anonymize",
            data,
            "--p",
            "4",
            "--random-m",
            "4",
            "--seed",
            "7",
            "--out",
            release,
        ];
        if strip {
            args.push("--strip-members");
        }
        ok(&cahd_cli(&args));
        let run = cahd_cli(&["check", data, release, "--p", "4", "--json"]);
        let report = String::from_utf8_lossy(&run.stdout);
        let count = |code: &str| report.matches(&format!("\"code\":\"{code}\"")).count();
        if strip {
            assert_eq!(run.status.code(), Some(1), "{report}");
            assert_eq!(count("CAHD-C004"), 1, "{report}");
            assert!(report.contains("\"errors\":1,"), "{report}");
            for flooded in ["CAHD-C001", "CAHD-P002", "CAHD-S001"] {
                assert_eq!(count(flooded), 0, "{flooded}: {report}");
            }
            assert!(report.contains("stripped"), "{report}");
        } else {
            assert_eq!(run.status.code(), Some(0), "{report}");
            assert_eq!(count("CAHD-C004"), 0, "{report}");
        }
        std::fs::remove_file(release).ok();
    }
    std::fs::remove_file(data).ok();
}
