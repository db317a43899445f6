//! The command line is the only way to choose an algorithm path or a
//! seed: the `CAHD_ORDERING`, `CAHD_HUB_CAP`, `CAHD_ROWGRAPH` and
//! `CAHD_KERNEL` environment variables, which once overrode `--ordering`,
//! `--hub-cap`, `--rowgraph` and the similarity kernel inside the
//! libraries, must change neither the release bytes nor the deterministic
//! work counters of a real `anonymize` run. The input is the BMS1-shaped
//! quarter-scale click log, where the old overrides changed the release
//! (195 groups under RCM, 169 under the cluster ordering, 197 with a hub
//! cap of 5) or the counters (explicit row graph, dense kernel). Nor does
//! `CAHD_SEED`, which once stood in for a missing `--seed`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cahd_env_overrides_cli_{}_{name}",
        std::process::id()
    ))
}

fn path_str(p: &Path) -> &str {
    p.to_str().unwrap()
}

fn cahd_cli(args: &[&str], env: Option<(&str, &str)>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cahd-cli"));
    cmd.args(args);
    for var in [
        "CAHD_ORDERING",
        "CAHD_HUB_CAP",
        "CAHD_ROWGRAPH",
        "CAHD_KERNEL",
        "CAHD_SEED",
    ] {
        cmd.env_remove(var);
    }
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    cmd.output().unwrap()
}

/// Release bytes and the `counters:` block of `--metrics` for one
/// `anonymize --ordering rcm` run under `env`.
fn anonymize(data: &Path, tag: &str, env: Option<(&str, &str)>) -> (Vec<u8>, String) {
    let out = tmp(&format!("{tag}.json"));
    let run = cahd_cli(
        &[
            "anonymize",
            path_str(data),
            "--p",
            "4",
            "--alpha",
            "3",
            "--random-m",
            "4",
            "--seed",
            "7",
            "--ordering",
            "rcm",
            "--metrics",
            "--out",
            path_str(&out),
        ],
        env,
    );
    let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
    assert!(
        run.status.success(),
        "{tag}: {stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let counters: String = stdout
        .lines()
        .skip_while(|l| *l != "counters:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| format!("{l}\n"))
        .collect();
    let bytes = std::fs::read(&out).unwrap();
    std::fs::remove_file(&out).ok();
    (bytes, counters)
}

#[test]
fn environment_never_overrides_the_command_line() {
    let data = tmp("bms1.dat");
    let gen = [
        "generate", "bms1", "--scale", "0.25", "--seed", "7", "--out",
    ];
    let run = cahd_cli(&[&gen[..], &[path_str(&data)]].concat(), None);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let (clean, clean_counters) = anonymize(&data, "clean", None);
    assert!(
        clean_counters.contains("sparse.aat_rows"),
        "{clean_counters}"
    );
    for (var, value) in [
        ("CAHD_ORDERING", "cluster"),
        ("CAHD_HUB_CAP", "5"),
        ("CAHD_ROWGRAPH", "implicit"),
        // `auto` already picks the implicit form here; explicit is the
        // override that would change the counters.
        ("CAHD_ROWGRAPH", "explicit"),
        ("CAHD_KERNEL", "dense"),
    ] {
        let tag = format!("{var}_{value}");
        let (bytes, counters) = anonymize(&data, &tag, Some((var, value)));
        assert!(bytes == clean, "{var}={value} changed the release bytes");
        assert_eq!(
            counters, clean_counters,
            "{var}={value} changed the work counters"
        );
    }
    std::fs::remove_file(&data).ok();
}

#[test]
fn seed_comes_only_from_the_command_line() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures");
    let data = fixtures.join("demo.dat");
    let release = fixtures.join("demo_release.json");
    let args = [
        "attack",
        path_str(&data),
        path_str(&release),
        "--p",
        "4",
        "--json",
    ];
    let run = cahd_cli(&args, Some(("CAHD_SEED", "7")));
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("\"seed\":42"), "{stdout}");
}
