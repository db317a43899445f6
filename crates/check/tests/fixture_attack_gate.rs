//! The `CAHD-A001` attack-regression gate against the committed demo
//! fixtures (`docs/ATTACKS.md`).
//!
//! Two properties are pinned in CI:
//!
//! * the real demo releases clear the gate — the adversary suite never
//!   measurably beats `1/p` against them;
//! * the committed over-leaky tamper `fixtures/demo_release_leaky.json`
//!   (a sensitive-bearing group dissolved into singletons, posterior 1.0)
//!   fails the gate on **every** run — the vulnerable-population scan is
//!   deterministic, so no seed hides the leak.
//!
//! Regenerate the leaky fixture from the clean release with:
//!
//! ```sh
//! CAHD_UPDATE_GOLDENS=1 cargo test -p cahd-check --test fixture_attack_gate
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use cahd_check::{AttackRegression, CheckInput, Registry, Severity};
use cahd_core::{AnonymizedGroup, PublishedDataset};
use cahd_data::io::read_dat_file;
use cahd_data::{SensitiveSet, TransactionSet};

/// The demo release was built with `--p 4`.
const DEMO_P: usize = 4;
const LEAKY: &str = "demo_release_leaky.json";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn load(release_name: &str) -> (TransactionSet, SensitiveSet, PublishedDataset) {
    let release: PublishedDataset =
        serde_json::from_str(&fs::read_to_string(fixture(release_name)).unwrap()).unwrap();
    let data = read_dat_file(fixture("demo.dat"), Some(release.n_items)).unwrap();
    let sens = SensitiveSet::new(release.sensitive_items.clone(), release.n_items);
    (data, sens, release)
}

/// Runs only the attack-regression pass (the structural passes have their
/// own fixtures) with the committed default plan.
fn attack_gate(
    data: &TransactionSet,
    sens: &SensitiveSet,
    release: &PublishedDataset,
) -> cahd_check::CheckReport {
    Registry::new().register(AttackRegression).run(
        &CheckInput {
            data,
            sensitive: sens,
            published: release,
            p: DEMO_P,
            trace: None,
            attack: None,
        },
        &cahd_obs::Recorder::disabled(),
    )
}

/// Dissolves the first sensitive-bearing group of the clean demo release
/// into singletons: a singleton holding a sensitive item discloses it
/// with posterior 1.0, the worst leak a release can carry.
fn tamper_leaky(
    data: &TransactionSet,
    sens: &SensitiveSet,
    clean: &PublishedDataset,
) -> PublishedDataset {
    let target = clean
        .groups
        .iter()
        .position(|g| !g.sensitive_counts.is_empty())
        .expect("demo release has a sensitive-bearing group");
    let mut groups = Vec::with_capacity(clean.groups.len() + DEMO_P);
    for (i, group) in clean.groups.iter().enumerate() {
        if i == target {
            for &member in &group.members {
                groups.push(AnonymizedGroup::from_members(data, sens, &[member]));
            }
        } else {
            groups.push(group.clone());
        }
    }
    PublishedDataset {
        n_items: clean.n_items,
        sensitive_items: clean.sensitive_items.clone(),
        groups,
    }
}

#[test]
fn committed_leaky_release_fails_the_attack_gate() {
    let path = fixture(LEAKY);
    if std::env::var("CAHD_UPDATE_GOLDENS").is_ok() {
        let (data, sens, clean) = load("demo_release.json");
        let leaky = tamper_leaky(&data, &sens, &clean);
        let mut body = serde_json::to_string_pretty(&leaky).unwrap();
        body.push('\n');
        fs::write(&path, body).unwrap();
    }

    let (data, sens, leaky) = load(LEAKY);
    let report = attack_gate(&data, &sens, &leaky);
    assert!(
        !report.diagnostics.is_empty(),
        "the committed leaky fixture must trip CAHD-A001"
    );
    for d in &report.diagnostics {
        assert_eq!(d.code, "CAHD-A001", "unexpected code from the attack pass");
        assert_eq!(d.severity, Severity::Error);
    }
    // The leak is a posterior breach, not a unique-match budget breach.
    assert!(
        report.diagnostics.iter().any(|d| d.message.contains("1/4")),
        "diagnostics should name the broken bound: {:?}",
        report.diagnostics
    );
}

#[test]
fn demo_release_clears_the_attack_gate() {
    let (data, sens, release) = load("demo_release.json");
    let report = attack_gate(&data, &sens, &release);
    assert!(
        report.is_clean(),
        "demo_release.json should clear CAHD-A001: {:?}",
        report.diagnostics
    );
}

#[test]
fn qid_tamper_is_caught_empirically_too() {
    // The tampered fixture exists for the structural passes
    // (qid-fidelity, coverage), but the adversary suite catches it
    // independently: its inflated sensitive count (4 occurrences in a
    // group of 4) reads as disclosure posterior 1.0 to the deterministic
    // vulnerable scan. Two unrelated gates, one tamper, both fire.
    let (data, sens, release) = load("demo_release_tampered.json");
    let report = attack_gate(&data, &sens, &release);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "CAHD-A001" && d.message.contains("vulnerable")),
        "expected the vulnerable scan to flag the tamper: {:?}",
        report.diagnostics
    );
}
