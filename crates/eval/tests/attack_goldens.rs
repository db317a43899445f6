//! Golden attacker-success curves for the committed demo fixtures.
//!
//! The adversary suite is a pure function of `(data, releases, plan)`
//! (`docs/ATTACKS.md`), so its output on the committed `fixtures/demo*`
//! inputs can be pinned byte-for-byte modulo float formatting. The golden
//! report lives in `fixtures/demo_attack_curves.json`; counts are compared
//! exactly and posteriors within `1e-9`. Regenerate after an intentional
//! attacker change with:
//!
//! ```sh
//! CAHD_UPDATE_GOLDENS=1 cargo test -p cahd-eval --test attack_goldens
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use cahd_core::PublishedDataset;
use cahd_data::io::read_dat_file;
use cahd_data::SensitiveSet;
use cahd_eval::{posterior_violations, run_attack_suite, AttackPlan, AttackReport, AttackTarget};
use cahd_obs::Recorder;

/// The demo release was built with `--p 4`.
const DEMO_P: usize = 4;
const GOLDEN: &str = "demo_attack_curves.json";

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn demo_report() -> AttackReport {
    let release: PublishedDataset =
        serde_json::from_str(&fs::read_to_string(fixture("demo_release.json")).unwrap()).unwrap();
    let data = read_dat_file(fixture("demo.dat"), Some(release.n_items)).unwrap();
    assert_eq!(data.n_items(), release.n_items, "fixture universe drifted");
    let sens = SensitiveSet::new(release.sensitive_items.clone(), release.n_items);
    let targets = [
        AttackTarget::raw(),
        AttackTarget::release("release", &release),
    ];
    // The committed default plan — the exact configuration CAHD-A001
    // replays in `cahd check`.
    run_attack_suite(
        &data,
        &sens,
        DEMO_P,
        &targets,
        &AttackPlan::default(),
        &Recorder::disabled(),
    )
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-9,
        "{what}: fresh {a} vs golden {b} (outside 1e-9)"
    );
}

#[test]
fn demo_curves_match_the_committed_golden() {
    let fresh = demo_report();
    let path = fixture(GOLDEN);

    if std::env::var("CAHD_UPDATE_GOLDENS").is_ok() {
        let mut body = serde_json::to_string_pretty(&fresh).unwrap();
        body.push('\n');
        fs::write(&path, body).unwrap();
        return;
    }

    let golden: AttackReport =
        serde_json::from_str(&fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden {path:?} ({e}); run with CAHD_UPDATE_GOLDENS=1")
        }))
        .unwrap();

    assert_eq!(fresh.seed, golden.seed);
    assert_eq!(fresh.p, golden.p);

    assert_eq!(fresh.curves.len(), golden.curves.len(), "curve set drifted");
    for (f, g) in fresh.curves.iter().zip(&golden.curves) {
        let ctx = format!("{}/{}", g.attacker, g.target);
        assert_eq!(f.attacker, g.attacker);
        assert_eq!(f.target, g.target);
        assert_eq!(f.points.len(), g.points.len(), "{ctx}: point count");
        for (fp, gp) in f.points.iter().zip(&g.points) {
            let pctx = format!("{ctx} k={}", gp.k);
            assert_eq!(fp.k, gp.k);
            assert_eq!(fp.trials, gp.trials, "{pctx}: trials");
            assert_eq!(fp.matches, gp.matches, "{pctx}: matches");
            assert_eq!(fp.successes, gp.successes, "{pctx}: successes");
            assert_eq!(fp.unique_matches, gp.unique_matches, "{pctx}: unique");
            assert_close(fp.mean_posterior, gp.mean_posterior, &pctx);
            assert_close(fp.max_posterior, gp.max_posterior, &pctx);
        }
    }

    assert_eq!(fresh.vulnerable.len(), golden.vulnerable.len());
    for (f, g) in fresh.vulnerable.iter().zip(&golden.vulnerable) {
        let ctx = format!("vulnerable/{}", g.target);
        assert_eq!(f.target, g.target);
        assert_eq!(f.rows_scanned, g.rows_scanned, "{ctx}: rows scanned");
        assert_eq!(f.vulnerable_rows, g.vulnerable_rows, "{ctx}: rows flagged");
        assert_close(f.threshold, g.threshold, &ctx);
        assert_close(f.max_posterior, g.max_posterior, &ctx);
        assert_close(f.mean_posterior, g.mean_posterior, &ctx);
        assert_eq!(f.worst.len(), g.worst.len(), "{ctx}: worst-offender list");
        for (fw, gw) in f.worst.iter().zip(&g.worst) {
            assert_eq!(fw.transaction, gw.transaction, "{ctx}: worst row");
            assert_eq!(fw.group, gw.group, "{ctx}: worst group");
            assert_close(fw.posterior, gw.posterior, &ctx);
        }
    }

    assert_eq!(fresh.intersections.len(), golden.intersections.len());
    for (f, g) in fresh.intersections.iter().zip(&golden.intersections) {
        let ctx = format!("intersection k={}", g.k);
        assert_eq!(f.targets, g.targets, "{ctx}: targets");
        assert_eq!(f.k, g.k);
        assert_eq!(f.trials, g.trials, "{ctx}: trials");
        assert_eq!(f.composed_trials, g.composed_trials, "{ctx}: composed");
        assert_eq!(f.narrowed_trials, g.narrowed_trials, "{ctx}: narrowed");
        assert_eq!(f.unique_matches, g.unique_matches, "{ctx}: unique");
        assert_eq!(f.successes, g.successes, "{ctx}: successes");
        assert_close(f.mean_composed_posterior, g.mean_composed_posterior, &ctx);
        assert_close(f.max_composed_posterior, g.max_composed_posterior, &ctx);
    }
}

#[test]
fn demo_release_clears_the_attack_gate() {
    let report = demo_report();
    let violations = posterior_violations(&report, DEMO_P, 1e-9);
    assert!(violations.is_empty(), "demo release leaks: {violations:?}");
}
