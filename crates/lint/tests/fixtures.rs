//! Per-rule fixture tests: each rule fires exactly where expected, an
//! inline `cahd-lint: allow(...)` suppresses it, and stale suppressions
//! are themselves findings (`CAHD-L008`).

use cahd_lint::{Analysis, LintReport};

/// Lints a single fixture file at `path` with no docs and no strict
/// crates.
fn lint_one(path: &str, text: &str) -> LintReport {
    let mut a = Analysis::new();
    a.add_source(path, text);
    a.run()
}

/// The codes of all surviving findings, in report order.
fn codes(report: &LintReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.code).collect()
}

// ---------------------------------------------------------------- L001

#[test]
fn l001_fires_on_hash_map_in_release_crate() {
    let report = lint_one(
        "crates/core/src/fix.rs",
        "use std::collections::HashMap;\npub fn f(m: &HashMap<u32, u32>) -> usize { m.len() }\n",
    );
    assert_eq!(codes(&report), vec!["CAHD-L001", "CAHD-L001"]);
    assert_eq!(report.findings[0].line, 1);
    assert_eq!(report.findings[1].line, 2);
}

#[test]
fn l001_iteration_gets_the_sharper_message() {
    let src = "pub fn f(m: &std::collections::HashMap<u32, u32>) -> Vec<u32> {\n\
               \x20   m.keys().copied().collect()\n\
               }\n";
    let report = lint_one("crates/rcm/src/fix.rs", src);
    let iter = report
        .findings
        .iter()
        .find(|f| f.line == 2)
        .expect("iteration finding");
    assert!(iter.message.contains("iterates the hash collection `m`"));
}

#[test]
fn l001_for_loop_over_hash_binding_fires() {
    let src = "pub fn f() {\n\
               \x20   let mut s: std::collections::HashSet<u32> = std::collections::HashSet::new();\n\
               \x20   s.insert(1);\n\
               \x20   for x in &s {\n\
               \x20       let _ = x;\n\
               \x20   }\n\
               }\n";
    let report = lint_one("crates/data/src/fix.rs", src);
    let looped = report
        .findings
        .iter()
        .find(|f| f.line == 4)
        .expect("for-loop finding");
    assert!(looped
        .message
        .contains("`for` loop over the hash collection `s`"));
}

#[test]
fn l001_silent_outside_release_crates_and_in_tests() {
    // bench is not release-affecting.
    let report = lint_one(
        "crates/bench/src/fix.rs",
        "pub fn f(m: &std::collections::HashMap<u32, u32>) -> usize { m.len() }\n",
    );
    assert!(report.is_clean(), "{:?}", report.findings);
    // #[cfg(test)] code in a release crate is exempt.
    let report = lint_one(
        "crates/core/src/fix.rs",
        "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _m: HashMap<u32, u32> = HashMap::new(); }\n}\n",
    );
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn l001_allow_suppresses_and_is_recorded() {
    let src = "// cahd-lint: allow(L001, reason = \"membership-only\")\n\
               use std::collections::HashSet;\n";
    let report = lint_one("crates/sparse/src/fix.rs", src);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.honored.len(), 1);
    assert_eq!(report.honored[0].code, "CAHD-L001");
    assert_eq!(report.honored[0].reason, "membership-only");
}

// ---------------------------------------------------------------- L002

#[test]
fn l002_fires_on_wall_clock_and_entropy() {
    let src = "pub fn f() -> u64 {\n\
               \x20   let t = std::time::Instant::now();\n\
               \x20   let _st = std::time::SystemTime::UNIX_EPOCH;\n\
               \x20   let _r = rand::thread_rng();\n\
               \x20   t.elapsed().as_nanos() as u64\n\
               }\n";
    let report = lint_one("crates/core/src/fix.rs", src);
    assert_eq!(codes(&report), vec!["CAHD-L002", "CAHD-L002", "CAHD-L002"]);
    assert!(report.findings[0].message.contains("Instant::now()"));
    assert!(report.findings[1].message.contains("SystemTime"));
    assert!(report.findings[2].message.contains("thread_rng"));
}

#[test]
fn l002_exempt_in_bench_and_obs() {
    for krate in ["bench", "obs"] {
        let report = lint_one(
            &format!("crates/{krate}/src/fix.rs"),
            "pub fn f() { let _ = std::time::Instant::now(); }\n",
        );
        assert!(report.is_clean(), "{krate}: {:?}", report.findings);
    }
}

#[test]
fn l002_allow_suppresses() {
    let src = "pub fn f() {\n\
               \x20   // cahd-lint: allow(L002, reason = \"trace timing only\")\n\
               \x20   let _ = std::time::Instant::now();\n\
               }\n";
    let report = lint_one("crates/core/src/fix.rs", src);
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(report.honored.len(), 1);
}

// ---------------------------------------------------------------- L003

#[test]
fn l003_fires_on_panics_in_library_code() {
    let src = "pub fn f(x: Option<u32>) -> u32 {\n\
               \x20   if x.is_none() { panic!(\"boom\"); }\n\
               \x20   x.unwrap()\n\
               }\n";
    let report = lint_one("crates/rcm/src/fix.rs", src);
    assert_eq!(codes(&report), vec!["CAHD-L003", "CAHD-L003"]);
    assert!(report.findings[0].message.contains("`panic!` panics"));
    assert!(report.findings[1].message.contains("`.unwrap()` can panic"));
}

#[test]
fn l003_silent_in_cli_and_tests() {
    let panicky = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    // cli is a binary crate, not a library.
    assert!(lint_one("crates/cli/src/fix.rs", panicky).is_clean());
    // No library module is exempt, the recovery module included.
    assert!(!lint_one("crates/core/src/recovery.rs", panicky).is_clean());
    // Test code panics freely.
    let test_src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Option::<u32>::None.unwrap(); }\n}\n";
    assert!(lint_one("crates/core/src/fix.rs", test_src).is_clean());
}

#[test]
fn l003_allow_suppresses() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n\
               \x20   // cahd-lint: allow(L003, reason = \"caller guarantees non-empty\")\n\
               \x20   *v.first().expect(\"non-empty\")\n\
               }\n";
    let report = lint_one("crates/eval/src/fix.rs", src);
    assert!(report.is_clean(), "{:?}", report.findings);
}

// ---------------------------------------------------------------- L004

#[test]
fn l004_flags_undocumented_and_ghost_codes() {
    let mut a = Analysis::new();
    a.add_source(
        "crates/check/src/fix.rs",
        "pub const CODE: &str = \"CAHD-Z901\"; // referenced, never cataloged\n",
    );
    a.add_doc(
        "docs/CHECKS.md",
        "| `CAHD-Z902` | ghost row: cataloged, never referenced |\n",
    );
    let report = a.run();
    assert_eq!(codes(&report), vec!["CAHD-L004", "CAHD-L004"]);
    let undocumented = &report.findings[0];
    assert_eq!(undocumented.file, "crates/check/src/fix.rs");
    assert!(undocumented.message.contains("CAHD-Z901"));
    let ghost = &report.findings[1];
    assert_eq!(ghost.file, "docs/CHECKS.md");
    assert!(ghost.message.contains("CAHD-Z902"));
}

#[test]
fn l004_closure_is_clean_and_test_fixtures_ignored() {
    let mut a = Analysis::new();
    a.add_source(
        "crates/check/src/fix.rs",
        "pub const CODE: &str = \"CAHD-Z903\";\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { let _fake = \"CAHD-Z999\"; }\n\
         }\n",
    );
    a.add_doc("docs/CHECKS.md", "| `CAHD-Z903` | documented |\n");
    let report = a.run();
    assert!(report.is_clean(), "{:?}", report.findings);
}

// ---------------------------------------------------------------- L005

#[test]
fn l005_flags_undocumented_and_ghost_counters() {
    let mut a = Analysis::new();
    a.add_source(
        "crates/core/src/fix.rs",
        "pub fn f(rec: &cahd_obs::Recorder) { rec.add(\"core.widgets\", 1); }\n",
    );
    a.add_doc(
        "docs/OBSERVABILITY.md",
        "`core.gadgets` is documented but never recorded.\n",
    );
    let report = a.run();
    assert_eq!(codes(&report), vec!["CAHD-L005", "CAHD-L005"]);
    assert!(report.findings[0].message.contains("core.widgets"));
    assert_eq!(report.findings[1].file, "docs/OBSERVABILITY.md");
    assert!(report.findings[1].message.contains("core.gadgets"));
}

#[test]
fn l005_closure_is_clean() {
    let mut a = Analysis::new();
    a.add_source(
        "crates/core/src/fix.rs",
        "pub fn f(rec: &cahd_obs::Recorder) { rec.add(\"core.widgets\", 1); }\n",
    );
    a.add_doc(
        "docs/OBSERVABILITY.md",
        "Counters: `core.widgets` counts widgets.\n",
    );
    let report = a.run();
    assert!(report.is_clean(), "{:?}", report.findings);
}

// ---------------------------------------------------------------- L006

#[test]
fn l006_fires_on_float_reduction_over_hash_iterator() {
    let src = "pub fn total(m: &std::collections::HashMap<u32, f64>) -> f64 {\n\
               \x20   m.values().sum::<f64>()\n\
               }\n";
    let report = lint_one("crates/eval/src/fix.rs", src);
    let l006: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.code == "CAHD-L006")
        .collect();
    assert_eq!(l006.len(), 1, "{:?}", report.findings);
    assert_eq!(l006[0].line, 2);
}

#[test]
fn l006_silent_for_integer_reductions() {
    let src = "pub fn total(m: &std::collections::HashMap<u32, u64>) -> u64 {\n\
               \x20   m.values().sum::<u64>()\n\
               }\n";
    let report = lint_one("crates/eval/src/fix.rs", src);
    assert!(
        report.findings.iter().all(|f| f.code != "CAHD-L006"),
        "{:?}",
        report.findings
    );
}

// ---------------------------------------------------------------- L007

#[test]
fn l007_fires_only_in_strict_crates() {
    let src = "pub fn f(x: bool) { debug_assert!(x, \"x holds\"); }\n";
    // Without the strict-invariants feature: silent.
    assert!(lint_one("crates/core/src/fix.rs", src).is_clean());
    // With it: a finding.
    let mut a = Analysis::new();
    a.add_source("crates/core/src/fix.rs", src);
    a.add_strict_crate("core");
    let report = a.run();
    assert_eq!(codes(&report), vec!["CAHD-L007"]);
    // The macro definition site itself is exempt.
    let mut a = Analysis::new();
    a.add_source("crates/core/src/invariant.rs", src);
    a.add_strict_crate("core");
    assert!(a.run().is_clean());
}

#[test]
fn l007_allow_suppresses() {
    let mut a = Analysis::new();
    a.add_source(
        "crates/core/src/fix.rs",
        "pub fn f(x: bool) {\n\
         \x20   // cahd-lint: allow(L007, reason = \"perf-critical inner loop; strict builds cover it elsewhere\")\n\
         \x20   debug_assert!(x);\n\
         }\n",
    );
    a.add_strict_crate("core");
    assert!(a.run().is_clean());
}

// ---------------------------------------------------------------- L008

#[test]
fn l008_flags_unused_allow() {
    let src = "// cahd-lint: allow(L001, reason = \"stale: the map is long gone\")\n\
               pub fn f() -> u32 { 7 }\n";
    let report = lint_one("crates/core/src/fix.rs", src);
    assert_eq!(codes(&report), vec!["CAHD-L008"]);
    assert!(report.findings[0].message.contains("unused allow"));
}

#[test]
fn l008_flags_unknown_code_and_missing_reason() {
    let src = "// cahd-lint: allow(L999, reason = \"no such rule\")\n\
               // cahd-lint: allow(L001)\n\
               pub fn f(m: &std::collections::HashMap<u32, u32>) -> usize { m.len() }\n";
    let report = lint_one("crates/core/src/fix.rs", src);
    let l008: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.code == "CAHD-L008")
        .collect();
    assert!(
        l008.iter().any(|f| f.message.contains("unknown lint code")),
        "{:?}",
        report.findings
    );
    assert!(
        l008.iter().any(|f| f.message.contains("reason")),
        "{:?}",
        report.findings
    );
}

#[test]
fn l008_is_never_suppressible() {
    // An allow(L008) directive both names a non-suppressible code and is
    // unused: the hygiene findings must survive.
    let src = "// cahd-lint: allow(L008, reason = \"trying to silence the auditor\")\n\
               pub fn f() -> u32 { 7 }\n";
    let report = lint_one("crates/core/src/fix.rs", src);
    assert!(
        report.findings.iter().any(|f| f.code == "CAHD-L008"),
        "{:?}",
        report.findings
    );
    assert!(report.honored.is_empty());
}
