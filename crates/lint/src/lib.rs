//! `cahd-lint` — workspace-native static analysis for determinism and
//! diagnostic hygiene.
//!
//! Every guarantee this workspace makes — the 1/p privacy bound and the
//! byte-identical releases proven across shards, threads, kernels and
//! checkpoint resumes — rests on the pipeline being *deterministic*. Nothing
//! in the type system enforces that: one `HashMap` iteration or wall-clock
//! read in a release-affecting path silently breaks reproducibility until
//! a property test happens to catch it. This crate holds the line at the
//! source level: a dependency-free analyzer (hand-rolled lexer, no `syn`)
//! that scans the workspace's own Rust sources and runs a registry of
//! rules with stable `CAHD-L0xx` codes, mirroring the `cahd-check` pass
//! architecture. See `docs/LINTS.md` for the catalog.
//!
//! Findings are suppressed inline with
//! `// cahd-lint: allow(L001, reason = "why this is sound")` on the same
//! line or the line above; an allow that suppresses nothing (or names an
//! unknown code, or omits its reason) is itself a finding (`CAHD-L008`).
//!
//! ```
//! use cahd_lint::Analysis;
//!
//! let mut a = Analysis::new();
//! a.add_source(
//!     "crates/core/src/bad.rs",
//!     "fn f() { let m = std::collections::HashMap::new(); for x in &m { } }",
//! );
//! let report = a.run();
//! assert!(report.findings.iter().any(|f| f.code == "CAHD-L001"));
//! ```
//!
//! Exit-code contract of the binary (CI gates on it): `0` lint-clean,
//! `1` findings, `2` usage or I/O error. There is deliberately no
//! `--fix`: every violation is either fixed by hand or justified in an
//! allow comment.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{Finding, HonoredAllow, LintReport};
pub use rules::{RuleInfo, SourceFile, RULES};

/// A lint run over an explicit set of sources and docs.
///
/// [`load_workspace`] builds one from a checkout; tests feed fixture
/// snippets directly via [`Analysis::add_source`].
#[derive(Debug, Default)]
pub struct Analysis {
    sources: Vec<SourceFile>,
    docs: Vec<(String, String)>,
    strict_crates: BTreeSet<String>,
}

impl Analysis {
    /// An empty analysis.
    pub fn new() -> Self {
        Analysis::default()
    }

    /// Adds one Rust source file. `rel_path` is workspace-relative
    /// (`crates/<name>/src/...`); the crate name is derived from it.
    pub fn add_source(&mut self, rel_path: &str, text: &str) {
        let lex = lexer::lex(text);
        let test_ranges = lexer::test_line_ranges(&lex.tokens);
        self.sources.push(SourceFile {
            path: rel_path.to_string(),
            crate_name: crate_of(rel_path),
            raw: text.to_string(),
            lex,
            test_ranges,
        });
    }

    /// Adds one documentation file (`docs/CHECKS.md`, `docs/LINTS.md`,
    /// `docs/OBSERVABILITY.md`) for the drift rules.
    pub fn add_doc(&mut self, rel_path: &str, text: &str) {
        self.docs.push((rel_path.to_string(), text.to_string()));
    }

    /// Marks a crate as defining the `strict-invariants` feature
    /// (enables `CAHD-L007` there).
    pub fn add_strict_crate(&mut self, name: &str) {
        self.strict_crates.insert(name.to_string());
    }

    /// Runs every rule, applies suppressions, audits the suppressions
    /// themselves and returns the aggregated report.
    pub fn run(&self) -> LintReport {
        let mut raw: Vec<Finding> = Vec::new();
        for file in &self.sources {
            raw.extend(rules::check_file(file, &self.strict_crates));
        }
        raw.extend(rules::l004_code_drift(&self.sources, &self.docs));
        raw.extend(rules::l005_counter_drift(&self.sources, &self.docs));

        let mut findings = Vec::new();
        let mut honored = Vec::new();
        // Usage tally per (file, directive index, code).
        let mut used: BTreeSet<(usize, usize, String)> = BTreeSet::new();
        for f in raw {
            match suppressing_directive(&self.sources, &f) {
                Some((file_idx, dir_idx)) => {
                    let file = &self.sources[file_idx];
                    let dir = &file.lex.allows[dir_idx];
                    used.insert((file_idx, dir_idx, f.code.to_string()));
                    honored.push(HonoredAllow {
                        file: file.path.clone(),
                        line: dir.line,
                        code: f.code.to_string(),
                        reason: dir.reason.clone().unwrap_or_default(),
                    });
                }
                None => findings.push(f),
            }
        }
        // CAHD-L008: suppression hygiene (never itself suppressible —
        // allowing an allow would regress forever).
        for (file_idx, file) in self.sources.iter().enumerate() {
            for m in &file.lex.malformed {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: m.line,
                    code: "CAHD-L008",
                    message: format!("malformed cahd-lint directive: {}", m.problem),
                });
            }
            for (dir_idx, dir) in file.lex.allows.iter().enumerate() {
                if dir.reason.as_deref().is_none_or(str::is_empty) {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: dir.line,
                        code: "CAHD-L008",
                        message: "allow without a reason: every suppression must record why \
                                  the finding is sound"
                            .to_string(),
                    });
                }
                for code in &dir.codes {
                    if rules::rule(code).is_none() {
                        findings.push(Finding {
                            file: file.path.clone(),
                            line: dir.line,
                            code: "CAHD-L008",
                            message: format!("allow names unknown lint code `{code}`"),
                        });
                    } else if !used.contains(&(file_idx, dir_idx, code.clone())) {
                        findings.push(Finding {
                            file: file.path.clone(),
                            line: dir.line,
                            code: "CAHD-L008",
                            message: format!(
                                "unused allow: no `{code}` finding on this or the next line \
                                 — fix succeeded or the suppression is stale; remove it"
                            ),
                        });
                    }
                }
            }
        }
        findings.sort();
        findings.dedup();
        let mut non_test_lines: BTreeMap<String, usize> = BTreeMap::new();
        for file in &self.sources {
            let lines = (1..=file.raw.lines().count() as u32)
                .filter(|&l| !lexer::in_ranges(&file.test_ranges, l))
                .count();
            *non_test_lines.entry(file.crate_name.clone()).or_default() += lines;
        }
        LintReport {
            findings,
            honored,
            files_scanned: self.sources.len(),
            rules_run: RULES.iter().map(|r| (r.code, r.name)).collect(),
            non_test_lines: non_test_lines.into_iter().collect(),
        }
    }
}

/// The directive suppressing `f`, as (source index, directive index).
fn suppressing_directive(sources: &[SourceFile], f: &Finding) -> Option<(usize, usize)> {
    let (file_idx, file) = sources.iter().enumerate().find(|(_, s)| s.path == f.file)?;
    file.lex
        .allows
        .iter()
        .enumerate()
        .find(|(_, d)| {
            (d.line == f.line || d.line + 1 == f.line) && d.codes.iter().any(|c| c == f.code)
        })
        .map(|(dir_idx, _)| (file_idx, dir_idx))
}

/// Crate short name from a workspace-relative path: `crates/core/src/x.rs`
/// → `core`; the root `src/lib.rs` → `cahd`.
fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("").to_string(),
        _ => "cahd".to_string(),
    }
}

/// An I/O or usage failure; rendered to stderr with exit code 2.
#[derive(Debug)]
pub struct LintError(pub String);

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Loads the workspace at `root` into an [`Analysis`]: every
/// `crates/*/src/**/*.rs`, the root `src/`, the doc catalogs, and the
/// `strict-invariants` feature flags from the crate manifests. Test and
/// bench *directories* are not scanned (in-file `#[cfg(test)]` modules
/// are handled by the lexer's test-region tracking).
pub fn load_workspace(root: &Path) -> Result<Analysis, LintError> {
    let mut analysis = Analysis::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
        .into_iter()
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("strict-invariants") {
                analysis.add_strict_crate(&name);
            }
        }
        let src = dir.join("src");
        if src.is_dir() {
            for file in rust_files(&src)? {
                add_file(&mut analysis, root, &file)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        for file in rust_files(&root_src)? {
            add_file(&mut analysis, root, &file)?;
        }
    }
    for doc in ["docs/CHECKS.md", "docs/LINTS.md", "docs/OBSERVABILITY.md"] {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            analysis.add_doc(doc, &text);
        }
    }
    Ok(analysis)
}

/// Loads and runs in one step.
pub fn run_workspace(root: &Path) -> Result<LintReport, LintError> {
    Ok(load_workspace(root)?.run())
}

/// Nearest ancestor of the current directory (inclusive) whose
/// `Cargo.toml` declares a `[workspace]` — how the binary and the
/// `cahd-cli lint` passthrough locate the root when `--root` is absent.
pub fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn add_file(analysis: &mut Analysis, root: &Path, file: &Path) -> Result<(), LintError> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| LintError(format!("cannot read {}: {e}", file.display())))?;
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    analysis.add_source(&rel, &text);
    Ok(())
}

/// All `.rs` files under `dir`, recursively, sorted for determinism.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in read_dir_sorted(&d)? {
            if entry.is_dir() {
                stack.push(entry);
            } else if entry.extension().is_some_and(|e| e == "rs") {
                out.push(entry);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| LintError(format!("cannot read {}: {e}", dir.display())))?;
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_on_same_or_previous_line_is_honored() {
        let mut a = Analysis::new();
        a.add_source(
            "crates/core/src/x.rs",
            "// cahd-lint: allow(L001, reason = \"membership only\")\nuse \
             std::collections::HashMap;\nfn f() { let m: HashMap<u32,u32> = HashMap::new(); \
             let _ = m.contains_key(&1); } // cahd-lint: allow(L001, reason = \"lookup only\")\n",
        );
        let report = a.run();
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.honored.len(), 2);
    }

    #[test]
    fn unused_unknown_and_reasonless_allows_are_findings() {
        let mut a = Analysis::new();
        a.add_source(
            "crates/lint_fixture/src/x.rs",
            "// cahd-lint: allow(L001, reason = \"nothing here\")\nfn f() {}\n\
             // cahd-lint: allow(L999, reason = \"no such rule\")\nfn g() {}\n\
             // cahd-lint: allow(L002)\nfn h() {}\n",
        );
        let report = a.run();
        let l8: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.code == "CAHD-L008")
            .collect();
        // The reasonless allow is flagged twice: once for the missing
        // reason and once as unused.
        assert_eq!(l8.len(), 4, "{}", report.render_human());
        assert!(l8.iter().any(|f| f.message.contains("unused allow")));
        assert!(l8.iter().any(|f| f.message.contains("unknown lint code")));
        assert!(l8.iter().any(|f| f.message.contains("without a reason")));
    }

    #[test]
    fn non_test_lines_skip_test_items_in_every_crate() {
        let mut a = Analysis::new();
        a.add_source(
            "crates/core/src/x.rs",
            "pub fn f() {}\n#[cfg(test)]\nfn helper() {}\npub fn g() {}\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n",
        );
        a.add_source("crates/core/src/y.rs", "pub fn h() {}\n\n");
        a.add_source("src/lib.rs", "#![cfg(test)]\nfn t() {}\n");
        let report = a.run();
        // Lines 1 and 4 of x.rs (a test helper mid-file is not counted)
        // and both lines of y.rs; none of the root crate's.
        assert_eq!(
            report.non_test_lines,
            vec![("cahd".to_string(), 0), ("core".to_string(), 4)]
        );
        assert!(report
            .render_json()
            .ends_with("\"non_test_lines\":{\"total\":4,\"crates\":{\"cahd\":0,\"core\":4}}}"));
    }

    #[test]
    fn crate_name_derivation() {
        assert_eq!(crate_of("crates/eval/src/rules.rs"), "eval");
        assert_eq!(crate_of("src/lib.rs"), "cahd");
    }

    #[test]
    fn self_scan_of_this_crate_is_clean() {
        // The linter's own sources must satisfy its own rules.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let report = run_workspace(root).expect("workspace loads");
        // Restrict to findings in this crate (the full-workspace guarantee
        // lives in crates/lint/tests/workspace_clean.rs).
        let own: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.file.starts_with("crates/lint/"))
            .collect();
        assert!(own.is_empty(), "{own:?}");
    }
}
