//! Findings and the aggregated lint report (human and JSON rendering).

use std::fmt::Write as _;

/// One lint finding, anchored to a file and line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (`crates/core/src/order.rs`, or a doc file
    /// for drift rules).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable code, `CAHD-L001`..`CAHD-L008`; see `docs/LINTS.md`.
    pub code: &'static str,
    /// Human-readable description of this specific finding.
    pub message: String,
}

impl Finding {
    /// Renders like a compiler diagnostic:
    /// `error[CAHD-L001] crates/eval/src/rules.rs:45: ...`.
    pub fn render(&self) -> String {
        format!(
            "error[{}] {}:{}: {}",
            self.code, self.file, self.line, self.message
        )
    }
}

/// A suppression that was honored, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HonoredAllow {
    /// File containing the `cahd-lint: allow(...)` comment.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The code it suppressed.
    pub code: String,
    /// The stated reason.
    pub reason: String,
}

/// The aggregated result of a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Findings that survived suppression, sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// Suppressions that matched a finding.
    pub honored: Vec<HonoredAllow>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// `(code, name)` of every rule that ran.
    pub rules_run: Vec<(&'static str, &'static str)>,
    /// Per crate, by name: its scanned lines outside every `#[cfg(test)]`
    /// or `#[test]` item.
    pub non_test_lines: Vec<(String, usize)>,
}

impl LintReport {
    /// Whether the workspace is lint-clean (the exit-code contract: a
    /// clean run exits 0, any finding exits 1, usage/IO errors exit 2).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Compiler-style human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "lint: {} ({} rules, {} files): {} finding(s), {} allow(s) honored",
            if self.is_clean() { "PASS" } else { "FAIL" },
            self.rules_run.len(),
            self.files_scanned,
            self.findings.len(),
            self.honored.len(),
        );
        out
    }

    /// One JSON object, hand-rendered (the analyzer is dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"clean\":{},\"files_scanned\":{},\"findings\":[",
            self.is_clean(),
            self.files_scanned
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":{},\"file\":{},\"line\":{},\"message\":{}}}",
                json_str(f.code),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
        }
        out.push_str("],\"allows_honored\":[");
        for (i, a) in self.honored.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":{},\"file\":{},\"line\":{},\"reason\":{}}}",
                json_str(&a.code),
                json_str(&a.file),
                a.line,
                json_str(&a.reason)
            );
        }
        out.push_str("],\"rules\":[");
        for (i, (code, name)) in self.rules_run.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":{},\"name\":{}}}",
                json_str(code),
                json_str(name)
            );
        }
        let total: usize = self.non_test_lines.iter().map(|(_, n)| n).sum();
        let crates: Vec<String> = self
            .non_test_lines
            .iter()
            .map(|(name, n)| format!("{}:{n}", json_str(name)))
            .collect();
        let crates = crates.join(",");
        let _ = write!(
            out,
            "],\"non_test_lines\":{{\"total\":{total},\"crates\":{{{crates}}}}}}}"
        );
        out
    }
}

/// Escapes a string as a JSON string literal (with quotes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            findings: vec![Finding {
                file: "crates/x/src/a.rs".into(),
                line: 7,
                code: "CAHD-L001",
                message: "iterates a \"hash\" map".into(),
            }],
            honored: vec![HonoredAllow {
                file: "crates/x/src/b.rs".into(),
                line: 3,
                code: "CAHD-L002".into(),
                reason: "trace only".into(),
            }],
            files_scanned: 2,
            rules_run: vec![("CAHD-L001", "nondeterministic-iteration")],
            non_test_lines: vec![("x".into(), 12)],
        }
    }

    #[test]
    fn human_rendering() {
        let text = sample().render_human();
        assert!(
            text.contains("error[CAHD-L001] crates/x/src/a.rs:7:"),
            "{text}"
        );
        assert!(text.contains("lint: FAIL (1 rules, 2 files)"), "{text}");
    }

    #[test]
    fn json_escapes_and_shapes() {
        let json = sample().render_json();
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("iterates a \\\"hash\\\" map"), "{json}");
        assert!(json.contains("\"allows_honored\":[{"), "{json}");
        assert!(json.contains("\"rules\":[{"), "{json}");
    }

    #[test]
    fn clean_report() {
        let r = LintReport {
            files_scanned: 1,
            ..LintReport::default()
        };
        assert!(r.is_clean());
        assert!(r.render_human().contains("lint: PASS"));
        assert!(r.render_json().starts_with("{\"clean\":true"));
    }
}
