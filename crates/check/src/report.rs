//! The aggregated result of a registry run.

use crate::diagnostic::{Diagnostic, Severity};

/// Everything a registry run found, plus enough metadata to render it for
/// humans or machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckReport {
    /// All findings, in pass order (every pass runs to completion — the
    /// framework never fails fast).
    pub diagnostics: Vec<Diagnostic>,
    /// Names of the passes that ran.
    pub passes_run: Vec<&'static str>,
    /// The privacy degree the release was checked against.
    pub required_degree: usize,
}

impl CheckReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub fn note_count(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether the release passed: no error-severity findings (warnings
    /// and notes do not fail a check).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// The distinct diagnostic codes present, sorted.
    pub fn distinct_codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Renders a compiler-style human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "check: {} ({} passes, required degree {}): {} error(s), {} warning(s), {} note(s)\n",
            if self.is_clean() { "PASS" } else { "FAIL" },
            self.passes_run.len(),
            self.required_degree,
            self.error_count(),
            self.warning_count(),
            self.note_count(),
        ));
        out
    }
}

impl serde::Serialize for CheckReport {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.begin_object();
        w.field("clean");
        w.bool(self.is_clean());
        w.field("required_degree");
        w.u64(self.required_degree as u64);
        w.field("passes_run");
        self.passes_run.serialize(w);
        w.field("errors");
        w.u64(self.error_count() as u64);
        w.field("warnings");
        w.u64(self.warning_count() as u64);
        w.field("notes");
        w.u64(self.note_count() as u64);
        w.field("diagnostics");
        self.diagnostics.serialize(w);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckReport {
        CheckReport {
            diagnostics: vec![
                Diagnostic::error("CAHD-P001", "privacy degree 1 below required 2").in_group(0),
                Diagnostic::warning("CAHD-B001", "band quality regression"),
                Diagnostic::error("CAHD-P001", "privacy degree 1 below required 2").in_group(3),
            ],
            passes_run: vec!["privacy-degree", "band-quality"],
            required_degree: 2,
        }
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.error_count(), 2);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.note_count(), 0);
        assert!(!r.is_clean());
        assert_eq!(r.distinct_codes(), vec!["CAHD-B001", "CAHD-P001"]);
    }

    #[test]
    fn human_rendering() {
        let text = sample().render_human();
        assert!(text.contains("error[CAHD-P001] group 0:"), "{text}");
        assert!(text.contains("check: FAIL"), "{text}");
        assert!(text.contains("2 error(s), 1 warning(s)"), "{text}");
    }

    #[test]
    fn json_shape() {
        let json = serde_json::to_string(&sample()).unwrap();
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\"errors\":2"), "{json}");
        assert!(json.contains("\"code\":\"CAHD-B001\""), "{json}");
    }
}
