//! Diagnostics: stable codes, severities and locations.

use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; the release is still publishable.
    Note,
    /// Suspicious but not a correctness violation.
    Warning,
    /// The release violates a property it must have.
    Error,
}

impl Severity {
    /// The lowercase name used in reports (`error`, `warning`, `note`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from an analysis pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `CAHD-P001`. Codes never change
    /// meaning across versions; see `docs/CHECKS.md` for the catalog.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// Group index the finding points at, when group-specific.
    pub group: Option<usize>,
    /// Member position within the group, when member-specific.
    pub member: Option<usize>,
}

impl Diagnostic {
    /// An error-severity diagnostic with no location.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            group: None,
            member: None,
        }
    }

    /// A warning-severity diagnostic with no location.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// A note-severity diagnostic with no location.
    pub fn note(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches a group location.
    pub fn in_group(mut self, group: usize) -> Self {
        self.group = Some(group);
        self
    }

    /// Attaches a member-within-group location.
    pub fn at_member(mut self, group: usize, member: usize) -> Self {
        self.group = Some(group);
        self.member = Some(member);
        self
    }

    /// Renders like a compiler diagnostic:
    /// `error[CAHD-P001] group 3: privacy degree 1 below required 4`.
    pub fn render(&self) -> String {
        let mut loc = String::new();
        if let Some(g) = self.group {
            loc.push_str(&format!("group {g}"));
            if let Some(m) = self.member {
                loc.push_str(&format!(", member {m}"));
            }
            loc.push_str(": ");
        }
        format!("{}[{}] {}{}", self.severity, self.code, loc, self.message)
    }
}

impl serde::Serialize for Diagnostic {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.begin_object();
        w.field("code");
        w.str(self.code);
        w.field("severity");
        w.str(self.severity.as_str());
        w.field("message");
        w.str(&self.message);
        w.field("group");
        self.group.serialize(w);
        w.field("member");
        self.member.serialize(w);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_renders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn render_includes_location() {
        let d = Diagnostic::error("CAHD-Q001", "QID row mismatch").at_member(2, 1);
        assert_eq!(
            d.render(),
            "error[CAHD-Q001] group 2, member 1: QID row mismatch"
        );
        let plain = Diagnostic::note("CAHD-A001", "fine");
        assert_eq!(plain.render(), "note[CAHD-A001] fine");
    }

    #[test]
    fn serializes_to_object() {
        let d = Diagnostic::warning("CAHD-B001", "low band quality").in_group(0);
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.contains("\"code\":\"CAHD-B001\""), "{json}");
        assert!(json.contains("\"severity\":\"warning\""), "{json}");
        assert!(json.contains("\"member\":null"), "{json}");
    }
}
