//! The lint rules: stable `CAHD-L0xx` codes over the workspace's sources.
//!
//! Mirrors the `cahd-check` pass architecture — a registry of independent
//! rules with stable codes, all findings reported in one run — but the
//! subject is the workspace's *own Rust source* instead of a release.
//! Per-file rules (`L001`–`L003`, `L006`, `L007`) see one tokenized file
//! at a time; drift rules (`L004`, `L005`) aggregate over every source
//! file and the docs tree. `L008` audits the suppression comments
//! themselves and is emitted by the engine in `lib.rs`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{in_ranges, LexOutput, Token, TokenKind};
use crate::report::Finding;

/// Metadata for one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable code, e.g. `CAHD-L001`.
    pub code: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description for `--list` and the JSON report.
    pub description: &'static str,
}

/// The full rule registry, in code order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "CAHD-L001",
        name: "nondeterministic-iteration",
        description: "HashMap/HashSet in release-affecting crates: iteration order is \
                      nondeterministic and can leak into a release",
    },
    RuleInfo {
        code: "CAHD-L002",
        name: "wall-clock-entropy",
        description: "Instant::now / SystemTime / thread_rng outside bench and obs, or \
                      env::var* in library crates: clocks, ambient entropy and \
                      environment overrides break reproducibility",
    },
    RuleInfo {
        code: "CAHD-L003",
        name: "panic-discipline",
        description: "unwrap/expect/panic! in library crates outside tests: library code \
                      must return errors",
    },
    RuleInfo {
        code: "CAHD-L004",
        name: "diagnostic-code-drift",
        description: "every CAHD-* code referenced in source must be cataloged in \
                      docs/CHECKS.md or docs/LINTS.md, and vice versa",
    },
    RuleInfo {
        code: "CAHD-L005",
        name: "counter-drift",
        description: "every observability counter/gauge/histogram name recorded via \
                      cahd-obs must have a row in docs/OBSERVABILITY.md, and vice versa",
    },
    RuleInfo {
        code: "CAHD-L006",
        name: "float-accumulation-order",
        description: "f64 reductions over unordered (hash) iterators in eval/core: \
                      float addition does not commute across orders",
    },
    RuleInfo {
        code: "CAHD-L007",
        name: "strict-invariant-hygiene",
        description: "raw debug_assert! in crates that define the strict-invariants \
                      feature must go through the feature-gated macros",
    },
    RuleInfo {
        code: "CAHD-L008",
        name: "suppression-hygiene",
        description: "cahd-lint allow comments must parse, name known codes, carry a \
                      reason, and actually suppress something",
    },
];

/// Looks a rule up by code.
pub fn rule(code: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.code == code)
}

/// Crates whose output bytes land in a published release (or in the
/// deterministic evaluation tables derived from one).
pub const RELEASE_CRATES: &[&str] = &["baselines", "core", "data", "eval", "rcm", "sparse"];

/// Crates allowed to read clocks/entropy: the benchmark harness and the
/// observability layer (which owns the disabled-by-default span clock).
pub const CLOCK_EXEMPT_CRATES: &[&str] = &["bench", "obs"];

/// Library crates held to panic discipline (binaries and the bench/lint
/// tooling are exempt; their panics stop a process, not a caller).
pub const LIBRARY_CRATES: &[&str] = &[
    "baselines",
    "check",
    "core",
    "data",
    "eval",
    "obs",
    "rcm",
    "sparse",
];

/// Crates where float accumulation order is release-visible.
pub const FLOAT_ORDER_CRATES: &[&str] = &["core", "eval"];

/// Files exempt from `L007`: where the feature-gated macros are defined.
pub const INVARIANT_MACRO_FILES: &[&str] = &["crates/core/src/invariant.rs"];

/// Observability namespaces whose recorded names `L005` tracks.
const OBS_NAMESPACES: &[&str] = &["core", "eval", "mem", "rcm", "sparse"];

/// Hash-collection iteration methods flagged by `L001`.
const ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// One source file prepared for linting.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/core/src/order.rs`.
    pub path: String,
    /// Crate short name (`core`, `eval`, … or `cahd` for the root lib).
    pub crate_name: String,
    /// Raw text (drift rules scan it, comments included).
    pub raw: String,
    /// Lexed tokens + suppression directives.
    pub lex: LexOutput,
    /// Line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    fn in_test(&self, line: u32) -> bool {
        in_ranges(&self.test_ranges, line)
    }
}

/// Runs all per-file rules over one file.
pub fn check_file(file: &SourceFile, strict_crates: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let hash_bindings = collect_hash_bindings(&file.lex.tokens);
    l001_hash_collections(file, &hash_bindings, &mut findings);
    l002_wall_clock(file, &mut findings);
    l003_panic_discipline(file, &mut findings);
    l006_float_order(file, &hash_bindings, &mut findings);
    l007_strict_invariants(file, strict_crates, &mut findings);
    findings
}

/// Identifiers bound (via `let` or a `name: Type` annotation) to a
/// `HashMap`/`HashSet` type, with the binding line.
fn collect_hash_bindings(tokens: &[Token]) -> BTreeMap<String, u32> {
    let mut bindings = BTreeMap::new();
    let is_hash = |t: &Token| t.is_ident("HashMap") || t.is_ident("HashSet");
    for (i, t) in tokens.iter().enumerate() {
        // `let [mut] name ... ;` with a hash type anywhere in the statement.
        if t.is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) else {
                continue;
            };
            for t2 in tokens.iter().skip(j + 1).take(80) {
                // `{` opens a block or closure: whatever mentions a hash
                // type in there is not this binding's own type.
                if t2.is_punct(';') || t2.is_punct('{') {
                    break;
                }
                if is_hash(t2) {
                    bindings.insert(name_tok.text.clone(), name_tok.line);
                    break;
                }
            }
        }
        // `name: ... HashMap ...` before `,` / `)` / `;` / `=` — covers
        // parameters and struct fields.
        if t.kind == TokenKind::Ident && tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            for t2 in tokens.iter().skip(i + 2).take(40) {
                if t2.is_punct(',')
                    || t2.is_punct(')')
                    || t2.is_punct(';')
                    || t2.is_punct('=')
                    || t2.is_punct('{')
                {
                    break;
                }
                if is_hash(t2) {
                    bindings.insert(t.text.clone(), t.line);
                    break;
                }
            }
        }
    }
    bindings
}

/// `CAHD-L001`: hash collections in release-affecting crates. Every
/// mention is flagged (the type's iteration order is a landmine even when
/// today's use is membership-only — that case is what `allow` with a
/// reason is for); iterating a tracked hash binding gets a sharper
/// message.
fn l001_hash_collections(
    file: &SourceFile,
    hash_bindings: &BTreeMap<String, u32>,
    findings: &mut Vec<Finding>,
) {
    if !RELEASE_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let tokens = &file.lex.tokens;
    let mut by_line: BTreeMap<u32, String> = BTreeMap::new();
    for t in tokens {
        if (t.is_ident("HashMap") || t.is_ident("HashSet")) && !file.in_test(t.line) {
            by_line.entry(t.line).or_insert_with(|| {
                format!(
                    "`{}` in a release-affecting crate: its iteration order is \
                     nondeterministic; use `BTreeMap`/`BTreeSet` (or sort before \
                     iterating, or allow with a membership-only reason)",
                    t.text
                )
            });
        }
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !hash_bindings.contains_key(&t.text) {
            continue;
        }
        if file.in_test(t.line) {
            continue;
        }
        // `binding.iter()` and friends.
        if tokens.get(i + 1).is_some_and(|p| p.is_punct('.')) {
            if let Some(m) = tokens.get(i + 2) {
                if ITER_METHODS.contains(&m.text.as_str())
                    && tokens.get(i + 3).is_some_and(|p| p.is_punct('('))
                {
                    by_line.insert(
                        m.line,
                        format!(
                            "iterates the hash collection `{}` (`.{}()`): the visit \
                             order is nondeterministic",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // `for x in [&][mut] binding {`.
        if i >= 1 && is_for_in_target(tokens, i) {
            by_line.insert(
                t.line,
                format!(
                    "`for` loop over the hash collection `{}`: the visit order is \
                     nondeterministic",
                    t.text
                ),
            );
        }
    }
    for (line, message) in by_line {
        findings.push(Finding {
            file: file.path.clone(),
            line,
            code: "CAHD-L001",
            message,
        });
    }
}

/// Whether `tokens[i]` is the loop target of a `for … in` (possibly
/// behind `&`/`mut`) whose body opens right after.
fn is_for_in_target(tokens: &[Token], i: usize) -> bool {
    if !tokens.get(i + 1).is_some_and(|t| t.is_punct('{')) {
        return false;
    }
    let mut j = i;
    while j > 0 {
        let prev = &tokens[j - 1];
        if prev.is_punct('&') || prev.is_ident("mut") {
            j -= 1;
        } else {
            return prev.is_ident("in");
        }
    }
    false
}

/// `CAHD-L002`: wall-clock and ambient-entropy reads outside `bench`/`obs`,
/// and environment reads in library crates.
fn l002_wall_clock(file: &SourceFile, findings: &mut Vec<Finding>) {
    let clock = !CLOCK_EXEMPT_CRATES.contains(&file.crate_name.as_str());
    let env = LIBRARY_CRATES.contains(&file.crate_name.as_str());
    let tokens = &file.lex.tokens;
    let path = |i: usize, head: &str, tails: &[&str]| {
        tokens[i].is_ident(head)
            && tokens.get(i + 1).is_some_and(|p| p.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|p| p.is_punct(':'))
            && tokens
                .get(i + 3)
                .is_some_and(|p| tails.iter().any(|t| p.is_ident(t)))
    };
    for (i, t) in tokens.iter().enumerate() {
        if file.in_test(t.line) {
            continue;
        }
        let hit = if clock && path(i, "Instant", &["now"]) {
            Some("`Instant::now()` reads the wall clock")
        } else if clock && t.is_ident("SystemTime") {
            Some("`SystemTime` reads the wall clock")
        } else if clock && t.is_ident("thread_rng") {
            Some("`thread_rng()` draws ambient entropy")
        } else {
            None
        };
        let message = if let Some(what) = hit {
            format!(
                "{what}: nondeterministic in a release-affecting path; route \
                 timing through a cahd-obs recorder (disabled recorders never \
                 read the clock), seed RNGs explicitly, or allow with a \
                 trace-only reason"
            )
        } else if env && path(i, "env", &["var", "var_os", "vars", "vars_os"]) {
            "`std::env` read in a library crate: the environment silently \
             overrides the caller's config; take the setting as a config field \
             the binary resolves"
                .to_string()
        } else {
            continue;
        };
        findings.push(Finding {
            file: file.path.clone(),
            line: t.line,
            code: "CAHD-L002",
            message,
        });
    }
}

/// `CAHD-L003`: panics in library crates outside tests.
fn l003_panic_discipline(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !LIBRARY_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let tokens = &file.lex.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if file.in_test(t.line) {
            continue;
        }
        let hit = if t.is_punct('.')
            && tokens
                .get(i + 1)
                .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
            && tokens.get(i + 2).is_some_and(|p| p.is_punct('('))
        {
            let m = &tokens[i + 1];
            Some((m.line, format!("`.{}()` can panic", m.text)))
        } else if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('!'))
        {
            Some((t.line, format!("`{}!` panics", t.text)))
        } else {
            None
        };
        if let Some((line, what)) = hit {
            findings.push(Finding {
                file: file.path.clone(),
                line,
                code: "CAHD-L003",
                message: format!(
                    "{what} in a library crate: return a `CahdError` (or allow with \
                     a proof the failure is impossible)"
                ),
            });
        }
    }
}

/// `CAHD-L006`: float reductions over hash-collection iterators.
fn l006_float_order(
    file: &SourceFile,
    hash_bindings: &BTreeMap<String, u32>,
    findings: &mut Vec<Finding>,
) {
    if !FLOAT_ORDER_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let tokens = &file.lex.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !hash_bindings.contains_key(&t.text) {
            continue;
        }
        if file.in_test(t.line) {
            continue;
        }
        let rooted = tokens.get(i + 1).is_some_and(|p| p.is_punct('.'))
            && tokens.get(i + 2).is_some_and(|m| {
                matches!(m.text.as_str(), "values" | "keys" | "iter" | "into_iter")
            });
        if !rooted {
            continue;
        }
        // Scan the rest of the statement for a reduction terminal with
        // float evidence (an `::<f64>` turbofish or a float literal seed).
        let mut j = i + 3;
        let mut budget = 80usize;
        while budget > 0 {
            budget -= 1;
            let Some(tj) = tokens.get(j) else { break };
            if tj.is_punct(';') {
                break;
            }
            if tj.kind == TokenKind::Ident
                && matches!(tj.text.as_str(), "sum" | "product" | "fold")
                && has_float_evidence(tokens, j + 1)
            {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: tj.line,
                    code: "CAHD-L006",
                    message: format!(
                        "float `{}` over the hash collection `{}`: accumulation \
                         order is nondeterministic and float addition does not \
                         commute across orders; iterate a sorted view instead",
                        tj.text, t.text
                    ),
                });
                break;
            }
            j += 1;
        }
    }
}

/// Float evidence right after a reduction terminal: `::<f64>` / `::<f32>`
/// turbofish, or a float literal among the next few tokens.
fn has_float_evidence(tokens: &[Token], start: usize) -> bool {
    for w in 0..12 {
        let Some(t) = tokens.get(start + w) else {
            return false;
        };
        if t.is_punct(';') {
            return false;
        }
        if t.is_ident("f64") || t.is_ident("f32") {
            return true;
        }
        if t.kind == TokenKind::Number && t.text.contains('.') {
            return true;
        }
    }
    false
}

/// `CAHD-L007`: raw `debug_assert!` where the strict-invariants feature
/// exists to upgrade checks.
fn l007_strict_invariants(
    file: &SourceFile,
    strict_crates: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    if !strict_crates.contains(&file.crate_name)
        || INVARIANT_MACRO_FILES.contains(&file.path.as_str())
    {
        return;
    }
    let tokens = &file.lex.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if file.in_test(t.line) {
            continue;
        }
        if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "debug_assert" | "debug_assert_eq" | "debug_assert_ne"
            )
            && tokens.get(i + 1).is_some_and(|p| p.is_punct('!'))
        {
            let upgraded = if t.text == "debug_assert" {
                "strict_invariant!"
            } else {
                "strict_invariant_eq!"
            };
            findings.push(Finding {
                file: file.path.clone(),
                line: t.line,
                code: "CAHD-L007",
                message: format!(
                    "raw `{}!` in a crate that defines the `strict-invariants` \
                     feature: use `{upgraded}` so strict builds upgrade the check \
                     to a hard assert",
                    t.text
                ),
            });
        }
    }
}

/// `CAHD-L004`: two-way drift between `CAHD-*` codes referenced in source
/// and the catalogs in `docs/CHECKS.md` / `docs/LINTS.md`.
///
/// The source side scans *raw text* (comments included): a code mentioned
/// anywhere in the tree must mean something to a reader of the catalogs.
pub fn l004_code_drift(files: &[SourceFile], docs: &[(String, String)]) -> Vec<Finding> {
    let mut source_codes: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for f in files {
        for (line, code) in find_cahd_codes(&f.raw) {
            // Codes seeded in test fixtures are deliberately fake.
            if f.in_test(line) {
                continue;
            }
            source_codes
                .entry(code)
                .or_insert_with(|| (f.path.clone(), line));
        }
    }
    let mut doc_codes: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut catalogs = 0usize;
    for (path, text) in docs {
        if !(path.ends_with("CHECKS.md") || path.ends_with("LINTS.md")) {
            continue;
        }
        catalogs += 1;
        for (line, code) in find_cahd_codes(text) {
            doc_codes
                .entry(code)
                .or_insert_with(|| (path.clone(), line));
        }
    }
    let mut findings = Vec::new();
    for (code, (file, line)) in &source_codes {
        if !doc_codes.contains_key(code) {
            findings.push(Finding {
                file: file.clone(),
                line: *line,
                code: "CAHD-L004",
                message: format!(
                    "diagnostic code `{code}` is referenced in source but cataloged \
                     in neither docs/CHECKS.md nor docs/LINTS.md"
                ),
            });
        }
    }
    if catalogs > 0 {
        for (code, (file, line)) in &doc_codes {
            if !source_codes.contains_key(code) {
                findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    code: "CAHD-L004",
                    message: format!(
                        "diagnostic code `{code}` is cataloged in {file} but never \
                         referenced in source"
                    ),
                });
            }
        }
    }
    findings
}

/// `CAHD-L005`: two-way drift between observability names recorded via
/// `cahd-obs` (`rec.add/gauge/observe/record_histogram("ns.name", …)`)
/// and the glossary in `docs/OBSERVABILITY.md`.
pub fn l005_counter_drift(files: &[SourceFile], docs: &[(String, String)]) -> Vec<Finding> {
    let mut recorded: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for f in files {
        let tokens = &f.lex.tokens;
        for (i, t) in tokens.iter().enumerate() {
            if !t.is_punct('.') {
                continue;
            }
            let Some(m) = tokens.get(i + 1) else { continue };
            if !matches!(
                m.text.as_str(),
                "add" | "gauge" | "observe" | "record_histogram"
            ) {
                continue;
            }
            if !tokens.get(i + 2).is_some_and(|p| p.is_punct('(')) {
                continue;
            }
            let Some(arg) = tokens.get(i + 3) else {
                continue;
            };
            if arg.kind == TokenKind::Str && is_obs_name(&arg.text) && !f.in_test(arg.line) {
                recorded
                    .entry(arg.text.clone())
                    .or_insert_with(|| (f.path.clone(), arg.line));
            }
        }
    }
    let mut documented: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut glossaries = 0usize;
    for (path, text) in docs {
        if !path.ends_with("OBSERVABILITY.md") {
            continue;
        }
        glossaries += 1;
        for (line, name) in find_obs_names(text) {
            documented
                .entry(name)
                .or_insert_with(|| (path.clone(), line));
        }
    }
    let mut findings = Vec::new();
    for (name, (file, line)) in &recorded {
        if !documented.contains_key(name) {
            findings.push(Finding {
                file: file.clone(),
                line: *line,
                code: "CAHD-L005",
                message: format!(
                    "observability name `{name}` is recorded here but has no row in \
                     docs/OBSERVABILITY.md"
                ),
            });
        }
    }
    if glossaries > 0 {
        for (name, (file, line)) in &documented {
            if !recorded.contains_key(name) {
                findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    code: "CAHD-L005",
                    message: format!(
                        "observability name `{name}` is documented but never \
                         recorded by any `cahd-obs` call"
                    ),
                });
            }
        }
    }
    findings
}

/// Finds `CAHD-X###` codes in raw text, with 1-based lines.
fn find_cahd_codes(text: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let bytes = line.as_bytes();
        let mut start = 0usize;
        while let Some(pos) = line[start..].find("CAHD-") {
            let at = start + pos;
            let rest = &bytes[at + 5..];
            if rest.len() >= 4
                && rest[0].is_ascii_uppercase()
                && rest[1..4].iter().all(u8::is_ascii_digit)
                && rest.get(4).is_none_or(|c| !c.is_ascii_alphanumeric())
            {
                out.push((ln as u32 + 1, line[at..at + 9].to_string()));
                start = at + 9;
            } else {
                start = at + 5;
            }
        }
    }
    out
}

/// Whether a string literal is an observability name (`core.groups_formed`).
fn is_obs_name(s: &str) -> bool {
    let Some((ns, rest)) = s.split_once('.') else {
        return false;
    };
    OBS_NAMESPACES.contains(&ns)
        && !rest.is_empty()
        && rest
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Finds documented observability names (`ns.name` with a known namespace
/// and a word boundary on the left) in markdown text.
fn find_obs_names(text: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let bytes = line.as_bytes();
        for ns in OBS_NAMESPACES {
            let pat = format!("{ns}.");
            let mut start = 0usize;
            while let Some(pos) = line[start..].find(&pat) {
                let at = start + pos;
                let boundary_ok = at == 0 || {
                    let prev = bytes[at - 1];
                    !(prev.is_ascii_alphanumeric() || prev == b'_' || prev == b'.')
                };
                let name_start = at + pat.len();
                let mut end = name_start;
                while end < bytes.len()
                    && (bytes[end].is_ascii_lowercase()
                        || bytes[end].is_ascii_digit()
                        || bytes[end] == b'_')
                {
                    end += 1;
                }
                if boundary_ok && end > name_start {
                    out.push((ln as u32 + 1, line[at..end].to_string()));
                }
                start = name_start.max(at + 1);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_line_ranges};

    fn file(path: &str, crate_name: &str, src: &str) -> SourceFile {
        let lx = lex(src);
        let ranges = test_line_ranges(&lx.tokens);
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            raw: src.to_string(),
            lex: lx,
            test_ranges: ranges,
        }
    }

    #[test]
    fn finds_cahd_codes_with_boundaries() {
        let codes = find_cahd_codes("x CAHD-P001 y CAHD-L0011 z CAHD-xx CAHD-Q002.");
        let names: Vec<&str> = codes.iter().map(|(_, c)| c.as_str()).collect();
        assert_eq!(names, vec!["CAHD-P001", "CAHD-Q002"]);
    }

    #[test]
    fn obs_names_respect_boundaries() {
        let names = find_obs_names("the `core.pivots_scanned` counter beats score.keeping");
        assert_eq!(names, vec![(1, "core.pivots_scanned".to_string())]);
    }

    #[test]
    fn hash_bindings_from_let_and_params() {
        let src = "fn f(m: &HashMap<u32, u32>) { let mut s: HashSet<u8> = HashSet::new(); \
                   let v = vec![1]; }";
        let b = collect_hash_bindings(&lex(src).tokens);
        assert!(b.contains_key("m") && b.contains_key("s"));
        assert!(!b.contains_key("v"));
    }

    #[test]
    fn l001_flags_mentions_and_iteration() {
        let f = file(
            "crates/core/src/x.rs",
            "core",
            "use std::collections::HashMap;\nfn f() {\n  let m: HashMap<u32,u32> = \
             HashMap::new();\n  for x in &m { }\n  let _ = m.keys();\n}\n",
        );
        let findings = check_file(&f, &BTreeSet::new());
        let l1: Vec<&Finding> = findings.iter().filter(|f| f.code == "CAHD-L001").collect();
        assert!(l1.iter().any(|f| f.line == 1));
        assert!(l1.iter().any(|f| f.line == 4 && f.message.contains("for")));
        assert!(l1
            .iter()
            .any(|f| f.line == 5 && f.message.contains(".keys()")));
    }

    #[test]
    fn l001_ignores_non_release_crates_and_tests() {
        let lint = file("crates/lint/src/x.rs", "lint", "let m = HashMap::new();");
        assert!(check_file(&lint, &BTreeSet::new()).is_empty());
        let test = file(
            "crates/core/src/x.rs",
            "core",
            "#[cfg(test)]\nmod tests {\n  fn f() { let m = std::collections::HashMap::new(); }\n}\n",
        );
        assert!(check_file(&test, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn l002_flags_clock_and_entropy() {
        let f = file(
            "crates/core/src/x.rs",
            "core",
            "fn f() { let t = Instant::now(); let r = thread_rng(); }\nfn g(s: SystemTime) {}\n",
        );
        let codes: Vec<u32> = check_file(&f, &BTreeSet::new())
            .iter()
            .filter(|f| f.code == "CAHD-L002")
            .map(|f| f.line)
            .collect();
        assert_eq!(codes, vec![1, 1, 2]);
        let bench = file("crates/bench/src/x.rs", "bench", "let t = Instant::now();");
        assert!(check_file(&bench, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn l002_flags_env_reads_in_library_crates() {
        // The four environment overrides the libraries once read.
        let sites = [
            ("crates/core/src/kernel.rs", "core", "CAHD_KERNEL"),
            ("crates/rcm/src/strategy.rs", "rcm", "CAHD_ORDERING"),
            ("crates/sparse/src/aat.rs", "sparse", "CAHD_ROWGRAPH"),
            ("crates/sparse/src/aat.rs", "sparse", "CAHD_HUB_CAP"),
        ];
        for (path, krate, var) in sites {
            let src = format!("fn f() -> Option<String> {{\n  std::env::var(\"{var}\").ok()\n}}\n");
            let lines: Vec<u32> = check_file(&file(path, krate, &src), &BTreeSet::new())
                .iter()
                .filter(|f| f.code == "CAHD-L002")
                .map(|f| f.line)
                .collect();
            assert_eq!(lines, vec![2], "{path} {var}");
        }
        let forms = file(
            "crates/obs/src/x.rs",
            "obs",
            "use std::env;\nfn f() { env::var_os(\"A\"); env::vars(); env::vars_os(); }\n",
        );
        let l2 = check_file(&forms, &BTreeSet::new());
        assert_eq!(l2.iter().filter(|f| f.code == "CAHD-L002").count(), 3);
        // Binaries, tooling, tests and other `std::env` items stay free.
        let read = "fn f() { std::env::var(\"CAHD_SEED\"); }";
        for (path, krate) in [
            ("crates/cli/src/x.rs", "cli"),
            ("crates/bench/src/x.rs", "bench"),
        ] {
            assert!(check_file(&file(path, krate, read), &BTreeSet::new()).is_empty());
        }
        let test = file(
            "crates/core/src/x.rs",
            "core",
            "#[cfg(test)]\nmod tests {\n  fn f() { std::env::var(\"X\"); }\n}\n",
        );
        assert!(check_file(&test, &BTreeSet::new()).is_empty());
        let temp = file(
            "crates/data/src/x.rs",
            "data",
            "fn f() { std::env::temp_dir(); }",
        );
        assert!(check_file(&temp, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn l003_flags_panics_outside_tests() {
        let f = file(
            "crates/data/src/x.rs",
            "data",
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }\n#[cfg(test)]\nmod t { fn \
             g() { z.unwrap(); } }\n",
        );
        let hits: Vec<Finding> = check_file(&f, &BTreeSet::new())
            .into_iter()
            .filter(|f| f.code == "CAHD-L003")
            .collect();
        assert_eq!(hits.len(), 3, "{hits:?}");
        // No library file is exempt, the recovery module included.
        let recovery = file(
            "crates/core/src/recovery.rs",
            "core",
            "fn f() { panic!(\"no\"); }",
        );
        let hits = check_file(&recovery, &BTreeSet::new());
        assert!(hits.len() == 1 && hits[0].code == "CAHD-L003", "{hits:?}");
    }

    #[test]
    fn l003_does_not_flag_unwrap_or() {
        let f = file(
            "crates/data/src/x.rs",
            "data",
            "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); }",
        );
        assert!(check_file(&f, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn l006_flags_float_reductions_over_hashes() {
        let f = file(
            "crates/eval/src/x.rs",
            "eval",
            "fn f(m: &HashMap<u32, f64>) -> f64 {\n  m.values().sum::<f64>()\n}\n",
        );
        let findings = check_file(&f, &BTreeSet::new());
        assert!(
            findings
                .iter()
                .any(|f| f.code == "CAHD-L006" && f.line == 2),
            "{findings:?}"
        );
        // An ordered Vec reduction is fine.
        let ok = file(
            "crates/eval/src/y.rs",
            "eval",
            "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }",
        );
        assert!(!check_file(&ok, &BTreeSet::new())
            .iter()
            .any(|f| f.code == "CAHD-L006"));
    }

    #[test]
    fn l007_only_in_strict_feature_crates() {
        let strict: BTreeSet<String> = ["core".to_string()].into_iter().collect();
        let f = file(
            "crates/core/src/x.rs",
            "core",
            "fn f() { debug_assert!(true); debug_assert_eq!(1, 1); }",
        );
        let hits: Vec<_> = check_file(&f, &strict)
            .into_iter()
            .filter(|f| f.code == "CAHD-L007")
            .collect();
        assert_eq!(hits.len(), 2);
        assert!(hits[1].message.contains("strict_invariant_eq!"));
        // Same file in a crate without the feature: quiet.
        let g = file(
            "crates/rcm/src/x.rs",
            "rcm",
            "fn f() { debug_assert!(true); }",
        );
        assert!(!check_file(&g, &strict)
            .iter()
            .any(|f| f.code == "CAHD-L007"));
        // The macro-definition file is exempt.
        let inv = file(
            "crates/core/src/invariant.rs",
            "core",
            "macro_rules! strict_invariant { () => { debug_assert!(true) } }",
        );
        assert!(check_file(&inv, &strict).is_empty());
    }

    #[test]
    fn l004_two_way_drift() {
        let src = file(
            "crates/check/src/x.rs",
            "check",
            "const C: &str = \"CAHD-P001\"; // also CAHD-Z009 in a comment\n",
        );
        let docs = vec![(
            "docs/CHECKS.md".to_string(),
            "| `CAHD-P001` | ... |\n| `CAHD-Y008` | ghost |\n".to_string(),
        )];
        let findings = l004_code_drift(&[src], &docs);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("CAHD-Z009") && f.file.contains("x.rs")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("CAHD-Y008") && f.file.contains("CHECKS.md")));
        assert!(!findings.iter().any(|f| f.message.contains("CAHD-P001")));
    }

    #[test]
    fn l005_two_way_drift() {
        let src = file(
            "crates/core/src/x.rs",
            "core",
            "fn f(rec: &R) { rec.add(\"core.new_counter\", 1); rec.gauge(\"core.shards\", 2.0); }",
        );
        let docs = vec![(
            "docs/OBSERVABILITY.md".to_string(),
            "| `core.shards` | ... |\n| `core.ghost_counter` | gone |\n".to_string(),
        )];
        let findings = l005_counter_drift(&[src], &docs);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("core.new_counter") && f.file.contains("x.rs")));
        assert!(findings.iter().any(
            |f| f.message.contains("core.ghost_counter") && f.file.contains("OBSERVABILITY.md")
        ));
        assert!(!findings.iter().any(|f| f.message.contains("`core.shards`")));
    }
}
