//! The `cahd-cli` command-line tool: anonymize, audit and evaluate sparse
//! transaction datasets from the shell. Each command answers one question:
//!
//! ```text
//! cahd-cli stats     <data.dat>                          dataset characteristics
//! cahd-cli generate  {bms1|bms2|quest} --out data.dat    synthetic data
//! cahd-cli audit     <data.dat>                          Table II re-identification risk
//! cahd-cli anonymize <data.dat> --p P (--sensitive ..|--random-m M)   make a release
//! cahd-cli report    <release.json>                      privacy summary of a release
//! cahd-cli check     <data.dat> <release.json> --p P     every diagnostic, one run
//! cahd-cli lint                                          audit this workspace's sources
//! cahd-cli attack    <data.dat> <release.json>.. --p P   adversary replay, 1/p gate
//! cahd-cli evaluate  <data.dat> <release.json>           query reconstruction error (KL)
//! ```
//!
//! `cahd-cli --help` lists every flag. The command functions live in
//! [`commands`] and return strings/results so the integration tests can
//! drive them without spawning processes; `main` is a thin
//! argument-parsing shim ([`args`]).

pub mod args;
pub mod commands;

use std::fmt;

/// A CLI-level failure: bad usage or a failing operation, with the message
/// shown to the user.
#[derive(Debug)]
pub enum CliError {
    /// Wrong flags/arguments; print usage too.
    Usage(String),
    /// The operation itself failed.
    Run(String),
    /// A `check` run completed but found error-severity diagnostics; the
    /// payload is the full report, printed verbatim before a nonzero exit.
    Check(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Run(m) | CliError::Check(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Run(format!("io error: {e}"))
    }
}

impl From<cahd_core::CahdError> for CliError {
    fn from(e: cahd_core::CahdError) -> Self {
        CliError::Run(e.to_string())
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Run(format!("json error: {e}"))
    }
}
