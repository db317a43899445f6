//! Helpers shared by the `cahd-eval` integration suites: the row-scan
//! adversary oracle ([`row_scan`]).

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

pub mod row_scan;
