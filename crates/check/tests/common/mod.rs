//! Helpers shared by the `cahd-check` integration suites: the release
//! audit as it was before the linear rewrite ([`audit_baseline`]).

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

pub mod audit_baseline;
