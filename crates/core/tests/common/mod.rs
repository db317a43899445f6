//! Helpers shared by the `cahd-core` integration suites: the Figs. 7/8
//! group-formation oracle ([`fig8`]).

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

pub mod fig8;
