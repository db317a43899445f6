//! Helpers shared by the root integration suites: the tree-based JSON
//! reader oracle ([`value_tree`]) and the line-based `.dat` reader oracle
//! ([`dat_lines`]).

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

pub mod dat_lines;
pub mod value_tree;
