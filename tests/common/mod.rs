//! Helpers shared by the root integration suites: the tree-based JSON
//! reader oracle ([`value_tree`]).

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

pub mod value_tree;
