//! The stamped twin-class degree pass: the exact degree pass of the
//! implicit row graph as it was before the word-parallel union, kept as
//! the oracle `twin_rows.rs` checks `ImplicitRowGraph::degree` against.
//!
//! Rows are grouped into twin classes (distinct item sets), the classes
//! of every item are listed in a class-postings matrix, and each class
//! stamps the class postings of its non-hub items into one
//! `(stamp, multiplicity)` slot per class. [`class_degree_chunk`] and
//! [`hub_skipped`] are the earlier library code, copied verbatim; the
//! class grouping is rebuilt here from a `BTreeMap` and shares no code
//! with the crate under test.

use std::borrow::Cow;
use std::collections::BTreeMap;

use cahd_sparse::CsrMatrix;

/// Rows grouped into twin classes, as the stamped pass read them.
pub struct TwinClasses<'m> {
    /// Item-major class postings: row `i` lists, ascending, the classes
    /// whose item set contains item `i`.
    postings: Cow<'m, CsrMatrix>,
    /// One representative row per class (its smallest row id).
    reps: Vec<u32>,
    /// Number of rows in each class.
    mult: Vec<u32>,
    /// The class of every row.
    class_of: Vec<u32>,
}

impl TwinClasses<'static> {
    /// Groups the rows of `rows` by item set, classes numbered in the
    /// lexicographic order of their item sets.
    pub fn of(rows: &CsrMatrix) -> Self {
        let mut by_set: BTreeMap<&[u32], Vec<u32>> = BTreeMap::new();
        for r in 0..rows.n_rows() {
            by_set.entry(rows.row(r)).or_default().push(r as u32);
        }
        let mut reps = Vec::new();
        let mut mult = Vec::new();
        let mut class_of = vec![0u32; rows.n_rows()];
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); rows.n_cols()];
        for (c, (set, members)) in by_set.into_iter().enumerate() {
            reps.push(members[0]);
            mult.push(members.len() as u32);
            for &r in &members {
                class_of[r as usize] = c as u32;
            }
            for &i in set {
                lists[i as usize].push(c as u32);
            }
        }
        TwinClasses {
            postings: Cow::Owned(CsrMatrix::from_rows(&lists, reps.len())),
            reps,
            mult,
            class_of,
        }
    }
}

/// Whether an item posting list of length `support` is skipped under the
/// hub cap.
#[inline]
fn hub_skipped(support: usize, hub_cap: Option<u32>) -> bool {
    match hub_cap {
        Some(cap) => support > cap as usize,
        None => false,
    }
}

/// Degrees of classes `lo..hi`: a stamped union over the class postings
/// of each class's non-hub items, weighted by class size. The class
/// itself is in that union exactly when it holds a non-hub item, and is
/// then counted once too many (the row itself); an empty or all-hub row
/// has no neighbors, whatever its multiplicity.
fn class_degree_chunk(
    rows: &CsrMatrix,
    cols: &CsrMatrix,
    classes: &TwinClasses<'_>,
    hub_cap: Option<u32>,
    lo: usize,
    hi: usize,
) -> Vec<u32> {
    // `(stamp, multiplicity)` per class, side by side so one load serves
    // both the dedup test and the weight.
    let mut slots: Vec<[u32; 2]> = classes.mult.iter().map(|&m| [0, m]).collect();
    let mut out = Vec::with_capacity(hi - lo);
    for (stamp, c) in (lo..hi).enumerate() {
        let stamp = stamp as u32 + 1;
        let mut d = 0u32;
        for &item in rows.row(classes.reps[c] as usize) {
            let i = item as usize;
            if hub_skipped(cols.row_len(i), hub_cap) {
                continue;
            }
            for &c2 in classes.postings.row(i) {
                let slot = &mut slots[c2 as usize];
                d += u32::from(slot[0] != stamp) * slot[1];
                slot[0] = stamp;
            }
        }
        out.push(d.saturating_sub(1));
    }
    out
}

/// Every row's distinct-neighbor degree under the hub cap, by the stamped
/// pass over all classes at once.
pub fn stamped_degrees(rows: &CsrMatrix, hub_cap: Option<u32>) -> Vec<u32> {
    let cols = rows.transpose();
    let classes = TwinClasses::of(rows);
    let k = classes.reps.len();
    let class_degrees = class_degree_chunk(rows, &cols, &classes, hub_cap, 0, k);
    classes
        .class_of
        .iter()
        .map(|&c| class_degrees[c as usize])
        .collect()
}
