//! Helpers shared by the `cahd-rcm` integration suites: the Fig. 4
//! oracle ([`fig4`]), adjacency lists for it, and the thread-count sweep.

// Each suite uses a different subset of these helpers.
#![allow(dead_code)]

pub mod fig4;

use cahd_sparse::{CsrMatrix, Graph, Permutation};

/// `base` plus an optional extra thread count from `CAHD_TEST_THREADS`
/// (set by the CI matrix jobs).
pub fn thread_counts(base: &[usize]) -> Vec<usize> {
    let mut counts = base.to_vec();
    if let Ok(v) = std::env::var("CAHD_TEST_THREADS") {
        if let Ok(extra) = v.trim().parse::<usize>() {
            if extra >= 1 && !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

/// The oracle's adjacency list of an explicit graph.
pub fn adjacency(g: &Graph) -> Vec<Vec<u32>> {
    (0..g.n_vertices())
        .map(|v| g.neighbors(v).to_vec())
        .collect()
}

/// The adjacency list of `A x A^T` computed pair by pair from the rows:
/// two rows are adjacent iff they share an item.
pub fn aat_adjacency(a: &CsrMatrix) -> Vec<Vec<u32>> {
    let n = a.n_rows();
    (0..n)
        .map(|i| {
            (0..n as u32)
                .filter(|&j| {
                    j as usize != i && CsrMatrix::intersection_len(a.row(i), a.row(j as usize)) > 0
                })
                .collect()
        })
        .collect()
}

/// Whether every connected component of `g` occupies a contiguous range
/// of positions under `p`.
pub fn components_contiguous(g: &Graph, p: &Permutation) -> bool {
    let (comp, k) = g.connected_components();
    let mut lo = vec![usize::MAX; k];
    let mut hi = vec![0usize; k];
    let mut size = vec![0usize; k];
    for (v, &cv) in comp.iter().enumerate() {
        let c = cv as usize;
        let pos = p.old_to_new(v);
        lo[c] = lo[c].min(pos);
        hi[c] = hi[c].max(pos);
        size[c] += 1;
    }
    (0..k).all(|c| size[c] == 0 || hi[c] - lo[c] + 1 == size[c])
}
