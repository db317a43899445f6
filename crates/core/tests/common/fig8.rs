//! The paper's Figs. 7/8 (CAHD group formation), transcribed literally:
//! the one grouping reference every production path is checked against.
//! It shares no code with `cahd_core::cahd`, its kernels or its split;
//! the release it describes is spelled out field by field.
//!
//! The input is the band-ordered rows (each sorted, without repeats), the
//! sensitive items, the privacy degree `p` and the candidate factor `α`.
//!
//! 1. `H[s]` counts the occurrences of every sensitive item `s`, and
//!    `remaining` the transactions not yet grouped (Fig. 8 line 1).
//! 2. Each ungrouped transaction `t` that holds a sensitive item, in band
//!    order, is a pivot:
//!    1. its candidate list `CL(t)` takes up to `α·p` predecessors, nearest
//!       first, then up to `α·p` successors, skipping grouped ones and
//!       every *conflicting* one: a transaction that holds a sensitive item
//!       already held by `t` or by a candidate taken before it (Fig. 7);
//!    2. with fewer than `p − 1` candidates, `t` is skipped;
//!    3. otherwise `G` is `t` plus the `p − 1` candidates sharing the most
//!       QID items with `t`; equal overlaps go to the candidate nearer to
//!       `t` in band order, then to the earlier one;
//!    4. `G`'s sensitive occurrences leave `H`. If some `H[s]·p` then
//!       exceeds `remaining − p`, the group is rolled back (Fig. 8 line
//!       11); else it is formed and `remaining` falls by `p`.
//! 3. Every transaction still ungrouped forms one final group.

use cahd_core::{AnonymizedGroup, FlatRows, PublishedDataset};

/// What the oracle produced: the groups in band positions plus the run
/// counters it can state without reference to how an engine scores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fig8 {
    /// Groups of band positions, ascending within each group, in the
    /// order they formed; the final group of the leftovers last, when
    /// there are any.
    pub groups: Vec<Vec<usize>>,
    /// Groups of size `p` formed.
    pub formed: usize,
    /// Groups rolled back by the histogram test.
    pub rollbacks: usize,
    /// Pivots skipped for lack of `p − 1` candidates.
    pub short_lists: usize,
    /// Candidates whose overlap with a pivot was computed.
    pub scored: u64,
    /// Size of the final group (0 when everything was grouped).
    pub leftover: usize,
}

/// Runs Figs. 7/8 over the band-ordered `rows`.
pub fn fig8(rows: &[Vec<u32>], sensitive: &[u32], p: usize, alpha: usize) -> Fig8 {
    let n = rows.len();
    let sens_of = |t: usize| -> Vec<u32> {
        rows[t]
            .iter()
            .copied()
            .filter(|i| sensitive.contains(i))
            .collect()
    };
    let qid_of = |t: usize| -> Vec<u32> {
        rows[t]
            .iter()
            .copied()
            .filter(|i| !sensitive.contains(i))
            .collect()
    };
    let overlap = |a: &[u32], b: &[u32]| a.iter().filter(|i| b.contains(i)).count();

    let mut h: Vec<usize> = sensitive
        .iter()
        .map(|s| rows.iter().filter(|row| row.contains(s)).count())
        .collect();
    let slot = |s: u32| sensitive.iter().position(|&x| x == s).unwrap();
    let mut grouped = vec![false; n];
    let mut remaining = n;
    let mut out = Fig8 {
        groups: Vec::new(),
        formed: 0,
        rollbacks: 0,
        short_lists: 0,
        scored: 0,
        leftover: 0,
    };

    for t in 0..n {
        if grouped[t] || sens_of(t).is_empty() {
            continue;
        }
        // Fig. 7: the candidate list.
        let mut held = sens_of(t);
        let mut cl: Vec<usize> = Vec::new();
        let predecessors: Vec<usize> = (0..t).rev().collect();
        let successors: Vec<usize> = (t + 1..n).collect();
        for side in [predecessors, successors] {
            let mut taken = 0;
            for c in side {
                if taken == alpha * p {
                    break;
                }
                if grouped[c] {
                    continue;
                }
                let sc = sens_of(c);
                if sc.iter().any(|s| held.contains(s)) {
                    continue;
                }
                held.extend(sc);
                cl.push(c);
                taken += 1;
            }
        }
        if cl.len() < p - 1 {
            out.short_lists += 1;
            continue;
        }
        // Fig. 8: the p − 1 most similar candidates.
        out.scored += cl.len() as u64;
        let qt = qid_of(t);
        cl.sort_by_key(|&c| {
            (
                std::cmp::Reverse(overlap(&qt, &qid_of(c))),
                c.abs_diff(t),
                c,
            )
        });
        let mut g: Vec<usize> = vec![t];
        g.extend_from_slice(&cl[..p - 1]);
        g.sort_unstable();
        for &m in &g {
            for s in sens_of(m) {
                h[slot(s)] -= 1;
            }
        }
        if h.iter().any(|&c| c * p > remaining - p) {
            for &m in &g {
                for s in sens_of(m) {
                    h[slot(s)] += 1;
                }
            }
            out.rollbacks += 1;
        } else {
            for &m in &g {
                grouped[m] = true;
            }
            remaining -= p;
            out.groups.push(g);
            out.formed += 1;
        }
    }
    let rest: Vec<usize> = (0..n).filter(|&t| !grouped[t]).collect();
    out.leftover = rest.len();
    if !rest.is_empty() {
        out.groups.push(rest);
    }
    out
}

/// The release of `groups` (band positions of `rows`): every member's QID
/// row as it stands, the group's sensitive counts by item, and member ids
/// `original(position)`.
pub fn release(
    rows: &[Vec<u32>],
    sensitive: &[u32],
    n_items: usize,
    groups: &[Vec<usize>],
    original: impl Fn(usize) -> u32,
) -> PublishedDataset {
    let groups = groups
        .iter()
        .map(|g| AnonymizedGroup {
            members: g.iter().map(|&t| original(t)).collect(),
            qid_rows: FlatRows::from_rows(
                &g.iter()
                    .map(|&t| {
                        rows[t]
                            .iter()
                            .copied()
                            .filter(|i| !sensitive.contains(i))
                            .collect()
                    })
                    .collect::<Vec<_>>(),
            ),
            sensitive_counts: sensitive
                .iter()
                .map(|&s| {
                    (
                        s,
                        g.iter().filter(|&&t| rows[t].contains(&s)).count() as u32,
                    )
                })
                .filter(|&(_, c)| c > 0)
                .collect(),
        })
        .collect();
    PublishedDataset {
        n_items,
        sensitive_items: sensitive.to_vec(),
        groups,
    }
}
