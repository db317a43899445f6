//! Local-search refinement of anonymized groups.
//!
//! CAHD is greedy: once a group forms, its membership is final. A cheap
//! post-pass can recover some of the utility the greedy pass left behind:
//! try swapping members between *nearby* groups (nearby in release order,
//! which follows the band order, so candidates are already similar) and
//! keep a swap when it increases the total intra-group QID overlap — the
//! same objective CAHD's candidate selection maximizes — without violating
//! the per-group sensitive-frequency bound.
//!
//! Swaps preserve group sizes, and privacy is re-checked explicitly for
//! both groups before a swap is applied, so the refined release satisfies
//! the same degree `p` and re-verifies like any other.

use cahd_data::{ItemId, SensitiveSet, TransactionSet};

use crate::group::{AnonymizedGroup, PublishedDataset};
use crate::invariant::strict_invariant;
use crate::split::FlatRows;

/// Outcome counters of a refinement pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Swaps evaluated.
    pub swaps_tried: usize,
    /// Swaps that improved the objective and were kept.
    pub swaps_applied: usize,
    /// Total objective gain (QID-overlap units).
    pub objective_gain: u64,
    /// Full sweeps over the group sequence.
    pub sweeps: usize,
}

/// The intra-group similarity objective: total pairwise QID overlap
/// within groups, summed over the release. Higher is better; this is the
/// quantity CAHD's candidate selection maximizes greedily.
///
/// Computed without visiting pairs: Σ over row pairs of `|a ∩ b|` equals
/// Σ over items of `C(c, 2)`, where `c` counts the group's rows holding
/// the item. An [`OverlapCounter`] with at most one tally slot per
/// release nonzero does the counting, so the cost is linear in the release's
/// nonzeros and no buffer is sized by an item-id value. Rows are read as
/// sets (a repeated item counts once), which agrees with the pairwise
/// merge on every sorted, duplicate-free row — every release `CAHD-Q001`
/// accepts.
pub fn intra_group_overlap(published: &PublishedDataset) -> u64 {
    // No data universe here: the nonzero count alone caps the tally.
    OverlapCounter::for_release(published, usize::MAX).release(published)
}

/// Counts Σ over items of `C(c, 2)` per group, `c` being the number of the
/// group's rows that hold the item: the intra-group overlap of
/// [`intra_group_overlap`].
///
/// Items below the counter's cap are tallied in one reused slot array
/// (each new holder of an item adds the holders before it, and a touched
/// list resets the slots when the group closes); items at or past the cap
/// are collected and counted by sorting. The cap is the release's nonzero
/// count, lowered to the data's item universe when the caller has one, so
/// the tally is never sized by an id or by an `n_items` read from a
/// release.
#[derive(Debug, Default)]
pub struct OverlapCounter {
    /// Rows of the current group holding each item below the cap.
    counts: Vec<u32>,
    /// Items below the cap the current group has touched.
    touched: Vec<ItemId>,
    /// The current group's items at or past the cap, one per holding row.
    wide: Vec<ItemId>,
    /// Scratch for a row that is not strictly ascending.
    set: Vec<ItemId>,
    /// Σ `C(c, 2)` over the current group's tallied items so far.
    pairs: u64,
}

impl OverlapCounter {
    /// A counter for `published` (and rows of the same data): it tallies
    /// items below `min(n_items, release nonzeros)` in place.
    pub fn for_release(published: &PublishedDataset, n_items: usize) -> Self {
        let nnz: usize = published.groups.iter().map(|g| g.qid_rows.nnz()).sum();
        OverlapCounter {
            counts: vec![0; nnz.min(n_items)],
            ..OverlapCounter::default()
        }
    }

    /// Adds one row of the current group, read as a set: a strictly
    /// ascending row is tallied as it comes, any other is sorted and
    /// deduplicated in a reused buffer first.
    pub fn add_row<I>(&mut self, row: I)
    where
        I: Iterator<Item = ItemId> + Clone,
    {
        let mut prev: Option<ItemId> = None;
        let ascending = row.clone().all(|i| {
            let ok = prev.is_none_or(|p| p < i);
            prev = Some(i);
            ok
        });
        if ascending {
            for item in row {
                self.tally(item);
            }
        } else {
            let mut set = std::mem::take(&mut self.set);
            set.clear();
            set.extend(row);
            set.sort_unstable();
            set.dedup();
            for &item in &set {
                self.tally(item);
            }
            self.set = set;
        }
    }

    #[inline]
    fn tally(&mut self, item: ItemId) {
        match self.counts.get_mut(item as usize) {
            Some(c) => {
                if *c == 0 {
                    self.touched.push(item);
                }
                self.pairs += u64::from(*c);
                *c += 1;
            }
            None => self.wide.push(item),
        }
    }

    /// Closes the current group: returns its Σ `C(c, 2)` and resets the
    /// counter for the next group.
    pub fn finish_group(&mut self) -> u64 {
        for &item in &self.touched {
            self.counts[item as usize] = 0;
        }
        self.touched.clear();
        self.wide.sort_unstable();
        let wide: u64 = self
            .wide
            .chunk_by(|a, b| a == b)
            .map(|run| {
                let c = run.len() as u64;
                c * (c - 1) / 2
            })
            .sum();
        self.wide.clear();
        std::mem::take(&mut self.pairs) + wide
    }

    /// The intra-group overlap of every group of `published`.
    pub fn release(&mut self, published: &PublishedDataset) -> u64 {
        let mut total = 0;
        for g in &published.groups {
            for row in &g.qid_rows {
                self.add_row(row.iter().copied());
            }
            total += self.finish_group();
        }
        total
    }
}

fn overlap(a: &[ItemId], b: &[ItemId]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Sum of a row's overlap with every other row of a group, skipping index
/// `skip` (use `usize::MAX` to include all rows).
fn affinity(rows: &[Vec<ItemId>], row: &[ItemId], skip: usize) -> u64 {
    rows.iter()
        .enumerate()
        .filter(|&(k, _)| k != skip)
        .map(|(_, r)| overlap(row, r))
        .sum()
}

/// Whether replacing the member with transaction `outgoing` by the one
/// with transaction `incoming` keeps every sensitive item within
/// `|G| / p`.
fn swap_keeps_privacy(
    group: &AnonymizedGroup,
    outgoing: &[ItemId],
    incoming: &[ItemId],
    sensitive: &SensitiveSet,
    p: usize,
) -> bool {
    let size = group.size();
    for r in sensitive.ranks(incoming) {
        let item = sensitive.items()[r];
        let current = group.sensitive_count_of(item) as usize;
        let leaving = usize::from(sensitive.ranks(outgoing).any(|o| o == r));
        if (current - leaving + 1) * p > size {
            return false;
        }
    }
    true
}

/// Adjusts a group's sensitive summary for one member leaving (with
/// transaction `out`) and one joining (with transaction `inc`).
fn adjust_counts(
    group: &mut AnonymizedGroup,
    out: &[ItemId],
    inc: &[ItemId],
    sensitive: &SensitiveSet,
) {
    let mut counts: Vec<(ItemId, i64)> = group
        .sensitive_counts
        .iter()
        .map(|&(i, c)| (i, c as i64))
        .collect();
    let bump = |item: ItemId, delta: i64, counts: &mut Vec<(ItemId, i64)>| match counts
        .binary_search_by_key(&item, |&(i, _)| i)
    {
        Ok(k) => counts[k].1 += delta,
        Err(k) => counts.insert(k, (item, delta)),
    };
    for r in sensitive.ranks(out) {
        bump(sensitive.items()[r], -1, &mut counts);
    }
    for r in sensitive.ranks(inc) {
        bump(sensitive.items()[r], 1, &mut counts);
    }
    group.sensitive_counts = counts
        .into_iter()
        .filter(|&(_, c)| c > 0)
        .map(|(i, c)| (i, c as u32))
        .collect();
}

/// Groups larger than this multiple of the typical group are skipped:
/// refinement is quadratic in group size, and the one oversized group a
/// CAHD release can contain (the leftover fallback) would dominate the
/// cost for negligible benefit.
const MAX_REFINE_GROUP: usize = 64;

/// Refines `published` in place by member swaps between nearby groups,
/// returning the pass statistics.
///
/// `window` controls how many following groups each group trades with
/// (1 = immediate neighbor); `max_sweeps` bounds the hill-climbing passes
/// (stops earlier when a sweep makes no progress). `data` provides the
/// per-member sensitive items (the release only stores aggregates).
/// Groups larger than an internal cap (notably CAHD's leftover fallback
/// group) are left untouched.
pub fn refine_groups(
    published: &mut PublishedDataset,
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
    window: usize,
    max_sweeps: usize,
) -> RefineStats {
    let txn = |id: u32| data.transaction(id as usize);
    let mut stats = RefineStats::default();
    // A working copy of each refinable group's rows, so that a swap moves
    // two rows; the groups a swap touched are rebuilt once at the end.
    let mut rows: Vec<Vec<Vec<ItemId>>> = published
        .groups
        .iter()
        .map(|g| {
            if g.size() > MAX_REFINE_GROUP {
                Vec::new()
            } else {
                g.qid_rows.to_rows()
            }
        })
        .collect();
    let mut swapped = vec![false; rows.len()];
    for _ in 0..max_sweeps {
        stats.sweeps += 1;
        let mut improved = false;
        for gi in 0..published.groups.len() {
            for gj in (gi + 1)..(gi + 1 + window).min(published.groups.len()) {
                let (left, right) = published.groups.split_at_mut(gj);
                let ga = &mut left[gi];
                let gb = &mut right[0];
                if ga.size() > MAX_REFINE_GROUP || gb.size() > MAX_REFINE_GROUP {
                    continue;
                }
                let (left, right) = rows.split_at_mut(gj);
                let (rows_a, rows_b) = (&mut left[gi], &mut right[0]);
                let mut best: Option<(i64, usize, usize)> = None;
                for a in 0..rows_a.len() {
                    for b in 0..rows_b.len() {
                        stats.swaps_tried += 1;
                        let row_a = &rows_a[a];
                        let row_b = &rows_b[b];
                        let gain = affinity(rows_a, row_b, a) as i64
                            + affinity(rows_b, row_a, b) as i64
                            - affinity(rows_a, row_a, a) as i64
                            - affinity(rows_b, row_b, b) as i64;
                        if gain <= best.map_or(0, |(g, _, _)| g) {
                            continue;
                        }
                        let (txn_a, txn_b) = (txn(ga.members[a]), txn(gb.members[b]));
                        if swap_keeps_privacy(ga, txn_a, txn_b, sensitive, p)
                            && swap_keeps_privacy(gb, txn_b, txn_a, sensitive, p)
                        {
                            best = Some((gain, a, b));
                        }
                    }
                }
                if let Some((gain, a, b)) = best {
                    let (txn_a, txn_b) = (txn(ga.members[a]), txn(gb.members[b]));
                    std::mem::swap(&mut ga.members[a], &mut gb.members[b]);
                    std::mem::swap(&mut rows_a[a], &mut rows_b[b]);
                    swapped[gi] = true;
                    swapped[gj] = true;
                    adjust_counts(ga, txn_a, txn_b, sensitive);
                    adjust_counts(gb, txn_b, txn_a, sensitive);
                    strict_invariant!(
                        ga.satisfies(p) && gb.satisfies(p),
                        "an applied swap must preserve privacy degree p"
                    );
                    stats.swaps_applied += 1;
                    stats.objective_gain += gain as u64;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    for ((g, rows), swapped) in published.groups.iter_mut().zip(&rows).zip(swapped) {
        if swapped {
            g.qid_rows = FlatRows::from_rows(rows);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_published;

    /// Two groups built badly on purpose: each mixes the two QID blocks.
    fn mixed_release() -> (TransactionSet, SensitiveSet, PublishedDataset) {
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 8], // block A, sensitive
                vec![4, 5],    // block B
                vec![0, 1],    // block A
                vec![4, 5, 9], // block B, sensitive
            ],
            10,
        );
        let sens = SensitiveSet::new(vec![8, 9], 10);
        let published = PublishedDataset {
            n_items: 10,
            sensitive_items: vec![8, 9],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 1]),
                AnonymizedGroup::from_members(&data, &sens, &[2, 3]),
            ],
        };
        (data, sens, published)
    }

    #[test]
    fn refinement_improves_objective_and_stays_private() {
        let (data, sens, mut published) = mixed_release();
        let before = intra_group_overlap(&published);
        assert_eq!(before, 0); // blocks are mixed: zero overlap
        let stats = refine_groups(&mut published, &data, &sens, 2, 1, 5);
        assert!(stats.swaps_applied >= 1, "{stats:?}");
        let after = intra_group_overlap(&published);
        assert!(after > before, "after {after} <= before {before}");
        verify_published(&data, &sens, &published, 2).unwrap();
        // The blocks should now be grouped together.
        let g0: Vec<u32> = published.groups[0].members.clone();
        assert!(g0 == vec![0, 2] || g0 == vec![2, 0] || g0 == vec![1, 3] || g0 == vec![3, 1]);
    }

    #[test]
    fn refinement_never_violates_privacy_bound() {
        // Both sensitive transactions share item 8; putting them in one
        // group would violate p = 2 — the privacy check must block it even
        // if it improved overlap.
        let data =
            TransactionSet::from_rows(&[vec![0, 1, 8], vec![2, 3], vec![0, 1, 8], vec![2, 3]], 10);
        let sens = SensitiveSet::new(vec![8], 10);
        let mut published = PublishedDataset {
            n_items: 10,
            sensitive_items: vec![8],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 1]),
                AnonymizedGroup::from_members(&data, &sens, &[2, 3]),
            ],
        };
        refine_groups(&mut published, &data, &sens, 2, 1, 5);
        verify_published(&data, &sens, &published, 2).unwrap();
    }

    #[test]
    fn already_optimal_release_unchanged() {
        let (data, sens, mut published) = mixed_release();
        refine_groups(&mut published, &data, &sens, 2, 1, 5);
        let snapshot = published.clone();
        let stats = refine_groups(&mut published, &data, &sens, 2, 1, 5);
        assert_eq!(stats.swaps_applied, 0);
        assert_eq!(published, snapshot);
    }

    #[test]
    fn overlap_reads_malformed_rows_as_sets() {
        let published = PublishedDataset {
            n_items: 10,
            sensitive_items: Vec::new(),
            groups: vec![AnonymizedGroup {
                members: vec![0, 1, 2],
                qid_rows: FlatRows::from_rows(&[
                    vec![3, 1, 1],
                    vec![1, 3],
                    vec![u32::MAX, 3, u32::MAX],
                ]),
                sensitive_counts: Vec::new(),
            }],
        };
        // Sets {1,3}, {1,3}, {3,MAX}: 2 + 1 + 1 shared items.
        assert_eq!(intra_group_overlap(&published), 4);
    }

    #[test]
    fn objective_gain_matches_measured_delta() {
        let (data, sens, mut published) = mixed_release();
        let before = intra_group_overlap(&published);
        let stats = refine_groups(&mut published, &data, &sens, 2, 1, 5);
        let after = intra_group_overlap(&published);
        assert_eq!(after - before, stats.objective_gain);
    }

    #[test]
    fn window_zero_is_a_no_op() {
        let (data, sens, mut published) = mixed_release();
        let stats = refine_groups(&mut published, &data, &sens, 2, 0, 5);
        assert_eq!(stats.swaps_tried, 0);
    }
}
