//! Anonymized groups and the published (permutation-style) dataset.
//!
//! Following Anatomy-style publishing (paper Section II-A), each group
//! releases the *exact* QID item set of every member, plus only a frequency
//! summary of the sensitive items that occur in the group (Fig. 1c of the
//! paper). The probability of associating a member with a sensitive item
//! occurring `f` times in a group of size `g` is `f / g`, so the group
//! offers privacy degree `min_s g / f_s`.

use serde::{Deserialize, Serialize};

use cahd_data::{ItemId, SensitiveSet, TransactionSet};

use crate::invariant::{strict_invariant, strict_invariant_eq};
use crate::split::FlatRows;

/// One anonymized group: exact QID rows plus a sensitive-item frequency
/// summary.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnonymizedGroup {
    /// Original transaction indices of the members, in group order.
    ///
    /// Retained for verification and evaluation; a real data release would
    /// strip this field (see [`PublishedDataset::strip_members`]).
    pub members: Vec<u32>,
    /// Published QID item sets, aligned with `members`: one flat array of
    /// items and one of row offsets for the whole group.
    pub qid_rows: FlatRows,
    /// `(sensitive item, occurrence count)` pairs, sorted by item id;
    /// counts are always >= 1.
    pub sensitive_counts: Vec<(ItemId, u32)>,
}

impl AnonymizedGroup {
    /// Builds the published form of a group directly from original
    /// transaction indices: exact QID rows plus the sensitive frequency
    /// summary. Used by the baselines and by custom grouping strategies.
    pub fn from_members(data: &TransactionSet, sensitive: &SensitiveSet, members: &[u32]) -> Self {
        let qid = |mt: usize| {
            data.transaction(mt)
                .iter()
                .copied()
                .filter(|&item| !sensitive.contains(item))
        };
        let nnz = members.iter().map(|&mt| qid(mt as usize).count()).sum();
        AnonymizedGroup::assemble(members.to_vec(), sensitive, nnz, |mt, counts| {
            for r in sensitive.ranks(data.transaction(mt)) {
                counts[r] += 1;
            }
            qid(mt)
        })
    }

    /// The group of `members`, in one pass over them: `row(member,
    /// counts)` returns the member's published QID row and adds one to
    /// `counts[r]` for each of its sensitive ranks `r`. The rows, `nnz`
    /// items in all, go into one [`FlatRows`] of exactly that size.
    pub(crate) fn assemble<R: IntoIterator<Item = ItemId>>(
        members: Vec<u32>,
        sensitive: &SensitiveSet,
        nnz: usize,
        mut row: impl FnMut(usize, &mut [u32]) -> R,
    ) -> Self {
        let mut counts = vec![0u32; sensitive.len()];
        let mut qid_rows = FlatRows::with_capacity(members.len(), nnz);
        for &mt in &members {
            qid_rows.push_row(row(mt as usize, &mut counts));
        }
        let sensitive_counts: Vec<(ItemId, u32)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(r, &c)| (sensitive.items()[r], c))
            .collect();
        strict_invariant_eq!(
            qid_rows.len(),
            members.len(),
            "one published QID row per member"
        );
        strict_invariant_eq!(qid_rows.nnz(), nnz, "the rows fill the capacity given");
        strict_invariant!(
            sensitive_counts.windows(2).all(|w| w[0].0 < w[1].0),
            "sensitive summary must be sorted by item id"
        );
        AnonymizedGroup {
            members,
            qid_rows,
            sensitive_counts,
        }
    }

    /// Number of transactions in the group.
    #[inline]
    pub fn size(&self) -> usize {
        self.qid_rows.len()
    }

    /// The largest sensitive-item occurrence count (0 if the group has no
    /// sensitive items).
    pub fn max_sensitive_count(&self) -> u32 {
        self.sensitive_counts
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    }

    /// The group's privacy degree `min_s |G| / f_s`, or `None` when the
    /// group contains no sensitive items (unbounded privacy).
    pub fn privacy_degree(&self) -> Option<usize> {
        let max = self.max_sensitive_count();
        if max == 0 {
            None
        } else {
            Some(self.size() / max as usize)
        }
    }

    /// Whether the group satisfies privacy degree `p`
    /// (`f_s * p <= |G|` for every sensitive item).
    pub fn satisfies(&self, p: usize) -> bool {
        let g = self.size();
        self.sensitive_counts
            .iter()
            .all(|&(_, f)| (f as usize) * p <= g)
    }

    /// Occurrence count of a specific sensitive item in this group.
    pub fn sensitive_count_of(&self, item: ItemId) -> u32 {
        self.sensitive_counts
            .binary_search_by_key(&item, |&(i, _)| i)
            .map(|idx| self.sensitive_counts[idx].1)
            .unwrap_or(0)
    }
}

/// A complete anonymized release: disjoint groups covering the dataset.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublishedDataset {
    /// Size of the item universe.
    pub n_items: usize,
    /// The sensitive item ids (sorted).
    pub sensitive_items: Vec<ItemId>,
    /// The anonymized groups.
    pub groups: Vec<AnonymizedGroup>,
}

impl PublishedDataset {
    /// Total number of published transactions.
    pub fn n_transactions(&self) -> usize {
        self.groups.iter().map(AnonymizedGroup::size).sum()
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The privacy degree of the whole release: the minimum group degree,
    /// or `None` if no group contains a sensitive item.
    pub fn privacy_degree(&self) -> Option<usize> {
        self.groups
            .iter()
            .filter_map(AnonymizedGroup::privacy_degree)
            .min()
    }

    /// Whether every group satisfies privacy degree `p`.
    pub fn satisfies(&self, p: usize) -> bool {
        self.groups.iter().all(|g| g.satisfies(p))
    }

    /// Total occurrences of a sensitive item across all groups.
    pub fn total_sensitive_count(&self, item: ItemId) -> u32 {
        self.groups.iter().map(|g| g.sensitive_count_of(item)).sum()
    }

    /// Removes the member back-references, producing the form that would
    /// actually be released.
    pub fn strip_members(mut self) -> PublishedDataset {
        for g in &mut self.groups {
            g.members.clear();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(size: usize, counts: &[(ItemId, u32)]) -> AnonymizedGroup {
        AnonymizedGroup {
            members: (0..size as u32).collect(),
            qid_rows: FlatRows::from_rows(&vec![vec![]; size]),
            sensitive_counts: counts.to_vec(),
        }
    }

    #[test]
    fn privacy_degree_is_min_over_items() {
        let g = group(6, &[(1, 2), (4, 1)]);
        assert_eq!(g.privacy_degree(), Some(3)); // 6/2
        assert!(g.satisfies(3));
        assert!(!g.satisfies(4));
        assert_eq!(g.max_sensitive_count(), 2);
    }

    #[test]
    fn group_without_sensitive_items_is_unbounded() {
        let g = group(2, &[]);
        assert_eq!(g.privacy_degree(), None);
        assert!(g.satisfies(1_000));
    }

    #[test]
    fn sensitive_count_lookup() {
        let g = group(4, &[(2, 1), (7, 3)]);
        assert_eq!(g.sensitive_count_of(7), 3);
        assert_eq!(g.sensitive_count_of(3), 0);
    }

    #[test]
    fn dataset_degree_is_min_group_degree() {
        let d = PublishedDataset {
            n_items: 10,
            sensitive_items: vec![1],
            groups: vec![group(10, &[(1, 2)]), group(4, &[(1, 1)]), group(3, &[])],
        };
        assert_eq!(d.privacy_degree(), Some(4)); // min(5, 4, unbounded)
        assert!(d.satisfies(4));
        assert!(!d.satisfies(5));
        assert_eq!(d.n_transactions(), 17);
        assert_eq!(d.total_sensitive_count(1), 3);
    }

    #[test]
    fn strip_members_clears_back_references() {
        let d = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![],
            groups: vec![group(3, &[])],
        };
        let stripped = d.strip_members();
        assert!(stripped.groups[0].members.is_empty());
        assert_eq!(stripped.groups[0].size(), 3);
    }

    #[test]
    fn all_nonsensitive_dataset_unbounded() {
        let d = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![],
            groups: vec![group(3, &[])],
        };
        assert_eq!(d.privacy_degree(), None);
        assert!(d.satisfies(100));
    }
}
