//! One index per attack target, shared by every attacker and every `k`.
//!
//! Every attacker in the suite asks a target the same questions: which
//! rows hold all of these known items, which group owns a row, and what
//! that group discloses. [`TargetIndex`] answers them from structures
//! built once per target — item → row posting lists, the group of each
//! row, each group's posterior table — so a trial costs the postings of
//! its known items instead of a scan over every published row.
//!
//! The attacker's side of the data lives in [`Population`], built once
//! per data set: every transaction split once into its QID items and its
//! sensitive ranks, which is all victim sampling needs.
//!
//! A malformed release is read the way the row-level checks read it. A
//! QID row is a set: a repeated item counts once and order is ignored.
//! Ids outside the data's item universe are skipped, since no victim can
//! know them. A `sensitive_counts` entry naming no member of the
//! sensitive set is dropped from the per-rank tables. It still counts in
//! the group's claim posterior, which it can only raise.

use rand::Rng;

use std::sync::OnceLock;

use cahd_core::PublishedDataset;
use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_sparse::{row_classes, CsrMatrix, Relabel, RowClasses};

/// The attacker's view of the data: each transaction split once into its
/// QID items and the ranks of its sensitive items.
pub struct Population<'a> {
    data: &'a TransactionSet,
    sensitive: &'a SensitiveSet,
    /// The QID items of every transaction, over the data's universe.
    pub(crate) qid: CsrMatrix,
    /// The sensitive ranks of every transaction, over `0..m`.
    ranks: CsrMatrix,
}

impl<'a> Population<'a> {
    /// Splits every transaction of `data` against `sensitive`.
    pub fn new(data: &'a TransactionSet, sensitive: &'a SensitiveSet) -> Self {
        let n = data.n_transactions();
        let mut qid_items = Vec::with_capacity(data.total_items());
        let mut qid_start = Vec::with_capacity(n + 1);
        let mut sens_ranks = Vec::new();
        let mut sens_start = Vec::with_capacity(n + 1);
        qid_start.push(0);
        sens_start.push(0);
        for txn in data.iter() {
            for &item in txn {
                match sensitive.index_of(item) {
                    Some(rank) => sens_ranks.push(rank as u32),
                    None => qid_items.push(item),
                }
            }
            qid_start.push(qid_items.len());
            sens_start.push(sens_ranks.len());
        }
        Population {
            data,
            sensitive,
            qid: CsrMatrix::from_raw_parts(n, data.n_items(), qid_start, qid_items),
            ranks: CsrMatrix::from_raw_parts(n, sensitive.len(), sens_start, sens_ranks),
        }
    }

    /// The underlying data.
    pub fn data(&self) -> &'a TransactionSet {
        self.data
    }

    /// The sensitive set the transactions were split against.
    pub fn sensitive(&self) -> &'a SensitiveSet {
        self.sensitive
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.qid.n_rows()
    }

    /// Whether the data has no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted QID items of transaction `t`.
    pub fn qid(&self, t: usize) -> &[ItemId] {
        self.qid.row(t)
    }

    /// The sensitive ranks of transaction `t`, ascending.
    pub fn sensitive_ranks(&self, t: usize) -> &[u32] {
        self.ranks.row(t)
    }

    /// The victims an attacker knowing `k` items can target: transactions
    /// with a sensitive item and at least `k` QID items, ascending.
    pub fn victims(&self, k: usize) -> Vec<u32> {
        (0..self.len())
            .filter(|&t| self.ranks.row_len(t) > 0 && self.qid.row_len(t) >= k)
            .map(|t| t as u32)
            .collect()
    }

    /// Samples the `k` QID items of victim `v` the attacker knows into
    /// `known`: a partial Fisher–Yates shuffle of the victim's QID items,
    /// one `gen_range` per known item.
    pub fn sample_known<R: Rng + ?Sized>(
        &self,
        v: usize,
        k: usize,
        rng: &mut R,
        known: &mut Vec<ItemId>,
    ) {
        known.clear();
        known.extend_from_slice(self.qid(v));
        for i in 0..k {
            let j = rng.gen_range(i..known.len());
            known.swap(i, j);
        }
        known.truncate(k);
    }
}

/// One attack target, indexed for every attacker: a release, or the raw
/// data read as a release of one-row groups that publish their sensitive
/// items exactly.
pub struct TargetIndex<'a> {
    population: &'a Population<'a>,
    /// Whether the target is a release (`false`: the raw data).
    published: bool,
    /// The group of each row (rows in publication order, transaction
    /// order for raw data); non-decreasing in the row id.
    row_group: Vec<u32>,
    /// Rows per group, `|G|`.
    group_size: Vec<usize>,
    /// Per group, `max f / |G|` over every published count: what the
    /// attacker learns by claiming one of its rows.
    claim_posterior: Vec<f64>,
    /// `(sensitive rank, f)` entries of every group, in published order.
    counts: Vec<(usize, u32)>,
    /// `counts` offsets, one per group plus one.
    counts_start: Vec<usize>,
    /// The items below the data's universe that some row holds: the
    /// index's item space, so nothing is sized by the universe.
    items: Relabel,
    /// Every row read as a set over `items`.
    sets: CsrMatrix,
    /// `sets` transposed: the rows holding each held item, ascending.
    postings: CsrMatrix,
    /// `1 / ln(1 + support)` per held item.
    weight: Vec<f64>,
    /// Non-sensitive items some row holds: what an attacker can
    /// mis-remember.
    qid_universe: Vec<ItemId>,
    /// Rows grouped by set, built on first use.
    classes: OnceLock<RowClasses>,
}

impl<'a> TargetIndex<'a> {
    /// Indexes `published`, or the raw data when it is `None`.
    pub fn new(population: &'a Population<'a>, published: Option<&'a PublishedDataset>) -> Self {
        let sensitive = population.sensitive();
        let mut rows = Vec::new();
        let mut row_group = Vec::new();
        let mut group_size = Vec::new();
        let mut claim_posterior = Vec::new();
        let mut counts = Vec::new();
        let mut counts_start = vec![0];
        match published {
            Some(release) => {
                for (gi, g) in release.groups.iter().enumerate() {
                    let size = g.size() as f64;
                    claim_posterior.push(
                        g.sensitive_counts
                            .iter()
                            .map(|&(_, f)| f as f64 / size)
                            .fold(0.0f64, f64::max),
                    );
                    group_size.push(g.size());
                    counts.extend(
                        g.sensitive_counts
                            .iter()
                            .filter_map(|&(item, f)| sensitive.index_of(item).map(|r| (r, f))),
                    );
                    counts_start.push(counts.len());
                    for row in &g.qid_rows {
                        rows.push(row);
                        row_group.push(gi as u32);
                    }
                }
            }
            None => {
                for t in 0..population.len() {
                    let ranks = population.sensitive_ranks(t);
                    rows.push(population.qid(t));
                    row_group.push(t as u32);
                    group_size.push(1);
                    claim_posterior.push(if ranks.is_empty() { 0.0 } else { 1.0 });
                    counts.extend(ranks.iter().map(|&r| (r as usize, 1)));
                    counts_start.push(counts.len());
                }
            }
        }
        let (sets, items) = CsrMatrix::from_sets(&rows, population.data().n_items());
        let postings = sets.transpose();
        // Every held item has a non-empty posting list.
        let weight: Vec<f64> = postings
            .rows()
            .map(|list| 1.0 / (1.0 + list.len() as f64).ln())
            .collect();
        let qid_universe = items
            .ids()
            .iter()
            .copied()
            .filter(|&i| !sensitive.contains(i))
            .collect();
        TargetIndex {
            population,
            published: published.is_some(),
            row_group,
            group_size,
            claim_posterior,
            counts,
            counts_start,
            items,
            sets,
            postings,
            weight,
            qid_universe,
            classes: OnceLock::new(),
        }
    }

    /// The attacker's view of the data this target was indexed against.
    pub fn population(&self) -> &'a Population<'a> {
        self.population
    }

    /// Whether the target is a release (`false`: the raw data).
    pub fn is_published(&self) -> bool {
        self.published
    }

    /// Number of QID rows.
    pub fn n_rows(&self) -> usize {
        self.row_group.len()
    }

    /// The rows grouped by set: equal sets share a class, and class ids
    /// follow the sets' lexicographic order.
    pub(crate) fn classes(&self) -> &RowClasses {
        self.classes.get_or_init(|| row_classes(&self.sets))
    }

    /// The set of class `c`, in original ids, ascending.
    pub(crate) fn class_items(&self, c: u32) -> impl Iterator<Item = ItemId> + Clone + '_ {
        self.row_set(self.classes().reps[c as usize] as usize)
    }

    /// QID row `r` read as a set: its ids below the data's universe,
    /// ascending, each once.
    pub(crate) fn row_set(&self, r: usize) -> impl Iterator<Item = ItemId> + Clone + '_ {
        self.sets
            .row(r)
            .iter()
            .map(|&j| self.items.ids()[j as usize])
    }

    /// The group owning row `r`.
    pub fn group_of(&self, r: usize) -> usize {
        self.row_group[r] as usize
    }

    /// `max f / |G|` of group `g` (1.0 or 0.0 for a raw transaction).
    pub fn claim_posterior(&self, g: usize) -> f64 {
        self.claim_posterior[g]
    }

    /// The `(sensitive rank, f)` entries group `g` publishes.
    pub fn group_counts(&self, g: usize) -> &[(usize, u32)] {
        &self.counts[self.counts_start[g]..self.counts_start[g + 1]]
    }

    /// Rows holding `item`, ascending (empty outside the universe).
    pub fn postings(&self, item: ItemId) -> &[u32] {
        match self.items.rank(item) {
            Some(s) => self.postings.row(s as usize),
            None => &[],
        }
    }

    /// The scoring weight `1 / ln(1 + support)` of `item` (0 outside the
    /// universe or when no row holds it).
    pub fn weight(&self, item: ItemId) -> f64 {
        self.items
            .rank(item)
            .map_or(0.0, |s| self.weight[s as usize])
    }

    /// Non-sensitive items some row holds, ascending.
    pub fn qid_universe(&self) -> &[ItemId] {
        &self.qid_universe
    }

    /// Writes the rows holding every item of `known` into `out`,
    /// ascending: the smallest posting list, filtered by the others.
    pub fn candidates(&self, known: &[ItemId], out: &mut Vec<u32>) {
        out.clear();
        let Some(&first) = known.iter().min_by_key(|&&i| self.postings(i).len()) else {
            return;
        };
        out.extend_from_slice(self.postings(first));
        for &item in known {
            if out.is_empty() {
                return;
            }
            if item != first {
                let list = self.postings(item);
                out.retain(|r| list.binary_search(r).is_ok());
            }
        }
    }

    /// Adds `b · f / |G|` to `posterior[rank]` for every group holding
    /// `b > 0` of the `candidates` (ascending row ids), in group order
    /// and, within a group, in published order.
    pub fn add_group_posteriors(&self, candidates: &[u32], posterior: &mut [f64]) {
        for run in
            candidates.chunk_by(|&a, &b| self.row_group[a as usize] == self.row_group[b as usize])
        {
            let g = self.row_group[run[0] as usize] as usize;
            let b = run.len();
            for &(rank, f) in self.group_counts(g) {
                posterior[rank] += b as f64 * f as f64 / self.group_size[g] as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::AnonymizedGroup;

    fn setup() -> (TransactionSet, SensitiveSet) {
        let rows = vec![vec![0, 1, 4], vec![1, 2], vec![0, 2, 4], vec![3]];
        (
            TransactionSet::from_rows(&rows, 5),
            SensitiveSet::new(vec![4], 5),
        )
    }

    #[test]
    fn population_splits_and_samples() {
        let (data, sens) = setup();
        let pop = Population::new(&data, &sens);
        assert_eq!(pop.qid(0), &[0, 1]);
        assert_eq!(pop.sensitive_ranks(0), &[0]);
        assert!(pop.sensitive_ranks(1).is_empty());
        assert_eq!(pop.victims(1), vec![0, 2]);
        assert_eq!(pop.victims(3), Vec::<u32>::new());
    }

    #[test]
    fn raw_index_is_one_row_groups() {
        let (data, sens) = setup();
        let pop = Population::new(&data, &sens);
        let idx = TargetIndex::new(&pop, None);
        assert!(!idx.is_published());
        assert_eq!(idx.n_rows(), 4);
        assert_eq!(idx.postings(0), &[0, 2]);
        assert_eq!(
            idx.postings(4),
            &[] as &[u32],
            "sensitive items are not QID"
        );
        assert_eq!(idx.claim_posterior(0), 1.0);
        assert_eq!(idx.claim_posterior(1), 0.0);
        assert_eq!(idx.qid_universe(), &[0, 1, 2, 3]);
        let mut out = Vec::new();
        idx.candidates(&[2, 0], &mut out);
        assert_eq!(out, vec![2]);
    }

    /// The QID rows of `release` in publication order.
    fn release_rows(release: &PublishedDataset) -> Vec<&[ItemId]> {
        release
            .groups
            .iter()
            .flat_map(|g| g.qid_rows.iter())
            .collect()
    }

    /// Checks `postings`, `weight` and `qid_universe` of `idx` against a
    /// scan of `rows`, the rows it indexed, on every id the rows hold and
    /// on `probes`.
    fn assert_matches_row_scan(
        idx: &TargetIndex<'_>,
        rows: &[&[ItemId]],
        n_items: usize,
        probes: &[ItemId],
    ) {
        let sensitive = idx.population().sensitive();
        assert_eq!(idx.n_rows(), rows.len());
        let mut held: Vec<ItemId> = rows
            .iter()
            .flat_map(|row| row.iter().copied())
            .filter(|&i| (i as usize) < n_items)
            .collect();
        held.sort_unstable();
        held.dedup();
        let qid: Vec<ItemId> = held
            .iter()
            .copied()
            .filter(|&i| !sensitive.contains(i))
            .collect();
        assert_eq!(idx.qid_universe(), &qid[..]);
        for &item in held.iter().chain(probes) {
            let want: Vec<u32> = (0..idx.n_rows() as u32)
                .filter(|&r| (item as usize) < n_items && rows[r as usize].contains(&item))
                .collect();
            assert_eq!(idx.postings(item), &want[..], "item {item}");
            let weight = if want.is_empty() {
                0.0
            } else {
                1.0 / (1.0 + want.len() as f64).ln()
            };
            assert_eq!(idx.weight(item).to_bits(), weight.to_bits(), "item {item}");
        }
    }

    #[test]
    fn index_is_sized_by_the_rows_not_the_universe() {
        // A few rows over a 2^31-item universe: a table per universe id
        // would take tens of GB.
        let n_items = 1usize << 31;
        let top = (1u32 << 31) - 1;
        let rows = vec![
            vec![0, 5, 1 << 20, top],
            vec![5, 1 << 30],
            vec![0, 1 << 20, 1 << 30, top],
            vec![7],
        ];
        let probes = [1, 6, (1 << 20) + 1, top - 1, top + 1, u32::MAX];
        let data = TransactionSet::from_rows(&rows, n_items);
        let sens = SensitiveSet::new(vec![top], n_items);
        let pop = Population::new(&data, &sens);
        let raw = TargetIndex::new(&pop, None);
        let qid_rows: Vec<&[ItemId]> = (0..pop.len()).map(|t| pop.qid(t)).collect();
        assert_matches_row_scan(&raw, &qid_rows, n_items, &probes);
        assert_eq!(raw.qid_universe(), &[0, 5, 7, 1 << 20, 1 << 30]);
        let mut group = AnonymizedGroup::from_members(&data, &sens, &[0, 1, 2, 3]);
        // Repeated, unsorted and past-the-universe ids read as sets.
        group
            .qid_rows
            .edit_rows(|rows| rows[3] = vec![1 << 30, 7, 7, u32::MAX, top]);
        let release = PublishedDataset {
            n_items,
            sensitive_items: vec![top],
            groups: vec![group],
        };
        let published = TargetIndex::new(&pop, Some(&release));
        assert_matches_row_scan(&published, &release_rows(&release), n_items, &probes);
        assert_eq!(published.postings(top), &[3]);

        // Seeded release rows (unsorted, repeating, past the universe of
        // 16) against the row scan.
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % n
        };
        let data = TransactionSet::from_rows(&vec![vec![0, 1]; 12], 16);
        let sens = SensitiveSet::new(vec![15], 16);
        let pop = Population::new(&data, &sens);
        for _ in 0..200 {
            let mut group =
                AnonymizedGroup::from_members(&data, &sens, &(0..12).collect::<Vec<u32>>());
            let rows = 1 + next(12) as usize;
            group.qid_rows.edit_rows(|qid_rows| {
                qid_rows.truncate(rows);
                for row in qid_rows {
                    *row = (0..next(6)).map(|_| next(20) as ItemId).collect();
                }
            });
            let release = PublishedDataset {
                n_items: 16,
                sensitive_items: vec![15],
                groups: vec![group],
            };
            let idx = TargetIndex::new(&pop, Some(&release));
            assert_matches_row_scan(&idx, &release_rows(&release), 16, &[16, 19, u32::MAX]);
        }
    }

    #[test]
    fn malformed_release_rows_read_as_sets() {
        let (data, sens) = setup();
        let pop = Population::new(&data, &sens);
        let mut group = AnonymizedGroup::from_members(&data, &sens, &[0, 1, 2, 3]);
        group
            .qid_rows
            .edit_rows(|rows| rows[0] = vec![1, 0, 1, 999, u32::MAX]);
        group.sensitive_counts.push((3, 1)); // not sensitive
        group.sensitive_counts.push((999, 3)); // outside the universe
        let release = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![4],
            groups: vec![group],
        };
        let idx = TargetIndex::new(&pop, Some(&release));
        assert_eq!(idx.postings(1), &[0, 1]);
        assert_eq!(idx.postings(999), &[] as &[u32]);
        assert_eq!(idx.group_counts(0), &[(0, 2)]);
        assert_eq!(idx.claim_posterior(0), 3.0 / 4.0);
        let mut post = vec![0.0];
        let mut out = Vec::new();
        idx.candidates(&[0], &mut out);
        assert_eq!(out, vec![0, 2]);
        idx.add_group_posteriors(&out, &mut post);
        assert_eq!(post, vec![2.0 * 2.0 / 4.0]);
    }
}
