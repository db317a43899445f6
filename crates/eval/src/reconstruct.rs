//! Actual and estimated PDFs of a sensitive item over query cells.
//!
//! *Actual* (from the original data): the fraction of `s`'s occurrences
//! falling into each cell. *Estimated* (from the published groups): eq. (2)
//! of the paper — within a group `G` holding `a` occurrences of `s`, each
//! member matching a cell contributes `a / |G|` expected occurrences,
//! because every assignment of the permuted sensitive items to members is
//! equally likely.
//!
//! [`actual_pdf`] and [`estimated_pdf`] answer one query by scanning every
//! row; they are the literal reference. A workload answers all its queries
//! from one [`WorkloadIndex`] instead, with bit-identical results.

use cahd_core::PublishedDataset;
use cahd_data::{ItemId, TransactionSet};
use cahd_sparse::{ColumnSpace, CsrMatrix, Relabel};

use crate::cells::{cell_of, n_cells};
use crate::query::GroupByQuery;

/// The actual PDF of `query.sensitive` over the query's cells, computed
/// from the original data. Returns `None` when the sensitive item never
/// occurs (the PDF is undefined).
pub fn actual_pdf(data: &TransactionSet, query: &GroupByQuery) -> Option<Vec<f64>> {
    let mut counts = vec![0u64; n_cells(query.r())];
    let mut total = 0u64;
    for txn in data.iter() {
        if txn.binary_search(&query.sensitive).is_ok() {
            counts[cell_of(txn, &query.qid) as usize] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return None;
    }
    Some(counts.iter().map(|&c| c as f64 / total as f64).collect())
}

/// The estimated PDF of `query.sensitive` over the query's cells, computed
/// from the published groups via eq. (2). Returns `None` when the item
/// never occurs in the release.
///
/// Published QID rows contain no sensitive items, so the query's QID items
/// are matched directly against them; the caller must not put sensitive
/// items into the group-by list ([`GroupByQuery::new`] enforces the queried
/// sensitive item, and the workload generator excludes all of `S`).
pub fn estimated_pdf(published: &PublishedDataset, query: &GroupByQuery) -> Option<Vec<f64>> {
    let nc = n_cells(query.r());
    let mut est = vec![0f64; nc];
    let mut total = 0u64;
    let mut b = vec![0u64; nc];
    for group in &published.groups {
        let a = group.sensitive_count_of(query.sensitive);
        if a == 0 {
            continue;
        }
        total += a as u64;
        b.iter_mut().for_each(|x| *x = 0);
        for row in &group.qid_rows {
            b[cell_of(row, &query.qid) as usize] += 1;
        }
        let g = group.size() as f64;
        for (e, &bc) in est.iter_mut().zip(&b) {
            *e += a as f64 * bc as f64 / g;
        }
    }
    if total == 0 {
        return None;
    }
    let t = total as f64;
    est.iter_mut().for_each(|e| *e /= t);
    Some(est)
}

/// Postings over one `(data, release)` pair, built once and shared by
/// every query of a workload.
///
/// * Input side: the rows of `data` holding each item, so the actual PDF
///   runs [`cell_of`] over the holders of the sensitive item only.
/// * Release side: item → global release-row ids (rows numbered in
///   release order), the first row of each group, and every group's
///   nonzero `(sensitive item, a)` summary entry in release order.
///
/// A query ORs bit `i` into the cell of every row in the postings of
/// `qid[i]`, then walks the groups holding the sensitive item in release
/// order, counting the touched rows per cell; the untouched rest of a
/// group lands in cell 0. The counts are integers and the eq. (2) float
/// update runs per group in the scan's order, so every PDF is
/// bit-identical to [`actual_pdf`]/[`estimated_pdf`] on a release whose
/// QID rows are strictly ascending. The index reads a row as a set and
/// skips ids outside the data's item universe, which no workload over
/// `data` queries.
pub struct WorkloadIndex<'a> {
    data: &'a TransactionSet,
    /// The data's items, relabeled when its universe is wide for it.
    held: Option<Relabel>,
    /// Item → rows of `data` holding it.
    holders: CsrMatrix,
    /// The items below the data's universe that some release row holds.
    released: Relabel,
    /// Released item → release rows holding it, ascending.
    postings: CsrMatrix,
    /// First release row of each group, plus the total row count.
    group_start: Vec<usize>,
    /// `(sensitive item, group, a)` for every `a > 0`, sorted by item and
    /// then group.
    sensitive_groups: Vec<(ItemId, u32, u32)>,
    /// Per release row, the cell bits set by the current query.
    cell: Vec<u32>,
    /// Rows with a nonzero `cell`.
    touched: Vec<u32>,
    /// Touched rows summed over the queries answered so far.
    rows_touched: u64,
}

impl<'a> WorkloadIndex<'a> {
    /// Indexes `data` and `published`, each in the items it holds.
    pub fn new(data: &'a TransactionSet, published: &PublishedDataset) -> Self {
        let rows: Vec<&[ItemId]> = published
            .groups
            .iter()
            .flat_map(|g| g.qid_rows.iter())
            .collect();
        let (sets, released) = CsrMatrix::from_sets(&rows, data.n_items());
        let ColumnSpace { matrix, relabel } = ColumnSpace::of(data.matrix());
        let mut group_start = Vec::with_capacity(published.groups.len() + 1);
        group_start.push(0);
        let mut sensitive_groups = Vec::new();
        for (gi, g) in published.groups.iter().enumerate() {
            group_start.push(group_start[gi] + g.size());
            sensitive_groups.extend(g.sensitive_counts.iter().filter_map(|&(item, _)| {
                let a = g.sensitive_count_of(item);
                (a > 0).then_some((item, gi as u32, a))
            }));
        }
        // A repeated summary entry reads the same `a` twice.
        sensitive_groups.sort_unstable();
        sensitive_groups.dedup();
        WorkloadIndex {
            data,
            holders: matrix.transpose(),
            held: relabel,
            released,
            postings: sets.transpose(),
            cell: vec![0; rows.len()],
            group_start,
            sensitive_groups,
            touched: Vec::new(),
            rows_touched: 0,
        }
    }

    /// The actual and estimated PDFs of `query`, or `None` when the
    /// sensitive item never occurs in the data or in the release (the same
    /// verdicts as [`actual_pdf`] and [`estimated_pdf`]).
    pub fn pdfs(&mut self, query: &GroupByQuery) -> Option<(Vec<f64>, Vec<f64>)> {
        let act = self.actual_pdf(query)?;
        let est = self.estimated_pdf(query)?;
        Some((act, est))
    }

    /// Release rows touched by the queries answered so far: the rows
    /// holding at least one of a query's QID items, summed over the
    /// queries whose sensitive item occurs in both the data and the
    /// release.
    pub fn rows_touched(&self) -> u64 {
        self.rows_touched
    }

    fn actual_pdf(&self, query: &GroupByQuery) -> Option<Vec<f64>> {
        let mut counts = vec![0u64; n_cells(query.r())];
        let s = self
            .held
            .as_ref()
            .map_or(Some(query.sensitive), |r| r.rank(query.sensitive));
        let holders = match s.filter(|&s| (s as usize) < self.holders.n_rows()) {
            Some(s) => self.holders.row(s as usize),
            None => &[],
        };
        if holders.is_empty() {
            return None;
        }
        for &t in holders {
            counts[cell_of(self.data.transaction(t as usize), &query.qid) as usize] += 1;
        }
        let total = holders.len() as f64;
        Some(counts.iter().map(|&c| c as f64 / total).collect())
    }

    fn estimated_pdf(&mut self, query: &GroupByQuery) -> Option<Vec<f64>> {
        let nc = n_cells(query.r());
        let lo = self
            .sensitive_groups
            .partition_point(|&(item, _, _)| item < query.sensitive);
        let hi = lo
            + self.sensitive_groups[lo..].partition_point(|&(item, _, _)| item == query.sensitive);
        if lo == hi {
            return None;
        }
        for (bit, &item) in query.qid.iter().enumerate() {
            let Some(i) = self.released.rank(item) else {
                continue;
            };
            for &row in self.postings.row(i as usize) {
                let cell = &mut self.cell[row as usize];
                if *cell == 0 {
                    self.touched.push(row);
                }
                *cell |= 1 << bit;
            }
        }
        self.touched.sort_unstable();

        let mut est = vec![0f64; nc];
        let mut total = 0u64;
        let mut b = vec![0u64; nc];
        let mut next = 0usize;
        for &(_, g, a) in &self.sensitive_groups[lo..hi] {
            let (start, end) = (
                self.group_start[g as usize],
                self.group_start[g as usize + 1],
            );
            total += a as u64;
            b.fill(0);
            next += self.touched[next..].partition_point(|&r| (r as usize) < start);
            let first = next;
            while next < self.touched.len() && (self.touched[next] as usize) < end {
                b[self.cell[self.touched[next] as usize] as usize] += 1;
                next += 1;
            }
            b[0] += (end - start - (next - first)) as u64;
            let g = (end - start) as f64;
            for (e, &bc) in est.iter_mut().zip(&b) {
                *e += a as f64 * bc as f64 / g;
            }
        }
        for &row in &self.touched {
            self.cell[row as usize] = 0;
        }
        self.rows_touched += self.touched.len() as u64;
        self.touched.clear();

        let t = total as f64;
        est.iter_mut().for_each(|e| *e /= t);
        Some(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::AnonymizedGroup;
    use cahd_data::SensitiveSet;

    /// The paper's Fig. 2 scenario: pregnancy test (item 4) over cream
    /// (item 2) and meat (item 1), with the Fig. 1 data.
    fn fig1() -> (TransactionSet, SensitiveSet) {
        // items: 0 wine, 1 meat, 2 cream, 3 strawberries, 4 preg (S), 5 viagra (S)
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 5], // Bob
                vec![0, 1],    // David
                vec![0, 1, 2], // Ellen
                vec![1, 3],    // Andrea
                vec![2, 3, 4], // Claire
            ],
            6,
        );
        (data, SensitiveSet::new(vec![4, 5], 6))
    }

    fn fig1_published(data: &TransactionSet, sens: &SensitiveSet) -> PublishedDataset {
        // The paper's Fig. 1c groups: {Bob, David, Ellen} and {Andrea, Claire}.
        PublishedDataset {
            n_items: 6,
            sensitive_items: sens.items().to_vec(),
            groups: vec![
                AnonymizedGroup::from_members(data, sens, &[0, 1, 2]),
                AnonymizedGroup::from_members(data, sens, &[3, 4]),
            ],
        }
    }

    #[test]
    fn actual_pdf_matches_fig2() {
        let (data, _) = fig1();
        // query: sensitive 4 (pregnancy) over (cream=2, meat=1)
        let q = GroupByQuery::new(4, vec![2, 1]);
        let act = actual_pdf(&data, &q).unwrap();
        // Claire (cream yes, meat no) is the only occurrence: cell 0b01.
        assert_eq!(act, vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn estimated_pdf_matches_fig2() {
        let (data, sens) = fig1();
        let pub_ = fig1_published(&data, &sens);
        let q = GroupByQuery::new(4, vec![2, 1]);
        let est = estimated_pdf(&pub_, &q).unwrap();
        // Group {Andrea, Claire} has a=1; Andrea -> (cream no, meat yes) =
        // cell 0b10, Claire -> (cream yes, meat no) = cell 0b01; each gets
        // 1 * 1/2 = 0.5, matching the paper's "50%" discussion.
        assert!((est[0b01] - 0.5).abs() < 1e-12);
        assert!((est[0b10] - 0.5).abs() < 1e-12);
        assert_eq!(est[0b00], 0.0);
        assert_eq!(est[0b11], 0.0);
    }

    #[test]
    fn identical_qid_groups_reconstruct_exactly() {
        // If all group members share the same cell, estimation is exact.
        let data = TransactionSet::from_rows(&[vec![0, 3], vec![0], vec![1], vec![1]], 4);
        let sens = SensitiveSet::new(vec![3], 4);
        let pub_ = PublishedDataset {
            n_items: 4,
            sensitive_items: vec![3],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 1]),
                AnonymizedGroup::from_members(&data, &sens, &[2, 3]),
            ],
        };
        let q = GroupByQuery::new(3, vec![0]);
        let act = actual_pdf(&data, &q).unwrap();
        let est = estimated_pdf(&pub_, &q).unwrap();
        assert_eq!(act, est); // both [0, 1]
    }

    #[test]
    fn pdfs_sum_to_one() {
        let (data, sens) = fig1();
        let pub_ = fig1_published(&data, &sens);
        for q in [
            GroupByQuery::new(4, vec![0, 1, 2, 3]),
            GroupByQuery::new(5, vec![2, 3]),
        ] {
            let act: f64 = actual_pdf(&data, &q).unwrap().iter().sum();
            let est: f64 = estimated_pdf(&pub_, &q).unwrap().iter().sum();
            assert!((act - 1.0).abs() < 1e-9, "act sums to {act}");
            assert!((est - 1.0).abs() < 1e-9, "est sums to {est}");
        }
    }

    #[test]
    fn absent_item_gives_none() {
        let (data, sens) = fig1();
        let pub_ = fig1_published(&data, &sens);
        let data2 = TransactionSet::from_rows(&[vec![0]], 6);
        let q = GroupByQuery::new(4, vec![1]);
        assert!(actual_pdf(&data2, &q).is_none());
        let empty_pub = PublishedDataset {
            n_items: 6,
            sensitive_items: vec![4],
            groups: vec![],
        };
        assert!(estimated_pdf(&empty_pub, &q).is_none());
        // sanity: the real ones are Some
        assert!(actual_pdf(&data, &q).is_some());
        assert!(estimated_pdf(&pub_, &q).is_some());
    }
}
