//! Workload-level evaluation: average reconstruction error over a query
//! workload (the paper reports the mean KL divergence over 100 random
//! queries per parameter setting).

use cahd_core::PublishedDataset;
use cahd_data::TransactionSet;

use crate::kl::{kl_divergence, DEFAULT_SMOOTHING};
use crate::query::GroupByQuery;
use crate::reconstruct::WorkloadIndex;

/// Aggregate reconstruction error over a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReconstructionSummary {
    /// Queries that produced a defined KL value.
    pub n_queries: usize,
    /// Queries skipped (sensitive item absent from data or release).
    pub skipped: usize,
    /// Mean KL divergence.
    pub mean_kl: f64,
    /// Median KL divergence.
    pub median_kl: f64,
    /// Maximum KL divergence.
    pub max_kl: f64,
    /// Sample standard deviation of the KL values.
    pub std_kl: f64,
}

impl std::fmt::Display for ReconstructionSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries ({} skipped): mean KL {:.4}, median {:.4}, max {:.4}, std {:.4}",
            self.n_queries, self.skipped, self.mean_kl, self.median_kl, self.max_kl, self.std_kl
        )
    }
}

/// Evaluates a workload of queries against a release, returning KL
/// aggregates. Queries whose sensitive item is absent are skipped.
pub fn evaluate_workload(
    data: &TransactionSet,
    published: &PublishedDataset,
    queries: &[GroupByQuery],
) -> ReconstructionSummary {
    evaluate_workload_traced(data, published, queries, &cahd_obs::Recorder::disabled())
}

/// Like [`evaluate_workload`], recording per-query KL timing into `rec`:
/// the root span `eval` with the child span `eval/index` (building the
/// [`WorkloadIndex`]), the scheduling-invariant counters `eval.queries`
/// (evaluated), `eval.queries_skipped` and `eval.rows_touched` (release
/// rows touched, summed over queries), and the histogram `eval.query_ns`
/// (one observation per evaluated query; its count always equals
/// `eval.queries`).
pub fn evaluate_workload_traced(
    data: &TransactionSet,
    published: &PublishedDataset,
    queries: &[GroupByQuery],
    rec: &cahd_obs::Recorder,
) -> ReconstructionSummary {
    let _span = rec.span("eval");
    let index_span = rec.span("eval/index");
    let mut index = WorkloadIndex::new(data, published);
    drop(index_span);
    let trace_on = rec.is_enabled();
    let mut query_ns = cahd_obs::Histogram::new();
    let mut kls: Vec<f64> = Vec::with_capacity(queries.len());
    let mut skipped = 0usize;
    for q in queries {
        // cahd-lint: allow(L002, reason = "guarded by trace_on; feeds the eval.query_ns histogram only")
        let t0 = trace_on.then(std::time::Instant::now);
        match index.pdfs(q) {
            Some((act, est)) => {
                kls.push(kl_divergence(&act, &est, DEFAULT_SMOOTHING));
                if let Some(t0) = t0 {
                    query_ns.observe(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
            }
            None => skipped += 1,
        }
    }
    if trace_on {
        rec.add("eval.queries", kls.len() as u64);
        rec.add("eval.queries_skipped", skipped as u64);
        rec.add("eval.rows_touched", index.rows_touched());
        rec.record_histogram("eval.query_ns", &query_ns);
    }
    summarize(&mut kls, skipped)
}

/// The per-query KL values of a workload (queries whose sensitive item is
/// absent are skipped). Use with [`crate::bootstrap`] for significance
/// testing of method comparisons; note that skipping can desynchronize
/// pairing — compare methods on the same release-independent workload, where
/// a query is skipped for every method or none.
pub fn workload_kls(
    data: &TransactionSet,
    published: &PublishedDataset,
    queries: &[GroupByQuery],
) -> Vec<Option<f64>> {
    let mut index = WorkloadIndex::new(data, published);
    queries
        .iter()
        .map(|q| {
            index
                .pdfs(q)
                .map(|(act, est)| kl_divergence(&act, &est, DEFAULT_SMOOTHING))
        })
        .collect()
}

/// Average relative error of COUNT queries — the utility metric of the
/// Anatomy line of work, complementing KL divergence. For each query and
/// each *occupied* cell (actual count > 0), the error is
/// `|est - act| / act`; the result averages over all such cells of all
/// queries. Queries whose sensitive item is absent are skipped.
pub fn average_relative_error(
    data: &TransactionSet,
    published: &PublishedDataset,
    queries: &[GroupByQuery],
) -> Option<f64> {
    let mut index = WorkloadIndex::new(data, published);
    let mut total = 0.0;
    let mut n = 0usize;
    for q in queries {
        let Some((act, est)) = index.pdfs(q) else {
            continue;
        };
        for (&a, &e) in act.iter().zip(&est) {
            if a > 0.0 {
                total += (e - a).abs() / a;
                n += 1;
            }
        }
    }
    (n > 0).then(|| total / n as f64)
}

fn summarize(kls: &mut [f64], skipped: usize) -> ReconstructionSummary {
    let n = kls.len();
    if n == 0 {
        return ReconstructionSummary {
            n_queries: 0,
            skipped,
            mean_kl: 0.0,
            median_kl: 0.0,
            max_kl: 0.0,
            std_kl: 0.0,
        };
    }
    kls.sort_by(f64::total_cmp);
    let mean = kls.iter().sum::<f64>() / n as f64;
    let median = if n % 2 == 1 {
        kls[n / 2]
    } else {
        (kls[n / 2 - 1] + kls[n / 2]) / 2.0
    };
    let var = if n > 1 {
        kls.iter().map(|k| (k - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    ReconstructionSummary {
        n_queries: n,
        skipped,
        mean_kl: mean,
        median_kl: median,
        // cahd-lint: allow(L003, reason = "n == 0 early-returned above; kls holds exactly n sorted values")
        max_kl: *kls.last().unwrap(),
        std_kl: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::AnonymizedGroup;
    use cahd_data::SensitiveSet;

    fn setup() -> (
        TransactionSet,
        SensitiveSet,
        PublishedDataset,
        PublishedDataset,
    ) {
        // Item 4 sensitive; cells over item 0. Transactions 0,1 contain
        // item 0; the sensitive occurrence is in transaction 0.
        let data = TransactionSet::from_rows(&[vec![0, 4], vec![0], vec![1], vec![1]], 5);
        let sens = SensitiveSet::new(vec![4], 5);
        // Good grouping: {0,1} (same QID cell), {2,3}.
        let good = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![4],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 1]),
                AnonymizedGroup::from_members(&data, &sens, &[2, 3]),
            ],
        };
        // Bad grouping: {0,2} mixes cells.
        let bad = PublishedDataset {
            n_items: 5,
            sensitive_items: vec![4],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 2]),
                AnonymizedGroup::from_members(&data, &sens, &[1, 3]),
            ],
        };
        (data, sens, good, bad)
    }

    #[test]
    fn good_grouping_beats_bad_grouping() {
        let (data, _, good, bad) = setup();
        let queries = vec![GroupByQuery::new(4, vec![0])];
        let sg = evaluate_workload(&data, &good, &queries);
        let sb = evaluate_workload(&data, &bad, &queries);
        assert_eq!(sg.n_queries, 1);
        assert!(sg.mean_kl < 1e-9, "good mean {}", sg.mean_kl);
        assert!(sb.mean_kl > 0.1, "bad mean {}", sb.mean_kl);
    }

    #[test]
    fn are_distinguishes_groupings() {
        let (data, _, good, bad) = setup();
        let queries = vec![GroupByQuery::new(4, vec![0])];
        let are_good = average_relative_error(&data, &good, &queries).unwrap();
        let are_bad = average_relative_error(&data, &bad, &queries).unwrap();
        assert!(are_good < 1e-9, "good {are_good}");
        assert!(are_bad > 0.3, "bad {are_bad}");
        // Absent item -> no evaluable cells.
        let none = average_relative_error(&data, &good, &[GroupByQuery::new(3, vec![0])]);
        assert!(none.is_none());
    }

    #[test]
    fn skipped_queries_counted() {
        let (data, _, good, _) = setup();
        let queries = vec![
            GroupByQuery::new(4, vec![0]),
            GroupByQuery::new(3, vec![0]), // item 3 never occurs
        ];
        let s = evaluate_workload(&data, &good, &queries);
        assert_eq!(s.n_queries, 1);
        assert_eq!(s.skipped, 1);
    }

    #[test]
    fn summary_statistics() {
        let mut kls = vec![1.0, 3.0, 2.0];
        let s = summarize(&mut kls, 0);
        assert_eq!(s.mean_kl, 2.0);
        assert_eq!(s.median_kl, 2.0);
        assert_eq!(s.max_kl, 3.0);
        assert!((s.std_kl - 1.0).abs() < 1e-12);
    }

    #[test]
    fn workload_kls_aligns_with_queries() {
        let (data, _, good, _) = setup();
        let queries = vec![
            GroupByQuery::new(4, vec![0]),
            GroupByQuery::new(3, vec![0]), // absent -> None
        ];
        let kls = workload_kls(&data, &good, &queries);
        assert_eq!(kls.len(), 2);
        assert!(kls[0].is_some());
        assert!(kls[1].is_none());
    }

    #[test]
    fn traced_evaluation_matches_and_records() {
        let (data, _, good, _) = setup();
        let queries = vec![
            GroupByQuery::new(4, vec![0]),
            GroupByQuery::new(3, vec![0]), // absent -> skipped
        ];
        let rec = cahd_obs::Recorder::new();
        let traced = evaluate_workload_traced(&data, &good, &queries, &rec);
        assert_eq!(traced, evaluate_workload(&data, &good, &queries));
        let report = rec.snapshot();
        assert_eq!(report.counter("eval.queries"), Some(1));
        assert_eq!(report.counter("eval.queries_skipped"), Some(1));
        // Item 0 sits in release rows 0 and 1; the skipped query touches
        // nothing.
        assert_eq!(report.counter("eval.rows_touched"), Some(2));
        let h = report.histogram("eval.query_ns").unwrap();
        assert_eq!(h.count, 1);
        assert!(report.span("eval").is_some());
        assert!(report.span("eval/index").is_some());
        assert!(report.orphan_spans().is_empty());
        assert!(report.consistency_findings().is_empty());
    }

    #[test]
    fn summary_displays() {
        let (data, _, good, _) = setup();
        let s = evaluate_workload(&data, &good, &[GroupByQuery::new(4, vec![0])]);
        assert!(s.to_string().contains("mean KL"));
    }

    #[test]
    fn empty_workload() {
        let (data, _, good, _) = setup();
        let s = evaluate_workload(&data, &good, &[]);
        assert_eq!(s.n_queries, 0);
        assert_eq!(s.mean_kl, 0.0);
    }
}
