//! The workload index against the one-query scans it replaces: on random
//! data and groupings with one large leftover group, every PDF the index
//! answers is bit-identical to `actual_pdf`/`estimated_pdf`, and
//! `workload_kls`/`average_relative_error` equal the per-query scan.

use cahd_core::{AnonymizedGroup, PublishedDataset};
use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_eval::{
    actual_pdf, average_relative_error, estimated_pdf, evaluate_workload, kl_divergence,
    workload_kls, GroupByQuery, WorkloadIndex, DEFAULT_SMOOTHING,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Items of the data's universe; queries also name ids up to
/// `N_ITEMS + 3`, which no row holds.
const N_ITEMS: u32 = 14;

/// A release over `data`: the rows in a random order, cut into small
/// groups of 1 to 4, with a leftover group of at least half the rows last.
fn release(data: &TransactionSet, sensitive: &SensitiveSet, rng: &mut StdRng) -> PublishedDataset {
    let n = data.n_transactions();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let leftover = n.div_ceil(2) + rng.gen_range(0..=n / 2);
    let mut groups = Vec::new();
    let mut at = 0;
    while at < n - leftover {
        let size = rng.gen_range(1..=4usize).min(n - leftover - at);
        groups.push(AnonymizedGroup::from_members(
            data,
            sensitive,
            &order[at..at + size],
        ));
        at += size;
    }
    groups.push(AnonymizedGroup::from_members(data, sensitive, &order[at..]));
    PublishedDataset {
        n_items: data.n_items(),
        sensitive_items: sensitive.items().to_vec(),
        groups,
    }
}

/// A query with a sensitive id that may be absent from both sides or past
/// the universe, and `r` distinct QID items that may be sensitive (so
/// absent from every published row) or past the universe.
fn query(r: usize, rng: &mut StdRng) -> GroupByQuery {
    let sensitive = rng.gen_range(0..N_ITEMS + 3);
    let mut qid: Vec<ItemId> = Vec::with_capacity(r);
    while qid.len() < r {
        let item = rng.gen_range(0..N_ITEMS + 3);
        if item != sensitive && !qid.contains(&item) {
            qid.push(item);
        }
    }
    GroupByQuery::new(sensitive, qid)
}

fn scan_pdfs(
    data: &TransactionSet,
    published: &PublishedDataset,
    q: &GroupByQuery,
) -> Option<(Vec<f64>, Vec<f64>)> {
    match (actual_pdf(data, q), estimated_pdf(published, q)) {
        (Some(act), Some(est)) => Some((act, est)),
        _ => None,
    }
}

fn bits(pdfs: &Option<(Vec<f64>, Vec<f64>)>) -> Option<(Vec<u64>, Vec<u64>)> {
    pdfs.as_ref().map(|(act, est)| {
        (
            act.iter().map(|v| v.to_bits()).collect(),
            est.iter().map(|v| v.to_bits()).collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn index_answers_every_query_like_the_scan(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..N_ITEMS, 0..7), 1..60),
        seed in 0u64..1 << 40,
    ) {
        let data = TransactionSet::from_rows(&rows, N_ITEMS as usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let n_sensitive = rng.gen_range(0..5u32);
        let sensitive = SensitiveSet::new(
            (0..n_sensitive).map(|_| rng.gen_range(0..N_ITEMS)).collect(),
            N_ITEMS as usize,
        );
        let published = release(&data, &sensitive, &mut rng);
        // Most queries ask a sensitive item of the release, so the
        // estimated side runs.
        let queries: Vec<GroupByQuery> = (0..24)
            .map(|i| {
                let mut q = query(i % 7, &mut rng);
                if i % 3 != 0 && !sensitive.items().is_empty() {
                    let s = sensitive.items()[rng.gen_range(0..sensitive.len())];
                    if !q.qid.contains(&s) {
                        q.sensitive = s;
                    }
                }
                q
            })
            .collect();

        let mut index = WorkloadIndex::new(&data, &published);
        for q in &queries {
            let want = scan_pdfs(&data, &published, q);
            prop_assert_eq!(bits(&index.pdfs(q)), bits(&want), "{:?}", q);
        }

        let scan_kls: Vec<Option<u64>> = queries
            .iter()
            .map(|q| {
                scan_pdfs(&data, &published, q)
                    .map(|(a, e)| kl_divergence(&a, &e, DEFAULT_SMOOTHING).to_bits())
            })
            .collect();
        let kls: Vec<Option<u64>> = workload_kls(&data, &published, &queries)
            .into_iter()
            .map(|k| k.map(f64::to_bits))
            .collect();
        prop_assert_eq!(&kls, &scan_kls);
        let summary = evaluate_workload(&data, &published, &queries);
        prop_assert_eq!(summary.n_queries, scan_kls.iter().flatten().count());
        prop_assert_eq!(summary.skipped, queries.len() - summary.n_queries);

        let (mut total, mut n) = (0.0, 0usize);
        for q in &queries {
            if let Some((act, est)) = scan_pdfs(&data, &published, q) {
                for (&a, &e) in act.iter().zip(&est) {
                    if a > 0.0 {
                        total += (e - a).abs() / a;
                        n += 1;
                    }
                }
            }
        }
        let scan_are = (n > 0).then(|| (total / n as f64).to_bits());
        prop_assert_eq!(
            average_relative_error(&data, &published, &queries).map(f64::to_bits),
            scan_are
        );
    }
}
