//! Non-binary (ratings) data — the paper's future-work direction made
//! concrete.
//!
//! The paper's conclusion points at the Netflix Prize release (movie
//! ratings of 500k subscribers, 80% re-identifiable from 6 known reviews)
//! as the reason transaction anonymization matters beyond binary baskets.
//! This example builds a Netflix-like ratings matrix (1-5 stars), shows the
//! re-identification risk, and publishes it with the weighted CAHD
//! pipeline: exact (item, rating) QID rows, sensitive titles summarized per
//! group.
//!
//! ```sh
//! cargo run --release --example ratings_release
//! ```

use cahd::core::weighted::{anonymize_weighted, verify_weighted, WeightedSimilarity};
use cahd::prelude::*;
use cahd_data::WeightedTransactionSet;

fn main() {
    // --- Build a ratings matrix: 4,000 users over 600 titles. Ratings
    // come from the Quest basket model (which titles a user watches) plus
    // a per-user bias (how generously they rate).
    let pattern = cahd::data::QuestGenerator::new(
        cahd::data::QuestConfig {
            n_transactions: 4_000,
            n_items: 600,
            avg_txn_len: 8.0,
            n_patterns: 80,
            avg_pattern_len: 5.0,
            correlation: 0.6,
            ..Default::default()
        },
        77,
    )
    .generate();
    let mut rng = rand_seed(9);
    let rows: Vec<Vec<(ItemId, u32)>> = (0..pattern.n_transactions())
        .map(|t| {
            let bias = rand::Rng::gen_range(&mut rng, 0..2);
            pattern
                .transaction(t)
                .iter()
                .map(|&title| {
                    let stars = 1 + bias + rand::Rng::gen_range(&mut rng, 0..4).min(3);
                    (title, stars.min(5))
                })
                .collect()
        })
        .collect();
    let ratings = WeightedTransactionSet::from_rows(&rows, 600);
    println!(
        "ratings matrix: {} users, {} titles, {} ratings",
        ratings.n_transactions(),
        ratings.n_items(),
        ratings.pattern().nnz()
    );

    // --- The Narayanan–Shmatikov risk: knowing a handful of titles someone
    // rated re-identifies them (counts ignored — presence alone suffices).
    let binary = ratings.to_binary();
    for k in [2usize, 4, 6] {
        let mut rng = rand_seed(k as u64);
        if let Some(p) = reidentification_probability(&binary, None, k, 10_000, &mut rng) {
            println!(
                "attacker knows {k} rated titles: re-identification {:5.1}%",
                p * 100.0
            );
        }
    }

    // --- Declare "sensitive" titles (say, titles revealing health or
    // political leanings) and anonymize with p = 8.
    let mut rng = rand_seed(31);
    let sensitive = SensitiveSet::select_random(&binary, 8, 10, &mut rng).unwrap();
    let p = 8;
    let (release, stats) = anonymize_weighted(
        &ratings,
        &sensitive,
        &CahdConfig::new(p),
        WeightedSimilarity::MinCount,
        &Recorder::disabled(),
    )
    .expect("support-bounded sensitive titles keep p feasible");
    verify_weighted(&ratings, &sensitive, &release, p).expect("release is valid");
    println!(
        "published {} groups ({} regular, leftover {}), all verified at p = {p}",
        release.groups.len(),
        stats.groups_formed,
        stats.fallback_group_size,
    );

    // --- Ratings on non-sensitive titles are published verbatim: the mean
    // star rating of any ordinary title is exactly preserved.
    let title = ratings
        .item_quantities()
        .iter()
        .enumerate()
        .filter(|&(i, _)| !sensitive.contains(i as u32))
        .max_by_key(|&(_, &q)| q)
        .map(|(i, _)| i as u32)
        .unwrap();
    let mean_orig = mean_rating_original(&ratings, title);
    let mean_pub = mean_rating_published(&release, title);
    println!(
        "most-rated title {title}: mean {mean_orig:.3} stars original, {mean_pub:.3} published (lossless)"
    );

    // --- Sensitive titles: only group-level frequencies are released, so
    // the association of any user with a sensitive title is <= 1/p.
    let worst = release
        .groups
        .iter()
        .flat_map(|g| {
            g.sensitive_counts
                .iter()
                .map(move |&(_, f)| f as f64 / g.size() as f64)
        })
        .fold(0.0f64, f64::max);
    println!(
        "worst sensitive association probability: {worst:.3} (bound 1/{p} = {:.3})",
        1.0 / p as f64
    );
}

fn mean_rating_original(data: &WeightedTransactionSet, title: u32) -> f64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for t in 0..data.n_transactions() {
        let c = data.count_of(t, title);
        if c > 0 {
            sum += c as u64;
            n += 1;
        }
    }
    sum as f64 / n.max(1) as f64
}

fn mean_rating_published(release: &cahd::core::weighted::WeightedPublished, title: u32) -> f64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for g in &release.groups {
        for row in &g.qid_rows {
            if let Ok(k) = row.binary_search_by_key(&title, |&(i, _)| i) {
                sum += row[k].1 as u64;
                n += 1;
            }
        }
    }
    sum as f64 / n.max(1) as f64
}
