//! Quickstart: anonymize a basket dataset end-to-end and inspect the
//! release.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cahd::prelude::*;

fn main() {
    // 1. Get data. Real deployments load a `.dat` file
    //    (`cahd::data::io::read_dat_file`); here we synthesize a
    //    BMS-WebView-1-like sample: ~3k transactions over 497 items.
    let data = cahd::data::profiles::bms1_like(0.05, 42);
    let stats = DatasetStats::compute(&data);
    println!("dataset: {stats}");

    // 2. Declare which items are privacy-sensitive. `select_random` mimics
    //    the paper's evaluation setup; real deployments pass an explicit
    //    item list to `SensitiveSet::new`.
    let mut rng = rand_seed(7);
    let sensitive =
        SensitiveSet::select_random(&data, 10, 20, &mut rng).expect("enough low-support items");
    println!("sensitive items: {:?}", sensitive.items());

    // 3. Anonymize with privacy degree p = 10: no transaction can be linked
    //    to a sensitive item with probability above 1/10.
    let p = 10;
    let result = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sensitive, &Recorder::disabled())
        .expect("feasible: sensitive supports are bounded");

    println!(
        "anonymized into {} groups in {:.3}s (RCM {:.3}s + grouping {:.3}s)",
        result.published.n_groups(),
        result.total_time.as_secs_f64(),
        result.rcm_time.as_secs_f64(),
        result.cahd_stats.elapsed.as_secs_f64(),
    );
    if let Some(band) = &result.band {
        let stats = band.band_stats(data.matrix());
        println!(
            "band reorganization: mean row span {:.1} -> {:.1}",
            stats.before.mean_row_span, stats.after.mean_row_span
        );
    }

    // 4. Verify the release independently of the algorithm.
    verify_published(&data, &sensitive, &result.published, p).expect("release is valid");
    println!(
        "verified: privacy degree {:?} (required {p})",
        result.published.privacy_degree()
    );

    // 5. Inspect one group: exact QID rows, summarized sensitive items.
    let group = result
        .published
        .groups
        .iter()
        .find(|g| !g.sensitive_counts.is_empty())
        .expect("some group has sensitive items");
    println!(
        "example group: {} members, sensitive summary {:?}, first QID row {:?}",
        group.size(),
        group.sensitive_counts,
        group.qid_rows.row(0)
    );

    // 6. Measure utility: how well can an analyst reconstruct the
    //    distribution of a sensitive item over QID patterns?
    let queries = generate_workload_seeded(&data, &sensitive, 4, 100, 99);
    let summary = evaluate_workload(&data, &result.published, &queries);
    println!(
        "reconstruction error over {} queries: mean KL {:.4}, median {:.4}",
        summary.n_queries, summary.mean_kl, summary.median_kl
    );
}
