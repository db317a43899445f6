//! Clickstream scenario (BMS-WebView-2-like): a high-dimensional, sparse
//! web log where the item universe is large (3,340 pages) and transactions
//! are short — the regime where generalization-based anonymization
//! collapses and CAHD's band-matrix approach shines.
//!
//! Runs a privacy audit: re-identification risk of the raw log (Table II
//! style), then compares the utility of CAHD against PermMondrian and
//! random (Anatomy-style) grouping at several privacy degrees.
//!
//! ```sh
//! cargo run --release --example clickstream_audit
//! ```

use cahd::prelude::*;

fn main() {
    let data = cahd::data::profiles::bms2_like(0.1, 99);
    println!("clickstream log: {}", DatasetStats::compute(&data));

    // --- Step 1: audit the raw log (this is what the paper's Table II
    // quantifies — a handful of known pages re-identifies a visitor).
    println!("\nraw-log re-identification risk:");
    for k in 1..=4 {
        let mut rng = rand_seed(k as u64);
        if let Some(p) = reidentification_probability(&data, None, k, 10_000, &mut rng) {
            println!("  attacker knows {k} page(s): {:5.1}%", p * 100.0);
        }
    }

    // --- Step 2: declare sensitive pages (e.g. health-condition related)
    // and anonymize at increasing privacy degrees.
    let mut rng = rand_seed(5);
    let sensitive =
        SensitiveSet::select_random(&data, 10, 20, &mut rng).expect("eligible items exist");

    println!("\nutility comparison (mean KL over 100 queries, r = 4):");
    println!("{:>4}  {:>8}  {:>8}  {:>8}", "p", "CAHD", "PM", "Random");
    let band = reduce_unsymmetric(
        data.matrix(),
        UnsymOptions::default(),
        &Recorder::disabled(),
    );
    let permuted = data.permute(&band.row_perm);
    for p in [5usize, 10, 20] {
        // CAHD on the band-ordered data.
        let (cahd_pub, _) = cahd(&permuted, &sensitive, &CahdConfig::new(p)).unwrap();
        // Baselines on the raw data.
        let (pm_pub, _) = perm_mondrian(&data, &sensitive, &PmConfig::new(p)).unwrap();
        let rnd_pub = random_grouping(&data, &sensitive, p, 31).unwrap();

        let queries = generate_workload_seeded(&data, &sensitive, 4, 100, 1000 + p as u64);
        // Reconstruction only reads QID rows + summaries, so evaluating the
        // CAHD release against the permuted original is equivalent.
        let kl_cahd = evaluate_workload(&permuted, &cahd_pub, &queries).mean_kl;
        let kl_pm = evaluate_workload(&data, &pm_pub, &queries).mean_kl;
        let kl_rnd = evaluate_workload(&data, &rnd_pub, &queries).mean_kl;
        println!("{p:>4}  {kl_cahd:>8.4}  {kl_pm:>8.4}  {kl_rnd:>8.4}");
    }

    // --- Step 3: export the chosen release. Groups carry exact QID rows
    // and per-group sensitive summaries; `strip_members` removes the
    // internal back-references before the data leaves the building.
    let (release, stats) = cahd(&permuted, &sensitive, &CahdConfig::new(10)).unwrap();
    let release = release.strip_members();
    println!(
        "\nfinal release at p = 10: {} groups ({} regular + leftover of {}), {} rollbacks",
        release.n_groups(),
        stats.groups_formed,
        stats.fallback_group_size,
        stats.rollbacks,
    );
    let out = std::env::temp_dir().join("cahd_clickstream_release.dat");
    // Publish the QID rows in plain .dat alongside the group summaries.
    let qid_rows: Vec<Vec<ItemId>> = release
        .groups
        .iter()
        .flat_map(|g| g.qid_rows.iter().map(<[ItemId]>::to_vec))
        .collect();
    let qid_data = TransactionSet::from_rows(&qid_rows, release.n_items);
    cahd::data::io::write_dat_file(&out, &qid_data).expect("writable temp dir");
    println!("QID rows written to {}", out.display());
}
