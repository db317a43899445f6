//! The analyst's workflow the paper motivates: mine patterns from the
//! *published* data and compare with ground truth.
//!
//! Pipeline: synthesize a basket log -> anonymize with CAHD (p = 10) ->
//! mine frequent itemsets on the original data -> check that every
//! QID-only itemset keeps its exact support in the release.
//!
//! ```sh
//! cargo run --release --example mining_workflow
//! ```

use cahd::eval::mining::{published_qid_support, top_k_itemsets};
use cahd::prelude::*;

fn main() {
    let data = cahd::data::profiles::bms1_like(0.1, 2024);
    println!("log: {}", DatasetStats::compute(&data));

    let mut rng = rand_seed(3);
    let sensitive = SensitiveSet::select_random(&data, 10, 20, &mut rng).unwrap();
    let p = 10;
    let release = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sensitive, &Recorder::disabled())
        .unwrap()
        .published;
    verify_published(&data, &sensitive, &release, p).unwrap();
    println!("anonymized into {} groups at p = {p}\n", release.n_groups());

    // --- Frequent itemsets: QID-only patterns are preserved verbatim.
    let top = top_k_itemsets(&data, 15, 2, 3);
    println!("top itemsets (len >= 2): support original = published?");
    let mut preserved = 0;
    for set in &top {
        if set.items.iter().any(|&i| sensitive.contains(i)) {
            continue;
        }
        let pub_support = published_qid_support(&release, &set.items);
        let ok = pub_support == set.support;
        preserved += ok as usize;
        println!(
            "  {:?}: {} = {} {}",
            set.items,
            set.support,
            pub_support,
            if ok { "(exact)" } else { "(MISMATCH!)" }
        );
    }
    println!("-> {preserved} QID itemsets preserved exactly");
}
