//! Integration tests for the beyond-the-paper features, through the facade
//! crate's public surface.

use cahd::core::refine::{intra_group_overlap, refine_groups};
use cahd::core::weighted::{anonymize_weighted, verify_weighted, WeightedSimilarity};
use cahd::eval::attack::{attack_published, attack_raw};
use cahd::prelude::*;
use cahd_data::WeightedTransactionSet;

fn setup() -> (TransactionSet, SensitiveSet) {
    let data = cahd::data::profiles::bms1_like(0.02, 33);
    let mut rng = rand_seed(4);
    let sens = SensitiveSet::select_random(&data, 8, 20, &mut rng).unwrap();
    (data, sens)
}

#[test]
fn attack_bound_holds_through_the_facade() {
    let (data, sens) = setup();
    let p = 10;
    let release = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap()
        .published;
    let mut rng = rand_seed(1);
    let raw = attack_raw(&data, &sens, 2, 1_000, &mut rng).unwrap();
    let mut rng = rand_seed(1);
    let rel = attack_published(&data, &sens, &release, 2, 1_000, &mut rng).unwrap();
    assert!(rel.max_posterior <= 1.0 / p as f64 + 1e-9);
    assert!(rel.mean_true_posterior < raw.mean_true_posterior);
}

#[test]
fn refine_then_verify_then_report() {
    let (data, sens) = setup();
    let p = 10;
    let mut release = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap()
        .published;
    let before = intra_group_overlap(&release);
    refine_groups(&mut release, &data, &sens, p, 2, 2);
    assert!(intra_group_overlap(&release) >= before);
    verify_published(&data, &sens, &release, p).unwrap();
    let report = privacy_report(&release);
    assert!(report.min_privacy_degree.unwrap() >= p);
    assert!(report.max_association_probability <= 1.0 / p as f64 + 1e-12);
}

#[test]
fn weighted_pipeline_through_the_facade() {
    let (data, sens) = setup();
    let rows: Vec<Vec<(ItemId, u32)>> = data
        .iter()
        .enumerate()
        .map(|(t, items)| items.iter().map(|&i| (i, 1 + (t as u32 + i) % 5)).collect())
        .collect();
    let wdata = WeightedTransactionSet::from_rows(&rows, data.n_items());
    let p = 10;
    let (release, _) = anonymize_weighted(
        &wdata,
        &sens,
        &CahdConfig::new(p),
        WeightedSimilarity::MinCount,
        &Recorder::disabled(),
    )
    .unwrap();
    verify_weighted(&wdata, &sens, &release, p).unwrap();
    // Quantities on QID items survive verbatim: the global sum per item
    // matches between original and release.
    let mut orig = vec![0u64; wdata.n_items()];
    for (i, q) in wdata.item_quantities().iter().enumerate() {
        if !sens.contains(i as u32) {
            orig[i] = *q;
        }
    }
    let mut published = vec![0u64; wdata.n_items()];
    for g in &release.groups {
        for row in &g.qid_rows {
            for &(item, c) in row {
                published[item as usize] += c as u64;
            }
        }
    }
    assert_eq!(orig, published);
}

#[test]
fn streaming_composes_with_mining() {
    use cahd::eval::mining::published_qid_support;
    let (data, sens) = setup();
    let p = 5;
    let mut s =
        StreamingAnonymizer::new(AnonymizerConfig::with_privacy_degree(p), sens.clone(), 200);
    let mut chunks = Vec::new();
    for t in 0..data.n_transactions() {
        if let Some(c) = s.push(data.transaction(t).to_vec()).unwrap() {
            chunks.push(c);
        }
    }
    if let Some(c) = s.finish().unwrap() {
        chunks.push(c);
    }
    assert!(chunks.len() >= 2);
    // A QID itemset's support summed over chunk releases equals its global
    // support (chunks partition the stream; QID publishing is lossless).
    let supports = data.item_supports();
    let top_item = (0..data.n_items() as u32)
        .filter(|&i| !sens.contains(i))
        .max_by_key(|&i| supports[i as usize])
        .unwrap();
    let global = supports[top_item as usize];
    let summed: usize = chunks
        .iter()
        .map(|c| published_qid_support(&c.published, &[top_item]))
        .sum();
    assert_eq!(global, summed);
}

#[test]
fn cahd_beats_pm_with_bootstrap_significance() {
    use cahd::eval::bootstrap::paired_bootstrap_less;
    use cahd::eval::workload_kls;
    // Paper-style comparison with statistical teeth: paired per-query KL,
    // one-sided bootstrap test at p < 0.05.
    // Scale 0.1 is where the comparison stabilizes: at 0.05 individual
    // seeds can flip (see EXPERIMENTS.md on small-scale noise); at 0.1+
    // CAHD wins with p < 1e-3 across seeds.
    let data = cahd::data::profiles::bms1_like(0.1, 77);
    let mut rng = rand_seed(6);
    let sens = SensitiveSet::select_random(&data, 10, 20, &mut rng).unwrap();
    let p = 10;
    let cahd_rel = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap()
        .published;
    let (pm_rel, _) = perm_mondrian(&data, &sens, &cahd::baselines::PmConfig::new(p)).unwrap();
    let queries = generate_workload_seeded(&data, &sens, 4, 200, 17);
    let kl_cahd = workload_kls(&data, &cahd_rel, &queries);
    let kl_pm = workload_kls(&data, &pm_rel, &queries);
    // Keep only queries both releases answered (same sensitive universe, so
    // in practice all of them).
    let (a, b): (Vec<f64>, Vec<f64>) = kl_cahd
        .iter()
        .zip(&kl_pm)
        .filter_map(|(x, y)| Some((((*x)?), ((*y)?))))
        .unzip();
    assert!(a.len() > 100, "workload too small: {}", a.len());
    let mut rng = rand_seed(8);
    let p_value = paired_bootstrap_less(&a, &b, 5_000, &mut rng).unwrap();
    assert!(
        p_value < 0.05,
        "CAHD not significantly better than PM (p = {p_value})"
    );
}
