//! Ablation studies for the design choices called out in DESIGN.md:
//! RCM on/off, candidate-list width, explicit vs implicit `A x A^T`,
//! PM split heuristics.

use cahd::prelude::*;

fn setup() -> (TransactionSet, SensitiveSet) {
    let data = cahd::data::profiles::bms2_like(0.01, 21);
    let mut rng = rand_seed(8);
    let sens = SensitiveSet::select_random(&data, 8, 20, &mut rng).unwrap();
    (data, sens)
}

#[test]
fn rcm_improves_cahd_utility() {
    // On correlated block data, running CAHD without the band
    // reorganization must not beat the full pipeline.
    let mut rows = Vec::new();
    for i in 0..300u32 {
        let block = i % 3;
        let base = block * 15;
        let mut row = vec![base + (i / 3) % 7, base + (i / 3 + 2) % 7, base + 14];
        if i % 30 == block {
            row.push(45 + block);
        }
        rows.push(row);
    }
    let data = TransactionSet::from_rows(&rows, 48);
    let sens = SensitiveSet::new(vec![45, 46, 47], 48);
    let p = 6;

    let with_rcm = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap()
        .published;
    let without_rcm = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p).without_rcm())
        .anonymize(&data, &sens, &Recorder::disabled())
        .unwrap()
        .published;

    let queries: Vec<GroupByQuery> = (0..3)
        .map(|b| GroupByQuery::new(45 + b, vec![b * 15 + 14, b * 15, b * 15 + 2]))
        .collect();
    let kl_with = evaluate_workload(&data, &with_rcm, &queries).mean_kl;
    let kl_without = evaluate_workload(&data, &without_rcm, &queries).mean_kl;
    // The input interleaves the blocks, so order-based grouping without RCM
    // mixes them; RCM separates them.
    assert!(
        kl_with <= kl_without,
        "with rcm {kl_with} should be <= without {kl_without}"
    );
}

#[test]
fn wider_candidate_lists_do_not_hurt_utility_much() {
    let (data, sens) = setup();
    let band = reduce_unsymmetric(
        data.matrix(),
        UnsymOptions::default(),
        &Recorder::disabled(),
    );
    let permuted = data.permute(&band.row_perm);
    let queries = generate_workload_seeded(&data, &sens, 4, 50, 31);
    let mut kls = Vec::new();
    for alpha in [1usize, 3, 5] {
        let (pub_, _) = cahd(&permuted, &sens, &CahdConfig::new(10).with_alpha(alpha)).unwrap();
        kls.push(evaluate_workload(&permuted, &pub_, &queries).mean_kl);
    }
    // Fig. 13's finding: alpha brings modest gains; assert no blow-up in
    // either direction (within 3x of each other).
    let min = kls.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = kls.iter().cloned().fold(0.0f64, f64::max);
    assert!(max <= min * 3.0 + 1e-9, "alpha sweep too unstable: {kls:?}");
}

#[test]
fn explicit_and_implicit_aat_give_identical_pipelines() {
    let (data, sens) = setup();
    let explicit = UnsymOptions {
        edge_budget: usize::MAX,
        ..Default::default()
    };
    let implicit = UnsymOptions {
        edge_budget: 0,
        ..Default::default()
    };
    let red_e = reduce_unsymmetric(data.matrix(), explicit, &Recorder::disabled());
    let red_i = reduce_unsymmetric(data.matrix(), implicit, &Recorder::disabled());
    assert!(red_e.used_explicit_aat);
    assert!(!red_i.used_explicit_aat);
    assert_eq!(
        red_e.row_perm.new_to_old_slice(),
        red_i.row_perm.new_to_old_slice()
    );
    // Identical permutations -> identical releases.
    let (pub_e, _) = cahd(&data.permute(&red_e.row_perm), &sens, &CahdConfig::new(5)).unwrap();
    let (pub_i, _) = cahd(&data.permute(&red_i.row_perm), &sens, &CahdConfig::new(5)).unwrap();
    assert_eq!(pub_e, pub_i);
}

#[test]
fn pm_enhanced_split_forms_no_fewer_groups() {
    // The enhanced heuristic exists to keep splits possible deeper in the
    // recursion; at minimum both variants are valid, and enhanced should
    // not produce grossly coarser partitions.
    let (data, sens) = setup();
    let (enh, enh_stats) = perm_mondrian(&data, &sens, &PmConfig::new(10)).unwrap();
    let plain_cfg = PmConfig {
        enhanced_split: false,
        ..PmConfig::new(10)
    };
    let (plain, plain_stats) = perm_mondrian(&data, &sens, &plain_cfg).unwrap();
    verify_published(&data, &sens, &enh, 10).unwrap();
    verify_published(&data, &sens, &plain, 10).unwrap();
    assert!(
        enh_stats.groups * 2 >= plain_stats.groups,
        "enhanced {} vs plain {}",
        enh_stats.groups,
        plain_stats.groups
    );
}

#[test]
fn proximity_tie_break_is_behavior_preserving_for_privacy() {
    let (data, sens) = setup();
    let band = reduce_unsymmetric(
        data.matrix(),
        UnsymOptions::default(),
        &Recorder::disabled(),
    );
    let permuted = data.permute(&band.row_perm);
    for proximity in [true, false] {
        let cfg = CahdConfig {
            proximity_tie_break: proximity,
            ..CahdConfig::new(10)
        };
        let (pub_, _) = cahd(&permuted, &sens, &cfg).unwrap();
        assert!(pub_.satisfies(10));
    }
}
