//! The indexed adversary suite against the row-scan oracle.
//!
//! `run_attack_suite` answers every attacker from one `TargetIndex` per
//! target. `common/row_scan.rs` keeps the earlier attackers, which scan
//! every published row on every trial. On every release the workspace
//! publishes, the two must produce the same `AttackReport`, `f64` for
//! `f64`: same RNG streams, same candidates, same summation order.
//!
//! Inputs are duplicate-heavy (most rows copy one of a few pool rows,
//! with or without a sensitive item), so candidate sets span several
//! rows of one group, and the per-group count `b` matters.

mod common;

use cahd_baselines::{perm_mondrian, random_grouping, PmConfig};
use cahd_core::{cahd, CahdConfig, PublishedDataset};
use cahd_data::{SensitiveSet, TransactionSet};
use cahd_eval::{attack_published, attack_raw, run_attack_suite, AttackPlan, AttackTarget};
use cahd_obs::Recorder;
use common::row_scan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const UNIVERSE: usize = 12;
/// QID items are `0..QID_ITEMS`; the rest of the universe is sensitive.
const QID_ITEMS: u32 = 10;

/// One row's recipe: a pool pick, a fresh row, and whether it may carry
/// a sensitive item.
type Pick = (usize, Vec<u32>, u8);

/// A duplicate-heavy data set: row `i` copies pool row `pick % |pool|`
/// unless `pick % 4 == 0`, when it is a fresh row. Sensitive items sit on
/// every `(p + 1)`-th row at most, so every item's support `f` keeps
/// `f · p <= n` and every method can publish at degree `p`.
fn build_data(pool: &[Vec<u32>], picks: &[Pick], p: usize) -> TransactionSet {
    let rows: Vec<Vec<u32>> = picks
        .iter()
        .enumerate()
        .map(|(i, (pick, fresh, sensitive))| {
            let mut row = if pick % 4 == 0 {
                fresh.clone()
            } else {
                pool[pick % pool.len()].clone()
            };
            if i == 0 || (*sensitive == 1 && i % (p + 1) < 2) {
                row.push(QID_ITEMS + (i % (p + 1)) as u32);
            }
            row
        })
        .collect();
    TransactionSet::from_rows(&rows, UNIVERSE)
}

/// CAHD, PermMondrian, random grouping and a CAHD re-release after the
/// first quarter of the rows churned out, in that order.
fn releases(
    data: &TransactionSet,
    sens: &SensitiveSet,
    p: usize,
    seed: u64,
) -> Vec<(String, PublishedDataset)> {
    let mut out = vec![
        (
            "cahd".to_string(),
            cahd(data, sens, &CahdConfig::new(p)).unwrap().0,
        ),
        (
            "pm".to_string(),
            perm_mondrian(data, sens, &PmConfig::new(p)).unwrap().0,
        ),
        (
            "random".to_string(),
            random_grouping(data, sens, p, seed).unwrap(),
        ),
    ];
    let kept: Vec<Vec<u32>> = (data.n_transactions() / 4..data.n_transactions())
        .map(|t| data.transaction(t).to_vec())
        .collect();
    let churned = TransactionSet::from_rows(&kept, UNIVERSE);
    if let Ok((release, _)) = cahd(&churned, sens, &CahdConfig::new(p)) {
        out.push(("rerelease".to_string(), release));
    }
    out
}

fn arb_input() -> impl Strategy<Value = (Vec<Vec<u32>>, Vec<Pick>)> {
    (
        proptest::collection::vec(proptest::collection::vec(0u32..QID_ITEMS, 1..5), 1..5),
        proptest::collection::vec(
            (
                0usize..1000,
                proptest::collection::vec(0u32..QID_ITEMS, 1..5),
                0u8..2,
            ),
            16..40,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn indexed_suite_matches_the_row_scan_oracle(
        (pool, picks) in arb_input(),
        p in 2usize..4,
        first in 0usize..4,
        n_releases in 1usize..4,
        wrong_items in 0usize..2,
        seed in 0u64..(1 << 32),
    ) {
        let data = build_data(&pool, &picks, p);
        let sens = SensitiveSet::new((QID_ITEMS..UNIVERSE as u32).collect(), UNIVERSE);
        let all = releases(&data, &sens, p, seed);
        let chosen: Vec<&(String, PublishedDataset)> = (0..n_releases.min(all.len()))
            .map(|i| &all[(first + i) % all.len()])
            .collect();
        let targets: Vec<AttackTarget<'_>> = std::iter::once(AttackTarget::raw())
            .chain(chosen.iter().map(|(name, r)| AttackTarget::release(name, r)))
            .collect();
        let plan = AttackPlan {
            seed,
            ks: vec![1, 2, 3],
            trials: 24,
            wrong_items,
            ..AttackPlan::default()
        };
        let indexed = run_attack_suite(&data, &sens, p, &targets, &plan, &Recorder::disabled());
        let oracle = row_scan::run_attack_suite(&data, &sens, p, &targets, &plan);
        prop_assert_eq!(indexed, oracle);

        for (_, release) in &chosen {
            for k in 1..=3usize {
                let run = |f: &dyn Fn(&mut StdRng) -> Option<cahd_eval::AttackOutcome>| {
                    f(&mut StdRng::seed_from_u64(seed ^ k as u64))
                };
                prop_assert_eq!(
                    run(&|rng| attack_published(&data, &sens, release, k, 24, rng)),
                    run(&|rng| row_scan::attack_published(&data, &sens, release, k, 24, rng)),
                    "attack_published at k = {}", k
                );
                prop_assert_eq!(
                    run(&|rng| attack_raw(&data, &sens, k, 24, rng)),
                    run(&|rng| row_scan::attack_raw(&data, &sens, k, 24, rng)),
                    "attack_raw at k = {}", k
                );
            }
        }
    }
}
