//! Retail scenario from the paper's introduction: a retailer publishes
//! purchase transactions so a third party can mine item correlations,
//! without exposing who bought the sensitive products.
//!
//! Demonstrates:
//! * an explicit sensitive-item catalog (not random selection),
//! * the motivating re-identification attack (Eve knows a few of Claire's
//!   innocuous purchases) before anonymization,
//! * that association rules among QID items survive publishing exactly,
//!   while sensitive associations are bounded by `1/p`.
//!
//! ```sh
//! cargo run --release --example retail_basket
//! ```

use cahd::prelude::*;

/// A small human-readable product catalog. The first `SENSITIVE_FROM` ids
/// are ordinary products; the rest are sensitive (pharmacy-style).
const CATALOG: &[&str] = &[
    "wine",
    "meat",
    "cream",
    "strawberries",
    "bread",
    "milk",
    "cheese",
    "coffee",
    "tea",
    "chocolate",
    "pasta",
    "tomatoes",
    "olive-oil",
    "butter",
    "eggs",
    "rice",
    "apples",
    "bananas",
    "salmon",
    "beer",
    // sensitive products
    "pregnancy-test",
    "hiv-test",
    "antidepressant",
    "viagra",
];
const SENSITIVE_FROM: usize = 20;

fn main() {
    // Build a synthetic purchase log over the catalog: QID items follow a
    // Quest-style basket model; each sensitive product is bought by ~1% of
    // customers, independently.
    let qid_part = cahd::data::QuestGenerator::new(
        cahd::data::QuestConfig {
            n_transactions: 150,
            n_items: SENSITIVE_FROM,
            avg_txn_len: 5.0,
            n_patterns: 40,
            avg_pattern_len: 3.0,
            ..Default::default()
        },
        13,
    )
    .generate();
    let mut rng = rand_seed(17);
    let rows: Vec<Vec<ItemId>> = (0..qid_part.n_transactions())
        .map(|t| {
            let mut row = qid_part.transaction(t).to_vec();
            for s in SENSITIVE_FROM..CATALOG.len() {
                if rand::Rng::gen_bool(&mut rng, 0.02) {
                    row.push(s as ItemId);
                }
            }
            row
        })
        .collect();
    let data = TransactionSet::from_rows(&rows, CATALOG.len());
    let sensitive = SensitiveSet::new(
        (SENSITIVE_FROM as ItemId..CATALOG.len() as ItemId).collect(),
        CATALOG.len(),
    );
    println!("{}", DatasetStats::compute(&data));

    // --- The attack the paper opens with: how often do 2-3 known innocuous
    // purchases pin down a unique transaction?
    for k in [2usize, 3] {
        let mut rng = rand_seed(100 + k as u64);
        if let Some(pr) = reidentification_probability(&data, Some(&sensitive), k, 10_000, &mut rng)
        {
            println!(
                "attacker knowing {k} ordinary purchases re-identifies a basket with p = {:.1}%",
                pr * 100.0
            );
        }
    }

    // --- Anonymize.
    let p = 10;
    let result = Anonymizer::new(AnonymizerConfig::with_privacy_degree(p))
        .anonymize(&data, &sensitive, &Recorder::disabled())
        .expect("2% sensitive incidence keeps p = 10 feasible");
    verify_published(&data, &sensitive, &result.published, p).unwrap();
    println!(
        "published {} groups; overall privacy degree {:?}",
        result.published.n_groups(),
        result.published.privacy_degree()
    );

    // --- QID-only patterns survive exactly: the support of any ordinary
    // item pair is identical before and after, because QID rows are
    // published verbatim. Demonstrate with the most frequent pair.
    let (a, b, support_before) = {
        let mut best = (0u32, 1u32, 0usize);
        for a in 0..SENSITIVE_FROM as ItemId {
            for b in (a + 1)..SENSITIVE_FROM as ItemId {
                let s = data
                    .iter()
                    .filter(|t| t.contains(&a) && t.contains(&b))
                    .count();
                if s > best.2 {
                    best = (a, b, s);
                }
            }
        }
        best
    };
    let support_after: usize = result
        .published
        .groups
        .iter()
        .flat_map(|g| g.qid_rows.iter())
        .filter(|r| r.contains(&a) && r.contains(&b))
        .count();
    println!(
        "support({{{}, {}}}): original {support_before}, published {support_after} (lossless)",
        CATALOG[a as usize], CATALOG[b as usize]
    );

    // --- Sensitive correlations are only estimable, with error bounded by
    // the group structure; compare actual vs reconstructed for one rule.
    let preg = SENSITIVE_FROM as ItemId; // pregnancy-test
    let query = GroupByQuery::new(preg, vec![2, 3]); // cream, strawberries
    let act = cahd::eval::actual_pdf(&data, &query).expect("item occurs");
    let est = cahd::eval::estimated_pdf(&result.published, &query).expect("item published");
    println!(
        "P(cell | {}) over (cream, strawberries): actual {:?}",
        CATALOG[preg as usize],
        act.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>()
    );
    println!(
        "                                     estimated {:?} (KL {:.4})",
        est.iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>(),
        kl_divergence(&act, &est, cahd::eval::DEFAULT_SMOOTHING)
    );

    // --- And the privacy guarantee the analyst-side estimate rests on:
    // within every group, each sensitive item is at most 1/p likely per
    // member.
    let worst = result
        .published
        .groups
        .iter()
        .filter_map(cahd::prelude::AnonymizedGroup::privacy_degree)
        .min()
        .unwrap();
    println!("worst-case association probability: 1/{worst} (required <= 1/{p})");
}
