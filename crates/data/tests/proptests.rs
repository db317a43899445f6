//! Property-based tests for the data crate: parser robustness, generator
//! invariants and weighted-data round trips.

use std::io::Cursor;

use cahd_data::weighted::{read_wdat, write_wdat, WeightedTransactionSet};
use cahd_data::{io, QuestConfig, QuestGenerator, SensitiveSet, TransactionSet};
use proptest::prelude::*;

fn arb_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..40, 1..7), 1..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dat_roundtrip_without_empty_rows(rows in arb_rows()) {
        let data = TransactionSet::from_rows(&rows, 40);
        let mut buf = Vec::new();
        io::write_dat(&mut buf, &data).unwrap();
        let back = io::read_dat(Cursor::new(&buf), Some(40)).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn dat_reader_never_panics_on_ascii_garbage(s in "[ -~\\n]{0,200}") {
        // Arbitrary printable input must parse or error, never panic.
        let _ = io::read_dat(Cursor::new(s.as_bytes()), None);
    }

    #[test]
    fn wdat_reader_never_panics_on_ascii_garbage(s in "[ -~\\n]{0,200}") {
        let _ = read_wdat(Cursor::new(s.as_bytes()), None);
    }

    #[test]
    fn wdat_roundtrip(rows in proptest::collection::vec(
        proptest::collection::vec((0u32..30, 1u32..9), 1..6), 1..15)
    ) {
        let data = WeightedTransactionSet::from_rows(&rows, 30);
        let mut buf = Vec::new();
        write_wdat(&mut buf, &data).unwrap();
        let back = read_wdat(Cursor::new(&buf), Some(30)).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn quest_respects_shape(
        n in 10usize..200,
        d in 5usize..100,
        avg in 1.0f64..6.0,
        corr in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let cfg = QuestConfig {
            n_transactions: n,
            n_items: d,
            avg_txn_len: avg,
            n_patterns: 10,
            avg_pattern_len: 2.0,
            correlation: corr,
            ..Default::default()
        };
        let data = QuestGenerator::new(cfg, seed).generate();
        prop_assert_eq!(data.n_transactions(), n);
        prop_assert_eq!(data.n_items(), d);
        for t in 0..n {
            prop_assert!(data.len_of(t) >= 1);
        }
    }

    #[test]
    fn sensitive_selection_invariants(rows in arb_rows(), m in 1usize..5, p in 1usize..6) {
        let data = TransactionSet::from_rows(&rows, 40);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        use rand::SeedableRng;
        if let Ok(sens) = SensitiveSet::select_random(&data, m, p, &mut rng) {
            prop_assert_eq!(sens.len(), m);
            let n = data.n_transactions();
            for (rank, &c) in sens.occurrence_counts(&data).iter().enumerate() {
                prop_assert!(c >= 1);
                prop_assert!(c * p <= n, "item {} support {} * {} > {}",
                    sens.items()[rank], c, p, n);
            }
        }
    }

    #[test]
    fn split_transaction_partitions_every_row(rows in arb_rows(), s in 0u32..40) {
        let data = TransactionSet::from_rows(&rows, 40);
        let sens = SensitiveSet::new(vec![s], 40);
        for t in 0..data.n_transactions() {
            let (qid, ranks) = sens.split_transaction(data.transaction(t));
            prop_assert_eq!(qid.len() + ranks.len(), data.len_of(t));
            prop_assert!(qid.iter().all(|&i| i != s));
        }
    }
}
