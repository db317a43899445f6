//! Differential conformance harness for fault-tolerant streaming.
//!
//! Over random instances with `p in {2, 4, 8}` and `alpha in {2, 3}`, the
//! streaming anonymizer is run with batch sizes `{2p, 3p, max(n, 2p)}`
//! and interrupted with a checkpoint/kill/resume cycle at **every** chunk
//! boundary (plus once mid-batch, with rows still buffered). Every
//! interrupted run must produce exactly the uninterrupted run's output:
//! the same released chunks byte for byte, or the same terminal error.
//! Each released chunk independently passes `verify_all` and the `1/p`
//! association bound.
//!
//! The checkpoint layer gets its own round-trip property: freeze/thaw
//! through JSON is exact, and any tampering fails closed with
//! [`CahdError::CorruptCheckpoint`] before the state is trusted.

use cahd_core::checkpoint::StreamingCheckpoint;
use cahd_core::error::CahdError;
use cahd_core::pipeline::AnonymizerConfig;
use cahd_core::streaming::{ReleaseChunk, StreamingAnonymizer};
use cahd_core::verify::verify_all;
use cahd_core::CahdConfig;
use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_obs::Recorder;
use proptest::prelude::*;

/// A random raw-row instance with `p in {2,4,8}` and `alpha in {2,3}`
/// (the same matrix as the parallel-equivalence harness, kept as rows so
/// the streaming layer does its own ingestion).
fn arb_instance() -> impl Strategy<Value = (Vec<Vec<ItemId>>, SensitiveSet, CahdConfig)> {
    (12usize..72, 6usize..16, 0usize..3, 2usize..4).prop_flat_map(|(n, d, p_idx, alpha)| {
        let p = [2usize, 4, 8][p_idx];
        (
            proptest::collection::vec(proptest::collection::vec(0..d as u32, 1..6), n..=n),
            proptest::collection::btree_set(0..d as u32, 1..3),
            Just(d),
            Just(p),
            Just(alpha),
        )
            .prop_map(|(rows, sens_items, d, p, alpha)| {
                let sens = SensitiveSet::new(sens_items.into_iter().collect(), d);
                (rows, sens, CahdConfig::new(p).with_alpha(alpha))
            })
    })
}

fn anonymizer_config(cfg: &CahdConfig) -> AnonymizerConfig {
    let mut acfg = AnonymizerConfig::with_privacy_degree(cfg.p);
    acfg.cahd = *cfg;
    acfg
}

/// Runs the whole stream without interruption.
fn run_uninterrupted(
    rows: &[Vec<ItemId>],
    sens: &SensitiveSet,
    cfg: &CahdConfig,
    batch: usize,
) -> Result<Vec<ReleaseChunk>, CahdError> {
    let mut s = StreamingAnonymizer::new(anonymizer_config(cfg), sens.clone(), batch);
    let mut chunks = Vec::new();
    for row in rows {
        if let Some(c) = s.push(row.clone())? {
            chunks.push(c);
        }
    }
    if let Some(c) = s.finish()? {
        chunks.push(c);
    }
    Ok(chunks)
}

/// Runs the stream, killing the process (checkpoint → drop → JSON
/// round-trip → resume) once: either right after the `kill_after`-th
/// released chunk, or — when `kill_after` exceeds the chunk count —
/// mid-batch after `mid_kill_at` pushes with rows still buffered.
fn run_interrupted(
    rows: &[Vec<ItemId>],
    sens: &SensitiveSet,
    cfg: &CahdConfig,
    batch: usize,
    kill_after: usize,
    mid_kill_at: usize,
) -> Result<Vec<ReleaseChunk>, CahdError> {
    let mut s = StreamingAnonymizer::new(anonymizer_config(cfg), sens.clone(), batch);
    let mut chunks = Vec::new();
    let mut killed = false;
    let mut pushed = 0usize;
    while pushed < rows.len() {
        let released = s.push(rows[pushed].clone())?;
        pushed += 1;
        let at_boundary = if let Some(c) = released {
            chunks.push(c);
            true
        } else {
            false
        };
        let kill_here = (at_boundary && chunks.len() == kill_after)
            || (kill_after == usize::MAX && pushed == mid_kill_at);
        if kill_here && !killed {
            killed = true;
            let cp = s.checkpoint();
            drop(s); // the killed process
            let json = serde_json::to_string(&cp).expect("checkpoint serializes");
            let cp: StreamingCheckpoint = serde_json::from_str(&json).expect("and parses back");
            s = StreamingAnonymizer::resume(
                anonymizer_config(cfg),
                sens.clone(),
                &cp,
                &Recorder::disabled(),
            )?;
            assert_eq!(
                s.next_stream_id() as usize,
                pushed,
                "resume keeps the cursor"
            );
        }
    }
    if let Some(c) = s.finish()? {
        chunks.push(c);
    }
    Ok(chunks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_resume_point_reproduces_the_uninterrupted_stream(
        (rows, sens, cfg) in arb_instance(),
    ) {
        let n = rows.len();
        let data = TransactionSet::from_rows(&rows, sens.n_items());
        let counts = sens.occurrence_counts(&data);
        prop_assume!(counts.iter().all(|&c| c * cfg.p <= n));
        for batch in [2 * cfg.p, 3 * cfg.p, n.max(2 * cfg.p)] {
            let reference = run_uninterrupted(&rows, &sens, &cfg, batch);
            // Each released chunk of a successful run verifies on its own.
            if let Ok(chunks) = &reference {
                let total: usize = chunks.iter().map(|c| c.stream_ids.len()).sum();
                prop_assert_eq!(total, n, "chunks partition the stream");
                for chunk in chunks {
                    let batch_rows: Vec<Vec<ItemId>> = chunk
                        .stream_ids
                        .iter()
                        .map(|&id| rows[id as usize].clone())
                        .collect();
                    let batch_data = TransactionSet::from_rows(&batch_rows, sens.n_items());
                    let errors = verify_all(&batch_data, &sens, &chunk.published, cfg.p);
                    prop_assert!(errors.is_empty(), "batch={}: {:?}", batch, errors);
                    prop_assert!(chunk.published.satisfies(cfg.p));
                }
            }
            let boundaries = reference.as_ref().map_or(1, Vec::len);
            // Kill at every chunk boundary...
            for kill_after in 1..=boundaries {
                let interrupted =
                    run_interrupted(&rows, &sens, &cfg, batch, kill_after, 0);
                prop_assert_eq!(
                    &interrupted, &reference,
                    "batch={} kill_after={}", batch, kill_after
                );
            }
            // ... and once mid-batch, with unreleased rows in the buffer.
            let interrupted =
                run_interrupted(&rows, &sens, &cfg, batch, usize::MAX, batch.min(n) / 2 + 1);
            prop_assert_eq!(&interrupted, &reference, "batch={} mid-batch kill", batch);
        }
    }

    #[test]
    fn checkpoints_round_trip_exactly_and_tampering_fails_closed(
        (rows, sens, cfg) in arb_instance(),
        cut in 0usize..72,
        tamper in 0usize..5,
    ) {
        let batch = 2 * cfg.p;
        let mut s = StreamingAnonymizer::new(anonymizer_config(&cfg), sens.clone(), batch);
        for row in rows.iter().take(cut.min(rows.len())) {
            // Released chunks — and even a failed batch release — are
            // irrelevant to the checkpoint property; the stream state
            // stays checkpointable either way.
            if s.push(row.clone()).is_err() {
                break;
            }
        }
        let cp = s.checkpoint();
        cp.validate().expect("a freshly sealed checkpoint validates");
        let json = serde_json::to_string(&cp).unwrap();
        let back: StreamingCheckpoint = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &cp, "freeze/thaw through JSON is exact");

        let mut bad = cp.clone();
        match tamper {
            0 => bad.next_id ^= 1,
            1 => bad.p += 1,
            2 => bad.buffer.push((bad.next_id + 7, vec![0])),
            3 => bad.digest ^= 1,
            _ => bad.version += 1,
        }
        let err = bad.validate().expect_err("tampered checkpoint must fail");
        prop_assert!(
            matches!(err, CahdError::CorruptCheckpoint { .. }),
            "{:?}", err
        );
        let err = StreamingAnonymizer::resume(anonymizer_config(&cfg), sens.clone(), &bad, &Recorder::disabled())
            .expect_err("resume refuses a tampered checkpoint");
        prop_assert!(matches!(err, CahdError::CorruptCheckpoint { .. }));
    }
}
