//! Streaming anonymization of an append-only purchase log.
//!
//! A retailer releases anonymized batches continuously instead of
//! re-processing the full history. Demonstrates the
//! [`StreamingAnonymizer`]: batch releases, burst carry-over when a
//! sensitive item spikes, and the error a final infeasible flush reports.
//!
//! ```sh
//! cargo run --release --example streaming_log
//! ```

use cahd::prelude::*;

fn main() {
    let p = 5;
    let sensitive = SensitiveSet::new(vec![98, 99], 100);
    let mut stream = StreamingAnonymizer::new(
        AnonymizerConfig::with_privacy_degree(p),
        sensitive.clone(),
        500, // transactions per release batch
    );

    // Simulate a day of traffic: mostly ordinary baskets, plus a burst of
    // sensitive purchases mid-day (a flu outbreak, say).
    let mut rng = rand_seed(11);
    let mut chunks = Vec::new();
    for minute in 0..2_000u32 {
        let mut basket: Vec<ItemId> = (0..3)
            .map(|_| rand::Rng::gen_range(&mut rng, 0..98))
            .collect();
        let burst = (700..1000).contains(&minute);
        let p_sensitive = if burst { 0.45 } else { 0.02 };
        if rand::Rng::gen_bool(&mut rng, p_sensitive) {
            // The burst concentrates on one item — exactly the case that
            // makes a single batch infeasible.
            basket.push(if burst || minute % 2 == 0 { 98 } else { 99 });
        }
        match stream.push(basket) {
            Ok(Some(chunk)) => {
                println!(
                    "released batch {}: {} transactions in {} groups (degree {:?})",
                    chunks.len() + 1,
                    chunk.stream_ids.len(),
                    chunk.published.n_groups(),
                    chunk.published.privacy_degree(),
                );
                chunks.push(chunk);
            }
            Ok(None) => {}
            Err(e) => {
                println!("batch failed: {e}");
                return;
            }
        }
    }
    println!(
        "burst handling: {} sensitive transactions deferred to later batches",
        stream.carried_over()
    );

    // Final flush; an infeasible tail is an error the caller handles.
    match stream.finish() {
        Ok(Some(chunk)) => {
            println!(
                "final batch: {} transactions in {} groups",
                chunk.stream_ids.len(),
                chunk.published.n_groups()
            );
            chunks.push(chunk);
        }
        Ok(None) => {}
        Err(CahdError::Infeasible {
            item, support, n, ..
        }) => {
            println!(
                "final batch infeasible (item {item}: {support} of {n}); \
                 its rows stay unreleased"
            );
        }
        Err(e) => println!("final batch failed: {e}"),
    }

    let total: usize = chunks.iter().map(|c| c.stream_ids.len()).sum();
    let audited =
        chunks
            .iter()
            .map(|c| privacy_report(&c.published))
            .fold((usize::MAX, 0.0f64), |acc, r| {
                (
                    acc.0.min(r.min_privacy_degree.unwrap_or(usize::MAX)),
                    acc.1.max(r.max_association_probability),
                )
            });
    println!(
        "\nstream summary: {total} transactions released in {} chunks; \
         worst privacy degree {}, worst association probability {:.3} (bound {:.3})",
        chunks.len(),
        audited.0,
        audited.1,
        1.0 / p as f64
    );
}
