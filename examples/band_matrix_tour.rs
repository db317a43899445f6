//! A tour of the band-matrix machinery (the paper's Section III): how
//! Reverse Cuthill-McKee turns a scattered sparse transaction matrix into a
//! band matrix, and why that matters for anonymization.
//!
//! Prints ASCII density plots (the paper's Fig. 6) for three correlation
//! levels and reports the band metrics.
//!
//! ```sh
//! cargo run --release --example band_matrix_tour
//! ```

use cahd::prelude::*;
use cahd::sparse::viz::DensityGrid;

fn main() {
    for corr in [0.1, 0.5, 0.9] {
        // 1000 x 1000 Quest data with ~20 items per transaction, exactly
        // like the paper's Fig. 6 workload.
        let data = cahd::data::profiles::fig6_like(corr, 2026);
        let red = reduce_unsymmetric(
            data.matrix(),
            UnsymOptions::default(),
            &Recorder::disabled(),
        );

        let stats = red.band_stats(data.matrix());

        println!("=== correlation {corr:.1} ===");
        println!(
            "mean row span: {:>6.1} -> {:>6.1}   ({:.1}x tighter)",
            stats.before.mean_row_span,
            stats.after.mean_row_span,
            stats.before.mean_row_span / stats.after.mean_row_span.max(1e-9),
        );
        println!(
            "rcm time: {:.3}s ({} A*A^T)",
            red.rcm_time.as_secs_f64(),
            if red.used_explicit_aat {
                "explicit"
            } else {
                "implicit"
            },
        );

        let id_r = Permutation::identity(data.n_transactions());
        let id_c = Permutation::identity(data.n_items());
        let before = DensityGrid::new(data.matrix(), &id_r, &id_c, 20, 40);
        let after = DensityGrid::new(data.matrix(), &red.row_perm, &stats.col_perm(), 20, 40);

        // Render before and after side by side.
        let left: Vec<&str> = before_lines(&before);
        let right: Vec<&str> = before_lines(&after);
        println!("{:^40}   {:^40}", "original", "after RCM");
        for (l, r) in left.iter().zip(&right) {
            println!("{l}   {r}");
        }
        println!();

        fn before_lines(g: &DensityGrid) -> Vec<&str> {
            // Leak is fine in a short-lived example; keeps lifetimes simple.
            Box::leak(g.to_ascii().into_boxed_str()).lines().collect()
        }
    }

    // Why the band matters: neighboring rows share items, so CAHD groups
    // of adjacent rows have high QID overlap and low reconstruction error.
    let data = cahd::data::profiles::fig6_like(0.9, 2026);
    let red = reduce_unsymmetric(
        data.matrix(),
        UnsymOptions::default(),
        &Recorder::disabled(),
    );
    let permuted = data.permute(&red.row_perm);
    let mut overlap_band = 0usize;
    let mut overlap_orig = 0usize;
    let n = data.n_transactions();
    for t in 0..n - 1 {
        overlap_band +=
            CsrMatrix::intersection_len(permuted.transaction(t), permuted.transaction(t + 1));
        overlap_orig += CsrMatrix::intersection_len(data.transaction(t), data.transaction(t + 1));
    }
    println!(
        "avg items shared by consecutive transactions: original {:.2}, band order {:.2}",
        overlap_orig as f64 / (n - 1) as f64,
        overlap_band as f64 / (n - 1) as f64,
    );
}
