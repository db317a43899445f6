//! One regenerator per table/figure of the paper's evaluation (Section V).
//!
//! Each function returns the rendered [`Table`]s (and writes CSV artifacts
//! when the context has an output directory), so the `experiments` binary,
//! the integration tests and EXPERIMENTS.md all consume the same code
//! paths.
//!
//! | paper artifact | function    | sweep                               |
//! |----------------|-------------|-------------------------------------|
//! | Table I        | [`table1`]  | dataset characteristics             |
//! | Table II       | [`table2`]  | re-identification vs known items    |
//! | Fig. 6         | [`fig6`]    | RCM band quality vs correlation     |
//! | Fig. 9         | [`fig9`]    | KL vs p (r = 4)                     |
//! | Fig. 10        | [`fig10`]   | KL vs m (r = 4, p in {10, 20})      |
//! | Fig. 11        | [`fig11`]   | KL vs r (m = 10, p in {10, 20})     |
//! | Fig. 12        | [`fig12`]   | execution time vs p (m = 20)        |
//! | Fig. 13        | [`fig13`]   | KL and time vs alpha (BMS2, m = 10) |

use cahd_core::verify_published;
use cahd_data::{DatasetStats, SensitiveSet};
use cahd_eval::reidentification_probability;
use cahd_obs::Recorder;
use cahd_rcm::UnsymOptions;
use cahd_sparse::viz::DensityGrid;
use cahd_sparse::Permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::context::{DatasetId, ExperimentContext};
use crate::report::{fmt_secs, Table};
use crate::runs::{
    kl_of, prepare, run_cahd, run_pm, run_random, select_sensitive, PreparedDataset,
};

fn write_csv(ctx: &ExperimentContext, table: &Table, name: &str) {
    if let Some(dir) = &ctx.out_dir {
        if let Err(e) = table.write_csv(dir, name) {
            eprintln!("warning: failed to write {name}.csv: {e}");
        }
    }
}

/// Table I: dataset characteristics, with the paper's reference values.
pub fn table1(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Table I: dataset characteristics",
        &[
            "dataset",
            "transactions",
            "items",
            "max len",
            "avg len",
            "paper (txns/items/max/avg)",
        ],
    );
    let paper = ["59602/497/267/2.5", "77512/3340/161/5.0"];
    for (id, pref) in DatasetId::ALL.into_iter().zip(paper) {
        let data = ctx.dataset(id);
        let s = DatasetStats::compute(&data);
        t.row(&[
            id.name().into(),
            s.transactions.to_string(),
            s.items.to_string(),
            s.max_length.to_string(),
            format!("{:.2}", s.avg_length),
            pref.into(),
        ]);
    }
    write_csv(ctx, &t, "table1");
    t
}

/// Table II: re-identification probability vs number of known QID items.
pub fn table2(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Table II: re-identification probability",
        &["dataset", "k=1", "k=2", "k=3", "k=4", "paper (k=1..4)"],
    );
    let paper = ["0.3% 9.5% 24.3% 50.0%", "0.8% 18.8% 41.6% 91.1%"];
    let trials = 20_000;
    for (id, pref) in DatasetId::ALL.into_iter().zip(paper) {
        let data = ctx.dataset(id);
        let mut cells: Vec<String> = vec![id.name().into()];
        for k in 1..=4 {
            let mut rng = StdRng::seed_from_u64(ctx.sub_seed(&format!("table2-{k}")));
            let p =
                reidentification_probability(&data, None, k, trials, &mut rng).unwrap_or(f64::NAN);
            cells.push(format!("{:.1}%", p * 100.0));
        }
        cells.push(pref.into());
        t.row(&cells);
    }
    write_csv(ctx, &t, "table2");
    t
}

/// Fig. 6: RCM effectiveness vs data correlation (1000x1000 Quest data).
///
/// Returns the metric table and the ASCII density panels
/// (before/after per correlation level). PGM images are written to the
/// output directory when one is configured.
pub fn fig6(ctx: &ExperimentContext) -> (Table, Vec<String>) {
    let mut t = Table::new(
        "Fig. 6: RCM band quality vs correlation (1000x1000, ~20 items/txn)",
        &[
            "correlation",
            "row span before",
            "row span after",
            "improvement",
            "edge span before",
            "edge span after",
            "rcm secs",
        ],
    );
    let mut panels = Vec::new();
    for corr in [0.1, 0.5, 0.9] {
        let data = cahd_data::profiles::fig6_like(corr, ctx.sub_seed("fig6"));
        let red = cahd_rcm::reduce_unsymmetric(
            data.matrix(),
            UnsymOptions::default(),
            &Recorder::disabled(),
        );
        // The paper's bandwidth metric lives on the A*A^T graph: mean edge
        // span |pos(u) - pos(v)| under the identity vs the RCM labeling.
        let graph = cahd_sparse::RowGraph::build_explicit(data.matrix());
        let id = Permutation::identity(data.n_transactions());
        let span_before = cahd_sparse::bandwidth::graph_band_stats(&graph, &id).mean_edge_span;
        let span_after =
            cahd_sparse::bandwidth::graph_band_stats(&graph, &red.row_perm).mean_edge_span;
        let stats = red.band_stats(data.matrix());
        t.row(&[
            format!("{corr:.1}"),
            format!("{:.1}", stats.before.mean_row_span),
            format!("{:.1}", stats.after.mean_row_span),
            format!(
                "{:.2}x",
                stats.before.mean_row_span / stats.after.mean_row_span.max(1e-9)
            ),
            format!("{span_before:.1}"),
            format!("{span_after:.1}"),
            fmt_secs(red.rcm_time),
        ]);
        let id_r = Permutation::identity(data.n_transactions());
        let id_c = Permutation::identity(data.n_items());
        let before = DensityGrid::new(data.matrix(), &id_r, &id_c, 30, 60);
        let after = DensityGrid::new(data.matrix(), &red.row_perm, &stats.col_perm(), 30, 60);
        panels.push(format!(
            "-- correlation {corr:.1}: original --\n{}-- correlation {corr:.1}: after RCM --\n{}",
            before.to_ascii(),
            after.to_ascii()
        ));
        if let Some(dir) = &ctx.out_dir {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(
                dir.join(format!("fig6_corr{corr}_before.pgm")),
                before.to_pgm(),
            );
            let _ = std::fs::write(
                dir.join(format!("fig6_corr{corr}_after.pgm")),
                after.to_pgm(),
            );
        }
    }
    write_csv(ctx, &t, "fig6");
    (t, panels)
}

/// Runs `f` on each item in its own thread and returns results in input
/// order. Every experiment point is independently seeded, so parallel
/// execution leaves results bit-identical to the sequential ones.
fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.iter().map(|it| scope.spawn(move || f(it))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread panicked"))
            .collect()
    })
}

/// One CAHD-vs-PM utility comparison row.
fn utility_row(
    prep: &PreparedDataset,
    sensitive: &SensitiveSet,
    p: usize,
    alpha: usize,
    r: usize,
    seed: u64,
) -> (f64, f64, f64) {
    let cahd_res = run_cahd(prep, sensitive, p, alpha).expect("feasible by construction");
    verify_published(&prep.data, sensitive, &cahd_res.published, p).expect("CAHD release valid");
    let pm_res = run_pm(&prep.data, sensitive, p).expect("feasible by construction");
    verify_published(&prep.data, sensitive, &pm_res.published, p).expect("PM release valid");
    let rnd_res = run_random(&prep.data, sensitive, p, seed ^ 0x5eed).expect("feasible");
    let kl_cahd = kl_of(&prep.data, sensitive, &cahd_res.published, r, seed).mean_kl;
    let kl_pm = kl_of(&prep.data, sensitive, &pm_res.published, r, seed).mean_kl;
    let kl_rnd = kl_of(&prep.data, sensitive, &rnd_res.published, r, seed).mean_kl;
    (kl_cahd, kl_pm, kl_rnd)
}

/// Fig. 9: reconstruction error vs privacy degree `p` (r = 4, m = 10).
pub fn fig9(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Fig. 9: KL divergence vs p (r = 4, m = 10)",
        &["dataset", "p", "CAHD", "PM", "Random"],
    );
    for id in DatasetId::ALL {
        let prep = prepare(ctx.dataset(id), UnsymOptions::default());
        let sens = select_sensitive(&prep.data, 10, 20, ctx.sub_seed("fig9-sens"));
        let ps = [4usize, 8, 12, 16, 20];
        let rows = parallel_map(&ps, |&p| {
            let seed = ctx.sub_seed(&format!("fig9-{}-{p}", id.name()));
            (p, utility_row(&prep, &sens, p, 3, 4, seed))
        });
        for (p, (c, pm, rnd)) in rows {
            t.row(&[
                id.name().into(),
                p.to_string(),
                format!("{c:.4}"),
                format!("{pm:.4}"),
                format!("{rnd:.4}"),
            ]);
        }
    }
    write_csv(ctx, &t, "fig9");
    t
}

/// Fig. 10: reconstruction error vs number of sensitive items `m`
/// (r = 4, p in {10, 20}).
pub fn fig10(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Fig. 10: KL divergence vs m (r = 4)",
        &["dataset", "p", "m", "CAHD", "PM", "Random"],
    );
    for id in DatasetId::ALL {
        let prep = prepare(ctx.dataset(id), UnsymOptions::default());
        let settings: Vec<(usize, usize)> = [5usize, 10, 15, 20]
            .into_iter()
            .flat_map(|m| [(m, 10usize), (m, 20usize)])
            .collect();
        let rows = parallel_map(&settings, |&(m, p)| {
            let sens = select_sensitive(&prep.data, m, 20, ctx.sub_seed(&format!("fig10-{m}")));
            let seed = ctx.sub_seed(&format!("fig10-{}-{p}-{m}", id.name()));
            (m, p, utility_row(&prep, &sens, p, 3, 4, seed))
        });
        for (m, p, (c, pm, rnd)) in rows {
            t.row(&[
                id.name().into(),
                p.to_string(),
                m.to_string(),
                format!("{c:.4}"),
                format!("{pm:.4}"),
                format!("{rnd:.4}"),
            ]);
        }
    }
    write_csv(ctx, &t, "fig10");
    t
}

/// Fig. 11: reconstruction error vs group-by size `r` (m = 10,
/// p in {10, 20}).
pub fn fig11(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Fig. 11: KL divergence vs r (m = 10)",
        &["dataset", "p", "r", "CAHD", "PM", "Random"],
    );
    for id in DatasetId::ALL {
        let prep = prepare(ctx.dataset(id), UnsymOptions::default());
        let sens = select_sensitive(&prep.data, 10, 20, ctx.sub_seed("fig11-sens"));
        let settings: Vec<(usize, usize)> = [10usize, 20]
            .into_iter()
            .flat_map(|p| [2usize, 4, 6, 8].into_iter().map(move |r| (p, r)))
            .collect();
        let rows = parallel_map(&settings, |&(p, r)| {
            let seed = ctx.sub_seed(&format!("fig11-{}-{p}-{r}", id.name()));
            (p, r, utility_row(&prep, &sens, p, 3, r, seed))
        });
        for (p, r, (c, pm, rnd)) in rows {
            t.row(&[
                id.name().into(),
                p.to_string(),
                r.to_string(),
                format!("{c:.4}"),
                format!("{pm:.4}"),
                format!("{rnd:.4}"),
            ]);
        }
    }
    write_csv(ctx, &t, "fig11");
    t
}

/// Fig. 12: execution time vs `p` (m = 20). RCM is reported separately —
/// it is a one-off transformation shared across all `p`.
pub fn fig12(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Fig. 12: execution time vs p (m = 20), seconds",
        &["dataset", "p", "CAHD", "PM", "RCM (one-off)"],
    );
    for id in DatasetId::ALL {
        let prep = prepare(ctx.dataset(id), UnsymOptions::default());
        let sens = select_sensitive(&prep.data, 20, 20, ctx.sub_seed("fig12-sens"));
        for p in [4usize, 8, 12, 16, 20] {
            let cahd_res = run_cahd(&prep, &sens, p, 3).expect("feasible");
            let pm_res = run_pm(&prep.data, &sens, p).expect("feasible");
            t.row(&[
                id.name().into(),
                p.to_string(),
                fmt_secs(cahd_res.time),
                fmt_secs(pm_res.time),
                fmt_secs(prep.band.rcm_time),
            ]);
        }
    }
    write_csv(ctx, &t, "fig12");
    t
}

/// Fig. 13: the effect of the candidate-list width `alpha` on utility and
/// time (BMS2-like, m = 10, p = 10).
pub fn fig13(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Fig. 13: KL divergence and time vs alpha (BMS2-like, m = 10, p = 10)",
        &["alpha", "CAHD KL", "CAHD secs"],
    );
    let prep = prepare(ctx.dataset(DatasetId::Bms2), UnsymOptions::default());
    let sens = select_sensitive(&prep.data, 10, 20, ctx.sub_seed("fig13-sens"));
    for alpha in [1usize, 2, 3, 4, 5] {
        let res = run_cahd(&prep, &sens, 10, alpha).expect("feasible");
        verify_published(&prep.data, &sens, &res.published, 10).expect("valid");
        let kl = kl_of(
            &prep.data,
            &sens,
            &res.published,
            4,
            ctx.sub_seed("fig13-q"),
        );
        t.row(&[
            alpha.to_string(),
            format!("{:.4}", kl.mean_kl),
            fmt_secs(res.time),
        ]);
    }
    write_csv(ctx, &t, "fig13");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext {
            scale: 0.02,
            seed: 7,
            out_dir: None,
        }
    }

    #[test]
    fn table1_has_both_datasets() {
        let t = table1(&tiny_ctx());
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn fig9_shape() {
        let t = fig9(&tiny_ctx());
        assert_eq!(t.n_rows(), 10); // 2 datasets x 5 p values
    }

    #[test]
    fn fig13_shape() {
        let t = fig13(&tiny_ctx());
        assert_eq!(t.n_rows(), 5);
    }
}
