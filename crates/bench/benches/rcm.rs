//! RCM bandwidth-reduction benchmarks (the one-off cost of Fig. 12 and the
//! explicit-vs-implicit `A x A^T` ablation from DESIGN.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cahd_data::profiles;
use cahd_rcm::{band_order, reduce_unsymmetric, AatMethod, OrderingStrategy, UnsymOptions};
use cahd_sparse::{ImplicitRowGraph, RowGraph};

fn bench_rcm_correlation(c: &mut Criterion) {
    let mut g = c.benchmark_group("rcm/fig6_correlation");
    for corr in [0.1, 0.5, 0.9] {
        let data = profiles::fig6_like(corr, 7);
        g.bench_with_input(BenchmarkId::from_parameter(corr), &data, |b, data| {
            b.iter(|| reduce_unsymmetric(data.matrix(), UnsymOptions::default()));
        });
    }
    g.finish();
}

fn bench_rcm_dataset_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("rcm/bms1_scale");
    g.sample_size(10);
    for scale in [0.05, 0.1, 0.2] {
        let data = profiles::bms1_like(scale, 7);
        g.bench_with_input(BenchmarkId::from_parameter(scale), &data, |b, data| {
            b.iter(|| reduce_unsymmetric(data.matrix(), UnsymOptions::default()));
        });
    }
    g.finish();
}

fn bench_explicit_vs_implicit(c: &mut Criterion) {
    let data = profiles::bms1_like(0.1, 7);
    let mut g = c.benchmark_group("rcm/aat_representation");
    g.sample_size(10);
    g.bench_function("explicit", |b| {
        b.iter(|| {
            let graph = RowGraph::build_explicit(data.matrix());
            band_order(&graph, OrderingStrategy::Rcm, 1)
        });
    });
    g.bench_function("implicit", |b| {
        b.iter(|| {
            let graph = ImplicitRowGraph::new(data.matrix());
            band_order(&graph, OrderingStrategy::Rcm, 1)
        });
    });
    g.finish();
}

fn bench_aat_methods(c: &mut Criterion) {
    let data = profiles::bms1_like(0.1, 7);
    let mut g = c.benchmark_group("rcm/aat_method");
    g.sample_size(10);
    g.bench_function("product", |b| {
        b.iter(|| reduce_unsymmetric(data.matrix(), UnsymOptions::default()));
    });
    g.bench_function("sum", |b| {
        b.iter(|| {
            reduce_unsymmetric(
                data.matrix(),
                UnsymOptions {
                    aat_method: AatMethod::Sum,
                    ..Default::default()
                },
            )
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rcm_correlation,
    bench_rcm_dataset_scale,
    bench_explicit_vs_implicit,
    bench_aat_methods
);
criterion_main!(benches);
