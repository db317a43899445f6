//! Sharded-pipeline benchmarks: sequential CAHD vs the sharded parallel
//! entry point and the threaded `A x A^T` row-pattern build. These entries
//! give the BENCH json a perf trajectory for the parallel path; speedups
//! obviously depend on the host core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cahd_bench::runs::{prepare, run_cahd_sharded, select_sensitive};
use cahd_core::{cahd, CahdConfig, ParallelConfig};
use cahd_data::profiles;
use cahd_rcm::UnsymOptions;
use cahd_sparse::RowGraph;

/// The largest fixture the bench suite exercises (same scale as the RCM
/// scale sweep's top point).
fn largest() -> cahd_data::TransactionSet {
    profiles::bms1_like(0.2, 7)
}

fn bench_sharded_cahd(c: &mut Criterion) {
    let prep = prepare(largest(), UnsymOptions::default());
    let sens = select_sensitive(&prep.data, 20, 20, 11);
    let p = 10;
    let mut g = c.benchmark_group("parallel/cahd_shards");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| cahd(&prep.permuted, &sens, &CahdConfig::new(p)).unwrap());
    });
    for (shards, threads) in [(1usize, 1usize), (4, 1), (4, 4), (8, 4)] {
        let par = ParallelConfig::new(shards, threads);
        let label = format!("shards{shards}_threads{threads}");
        g.bench_with_input(BenchmarkId::from_parameter(label), &par, |b, &par| {
            b.iter(|| run_cahd_sharded(&prep, &sens, p, 3, par).unwrap());
        });
    }
    g.finish();
}

fn bench_threaded_aat(c: &mut Criterion) {
    let data = largest();
    let mut g = c.benchmark_group("parallel/aat_build");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| RowGraph::build_explicit_threaded(data.matrix(), threads));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sharded_cahd, bench_threaded_aat);
criterion_main!(benches);
