//! Row-ordering strategy benchmarks: RCM vs MinHash vs lexicographic on
//! BMS-like data (cost side of the `ext-orderings` experiment).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cahd_data::profiles;
use cahd_rcm::RowOrder;

fn bench_orderings(c: &mut Criterion) {
    let data = profiles::bms1_like(0.1, 7);
    let mut g = c.benchmark_group("orderings/bms1");
    g.sample_size(10);
    for strat in RowOrder::ALL {
        if strat == RowOrder::Identity {
            continue;
        }
        g.bench_with_input(
            BenchmarkId::from_parameter(strat.name()),
            &strat,
            |b, &strat| b.iter(|| strat.order(data.matrix(), 11)),
        );
    }
    g.finish();
}

fn bench_orderings_correlated(c: &mut Criterion) {
    let data = profiles::fig6_like(0.9, 7);
    let mut g = c.benchmark_group("orderings/quest_corr0.9");
    g.sample_size(10);
    for strat in [RowOrder::Rcm, RowOrder::MinHash] {
        g.bench_with_input(
            BenchmarkId::from_parameter(strat.name()),
            &strat,
            |b, &strat| b.iter(|| strat.order(data.matrix(), 11)),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_orderings, bench_orderings_correlated);
criterion_main!(benches);
