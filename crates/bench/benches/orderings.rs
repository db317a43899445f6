//! Row-ordering benchmarks: RCM on BMS-like and correlated Quest-like data
//! (cost side of the `ext-orderings` experiment).

use criterion::{criterion_group, criterion_main, Criterion};

use cahd_data::profiles;
use cahd_rcm::RowOrder;

fn bench_orderings(c: &mut Criterion) {
    for (name, data) in [
        ("orderings/bms1", profiles::bms1_like(0.1, 7)),
        ("orderings/quest_corr0.9", profiles::fig6_like(0.9, 7)),
    ] {
        let mut g = c.benchmark_group(name);
        g.sample_size(10);
        g.bench_function(RowOrder::Rcm.name(), |b| {
            b.iter(|| RowOrder::Rcm.order(data.matrix()));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_orderings);
criterion_main!(benches);
