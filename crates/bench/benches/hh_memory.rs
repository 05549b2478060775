//! `EXP-MEM-BOUND` — heavy-hitter summaries: observation throughput of
//! the backends the assessors run on (the memory-bound *assertions* live
//! in the property tests; here we measure the time cost of staying
//! compact).

use amri_hh::{
    CombineStrategy, ExactCounter, FrequencyEstimator, HhhConfig, HierarchicalHeavyHitters,
    LossyCounter,
};
use amri_stream::AccessPattern;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn skewed_stream(n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(17);
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.6 {
                rng.gen_range(0..4)
            } else {
                rng.gen_range(0..100_000)
            }
        })
        .collect()
}

fn bench_counters(c: &mut Criterion) {
    let mut g = c.benchmark_group("hh_observe_100k");
    g.sample_size(20);
    let stream = skewed_stream(100_000);
    g.bench_function("exact", |b| {
        b.iter(|| {
            let mut x = ExactCounter::new();
            for &v in &stream {
                x.observe(v);
            }
            black_box(x.entries())
        })
    });
    g.bench_function("lossy_eps_0.001", |b| {
        b.iter(|| {
            let mut x = LossyCounter::new(0.001);
            for &v in &stream {
                x.observe(v);
            }
            black_box(x.entries())
        })
    });
    g.finish();
}

fn bench_hhh(c: &mut Criterion) {
    let mut g = c.benchmark_group("hhh_observe_100k");
    g.sample_size(20);
    let mut rng = StdRng::seed_from_u64(23);
    let stream: Vec<AccessPattern> = (0..100_000)
        .map(|_| AccessPattern::new(rng.gen_range(0..256), 8))
        .collect();
    for strategy in [CombineStrategy::Random, CombineStrategy::HighestCount] {
        g.bench_function(format!("{strategy:?}"), |b| {
            b.iter(|| {
                let mut h = HierarchicalHeavyHitters::new(
                    8,
                    HhhConfig {
                        epsilon: 0.001,
                        strategy,
                        seed: 3,
                    },
                );
                for &p in &stream {
                    h.observe(p);
                }
                black_box(h.entries())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_counters, bench_hhh);
criterion_main!(benches);
