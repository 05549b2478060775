//! `ABL-BITS` — sweep the index-configuration width `B`: search cost for
//! narrow (full-pattern) and wide (one-attribute) requests, plus insert
//! cost, as the §III trade-off predicts.

use amri_core::{
    BitAddressIndex, CostReceipt, IndexConfig, SearchScratch, SequentialExecutor, StateIndex,
    TupleKey,
};
use amri_stream::{AccessPattern, AttrVec, SearchRequest};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn populated(total_bits: u32, n: u64) -> BitAddressIndex {
    let mut idx = BitAddressIndex::new(IndexConfig::even(3, total_bits).unwrap());
    let mut r = CostReceipt::new();
    for i in 0..n {
        idx.insert(
            TupleKey(i as u32),
            &AttrVec::from_slice(&[i % 512, i % 317, i % 129]).unwrap(),
            &mut r,
        );
    }
    idx
}

fn bench(c: &mut Criterion) {
    let n = 20_000u64;
    let exact = SearchRequest::new(
        AccessPattern::full(3),
        AttrVec::from_slice(&[100, 100, 100]).unwrap(),
    );
    let wide = SearchRequest::new(
        AccessPattern::from_positions(&[0], 3).unwrap(),
        AttrVec::from_slice(&[100, 0, 0]).unwrap(),
    );
    let mut g = c.benchmark_group("ablation_bits_search");
    for bits in [4u32, 8, 12, 16, 24, 48] {
        let idx = populated(bits, n);
        g.bench_with_input(BenchmarkId::new("exact", bits), &bits, |b, _| {
            let mut scratch = SearchScratch::new();
            b.iter(|| {
                let mut r = CostReceipt::new();
                black_box(idx.search_into(
                    black_box(&exact),
                    &mut scratch,
                    &mut r,
                    &SequentialExecutor,
                ))
            })
        });
        g.bench_with_input(BenchmarkId::new("one_attr", bits), &bits, |b, _| {
            let mut scratch = SearchScratch::new();
            b.iter(|| {
                let mut r = CostReceipt::new();
                black_box(idx.search_into(
                    black_box(&wide),
                    &mut scratch,
                    &mut r,
                    &SequentialExecutor,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
