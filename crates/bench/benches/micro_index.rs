//! Micro-benchmarks of the physical index operations (§III): insert,
//! exact/wildcard search and migration for the bit-address index vs the
//! multi-hash access module vs a full scan.

use amri_core::{
    BitAddressIndex, CostReceipt, IndexConfig, IoFaultConfig, MultiHashIndex, SearchScratch,
    SequentialExecutor, SpillConfig, SpillTier, StateIndex, StateStore, StorageProfile, TupleKey,
};
use amri_engine::{Job, WorkerPool};
use amri_stream::{
    AccessPattern, AttrId, AttrVec, JobQueue, PackedPartial, PartialTuple, SearchRequest, StreamId,
    Tuple, TupleId, VirtualTime, WindowSpec,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn jas(i: u64) -> AttrVec {
    AttrVec::from_slice(&[i % 64, i % 37, i % 19]).unwrap()
}

fn populated_bitaddr(n: u64, bits: Vec<u8>) -> BitAddressIndex {
    let mut idx = BitAddressIndex::new(IndexConfig::new(bits).unwrap());
    let mut r = CostReceipt::new();
    for i in 0..n {
        idx.insert(TupleKey(i as u32), &jas(i), &mut r);
    }
    idx
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_insert");
    g.bench_function("bitaddr_64bit", |b| {
        let mut idx = BitAddressIndex::new(IndexConfig::even(3, 64).unwrap());
        let mut i = 0u64;
        b.iter(|| {
            let mut r = CostReceipt::new();
            idx.insert(TupleKey(i as u32), &jas(i), &mut r);
            i += 1;
            black_box(r.hash_ops)
        });
    });
    for k in [1usize, 4, 7] {
        g.bench_with_input(BenchmarkId::new("multihash", k), &k, |b, &k| {
            let patterns: Vec<AccessPattern> = AccessPattern::all(3)
                .filter(|p| !p.is_empty())
                .take(k)
                .collect();
            let mut idx = MultiHashIndex::new(3, patterns);
            let mut i = 0u64;
            b.iter(|| {
                let mut r = CostReceipt::new();
                idx.insert(TupleKey(i as u32), &jas(i), &mut r);
                i += 1;
                black_box(r.hash_ops)
            });
        });
    }
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_search_10k");
    let n = 10_000;
    let bitaddr = populated_bitaddr(n, vec![8, 8, 8]);
    let exact = SearchRequest::new(AccessPattern::full(3), jas(500));
    let wild = SearchRequest::new(
        AccessPattern::from_positions(&[0], 3).unwrap(),
        AttrVec::from_slice(&[500 % 64, 0, 0]).unwrap(),
    );
    // The engine's actual hot path: scratch-buffered, zero allocations
    // in steady state.
    g.bench_function("bitaddr_exact_into", |b| {
        let mut scratch = SearchScratch::new();
        b.iter(|| {
            let mut r = CostReceipt::new();
            bitaddr.search_into(black_box(&exact), &mut scratch, &mut r, &SequentialExecutor);
            black_box(scratch.hits.len())
        })
    });
    g.bench_function("bitaddr_one_attr_wildcard_into", |b| {
        let mut scratch = SearchScratch::new();
        b.iter(|| {
            let mut r = CostReceipt::new();
            bitaddr.search_into(black_box(&wild), &mut scratch, &mut r, &SequentialExecutor);
            black_box(scratch.hits.len())
        })
    });
    g.bench_function("scan_reference", |b| {
        // What the arena-scan fallback costs at state level: compare all 10k tuples.
        let tuples: Vec<AttrVec> = (0..n).map(jas).collect();
        b.iter(|| {
            let mut hits = 0u32;
            for t in &tuples {
                if exact.matches(t.as_slice()) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    // The §V a3 shape: an exact probe whose bucket it shares with other
    // entries. Under [5, 5, 0] each of the 1 024 ids holds ~10 of the 10k
    // entries (13 in the probe's), exactly one of them the probe's: the rest
    // differ in a value the bucket id does not tell apart, and the walk
    // rejects them by tag.
    let crowded = populated_bitaddr(n, vec![5, 5, 0]);
    let mut r = CostReceipt::new();
    let mut scratch = SearchScratch::new();
    crowded.search_into(&exact, &mut scratch, &mut r, &SequentialExecutor);
    assert!(
        scratch.hits.len() == 1 && r.comparisons >= 8,
        "crowded bucket: {} hits over {} compared",
        scratch.hits.len(),
        r.comparisons
    );
    g.bench_function("bitaddr_exact_crowded_into", |b| {
        let mut scratch = SearchScratch::new();
        b.iter(|| {
            let mut r = CostReceipt::new();
            crowded.search_into(black_box(&exact), &mut scratch, &mut r, &SequentialExecutor);
            black_box(scratch.hits.len())
        })
    });
    // The scan fallback as the engine calls it: `StateStore::search` on a
    // store of 10k tuples with no index, which compares every arena row
    // against the request decoded once.
    g.bench_function("scan_state_into", |b| {
        let mut store = StateStore::new(
            StreamId(0),
            vec![AttrId(0), AttrId(1), AttrId(2)],
            WindowSpec::secs(1 << 20),
            MultiHashIndex::new(3, Vec::new()),
        );
        let mut r = CostReceipt::new();
        for i in 0..n {
            store.insert(
                Tuple::new(TupleId(i), StreamId(0), VirtualTime::from_secs(i), jas(i)),
                &mut r,
            );
        }
        let mut scratch = SearchScratch::new();
        b.iter(|| {
            let mut r = CostReceipt::new();
            store.search(black_box(&exact), &mut scratch, &mut r, &SequentialExecutor);
            black_box(scratch.hits.len())
        })
    });
    g.finish();
}

/// Sharded probes through the engine's persistent worker pool at 1, 2
/// and 4 threads: 64 requests, each its own dispatch through the index's
/// `search_into` — the shape the engine's probe step issues.
/// The index, shard count (4) and requests are identical across thread
/// counts, so the ids differ only in executor parallelism. The probe
/// family in `BENCH_parallel.json` was measured on the removed
/// one-dispatch-per-batch path and is history, not a baseline for this
/// loop. These ids are deliberately *not* in `BENCH_index.json`, so
/// `bench_guard.sh` never gates on them.
fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_parallel_10k");
    g.sample_size(20);
    let n = 10_000u64;
    let mut idx = BitAddressIndex::with_shards(IndexConfig::new(vec![8, 8, 8]).unwrap(), 4);
    let mut r = CostReceipt::new();
    for i in 0..n {
        idx.insert(TupleKey(i as u32), &jas(i), &mut r);
    }
    // Single-attribute wildcard probes (2^16 candidate buckets each —
    // the wide, slab-walking shape that parallelizes).
    let reqs: Vec<SearchRequest> = (0..64u64)
        .map(|i| {
            SearchRequest::new(
                AccessPattern::from_positions(&[0], 3).unwrap(),
                AttrVec::from_slice(&[i % 64, 0, 0]).unwrap(),
            )
        })
        .collect();
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("wildcard_batch_probe_threads", threads),
            &threads,
            |b, &threads| {
                let pool = WorkerPool::new(std::num::NonZeroUsize::new(threads).unwrap());
                let mut scratch = SearchScratch::new();
                b.iter(|| {
                    let mut receipt = CostReceipt::new();
                    let mut hits = 0usize;
                    for req in black_box(&reqs) {
                        idx.search_into(req, &mut scratch, &mut receipt, &pool);
                        hits += scratch.hits.len();
                    }
                    black_box(hits)
                });
            },
        );
    }
    g.finish();
}

fn bench_migrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_migrate_10k");
    g.sample_size(20);
    g.bench_function("bitaddr_full_rebucket", |b| {
        b.iter_batched(
            || populated_bitaddr(10_000, vec![8, 8, 8]),
            |mut idx| {
                let mut r = CostReceipt::new();
                idx.migrate_with(
                    IndexConfig::new(vec![4, 10, 10]).unwrap(),
                    &mut r,
                    &SequentialExecutor,
                );
                black_box(r.moved)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Sharded migration — `migrate_with` on the identical populated 4-shard
/// index at 1, 2 and 4 threads. The [8,8,8] → [4,10,10] target moves
/// entries across shard boundaries, so this exercises the gather +
/// redistribute path (the expensive one), not the in-place relink.
fn bench_migrate_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("migrate_parallel_10k");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("bitaddr_sharded_rebucket_threads", threads),
            &threads,
            |b, &threads| {
                let pool = WorkerPool::new(std::num::NonZeroUsize::new(threads).unwrap());
                b.iter_batched(
                    || {
                        let mut idx = BitAddressIndex::with_shards(
                            IndexConfig::new(vec![8, 8, 8]).unwrap(),
                            4,
                        );
                        let mut r = CostReceipt::new();
                        for i in 0..10_000u64 {
                            idx.insert(TupleKey(i as u32), &jas(i), &mut r);
                        }
                        idx
                    },
                    |mut idx| {
                        let mut r = CostReceipt::new();
                        idx.migrate_with(IndexConfig::new(vec![4, 10, 10]).unwrap(), &mut r, &pool);
                        black_box(r.moved)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();
}

/// A populated state with a disk spill tier attached: 4k tuples over a
/// window wide enough that nothing expires mid-measurement.
fn spill_store(tag: &str) -> StateStore<MultiHashIndex> {
    spill_store_with(tag, StorageProfile::default(), 0)
}

/// `spill_store` with an explicit storage profile and block-cache budget.
fn spill_store_with(
    tag: &str,
    profile: StorageProfile,
    cache_bytes: u64,
) -> StateStore<MultiHashIndex> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("amri-bench-spill-{}-{tag}-{n}", std::process::id()));
    let tier = SpillTier::create(&SpillConfig {
        dir,
        file_name: "s0.blocks".into(),
        profile,
        faults: IoFaultConfig::default(),
        seed: 11,
        cache_bytes,
    })
    .expect("temp dir block store");
    let mut store = StateStore::new(
        StreamId(0),
        vec![AttrId(0), AttrId(1), AttrId(2)],
        WindowSpec::secs(1 << 20),
        MultiHashIndex::new(3, Vec::new()),
    )
    .with_payload_bytes(64);
    store.enable_spill(tier);
    let mut r = CostReceipt::new();
    for i in 0..4_000u64 {
        store.insert(
            Tuple::new(TupleId(i), StreamId(0), VirtualTime::from_secs(i), jas(i)),
            &mut r,
        );
    }
    store
}

/// Materialize `key` alone: the one-key batch a probe with one spilled
/// hit hands its store.
fn materialize_one(
    store: &mut StateStore<MultiHashIndex>,
    key: TupleKey,
    out: &mut Vec<Option<Tuple>>,
) -> Tuple {
    let lost = store.materialize_batch(&[key], out, &mut CostReceipt::new(), &SequentialExecutor);
    assert_eq!(lost, 0, "block store intact");
    out[0].expect("spilled and live")
}

/// The spill tier's data path (the robustness tentpole): cold tuples
/// leave RAM for the checksummed block store in 256-tuple chunks, hot
/// blocks come home through `promote_hottest`, and a probe-hit stub is
/// materialized from disk through a zero-byte cache. Wall time here is
/// the real `fsync`-free file I/O plus frame checksumming — the physical
/// cost the virtual `StorageProfile` models.
fn bench_spill(c: &mut Criterion) {
    let mut g = c.benchmark_group("spill_4k");
    g.sample_size(20);
    g.bench_function("spill_promote_round_trip", |b| {
        b.iter_batched(
            || spill_store("round-trip"),
            |mut store| {
                let mut r = CostReceipt::new();
                let mut moved = 0usize;
                while store.spilled_frac() < 0.5 {
                    moved += store
                        .spill_oldest(256, &mut r)
                        .expect("no faults are injected");
                }
                // min_reads 0: promote unconditionally, one block per call.
                while store.spilled_len() > 0 {
                    moved += store.promote_hottest(0, &mut r).moved;
                }
                black_box(moved)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.bench_function("materialize_spilled_hit", |b| {
        b.iter_batched(
            || {
                let mut store = spill_store("materialize");
                let mut r = CostReceipt::new();
                while store.spilled_frac() < 0.5 {
                    store
                        .spill_oldest(256, &mut r)
                        .expect("no faults are injected");
                }
                (store, Vec::new())
            },
            |(mut store, mut out)| {
                // The oldest tuple is spill-resident; a hit on it pays one
                // verified block read.
                black_box(materialize_one(&mut store, TupleKey(0), &mut out).id)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The spill-tier fast path: decoded-block cache hits, coalesced batch
/// reads and expiry-order readahead, measured against the cold verified
/// read they replace. The acceptance bar: a warm hit beats the cold
/// materialize by ≥ 5x, and a coalesced 64-hit batch beats 64
/// independent reads by ≥ 3x.
fn bench_spill_cached(c: &mut Criterion) {
    const CACHE: u64 = 1 << 20; // 1 MiB: plenty for every spilled block.
    let exec = amri_core::SequentialExecutor;

    // Fresh half-spilled store; keys 0..64 all land in the first block.
    let half_spilled = |tag: &str, profile: StorageProfile, cache: u64| {
        let mut store = spill_store_with(tag, profile, cache);
        let mut r = CostReceipt::new();
        while store.spilled_frac() < 0.5 {
            store
                .spill_oldest(256, &mut r)
                .expect("no faults are injected");
        }
        store
    };

    let mut g = c.benchmark_group("spill_cached_4k");
    g.sample_size(20);

    // Cold read: a 1 MiB cache, empty — a miss pays the verified
    // device read plus decode plus admission.
    g.bench_function("cold_read", |b| {
        b.iter_batched(
            || {
                (
                    half_spilled("cold", StorageProfile::default(), CACHE),
                    Vec::new(),
                )
            },
            |(mut store, mut out)| black_box(materialize_one(&mut store, TupleKey(0), &mut out).id),
            criterion::BatchSize::LargeInput,
        )
    });

    // Warm hit: the block is already decoded in the cache — no file I/O,
    // no checksum, no decode; the batch bookkeeping, the slot lookup and
    // the entry scan.
    g.bench_function("warm_hit", |b| {
        let mut store = half_spilled("warm", StorageProfile::default(), CACHE);
        let mut out = Vec::new();
        materialize_one(&mut store, TupleKey(0), &mut out); // the warming read
        b.iter(|| black_box(materialize_one(&mut store, TupleKey(0), &mut out).id))
    });

    // Coalesced batch: 64 stub hits in one probe batch, grouped by
    // block — one verified read serves all of them.
    let keys: Vec<TupleKey> = (0..64).map(TupleKey).collect();
    g.bench_function("coalesced_batch_64", |b| {
        b.iter_batched(
            || {
                (
                    half_spilled("batch", StorageProfile::default(), CACHE),
                    Vec::new(),
                )
            },
            |(mut store, mut out)| {
                let mut r = CostReceipt::new();
                let lost = store.materialize_batch(&keys, &mut out, &mut r, &exec);
                assert_eq!(lost, 0);
                black_box(out.len())
            },
            criterion::BatchSize::LargeInput,
        )
    });

    // The baseline the batch replaces: 64 one-key batches through a
    // zero-byte cache, each paying its own device read.
    g.bench_function("independent_64", |b| {
        b.iter_batched(
            || {
                (
                    half_spilled("indep", StorageProfile::default(), 0),
                    Vec::new(),
                )
            },
            |(mut store, mut out)| {
                let mut sum = 0u64;
                for &k in &keys {
                    sum += materialize_one(&mut store, k, &mut out).id.0;
                }
                black_box(sum)
            },
            criterion::BatchSize::LargeInput,
        )
    });

    // A batch wider than the cache: 64 stub hits striped over eight
    // blocks, through a cache budgeted for four of their frames. Steady
    // state: each pass finds four blocks resident and reads the other four
    // once each, every decode serving its eight hits before its admission
    // evicts a block the batch is already done with.
    g.bench_function("sweep_over_budget", |b| {
        let probe = half_spilled("sweep-probe", StorageProfile::default(), CACHE);
        let frame = probe.tier().and_then(|t| t.block(0)).expect("a block").len;
        let mut store = half_spilled("sweep", StorageProfile::default(), 4 * u64::from(frame));
        let striped: Vec<TupleKey> = (0..8)
            .flat_map(|j| (0..8).map(move |block| TupleKey(256 * block + j)))
            .collect();
        let mut out = Vec::new();
        b.iter(|| {
            let mut r = CostReceipt::new();
            let lost = store.materialize_batch(&striped, &mut out, &mut r, &exec);
            assert_eq!(lost, 0);
            black_box(out.len())
        })
    });

    // Expiry-order readahead: plan the next-oldest blocks, then drain the
    // prefetch the way the engine does — ahead of the next probe, inside
    // the store's read entry (so the timed region includes that probe's
    // arena scan).
    let probe = SearchRequest::new(AccessPattern::full(3), jas(0));
    g.bench_function("readahead_drain_2", |b| {
        let profile = StorageProfile {
            readahead_blocks: 2,
            ..StorageProfile::default()
        };
        b.iter_batched(
            || {
                (
                    half_spilled("readahead", profile, CACHE),
                    SearchScratch::new(),
                )
            },
            |(mut store, mut scratch)| {
                let mut r = CostReceipt::new();
                store.schedule_readahead();
                store.search(&probe, &mut scratch, &mut r, &exec);
                black_box(store.cache_used_bytes())
            },
            criterion::BatchSize::LargeInput,
        )
    });

    g.finish();
}

/// The backlog half of a probe step: push one §V-shaped job (4 streams ×
/// 3 attributes, two of them covered: 12 words with framing), pop its
/// words into a reused buffer and read it through the packed view — no
/// `Job` is decoded, as in `probe_step`.
fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("job_queue");
    g.bench_function("push_pop_words_view", |b| {
        let base = Tuple::new(TupleId(1), StreamId(0), VirtualTime::from_secs(8), jas(500));
        let job = Job {
            pt: PartialTuple::from_base(&base).extend(
                StreamId(2),
                jas(7),
                VirtualTime::from_secs(5),
            ),
            origin_ts: base.ts,
            enqueued: VirtualTime::from_secs(9),
        };
        let mut q = JobQueue::new();
        // A standing backlog, so pushes and pops cross chunk boundaries.
        for _ in 0..100 {
            q.push(job);
        }
        let mut words = Vec::new();
        b.iter(|| {
            q.push_packed(black_box(&job));
            q.pop_words(&mut words);
            let view = PackedPartial::new(&words[2..]);
            black_box(view.part(StreamId(2)).map(|part| part[1]))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_queue,
    bench_insert,
    bench_search,
    bench_parallel,
    bench_migrate,
    bench_migrate_parallel,
    bench_spill,
    bench_spill_cached
);
criterion_main!(benches);
