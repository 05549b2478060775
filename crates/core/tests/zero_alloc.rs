//! Steady-state searches must never touch the allocator.
//!
//! A counting global allocator wraps `System`; after warming the scratch
//! buffer up to its steady-state capacity, a burst of searches — bare
//! index probes (narrow and wide wildcard), each beside an insert and a
//! remove that keep the population constant, and the store-level read entry
//! (scan fallback, plain and sharded bit-address
//! stores, and a store with a cache-enabled spill tier attached but no
//! readahead queued) — must record exactly zero allocations. This is the
//! acceptance check for the slab + stride + directory index and the
//! scratch-buffered search hot path: at a constant population nothing in
//! the index grows, so nothing allocates.
//!
//! The spill read path is held to the same standard: materializing a
//! batch of spilled hits whose blocks are all cached allocates nothing;
//! a batch that misses one block into free space allocates at most once —
//! the decoded entry vector the cache admits — and one whose miss evicts
//! allocates nothing, because the victim's vector is what it decodes
//! into. The read plans and the frame buffer are reused.
//!
//! The file holds a single `#[test]` so no concurrent test can allocate
//! while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use amri_core::{
    BitAddressIndex, CostReceipt, IndexConfig, ScanIndex, SearchScratch, SequentialExecutor,
    SpillConfig, SpillTier, StateIndex, StateStore, TupleKey,
};
use amri_stream::{
    AccessPattern, AttrVec, SearchRequest, StreamId, Tuple, TupleId, VirtualTime, WindowSpec,
};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn jas(vals: &[u64]) -> AttrVec {
    AttrVec::from_slice(vals).unwrap()
}

fn req(mask: u32, vals: &[u64]) -> SearchRequest {
    SearchRequest::new(AccessPattern::new(mask, 3), jas(vals))
}

/// A store over `index` holding the same 1000 tuples in every case.
fn loaded_store<I: StateIndex>(index: I) -> StateStore<I> {
    let mut store = StateStore::new(
        StreamId(0),
        vec![
            amri_stream::AttrId(0),
            amri_stream::AttrId(1),
            amri_stream::AttrId(2),
        ],
        WindowSpec::secs(1_000_000),
        index,
    );
    let mut r = CostReceipt::new();
    for i in 0..1_000u64 {
        store.insert(
            Tuple::new(
                TupleId(i),
                StreamId(0),
                VirtualTime::ZERO,
                jas(&[i % 64, i % 37, i % 19]),
            ),
            &mut r,
        );
    }
    store
}

/// One search through the store's read entry, inline.
fn serve(
    store: &mut StateStore<dyn StateIndex>,
    request: &SearchRequest,
    scratch: &mut SearchScratch,
) {
    let mut r = CostReceipt::new();
    store.search(request, scratch, &mut r, &SequentialExecutor);
}

#[test]
fn steady_state_search_into_does_not_allocate() {
    // --- Bit-address index: narrow (exact) and wide (wildcard) probes. ---
    let mut idx = BitAddressIndex::new(IndexConfig::new(vec![8, 8, 8]).unwrap());
    let mut r = CostReceipt::new();
    for i in 0..10_000u64 {
        idx.insert(TupleKey(i as u32), &jas(&[i % 64, i % 37, i % 19]), &mut r);
    }
    let mut scratch = SearchScratch::new();
    let exec = &SequentialExecutor;
    // Warm-up: grow scratch.hits to the steady-state fan-out once.
    for i in 0..64u64 {
        idx.search_into(&req(0b001, &[i, 0, 0]), &mut scratch, &mut r, exec);
        idx.search_into(
            &req(0b111, &[i % 64, i % 37, i % 19]),
            &mut scratch,
            &mut r,
            exec,
        );
    }

    // --- The store-level read entry: the scan
    // fallback, a plain and a 4-shard bit-address store, and a
    // bit-address store with a cache-enabled spill tier attached whose
    // oldest half is spilled but which has no readahead queued. ---
    let config = || IndexConfig::new(vec![4, 4, 4]).unwrap();
    let spill_dir = std::env::temp_dir().join(format!("amri-zero-alloc-{}", std::process::id()));
    let mut tiered = loaded_store(BitAddressIndex::new(config()));
    tiered.enable_spill(
        SpillTier::create(&SpillConfig {
            dir: spill_dir.clone(),
            file_name: "s0.blocks".into(),
            profile: Default::default(),
            faults: Default::default(),
            seed: 7,
            cache_bytes: 1 << 20,
        })
        .unwrap(),
    );
    assert_eq!(tiered.spill_oldest(500, &mut r), 500);
    let mut scan = loaded_store(ScanIndex::new());
    let mut plain = loaded_store(BitAddressIndex::new(config()));
    let mut sharded = loaded_store(BitAddressIndex::with_shards(config(), 4));
    let mut stores: [(&mut StateStore<dyn StateIndex>, SearchScratch); 4] = [
        (&mut scan, SearchScratch::new()),
        (&mut plain, SearchScratch::new()),
        (&mut sharded, SearchScratch::new()),
        (&mut tiered, SearchScratch::new()),
    ];
    // Warm-up: grow each scratch (and the sharded probe's slots) to the
    // widest fan-out of the burst once.
    for v in 0..64u64 {
        for (store, store_scratch) in &mut stores {
            serve(store, &req(0b001, &[v, 0, 0]), store_scratch);
        }
    }

    // --- Armed: a burst of searches must record zero allocations. ---
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for round in 0..100u64 {
        for i in 0..64u64 {
            // The window slides: the oldest entry leaves, a new one enters.
            let (old, new) = (round * 64 + i, 10_000 + round * 64 + i);
            idx.remove(
                TupleKey(old as u32),
                &jas(&[old % 64, old % 37, old % 19]),
                &mut r,
            );
            idx.insert(
                TupleKey(new as u32),
                &jas(&[new % 64, new % 37, new % 19]),
                &mut r,
            );
            // Wide wildcard probe (256 candidate ids > occupied buckets).
            idx.search_into(&req(0b001, &[i, 0, 0]), &mut scratch, &mut r, exec);
            // Narrow exact probe (one candidate id).
            idx.search_into(
                &req(0b111, &[i % 64, (i + round) % 37, i % 19]),
                &mut scratch,
                &mut r,
                exec,
            );
        }
        for (store, store_scratch) in &mut stores {
            let request = req(0b001, &[round % 64, 0, 0]);
            serve(store, &request, store_scratch);
        }
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs, 0,
        "steady-state insert, remove and search_into must not allocate, saw {allocs} allocations"
    );
    assert_eq!(idx.entries(), 10_000, "the population stayed constant");
    // Sanity: the searches actually produced matches.
    for (_, store_scratch) in &stores {
        assert!(!store_scratch.hits.is_empty());
    }

    // --- Spilled hits. Block 0 holds keys 0..500; three more blocks of
    // 64 follow (keys 500..564, 564..628, 628..692). ---
    for _ in 0..3 {
        assert_eq!(tiered.spill_oldest(64, &mut r), 64);
    }
    let keys = |ids: std::ops::Range<u32>| ids.map(TupleKey);
    let warm_keys: Vec<TupleKey> = keys(0..16)
        .chain(keys(500..516))
        .chain(keys(628..644))
        .collect();
    let cold_keys: Vec<TupleKey> = keys(564..580).collect();
    let mut out = Vec::new();
    // Warm-up: cache blocks 0, 1 and 3 (block 2 stays cold), growing the
    // output buffer, both read plans and the cache's tables once.
    assert_eq!(
        tiered.materialize_batch(&warm_keys, &mut out, &mut r, &SequentialExecutor),
        0
    );
    let misses_before = tiered.spill_stats().cache_misses;

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..100 {
        tiered.materialize_batch(&warm_keys, &mut out, &mut r, &SequentialExecutor);
    }
    ARMED.store(false, Ordering::SeqCst);
    let warm_allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        warm_allocs, 0,
        "an all-cached materialize_batch must not allocate, saw {warm_allocs} allocations"
    );
    assert_eq!(tiered.spill_stats().cache_misses, misses_before);
    assert!(out.iter().all(Option::is_some));

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    tiered.materialize_batch(&cold_keys, &mut out, &mut r, &SequentialExecutor);
    ARMED.store(false, Ordering::SeqCst);
    let miss_allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(
        miss_allocs <= 1,
        "a single-block miss may allocate only the admitted entry vector, saw {miss_allocs}"
    );
    assert_eq!(tiered.spill_stats().cache_misses, misses_before + 1);
    assert!(out.iter().all(Option::is_some));
    let _ = std::fs::remove_dir_all(&spill_dir);

    // --- A miss that evicts. Three equal 64-tuple blocks behind a cache
    // budgeted for exactly two of them: fetching them round-robin misses
    // every time, and each miss fills the decode vector the block it
    // evicts gave up. ---
    let tight_dir = spill_dir.with_extension("tight");
    let tight_store = |cache_bytes: u64| {
        let mut store = loaded_store(BitAddressIndex::new(config()));
        store.enable_spill(
            SpillTier::create(&SpillConfig {
                dir: tight_dir.clone(),
                file_name: "s0.blocks".into(),
                profile: Default::default(),
                faults: Default::default(),
                seed: 7,
                cache_bytes,
            })
            .unwrap(),
        );
        let mut r = CostReceipt::new();
        for _ in 0..3 {
            assert_eq!(store.spill_oldest(64, &mut r), 64);
        }
        store
    };
    let frame = u64::from(tight_store(0).tier().unwrap().block(0).unwrap().len);
    let mut tight = tight_store(2 * frame);
    let block_keys: Vec<Vec<TupleKey>> = (0..3)
        .map(|b| keys(64 * b..64 * b + 16).collect())
        .collect();
    // Warm-up: two rounds, so the first evictions have stocked the spares.
    for b in [0, 1, 2, 0, 1, 2] {
        tight.materialize_batch(&block_keys[b], &mut out, &mut r, &SequentialExecutor);
    }
    let before = tight.spill_stats();
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for batch in &block_keys {
        tight.materialize_batch(batch, &mut out, &mut r, &SequentialExecutor);
    }
    ARMED.store(false, Ordering::SeqCst);
    let evicting_allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        evicting_allocs, 0,
        "a single-block miss that evicts must not allocate, saw {evicting_allocs} allocations"
    );
    let after = tight.spill_stats();
    assert_eq!(after.cache_misses, before.cache_misses + 3);
    assert_eq!(after.cache_evictions, before.cache_evictions + 3);
    assert!(out.iter().all(Option::is_some));
    let _ = std::fs::remove_dir_all(tight_dir);
}
