//! The memory model is an upper bound on the heap a stored tuple really
//! takes.
//!
//! The §V comparisons are decided by memory: a flavor dies when the bytes
//! `StateStore::memory_bytes` charges pass its budget. That verdict means
//! something only if the engine never holds more than it is charged for. A
//! global allocator that tracks live heap bytes wraps `System`; a
//! multi-hash state with the paper's three sub-indices is loaded with `n`
//! tuples of width 3 whose values are all distinct — every bucket of every
//! sub-index holds one tuple, the layout's worst case — and the heap it
//! grew by, per live tuple, must not pass the model's charge per live
//! tuple. Each `n` sits just past a power of two, where every doubling
//! `Vec` and hash table is at its emptiest.
//!
//! The file holds a single `#[test]` so no concurrent test can allocate
//! while the counter runs; `-- --nocapture` prints both figures per `n`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use amri_core::{CostReceipt, MultiHashIndex, StateStore};
use amri_stream::{
    AccessPattern, AttrId, AttrVec, StreamId, Tuple, TupleId, VirtualTime, WindowSpec,
};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

/// `(real heap bytes, charged bytes)` per live tuple of a paper-module
/// state holding `n` tuples with all-distinct values.
fn bytes_per_tuple(n: u64) -> (f64, f64) {
    let patterns = [0b001, 0b011, 0b110].map(|m| AccessPattern::new(m, 3));
    let before = LIVE.load(Ordering::SeqCst);
    let mut store = StateStore::new(
        StreamId(0),
        vec![AttrId(0), AttrId(1), AttrId(2)],
        WindowSpec::secs(1_000_000),
        MultiHashIndex::new(3, patterns.to_vec()),
    );
    let mut r = CostReceipt::new();
    for i in 0..n {
        let attrs = AttrVec::from_slice(&[i, n + i, 2 * n + i]).unwrap();
        store.insert(
            Tuple::new(TupleId(i), StreamId(0), VirtualTime::ZERO, attrs),
            &mut r,
        );
    }
    let real = (LIVE.load(Ordering::SeqCst) - before) as f64 / n as f64;
    let charged = store.memory_bytes() as f64 / store.len() as f64;
    drop(store);
    (real, charged)
}

#[test]
fn a_stored_tuple_takes_no_more_heap_than_the_model_charges() {
    for n in [1_025u64, 4_097, 16_385] {
        let (real, charged) = bytes_per_tuple(n);
        println!("{n} tuples: {real:.0} real heap bytes per tuple, {charged:.0} charged");
        assert!(
            real <= charged,
            "{n} tuples: {real:.0} real heap bytes per tuple, {charged:.0} charged"
        );
    }
}
