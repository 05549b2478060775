//! What a stored tuple really takes on the heap, against what the memory
//! model charges for it.
//!
//! The §V comparisons are decided by memory: a flavor dies when the bytes
//! `StateStore::memory_bytes` charges pass its budget. That verdict means
//! something only if the engine holds about what it is charged for. A
//! global allocator that tracks live heap bytes wraps `System`; a state is
//! loaded with `n` tuples of width 3 whose values are all distinct — every
//! bucket holds one tuple, the layout's worst case — and the heap it grew
//! by, per live tuple, is set against the model's charge per live tuple.
//! Each `n` sits just past a power of two, where every doubling `Vec` and
//! hash table is at its emptiest.
//!
//! * For a **multi-hash** state with the paper's three sub-indices the
//!   model is an upper bound: the real bytes never pass the charge.
//! * For a **bit-address** state it is not. Its slab, value stride,
//!   64-byte groups, directory and directory filter take more than the
//!   model's bucket and entry charges (about 1.9× at 21–22 bits per
//!   attribute, 1.6–1.8× at 1–4), and closing that gap would change the charges
//!   and so every budget verdict. The test only holds the real bytes under
//!   a fixed ceiling per tuple, so the layout cannot grow unnoticed.
//!
//! The file holds a single `#[test]` so no concurrent test can allocate
//! while the counter runs; `-- --nocapture` prints both figures per state
//! and `n`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use amri_core::{
    BitAddressIndex, CostReceipt, IndexConfig, MultiHashIndex, StateIndex, StateStore,
};
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

/// The heap a bit-address state may take per stored tuple, at any of the
/// tested sizes and configurations: the layout takes at most 352 bytes
/// (at `[21, 21, 22]`, 8 of them the directory filter), so this leaves 16
/// bytes of room. It is a growth guard, not the model's charge.
const BITADDR_CEILING: f64 = 368.0;

/// `(real heap bytes, charged bytes)` per live tuple of a state over
/// `index` holding `n` tuples with all-distinct values.
fn bytes_per_tuple<I: StateIndex>(n: u64, index: impl FnOnce() -> I) -> (f64, f64) {
    let before = LIVE.load(Ordering::SeqCst);
    let mut store = StateStore::new(
        StreamId(0),
        vec![AttrId(0), AttrId(1), AttrId(2)],
        WindowSpec::secs(1_000_000),
        index(),
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
fn a_stored_tuple_stays_under_its_charge_or_its_ceiling() {
    let patterns = [0b001, 0b011, 0b110].map(|m| AccessPattern::new(m, 3));
    for n in [1_025u64, 4_097, 16_385] {
        let (real, charged) = bytes_per_tuple(n, || MultiHashIndex::new(3, patterns.to_vec()));
        println!(
            "multi-hash, {n} tuples: {real:.0} real heap bytes per tuple, {charged:.0} charged"
        );
        assert!(
            real <= charged,
            "multi-hash, {n} tuples: {real:.0} real heap bytes per tuple, {charged:.0} charged"
        );
        for bits in [[21, 21, 22], [4, 4, 4], [1, 0, 0]] {
            let config = IndexConfig::new(bits.to_vec()).unwrap();
            let (real, charged) = bytes_per_tuple(n, || BitAddressIndex::new(config));
            println!("bit-address {bits:?}, {n} tuples: {real:.0} real heap bytes per tuple, {charged:.0} charged");
            assert!(
                real <= BITADDR_CEILING,
                "bit-address {bits:?}, {n} tuples: {real:.0} real heap bytes per tuple, over {BITADDR_CEILING}"
            );
        }
    }
}
