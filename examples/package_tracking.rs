//! The paper's §I-A motivating scenario: a package-tracking DSMS whose
//! sensors emit (priority_code, package_id, location_id). Compare the
//! multi-hash access module of the worked example (indices on A1, A1&A2,
//! A2&A3) against a single bit-address index on the two §I-A search
//! requests — including `sr₂`, which the hash module can only answer with
//! a full scan.
//!
//! Run with `cargo run -p amri-apps --example package_tracking`.

use amri_core::{
    BitAddressIndex, CostParams, CostReceipt, IndexConfig, MultiHashIndex, ScanIndex, StateStore,
};
use amri_stream::{
    AccessPattern, AttrId, AttrVec, SearchRequest, StreamId, Tuple, TupleId, VirtualTime,
    WindowSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sensor_tuple(rng: &mut StdRng, id: u64) -> Tuple {
    Tuple::new(
        TupleId(id),
        StreamId(0),
        VirtualTime::ZERO,
        AttrVec::from_slice(&[
            rng.gen_range(0..4096),    // priority code
            rng.gen_range(0..100_000), // package id
            rng.gen_range(0..512),     // location id
        ])
        .unwrap(),
    )
}

fn main() {
    let jas = vec![AttrId(0), AttrId(1), AttrId(2)];
    let window = WindowSpec::secs(3600);
    let params = CostParams::default();
    let ap = |m: u32| AccessPattern::new(m, 3);

    // The paper's Figure 1 access module: A1, A1&A2, A2&A3.
    let mut hash_state = StateStore::new(
        StreamId(0),
        jas.clone(),
        window,
        MultiHashIndex::new(vec![ap(0b001), ap(0b011), ap(0b110)]),
    );
    // The paper's Figure 3 bit-address index: 10 bits = 5|2|3.
    let mut bi_state = StateStore::new(
        StreamId(0),
        jas.clone(),
        window,
        BitAddressIndex::new(IndexConfig::new(vec![5, 2, 3]).unwrap()),
    );
    // Reference: no index.
    let mut scan_state = StateStore::new(StreamId(0), jas, window, ScanIndex::new());

    let mut rng = StdRng::seed_from_u64(2012);
    let mut insert_hash = CostReceipt::new();
    let mut insert_bi = CostReceipt::new();
    for i in 0..50_000 {
        let t = sensor_tuple(&mut rng, i);
        hash_state.insert(t, &mut insert_hash);
        bi_state.insert(t, &mut insert_bi);
        scan_state.insert(t, &mut CostReceipt::new());
    }
    println!("50k sensor readings stored");
    println!(
        "maintenance ticks  multi-hash: {:>10.0}   bit-address: {:>10.0}",
        params.ticks(&insert_hash).0,
        params.ticks(&insert_bi).0
    );
    println!(
        "index memory bytes multi-hash: {:>10}   bit-address: {:>10}",
        hash_state.memory_bytes(),
        bi_state.memory_bytes()
    );

    // sr₁: priority = 2012 AND location = 47 (pattern <A1, *, A3>).
    let sr1 = SearchRequest::new(ap(0b101), AttrVec::from_slice(&[2012, 0, 47]).unwrap());
    // sr₂: location = 47 only (pattern <*, *, A3>) — no suitable hash index.
    let sr2 = SearchRequest::new(ap(0b100), AttrVec::from_slice(&[0, 0, 47]).unwrap());

    for (name, sr) in [("sr1 <A1,*,A3>", &sr1), ("sr2 <*,*,A3>", &sr2)] {
        println!("\nsearch {name}:");
        for (label, hits, receipt) in [
            run(&mut hash_state, sr),
            run(&mut bi_state, sr),
            run(&mut scan_state, sr),
        ] {
            println!(
                "  {label:<12} {hits:>4} hits  {:>8} comparisons  {:>6} bucket probes  {:>8.0} ticks",
                receipt.comparisons,
                receipt.bucket_probes,
                params.ticks(&receipt).0
            );
        }
    }
    println!(
        "\nNote sr2: the access module falls back to a 50k-tuple scan (§I-A),\n\
         while the bit-address index visits only the buckets matching A3."
    );
}

/// One search through the store's read entry, inline.
fn run(
    state: &mut StateStore<dyn amri_core::StateIndex>,
    sr: &SearchRequest,
) -> (&'static str, usize, CostReceipt) {
    let mut scratch = amri_core::SearchScratch::new();
    let mut receipt = CostReceipt::new();
    state.search(
        sr,
        &mut scratch,
        &mut receipt,
        &amri_core::SequentialExecutor,
    );
    (state.index().kind(), scratch.hits.len(), receipt)
}
