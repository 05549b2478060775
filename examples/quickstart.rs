//! Quickstart: build one AMRI-tuned state, feed it tuples and search
//! requests, and watch the tuner migrate the index toward the workload.
//!
//! Run with `cargo run -p amri-apps --example quickstart`.

use amri_core::assess::AssessorKind;
use amri_core::{
    AmriState, CostParams, CostReceipt, IndexConfig, SearchScratch, TunerConfig, TunerKind,
};
use amri_hh::CombineStrategy;
use amri_stream::{
    AccessPattern, AttrId, AttrVec, SearchRequest, StreamId, Tuple, TupleId, VirtualDuration,
    VirtualTime, WindowSpec,
};

fn main() {
    // A state for a stream with three join attributes, 30-second window,
    // tuned by CDIA with highest-count combination, starting from an even
    // 12-bit index configuration.
    let mut state = AmriState::new(
        StreamId(0),
        vec![AttrId(0), AttrId(1), AttrId(2)],
        WindowSpec::secs(30),
        AssessorKind::Cdia(CombineStrategy::HighestCount),
        IndexConfig::even(3, 12).unwrap(),
        TunerConfig {
            assess_period: VirtualDuration::from_secs(5),
            min_requests: 100,
            total_bits: 12,
            ..TunerConfig::default()
        },
        CostParams::default(),
        TunerKind::Paper,
    )
    .expect("valid configuration");

    println!("initial configuration: {}", state.config());

    // Store 1000 tuples.
    let mut receipt = CostReceipt::new();
    for i in 0..1000u64 {
        let t = Tuple::new(
            TupleId(i),
            StreamId(0),
            VirtualTime::ZERO,
            AttrVec::from_slice(&[i % 50, i % 20, i % 10]).unwrap(),
        );
        state.insert(t, &mut receipt);
    }
    println!(
        "stored {} tuples ({} hash ops charged)",
        state.store().len(),
        receipt.hash_ops
    );

    // A workload that only ever searches on attribute A. The scratch
    // buffer is reused across requests, so steady state never allocates.
    let mut scratch = SearchScratch::new();
    let mut receipt = CostReceipt::new();
    let mut hits = 0;
    for i in 0..500u64 {
        let req = SearchRequest::new(
            AccessPattern::from_positions(&[0], 3).unwrap(),
            AttrVec::from_slice(&[i % 50, 0, 0]).unwrap(),
        );
        state.search_into(&req, &mut scratch, &mut receipt);
        hits += scratch.hits.len();
    }
    println!(
        "500 A-only searches: {hits} hits, {} comparisons before tuning",
        receipt.comparisons
    );

    // Let the tuner react.
    let mut migration = CostReceipt::new();
    let report = state
        .maybe_retune(
            VirtualTime::from_secs(5),
            1000.0,
            100.0,
            30.0,
            &mut migration,
        )
        .expect("the tuner must react to a single-pattern workload");
    println!(
        "retuned to {} (moved {} entries, predicted gain {:.0} ticks/s)",
        report.config, report.moved, report.predicted_gain
    );

    // The same searches are now cheaper.
    let mut receipt = CostReceipt::new();
    for i in 0..500u64 {
        let req = SearchRequest::new(
            AccessPattern::from_positions(&[0], 3).unwrap(),
            AttrVec::from_slice(&[i % 50, 0, 0]).unwrap(),
        );
        state.search_into(&req, &mut scratch, &mut receipt);
    }
    println!(
        "same searches after tuning: {} comparisons",
        receipt.comparisons
    );
}
