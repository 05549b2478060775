//! Cross-crate invariant: online index migration never changes query
//! answers — whatever configuration the tuner moves a state to, searches
//! return exactly what a reference scan returns.

use amri_core::assess::AssessorKind;
use amri_core::{
    AmriState, CostParams, CostReceipt, IndexConfig, ScanIndex, SearchScratch, SequentialExecutor,
    StateStore, TunerConfig, TunerKind, TupleKey,
};

/// Scratch-buffered search, collected: the migration probes care about the
/// hit *sets*, so each call copies the reused scratch buffer out.
fn search_amri(state: &mut AmriState, req: &SearchRequest, r: &mut CostReceipt) -> Vec<TupleKey> {
    let mut scratch = SearchScratch::new();
    state.search_into(req, &mut scratch, r);
    scratch.hits
}
use amri_hh::CombineStrategy;
use amri_stream::{
    AccessPattern, AttrId, AttrVec, SearchRequest, StreamId, Tuple, TupleId, VirtualDuration,
    VirtualTime, WindowSpec,
};
use proptest::prelude::*;

fn build_amri(seed: u64) -> AmriState {
    AmriState::new(
        StreamId(0),
        vec![AttrId(0), AttrId(1), AttrId(2)],
        WindowSpec::secs(1000),
        AssessorKind::Cdia(CombineStrategy::Random),
        IndexConfig::even(3, 16).unwrap(),
        TunerConfig {
            assess_period: VirtualDuration::from_secs(1),
            min_requests: 10,
            total_bits: 16,
            seed,
            ..TunerConfig::default()
        },
        CostParams::default(),
        TunerKind::Paper,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Drive an AMRI state and a scan-only reference through identical
    /// operation sequences with interleaved retunes; answers must agree.
    #[test]
    fn amri_agrees_with_scan_reference_through_migrations(
        tuples in proptest::collection::vec(proptest::collection::vec(0u64..8, 3), 20..120),
        probes in proptest::collection::vec((1u32..8, proptest::collection::vec(0u64..8, 3)), 10..60),
        seed in 0u64..1000,
    ) {
        let mut amri = build_amri(seed);
        let mut reference = StateStore::new(
            StreamId(0),
            vec![AttrId(0), AttrId(1), AttrId(2)],
            WindowSpec::secs(1000),
            ScanIndex::new(),
        );
        let mut r = CostReceipt::new();
        for (i, vals) in tuples.iter().enumerate() {
            let t = Tuple::new(
                TupleId(i as u64),
                StreamId(0),
                VirtualTime::ZERO,
                AttrVec::from_slice(vals).unwrap(),
            );
            amri.insert(t, &mut r);
            reference.insert(t, &mut r);
        }
        for (step, (mask, vals)) in probes.iter().enumerate() {
            let req = SearchRequest::new(
                AccessPattern::new(*mask, 3),
                AttrVec::from_slice(vals).unwrap(),
            );
            let mut got = search_amri(&mut amri, &req, &mut r);
            let mut expect = {
                let mut scratch = SearchScratch::new();
                reference.search(&req, &mut scratch, &mut r, &SequentialExecutor);
                scratch.hits
            };
            got.sort();
            expect.sort();
            prop_assert_eq!(&got, &expect, "divergence at probe {}", step);
            // Let the tuner migrate mid-stream.
            amri.maybe_retune(
                VirtualTime::from_secs(step as u64 + 1),
                100.0,
                100.0,
                1000.0,
                &mut r,
            );
        }
    }
}

#[test]
fn forced_migration_chain_preserves_answers() {
    // Deterministic version: walk through a chain of configurations.
    let mut amri = build_amri(7);
    let mut r = CostReceipt::new();
    for i in 0..300u64 {
        let t = Tuple::new(
            TupleId(i),
            StreamId(0),
            VirtualTime::ZERO,
            AttrVec::from_slice(&[i % 5, i % 7, i % 3]).unwrap(),
        );
        amri.insert(t, &mut r);
    }
    let req = SearchRequest::new(
        AccessPattern::from_positions(&[1], 3).unwrap(),
        AttrVec::from_slice(&[0, 4, 0]).unwrap(),
    );
    let baseline = {
        let mut v = search_amri(&mut amri, &req, &mut r);
        v.sort();
        v
    };
    assert_eq!(baseline.len(), 300 / 7 + 1); // i % 7 == 4 for i in 0..300

    // Alternate workloads to force different configurations.
    for round in 0..6u64 {
        let hot_attr = (round % 3) as usize;
        for i in 0..200u64 {
            let mut vals = AttrVec::from_slice(&[0, 0, 0]).unwrap();
            vals.set(hot_attr, i % 5);
            let probe =
                SearchRequest::new(AccessPattern::from_positions(&[hot_attr], 3).unwrap(), vals);
            search_amri(&mut amri, &probe, &mut r);
        }
        amri.maybe_retune(
            VirtualTime::from_secs(round + 1),
            1000.0,
            200.0,
            1000.0,
            &mut r,
        );
        let mut now = search_amri(&mut amri, &req, &mut r);
        now.sort();
        assert_eq!(now, baseline, "round {round}, config {}", amri.config());
    }
    let (_, migrations) = amri.tuner().stats();
    assert!(
        migrations >= 2,
        "the drifting workload must force migrations"
    );
}
