//! The load-bearing correctness property of the whole evaluation: all four
//! index flavors are *interchangeable* — any interleaving of inserts,
//! expirations, migrations/retargets and searches yields identical answers
//! from the bit-address index, the multi-hash module, and the scan
//! reference. Figures compare their costs; this file pins their semantics.

use amri_core::{
    BitAddressIndex, CostReceipt, IndexConfig, MultiHashIndex, SequentialExecutor, StateStore,
};
use amri_stream::{
    AccessPattern, AttrId, AttrVec, SearchRequest, StreamId, Tuple, TupleId, VirtualTime,
    WindowSpec,
};
use proptest::prelude::*;

/// One scripted operation over a state.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a tuple with the given JAS values at the given second.
    Insert([u64; 3], u64),
    /// Expire at the given second.
    Expire(u64),
    /// Search with (pattern mask, values).
    Search(u32, [u64; 3]),
    /// Migrate the bit-address index / retarget the hash module.
    Adapt(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (proptest::array::uniform3(0u64..6), 0u64..40).prop_map(|(v, t)| Op::Insert(v, t)),
        (0u64..60).prop_map(Op::Expire),
        (0u32..8, proptest::array::uniform3(0u64..6)).prop_map(|(m, v)| Op::Search(m, v)),
        (0u8..6).prop_map(Op::Adapt),
    ]
}

/// Time must be monotone for window pushes: scripts carry arbitrary times,
/// so we run them through a monotonic clock (max-so-far). Every flavor is
/// driven through the engine's one write path and one read path.
struct Runner<I: amri_core::StateIndex> {
    store: StateStore<I>,
    now: u64,
    seq: u64,
}

impl<I: amri_core::StateIndex> Runner<I> {
    fn new(index: I) -> Self {
        Runner {
            store: StateStore::new(
                StreamId(0),
                vec![AttrId(0), AttrId(1), AttrId(2)],
                WindowSpec::secs(20),
                index,
            ),
            now: 0,
            seq: 0,
        }
    }

    fn insert(&mut self, vals: [u64; 3], t: u64) {
        self.now = self.now.max(t);
        let tuple = Tuple::new(
            TupleId(self.seq),
            StreamId(0),
            VirtualTime::from_secs(self.now),
            AttrVec::from_slice(&vals).unwrap(),
        );
        self.seq += 1;
        self.store.insert(tuple, &mut CostReceipt::new());
    }

    fn expire(&mut self, t: u64) {
        self.now = self.now.max(t);
        self.store
            .expire(VirtualTime::from_secs(self.now), &mut CostReceipt::new());
    }

    fn search(&mut self, mask: u32, vals: [u64; 3]) -> Vec<u64> {
        let req = SearchRequest::new(
            AccessPattern::new(mask, 3),
            AttrVec::from_slice(&vals).unwrap(),
        );
        let mut scratch = amri_core::SearchScratch::new();
        self.store.search(
            &req,
            &mut scratch,
            &mut CostReceipt::new(),
            &SequentialExecutor,
        );
        let mut keys = scratch.hits;
        keys.sort();
        keys.iter()
            .map(|k| self.store.tuple(*k).unwrap().id.0)
            .collect()
    }
}

/// The six migration targets exercised by `Op::Adapt`.
fn config(i: u8) -> IndexConfig {
    let bits = match i % 6 {
        0 => vec![4, 4, 4],
        1 => vec![12, 0, 0],
        2 => vec![0, 0, 10],
        3 => vec![1, 1, 1],
        4 => vec![8, 8, 0],
        _ => vec![0, 0, 0],
    };
    IndexConfig::new(bits).unwrap()
}

fn hash_patterns(i: u8) -> Vec<AccessPattern> {
    let masks: &[u32] = match i % 6 {
        0 => &[0b001, 0b010, 0b100],
        1 => &[0b001],
        2 => &[0b100, 0b110],
        3 => &[0b111],
        4 => &[0b011, 0b101, 0b110, 0b111],
        _ => &[0b010],
    };
    masks.iter().map(|&m| AccessPattern::new(m, 3)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_flavors_agree_on_random_scripts(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut bitaddr = Runner::new(BitAddressIndex::new(config(0)));
        let mut hash = Runner::new(MultiHashIndex::new(3, hash_patterns(0)));
        let mut scan = Runner::new(MultiHashIndex::new(3, Vec::new()));
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(vals, t) => {
                    bitaddr.insert(vals, t);
                    hash.insert(vals, t);
                    scan.insert(vals, t);
                }
                Op::Expire(t) => {
                    bitaddr.expire(t);
                    hash.expire(t);
                    scan.expire(t);
                }
                Op::Search(mask, vals) => {
                    let want = scan.search(mask, vals);
                    prop_assert_eq!(
                        &bitaddr.search(mask, vals), &want,
                        "bit-address diverged at step {}", step
                    );
                    prop_assert_eq!(
                        &hash.search(mask, vals), &want,
                        "multi-hash diverged at step {}", step
                    );
                }
                Op::Adapt(i) => {
                    bitaddr.store.index_mut().migrate_with(
                        config(i),
                        &mut CostReceipt::new(),
                        &SequentialExecutor,
                    );
                    let (index, live) = hash.store.index_mut_with_jas();
                    index.retarget(hash_patterns(i), live, &mut CostReceipt::new());
                }
            }
        }
        // Terminal cross-check over every pattern and a value grid.
        for mask in 0..8u32 {
            for v in 0..6u64 {
                let vals = [v, (v + 1) % 6, (v + 2) % 6];
                let want = scan.search(mask, vals);
                prop_assert_eq!(&bitaddr.search(mask, vals), &want);
                prop_assert_eq!(&hash.search(mask, vals), &want);
            }
        }
        prop_assert_eq!(bitaddr.store.len(), scan.store.len());
        prop_assert_eq!(hash.store.len(), scan.store.len());
    }
}
