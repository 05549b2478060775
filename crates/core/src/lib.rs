//! # amri-core — the Adaptive Multi-Route Index
//!
//! The paper's primary contribution (Works, Rundensteiner, Agu; IPPS 2010):
//! a single versatile **bit-address index** per join state, plus an online
//! tuner that keeps its *index configuration* (how many bucket-id bits each
//! join attribute gets) matched to the continuously shifting access-pattern
//! workload of an adaptive multi-route (Eddy-style) stream engine.
//!
//! Module map:
//!
//! * [`config`] — the index key map ([`IndexConfig`]): bits-per-attribute
//!   layout, bucket-id derivation, wildcard search planning (§III).
//! * [`cost`] — the configuration-dependent cost model `C_D` (Eq. 1, §IV-A)
//!   and the cost receipts every physical operation fills in.
//! * [`layout`] — the byte-accounting constants behind the memory model.
//! * [`state`] — windowed tuple store ([`StateStore`]) generic over a
//!   pluggable [`StateIndex`].
//! * [`bitaddr`] — the bit-address index itself, including live migration
//!   between configurations.
//! * [`parallel`] — the shard-task execution seam ([`ShardExecutor`]) and
//!   the scoped fan-out behind it: sequential here, sized by the engine's
//!   worker pool in `amri-engine`.
//! * [`hash_index`] — the state-of-the-art baseline: multiple hash indices
//!   per state (access modules, Raman et al. \[5\]); with no index, the
//!   no-index baseline (every search scans).
//! * [`assess`] — the four assessment methods: SRIA, CSRIA, DIA, CDIA
//!   (§IV-C, §IV-D), behind one [`Assessor`] trait.
//! * [`selection`] — picking the cheapest configuration for a set of
//!   frequent patterns (greedy marginal-gain + exhaustive reference).
//! * [`tier`] — the disk spill tier: checksummed append-only block store
//!   cold window buckets migrate into, with seeded I/O fault injection.
//! * [`whatif`] — hypothetical-index what-if evaluation: price any
//!   candidate configuration against an observed assessment window
//!   without building it.
//! * [`tuner`] — the online tuning loop: assess → select → migrate. Three
//!   policies behind the [`TunerKind`] seam: the paper's greedy tuner, a
//!   safe bandit tuner with bounded regret, and a static baseline.
//!
//! The glued-together product — a [`StateStore`] over a
//! [`BitAddressIndex`] plus the [`Tuner`] that retunes it — is
//! `amri_engine::JoinState::amri`, the state an AMR engine instantiates
//! per stream.
//!
//! # Example
//!
//! ```
//! use amri_core::assess::AssessorKind;
//! use amri_core::{
//!     CostParams, CostReceipt, IndexConfig, SearchScratch, SequentialExecutor, TunerConfig,
//!     TunerKind,
//! };
//! use amri_engine::JoinState;
//! use amri_hh::CombineStrategy;
//! use amri_stream::{
//!     AccessPattern, AttrId, AttrVec, SearchRequest, StreamId, Tuple, TupleId,
//!     VirtualDuration, VirtualTime, WindowSpec,
//! };
//!
//! // One state with a 3-attribute JAS, tuned by CDIA.
//! let mut state = JoinState::amri(
//!     StreamId(0),
//!     vec![AttrId(0), AttrId(1), AttrId(2)],
//!     WindowSpec::secs(30),
//!     AssessorKind::Cdia(CombineStrategy::HighestCount),
//!     IndexConfig::even(3, 12)?,
//!     TunerConfig {
//!         assess_period: VirtualDuration::from_secs(1),
//!         min_requests: 10,
//!         total_bits: 12,
//!         ..TunerConfig::default()
//!     },
//!     CostParams::default(),
//!     0,
//!     TunerKind::Paper,
//! )?;
//!
//! let mut receipt = CostReceipt::new();
//! for i in 0..100u64 {
//!     let tuple = Tuple::new(
//!         TupleId(i),
//!         StreamId(0),
//!         VirtualTime::ZERO,
//!         AttrVec::from_slice(&[i % 10, i % 5, i % 3]).unwrap(),
//!     );
//!     state.ingest(tuple, VirtualTime::ZERO, &mut receipt);
//! }
//!
//! // A workload that searches only on the first attribute...
//! let mut scratch = SearchScratch::new();
//! for i in 0..50u64 {
//!     let request = SearchRequest::new(
//!         AccessPattern::from_positions(&[0], 3).unwrap(),
//!         AttrVec::from_slice(&[i % 10, 0, 0]).unwrap(),
//!     );
//!     state.search(&request, &mut scratch, &mut receipt, &SequentialExecutor);
//!     assert_eq!(scratch.hits.len(), 10);
//! }
//!
//! // ...drives the tuner to concentrate the key map on that attribute.
//! let now = VirtualTime::from_secs(2);
//! let retune = state
//!     .maybe_retune_with(now, 1000.0, 50.0, 30.0, &mut receipt, &SequentialExecutor)
//!     .expect("a single-pattern workload forces a migration");
//! assert_eq!(retune.moved, 100);
//! # Ok::<(), amri_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assess;
pub mod bitaddr;
pub mod config;
pub mod cost;
pub mod error;
pub mod hash_index;
pub mod layout;
pub mod parallel;
pub mod selection;
pub mod snapshot_io;
pub mod state;
pub mod tier;
pub mod tuner;
pub mod whatif;

pub use assess::{Assessor, AssessorKind};
pub use bitaddr::{BitAddressIndex, IngestStage};
pub use config::IndexConfig;
pub use cost::{ApStat, CostParams, CostReceipt, StorageProfile, WorkloadProfile};
pub use error::CoreError;
pub use hash_index::MultiHashIndex;
pub use parallel::{for_each_slot, SequentialExecutor, ShardExecutor};
pub use state::{SearchScratch, StateIndex, StateStore, TupleKey};
pub use tier::{
    BlockMeta, BlockReadError, BlockWriteError, IoFaultConfig, SpillConfig, SpillOutcome,
    SpillStats, SpillTier,
};
pub use tuner::{TuneLedger, Tuner, TunerConfig, TunerEvent, TunerKind};
pub use whatif::WindowObservation;
