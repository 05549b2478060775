//! # amri-stream — stream substrate for AMRI
//!
//! Foundation types for the AMRI reproduction (Works, Rundensteiner, Agu:
//! *Index Tuning for Adaptive Multi-Route Data Stream Systems*, IPPS 2010):
//!
//! * [`value`] — attribute values and the inline attribute vector used by
//!   tuples and search requests.
//! * [`time`] — the deterministic virtual clock the whole simulation runs
//!   on, and the [`Clock`] abstraction the runtime layer is written against.
//! * [`batch`] — packed job flow: the [`JobQueue`] backlog that stores
//!   routing jobs as the words they carry ([`Packed`]) while preserving
//!   exact FIFO order.
//! * [`schema`] — stream schemas, attribute domains, identifiers.
//! * [`mod@tuple`] — stream tuples and partial (intermediate) join tuples.
//! * [`window`] — sliding-window bookkeeping (expiration queues).
//! * [`query`] — SPJ query model: join predicates, join attribute sets (JAS).
//! * [`pattern`] — access patterns, the `BR(ap)` binary representation and
//!   the search-benefit (subset) relation that organizes them into a lattice.
//! * [`fxhash`] — a fast, deterministic non-cryptographic hasher (the
//!   rustc-hash algorithm) used in all hot paths instead of SipHash.
//!
//! Everything is deterministic: no wall-clock reads, no unseeded randomness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod error;
pub mod fxhash;
pub mod pattern;
pub mod query;
pub mod schema;
pub mod snapshot;
pub mod time;
pub mod tuple;
pub mod value;
pub mod window;

pub use batch::{JobQueue, Pack, Packed, DEFAULT_BATCH_CAPACITY, DEFAULT_MAX_SPARE_BUFFERS};
pub use error::StreamError;
pub use fxhash::{fx_hash_u64, FxBuildHasher, FxHashMap, FxHashSet};
pub use pattern::{AccessPattern, BoundValues, SearchRequest, MAX_JAS};
pub use query::{JoinGraph, JoinOp, JoinPredicate, Selection, SpjQuery};
pub use schema::{AttrDomain, AttrId, AttrSpec, StreamId, StreamSchema};
pub use snapshot::{
    open_block, seal_block, SectionReader, SectionWriter, SnapshotError, SnapshotReader,
    SnapshotWriter, SNAPSHOT_VERSION,
};
pub use time::{Clock, VirtualClock, VirtualDuration, VirtualTime, TICKS_PER_SEC};
pub use tuple::{PackedPartial, PartialTuple, Parts, StreamMask, Tuple, TupleId};
pub use value::{AttrValue, AttrVec, MAX_ATTRS};
pub use window::{WindowBuffer, WindowSpec};

/// Convenience prelude bringing the commonly used substrate types in scope.
pub mod prelude {
    pub use crate::batch::JobQueue;
    pub use crate::error::StreamError;
    pub use crate::fxhash::{FxHashMap, FxHashSet};
    pub use crate::pattern::{AccessPattern, SearchRequest};
    pub use crate::query::{JoinGraph, JoinOp, JoinPredicate, Selection, SpjQuery};
    pub use crate::schema::{AttrDomain, AttrId, AttrSpec, StreamId, StreamSchema};
    pub use crate::time::{Clock, VirtualClock, VirtualDuration, VirtualTime};
    pub use crate::tuple::{PartialTuple, StreamMask, Tuple, TupleId};
    pub use crate::value::{AttrValue, AttrVec};
    pub use crate::window::{WindowBuffer, WindowSpec};
}
