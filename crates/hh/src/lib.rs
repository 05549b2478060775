//! # amri-hh — heavy-hitter substrate for AMRI
//!
//! The AMRI paper compresses access-pattern statistics with stream-sampling
//! algorithms: CSRIA is modeled on the **lossy counting** heavy-hitter
//! method of Manku & Motwani (VLDB 2002), CDIA on the **hierarchical heavy
//! hitter** method of Cormode et al. (VLDB 2003) specialized to the
//! search-benefit lattice. This crate implements those algorithms
//! independently of how AMRI consumes them, with the accuracy and space
//! guarantees property-tested.
//!
//! * [`traits`] — the [`FrequencyEstimator`] abstraction all counters
//!   share.
//! * [`exact`] — exact counting (the reference the guarantees are tested
//!   against; also the backend of plain SRIA/DIA).
//! * [`lossy`] — lossy counting with ε-segments and per-entry max error δ.
//! * [`lattice`] — storage + navigation over the access-pattern lattice.
//! * [`hhh`] — hierarchical heavy hitters over that lattice with the
//!   paper's two combination strategies (random, highest-count).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exact;
pub mod hhh;
pub mod lattice;
pub mod lossy;
pub mod traits;

pub use exact::ExactCounter;
pub use hhh::{CombineStrategy, HhhConfig, HierarchicalHeavyHitters};
pub use lattice::PatternLattice;
pub use lossy::{LossyCounter, LossyEntry};
pub use traits::FrequencyEstimator;
