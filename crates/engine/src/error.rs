//! Typed errors for the engine layer.
//!
//! Fallible construction paths (flavor building, fault plans, degradation
//! policies) return [`EngineError`] instead of panicking, so injected
//! faults and bad configurations surface as structured errors or
//! degradation events — never as ad-hoc `unwrap()` panics. Invariant-backed
//! `expect`s that remain in the codebase carry reason strings naming the
//! invariant that guarantees them.

use amri_core::CoreError;
use amri_stream::{SnapshotError, StreamError};
use std::fmt;

/// Errors raised while assembling or driving an engine run.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A core-layer error (index configuration, tuner parameters).
    Core(CoreError),
    /// A stream-layer error (schema, query, window validation).
    Stream(StreamError),
    /// An [`IndexingMode`](crate::IndexingMode) whose per-state vectors
    /// disagree with the query (message names the mismatch).
    InvalidMode(String),
    /// An [`EngineConfig`](crate::EngineConfig) scalar the run cannot be
    /// driven with (message names the field).
    InvalidConfig(String),
    /// A [`DegradationPolicy`](crate::DegradationPolicy) with out-of-range
    /// parameters (message names the offending knob).
    InvalidDegradationPolicy(String),
    /// A [`FaultPlan`](crate::FaultPlan) with out-of-range parameters
    /// (message names the offending knob).
    InvalidFaultPlan(String),
    /// A checkpoint could not be written, parsed, or restored — carries
    /// the typed snapshot failure (I/O, checksum mismatch, version
    /// mismatch, configuration mismatch, malformed contents).
    Snapshot(SnapshotError),
    /// The spill tier's block store could not be set up (message carries
    /// the underlying I/O failure).
    Spill(String),
    /// An injected [`FaultKind::CrashAt`](crate::FaultKind::CrashAt)
    /// killed the run at the contained pipeline step. Recovery resumes
    /// from the latest good checkpoint.
    InjectedCrash {
        /// The step at which the simulated process died.
        step: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "core error: {e}"),
            EngineError::Stream(e) => write!(f, "stream error: {e}"),
            EngineError::InvalidMode(msg) => write!(f, "invalid indexing mode: {msg}"),
            EngineError::InvalidConfig(msg) => write!(f, "invalid engine configuration: {msg}"),
            EngineError::InvalidDegradationPolicy(msg) => {
                write!(f, "invalid degradation policy: {msg}")
            }
            EngineError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            EngineError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            EngineError::Spill(msg) => write!(f, "spill tier error: {msg}"),
            EngineError::InjectedCrash { step } => {
                write!(f, "injected crash killed the run at step {step}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Stream(e) => Some(e),
            EngineError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> Self {
        EngineError::Snapshot(e)
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<StreamError> for EngineError {
    fn from(e: StreamError) -> Self {
        EngineError::Stream(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        assert!(EngineError::from(CoreError::TooManyBits(70))
            .to_string()
            .contains("70"));
        assert!(EngineError::InvalidMode("3 configs for 4 streams".into())
            .to_string()
            .contains("3 configs"));
        assert!(EngineError::InvalidFaultPlan("drop_prob = 2".into())
            .to_string()
            .contains("drop_prob"));
        assert!(EngineError::InvalidDegradationPolicy("high_water".into())
            .to_string()
            .contains("high_water"));
    }

    #[test]
    fn sources_chain_to_the_underlying_layer() {
        use std::error::Error as _;
        let e = EngineError::from(CoreError::InvalidParameter("theta".into()));
        assert!(e.source().unwrap().to_string().contains("theta"));
        let e = EngineError::from(StreamError::InvalidWindow);
        assert!(e.source().is_some());
        assert!(EngineError::InvalidMode("x".into()).source().is_none());
    }
}
