//! # amri-benchmark — the AMRI engine's end-to-end wall-clock benchmark
//!
//! A standalone package (its own workspace root, path dependencies into
//! `../crates/*`) that measures the engine **from outside**: every number
//! is the wall time of calls into the engine's public API, or a counter
//! the engine already reports. Nothing in `crates/` knows it exists.
//!
//! * [`metrics`] — the stable surface: workload and metric names, units,
//!   directions, regression bounds.
//! * [`workloads`] — the five workloads as engine configurations.
//! * [`run`] — timed passes: set-up, then the step loop one scheduling
//!   quantum at a time.
//! * [`verify`] — output correctness as identities between runs.
//! * [`trace`] — the traced pass: one in-memory span per `Session::step`.
//! * [`drives`] — each layer's public entry points timed in isolation.
//! * [`layers`] — the per-layer breakdown the two add up to.
//! * [`single`] — one contract run (`--workload … --trace 0|1`).
//! * [`suite`] — every workload, repeated in child processes, into one
//!   host-stamped JSON; [`compare`] diffs two of those.
//! * [`json`], [`host`] — a small JSON codec and `/proc` readers.
//!
//! See `README.md` for the metric glossary and the list of engine
//! functions this package calls.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compare;
pub mod drives;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod single;
pub mod suite;
pub mod trace;
pub mod verify;
pub mod workloads;
