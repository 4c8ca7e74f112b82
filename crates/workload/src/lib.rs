//! # dini-workload
//!
//! Deterministic workload generation for the DINI experiments.
//!
//! The paper's evaluation uses "randomly generated" 4-byte keys for both the
//! index contents and the 8 million (2^23) search keys, drawn uniformly.
//! This crate provides seeded, reproducible generators for that workload
//! plus skewed variants (Zipf, clustered) for the serving layer's load,
//! interleaved update streams ([`churn`]) for the dynamic-index
//! extensions, and open-loop arrival processes ([`arrivals`]) for
//! serving-layer load generation.

#![warn(missing_docs)]

pub mod arrivals;
pub mod churn;
pub mod dist;
pub mod keys;

pub use arrivals::{ArrivalGen, ArrivalProcess};
pub use churn::{ChurnGen, Op, OpMix};
pub use dist::KeyDistribution;
pub use keys::{gen_search_keys, gen_sorted_unique_keys, KeyGen};
