//! # dini-sysprobe
//!
//! Measures on the *host* the quantities the paper measured on its
//! Pentium III cluster for Table 2: sequential vs. random memory
//! bandwidth (the paper's 647 vs 48 MB/s — the asymmetry that motivates
//! the whole design), an approximate cache-miss penalty via dependent
//! pointer chasing, the per-node comparison cost, and the throughput of an
//! in-process channel as the stand-in "network".
//!
//! These numbers parameterise nothing (the simulator uses the paper's own
//! Table 2 values); they exist so `paper host` can print the
//! paper-era and present-day columns side by side, demonstrating that the
//! random-access penalty the paper exploits still exists today.
//!
//! The crate also holds the one other thing the workspace asks of the
//! host: thread placement ([`affinity`] — the cores a thread may run on,
//! and pinning it to one), which is what
//! `dini_core::NativeConfig::pin_cores` calls.

#![warn(missing_docs)]

pub mod affinity;
pub mod measure;

pub use affinity::{allowed_cores, pin_current_thread};
pub use measure::{detect_knees, measure_all, measure_latency_curve, HostParams, LatencyPoint};
