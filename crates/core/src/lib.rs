//! # dini-core
//!
//! The paper's contribution: the five index-lookup methods of
//! *"Fast Query Processing by Distributing an Index over CPU Caches"*
//! (Ma & Cooperman, CLUSTER 2005), runnable on the deterministic cluster
//! simulator (regenerating the paper's figures) and — for Method C-3 — on
//! real threads as a usable library ([`native::DistributedIndex`]).
//!
//! * [`setup`] — [`ExperimentSetup`]: Tables 1 and 2 plus cluster shape;
//!   derives the paper's Table 1 from first principles.
//! * [`methods`] — Method A (replicated tree), Method B (replicated tree +
//!   Zhou–Ross buffering), Methods C-1/C-2/C-3 (the distributed in-cache
//!   index with tree / buffered-tree / sorted-array slaves).
//! * [`driver`] — [`run_method`]/[`run_comparison`]: one workload, any
//!   method, a [`RunStats`] out.
//! * [`native`] — the thread-backed, core-pinned Method C-3 facade.

#![warn(missing_docs)]

pub mod driver;
pub mod methods;
pub mod native;
pub mod setup;
pub mod stats;

pub use driver::{run_comparison, run_method, standard_workload, INDEX_SEED, SEARCH_SEED};
pub use methods::{
    run_method_a, run_method_b, run_method_c, run_replicated_distributed, LoadBalance,
    ReplicaEngine, SlaveStructure,
};
pub use native::{DistributedIndex, NativeConfig};
pub use setup::{ExperimentSetup, MethodId, Table1};
pub use stats::RunStats;
