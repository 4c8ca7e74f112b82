//! # dini-index
//!
//! The index-structure substrate for the DINI reproduction of Ma &
//! Cooperman (CLUSTER 2005). Every structure the paper's five methods need
//! is here, each instrumented against
//! [`dini_cache_sim::MemoryModel`] so the same code runs natively (free
//! accesses) or on the simulated Pentium III (Table 2 costs):
//!
//! * [`SortedArray`] — cache-aligned sorted array with binary search
//!   (Method C-3's slave structure and the master's delimiter array).
//! * [`LineDirectory`] — a sorted slice under a cache-line separator
//!   directory (the static CSS layout of Rao & Ross), probed for a group
//!   of keys in lockstep with prefetch so their misses overlap: what a
//!   native `DistributedIndex` slave answers its batches with.
//! * [`CsbTree`] — sorted n-ary tree in the CSB+ layout of Rao & Ross:
//!   each 1-line node stores `n` keys plus a single first-child index;
//!   children are contiguous (Methods A, B, and C-1).
//! * [`PtrNaryTree`] — the classic layout storing every child pointer
//!   (halves the fan-out; Table 1's layout rows set it beside CSB+).
//! * [`buffered`] — the Zhou–Ross buffering access technique: decompose
//!   the tree into cache-sized subtrees with per-subtree key buffers and
//!   process lookups in batches (Method B targets L2, Method C-2 L1).
//! * [`partition`] — range-partitioning a sorted key set across slaves,
//!   with the delimiter array the master dispatches on (Method C).
//! * [`delta`] — [`DeltaArray`]: updates (insert/delete/merge) on top of a
//!   static sorted main array, for the paper's dynamic use-cases.
//!
//! ## Semantics
//!
//! All structures compute the same function: `rank(key)` = number of index
//! keys `≤ key` (an upper-bound count in `0..=n`). Partitioned lookups
//! compose as `global_rank = base_rank(partition) + local_rank`, which the
//! integration tests verify against the flat structures.

#![warn(missing_docs)]

pub mod buffered;
pub mod csb;
pub mod delta;
pub mod line_directory;
pub mod partition;
pub mod ptr_tree;
pub mod sorted_array;
pub mod traits;

pub use buffered::{BufferedLookup, SubtreeCuts};
pub use csb::CsbTree;
pub use delta::DeltaArray;
pub use line_directory::LineDirectory;
pub use partition::{PartitionedIndex, Partitions};
pub use ptr_tree::PtrNaryTree;
pub use sorted_array::SortedArray;
pub use traits::{Cost, RankIndex};

/// The key backing [`SortedArray::from_shared`] and [`LineDirectory::new`]
/// index without copying (re-exported from `dini-store`).
pub use dini_store::SharedKeys;
