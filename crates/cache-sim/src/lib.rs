//! # dini-cache-sim
//!
//! A deterministic set-associative cache-hierarchy simulator and memory cost
//! model. This crate is the hardware substrate for the DINI reproduction of
//! *"Fast Query Processing by Distributing an Index over CPU Caches"*
//! (Ma & Cooperman, CLUSTER 2005).
//!
//! The paper's entire argument is cache-miss economics: a replicated index
//! larger than L2 pays one cache miss per tree level per lookup, while a
//! partitioned, cache-resident index pays none. Since the paper's Pentium III
//! testbed no longer exists, we simulate its memory hierarchy exactly
//! (sizes, 32-byte lines, measured miss penalties from the paper's Table 2)
//! and charge costs the same way the paper's measurements would.
//!
//! ## Layers
//!
//! * [`set_assoc`] — a single set-associative LRU cache.
//! * [`hierarchy`] — an inclusive L1/L2 hierarchy.
//! * [`params`] — [`MachineParams`]: the paper's Table 2 plus presets for
//!   the Pentium III and the Pentium 4 of its §2.2 remark.
//! * [`memory`] — the [`MemoryModel`] trait that index structures and the
//!   cluster simulator program against: [`SimMemory`] bills simulated
//!   nanoseconds, [`NullMemory`] is free (native runs), [`CountingMemory`]
//!   records accesses for tests.
//! * [`tlb`] — an optional TLB model (the paper explicitly ignores TLB
//!   misses; Table 3's "TLB on" rows measure what that leaves out).
//! * [`addr`] — a bump allocator handing out virtual address regions so
//!   index arenas, message buffers, and key arrays occupy disjoint,
//!   realistically-aligned address ranges.
//!
//! ## Units
//!
//! Simulated time is `f64` **nanoseconds**; bandwidth is **bytes per
//! nanosecond** (numerically equal to GB/s). Helper conversions live in
//! [`params`].

#![warn(missing_docs)]

pub mod addr;
pub mod hierarchy;
pub mod memory;
pub mod params;
pub mod set_assoc;
pub mod stats;
pub mod tlb;

pub use addr::AddressSpace;
pub use hierarchy::{CacheHierarchy, HitLevel};
pub use memory::{AccessKind, CountingMemory, MemoryModel, NullMemory, SimMemory};
pub use params::{CacheConfig, MachineParams};
pub use set_assoc::SetAssocCache;
pub use stats::{AccessStats, LevelStats};
pub use tlb::Tlb;
