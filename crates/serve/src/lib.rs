//! # dini-serve
//!
//! A sharded, batch-coalescing, online-updatable query-serving layer —
//! the production-shaped face of the DINI reproduction of Ma & Cooperman
//! (CLUSTER 2005).
//!
//! The paper shows that batching queries across a master/slaves index
//! turns a latency-bound lookup into a throughput machine. A real server
//! cannot choose its batch size, so this crate manufactures the paper's
//! batches from live traffic and wraps the result in the machinery a
//! serving system needs. The paper's design appears here exactly once:
//! the router is the master, a shard is a partition, and the shard's
//! dispatcher is the slave that answers a batch over its sorted piece
//! (with [`LineDirectory`](dini_index::LineDirectory)'s batch kernel) —
//! and, the paper's own economics applied to a batch of one, a caller
//! that finds the replica idle ranks its key itself rather than pay a
//! hand-off worth a hundred ranks (see [`server`]).
//!
//! * [`router`] — the u32 key space is **range-sharded** across
//!   `n_shards` shards; routing is a binary search over a delimiter
//!   array, and global ranks compose as `base_rank(shard) + local_rank`
//!   (the paper's master/slave rank composition). Each
//!   shard is served by a **replica group** of `replicas_per_shard`
//!   dispatchers over one `Arc`-shared snapshot — keys, directory and
//!   overlay (a replica costs one thread and nothing else); a
//!   [`ReplicaSelector`] picks among
//!   them by **power-of-two choices** on live queue depth, and a
//!   crashed replica **fails over** — its backlog is re-routed to
//!   surviving siblings, so a shard only answers `ShuttingDown` once
//!   its last replica is gone.
//! * [`batcher`] — concurrent callers' requests **coalesce** by group
//!   commit: a batch is the first request plus whatever queued while the
//!   previous batch was in service (≤ `max_batch`), dispatched at once —
//!   the paper's Figure 3 batch-size trade-off settled by load, not by a
//!   timer.
//! * [`admission`] — bounded per-shard queues **shed on full**, so
//!   overload surfaces as cheap explicit rejection (and a counter)
//!   instead of unbounded queueing delay. Each queue's depth gauge is
//!   the router's load signal and, read as "idle", the **claim** that
//!   decides who ranks: the caller, or the dispatcher.
//! * [`oneshot`] — **pooled reply cells**: a pool of reusable reply
//!   cells replaces the per-lookup reply channel, making the queued
//!   lookup path allocation-free end to end (cells and batch scratch all
//!   recycle; a lookup its caller ranks needs neither). A cell is reused
//!   only once nothing else holds it, and a request dropped unanswered
//!   answers `ShuttingDown`.
//! * [`snapshot`] + the writer in [`server`] — **online updates**: one
//!   writer folds churn through
//!   [`DeltaArray`](dini_index::DeltaArray)s and publishes each shard's
//!   whole read state — main array, overlay, base rank — as one
//!   immutable snapshot via a hand-rolled **lock-free epoch swap**
//!   (`AtomicPtr` two-slot scheme: readers pin with three atomic RMWs —
//!   two when they only borrow the snapshot for one rank — and no lock,
//!   superseded epochs freed on last unpin); on crossing the
//!   merge threshold it merges and builds the new main array's directory
//!   off the read path and publishes it the same way. Lookups never
//!   block on writers.
//! * [`stats`] — p50/p99/p999 latency and batch-shape accounting on
//!   [`LogHistogram`](dini_cluster::LogHistogram)s, held live in
//!   lock-free `dini-obs` atomics ([`ReplicaMetrics`]) registered in a
//!   [`MetricsRegistry`](dini_obs::MetricsRegistry) — nobody takes a
//!   stats lock. The registry is the one place a number gets a name:
//!   [`ServeStats`] is read off its snapshot by name, locally or after
//!   a `StatsReply` carried it over the wire. Each replica
//!   also carries seeded-sampling **stage-trace rings**
//!   ([`TraceConfig`]; one its dispatcher writes, one its claimants do):
//!   admitted → collected → dispatched → answered → filled timestamps
//!   per sampled request, readable via
//!   [`IndexServer::stage_traces`](server::IndexServer::stage_traces).
//! * [`loadgen`] — closed- and open-loop load generators (uniform/Zipf
//!   keys via `dini-workload`, Poisson arrivals) for exercising all of
//!   the above.
//! * [`clock`] + `faults` — **time virtualization**: every wait in
//!   the crate goes through a [`Clock`]. `Clock::system()` is a
//!   zero-overhead passthrough to the native primitives; a seeded
//!   [`SimClock`] runs the whole server — dispatchers, writer, load
//!   clients — on deterministic virtual time, with dispatch-path fault
//!   injection: [`ServeConfig::faults`] holds a
//!   [`FaultSchedule`](dini_cluster::FaultSchedule), and each
//!   dispatcher resolves its crash point, straggle and jitter stream
//!   from it. This is the foundation the `dini-simtest` scenario suite
//!   builds on.
//!
//! ## Quickstart
//!
//! ```
//! use dini_serve::{IndexServer, LoadMode, Op, ServeConfig};
//! use dini_serve::loadgen::run_load;
//! use dini_serve::KeyDistribution;
//!
//! // 40k keys, 2 shards: two dispatcher threads and one writer.
//! let keys: Vec<u32> = (0..40_000).map(|i| i * 2).collect();
//! let server = IndexServer::build(&keys, ServeConfig::new(2));
//!
//! // Serve a closed-loop burst of Zipf traffic.
//! let report = run_load(
//!     &server.handle(),
//!     KeyDistribution::Zipf { n_buckets: 64, s: 1.1 },
//!     42,
//!     LoadMode::Closed { clients: 2, lookups_per_client: 500 },
//! );
//! assert_eq!(report.completed, 1000);
//!
//! // Fold churn in while serving; quiesce() makes it visible.
//! server.update(Op::Insert(1)).unwrap();
//! server.quiesce();
//! assert_eq!(server.handle().lookup(1).unwrap(), 2); // {0, 1}
//! println!("{}", server.stats().summary());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod admission;
pub mod batcher;
pub mod clock;
pub mod config;
mod faults;
pub mod group;
pub mod loadgen;
pub mod oneshot;
pub mod router;
pub mod server;
pub mod snapshot;
pub mod stats;
pub(crate) mod sync;

pub use clock::{Clock, ClockJoinHandle, Nanos, SimClock, SimMainGuard};
pub use config::{ServeConfig, ServeError};
pub use loadgen::{run_load, LoadMode, LoadReport};
pub use router::{ReplicaSelector, ShardRouter};
pub use server::{IndexServer, LookupScratch, PendingLookup, ServerHandle, UpdateHandle};
pub use snapshot::{EpochCell, ShardSnapshot};
pub use stats::{ReplicaMetrics, ServeStats};

// Observability vocabulary re-exported so serving callers can configure
// tracing and consume snapshots without naming the obs crate.
pub use dini_obs::{HeatMap, MetricsSnapshot, StageRecord, TraceConfig, HEAT_BUCKETS};

// Flight-recorder vocabulary re-exported so callers can hand
// `ServeConfig::flight` a journal (and read it back post-crash) without
// naming the flight crate.
pub use dini_flight::{read_journal, EventKind, FlightEvent, FlightJournal};

// Persistence vocabulary re-exported so restart callers can plan
// checkpoints and open mmap snapshots without naming the store crate:
// `ServeConfig::store` takes a [`StorePlan`], and
// [`IndexServer::build_recovered`](server::IndexServer::build_recovered)
// consumes an [`open_snapshot`] result.
pub use dini_store::{open_snapshot, SharedKeys, SnapError, Snapshot, StorePlan};

// Re-exported so callers can drive the server without naming the
// workload crate.
pub use dini_workload::{ArrivalProcess, KeyDistribution, Op, OpMix};
