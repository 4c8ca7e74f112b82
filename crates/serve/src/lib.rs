//! # dini-serve
//!
//! A sharded, online-updatable query-serving layer — the
//! production-shaped face of the DINI reproduction of Ma & Cooperman
//! (CLUSTER 2005).
//!
//! The paper shows that batching queries across a master/slaves index
//! turns a latency-bound lookup into a throughput machine, and ships a
//! key to another node only when the search it buys there costs less
//! than the hop. In process it never does: a shard's read state is one
//! immutable snapshot any thread may pin, and a hand-off costs a hundred
//! ranks. So the paper's design appears here exactly once: the router is
//! the master, a shard is a partition, and the slave that answers a
//! batch over its sorted piece (with
//! [`LineDirectory`](dini_index::LineDirectory)'s batch kernel) is the
//! caller, ranking the batch it already holds — a key, a pipelined
//! group, a slice, a wire frame — on its own thread (see [`server`]).
//! Nothing queues. The server owns one thread, its writer.
//!
//! * [`router`] — the u32 key space is **range-sharded** across
//!   `n_shards` shards; routing is a binary search over a delimiter
//!   array, and global ranks compose as `base_rank(shard) + local_rank`
//!   (the paper's master/slave rank composition). Each
//!   shard is served by a **replica group** of `replicas_per_shard`
//!   replicas over one `Arc`-shared snapshot — keys, directory and
//!   overlay (a replica costs a depth gauge, its accounting and its
//!   fault script, and nothing else); a [`ReplicaSelector`] picks among
//!   them by **power-of-two choices** on live depth, and a caller that
//!   meets a crashed replica **fails over** to a surviving sibling, so
//!   a shard only answers `ShuttingDown` once its last replica is gone.
//! * [`admission`] — each replica's **depth gauge**: the router's load
//!   signal, and the **claim**. The caller that takes it 0 → n counts
//!   its batch in the replica's claim row with plain stores; every other
//!   caller adds its n, ranks just the same, and counts in the shared
//!   row with read-modify-writes. Nobody waits for anybody.
//! * [`group`] — a pipelined caller's **open group** of up to
//!   [`GROUP`](group::GROUP) keys, ranked as one batch — the paper's
//!   batch, formed by the caller that holds the keys rather than by a
//!   queue.
//! * [`oneshot`] — **pooled reply cells**: a group's answers, and a
//!   `dini-net` client's frames and updates, come back through reusable
//!   cells instead of a channel per reply, so those paths allocate
//!   nothing once warm. A cell is reused only once nothing else holds
//!   it, and a filler dropped unanswered answers `ShuttingDown`.
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
//!   also carries a seeded-sampling **stage-trace ring**
//!   ([`TraceConfig`]; the callers that rank on it write it):
//!   admitted → collected → dispatched → answered → filled timestamps
//!   per sampled request, readable via
//!   [`IndexServer::stage_traces`](server::IndexServer::stage_traces).
//! * [`loadgen`] — closed- and open-loop load generators (uniform/Zipf
//!   keys via `dini-workload`, Poisson arrivals) for exercising all of
//!   the above.
//! * [`clock`] + `faults` — **time virtualization**: every wait in
//!   the crate goes through a [`Clock`]. `Clock::system()` is a
//!   zero-overhead passthrough to the native primitives; a seeded
//!   [`SimClock`] runs the whole server — writer, callers, load
//!   clients — on deterministic virtual time, with dispatch-path fault
//!   injection: [`ServeConfig::faults`] holds a
//!   [`FaultSchedule`](dini_cluster::FaultSchedule), and each replica
//!   resolves its crash point, straggle and jitter stream from it, met
//!   by every caller that ranks on it. This is the foundation the `dini-simtest` scenario suite
//!   builds on.
//!
//! ## Quickstart
//!
//! ```
//! use dini_serve::{IndexServer, LoadMode, Op, ServeConfig};
//! use dini_serve::loadgen::run_load;
//! use dini_serve::KeyDistribution;
//!
//! // 40k keys, 2 shards: one writer thread; callers rank for themselves.
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
pub use snapshot::{EpochCell, Overlay, ShardSnapshot};
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
