//! # dini — Distributed IN-cache Index
//!
//! A from-scratch reproduction of *"Fast Query Processing by Distributing
//! an Index over CPU Caches"* (Xiaoqin Ma & Gene Cooperman, IEEE CLUSTER
//! 2005, arXiv:cs/0410066), built as a workspace of substrates plus the
//! paper's contribution:
//!
//! | crate | contents |
//! |---|---|
//! | [`cache_sim`] | set-associative LRU L1/L2 simulator + Table 2 cost model, TLB, write-backs |
//! | [`cluster`] | discrete-event cluster/network simulator (timers, fault injection, switch backplane, tracing, RTT histograms) |
//! | [`index`] | sorted array, cache-line directory with group-interleaved batch probes (the kernel serving dispatchers and native slaves rank batches with), CSB+ tree, Zhou–Ross buffered traversal, partitioning, updatable delta array |
//! | [`workload`] | seeded key/query generators (uniform, Zipf, clustered) + churn streams + arrival processes |
//! | [`model`] | the paper's Appendix-A analytical model + Figure 4 trends + sensitivity solvers |
//! | [`sysprobe`] | host measurements of the paper's Table 2 quantities + cache-size knee detection + thread placement (allowed cores, pinning) |
//! | [`core`] | Methods A, B, C-1/C-2/C-3, really-dispatched A/B + the native [`DistributedIndex`] |
//! | [`serve`] | sharded, replicated, batch-coalescing serving layer: replica groups with load-aware routing + failover, admission control, online updates, load generators, `Clock` time-virtualization seam |
//! | [`net`] | the transport layer: versioned wire frames, TCP and simulated-network backends, `NetServer` span hosting, `RemoteClient` with shard-map routing + client-side coalescing + retry + failover |
//! | [`obs`] | observability: lock-free per-request stage tracing, atomic metrics registry with JSON/Prometheus snapshots, wire-pollable live stats, host context capture |
//! | [`store`] | shared key storage (`SharedKeys`: `Arc`-owned or memory-mapped) + versioned, checksummed index snapshots |
//! | [`simtest`] | deterministic simulation testing: one `Deployment` description (in process, or servers × client × wire) run by one `run` on seeded virtual time, oracles switched on by what it describes, schedules pinned in `tests/golden.txt` |
//!
//! ## Quickstart (native, real threads)
//!
//! ```
//! use dini::{DistributedIndex, NativeConfig};
//!
//! let keys: Vec<u32> = (0..1_000_000).map(|i| i * 2).collect();
//! let mut cfg = NativeConfig::new(4); // 4 partitions / worker cores
//! cfg.pin_cores = false;
//! let mut index = DistributedIndex::build(&keys, cfg);
//! assert_eq!(index.lookup(10), 6); // six keys ≤ 10
//! ```
//!
//! ## Quickstart (serving layer)
//!
//! [`DistributedIndex`] answers one caller's batches; [`IndexServer`]
//! is the same design as a multi-tenant server: concurrent callers'
//! lookups coalesce into batches (the paper's Figure 3 knob, applied to
//! live traffic); the key space is range-sharded (a shard is the
//! paper's partition, its dispatcher thread the slave that ranks the
//! batch); each shard is served by a replica group with
//! power-of-two-choices routing and crash failover; bounded queues shed
//! on overload; and a writer thread folds churn in behind immutable
//! snapshots so reads never block on updates.
//!
//! ```
//! use dini::serve::{IndexServer, Op, ServeConfig};
//!
//! let keys: Vec<u32> = (0..100_000).map(|i| i * 2).collect();
//! let server = IndexServer::build(&keys, ServeConfig::new(2));
//! let handle = server.handle(); // Clone per caller thread
//! assert_eq!(handle.lookup(10).unwrap(), 6);
//!
//! server.update(Op::Insert(7)).unwrap(); // online churn
//! server.quiesce();
//! assert_eq!(handle.lookup(10).unwrap(), 7);
//! println!("{}", server.stats().summary()); // p50/p99/p999, batches, sheds
//! ```
//!
//! Run the end-to-end demo (mixed Zipf lookups + churn, latency
//! percentiles, oracle check): `cargo run --release --example serve_demo`.
//!
//! ## Deterministic simulation (virtual time)
//!
//! The same server, run on a seeded virtual clock: hostile schedules
//! (shard crashes, jitter, stragglers, overload) become fast,
//! reproducible tests. See [`simtest`] and `cargo test -p dini-simtest`.
//!
//! ```
//! use dini::serve::{Clock, IndexServer, ServeConfig, SimClock};
//!
//! let sim = SimClock::new();
//! let _main = sim.register_main(); // this thread drives virtual time
//! let mut cfg = ServeConfig::new(2);
//! cfg.clock = Clock::sim(&sim);
//! let keys: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
//! let server = IndexServer::build(&keys, cfg);
//! assert_eq!(server.handle().lookup(10).unwrap(), 6);
//! drop(server); // wind the sim-clocked threads down before the guard
//! ```
//!
//! ## Reproducing the paper
//!
//! ```text
//! cargo run -p dini-bench --release --bin paper                  # Tables 1–3, Figures 3–4
//! cargo run -p dini-bench --release --bin paper -- fig3 --quick  # one mode, 2^20 keys
//! cargo run -p dini-bench --release --bin paper -- host          # Table 2 probed on this host
//! ```
//!
//! Each mode writes `{mode, series, x, metric, value}` JSON lines to
//! stdout and the same records as tables to stderr; `paper --quick` is
//! pinned by `crates/bench/paper-quick.jsonl`.
//!
//! See `DESIGN.md` for the workspace layout and system inventory.

pub use dini_cache_sim as cache_sim;
pub use dini_check as check;
pub use dini_cluster as cluster;
pub use dini_core as core;
pub use dini_index as index;
pub use dini_model as model;
pub use dini_net as net;
pub use dini_obs as obs;
pub use dini_serve as serve;
pub use dini_simtest as simtest;
pub use dini_store as store;
pub use dini_sysprobe as sysprobe;
pub use dini_workload as workload;

pub use dini_core::{
    run_comparison, run_method, run_replicated_distributed, standard_workload, DistributedIndex,
    ExperimentSetup, LoadBalance, MethodId, NativeConfig, ReplicaEngine, RunStats, SlaveStructure,
};
pub use dini_net::{NetServer, RemoteClient};
pub use dini_serve::{IndexServer, ServeConfig, ServeError, ServerHandle};
