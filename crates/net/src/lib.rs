//! # dini-net
//!
//! The transport layer that makes the repo the paper's cluster,
//! literally: Ma & Cooperman's master scatters query batches to slave
//! *processes on other nodes* and gathers sub-answers over a real
//! network. Everything `dini-serve` built — sharding, batching, replica
//! groups, failover — lived in one process behind channels; this crate
//! lifts the server↔caller boundary onto a wire so shards and
//! replicas can live in separate processes or hosts.
//!
//! * [`wire`] — a versioned, length-prefixed binary protocol: lookup
//!   batches, positionally-aligned replies, churn updates,
//!   quiesce/epoch round trips, shard-map handshake, and shutdown
//!   status. Decoding is total (corrupt input errors, never panics);
//!   `tests/prop_wire.rs` proptests every frame kind against random
//!   corruption.
//! * [`transport`] — the backend seam: [`FrameTx`]/[`FrameRx`]
//!   connection halves, [`Acceptor`]/[`Dialer`] for
//!   listening/connecting. Backends: **TCP** over `std::net` (real
//!   sockets, `TCP_NODELAY`, timeout-safe incremental framing) and
//!   **[`ChanNet`]** — in-process frame pipes waiting in `Clock` time
//!   and routed through `dini-cluster`'s seeded frame-fate machinery
//!   (drop / duplicate / jitter / latency / link-down), which is how
//!   `dini-simtest` runs whole multi-process deployments
//!   deterministically on virtual time. The third "backend" is no wire
//!   at all: in-process callers keep using
//!   [`ServerHandle`](dini_serve::ServerHandle) directly — that path is
//!   untouched and still allocation-free (`tests/zero_alloc.rs`).
//! * [`topology`] — spans (contiguous key slices, the process-level
//!   shards) and their replica endpoints; global ranks compose as
//!   `Σ live_keys(lower spans) + span_local_rank`.
//! * [`server`] — [`NetServer`]: an [`IndexServer`](dini_serve::IndexServer)
//!   hosted behind a listener; a connection is one thread, its reader,
//!   which feeds the existing admission queues (or ranks a frame itself
//!   when its replicas are idle), redeems any queued keys' pooled reply
//!   cells, and writes every reply back in frame order.
//! * [`client`] — [`RemoteClient`]/[`NetHandle`]: shard-map routing
//!   (the same delimiter search as `router.rs`), client-side batch
//!   coalescing (a lookup appends its key to its endpoint's open frame;
//!   one reply cell answers the frame), retry with reply deduplication,
//!   and connection-loss failover between replica endpoints — callers
//!   see the exact `ServeError` semantics local callers do.
//!
//! ## Two processes on one laptop
//!
//! ```bash
//! cargo run --release --example net_demo        # client process; spawns the server process
//! ```
//!
//! ## One process, wired loopback (tests, benches)
//!
//! ```
//! use dini_net::{Acceptor, ClientConfig, NetServer, NetServerConfig, RemoteClient, Topology};
//! use dini_net::transport::{ChanNet, TcpAcceptorT, TcpDialer};
//! use dini_serve::{Clock, ServeConfig};
//!
//! // A TCP server on an ephemeral loopback port…
//! let acceptor = TcpAcceptorT::bind("127.0.0.1:0").unwrap();
//! let addr = acceptor.addr();
//! let keys: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
//! let topo = Topology::single(vec![addr.clone()]);
//! let serve = ServeConfig::new(2);
//! let server = NetServer::start(Box::new(acceptor), &keys, NetServerConfig::new(serve, topo, 0));
//!
//! // …and a remote client that learns the shard map from the handshake.
//! let client = RemoteClient::connect(Box::new(TcpDialer), &addr, ClientConfig::default()).unwrap();
//! assert_eq!(client.lookup(100).unwrap(), 51); // 0,2,…,100 → 51 keys ≤ 100
//! drop(client);
//! server.shutdown();
//! # let _ = ChanNet::new(Clock::system()); // the sim backend shares the same traits
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod topology;
pub mod transport;
pub mod wire;

pub use client::{
    run_net_load, ClientConfig, NetClientStats, NetHandle, PendingNetLookup, PendingNetUpdate,
    RemoteClient,
};
pub use server::{LogPosition, NetServer, NetServerConfig};
pub use topology::{Span, Topology};
pub use transport::{Acceptor, ChanNet, Dialer, Duplex, FrameRx, FrameTx, NetError};
pub use wire::{Frame, LookupStatus, StatusCode, WireError, WireOp, WIRE_VERSION};
