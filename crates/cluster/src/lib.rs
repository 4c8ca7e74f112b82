//! # dini-cluster
//!
//! The cluster substrate for the DINI reproduction of Ma & Cooperman
//! (CLUSTER 2005). The paper ran on an 11-node Pentium III cluster over
//! 2 Gb/s Myrinet with MPICH-GM; this crate substitutes:
//!
//! * [`sim`] — a deterministic discrete-event simulator: nodes are
//!   [`Actor`]s processing messages sequentially, sends are MPI_Isend-like
//!   (non-blocking, DMA-overlapped: only a per-message software overhead
//!   lands on the CPU; transfer time is serialised on the sender's link),
//!   and per-node busy/idle time is accounted — the quantity behind the
//!   paper's "slaves were idle 50 % of the time for 8 KB batch sizes".
//!   The simulator also supports timers ([`Ctx::schedule`]), fault
//!   injection and message tracing.
//! * [`network`] — bandwidth/latency/per-message-overhead models with
//!   presets for the paper's measured Myrinet (138 MB/s, 7 µs) plus
//!   Gigabit and Fast Ethernet for the paper's §2.2 discussion.
//! * [`switch`] — a finite-capacity shared backplane, ablating the
//!   paper's "aggregate network bandwidth is unlimited" assumption.
//! * [`fault`] — seeded, deterministic drop/duplicate/jitter/crash
//!   injection for testing recovery protocols on top of the simulator.
//! * [`inject`] — the same fate machinery repackaged per **frame** for
//!   real transports: [`LinkPlan`]/[`LinkState`] turn each outgoing
//!   frame into a deliver/drop/duplicate/link-down decision, which is
//!   how `dini-net`'s simulated network backend drops and jitters wire
//!   frames deterministically.
//! * [`metrics`] — log-spaced histograms for response-time accounting.

#![warn(missing_docs)]

pub mod fault;
pub mod inject;
pub mod metrics;
pub mod network;
pub mod sim;
pub mod switch;

pub use fault::{FaultPlan, FaultState, MsgFate};
pub use inject::{FrameFate, LinkPlan, LinkState};
pub use metrics::LogHistogram;
pub use network::NetworkModel;
pub use sim::{Actor, Ctx, MsgRecord, NodeId, NodeReport, SimCluster, SimReport};
pub use switch::SwitchModel;
