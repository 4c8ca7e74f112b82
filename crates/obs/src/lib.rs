//! # dini-obs
//!
//! Observability substrate for the `dini` serving stack — the layer
//! that makes *where time goes* a measured quantity instead of a
//! qualitative claim. The paper's whole argument is about response-time
//! constraints under load and a batching knob whose sweet spot moves
//! with traffic; this crate gives the serving layer the instruments to
//! see that live, without giving up its zero-allocation, lock-free read
//! path:
//!
//! * [`trace`] — per-request **stage traces**: a compact
//!   [`StageRecord`] (admitted → batch-collected → dispatched →
//!   index-answered → reply-filled, plus the wire's encoded → acked)
//!   written into pre-allocated per-replica [`TraceRing`]s under seeded
//!   deterministic sampling. Writers are wait-free (seqlock slots, no
//!   heap, no locks); readers snapshot off the hot path.
//! * [`metrics`] — a [`MetricsRegistry`] of named lock-free handles:
//!   [`Counter`]s, gauge closures, and [`AtomicLogHistogram`]s that
//!   mirror `dini-cluster`'s `LogHistogram` bin layout and fold into
//!   plain histograms only at snapshot time. A [`MetricsSnapshot`]
//!   serializes to both JSON and Prometheus-style text exposition.
//! * [`causal`] — **cross-process stitching**: join the client-side
//!   wire record and server-side stage record that share one trace id
//!   into a [`CausalTimeline`] with per-hop wire/wait/service/fill
//!   breakdown and a monotonicity check the simtest oracles enforce.
//! * [`heat`] — **key-range heat**: a [`HeatMap`] of per-shard
//!   fixed-bucket access counters (relaxed, zero-alloc on the read
//!   path, and a load and a store for a replica claim's holder) showing where in the keyspace load lands — the
//!   telemetry elastic shard splits and hot-key caches steer by.
//! * [`rate`] — [`Meter`]: windowed per-second rates from successive
//!   polls of the monotone counters everything above exposes.
//! * [`host`] — host context capture (core count, CPU model) so bench
//!   artifacts record *what machine* produced them.
//!
//! Everything here reads timestamps supplied by the caller (the serving
//! layer's `Clock`), so the same instrumentation runs unchanged on
//! wall-clock and on `dini-simtest`'s deterministic virtual time — the
//! FoundationDB property: what you observe in simulation is what you
//! observe in production.

#![warn(missing_docs)]

pub mod causal;
pub mod heat;
pub mod host;
pub mod metrics;
pub mod rate;
pub(crate) mod sync;
pub mod trace;

pub use causal::{stitch, CausalTimeline};
pub use heat::{HeatMap, HEAT_BUCKETS};
pub use host::{host_context, HostContext};
pub use metrics::{AtomicLogHistogram, Counter, MetricsRegistry, MetricsSnapshot};
pub use rate::Meter;
pub use trace::{StageRecord, TraceConfig, TraceRing};
