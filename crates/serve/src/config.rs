//! Serving-layer configuration.

use crate::clock::Clock;
use dini_cluster::{Fault, FaultSchedule};
use dini_flight::FlightJournal;
use dini_obs::TraceConfig;
use dini_store::StorePlan;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`IndexServer`](crate::IndexServer).
///
/// There is no batch-size knob: the paper's Figure 3 trade-off is
/// settled by the caller, whose batch is whatever it already holds — a
/// lone key, a pipelined caller's open group, a slice, a wire frame —
/// ranked on its own thread against one pinned snapshot per shard (see
/// [`server`](crate::server)). Nothing queues, so nothing waits to be
/// coalesced.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards; each shard is one contiguous key range — the
    /// paper's partition — ranked by whichever caller holds one of its
    /// replicas. This is the knob for parallelism inside the key space:
    /// pick it so a shard's keys fit a core's L2.
    pub n_shards: usize,
    /// Replicas per shard: independent claims and fault scripts on the
    /// shard. Replicas share the shard's one
    /// [`EpochCell`](crate::EpochCell) — main array, directory and
    /// overlay alike — so a replica costs a depth gauge and its
    /// accounting and nothing else; no replica owns a thread.
    /// Lookups are routed among a shard's replicas by
    /// power-of-two-choices on live depth (see
    /// [`ReplicaSelector`](crate::ReplicaSelector)); a caller that meets
    /// a replica's crash selects a surviving sibling, and a shard only
    /// answers `ShuttingDown` once its last replica is gone.
    pub replicas_per_shard: usize,
    /// Dead: the caller ranks its batch itself. Kept only because
    /// the frozen `benchmark/` still assigns it; goes with that line.
    #[deprecated(note = "read nowhere; use more shards for parallelism inside a key range")]
    #[doc(hidden)]
    pub slaves_per_shard: usize,
    /// Dead: no request waits on a timer. Kept only because the frozen
    /// `benchmark/` still assigns it; goes with that line.
    #[deprecated(note = "read nowhere; no request waits to be batched")]
    #[doc(hidden)]
    pub max_delay: Duration,
    /// Dead: no lookup queues, so nothing is bounded or shed in process.
    /// Kept only because the frozen `benchmark/` still assigns it; goes
    /// with that line.
    #[deprecated(note = "read nowhere; a caller ranks its own keys and never queues")]
    #[doc(hidden)]
    pub queue_capacity: usize,
    /// Per-shard delta budget: when a shard's pending churn exceeds this,
    /// the writer merges and publishes the new main array.
    pub merge_threshold: usize,
    /// How many churn operations the writer folds in before publishing a
    /// fresh snapshot (update visibility granularity).
    pub publish_every: usize,
    /// The time source every server thread waits on. Defaults to the
    /// native wall clock (zero-overhead); a [`SimClock`](crate::SimClock)
    /// here runs the whole server on deterministic virtual time
    /// (`dini-simtest`).
    pub clock: Clock,
    /// Deterministic fault injection on the ranking path: the
    /// schedule's crashes, straggles and dispatch jitter, met by every
    /// caller that ranks on the replica, before each batch it ranks
    /// (its link rates and link events are a transport's, and ignored
    /// here). Defaults to none; the fault-free path pays only a
    /// pre-resolved branch per batch.
    pub faults: FaultSchedule,
    /// Per-request stage tracing (see [`dini_obs::trace`]): seeded
    /// sampling into pre-allocated per-replica rings. **On by
    /// default** — the write path is a few atomic stores per *sampled*
    /// request, and the warmed read path stays allocation-free (pinned
    /// by `tests/zero_alloc.rs`), so there is no steady-state cost
    /// worth a dark deployment. [`TraceConfig::disabled`] turns it off.
    pub trace: TraceConfig,
    /// Where (and how often) the writer checkpoints a `dini-store`
    /// snapshot of every shard's state. `None` (the default) persists
    /// nothing — behavior is exactly as before. With a plan, the
    /// writer's merge cycle doubles as the checkpointer (plus one
    /// checkpoint at every quiesce barrier), and
    /// [`IndexServer::build_recovered`](crate::IndexServer::build_recovered)
    /// restarts by *mapping* the file instead of sorting.
    pub store: Option<StorePlan>,
    /// Key-range heat telemetry (see [`dini_obs::heat`]): per-shard
    /// fixed-bucket access counters bumped once per lookup at admission.
    /// **On by default** — one relaxed `fetch_add` per lookup, no
    /// allocation (pinned by `tests/zero_alloc.rs`).
    pub heat: bool,
    /// Crash-safe flight recorder for writer lifecycle events
    /// (checkpoint begin/ok/fail, epoch swaps). `None` (the default)
    /// records nothing; with a journal, every event survives `kill -9`
    /// and [`dini_flight::read_journal`] replays the crash story.
    pub flight: Option<Arc<FlightJournal>>,
}

impl ServeConfig {
    /// `n_shards` shards with serving-friendly defaults: 1 replica per
    /// shard, merges every 4096 delta entries, snapshots every 64 ops.
    #[allow(deprecated)] // the one initialiser of the dead fields
    pub fn new(n_shards: usize) -> Self {
        Self {
            n_shards,
            replicas_per_shard: 1,
            slaves_per_shard: 1,
            max_delay: Duration::ZERO,
            queue_capacity: 1024,
            merge_threshold: 4096,
            publish_every: 64,
            clock: Clock::system(),
            faults: FaultSchedule::default(),
            trace: TraceConfig::default(),
            store: None,
            heat: true,
            flight: None,
        }
    }

    /// Panic unless every knob is usable — and every replica fault
    /// names a shard and replica this server has, so none is scripted
    /// that could never fire.
    pub fn validate(&self) {
        assert!(self.n_shards >= 1, "need at least one shard");
        assert!(self.replicas_per_shard >= 1, "need at least one replica per shard");
        assert!(self.merge_threshold >= 1, "merge_threshold must be at least 1");
        assert!(self.publish_every >= 1, "publish_every must be at least 1");
        if let Some(plan) = &self.store {
            assert!(plan.every_merges >= 1, "store.every_merges must be at least 1");
        }
        for event in &self.faults.events {
            if let Fault::Crash { shard, replica, .. } | Fault::Straggle { shard, replica, .. } =
                *event
            {
                assert!(
                    shard < self.n_shards && replica.is_none_or(|r| r < self.replicas_per_shard),
                    "{event:?} names a replica this server does not have ({} shards × {} \
                     replicas)",
                    self.n_shards,
                    self.replicas_per_shard
                );
            }
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the request: the queue it needed was
    /// full — a `dini-net` client's outbox for the span. Retry later.
    Overloaded {
        /// Span (over a wire) whose queue was full.
        shard: usize,
    },
    /// The server is shutting down; no further requests are accepted.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { shard } => {
                write!(f, "shard {shard} admission queue full; request shed")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServeConfig::new(4).validate();
        ServeConfig::new(1).validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ServeConfig::new(0).validate();
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let mut cfg = ServeConfig::new(2);
        cfg.replicas_per_shard = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "names a replica this server does not have (3 shards")]
    fn a_crash_on_a_missing_shard_is_rejected() {
        let mut cfg = ServeConfig::new(3);
        cfg.faults.events.push(Fault::Crash { shard: 5, replica: Some(0), at: Duration::ZERO });
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "names a replica this server does not have (2 shards × 2")]
    fn a_straggle_on_a_missing_replica_is_rejected() {
        let mut cfg = ServeConfig::new(2);
        cfg.replicas_per_shard = 2;
        let extra = Duration::from_millis(1);
        cfg.faults.events.push(Fault::Straggle { shard: 1, replica: Some(2), extra });
        cfg.validate();
    }

    #[test]
    fn errors_render() {
        assert!(ServeError::Overloaded { shard: 3 }.to_string().contains("shard 3"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting down"));
    }
}
