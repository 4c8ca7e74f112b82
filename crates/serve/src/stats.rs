//! Serving-side accounting: latency percentiles, batch shapes, counters.
//!
//! Response time is a first-class quantity here, as in the paper's
//! "severe constraints in both throughput and response time". Latency
//! samples (reply − enqueue, i.e. including coalescing and queueing
//! delay) land in [`dini_cluster::LogHistogram`]s — fixed memory, O(1)
//! insert, quantiles good to one log-bin.
//!
//! The latency histogram is **exhaustive for queued requests and
//! sampled-and-weighted for a holder's own keys**. A queued request
//! already cost a push and a park, so the holder that answers it records
//! one latency per request. A caller that ranks its own keys under a
//! claim would spend more time reading the clock (twice) and recording a
//! latency than ranking, so it times a batch only when the replica's
//! seeded 1-in-`sample_period` sampler picks one of its requests (or it
//! carries a trace id) and records that one latency with weight picked ×
//! period. The count therefore stays within one period of `served` per
//! replica and the two kinds mix without bias; `served`, `batches` and
//! `batch_size` are exact for both. `TraceConfig::dense()` times every
//! batch; `TraceConfig::disabled()` times a holder's own keys never.
//!
//! The live accumulators are [`ReplicaMetrics`]: `dini-obs` atomics
//! (lock-free histograms, counters, and a stage-trace ring) registered
//! under named handles in the server's [`MetricsRegistry`]. Only the
//! thread holding the replica writes them, once per *batch*, with plain
//! load-and-store: the hold already makes its holder their only writer,
//! so a lookup's accounting costs no read-modify-write at all.
//!
//! The registry is the only counter schema. [`ServeStats`] holds no
//! number of its own: it is read off a [`MetricsSnapshot`] by series
//! name ([`ServeStats::within`]), summing each family across replicas, so
//! the same mapping serves a local snapshot, a single replica's series,
//! and a snapshot that crossed the wire in a `StatsReply`. `served` has
//! two series per replica: the keys holders ranked for themselves carry
//! `path="claim"` and are [`ServeStats::claimed`]; the rest are what a
//! holder combined for callers that queued.

use crate::clock::Nanos;
use crate::sync::Arc;
use dini_cluster::LogHistogram;
use dini_obs::{
    AtomicLogHistogram, Counter, MetricsRegistry, MetricsSnapshot, TraceConfig, TraceRing,
};

/// The label the claim-side set's series carry on top of their
/// replica's coordinates.
const CLAIM_PATH: &str = "path=\"claim\"";

/// The label list naming one replica's series.
pub(crate) fn replica_labels(shard: usize, replica: usize) -> String {
    format!("shard=\"{shard}\",replica=\"{replica}\"")
}

/// One replica's live, lock-free accounting: `dini-obs` atomics that
/// the thread holding the replica updates in place (no mutex anywhere
/// on the read path), plus the replica's stage-trace ring. Handles are
/// registered in the server's [`MetricsRegistry`] under
/// `shard="s",replica="r"` labels, so a registry snapshot sees every
/// replica without asking anyone.
///
/// Every write is the holder's, and holders exclude each other through
/// the depth gauge's Acquire/Release (see [`crate::admission`]), so each
/// field is written with a load and a store ([`Counter::add_unshared`],
/// [`AtomicLogHistogram::record_n_unshared`]) instead of a
/// read-modify-write. The visibility contract callers rely on
/// (`stats().served` includes every reaped lookup) holds too: a holder
/// records a batch *before* releasing its replies, each reply release is
/// an acquire/release handoff through the reply cell, and so a caller
/// that has observed its reply observes the counts sequenced before it.
#[derive(Debug)]
pub struct ReplicaMetrics {
    latency_ns: Arc<AtomicLogHistogram>,
    batch_size: Arc<AtomicLogHistogram>,
    /// Keys ranked by the thread that issued them (`path="claim"`).
    claimed: Counter,
    /// Keys a holder ranked for callers that queued.
    combined: Counter,
    batches: Counter,
    rerouted: Counter,
    /// The holder's ring, and its sampler.
    trace: TraceRing,
}

impl ReplicaMetrics {
    /// Build one replica's handles, registering them in `reg` labelled
    /// with the replica's coordinates; the claimed keys' `served` series
    /// carries `path="claim"` as well. The trace ring's sampling seed is
    /// decorrelated per replica so replicas sample different residue
    /// classes of their own request streams.
    pub fn new(reg: &MetricsRegistry, shard: usize, replica: usize, trace: &TraceConfig) -> Self {
        let labels = replica_labels(shard, replica);
        let served = |labels: &str| reg.counter("dini_serve_served", labels);
        let flat_salt = ((shard as u64) << 16 | replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let trace = TraceConfig { seed: trace.seed ^ flat_salt, ..trace.clone() };
        Self {
            latency_ns: reg.histogram("dini_serve_latency_ns", &labels),
            batch_size: reg.histogram("dini_serve_batch_size", &labels),
            claimed: served(&format!("{labels},{CLAIM_PATH}")),
            combined: served(&labels),
            batches: reg.counter("dini_serve_batches", &labels),
            rerouted: reg.counter("dini_serve_rerouted", &labels),
            trace: TraceRing::new(&trace),
        }
    }

    /// Count one batch of `n` queries: the holder's own keys (`own`), or
    /// requests it combined. Only the holder may call this (see the type
    /// docs): a load and a store per field.
    pub fn count_batch(&self, n: u64, own: bool) {
        self.batch_size.record_n_unshared(n, 1);
        if own { &self.claimed } else { &self.combined }.add_unshared(n);
        self.batches.add_unshared(1);
    }

    /// Record one latency, standing for `weight` queries (a sampled own
    /// batch: requests picked × sampling period, so the histogram's count
    /// keeps pace with `served`). Only the holder may call this.
    pub fn record_latency(&self, ns: Nanos, weight: u64) {
        self.latency_ns.record_n_unshared(ns, weight);
    }

    /// Count `n` failover hand-offs to a surviving sibling. Only the
    /// holder may call this.
    pub fn count_rerouted(&self, n: u64) {
        self.rerouted.add_unshared(n);
    }

    /// This replica's stage-trace ring and sampler: the holder is the
    /// ring's single writer; anyone may snapshot it.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }
}

/// The serving totals, as a named view over a [`MetricsSnapshot`]: the
/// whole server's (`ServeStats::from(&snapshot)`, what
/// [`IndexServer::stats`](crate::IndexServer::stats) returns) or one
/// replica's ([`within`](Self::within) its labels — then the writer's
/// counters, which carry no replica labels, read 0).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Merged per-query latency across shards (ns): one sample per
    /// queued query; for keys their caller ranked, one measured latency
    /// per sampler pick, weighted by the sampling period — so `count()` tracks `served` to within one period per
    /// replica, not exactly (see the module docs).
    pub latency_ns: LogHistogram,
    /// Merged batch-size distribution.
    pub batch_size: LogHistogram,
    /// Total queries served.
    pub served: u64,
    /// Of `served`, the keys ranked by the thread that issued them (under
    /// an idle replica's claim); `served − claimed` is what holders
    /// combined for callers that queued.
    pub claimed: u64,
    /// Total batches dispatched.
    pub batches: u64,
    /// Main epochs each replica's shard has crossed, summed over replicas.
    pub rebuilds: u64,
    /// Requests admitted into some replica queue.
    pub admitted: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests re-routed from crashed replicas to surviving siblings
    /// (each one was admitted once and answered once — failover is a
    /// hand-off, not a retry).
    pub rerouted: u64,
    /// Churn operations that actually mutated the index (insert of an
    /// absent key, delete of a present one).
    pub updates_applied: u64,
    /// Churn operations accepted but with no effect (duplicate insert,
    /// delete of an absent key).
    pub update_nops: u64,
    /// Coalesced churn-log batches applied via `update_batch` (the
    /// transport layer's replicated-log apply path).
    pub update_batches: u64,
    /// Snapshot epochs published by the writer.
    pub snapshots_published: u64,
    /// Delta merges (each a new main array and directory) performed by
    /// the writer.
    pub merges: u64,
}

impl From<&MetricsSnapshot> for ServeStats {
    /// Every series the view reads, summed over all its labels.
    fn from(snap: &MetricsSnapshot) -> Self {
        Self::within(snap, "")
    }
}

impl ServeStats {
    /// The view over the series whose labels lie within `scope` (see
    /// [`MetricsSnapshot::in_scope`]): `shard="s",replica="r"` for one
    /// replica, `""` for everything. This is the one place a field gets
    /// its series name.
    pub fn within(snap: &MetricsSnapshot, scope: &str) -> Self {
        let keep = |labels: &str| MetricsSnapshot::in_scope(labels, scope);
        let sum = |name| snap.sum_where(name, keep);
        Self {
            latency_ns: snap.merged_where("dini_serve_latency_ns", keep),
            batch_size: snap.merged_where("dini_serve_batch_size", keep),
            served: sum("dini_serve_served"),
            claimed: snap.sum_where("dini_serve_served", |l| keep(l) && l.ends_with(CLAIM_PATH)),
            batches: sum("dini_serve_batches"),
            rebuilds: sum("dini_serve_rebuilds"),
            admitted: sum("dini_serve_admitted"),
            shed: sum("dini_serve_shed"),
            rerouted: sum("dini_serve_rerouted"),
            updates_applied: sum("dini_serve_updates_applied"),
            update_nops: sum("dini_serve_update_nops"),
            update_batches: sum("dini_serve_update_batches"),
            snapshots_published: sum("dini_serve_snapshots"),
            merges: sum("dini_serve_merges"),
        }
    }

    /// Mean departed-batch size (0 when no batches departed).
    pub fn mean_batch(&self) -> f64 {
        self.batch_size.mean()
    }

    /// Latency quantile in nanoseconds (`q` in `[0, 1]`).
    pub fn latency_quantile_ns(&self, q: f64) -> f64 {
        self.latency_ns.quantile(q)
    }

    /// One-line human summary (used by the example and the bench).
    pub fn summary(&self) -> String {
        format!(
            "served {} in {} batches (mean batch {:.1}), shed {}, rerouted {} | \
             latency p50 {:.0} ns, p99 {:.0} ns, p999 {:.0} ns | \
             {} updates (+{} nops), {} snapshots, {} merges",
            self.served,
            self.batches,
            self.mean_batch(),
            self.shed,
            self.rerouted,
            self.latency_quantile_ns(0.50),
            self.latency_quantile_ns(0.99),
            self.latency_quantile_ns(0.999),
            self.updates_applied,
            self.update_nops,
            self.snapshots_published,
            self.merges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one plain fold of these batches leaves: `(latency, batch size)`.
    fn fold(batches: &[&[u64]]) -> (LogHistogram, LogHistogram) {
        let (mut latency, mut size) = (LogHistogram::new(), LogHistogram::new());
        for batch in batches {
            for &ns in *batch {
                latency.record(ns as f64);
            }
            size.record(batch.len() as f64);
        }
        (latency, size)
    }

    #[test]
    fn the_view_reads_what_the_replicas_recorded() {
        // Two replicas' atomics, read back through the registry by name:
        // per replica within its labels, and summed over both.
        let reg = MetricsRegistry::new();
        let a = ReplicaMetrics::new(&reg, 1, 0, &TraceConfig::default());
        let b = ReplicaMetrics::new(&reg, 1, 1, &TraceConfig::default());
        for batch in [&[100, 200, 300][..], &[50][..]] {
            a.count_batch(batch.len() as u64, false);
            batch.iter().for_each(|&ns| a.record_latency(ns, 1));
        }
        b.count_batch(1, false);
        b.record_latency(1_000, 1);
        b.count_rerouted(1);
        let snap = reg.snapshot();

        let one = ServeStats::within(&snap, "shard=\"1\",replica=\"0\"");
        let (latency, size) = fold(&[&[100, 200, 300], &[50]]);
        assert_eq!((one.served, one.batches, one.rerouted), (4, 2, 0));
        assert_eq!((one.latency_ns, one.batch_size), (latency, size));

        let all = ServeStats::from(&snap);
        let (latency, size) = fold(&[&[100, 200, 300], &[50], &[1_000]]);
        assert_eq!((all.served, all.batches, all.rerouted), (5, 3, 1));
        assert_eq!((&all.latency_ns, &all.batch_size), (&latency, &size));
        let line = all.summary();
        assert!(line.contains("served 5") && line.contains("rerouted 1"), "{line}");
        // One log2/32 bin is ~2.2 % wide; the 1000 ns sample's bin floor is ~981.
        assert!(all.latency_quantile_ns(1.0) >= 975.0);
    }

    #[test]
    fn claimed_keys_are_their_own_served_series() {
        // One combined batch and one own batch: the view sums them, keeps
        // the claimed share apart, and the registry shows the claimed
        // keys as their own `path="claim"` series.
        let reg = MetricsRegistry::new();
        let m = ReplicaMetrics::new(&reg, 0, 2, &TraceConfig::default());
        m.count_batch(2, false);
        m.record_latency(100, 1);
        m.record_latency(300, 1);
        m.count_batch(4, true);
        m.record_latency(50, 4);
        let snap = reg.snapshot();
        let view = ServeStats::from(&snap);
        assert_eq!((view.served, view.claimed, view.batches), (6, 4, 2));
        assert_eq!((view.latency_ns, view.batch_size), fold(&[&[100, 300], &[50; 4]]));
        let served: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .filter(|(n, _, _)| n == "dini_serve_served")
            .map(|(_, l, v)| (l.as_str(), *v))
            .collect();
        assert_eq!(
            served,
            [("shard=\"0\",replica=\"2\",path=\"claim\"", 4), ("shard=\"0\",replica=\"2\"", 2)]
        );
    }

    #[test]
    fn replica_metrics_trace_ring_is_seed_decorrelated() {
        let reg = MetricsRegistry::new();
        let cfg = TraceConfig { capacity: 8, sample_period: 4, seed: 9 };
        let a = ReplicaMetrics::new(&reg, 0, 0, &cfg);
        let b = ReplicaMetrics::new(&reg, 0, 1, &cfg);
        let hits_a: Vec<bool> = (0..16).map(|_| a.trace().sample()).collect();
        let hits_b: Vec<bool> = (0..16).map(|_| b.trace().sample()).collect();
        assert_eq!(hits_a.iter().filter(|&&h| h).count(), 4);
        assert_ne!(hits_a, hits_b, "replicas must sample different residue classes");
    }
}
