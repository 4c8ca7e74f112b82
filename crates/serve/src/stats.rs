//! Serving-side accounting: latency percentiles, batch shapes, counters.
//!
//! Response time is a first-class quantity here, as in the paper's
//! "severe constraints in both throughput and response time". Latency
//! samples (reply − enqueue, i.e. including coalescing and queueing
//! delay) land in [`dini_cluster::LogHistogram`]s — fixed memory, O(1)
//! insert, quantiles good to one log-bin.
//!
//! The latency histogram is **sampled and weighted**. A caller that
//! ranks its own keys would spend more time reading the clock (twice)
//! and recording a latency than ranking, so it times a batch only when
//! the replica's seeded 1-in-`sample_period` sampler picks one of its
//! requests (or it carries a trace id) and records that one latency
//! with weight picked × period. The count therefore stays within one
//! period of `served` per replica; `served`, `batches` and `batch_size`
//! are exact. `TraceConfig::dense()` times every batch;
//! `TraceConfig::disabled()` never.
//!
//! The live accumulators are [`ReplicaMetrics`]: `dini-obs` atomics
//! (lock-free histograms, counters, and a stage-trace ring) registered
//! under named handles in the server's [`MetricsRegistry`], written
//! once per *batch* by the caller that ranked it. Each replica keeps
//! two rows of them. The **claim row** is written only by a caller
//! holding the replica's claim, with plain load-and-store: the claim
//! already makes its holder the row's only writer, so an uncontended
//! lookup's accounting costs no read-modify-write at all. The **shared
//! row** is written by callers that lost the claim and ranked anyway,
//! with read-modify-writes, since several of them may be counting at
//! once.
//!
//! The registry is the only counter schema. [`ServeStats`] holds no
//! number of its own: it is read off a [`MetricsSnapshot`] by series
//! name ([`ServeStats::within`]), summing each family across replicas
//! and rows, so the same mapping serves a local snapshot, a single
//! replica's series, and a snapshot that crossed the wire in a
//! `StatsReply`. The claim row's series carry `path="claim"`, and its
//! `served` is [`ServeStats::claimed`].

use crate::clock::Nanos;
use crate::sync::Arc;
use dini_cluster::LogHistogram;
use dini_obs::{
    AtomicLogHistogram, Counter, MetricsRegistry, MetricsSnapshot, TraceConfig, TraceRing,
};

/// The label the claim row's series carry on top of their replica's
/// coordinates.
const CLAIM_PATH: &str = "path=\"claim\"";

/// The label list naming one replica's series.
pub(crate) fn replica_labels(shard: usize, replica: usize) -> String {
    format!("shard=\"{shard}\",replica=\"{replica}\"")
}

/// One replica's live, lock-free accounting: `dini-obs` atomics that
/// the callers ranking for the replica update in place (no mutex
/// anywhere on the read path), plus the replica's stage-trace ring.
/// Handles are registered in the server's [`MetricsRegistry`] under
/// `shard="s",replica="r"` labels, so a registry snapshot sees every
/// replica without asking anyone.
///
/// The claim row is written by the replica's claim holder alone, and
/// holders exclude each other through the depth gauge's Acquire/Release
/// (see [`crate::admission`]), so its fields are written with a load
/// and a store ([`Counter::add_unshared`],
/// [`AtomicLogHistogram::record_n_unshared`]). The shared row takes
/// read-modify-writes ([`Counter::add`], [`AtomicLogHistogram::record_n`]).
/// A caller counts its batch before it returns the batch's answers, so
/// `stats().served` includes every lookup its caller has seen answered.
#[derive(Debug)]
pub struct ReplicaMetrics {
    /// Batches ranked under the replica's claim (`path="claim"`).
    claim: Row,
    /// Batches ranked by callers that lost the claim.
    shared: Row,
    rerouted: Counter,
    /// The replica's ring, and its sampler: every caller writes it.
    trace: TraceRing,
}

/// One row of a replica's counts.
#[derive(Debug)]
struct Row {
    latency_ns: Arc<AtomicLogHistogram>,
    batch_size: Arc<AtomicLogHistogram>,
    served: Counter,
    batches: Counter,
    /// Whether the row has one writer at a time (the claim holder).
    unshared: bool,
}

impl Row {
    fn new(reg: &MetricsRegistry, labels: &str, unshared: bool) -> Self {
        Self {
            latency_ns: reg.histogram("dini_serve_latency_ns", labels),
            batch_size: reg.histogram("dini_serve_batch_size", labels),
            served: reg.counter("dini_serve_served", labels),
            batches: reg.counter("dini_serve_batches", labels),
            unshared,
        }
    }

    fn add(&self, counter: &Counter, n: u64) {
        if self.unshared {
            counter.add_unshared(n);
        } else {
            counter.add(n);
        }
    }

    fn record(&self, hist: &AtomicLogHistogram, v: u64, weight: u64) {
        if self.unshared {
            hist.record_n_unshared(v, weight);
        } else {
            hist.record_n(v, weight);
        }
    }
}

impl ReplicaMetrics {
    /// Build one replica's handles, registering them in `reg` labelled
    /// with the replica's coordinates; the claim row's series carry
    /// `path="claim"` as well. The trace ring's sampling seed is
    /// decorrelated per replica so replicas sample different residue
    /// classes of their own request streams.
    pub fn new(reg: &MetricsRegistry, shard: usize, replica: usize, trace: &TraceConfig) -> Self {
        let labels = replica_labels(shard, replica);
        let flat_salt = ((shard as u64) << 16 | replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let trace = TraceConfig { seed: trace.seed ^ flat_salt, ..trace.clone() };
        Self {
            claim: Row::new(reg, &format!("{labels},{CLAIM_PATH}"), true),
            shared: Row::new(reg, &labels, false),
            rerouted: reg.counter("dini_serve_rerouted", &labels),
            trace: TraceRing::new(&trace),
        }
    }

    fn row(&self, claimed: bool) -> &Row {
        if claimed {
            &self.claim
        } else {
            &self.shared
        }
    }

    /// Count one batch of `n` queries, ranked under the replica's claim
    /// (`claimed`: only its holder may say so) or not.
    pub fn count_batch(&self, n: u64, claimed: bool) {
        let row = self.row(claimed);
        row.record(&row.batch_size, n, 1);
        row.add(&row.served, n);
        row.add(&row.batches, 1);
    }

    /// Record one latency, standing for `weight` queries (requests
    /// picked × sampling period, so the histogram's count keeps pace
    /// with `served`), in the claim row or the shared one.
    pub fn record_latency(&self, ns: Nanos, weight: u64, claimed: bool) {
        let row = self.row(claimed);
        row.record(&row.latency_ns, ns, weight);
    }

    /// Count `n` keys handed to a surviving sibling after this replica
    /// met its crash point.
    pub fn count_rerouted(&self, n: u64) {
        self.rerouted.add(n);
    }

    /// This replica's stage-trace ring and sampler: every caller that
    /// ranks for the replica writes it; anyone may snapshot it.
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
    /// Merged per-query latency across shards (ns): one measured
    /// latency per sampler pick, weighted by the sampling period — so
    /// `count()` tracks `served` to within one period per replica, not
    /// exactly (see the module docs).
    pub latency_ns: LogHistogram,
    /// Merged batch-size distribution.
    pub batch_size: LogHistogram,
    /// Total queries served.
    pub served: u64,
    /// Of `served`, the keys ranked under an idle replica's claim;
    /// `served − claimed` is what callers that lost the claim ranked
    /// beside its holder.
    pub claimed: u64,
    /// Total batches dispatched.
    pub batches: u64,
    /// Main epochs each replica's shard has crossed, summed over replicas.
    pub rebuilds: u64,
    /// Requests admitted. A key is admitted by being ranked, on its
    /// caller's thread, so this is `served`.
    pub admitted: u64,
    /// Requests shed by admission control: always 0 — nothing queues in
    /// process, so nothing overflows (a `dini-net` client's outbox sheds,
    /// and counts its own). Kept while `benchmark/` reads it.
    pub shed: u64,
    /// Keys re-routed from crashed replicas to surviving siblings
    /// (each one was admitted once and answered once — failover is a
    /// re-selection, not a retry).
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
            admitted: sum("dini_serve_served"),
            shed: 0,
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
            "served {} in {} batches (mean batch {:.1}), rerouted {} | \
             latency p50 {:.0} ns, p99 {:.0} ns, p999 {:.0} ns | \
             {} updates (+{} nops), {} snapshots, {} merges",
            self.served,
            self.batches,
            self.mean_batch(),
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
            batch.iter().for_each(|&ns| a.record_latency(ns, 1, false));
        }
        b.count_batch(1, true);
        b.record_latency(1_000, 1, true);
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
    fn the_claim_row_is_its_own_set_of_series() {
        // One shared batch and one claimed batch: the view sums them,
        // keeps the claimed share apart, and the registry shows the
        // claim row as its own `path="claim"` series.
        let reg = MetricsRegistry::new();
        let m = ReplicaMetrics::new(&reg, 0, 2, &TraceConfig::default());
        m.count_batch(2, false);
        m.record_latency(100, 1, false);
        m.record_latency(300, 1, false);
        m.count_batch(4, true);
        m.record_latency(50, 4, true);
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
