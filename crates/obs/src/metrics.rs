//! The metrics registry: named lock-free handles (counters, gauges,
//! histograms) merged into a [`MetricsSnapshot`] on demand.
//!
//! Hot-path writers touch only atomics: a [`Counter`] is an
//! `Arc<AtomicU64>`, an [`AtomicLogHistogram`] is a fixed array of
//! atomic bins mirroring `dini-cluster`'s `LogHistogram` layout. The
//! registry's mutex guards *registration and snapshotting only* — no
//! request ever takes it. Snapshots fold the atomics into plain
//! [`LogHistogram`]s (via `LogHistogram::from_parts`) and serialize to
//! JSON or a Prometheus-style text exposition. A snapshot is the one
//! place a number has a name: every other view of the numbers (the
//! serving layer's stats, the wire's stats reply, `dini_top`) reads it
//! by series name.

use crate::sync::{Arc, AtomicU64, Mutex, Ordering};
use dini_cluster::LogHistogram;

/// A named monotonic counter (or settable level): a shared `AtomicU64`
/// behind a handle. All operations are `Relaxed` — ordering with
/// respect to the work being counted is the *caller's* contract (the
/// serving layer records before it releases replies, so a reader who
/// has observed a reply observes its counts).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (registries hand out registered ones).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ordering: relaxed-ok: monotonic event counter; readers fold it
        // into snapshots and tolerate staleness — atomicity is the whole
        // contract (see the type-level docs above).
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` as this counter's only writer: a load and a store, no
    /// read-modify-write. Sound only while writers exclude each other and
    /// each one's store happens before the next one's load (the serving
    /// layer's claim is such an exclusion); a concurrent `add` or
    /// `add_unshared` could be lost. Readers may still read at any time.
    #[inline]
    pub fn add_unshared(&self, n: u64) {
        // ordering: relaxed-ok: writers are ordered by the caller's own
        // exclusion (see above), so this load sees the last store; readers
        // only fold the value into snapshots.
        self.0.store(self.0.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Overwrite the value (for level-style counters, e.g. "rebuilds
    /// adopted" which the owner tracks as a running total).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free log2-spaced histogram: the atomic twin of
/// `dini-cluster`'s [`LogHistogram`], sharing its bin layout bit for
/// bit. Any number of threads may [`record`](Self::record)
/// concurrently; [`snapshot`](Self::snapshot) folds the bins into a
/// plain `LogHistogram` for quantile queries and merging.
///
/// Samples are integer-valued by convention (nanoseconds, batch
/// sizes), so the running sum stays exact in a `u64`. A snapshot taken
/// concurrently with writers may tear across fields by a few in-flight
/// samples — fine for monitoring; exact totals hold once the writer's
/// work is observed (see [`Counter`] on ordering).
#[derive(Debug)]
pub struct AtomicLogHistogram {
    bins: Vec<AtomicU64>,
    sum: AtomicU64,
    /// `u64::MAX` until the first sample.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicLogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicLogHistogram {
    /// An empty histogram (allocates its bins once, here).
    pub fn new() -> Self {
        Self {
            bins: (0..LogHistogram::nbins()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. No locks, no allocation: two atomic
    /// read-modify-writes (bin, sum), plus a `fetch_min` / `fetch_max`
    /// (compare-exchange loops on x86-64) only for a sample that moves
    /// the minimum or the maximum.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of one value — what `n` calls of
    /// [`record`](Self::record) leave, for the price of one: how a
    /// sampled measurement stands in for the `n` it was picked from.
    /// `n == 0` records nothing.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        // ordering: relaxed-ok: each field is independently monotonic (or
        // min/max-convergent); `snapshot` folds a possibly-skewed view,
        // which the histogram contract explicitly permits.
        self.bins[LogHistogram::bin_index(v as f64)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        // The minimum only falls and the maximum only rises, so one that
        // already bounds `v` still will: skipping the RMW then is exact.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// [`record_n`](Self::record_n) as this histogram's only writer: a
    /// load and a store per field, no read-modify-write. The contract of
    /// [`Counter::add_unshared`] applies: writers must exclude each other
    /// and be ordered one after the next; readers may snapshot at any
    /// time.
    #[inline]
    pub fn record_n_unshared(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        // ordering: relaxed-ok: writers are ordered by the caller's own
        // exclusion, so each load sees the previous writer's store;
        // `snapshot` folds a possibly-skewed view, as for `record_n`.
        let bin = &self.bins[LogHistogram::bin_index(v as f64)];
        bin.store(bin.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed).wrapping_add(v.wrapping_mul(n));
        self.sum.store(sum, Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.store(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.bins.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Fold into a plain [`LogHistogram`] (allocates; off the hot path).
    pub fn snapshot(&self) -> LogHistogram {
        let bins: Vec<u64> = self.bins.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let min = self.min.load(Ordering::Relaxed);
        let min = if min == u64::MAX { f64::INFINITY } else { min as f64 };
        LogHistogram::from_parts(
            &bins,
            self.sum.load(Ordering::Relaxed) as f64,
            min,
            self.max.load(Ordering::Relaxed) as f64,
        )
    }
}

/// A gauge sampled at snapshot time: a closure over whatever live
/// atomic the value lives in (queue depth, live keys, ring occupancy).
type GaugeFn = Box<dyn Fn() -> u64 + Send + Sync>;

enum Instrument {
    Counter(Counter),
    Gauge(GaugeFn),
    Histogram(Arc<AtomicLogHistogram>),
}

struct Entry {
    /// Metric family name, e.g. `dini_serve_served`.
    name: String,
    /// Prometheus-style label pairs without braces, e.g.
    /// `shard="0",replica="1"` (empty for unlabelled metrics).
    labels: String,
    instrument: Instrument,
}

/// A registry of named instruments. Registration and snapshotting lock
/// a mutex; the handles handed out are lock-free and live as long as
/// any clone does (the registry keeps its own reference, so snapshots
/// keep working after the owner drops its handle).
#[derive(Default)]
pub struct MetricsRegistry {
    // lint: lock-ok: guards registration and snapshotting only; no
    // request-path operation ever takes it (handles are lock-free).
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        write!(f, "MetricsRegistry({n} instruments)")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, name: &str, labels: &str, instrument: Instrument) {
        self.entries.lock().expect("metrics registry poisoned").push(Entry {
            name: name.to_owned(),
            labels: labels.to_owned(),
            instrument,
        });
    }

    /// Register and return a counter. `labels` is a Prometheus-style
    /// pair list without braces (`shard="0",replica="1"`; empty for
    /// none).
    pub fn counter(&self, name: &str, labels: &str) -> Counter {
        let c = Counter::new();
        self.push(name, labels, Instrument::Counter(c.clone()));
        c
    }

    /// Register and return a settable gauge: a [`Counter`] handle whose
    /// owner [`set`](Counter::set)s (or adds to) a level, snapshotted
    /// among the gauges.
    pub fn gauge(&self, name: &str, labels: &str) -> Counter {
        let c = Counter::new();
        let level = c.clone();
        self.gauge_fn(name, labels, move || level.get());
        c
    }

    /// Register a gauge computed at snapshot time.
    pub fn gauge_fn(&self, name: &str, labels: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.push(name, labels, Instrument::Gauge(Box::new(f)));
    }

    /// Register and return a lock-free histogram.
    pub fn histogram(&self, name: &str, labels: &str) -> Arc<AtomicLogHistogram> {
        let h = Arc::new(AtomicLogHistogram::new());
        self.push(name, labels, Instrument::Histogram(h.clone()));
        h
    }

    /// Materialize every instrument's current value, reading them one
    /// after another in registration order. The copy is not atomic: an
    /// effect's counter registered before its cause's (served before
    /// admitted) rules out an event that completes between the two reads
    /// showing its effect alone, but not a writer that bumps the effect
    /// first.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for e in entries.iter() {
            match &e.instrument {
                Instrument::Counter(c) => {
                    snap.counters.push((e.name.clone(), e.labels.clone(), c.get()));
                }
                Instrument::Gauge(f) => {
                    snap.gauges.push((e.name.clone(), e.labels.clone(), f()));
                }
                Instrument::Histogram(h) => {
                    snap.histograms.push((e.name.clone(), e.labels.clone(), h.snapshot()));
                }
            }
        }
        snap
    }
}

/// A point-in-time copy of a registry: plain values and plain
/// histograms, detached from the live atomics. Every view of the
/// numbers is read off it by name ([`series`](Self::series),
/// [`sum`](Self::sum), [`merged_where`](Self::merged_where)); it serializes to JSON
/// ([`to_json`](Self::to_json)) and Prometheus text exposition
/// ([`to_prometheus`](Self::to_prometheus)), and crosses the wire whole.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, labels, value)` for every counter.
    pub counters: Vec<(String, String, u64)>,
    /// `(name, labels, value)` for every gauge.
    pub gauges: Vec<(String, String, u64)>,
    /// `(name, labels, histogram)` for every histogram.
    pub histograms: Vec<(String, String, LogHistogram)>,
}

impl MetricsSnapshot {
    /// The one shared latency summary line: p50/p99/p999 in
    /// microseconds from a nanosecond histogram. Every surface that
    /// reports a latency distribution (load reports, server summaries,
    /// the demos, `dini_top`) formats through here, so the lines stay
    /// eyeball-comparable.
    pub fn latency_line(latency_ns: &LogHistogram) -> String {
        format!(
            "latency p50 {:.1} µs, p99 {:.1} µs, p999 {:.1} µs",
            latency_ns.quantile(0.50) / 1_000.0,
            latency_ns.quantile(0.99) / 1_000.0,
            latency_ns.quantile(0.999) / 1_000.0,
        )
    }

    /// Every scalar series (counter or gauge) named `name`, as
    /// `(labels, value)` in registration order.
    pub fn series<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .chain(&self.gauges)
            .filter(move |(n, ..)| n == name)
            .map(|(_, l, v)| (l.as_str(), *v))
    }

    /// Every scalar series named `name` whose label list `keep` accepts,
    /// summed: how a view reads one family across shards, replicas and
    /// paths without knowing how many there are. A name nobody
    /// registered reads 0.
    pub fn sum_where(&self, name: &str, keep: impl Fn(&str) -> bool) -> u64 {
        self.series(name).filter(|(l, _)| keep(l)).fold(0, |sum, (_, v)| sum.wrapping_add(v))
    }

    /// [`sum_where`](Self::sum_where) over every label set.
    pub fn sum(&self, name: &str) -> u64 {
        self.sum_where(name, |_| true)
    }

    /// Every histogram series named `name` whose label list `keep`
    /// accepts, merged into one.
    pub fn merged_where(&self, name: &str, keep: impl Fn(&str) -> bool) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for (_, _, h) in self.histograms.iter().filter(|(n, l, _)| n == name && keep(l)) {
            merged.merge(h);
        }
        merged
    }

    /// Whether the label list `labels` lies within `scope`: it is
    /// `scope`, or `scope` followed by more pairs. `shard="0",replica="1"`
    /// holds `shard="0",replica="1",path="claim"`, but not
    /// `shard="0",replica="10"`; the empty scope holds everything.
    pub fn in_scope(labels: &str, scope: &str) -> bool {
        scope.is_empty()
            || labels
                .strip_prefix(scope)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(','))
    }

    fn key(name: &str, labels: &str) -> String {
        if labels.is_empty() {
            name.to_owned()
        } else {
            format!("{name}{{{labels}}}")
        }
    }

    /// JSON object: counters and gauges as integers keyed by
    /// `name{labels}`, histograms as `{count, mean, p50, p99, p999,
    /// max}` summaries. Hand-rolled (names and labels are
    /// crate-controlled identifiers; no escaping needed beyond what we
    /// emit).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let scalar = |out: &mut String, section: &str, vals: &[(String, String, u64)]| {
            out.push_str(&format!("\"{section}\":{{"));
            for (i, (name, labels, v)) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{v}", Self::key(name, labels).replace('"', "'")));
            }
            out.push('}');
        };
        scalar(&mut out, "counters", &self.counters);
        out.push(',');
        scalar(&mut out, "gauges", &self.gauges);
        out.push_str(",\"histograms\":{");
        for (i, (name, labels, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"mean\":{:.1},\"p50\":{:.1},\"p99\":{:.1},\
                 \"p999\":{:.1},\"max\":{:.1}}}",
                Self::key(name, labels).replace('"', "'"),
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max(),
            ));
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition: one `# TYPE` line per family, then
    /// that family's series together — one `name{labels} value` line per
    /// scalar; histograms as `_count`/`_sum` plus `quantile`-labelled
    /// summary lines.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (kind, series) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            for (name, family) in families(series) {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                for (labels, v) in family {
                    out.push_str(&format!("{} {v}\n", Self::key(name, labels)));
                }
            }
        }
        for (name, family) in families(&self.histograms) {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (labels, h) in family {
                for (q, tag) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
                    let ql = if labels.is_empty() {
                        format!("quantile=\"{tag}\"")
                    } else {
                        format!("{labels},quantile=\"{tag}\"")
                    };
                    out.push_str(&format!("{name}{{{ql}}} {:.1}\n", h.quantile(q)));
                }
                out.push_str(&format!(
                    "{} {:.1}\n",
                    Self::key(&format!("{name}_sum"), labels),
                    h.sum()
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    Self::key(&format!("{name}_count"), labels),
                    h.count()
                ));
            }
        }
        out
    }
}

/// `series` grouped by family name: families in order of first
/// appearance, each family's series in registration order.
fn families<T>(series: &[(String, String, T)]) -> Vec<(&str, Vec<(&str, &T)>)> {
    let mut out: Vec<(&str, Vec<(&str, &T)>)> = Vec::new();
    for (name, labels, v) in series {
        match out.iter_mut().find(|(n, _)| n == name) {
            Some((_, family)) => family.push((labels, v)),
            None => out.push((name, vec![(labels, v)])),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_histogram_matches_plain_record() {
        let a = AtomicLogHistogram::new();
        let mut plain = LogHistogram::new();
        for v in [1u64, 7, 300, 45_000, 2_000_000] {
            a.record(v);
            plain.record(v as f64);
        }
        assert_eq!(a.snapshot(), plain);
        assert_eq!(a.count(), 5);
    }

    #[test]
    fn record_n_is_n_records() {
        let (weighted, repeated) = (AtomicLogHistogram::new(), AtomicLogHistogram::new());
        let (unshared, served, plain) = (AtomicLogHistogram::new(), Counter::new(), Counter::new());
        for (v, n) in [(0u64, 3u64), (267, 64), (45_000, 1), (9, 0), (2_000_000, 256)] {
            weighted.record_n(v, n);
            unshared.record_n_unshared(v, n);
            served.add(n);
            plain.add_unshared(n);
            for _ in 0..n {
                repeated.record(v);
            }
        }
        // Count, sum, min, max and every bin — and, with one writer, the
        // same from the load-and-store variants.
        assert_eq!(weighted.snapshot(), repeated.snapshot());
        assert_eq!(unshared.snapshot(), repeated.snapshot());
        assert_eq!(weighted.count(), 3 + 64 + 1 + 256);
        assert_eq!(plain.get(), served.get());
    }

    #[test]
    fn atomic_histogram_concurrent_writers_sum_exactly() {
        // Four writers whose streams each move the min and the max late
        // and often, so skipped and taken `fetch_min`/`fetch_max` race:
        // bins, sum, min and max must be what one thread recording every
        // sample leaves.
        let sample = |t: u64, i: u64| (i * 7_919 + t * 104_729) % 1_000_003 + (i % 97) * t;
        let h = Arc::new(AtomicLogHistogram::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        h.record(sample(t, i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let serial = AtomicLogHistogram::new();
        for t in 0..4u64 {
            for i in 0..20_000u64 {
                serial.record(sample(t, i));
            }
        }
        assert_eq!(h.snapshot(), serial.snapshot());
        assert_eq!(h.count(), 80_000);
    }

    #[test]
    fn empty_atomic_histogram_snapshots_empty() {
        let snap = AtomicLogHistogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.min(), 0.0);
        assert_eq!(snap.max(), 0.0);
    }

    #[test]
    fn registry_snapshot_sees_live_values() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("dini_test_served", "shard=\"0\"");
        let depth = Arc::new(AtomicU64::new(0));
        let d2 = depth.clone();
        reg.gauge_fn("dini_test_depth", "", move || d2.load(Ordering::Relaxed));
        let h = reg.histogram("dini_test_latency_ns", "");

        c.add(41);
        c.inc();
        depth.store(7, Ordering::Relaxed);
        h.record(1_000);
        h.record(2_000);

        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("dini_test_served".into(), "shard=\"0\"".into(), 42)]);
        assert_eq!(snap.gauges[0].2, 7);
        assert_eq!(snap.histograms[0].2.count(), 2);

        // Handles stay live across snapshots.
        c.inc();
        assert_eq!(reg.snapshot().counters[0].2, 43);
    }

    #[test]
    fn json_and_prometheus_render() {
        // Two label sets of one counter and of one histogram, registered
        // with other families in between.
        let reg = MetricsRegistry::new();
        reg.counter("dini_served", "shard=\"1\"").add(9);
        reg.gauge_fn("dini_depth", "", || 3);
        reg.histogram("dini_lat_ns", "shard=\"1\"").record(100);
        reg.counter("dini_batches", "").add(2);
        reg.counter("dini_served", "shard=\"2\"").add(4);
        reg.histogram("dini_size", "").record(5);
        reg.histogram("dini_lat_ns", "shard=\"2\"").record(300);
        let snap = reg.snapshot();

        let json = snap.to_json();
        assert!(json.contains("\"dini_served{shard='1'}\":9"), "{json}");
        assert!(json.contains("\"dini_depth\":3"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));

        // One TYPE line per family, and the family's lines right under it.
        let prom = snap.to_prometheus();
        let lines: Vec<&str> = prom.lines().collect();
        for family in ["dini_served", "dini_depth", "dini_batches", "dini_lat_ns", "dini_size"] {
            let types = lines.iter().filter(|l| l.starts_with(&format!("# TYPE {family} ")));
            assert_eq!(types.count(), 1, "{family}: {prom}");
        }
        let at = |line: &str| lines.iter().position(|l| *l == line).expect(line);
        let served = at("# TYPE dini_served counter");
        assert_eq!(
            lines[served + 1..served + 3],
            ["dini_served{shard=\"1\"} 9", "dini_served{shard=\"2\"} 4"]
        );
        let lat = at("# TYPE dini_lat_ns summary");
        assert_eq!(lines[lat + 4], "dini_lat_ns_sum{shard=\"1\"} 100.0", "{prom}");
        assert_eq!(lines[lat + 5], "dini_lat_ns_count{shard=\"1\"} 1", "{prom}");
        assert!(lines[lat + 6].starts_with("dini_lat_ns{shard=\"2\",quantile=\"0.5\"} "), "{prom}");
        assert_eq!(lines[lat + 10], "dini_lat_ns_count{shard=\"2\"} 1", "{prom}");
        assert!(prom.contains("dini_depth 3"), "{prom}");
        assert!(prom.contains("dini_size_count 1"), "{prom}");
    }

    #[test]
    fn views_read_families_by_name_and_scope() {
        let reg = MetricsRegistry::new();
        reg.counter("dini_served", "shard=\"0\",replica=\"1\"").add(2);
        reg.counter("dini_served", "shard=\"0\",replica=\"1\",path=\"claim\"").add(3);
        reg.counter("dini_served", "shard=\"0\",replica=\"10\"").add(5);
        reg.gauge("dini_live", "").set(7);
        reg.histogram("dini_lat_ns", "shard=\"0\",replica=\"1\"").record(10);
        reg.histogram("dini_lat_ns", "shard=\"0\",replica=\"10\"").record(1_000);
        let snap = reg.snapshot();
        let r1 = |l: &str| MetricsSnapshot::in_scope(l, "shard=\"0\",replica=\"1\"");
        assert_eq!(snap.sum("dini_served"), 10);
        assert_eq!(snap.sum_where("dini_served", r1), 5);
        assert_eq!(snap.sum("dini_live"), 7, "a settable gauge reads as a gauge");
        assert_eq!(snap.gauges, [("dini_live".to_owned(), String::new(), 7)]);
        assert_eq!(snap.sum("dini_nobody"), 0);
        assert_eq!(snap.merged_where("dini_lat_ns", r1).count(), 1);
        assert_eq!(snap.merged_where("dini_lat_ns", |_| true).max(), 1_000.0);
        assert!(MetricsSnapshot::in_scope("shard=\"3\"", ""));
    }

    #[test]
    fn latency_line_is_microseconds() {
        let mut h = LogHistogram::new();
        for _ in 0..100 {
            h.record(10_000.0); // 10 µs
        }
        let line = MetricsSnapshot::latency_line(&h);
        assert!(line.starts_with("latency p50 "), "{line}");
        assert!(line.contains("µs"), "{line}");
    }
}
