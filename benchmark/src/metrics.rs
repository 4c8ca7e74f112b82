//! The names every later performance claim about this repo is made in.
//!
//! `BENCHMARK.json` is rendered from these tables (`benchmark manifest`)
//! and `benchmark check` fails when a run emits a different set, so the
//! file, the program and the README cannot drift apart.

use crate::json::{self, Obj};

/// A metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: "lower", bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: "higher", bound: 0.0 }
}

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 20;

/// The workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("serve_read", "2^22 keys served in process through ServerHandle: serve does nearly all the work, net none, index under a tenth"),
    ("net_tcp", "the same keys and streams over TCP loopback through RemoteClient: net does most of the work over the identical serve"),
    ("serve_churn", "serve_read beside a 20000 ops/s insert/delete stream: writer, overlay and merges compete with the read path"),
    ("index_batch", "2^24 keys, 4096-key batches straight into DistributedIndex: the paper's regime, serve and net do nothing"),
];

/// What a user of the system would see. Every workload reports every one.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("lookups_per_s", "1/s", "higher", 0.15),
    e2e("lookup_p50_us", "us", "lower", 0.25),
    e2e("lookup_p90_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

/// One number per layer boundary; no bounds. Layers are the crates.
pub const PER_LAYER: &[Def] = &[
    // workload: generator share.
    lo("workload.next_key_ns", "ns"),
    lo("workload.churn_next_op_ns", "ns"),
    // index: the structures the ladder compares, one rank each.
    lo("index.sorted_rank_ns.fit", "ns"),
    lo("index.sorted_rank_ns.mid", "ns"),
    lo("index.sorted_rank_ns.big", "ns"),
    lo("index.csb_rank_ns.big", "ns"),
    lo("index.buffered_rank_ns.big", "ns"),
    lo("index.delta_rank_ns", "ns"),
    lo("index.delta_insert_ns", "ns"),
    lo("index.delta_merge_ms", "ms"),
    // core: master/slave scatter and gather.
    lo("core.batch_ns_per_key.big.s1", "ns"),
    lo("core.batch_ns_per_key.big.s2", "ns"),
    lo("core.batch_ns_per_key.big.s4", "ns"),
    lo("core.batch_ns_per_key.fit.s2", "ns"),
    lo("core.batch_ns_per_key.mid.s1", "ns"),
    lo("core.scatter_self_ns_per_key", "ns"),
    lo("core.ctxsw_per_batch", "count"),
    lo("core.lookup1_rt_ns", "ns"),
    hi("core.partition_speedup", "ratio"),
    // cluster: the histogram the dispatcher records into.
    lo("cluster.hist_record_ns", "ns"),
    lo("cluster.hist_rel_step", "ratio"),
    // serve: admission, coalescing dispatcher, reply slots, writer.
    lo("serve.ns_per_lookup", "ns"),
    lo("serve.self_ns_per_lookup", "ns"),
    lo("serve.submit_ns_p50", "ns"),
    lo("serve.cpu_us_per_lookup", "us"),
    lo("serve.sys_cpu_share", "ratio"),
    lo("serve.ctxsw_per_lookup", "count"),
    lo("serve.allocs_per_lookup", "count"),
    lo("serve.lookup_many_ns_per_key", "ns"),
    lo("serve.serial_rt_ns", "ns"),
    lo("serve.serial_rt_default_ns", "ns"),
    lo("serve.wait_ns_p50", "ns"),
    lo("serve.service_ns_p50", "ns"),
    lo("serve.fill_ns_p50", "ns"),
    hi("serve.mean_batch", "count"),
    hi("serve.batches", "count"),
    hi("serve.served", "count"),
    lo("serve.shed", "count"),
    lo("serve.rerouted", "count"),
    lo("serve.update_submit_ns_p50", "ns"),
    hi("serve.updates_applied", "count"),
    lo("serve.update_nops", "count"),
    lo("serve.snapshots_published", "count"),
    lo("serve.merges", "count"),
    lo("serve.rebuilds", "count"),
    lo("serve.quiesce_ms", "ms"),
    lo("serve.build_ms", "ms"),
    hi("serve.spread_lookups_per_s", "1/s"),
    // net: framing, syscalls, client coalescer, responder, churn log.
    lo("net.wire.encode_ns_per_key", "ns"),
    lo("net.wire.decode_ns_per_key", "ns"),
    lo("net.wire.bytes_per_lookup", "B"),
    lo("net.submit_ns_p50", "ns"),
    lo("net.chan.ns_per_lookup", "ns"),
    lo("net.tcp.ns_per_lookup", "ns"),
    lo("net.chan.self_ns_per_lookup", "ns"),
    lo("net.tcp.self_ns_per_lookup", "ns"),
    lo("net.cpu_us_per_lookup", "us"),
    lo("net.sys_cpu_share", "ratio"),
    lo("net.ctxsw_per_lookup", "count"),
    lo("net.allocs_per_lookup", "count"),
    lo("net.chan_rtt_ns", "ns"),
    lo("net.tcp_rtt_ns", "ns"),
    lo("net.wire_rtt_p50_us", "us"),
    lo("net.update_ack_p99_us", "us"),
    lo("net.update_resends", "count"),
    lo("net.elections", "count"),
    lo("net.connect_ms", "ms"),
    lo("net.retries", "count"),
    lo("net.rerouted", "count"),
    lo("net.client_shed", "count"),
    // obs: what the telemetry costs, and whether it can explain a run.
    lo("obs.trace_default_cost_ns", "ns"),
    lo("obs.trace_dense_cost_ns", "ns"),
    lo("obs.heat_cost_ns", "ns"),
    lo("obs.hist_record_ns", "ns"),
    lo("obs.ring_push_ns", "ns"),
    hi("obs.stitched_share", "ratio"),
    // flight, store: priced, on no served path today.
    lo("flight.record_ns", "ns"),
    lo("store.write_ms", "ms"),
    lo("store.open_ms", "ms"),
    lo("store.bytes_per_key", "B"),
    lo("store.mapped_rank_cost_ns", "ns"),
    // client, host: the benchmark's own view.
    hi("client.raw_lookups_per_s", "1/s"),
    lo("client.slice_ratio_iqr", "ratio"),
    lo("client.lookup_p99_us", "us"),
    lo("client.lookup_p999_us", "us"),
    lo("client.gen_late_p99_us", "us"),
    lo("client.gen_late_max_us", "us"),
    lo("client.gen_skipped", "count"),
    hi("client.calm_window_share", "ratio"),
    lo("client.trace_overhead_pct", "%"),
    hi("client.updates_per_s", "1/s"),
    lo("client.update_ack_p50_us", "us"),
    lo("client.failed_share", "ratio"),
    hi("host.ref_mem_ranks_per_s", "1/s"),
    hi("host.ref_cpu_ranks_per_s", "1/s"),
    lo("host.ref_drift", "ratio"),
    lo("host.loadavg1", "count"),
];

/// Whether `name` is made of letters, digits, `_`, `.` and `-`, starts
/// with a letter or digit and is at most 64 long.
pub fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Measured values, in the order they were set.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Set (or overwrite) a value.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_owned(), value)),
        }
    }

    /// Add to a value (missing = 0).
    pub fn add(&mut self, name: &str, value: f64) {
        let old = self.get(name).unwrap_or(0.0);
        self.set(name, old + value);
    }

    /// Read a value back.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Take every value of `other`.
    pub fn absorb(&mut self, other: &Metrics) {
        for (n, v) in &other.0 {
            self.set(n, *v);
        }
    }

    /// Render exactly the metrics of `defs`, in that order, as
    /// `{"name":{"value":…,"unit":"…"},…}`. A metric nothing measured in
    /// this run is 0 (end-to-end metrics are always measured).
    pub fn render(&self, defs: &[Def]) -> String {
        let mut o = Obj::new();
        for d in defs {
            let mut m = Obj::new();
            m.num("value", self.get(d.name).unwrap_or(0.0)).str("unit", d.unit);
            o.raw(d.name, &m.finish());
        }
        o.finish()
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            let mut o = Obj::new();
            o.str("name", name).str("why", why);
            o.finish()
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            let mut o = Obj::new();
            o.str("name", d.name).str("unit", d.unit).str("better", d.better).num("bound", d.bound);
            o.finish()
        })
        .collect();
    let layer: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            let mut o = Obj::new();
            o.str("name", d.name).str("unit", d.unit).str("better", d.better);
            o.finish()
        })
        .collect();
    let command: Vec<String> = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        json::str_array(&command),
        RUN_SECONDS,
        workloads.join(",\n    "),
        e2e.join(",\n    "),
        layer.join(",\n    "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} used twice", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d.better == "higher" || d.better == "lower");
        }
        for (w, why) in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn the_name_rule_rejects_what_the_contract_rejects() {
        for good in ["a", "lookup_p50_us", "net.tcp.ns_per_lookup", "9lives", "x-y"] {
            assert!(name_ok(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "-dash", "has space", "slash/", "µs", long.as_str()] {
            assert!(!name_ok(bad), "{bad}");
        }
    }

    #[test]
    fn manifest_parses_and_lists_every_name() {
        let v = json::parse(&manifest()).expect("manifest is JSON");
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(v.get("per_layer").unwrap().items().len(), PER_LAYER.len());
        assert_eq!(
            v.get("end_to_end").unwrap().items()[0].get("name").unwrap().as_str(),
            Some("setup_s")
        );
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn render_emits_exactly_the_defined_names_with_units() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("not_a_metric", 1.0);
        m.add("lookups_per_s", 2.0);
        m.add("lookups_per_s", 3.0);
        let v = json::parse(&m.render(END_TO_END)).unwrap();
        assert_eq!(v.members().len(), END_TO_END.len());
        assert_eq!(v.get("setup_s").unwrap().get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("lookups_per_s").unwrap().get("value").unwrap().as_f64(), Some(5.0));
        assert_eq!(v.get("lookup_p50_us").unwrap().get("unit").unwrap().as_str(), Some("us"));
        assert!(v.get("not_a_metric").is_none());
    }
}
