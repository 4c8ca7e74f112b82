//! `paper` — regenerates the paper's Tables 1–3 and Figures 3–4.
//!
//! ```text
//! cargo run -p dini-bench --release --bin paper                    # all five, 2^23 keys
//! cargo run -p dini-bench --release --bin paper -- fig3 --quick    # one mode, 2^20 keys
//! cargo run -p dini-bench --release --bin paper -- host            # probe this machine
//! ```
//!
//! Usage: `paper [MODE…] [--quick] [--keys N]`. The modes are `table1`,
//! `table2`, `table3`, `fig3` and `fig4`; no mode runs all five. `host`
//! measures the machine it runs on (Table 2's quantities and the latency
//! staircase), so it is never in the default set. `--quick` drops the
//! search keys from the paper's 2^23 to 2^20; `--keys N` sets them.
//!
//! Every mode produces records of one shape, `{mode, series, x, metric,
//! value}`, written to stdout as JSON lines; stderr gets the same records
//! pivoted into one table per metric (rows `x`, columns `series`). The
//! simulator is seeded and deterministic, so `paper --quick` is pinned
//! byte for byte by `crates/bench/paper-quick.jsonl`.
//!
//! Experiments that qualify a claim of the paper are series of the table
//! or figure making that claim: the other interconnects, the send pools
//! and the pollution-free runs in `fig3`; TLB, Pentium 4, backplane,
//! master-count and dispatched-replica rows in `table3`; the pointer
//! n-ary layout in `table1`; the model's break-even solvers in `fig4`.
//! A run is simulated once per invocation, whichever modes read it.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::Write as _;

use dini_cache_sim::{MachineParams, SimMemory};
use dini_cluster::{NetworkModel, SwitchModel};
use dini_core::{
    run_method, run_replicated_distributed, standard_workload, ExperimentSetup, LoadBalance,
    MethodId, ReplicaEngine, RunStats,
};
use dini_index::{CsbTree, PtrNaryTree, RankIndex};
use dini_model::sensitivity::{master_bound_slave_count, network_bw_breakeven, sweep_b2_penalty};
use dini_model::trends::trend_series;
use dini_model::{MethodCosts, ModelParams};
use dini_workload::{gen_search_keys, gen_sorted_unique_keys};

const USAGE: &str = "usage: paper [table1|table2|table3|fig3|fig4|host]... [--quick] [--keys N]";

/// The modes run when none is named, in the paper's order.
const PAPER_MODES: [&str; 5] = ["table1", "table2", "table3", "fig3", "fig4"];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("paper: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut lab = Lab { n_search: args.n_search, workload: None, runs: HashMap::new() };
    let mut stdout = std::io::stdout().lock();
    for mode in args.modes {
        let mut out = Records { mode, list: Vec::new() };
        match mode {
            "table1" => table1(&mut out),
            "table2" => table2(&mut out),
            "table3" => table3(&mut lab, &mut out),
            "fig3" => fig3(&mut lab, &mut out),
            "fig4" => fig4(&mut out),
            "host" => host(&mut out),
            _ => unreachable!("parse_args admits only known modes"),
        }
        for r in &out.list {
            writeln!(stdout, "{}", json_line(r)).expect("stdout is writable");
        }
        stdout.flush().expect("stdout is writable");
        eprint!("{}", pivot(&out.list));
    }
}

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct Args {
    modes: Vec<&'static str>,
    n_search: usize,
}

/// Parse `[MODE…] [--quick] [--keys N | --keys=N]`; anything else is an
/// error the caller turns into the usage line and exit code 2.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut modes = Vec::new();
    let mut quick = false;
    let mut keys = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let value = match arg.as_str() {
            "--quick" => {
                quick = true;
                continue;
            }
            "--keys" => it.next().ok_or("--keys expects a value")?.as_str(),
            a => match a.strip_prefix("--keys=") {
                Some(v) => v,
                None => {
                    let mode = PAPER_MODES
                        .into_iter()
                        .chain(["host"])
                        .find(|m| *m == a)
                        .ok_or_else(|| format!("unknown argument {a:?}"))?;
                    if !modes.contains(&mode) {
                        modes.push(mode);
                    }
                    continue;
                }
            },
        };
        let n: usize =
            value.parse().map_err(|_| format!("--keys expects an integer, got {value:?}"))?;
        keys = Some(n);
    }
    if modes.is_empty() {
        modes = PAPER_MODES.to_vec();
    }
    let n_search = keys.unwrap_or(if quick { 1 << 20 } else { 1 << 23 });
    Ok(Args { modes, n_search })
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// A record's position on its axis: a number (batch bytes, years, …) or
/// a row label.
#[derive(Debug, Clone, PartialEq)]
enum X {
    Int(u64),
    Text(String),
}

impl From<usize> for X {
    fn from(n: usize) -> Self {
        X::Int(n as u64)
    }
}

impl From<&str> for X {
    fn from(s: &str) -> Self {
        X::Text(s.to_owned())
    }
}

impl From<String> for X {
    fn from(s: String) -> Self {
        X::Text(s)
    }
}

impl fmt::Display for X {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            X::Int(n) => write!(f, "{n}"),
            X::Text(s) => f.write_str(s),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Record {
    mode: &'static str,
    series: String,
    x: X,
    metric: &'static str,
    value: f64,
}

/// The records one mode produces.
struct Records {
    mode: &'static str,
    list: Vec<Record>,
}

impl Records {
    /// Add one record. A non-finite value is a bug in the experiment that
    /// produced it (JSON has no `NaN`), so it panics naming the record.
    fn push(&mut self, series: &str, x: impl Into<X>, metric: &'static str, value: f64) {
        let x = x.into();
        assert!(
            value.is_finite(),
            "non-finite value {value} for mode {}, series {series:?}, x {x}, metric {metric}",
            self.mode
        );
        self.list.push(Record { mode: self.mode, series: series.to_owned(), x, metric, value });
    }

    /// Add the metrics every simulated run reports.
    fn run(&mut self, series: &str, x: impl Into<X>, s: &RunStats) {
        let x = x.into();
        for (metric, value) in [
            ("n_keys", s.n_keys as f64),
            ("search_time_s", s.search_time_s),
            ("per_key_ns", s.per_key_ns),
            ("slave_idle", s.slave_idle),
            ("master_idle", s.master_idle),
            ("msgs", s.msgs as f64),
            ("net_bytes", s.net_bytes as f64),
            ("l1_misses", s.mem.l1.misses as f64),
            ("l2_misses", s.mem.memory_accesses as f64),
            ("l2_misses_per_key", s.l2_misses_per_key()),
            ("batch_rtt_mean_ns", s.batch_rtt_mean_ns),
            ("batch_rtt_p99_ns", s.batch_rtt_p99_ns),
            ("rank_checksum", s.rank_checksum as f64),
        ] {
            self.push(series, x.clone(), metric, value);
        }
    }
}

/// One record as a JSON object on one line. Values print in Rust's
/// shortest round-trip form, so the line pins the exact `f64`.
fn json_line(r: &Record) -> String {
    let mut line = String::from("{\"mode\":");
    push_json_str(&mut line, r.mode);
    line.push_str(",\"series\":");
    push_json_str(&mut line, &r.series);
    line.push_str(",\"x\":");
    match &r.x {
        X::Int(n) => write!(line, "{n}").expect("writing to a String"),
        X::Text(s) => push_json_str(&mut line, s),
    }
    line.push_str(",\"metric\":");
    push_json_str(&mut line, r.metric);
    write!(line, ",\"value\":{}}}", r.value).expect("writing to a String");
    line
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The stderr view: one table per (mode, metric), rows `x`, columns
/// `series`, both in first-seen order; a missing cell prints `-`.
fn pivot(records: &[Record]) -> String {
    let mut tables: Vec<(&str, &str)> = Vec::new();
    for r in records {
        if !tables.contains(&(r.mode, r.metric)) {
            tables.push((r.mode, r.metric));
        }
    }
    let mut out = String::new();
    for (mode, metric) in tables {
        let cells: Vec<&Record> =
            records.iter().filter(|r| r.mode == mode && r.metric == metric).collect();
        let (mut series, mut xs): (Vec<&str>, Vec<&X>) = (Vec::new(), Vec::new());
        for r in &cells {
            if !series.contains(&r.series.as_str()) {
                series.push(&r.series);
            }
            if !xs.contains(&&r.x) {
                xs.push(&r.x);
            }
        }
        let headers: Vec<String> =
            std::iter::once(String::new()).chain(series.iter().map(|s| s.to_string())).collect();
        let rows: Vec<Vec<String>> = xs
            .iter()
            .map(|&x| {
                let mut row = vec![x.to_string()];
                row.extend(series.iter().map(|&s| {
                    cells
                        .iter()
                        .find(|r| r.series == s && r.x == *x)
                        .map_or_else(|| "-".to_owned(), |r| fmt_value(r.value))
                }));
                row
            })
            .collect();
        writeln!(out, "{mode} · {metric}").expect("writing to a String");
        out.push_str(&render_table(&headers, &rows));
        out.push('\n');
    }
    out
}

/// Four significant digits, integers whole.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
        format!("{v:.decimals$}")
    }
}

/// An aligned text table. Rows may be shorter or longer than the header.
fn render_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let lines = || std::iter::once(headers).chain(rows.iter().map(Vec::as_slice));
    let mut widths = vec![0; lines().map(<[String]>::len).max().unwrap_or(0)];
    for line in lines() {
        for (w, cell) in widths.iter_mut().zip(line) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    let mut out = String::new();
    for line in std::iter::once(headers).chain([rule.as_slice()]).chain(lines().skip(1)) {
        let mut text = String::new();
        for (cell, &w) in line.iter().zip(&widths) {
            write!(text, "{cell:<w$}  ").expect("writing to a String");
        }
        out.push_str(text.trim_end());
        out.push('\n');
    }
    out
}

/// Batch sizes as the paper labels them ("8 KB", "4 MB").
fn fmt_bytes(b: usize) -> String {
    if b >= 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
        format!("{} MB", b / (1024 * 1024))
    } else if b >= 1024 {
        format!("{} KB", b / 1024)
    } else {
        format!("{b} B")
    }
}

/// The paper's Figure 3 batch-size sweep: 8 KB to 4 MB, doubling.
fn figure3_batches() -> Vec<usize> {
    (0..10).map(|i| (8 * 1024) << i).collect()
}

/// A method's column label ("A", "C-3").
fn label(m: MethodId) -> &'static str {
    m.name().trim_start_matches("method ")
}

// ---------------------------------------------------------------------
// Simulated runs
// ---------------------------------------------------------------------

/// The shared workload and every run simulated so far, keyed by method
/// and setup, so a run several modes read is simulated once.
struct Lab {
    n_search: usize,
    workload: Option<(usize, Vec<u32>, Vec<u32>)>,
    runs: HashMap<String, RunStats>,
}

impl Lab {
    fn run(&mut self, method: MethodId, setup: &ExperimentSetup) -> RunStats {
        let key = format!("{method:?} {setup:?}");
        if let Some(s) = self.runs.get(&key) {
            return s.clone();
        }
        eprintln!(
            "  [{}] {method} · {} batches",
            self.runs.len() + 1,
            fmt_bytes(setup.batch_bytes)
        );
        let (index_keys, search_keys) = self.workload(setup);
        let s = run_method(method, setup, index_keys, search_keys);
        self.runs.insert(key, s.clone());
        s
    }

    /// Method A or B replicas behind a real dispatcher (§4.1's "load
    /// balancing assumed free", measured).
    fn dispatched(
        &mut self,
        engine: ReplicaEngine,
        policy: LoadBalance,
        setup: &ExperimentSetup,
    ) -> RunStats {
        let (index_keys, search_keys) = self.workload(setup);
        run_replicated_distributed(setup, engine, policy, index_keys, search_keys)
    }

    fn workload(&mut self, setup: &ExperimentSetup) -> (&[u32], &[u32]) {
        let n_search = self.n_search;
        let (n_index, index_keys, search_keys) = self.workload.get_or_insert_with(|| {
            let (i, s) = standard_workload(setup, n_search);
            (setup.n_index_keys, i, s)
        });
        assert_eq!(*n_index, setup.n_index_keys, "every run shares one index");
        (index_keys.as_slice(), search_keys.as_slice())
    }
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

/// Table 1, the index structure setup: derived vs the paper, and the
/// pointer n-ary layout beside the CSB+ layout the paper's trees use.
fn table1(out: &mut Records) {
    let setup = ExperimentSetup::paper();
    let (index_keys, _) = standard_workload(&setup, 0);
    let t1 = setup.table1(&index_keys);
    const MB: f64 = 1024.0 * 1024.0;
    for (x, derived, paper) in [
        ("keys on the sorted array", t1.n_keys as f64, 327_680.0),
        ("search key size (bytes)", t1.key_bytes as f64, 4.0),
        ("index tree size (MB)", t1.tree_bytes as f64 / MB, 3.2),
        ("subtree size except root (KB)", (t1.subtree_bytes / 1024) as f64, 320.0),
        ("root subtree size (bytes)", t1.root_subtree_bytes as f64, 44.0),
        ("T (levels, methods A/B)", t1.t_levels as f64, 7.0),
        ("L (levels, methods C-1/C-2)", t1.l_levels as f64, 6.0),
        ("node size (bytes)", t1.node_bytes as f64, 32.0),
        ("keys per internal node", t1.keys_per_node as f64, 7.0),
    ] {
        out.push("derived", x, "value", derived);
        out.push("paper", x, "value", paper);
    }

    // Rao & Ross's CSB+ trick (one child pointer per node) against the
    // classic layout (a pointer per key), per lookup out of cache.
    let p = MachineParams::pentium_iii();
    let keys = gen_sorted_unique_keys(327_680, 0xCB);
    let queries = gen_search_keys(200_000, 0xCC);
    let csb = CsbTree::with_leaf_entries(
        &keys,
        p.keys_per_node(),
        p.leaf_entries_per_line(),
        32,
        1 << 24,
        p.comp_cost_node_ns,
    );
    let ptr = PtrNaryTree::new(&keys, 32, 1 << 28, p.comp_cost_node_ns);
    let per_lookup = |rank: &dyn Fn(u32, &mut SimMemory) -> f64| {
        let mut mem = SimMemory::new(p.clone());
        for &q in &queries[..queries.len() / 4] {
            rank(q, &mut mem); // warm up, then measure steady state
        }
        mem.reset_stats();
        let ns: f64 = queries.iter().map(|&q| rank(q, &mut mem)).sum();
        let n = queries.len() as f64;
        (ns / n, mem.stats().memory_accesses as f64 / n)
    };
    // The derived column is this CSB+ layout at the same key count.
    assert_eq!((csb.n_levels(), csb.footprint_bytes()), (t1.t_levels, t1.tree_bytes));
    let (ns, misses) = per_lookup(&|k, m| csb.rank(k, m).1);
    out.push("derived", "ns per lookup (simulated)", "value", ns);
    out.push("derived", "L2 misses per lookup (simulated)", "value", misses);
    let ptr_series = "pointer n-ary layout";
    let (ns, misses) = per_lookup(&|k, m| ptr.rank(k, m).1);
    out.push(ptr_series, "index tree size (MB)", "value", ptr.footprint_bytes() as f64 / MB);
    out.push(ptr_series, "T (levels, methods A/B)", "value", ptr.n_levels() as f64);
    out.push(ptr_series, "ns per lookup (simulated)", "value", ns);
    out.push(ptr_series, "L2 misses per lookup (simulated)", "value", misses);
}

/// Table 2, the machine parameters the simulator uses, beside the
/// paper's measured values.
fn table2(out: &mut Records) {
    let p = MachineParams::pentium_iii();
    let w2 = NetworkModel::myrinet().bandwidth;
    for (x, simulator, paper) in [
        ("L2 cache size (KB)", (p.l2.size_bytes / 1024) as f64, 512.0),
        ("L1 cache size (KB)", (p.l1.size_bytes / 1024) as f64, 16.0),
        ("L2 cache line size (bytes)", p.l2.line_bytes as f64, 32.0),
        ("L1 cache line size (bytes)", p.l1.line_bytes as f64, 32.0),
        ("B2 miss penalty (ns)", p.b2_miss_penalty_ns, 110.0),
        ("B1 miss penalty (ns)", p.b1_miss_penalty_ns, 16.25),
        ("TLB entries", p.tlb_entries as f64, 64.0),
        ("comp cost node (ns)", p.comp_cost_node_ns, 30.0),
        ("W1 memory bandwidth (MB/s)", p.mem_bw_seq * 1000.0, 647.0),
        ("W2 network bandwidth (MB/s)", w2 * 1000.0, 138.0),
        ("random memory bandwidth (MB/s)", p.mem_bw_rand * 1000.0, 48.0),
    ] {
        out.push("simulator", x, "value", simulator);
        out.push("paper", x, "value", paper);
    }
}

/// Table 3, model vs simulation at 128 KB batches on 1 master + 10
/// slaves, with the rows that test the model's stated assumptions.
fn table3(lab: &mut Lab, out: &mut Records) {
    let n_search = lab.n_search;
    let base = ExperimentSetup::paper();
    let (pa, pb, pc3) = MethodCosts::evaluate(&ModelParams::paper()).totals_s(n_search as u64);
    let abc3 = [MethodId::A, MethodId::B, MethodId::C3];
    for (m, predicted, paper_model, paper_measured) in [
        (MethodId::A, pa, 0.45, 0.39),
        (MethodId::B, pb, 0.38, 0.36),
        (MethodId::C3, pc3, 0.28, 0.32),
    ] {
        let s = lab.run(m, &base);
        out.push(label(m), "model", "search_time_s", predicted);
        out.push(
            label(m),
            "model",
            "error_pct",
            (predicted - s.search_time_s).abs() / s.search_time_s * 100.0,
        );
        out.run(label(m), "simulated", &s);
        out.push(label(m), "paper model", "search_time_s", paper_model);
        out.push(label(m), "paper measured", "search_time_s", paper_measured);
    }

    // §A.2: the model ignores TLB misses, calling it a lower bound for A
    // and B; Method C's small contiguous partitions barely miss the TLB.
    for m in abc3 {
        let off = lab.run(m, &base);
        let on = lab.run(m, &ExperimentSetup { model_tlb: true, ..base.clone() });
        out.run(label(m), "TLB on", &on);
        out.push(
            label(m),
            "TLB on",
            "tlb_misses_per_key",
            on.mem.tlb_misses as f64 / n_search as f64,
        );
        out.push(
            label(m),
            "TLB on",
            "slowdown_pct",
            (on.search_time_s / off.search_time_s - 1.0) * 100.0,
        );
    }

    // §2.2: the Pentium 4's 128-byte lines make random word access costlier.
    let p4 = ExperimentSetup { machine: MachineParams::pentium_4(), ..base.clone() };
    for m in [MethodId::A, MethodId::C3] {
        let s = lab.run(m, &p4);
        out.run(label(m), "Pentium 4", &s);
    }

    // Appendix A assumption 1, "aggregate network bandwidth is unlimited":
    // bound the switch backplane from a crossbar down to a hub.
    let unlimited = lab.run(MethodId::C3, &base).search_time_s;
    for factor in [16usize, 8, 4, 2, 1] {
        let capacity = SwitchModel::with_capacity_factor(base.network.bandwidth, factor as f64);
        let s = lab.run(MethodId::C3, &ExperimentSetup { switch: Some(capacity), ..base.clone() });
        let x = format!("backplane {factor}x link");
        out.run("C-3", x.as_str(), &s);
        out.push("C-3", x, "slowdown_vs_unlimited", s.search_time_s / unlimited);
    }

    // §3.2: "a single master node could become overloaded … easily
    // remedied by setting up multiple master nodes". Twenty slaves at
    // 64 KB batches make the master the bound.
    let master_bound = ExperimentSetup { n_slaves: 20, batch_bytes: 64 * 1024, ..base.clone() };
    let one_master = lab.run(MethodId::C3, &master_bound).search_time_s;
    for n_masters in 1..=4usize {
        let s = lab.run(MethodId::C3, &ExperimentSetup { n_masters, ..master_bound.clone() });
        let x = format!("{n_masters} master(s), 20 slaves, 64 KB");
        out.run("C-3", x.as_str(), &s);
        out.push("C-3", x, "speedup_vs_1_master", one_master / s.search_time_s);
    }

    // §4.1: A and B are normalised by 11 as if load balancing were free;
    // run their replicas behind a dispatcher on the simulated Myrinet.
    for batch in [32 * 1024, 128 * 1024] {
        let setup = base.clone().with_batch_bytes(batch);
        if batch != base.batch_bytes {
            let x = format!("{} batches", fmt_bytes(batch));
            for m in abc3 {
                let s = lab.run(m, &setup);
                out.run(label(m), x.as_str(), &s);
            }
        }
        for (policy_name, m, engine, policy) in [
            ("round-robin", MethodId::A, ReplicaEngine::Naive, LoadBalance::RoundRobin),
            ("round-robin", MethodId::B, ReplicaEngine::Buffered, LoadBalance::RoundRobin),
            ("random", MethodId::A, ReplicaEngine::Naive, LoadBalance::Random { seed: 5 }),
            ("work-pull", MethodId::A, ReplicaEngine::Naive, LoadBalance::WorkPull { credits: 2 }),
        ] {
            let s = lab.dispatched(engine, policy, &setup);
            out.run(label(m), format!("{policy_name} dispatch, {}", fmt_bytes(batch)), &s);
        }
    }
}

/// Figure 3, search time against batch size for the five methods, with
/// the series that qualify its reading.
fn fig3(lab: &mut Lab, out: &mut Records) {
    let base = ExperimentSetup::paper();
    let batches = figure3_batches();
    for &batch in &batches {
        for m in MethodId::ALL {
            let s = lab.run(m, &base.clone().with_batch_bytes(batch));
            out.run(label(m), batch, &s);
        }
    }

    // §2.2: Myrinet amortises latency by ~10 KB messages; "for Gigabit
    // Ethernet, one may need to batch a message as large as 200 KB".
    for network in [NetworkModel::gigabit_ethernet(), NetworkModel::fast_ethernet()] {
        let series = format!("C-3, {}", network.name);
        for &batch in &batches[..8] {
            let s = lab.run(
                MethodId::C3,
                &ExperimentSetup { network, batch_bytes: batch, ..base.clone() },
            );
            out.run(&series, batch, &s);
        }
    }

    // The flat large-batch tail: at 2^23 keys a slave's whole share is
    // 3.2 MB, so the paper's 4 MB messages were never sent whole; a
    // bounded send pool forces the smaller messages any real MPI sends.
    for pool_mb in [1usize, 4] {
        let series = format!("C-3, {pool_mb} MB send pool");
        for &batch in &batches {
            let setup = ExperimentSetup {
                batch_bytes: batch,
                max_outstanding_bytes: Some(pool_mb << 20),
                ..base.clone()
            };
            let s = lab.run(MethodId::C3, &setup);
            out.run(&series, batch, &s);
        }
    }

    // §4.1's 64 → 128 KB dip: the L2 holds the current batch, the next
    // one being received, and a 320 KB subtree. Switch the overlapped
    // receive off to isolate that contention.
    for m in [MethodId::B, MethodId::C2] {
        let series = format!("{}, no receive pollution", label(m));
        for &batch in &batches[..8] {
            let polluted = lab.run(m, &base.clone().with_batch_bytes(batch));
            let clean = lab.run(
                m,
                &ExperimentSetup {
                    batch_bytes: batch,
                    model_receive_pollution: false,
                    ..base.clone()
                },
            );
            out.run(&series, batch, &clean);
            out.push(
                &series,
                batch,
                "pollution_slowdown_pct",
                (polluted.search_time_s / clean.search_time_s - 1.0) * 100.0,
            );
        }
    }
}

/// Figure 4, the model's per-key costs over five years of the paper's
/// §4.2 trends, and the model's answers to the questions its prose
/// raises: how slow a network C-3 survives, how many slaves a master
/// feeds, and what a wider CPU-memory gap does to each method.
fn fig4(out: &mut Records) {
    let p = ModelParams::paper();
    for t in trend_series(&p, 5) {
        let year = t.year as usize;
        let c = t.costs;
        for (series, v) in [("A", c.a), ("B", c.b), ("C-3", c.c3)] {
            out.push(series, year, "ns_per_key", v);
        }
        out.push("B/C-3", year, "ratio", c.b / c.c3);
        out.push("A/C-3", year, "ratio", c.a / c.c3);
    }
    if let Some(w2) = network_bw_breakeven(&p, 0.005) {
        out.push("C-3 vs B", "paper parameters", "break_even_w2_mb_per_s", w2 * 1000.0);
    }
    for n_masters in [1usize, 2, 4] {
        if let Some(n) = master_bound_slave_count(&ModelParams { n_masters, ..p.clone() }, 100_000)
        {
            out.push("C-3", n_masters, "master_bound_slaves", n as f64);
        }
    }
    for pt in sweep_b2_penalty(&p, &[1.0, 2.0, 4.0]) {
        let b2 = pt.value as usize;
        for (series, v) in [("A", pt.costs.a), ("B", pt.costs.b), ("C-3", pt.costs.c3)] {
            out.push(series, b2, "ns_per_key_vs_b2_ns", v);
        }
    }
}

/// Table 2's quantities probed on this machine the way the paper probed
/// its Pentium III (§2.1), and the latency staircase over working sets.
fn host(out: &mut Records) {
    let h = dini_sysprobe::measure_all(256 << 20);
    for (x, this, paper) in [
        ("sequential bandwidth (MB/s)", h.seq_bw_mb_s, Some(647.0)),
        ("random dependent bandwidth (MB/s)", h.rand_bw_mb_s, Some(48.0)),
        ("seq : random ratio", h.seq_rand_ratio(), Some(13.5)),
        ("out-of-cache load latency (ns)", h.miss_penalty_ns, Some(110.0)),
        ("in-cache load latency (ns)", h.hit_latency_ns, None),
        ("comp cost node (ns)", h.comp_cost_node_ns, Some(30.0)),
    ] {
        out.push("this machine", x, "value", this);
        if let Some(v) = paper {
            out.push("paper (Pentium III)", x, "value", v);
        }
    }
    let curve = dini_sysprobe::measure_latency_curve(4 << 10, 128 << 20, 400_000);
    for pt in &curve {
        out.push("this machine", pt.bytes as usize, "ns_per_load", pt.ns_per_load);
    }
    for (i, knee) in dini_sysprobe::detect_knees(&curve, 1.8).into_iter().enumerate() {
        out.push("this machine", i + 1, "capacity_knee_bytes", knee as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_or_fail_loudly() {
        assert_eq!(args(""), Ok(Args { modes: PAPER_MODES.to_vec(), n_search: 1 << 23 }));
        assert_eq!(args("fig3 --quick"), Ok(Args { modes: vec!["fig3"], n_search: 1 << 20 }));
        assert_eq!(
            args("host table1 host"),
            Ok(Args { modes: vec!["host", "table1"], n_search: 1 << 23 })
        );
        assert_eq!(args("--keys=4096 --quick").map(|a| a.n_search), Ok(4096));
        assert_eq!(args("table3 --keys 512").map(|a| a.n_search), Ok(512));
        assert!(args("fig5").unwrap_err().contains("fig5"));
        assert!(args("fig3 --quik").unwrap_err().contains("--quik"));
        assert!(args("--methods C3").is_err());
        assert!(args("--keys").is_err());
        assert!(args("--keys lots").unwrap_err().contains("integer"));
    }

    #[test]
    fn figure3_axis_matches_paper() {
        let b = figure3_batches();
        assert_eq!(b.len(), 10);
        assert_eq!(b[0], 8 * 1024);
        assert_eq!(b[9], 4 * 1024 * 1024);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(8 * 1024), "8 KB");
        assert_eq!(fmt_bytes(4 * 1024 * 1024), "4 MB");
        assert_eq!(fmt_bytes(100), "100 B");
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(&["a".into(), "bb".into()], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("a  bb"), "got {t:?}");
        assert_eq!(t.lines().count(), 3);
        // A row longer than its header widens the table instead of indexing
        // past the header's widths.
        let t = render_table(&["a".into()], &[vec!["1".into(), "22".into()], vec![]]);
        assert_eq!(t, "a\n-  --\n1  22\n\n");
    }

    #[test]
    fn pivot_renders_ragged_records() {
        let mut out = Records { mode: "fig3", list: Vec::new() };
        out.push("A", 8192, "search_time_s", 0.5);
        out.push("B", 16384, "search_time_s", 0.25);
        out.push("B", 16384, "msgs", 3.0);
        let text = pivot(&out.list);
        assert!(text.contains("fig3 · search_time_s\n       A       B\n"), "got {text}");
        assert!(text.contains("8192   0.5000  -\n"), "got {text}");
        assert!(text.contains("16384  -       0.2500\n"), "got {text}");
        assert!(text.contains("fig3 · msgs\n       B\n"), "got {text}");
    }

    /// Read back one JSON string literal from the front of `s`.
    fn read_json_str(s: &str) -> (String, &str) {
        let mut chars = s.strip_prefix('"').expect("a string").char_indices();
        let mut text = String::new();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return (text, &s[i + 2..]),
                '\\' => match chars.next().expect("an escape").1 {
                    'u' => {
                        let hex: String = (0..4).map(|_| chars.next().expect("hex").1).collect();
                        let code = u32::from_str_radix(&hex, 16).expect("hex");
                        text.push(char::from_u32(code).expect("a scalar"));
                    }
                    e => text.push(e),
                },
                c => text.push(c),
            }
        }
        panic!("unterminated string in {s:?}")
    }

    fn field<'a>(s: &'a str, name: &str) -> &'a str {
        let s = s.strip_prefix([',', '{']).expect("a field");
        s.strip_prefix(&format!("\"{name}\":")).expect("the next field")
    }

    /// Parse a line `json_line` wrote back into its five fields.
    fn read_line(line: &str) -> (String, String, X, String, f64) {
        let (mode, rest) = read_json_str(field(line, "mode"));
        let (series, rest) = read_json_str(field(rest, "series"));
        let rest = field(rest, "x");
        let (x, rest) = if rest.starts_with('"') {
            let (t, rest) = read_json_str(rest);
            (X::Text(t), rest)
        } else {
            let end = rest.find(',').expect("more fields");
            (X::Int(rest[..end].parse().expect("an integer")), &rest[end..])
        };
        let (metric, rest) = read_json_str(field(rest, "metric"));
        let value = field(rest, "value").strip_suffix('}').expect("the end of the object");
        (mode, series, x, metric, value.parse().expect("a number"))
    }

    #[test]
    fn json_lines_round_trip() {
        let mut out = Records { mode: "fig3", list: Vec::new() };
        out.push("C-3, Myrinet (GM; measured 1.1 Gb/s)", 131072, "search_time_s", 0.1 + 0.2);
        out.push("say \"≈\" \\ back\nslash", "x ≈ \"label\"", "ratio", -1e-7);
        out.push("tiny", 0, "value", 5e-324);
        out.push("huge", 1, "value", 1.7976931348623157e308);
        for r in &out.list {
            let line = json_line(r);
            assert!(!line.contains('\n'), "one record, one line: {line}");
            let read = read_line(&line);
            assert_eq!(
                read,
                (r.mode.into(), r.series.clone(), r.x.clone(), r.metric.into(), r.value)
            );
        }
        assert_eq!(
            json_line(&out.list[0]),
            "{\"mode\":\"fig3\",\"series\":\"C-3, Myrinet (GM; measured 1.1 Gb/s)\",\
             \"x\":131072,\"metric\":\"search_time_s\",\"value\":0.30000000000000004}"
        );
    }

    #[test]
    #[should_panic(expected = "non-finite value NaN for mode fig3, series \"B\"")]
    fn non_finite_values_never_reach_stdout() {
        let mut out = Records { mode: "fig3", list: Vec::new() };
        let (polluted, clean) = (0.0, 0.0);
        out.push("B", 8192, "pollution_slowdown_pct", (polluted / clean - 1.0) * 100.0);
    }
}
