//! The four workloads. Each is one run: build under a fixed placement,
//! measure capacity in reference-calibrated slices, measure latency on a
//! paced open loop, check replies, report.

use crate::host::{self, Placement};
use crate::load::{self, CapacityOut, ChurnFeed, Judge, PacedOut, Queries, Target, REF_SLICE};
use crate::metrics::Metrics;
use crate::oracle::{gen_churn_ops, rank_in, AppliedOracle, SplitMix, Tally};
use crate::refk::{Blend, Reference};
use crate::spans::{Recorder, ROOT};
use crate::stats::{self, Pair};
use dini_core::native::{DistributedIndex, NativeConfig};
use dini_net::transport::{TcpAcceptorT, TcpDialer};
use dini_net::{Acceptor, ClientConfig, NetServer, NetServerConfig, RemoteClient, Topology};
use dini_obs::StageRecord;
use dini_serve::{IndexServer, ServeConfig, ServeError, ServeStats};
use dini_workload::{gen_search_keys, Op};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Keys in the serving workloads (16 MiB: four times one L2 here, eight
/// times a 2 MiB one).
pub const SERVE_KEYS: usize = 1 << 22;
/// Keys in `index_batch` (64 MiB; 32 MiB per slave ≫ L2).
pub const BATCH_KEYS: usize = 1 << 24;
/// Queries per `index_batch` batch.
pub const BATCH: usize = 4096;
/// Operations in the `serve_churn` flood.
const FLOOD_OPS: usize = 1 << 20;
/// Operations per flood `update_batch`.
const FLOOD_BATCH: usize = 256;
/// Pipelined quorum-acked updates in flight on `net_tcp`.
const UPDATE_WINDOW: usize = 64;
/// Serial `update()` calls timed on `net_tcp`.
const SERIAL_UPDATES: usize = 2000;
/// Ranks compared exactly after a `quiesce()`.
const QUIESCE_SAMPLES: usize = 1 << 14;

/// Nominal `mem` kernel rates on the naming host, ranks per second.
const MEM_NOMINAL_SERVE: f64 = 4.0e6;
const MEM_NOMINAL_BATCH: f64 = 1.8e6;

const fn blend(mem_exp: f64, cpu_exp: f64, mem_nominal: f64) -> Blend {
    Blend { mem_exp, cpu_exp, mem_nominal }
}

/// How strongly each measurement follows each reference kernel (README,
/// "Noise method"): fitted once over 25 runs in three different hours on
/// the naming host, then fixed. They need not sum to 1 — the tight `cpu`
/// loop loses more to a busy sibling thread than syscall-heavy code does.
const SERVE_BLEND: Blend = blend(0.3, 0.6, MEM_NOMINAL_SERVE);
const NET_BLEND: Blend = blend(0.3, 0.5, MEM_NOMINAL_SERVE);
const CHURN_BLEND: Blend = blend(0.3, 1.0, MEM_NOMINAL_SERVE);
const SERVE_SETUP_BLEND: Blend = blend(0.1, 0.9, MEM_NOMINAL_SERVE);
const BATCH_BLEND: Blend = blend(1.5, 0.1, MEM_NOMINAL_BATCH);
const BATCH_SETUP_BLEND: Blend = blend(0.1, 0.9, MEM_NOMINAL_BATCH);

/// How one run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seconds to measure for.
    pub seconds: f64,
    /// Input seed.
    pub seed: u64,
    /// Check every reply and shrink the inputs.
    pub smoke: bool,
    /// Record spans (a traced run measures a third as long).
    pub trace: bool,
    /// Cores at start-up.
    pub nproc: usize,
}

impl RunCfg {
    fn phase(&self, share: f64) -> Duration {
        let scale = if self.trace { 1.0 / 3.0 } else { 1.0 };
        Duration::from_secs_f64((self.seconds * share * scale).max(0.3))
    }

    fn check_every(&self) -> u64 {
        if self.smoke {
            1
        } else {
            64
        }
    }

    fn shrink(&self, n: usize) -> usize {
        if self.smoke {
            n >> 2
        } else {
            n
        }
    }
}

/// What one run produced.
pub struct RunOut {
    /// End-to-end values (always measured, spans off unless `trace`).
    pub e2e: Metrics,
    /// The `client.*`, `host.*` and counter metrics this run can see.
    pub layer: Metrics,
    /// Operation counts over every phase.
    pub tally: Tally,
    /// Why the run is invalid (empty = valid).
    pub flags: Vec<String>,
    /// Spans, when traced.
    pub spans: Recorder,
    /// `(slice rate, mem, cpu)` of every capacity slice, for fitting blends.
    pub slices: Vec<(f64, f64, f64)>,
}

/// The generated inputs of a run: the program sees only these.
pub struct Inputs {
    /// Index keys as generated: unsorted, with duplicates.
    raw: Vec<u32>,
    /// The benchmark's own sorted, de-duplicated copy (the oracle).
    pub sorted: Vec<u32>,
    /// The query stream, cycled.
    pub queries: Vec<u32>,
}

impl Inputs {
    /// `n` index keys from `seed`, 2^22 queries from `seed + 1`.
    pub fn generate(n: usize, seed: u64, smoke: bool) -> Self {
        let raw = gen_search_keys(n, seed);
        let mut sorted = raw.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let queries = gen_search_keys(if smoke { 1 << 20 } else { 1 << 22 }, seed + 1);
        Self { raw, sorted, queries }
    }
}

/// Everything a workload threads through its phases.
struct Run<'a> {
    cfg: RunCfg,
    inputs: &'a Inputs,
    reference: Reference,
    rec: Recorder,
    tally: Tally,
    flags: Vec<String>,
    setups: Vec<f64>,
    slices: Vec<(f64, f64, f64)>,
    e2e: Metrics,
    layer: Metrics,
}

/// Open-loop arrival rates, lookups per second: sized so the program's
/// core is well under saturation on the naming host (README, "Load sized
/// for the box").
const SERVE_PACED_RATE: f64 = 50_000.0;
const NET_PACED_RATE: f64 = 20_000.0;
/// Length of the windows `lookup_p50_us` / `lookup_p90_us` are taken over
/// (see [`stats::windowed_quantile_ns`]).
const LATENCY_WINDOW_S: f64 = 0.25;
/// Churn beside the capacity reads and beside the paced reads, ops/s.
const CHURN_RATE: f64 = 20_000.0;
const PACED_CHURN_RATE: f64 = 4_000.0;

pub fn serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(1);
    cfg.slaves_per_shard = 1;
    cfg.queue_capacity = load::QUEUE_CAPACITY;
    cfg
}

pub fn client_cfg() -> ClientConfig {
    ClientConfig { queue_capacity: load::QUEUE_CAPACITY, ..ClientConfig::default() }
}

fn build_serve(keys: &[u32], rec: &mut Recorder, parent: u32) -> IndexServer {
    rec.scope("setup.build", parent, |_| IndexServer::build(keys, serve_cfg()))
}

/// A TCP loopback deployment: one server process's worth of threads and
/// one client, over exactly one connection.
struct NetPair {
    // Field order is drop order: the client hangs up before the server
    // stops accepting.
    client: RemoteClient,
    server: NetServer,
}

fn build_net(keys: &[u32], rec: &mut Recorder, parent: u32) -> NetPair {
    let server = rec.scope("setup.build", parent, |_| {
        let acceptor = TcpAcceptorT::bind("127.0.0.1:0").expect("bind an ephemeral loopback port");
        let topology = Topology::single(vec![acceptor.addr()]);
        NetServer::start(Box::new(acceptor), keys, NetServerConfig::new(serve_cfg(), topology, 0))
    });
    let client = rec.scope("setup.connect", parent, |_| {
        RemoteClient::connect(Box::new(TcpDialer), server.addr(), client_cfg())
            .expect("connect to the loopback server just started")
    });
    NetPair { client, server }
}

fn p50(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::median(xs)
    }
}

impl<'a> Run<'a> {
    fn new(cfg: RunCfg, inputs: &'a Inputs) -> Self {
        let mut flags = Vec::new();
        if cfg.nproc < 2 {
            flags
                .push("nproc < 2: the paced generator shares its core with the program".to_owned());
        }
        Self {
            cfg,
            inputs,
            reference: Reference::new(&inputs.sorted, &inputs.queries),
            rec: Recorder::new(cfg.trace, 1 << 20),
            tally: Tally::default(),
            flags,
            setups: Vec::new(),
            slices: Vec::new(),
            e2e: Metrics::default(),
            layer: Metrics::default(),
        }
    }

    fn place(&mut self, p: Placement) {
        if !host::place(p, self.cfg.nproc) {
            self.flags.push(format!("sched_setaffinity refused {p:?}"));
        }
    }

    fn judge(&self) -> Judge<'a> {
        Judge { base: &self.inputs.sorted, every: self.cfg.check_every() }
    }

    /// One set-up sample: sort + dedup + `build` (+ connect) + first
    /// verified answer, timed, then calibrated against a reference slice.
    fn setup<S>(
        &mut self,
        blend: Blend,
        build: impl FnOnce(&[u32], &mut Recorder, u32) -> S,
        first: impl FnOnce(&mut S, u32) -> Result<u32, ServeError>,
    ) -> S {
        let mut keys = self.inputs.raw.clone();
        let probe = self.inputs.queries[0];
        let parent = self.rec.next_id();
        let t0 = Instant::now();
        let (built, got) = self.rec.scope("setup", ROOT, |rec| {
            rec.scope("setup.sort", parent, |_| {
                keys.sort_unstable();
                keys.dedup();
            });
            let mut built = build(&keys, rec, parent);
            let got = first(&mut built, probe);
            (built, got)
        });
        let raw_s = t0.elapsed().as_secs_f64();
        self.tally.attempted += 1;
        match got {
            Ok(rank) => self.tally.check(rank, rank_in(&self.inputs.sorted, probe)),
            Err(_) => self.tally.failed += 1,
        }
        let speed = self.reference.measure(REF_SLICE, blend).1;
        self.setups.push(raw_s * speed);
        built
    }

    /// A set-up sample whose server is not used: keeps the sample count
    /// odd so the median is a measured value.
    fn spare_setup<S>(
        &mut self,
        blend: Blend,
        build: impl FnOnce(&[u32], &mut Recorder, u32) -> S,
        first: impl FnOnce(&mut S, u32) -> Result<u32, ServeError>,
    ) {
        drop(self.setup(blend, build, first));
    }

    fn capacity<T: Target>(
        &mut self,
        target: &T,
        share: f64,
        blend: Blend,
        churn: Option<&mut ChurnFeed>,
    ) {
        let judge = self.judge();
        let mut queries = Queries::new(&self.inputs.queries);
        let dur = self.cfg.phase(share);
        let out = load::capacity(
            target,
            &mut queries,
            dur,
            &mut self.reference,
            blend,
            &judge,
            churn,
            &mut self.rec,
        );
        self.absorb_capacity(&out);
        self.e2e.set("lookups_per_s", stats::calibrated_rate(&out.pairs));
    }

    fn absorb_capacity(&mut self, out: &CapacityOut) {
        let pairs = &out.pairs;
        self.tally.absorb(&out.tally);
        self.slices.extend(pairs.iter().zip(&out.refs).map(|(p, r)| (p.rate, r.mem, r.cpu)));
        let raw: Vec<f64> = pairs.iter().map(|p| p.rate).collect();
        self.layer.set("client.raw_lookups_per_s", stats::median(&raw));
        self.layer.set("client.slice_ratio_iqr", stats::rel_iqr(&stats::ratios(pairs)));
        if self.cfg.trace {
            let side = |on: bool| -> Vec<f64> {
                pairs
                    .iter()
                    .zip(&out.spans_on)
                    .skip(1)
                    .filter(|(_, s)| **s == on)
                    .map(|(p, _)| p.rate / p.speed)
                    .collect()
            };
            let (on, off) = (side(true), side(false));
            if !on.is_empty() && !off.is_empty() {
                let pct = (stats::median(&off) / stats::median(&on) - 1.0) * 100.0;
                self.layer.set("client.trace_overhead_pct", pct);
            }
        }
    }

    fn paced<T: Target>(
        &mut self,
        target: &T,
        share: f64,
        rate: f64,
        churn: Option<&mut ChurnFeed>,
    ) {
        let judge = self.judge();
        let mut queries = Queries::new(&self.inputs.queries);
        let dur = self.cfg.phase(share);
        let window = (rate * LATENCY_WINDOW_S) as usize;
        let mut out: PacedOut =
            load::paced(target, &mut queries, dur, rate, window, &judge, churn, &mut self.rec);
        self.tally.absorb(&out.tally);
        let us = |ns: f64| ns / 1000.0;
        // Only windows in which the generator kept its own schedule count;
        // a run with fewer than four of them reports all its windows and
        // says so.
        let calm = out.calm.iter().filter(|c| **c).count();
        let keep: &[bool] = if calm >= 4 { &out.calm } else { &[] };
        if calm < 4 {
            self.flags.push(format!("only {calm} of {} paced windows were calm", out.calm.len()));
        }
        let quantile = |q: f64| {
            us(stats::windowed_quantile_ns(&out.latency_ns, out.window, keep, load::NO_REPLY, q))
        };
        self.e2e.set("lookup_p50_us", quantile(0.5));
        self.e2e.set("lookup_p90_us", quantile(0.9));
        self.layer.set("client.calm_window_share", calm as f64 / out.calm.len().max(1) as f64);
        let mut replies: Vec<u32> =
            out.latency_ns.iter().copied().filter(|&x| x != load::NO_REPLY).collect();
        self.layer.set("client.lookup_p99_us", us(stats::quantile_ns(&mut replies, 0.99)));
        self.layer.set("client.lookup_p999_us", us(stats::quantile_ns(&mut replies, 0.999)));
        let late_p99 = us(stats::quantile_ns(&mut out.late_ns, 0.99));
        self.layer.set("client.gen_late_p99_us", late_p99);
        self.layer
            .set("client.gen_late_max_us", us(out.late_ns.last().copied().unwrap_or(0) as f64));
        self.layer.set("client.gen_skipped", out.skipped as f64);
        if late_p99 > 1e6 / rate {
            self.flags
                .push(format!("generator p99 lateness {late_p99:.1} us exceeds one paced gap"));
        }
    }

    fn absorb_serve(&mut self, st: &ServeStats) {
        for (name, v) in [
            ("serve.batches", st.batches),
            ("serve.served", st.served),
            ("serve.shed", st.shed),
            ("serve.rerouted", st.rerouted),
            ("serve.updates_applied", st.updates_applied),
            ("serve.update_nops", st.update_nops),
            ("serve.snapshots_published", st.snapshots_published),
            ("serve.merges", st.merges),
            ("serve.rebuilds", st.rebuilds),
        ] {
            self.layer.add(name, v as f64);
        }
        let (served, batches) = (self.layer.get("serve.served"), self.layer.get("serve.batches"));
        if let (Some(s), Some(b)) = (served, batches) {
            self.layer.set("serve.mean_batch", s / b.max(1.0));
        }
    }

    /// The program's own wait / service / fill split for the paced phase.
    fn absorb_stages(&mut self, recs: &[StageRecord]) {
        let col =
            |f: fn(&StageRecord) -> u64| -> Vec<f64> { recs.iter().map(|r| f(r) as f64).collect() };
        self.layer.set("serve.wait_ns_p50", p50(&col(StageRecord::wait_ns)));
        self.layer.set("serve.service_ns_p50", p50(&col(StageRecord::service_ns)));
        self.layer.set("serve.fill_ns_p50", p50(&col(StageRecord::fill_ns)));
    }

    fn absorb_net(&mut self, pair: &NetPair) {
        let st = pair.client.stats();
        for (name, v) in [
            ("net.retries", st.retries),
            ("net.rerouted", st.rerouted),
            ("net.client_shed", st.client_shed),
            ("net.update_resends", st.update_resends),
            ("net.elections", st.elections),
        ] {
            self.layer.add(name, v as f64);
            if v != 0 {
                self.flags.push(format!("{name} = {v} on loopback"));
            }
        }
        self.layer.set("net.wire_rtt_p50_us", pair.client.handle().wire_rtt().median() / 1000.0);
        self.absorb_serve(&pair.server.server().stats());
    }

    /// After a `quiesce()`, sampled ranks must equal the replay of every
    /// operation sent.
    fn check_quiesced(
        &mut self,
        ops_sent: &[Op],
        lookup_many: impl Fn(&[u32]) -> Result<Vec<u32>, ServeError>,
    ) {
        let oracle = AppliedOracle::replay(&self.inputs.sorted, ops_sent);
        let mut rng = SplitMix(self.cfg.seed ^ ops_sent.len() as u64);
        let n = self.cfg.shrink(QUIESCE_SAMPLES);
        let qs: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
        for chunk in qs.chunks(load::WINDOW) {
            self.tally.attempted += chunk.len() as u64;
            match lookup_many(chunk) {
                Ok(ranks) => {
                    for (q, r) in chunk.iter().zip(ranks) {
                        self.tally.check(r, oracle.rank(*q));
                    }
                }
                Err(_) => self.tally.failed += chunk.len() as u64,
            }
        }
    }

    fn finish(mut self) -> RunOut {
        self.e2e.set("setup_s", stats::median(&self.setups));
        self.e2e.set("peak_rss_mb", host::usage().max_rss_mb);
        self.layer.set("client.failed_share", self.tally.failed_share());
        self.layer.set("host.ref_mem_ranks_per_s", self.reference.mem_median());
        self.layer.set("host.ref_cpu_ranks_per_s", self.reference.cpu_median());
        self.layer.set("host.ref_drift", self.reference.drift());
        self.layer.set("host.loadavg1", host::loadavg1());
        host::place(Placement::All, self.cfg.nproc);
        RunOut {
            e2e: self.e2e,
            layer: self.layer,
            tally: self.tally,
            flags: self.flags,
            spans: self.rec,
            slices: self.slices,
        }
    }
}

/// `serve_read` and, with `churn`, `serve_churn`.
fn serve(cfg: RunCfg, churn: bool) -> RunOut {
    let inputs = Inputs::generate(cfg.shrink(SERVE_KEYS), cfg.seed, cfg.smoke);
    let mut run = Run::new(cfg, &inputs);
    let ops = if churn {
        let flood = cfg.shrink(FLOOD_OPS);
        let paced = (cfg.seconds * CHURN_RATE) as usize + 4 * load::CHURN_BATCH;
        gen_churn_ops(&inputs.sorted, cfg.seed + 2, flood.max(paced))
    } else {
        Vec::new()
    };
    let first = |s: &mut IndexServer, probe: u32| s.handle().lookup(probe);
    let (cap_share, paced_share) = if churn { (0.5, 0.4) } else { (0.55, 0.45) };

    // Capacity: generator and every program thread on one core, so
    // throughput is 1 / (CPU per lookup over the whole path).
    run.place(Placement::Core0);
    if !churn {
        run.spare_setup(SERVE_SETUP_BLEND, build_serve, first);
    }
    let server = run.setup(SERVE_SETUP_BLEND, build_serve, first);
    let mut feed = churn.then(|| ChurnFeed::new(&server, &ops, CHURN_RATE));
    run.capacity(
        &server.handle(),
        cap_share,
        if churn { CHURN_BLEND } else { SERVE_BLEND },
        feed.as_mut(),
    );
    if let Some(feed) = feed {
        server.quiesce();
        let handle = server.handle();
        run.check_quiesced(&ops[..feed.sent], |qs| handle.lookup_many(qs));
    }
    run.absorb_serve(&server.stats());
    drop(server);

    // Latency: the spinning generator alone on core 0, the program on
    // the other cores.
    run.place(Placement::Others);
    let server = run.setup(SERVE_SETUP_BLEND, build_serve, first);
    run.place(Placement::Core0);
    let mut feed = churn.then(|| ChurnFeed::new(&server, &ops, PACED_CHURN_RATE));
    run.paced(&server.handle(), paced_share, SERVE_PACED_RATE, feed.as_mut());
    if let Some(feed) = feed {
        server.quiesce();
        let handle = server.handle();
        run.check_quiesced(&ops[..feed.sent], |qs| handle.lookup_many(qs));
    }
    run.absorb_serve(&server.stats());
    run.absorb_stages(&server.stage_traces());
    drop(server);

    if churn {
        flood(&mut run, &ops[..cfg.shrink(FLOOD_OPS)], first);
    }
    run.finish()
}

/// `serve_churn`'s write-only phase: the whole stream in `update_batch`
/// calls, ending in `quiesce()`.
fn flood(
    run: &mut Run,
    ops: &[Op],
    first: impl FnOnce(&mut IndexServer, u32) -> Result<u32, ServeError>,
) {
    run.place(Placement::Core0);
    let server = run.setup(SERVE_SETUP_BLEND, build_serve, first);
    let mut submit_ns = Vec::with_capacity(ops.len() / FLOOD_BATCH + 1);
    let t0 = Instant::now();
    let parent = run.rec.next_id();
    let quiesce_s = run.rec.scope("update", ROOT, |rec| {
        for chunk in ops.chunks(FLOOD_BATCH) {
            let (s0, c0) = (rec.now(), Instant::now());
            if server.update_batch(chunk.to_vec()).is_err() {
                run.tally.failed += chunk.len() as u64;
            }
            submit_ns.push(c0.elapsed().as_nanos() as f64);
            rec.push("update.submit", s0, rec.now(), parent, 0);
        }
        let q0 = Instant::now();
        rec.scope("update.ack", parent, |_| server.quiesce());
        q0.elapsed().as_secs_f64()
    });
    let rate = ops.len() as f64 / t0.elapsed().as_secs_f64();
    let speed = run.reference.measure(REF_SLICE, CHURN_BLEND).1;
    run.tally.attempted += ops.len() as u64;
    run.layer.set("client.updates_per_s", rate / speed);
    run.layer.set("serve.update_submit_ns_p50", p50(&submit_ns));
    run.layer.set("serve.quiesce_ms", quiesce_s * 1000.0);
    let handle = server.handle();
    run.check_quiesced(ops, |qs| handle.lookup_many(qs));
    run.absorb_serve(&server.stats());
}

/// `net_tcp`.
fn net(cfg: RunCfg) -> RunOut {
    let inputs = Inputs::generate(cfg.shrink(SERVE_KEYS), cfg.seed, cfg.smoke);
    let mut run = Run::new(cfg, &inputs);
    let first = |p: &mut NetPair, probe: u32| p.client.lookup(probe);

    run.place(Placement::Core0);
    let pair = run.setup(SERVE_SETUP_BLEND, build_net, first);
    run.capacity(&pair.client.handle(), 0.45, NET_BLEND, None);
    run.absorb_net(&pair);
    drop(pair);

    run.place(Placement::Others);
    let pair = run.setup(SERVE_SETUP_BLEND, build_net, first);
    run.place(Placement::Core0);
    run.paced(&pair.client.handle(), 0.35, NET_PACED_RATE, None);
    run.absorb_net(&pair);
    run.absorb_stages(&pair.server.server().stage_traces());
    drop(pair);

    // Quorum-acked updates: pipelined for throughput, then serial for
    // the ack latency one caller sees.
    let pair = run.setup(SERVE_SETUP_BLEND, build_net, first);
    let serial = cfg.shrink(SERIAL_UPDATES);
    let dur = cfg.phase(0.16);
    let ops = gen_churn_ops(
        &inputs.sorted,
        cfg.seed + 2,
        (dur.as_secs_f64() * 400_000.0) as usize + serial,
    );
    let handle = pair.client.handle();
    let mut sent = 0usize;
    let mut pairs = Vec::new();
    let mut flight = VecDeque::with_capacity(UPDATE_WINDOW);
    let parent = run.rec.next_id();
    let end = Instant::now() + dur;
    run.rec.scope("update", ROOT, |rec| {
        while Instant::now() < end && sent + serial < ops.len() {
            let t0 = Instant::now();
            let mut done = 0u64;
            while t0.elapsed() < load::SLICE && sent + serial < ops.len() {
                if flight.len() == UPDATE_WINDOW {
                    let (s1, p): (u64, dini_net::PendingNetUpdate) =
                        flight.pop_front().expect("window is full");
                    if p.wait().is_err() {
                        run.tally.failed += 1;
                    }
                    if s1 != 0 {
                        rec.push("update.ack", s1, rec.now(), parent, sent as u64);
                    }
                    done += 1;
                }
                let sample = rec.on() && sent.is_multiple_of(64);
                let s0 = if sample { rec.now() } else { 0 };
                match handle.begin_update(ops[sent]) {
                    Ok(p) => {
                        let s1 = if sample { rec.now().max(1) } else { 0 };
                        if sample {
                            rec.push("update.submit", s0, s1, parent, sent as u64);
                        }
                        flight.push_back((s1, p));
                    }
                    Err(_) => run.tally.failed += 1,
                }
                sent += 1;
            }
            let rate = done as f64 / t0.elapsed().as_secs_f64();
            let speed = run.reference.measure(REF_SLICE, NET_BLEND).1;
            pairs.push(Pair { rate, speed });
        }
        for (_, p) in flight.drain(..) {
            if p.wait().is_err() {
                run.tally.failed += 1;
            }
        }
    });
    run.layer.set("client.updates_per_s", stats::calibrated_rate(&pairs));
    let mut ack_ns: Vec<u32> = Vec::with_capacity(serial);
    for &op in &ops[sent..sent + serial] {
        let t0 = Instant::now();
        if handle.update(op).is_err() {
            run.tally.failed += 1;
        }
        ack_ns.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
    }
    sent += serial;
    run.tally.attempted += sent as u64;
    run.layer.set("client.update_ack_p50_us", stats::quantile_ns(&mut ack_ns, 0.5) / 1000.0);
    run.layer.set("net.update_ack_p99_us", stats::quantile_ns(&mut ack_ns, 0.99) / 1000.0);
    if handle.quiesce().is_err() {
        run.tally.failed += 1;
    }
    run.check_quiesced(&ops[..sent], |qs| handle.lookup_many(qs));
    run.absorb_net(&pair);
    drop(pair);
    run.finish()
}

/// `index_batch`.
fn index_batch(cfg: RunCfg) -> RunOut {
    let inputs = Inputs::generate(cfg.shrink(BATCH_KEYS), cfg.seed, cfg.smoke);
    let mut run = Run::new(cfg, &inputs);
    // Master and slaves on one core, like every other capacity phase: the
    // rate is then 1 / (CPU + miss time per key over scatter, rank and
    // gather). Spread over all cores the same loop runs up to twice as
    // fast on the naming host and three times as noisily (README, "Noise
    // method"); that number is the ladder's `core.batch_ns_per_key.big.s2`.
    run.place(Placement::Core0);
    let slaves = cfg.nproc;
    let build = |keys: &[u32], rec: &mut Recorder, parent: u32| {
        rec.scope("setup.build", parent, |_| {
            let mut c = NativeConfig::new(slaves);
            c.pin_cores = false;
            DistributedIndex::build(keys, c)
        })
    };
    let first = |ix: &mut DistributedIndex, probe: u32| Ok(ix.lookup(probe));
    run.spare_setup(BATCH_SETUP_BLEND, build, first);
    run.spare_setup(BATCH_SETUP_BLEND, build, first);
    let mut index = run.setup(BATCH_SETUP_BLEND, build, first);
    let (pairs, mut batch_us) = batch_phase(&mut run, &mut index, 1.0);
    drop(index);
    run.e2e.set("lookups_per_s", stats::calibrated_rate(&pairs));
    // A batch interface answers a key when its batch returns, so the
    // response time of a lookup is the batch's: per slice the p50 and p90
    // over its batches, then the lower quartile over slices, as for the
    // paced latencies.
    for slice in &mut batch_us {
        slice.sort_by(f64::total_cmp);
    }
    let per_slice = |q: f64| -> f64 {
        let at = |s: &Vec<f64>| s[((s.len() as f64 * q).ceil() as usize).clamp(1, s.len()) - 1];
        stats::lower_quartile(
            &mut batch_us.iter().filter(|s| !s.is_empty()).map(at).collect::<Vec<_>>(),
        )
    };
    run.e2e.set("lookup_p50_us", per_slice(0.5));
    run.e2e.set("lookup_p90_us", per_slice(0.9));
    let mut all: Vec<f64> = batch_us.concat();
    all.sort_by(f64::total_cmp);
    let tail = |q: f64| all[((all.len() as f64 * q).ceil() as usize).clamp(1, all.len()) - 1];
    run.layer.set("client.lookup_p99_us", tail(0.99));
    run.layer.set("client.lookup_p999_us", tail(0.999));
    run.finish()
}

/// Closed loop of [`BATCH`]-key batches for `share` of the run. Returns
/// the slice pairs and, per slice, every batch's calibrated response time
/// in µs.
fn batch_phase(
    run: &mut Run,
    index: &mut DistributedIndex,
    share: f64,
) -> (Vec<Pair>, Vec<Vec<f64>>) {
    let queries = &run.inputs.queries;
    let every = run.cfg.check_every() as usize;
    let mut out = Vec::with_capacity(BATCH);
    let mut cap = CapacityOut::default();
    let mut all_us = Vec::new();
    let mut slice_ns: Vec<f64> = Vec::new();
    let mut at = 0usize;
    let end = Instant::now() + run.cfg.phase(share);
    while Instant::now() < end {
        let t0 = Instant::now();
        let mut keys_done = 0u64;
        slice_ns.clear();
        while t0.elapsed() < load::SLICE {
            if at + BATCH > queries.len() {
                at = 0;
            }
            let batch = &queries[at..at + BATCH];
            at += BATCH;
            let (s0, b0) = (run.rec.now(), Instant::now());
            index.lookup_batch_into(batch, &mut out);
            slice_ns.push(b0.elapsed().as_nanos() as f64);
            run.rec.push("batch", s0, run.rec.now(), ROOT, 0);
            run.tally.attempted += BATCH as u64;
            for (q, r) in batch.iter().zip(&out).step_by(every) {
                run.tally.check(*r, rank_in(&run.inputs.sorted, *q));
            }
            keys_done += BATCH as u64;
        }
        let rate = keys_done as f64 / t0.elapsed().as_secs_f64();
        let (sample, speed) = run.reference.measure(REF_SLICE, BATCH_BLEND);
        all_us.push(slice_ns.iter().map(|ns| ns * speed / 1000.0).collect());
        cap.pairs.push(Pair { rate, speed });
        cap.refs.push(sample);
        cap.spans_on.push(false);
    }
    run.absorb_capacity(&cap);
    (cap.pairs, all_us)
}

/// Run the workload called `name`.
pub fn run(name: &str, cfg: RunCfg) -> Option<RunOut> {
    Some(match name {
        "serve_read" => serve(cfg, false),
        "serve_churn" => serve(cfg, true),
        "net_tcp" => net(cfg),
        "index_batch" => index_batch(cfg),
        _ => return None,
    })
}
