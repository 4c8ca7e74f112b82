//! The layer ladder: what a lookup pays at each boundary it crosses.
//!
//! The same key set and query stream go through each rung — bare sorted
//! array rank → `DistributedIndex::lookup_batch_into` → in-process
//! `ServerHandle` → `RemoteClient` over zero-latency ChanNet → TCP
//! loopback — with generator and program confined to one core, so a
//! rung's ns per lookup is its CPU cost over the whole path and a rung's
//! self cost is its difference to the rung below. Every cell reports the
//! median of a dozen short slices; cells that can be alive together
//! without disturbing each other (structures, partition counts,
//! observability variants) run interleaved, so host drift lands on both
//! sides of every difference.
//!
//! Around the ladder sit the single-layer cells (structures in
//! `dini-index`, partition counts in `dini-core`, the histogram, the
//! trace ring, the wire codec, the journal, the snapshot store) that price
//! what ROADMAP items 1–3 propose to change.

use crate::alloc;
use crate::host::{self, Placement, Usage};
use crate::load::{ClosedLoop, Judge, Queries, Target, WINDOW};
use crate::metrics::Metrics;
use crate::oracle::{gen_churn_ops, rank_in, SplitMix, Tally};
use crate::spans::{Recorder, ROOT};
use crate::stats::median;
use crate::workloads::{self, client_cfg, RunCfg, BATCH, BATCH_KEYS, SERVE_KEYS};
use dini_cache_sim::{AddressSpace, NullMemory};
use dini_cluster::LogHistogram;
use dini_core::native::{DistributedIndex, NativeConfig};
use dini_index::{BufferedLookup, CsbTree, DeltaArray, RankIndex, SortedArray};
use dini_net::transport::{TcpAcceptorT, TcpDialer};
use dini_net::{
    Acceptor, ChanNet, Dialer, Frame, LookupStatus, NetServer, NetServerConfig, RemoteClient,
    Topology,
};
use dini_obs::{causal, AtomicLogHistogram, StageRecord, TraceConfig, TraceRing};
use dini_serve::{Clock, IndexServer, ServeConfig, SharedKeys};
use dini_store::{open_snapshot, write_snapshot, ShardRecord, SpanRecord};
use dini_workload::{gen_search_keys, KeyGen, Op};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys in the cache-fitted cells (1 MiB).
const FIT_KEYS: usize = 1 << 18;
/// Bare-rank calls between clock reads.
const CHUNK: usize = 1024;

/// Call `f` (which performs `ops` operations) until `dur` has passed;
/// nanoseconds per operation.
fn ns_per_op(dur: Duration, ops: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        if t0.elapsed() >= dur {
            break;
        }
    }
    t0.elapsed().as_nanos() as f64 / (calls * ops as u64) as f64
}

/// One ladder run's shared state.
struct Ladder<'a> {
    rec: Recorder,
    m: Metrics,
    slice: Duration,
    rounds: usize,
    queries: &'a [u32],
    at: usize,
    /// Replies checked and failed across every served cell.
    tally: Tally,
}

impl<'a> Ladder<'a> {
    /// The next `n` queries of the cycled stream.
    fn take(&mut self, n: usize) -> &'a [u32] {
        if self.at + n > self.queries.len() {
            self.at = 0;
        }
        self.at += n;
        &self.queries[self.at - n..self.at]
    }

    /// Time one cell slice inside a `rung.*` span.
    fn rung<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let s0 = self.rec.now();
        let out = f(self);
        let s1 = self.rec.now();
        self.rec.push(name, s0, s1, ROOT, 0);
        out
    }

    fn rank_slice(&mut self, name: &'static str, rank: &impl Fn(u32) -> u32) -> f64 {
        let slice = self.slice;
        self.rung(name, |l| {
            ns_per_op(slice, CHUNK, || {
                let mut sink = 0u32;
                for &q in l.take(CHUNK) {
                    sink = sink.wrapping_add(rank(q));
                }
                black_box(sink);
            })
        })
    }

    /// One slice of 4096-key (or `batch`-key) batches; ns per key.
    fn batch_slice(
        &mut self,
        name: &'static str,
        index: &mut DistributedIndex,
        batch: usize,
        out: &mut Vec<u32>,
    ) -> f64 {
        let slice = self.slice;
        self.rung(name, |l| ns_per_op(slice, batch, || index.lookup_batch_into(l.take(batch), out)))
    }
}

/// A served rung: the closed loop against one target, its place in the
/// query stream, its accumulated resource usage, and its slice samples.
struct Served<'a, T: Target> {
    name: &'static str,
    lp: ClosedLoop<T>,
    queries: Queries<'a>,
    ns: Vec<f64>,
    used: Usage,
    done: u64,
}

impl<'a, T: Target> Served<'a, T> {
    fn new(name: &'static str, l: &Ladder<'a>) -> Self {
        Self {
            name,
            lp: ClosedLoop::new(),
            queries: Queries::new(l.queries),
            ns: Vec::new(),
            used: Usage::default(),
            done: 0,
        }
    }

    fn slice(&mut self, l: &mut Ladder, target: &T, judge: &Judge, spans: bool) {
        let (u0, t0) = (host::usage(), Instant::now());
        let s0 = l.rec.now();
        let done =
            self.lp.slice(target, &mut self.queries, l.slice, judge, None, &mut l.rec, spans);
        let elapsed = t0.elapsed();
        let s1 = l.rec.now();
        l.rec.push(self.name, s0, s1, ROOT, 0);
        let u = host::usage().since(&u0);
        self.used.user_s += u.user_s;
        self.used.sys_s += u.sys_s;
        self.used.ctxsw += u.ctxsw;
        self.done += done;
        self.ns.push(elapsed.as_nanos() as f64 / done.max(1) as f64);
    }

    /// One more slice with the allocation counter on: allocations per
    /// lookup. Run after the timed rounds, so counting taxes nothing that
    /// is reported.
    fn allocs_per_lookup(&mut self, l: &mut Ladder, target: &T, judge: &Judge) -> f64 {
        let (done, allocs) = alloc::count(|| {
            self.lp.slice(target, &mut self.queries, l.slice, judge, None, &mut l.rec, false)
        });
        allocs as f64 / done.max(1) as f64
    }

    fn ns_per_lookup(&self) -> f64 {
        median(&self.ns)
    }

    /// Wait for what is in flight and hand the checked-reply counts over.
    fn finish(&mut self, l: &mut Ladder, judge: &Judge) {
        self.lp.drain(judge, None);
        l.tally.absorb(&self.lp.tally);
    }
}

/// The workloads' server configuration with the observability knobs set.
fn serve_cfg(trace: TraceConfig, heat: bool) -> ServeConfig {
    ServeConfig { trace, heat, ..workloads::serve_cfg() }
}

/// One span, one endpoint at `addr`, the ladder's default server knobs.
fn net_cfg(addr: &str) -> NetServerConfig {
    NetServerConfig::new(
        serve_cfg(TraceConfig::default(), true),
        Topology::single(vec![addr.to_owned()]),
        0,
    )
}

fn native(n: usize) -> NativeConfig {
    let mut c = NativeConfig::new(n);
    c.pin_cores = false;
    c
}

fn sorted_keys(n: usize, seed: u64) -> Vec<u32> {
    let mut k = gen_search_keys(n, seed);
    k.sort_unstable();
    k.dedup();
    k
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Run every ladder cell in about `seconds`; returns the per-layer
/// metrics the cells produce. `out` is a directory the cells may create
/// scratch files in.
pub fn run(cfg: RunCfg, seconds: f64, out: &Path) -> (Metrics, Tally) {
    let shrink = |n: usize| if cfg.smoke { n >> 2 } else { n };
    let queries = gen_search_keys(shrink(1 << 22), cfg.seed + 1);
    let scale = (seconds / 13.0).clamp(0.15, 4.0);
    let mut l = Ladder {
        rec: Recorder::new(true, 1 << 18),
        m: Metrics::default(),
        // Many short slices: what is compared alternates every few tens
        // of milliseconds, faster than the host changes its mood.
        slice: Duration::from_secs_f64(0.05 * scale),
        rounds: 12,
        queries: &queries,
        at: 0,
        tally: Tally::default(),
    };
    let _ = std::fs::create_dir_all(out);
    let mid = sorted_keys(shrink(SERVE_KEYS), cfg.seed);

    host::place(Placement::Core0, cfg.nproc);
    main_ladder(&mut l, &mid);
    obs_cells(&mut l, &mid);
    host::place(Placement::All, cfg.nproc);
    serve_cells(&mut l, &mid);
    net_cells(&mut l);
    store_cells(&mut l, &mid, out);
    small_cells(&mut l, &mid, cfg.seed, out);
    drop(mid);
    index_and_core_cells(&mut l, shrink(BATCH_KEYS), shrink(FIT_KEYS), cfg);

    if let Err(e) = l.rec.write(&out.join("spans-ladder.json"), "ladder") {
        eprintln!("ladder: cannot write spans: {e}");
    }
    (l.m, l.tally)
}

/// The five rungs, confined to core 0, one after the other: while a rung
/// is measured only its own deployment is alive. (Interleaved with the
/// others alive, the serve rung read 30 % higher — a `RemoteClient`'s and
/// a `NetServer`'s idle threads wake a thousand times a second each, on
/// the one core everything shares.)
fn main_ladder(l: &mut Ladder, mid: &[u32]) {
    let judge = Judge { base: mid, every: 64 };
    let rounds = l.rounds;
    let resources = |l: &mut Ladder, prefix: &str, used: &Usage, done: u64| {
        let done = done.max(1) as f64;
        l.m.set(&format!("{prefix}.cpu_us_per_lookup"), used.cpu_s() * 1e6 / done);
        l.m.set(&format!("{prefix}.sys_cpu_share"), used.sys_s / used.cpu_s().max(1e-9));
        l.m.set(&format!("{prefix}.ctxsw_per_lookup"), used.ctxsw as f64 / done);
    };

    let bare = mid.to_vec();
    let rank_ns: Vec<f64> =
        (0..rounds).map(|_| l.rank_slice("rung.rank", &|q| rank_in(&bare, q))).collect();
    drop(bare);
    let rank = median(&rank_ns);
    l.m.set("index.sorted_rank_ns.mid", rank);

    let mut core = DistributedIndex::build(mid, native(1));
    let mut out = Vec::with_capacity(WINDOW);
    let core_ns: Vec<f64> =
        (0..rounds).map(|_| l.batch_slice("rung.core", &mut core, WINDOW, &mut out)).collect();
    drop(core);
    let core_rung = median(&core_ns);
    l.m.set("core.batch_ns_per_key.mid.s1", core_rung);

    let t0 = Instant::now();
    let server = IndexServer::build(mid, serve_cfg(TraceConfig::default(), true));
    l.m.set("serve.build_ms", ms(t0.elapsed()));
    let handle = server.handle();
    let mut serve = Served::new("rung.serve", l);
    for _ in 0..rounds {
        serve.slice(l, &handle, &judge, true);
    }
    let allocs = serve.allocs_per_lookup(l, &handle, &judge);
    serve.finish(l, &judge);
    // The same server, 256 keys per `lookup_many` call.
    let slice = l.slice;
    let many = l.rung("rung.serve_many", |l| {
        ns_per_op(slice, WINDOW, || {
            black_box(handle.lookup_many(l.take(WINDOW)).expect("lookup_many on a live server"));
        })
    });
    drop(server);
    let s = serve.ns_per_lookup();
    l.m.set("serve.ns_per_lookup", s);
    l.m.set("serve.self_ns_per_lookup", s - core_rung);
    l.m.set("serve.allocs_per_lookup", allocs);
    l.m.set("serve.lookup_many_ns_per_key", many);
    l.m.set("serve.submit_ns_p50", median(&serve.lp.submit_ns));
    resources(l, "serve", &serve.used, serve.done);

    let chan_net = ChanNet::new(Clock::system());
    let chan_server = NetServer::start(Box::new(chan_net.listen("ladder")), mid, net_cfg("ladder"));
    let chan_client = RemoteClient::connect(chan_net.dialer(), "ladder", client_cfg())
        .expect("connect over the in-process network");
    let chan_handle = chan_client.handle();
    let mut chan = Served::new("rung.net_chan", l);
    for _ in 0..rounds {
        chan.slice(l, &chan_handle, &judge, false);
    }
    chan.finish(l, &judge);
    drop(chan_client);
    chan_server.shutdown();
    let c = chan.ns_per_lookup();
    l.m.set("net.chan.ns_per_lookup", c);
    l.m.set("net.chan.self_ns_per_lookup", c - s);

    let acceptor = TcpAcceptorT::bind("127.0.0.1:0").expect("bind an ephemeral loopback port");
    let addr = acceptor.addr();
    let tcp_server = NetServer::start(Box::new(acceptor), mid, net_cfg(&addr));
    let t0 = Instant::now();
    let tcp_client = RemoteClient::connect(Box::new(TcpDialer), &addr, client_cfg())
        .expect("connect over loopback");
    l.m.set("net.connect_ms", ms(t0.elapsed()));
    let tcp_handle = tcp_client.handle();
    let mut tcp = Served::new("rung.net_tcp", l);
    for _ in 0..rounds {
        tcp.slice(l, &tcp_handle, &judge, true);
    }
    let allocs = tcp.allocs_per_lookup(l, &tcp_handle, &judge);
    tcp.finish(l, &judge);
    let t = tcp.ns_per_lookup();
    l.m.set("net.tcp.ns_per_lookup", t);
    l.m.set("net.tcp.self_ns_per_lookup", t - c);
    l.m.set("net.allocs_per_lookup", allocs);
    l.m.set("net.submit_ns_p50", median(&tcp.lp.submit_ns));
    l.m.set("net.wire_rtt_p50_us", tcp_handle.wire_rtt().median() / 1000.0);
    resources(l, "net", &tcp.used, tcp.done);

    // Can the telemetry explain the run? Join the client's sampled wire
    // records with the server's sampled stage records.
    let client_recs = tcp_handle.wire_traces();
    let stitched = causal::stitch(&client_recs, &tcp_server.server().stage_traces());
    l.m.set("obs.stitched_share", stitched.len() as f64 / client_recs.len().max(1) as f64);

    let st = tcp_client.stats();
    for (name, v) in [
        ("net.retries", st.retries),
        ("net.rerouted", st.rerouted),
        ("net.client_shed", st.client_shed),
    ] {
        l.m.add(name, v as f64);
    }
    drop(tcp_client);
    tcp_server.shutdown();
}

/// What each observability feature costs a confined served lookup:
/// feature on minus everything off, alternating slices.
fn obs_cells(l: &mut Ladder, mid: &[u32]) {
    let judge = Judge { base: mid, every: 64 };
    let variants: [(&'static str, TraceConfig, bool); 4] = [
        ("rung.obs_off", TraceConfig::disabled(), false),
        ("rung.obs_trace_default", TraceConfig::default(), false),
        ("rung.obs_trace_dense", TraceConfig::dense(), false),
        ("rung.obs_heat", TraceConfig::disabled(), true),
    ];
    let servers: Vec<IndexServer> = variants
        .iter()
        .map(|(_, trace, heat)| IndexServer::build(mid, serve_cfg(trace.clone(), *heat)))
        .collect();
    let handles: Vec<_> = servers.iter().map(IndexServer::handle).collect();
    let mut cells: Vec<Served<_>> =
        variants.iter().map(|(name, _, _)| Served::new(name, l)).collect();
    for _ in 0..l.rounds {
        for (cell, handle) in cells.iter_mut().zip(&handles) {
            cell.slice(l, handle, &judge, false);
        }
    }
    for cell in &mut cells {
        cell.finish(l, &judge);
    }
    let off = cells[0].ns_per_lookup();
    l.m.set("obs.trace_default_cost_ns", cells[1].ns_per_lookup() - off);
    l.m.set("obs.trace_dense_cost_ns", cells[2].ns_per_lookup() - off);
    l.m.set("obs.heat_cost_ns", cells[3].ns_per_lookup() - off);
}

/// Serving cells that need their own servers, unconfined.
fn serve_cells(l: &mut Ladder, mid: &[u32]) {
    let judge = Judge { base: mid, every: 64 };
    // The number a parallelism change should move: raw capacity with the
    // program's threads free to spread over every core.
    let server = IndexServer::build(mid, serve_cfg(TraceConfig::default(), true));
    let handle = server.handle();
    let mut spread = Served::new("rung.serve_spread", l);
    for _ in 0..l.rounds {
        spread.slice(l, &handle, &judge, false);
    }
    spread.finish(l, &judge);
    l.m.set("serve.spread_lookups_per_s", 1e9 / spread.ns_per_lookup());
    // One caller, one lookup at a time: with the default `max_delay` the
    // round trip is the coalescing timer, with 0 it is the hand-offs.
    let slice = l.slice;
    let serial = |l: &mut Ladder, server: &IndexServer| {
        let h = server.handle();
        ns_per_op(slice, 1, || {
            black_box(h.lookup(l.take(1)[0]).expect("lookup on a live server"));
        })
    };
    let default_rt = l.rung("rung.serve_serial_default", |l| serial(l, &server));
    drop(server);
    let mut cfg = serve_cfg(TraceConfig::default(), true);
    cfg.max_delay = Duration::ZERO;
    let eager = IndexServer::build(mid, cfg);
    let eager_rt = l.rung("rung.serve_serial", |l| serial(l, &eager));
    l.m.set("serve.serial_rt_default_ns", default_rt);
    l.m.set("serve.serial_rt_ns", eager_rt);
}

/// One-frame ping-pong over `Duplex` halves, and the codec alone.
fn net_cells(l: &mut Ladder) {
    let slice = l.slice;
    let ping_pong = |acceptor: Box<dyn Acceptor>, dialer: Box<dyn Dialer>| -> f64 {
        let stop = AtomicBool::new(false);
        let addr = acceptor.addr();
        let stop = &stop;
        std::thread::scope(|s| {
            s.spawn(move || {
                let Ok(mut conn) = acceptor.accept_timeout(Duration::from_secs(2)) else { return };
                // Statistic-free flag: Relaxed is enough, the loop re-reads it.
                while !stop.load(Ordering::Relaxed) {
                    match conn.rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(frame) => {
                            if conn.tx.send(&frame).is_err() {
                                return;
                            }
                        }
                        Err(dini_net::NetError::Timeout) => {}
                        Err(_) => return,
                    }
                }
            });
            let mut conn = dialer.dial(&addr).expect("dial the echo listener");
            let mut req = 0u64;
            let ns = ns_per_op(slice, 1, || {
                req += 1;
                conn.tx.send(&Frame::EpochPing { req }).expect("send a ping");
                black_box(conn.rx.recv_timeout(Duration::from_secs(2)).expect("the echo"));
            });
            stop.store(true, Ordering::Relaxed);
            ns
        })
    };
    let net = ChanNet::new(Clock::system());
    let chan = l.rung("rung.chan_rtt", |_| ping_pong(Box::new(net.listen("echo")), net.dialer()));
    let tcp = l.rung("rung.tcp_rtt", |_| {
        ping_pong(
            Box::new(TcpAcceptorT::bind("127.0.0.1:0").expect("bind loopback")),
            Box::new(TcpDialer),
        )
    });
    l.m.set("net.chan_rtt_ns", chan);
    l.m.set("net.tcp_rtt_ns", tcp);

    // The codec: a 256-key Lookup out, a 256-rank Reply back.
    let lookup = Frame::Lookup { req: 1, trace: 0, parent: 0, keys: l.take(WINDOW).to_vec() };
    let reply = Frame::Reply {
        req: 1,
        trace: 0,
        parent: 0,
        results: (0..WINDOW as u32).map(LookupStatus::Rank).collect(),
    };
    let mut buf = Vec::with_capacity(8192);
    let encode = l.rung("rung.wire_encode", |_| {
        ns_per_op(slice / 2, WINDOW, || {
            buf.clear();
            lookup.encode_into(&mut buf);
            reply.encode_into(&mut buf);
            black_box(&buf);
        })
    });
    let (lookup_bytes, reply_bytes) = (lookup.encode(), reply.encode());
    let decode = l.rung("rung.wire_decode", |_| {
        ns_per_op(slice / 2, WINDOW, || {
            black_box(Frame::decode(&lookup_bytes[4..]).expect("own encoding decodes"));
            black_box(Frame::decode(&reply_bytes[4..]).expect("own encoding decodes"));
        })
    });
    l.m.set("net.wire.encode_ns_per_key", encode);
    l.m.set("net.wire.decode_ns_per_key", decode);
    l.m.set(
        "net.wire.bytes_per_lookup",
        (lookup_bytes.len() + reply_bytes.len()) as f64 / WINDOW as f64,
    );
}

/// Snapshot write, open, size, and what serving from the mapping costs.
fn store_cells(l: &mut Ladder, mid: &[u32], out: &Path) {
    let path = out.join("ladder.snap");
    let rec = SpanRecord {
        delims: &[],
        shards: vec![ShardRecord { main: mid, inserts: &[], deletes: &[], main_epoch: 0 }],
        log_epoch: 0,
        log_seq: 0,
    };
    let t0 = Instant::now();
    let wrote = l.rung("rung.store_write", |_| write_snapshot(&path, &rec));
    l.m.set("store.write_ms", ms(t0.elapsed()));
    if let Err(e) = wrote {
        eprintln!("ladder: snapshot write failed, store cells skipped: {e}");
        return;
    }
    let t0 = Instant::now();
    let snap = l.rung("rung.store_open", |_| open_snapshot(&path));
    l.m.set("store.open_ms", ms(t0.elapsed()));
    if let Ok(snap) = snap {
        l.m.set("store.bytes_per_key", snap.file_bytes as f64 / mid.len() as f64);
        let mapped = SortedArray::from_shared(snap.shards[0].main.clone(), 0, 0.0);
        let owned = SortedArray::from_shared(SharedKeys::owned(mid.to_vec()), 0, 0.0);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..l.rounds {
            a.push(l.rank_slice("rung.rank_mapped", &|q| mapped.rank(q, &mut NullMemory).0));
            b.push(l.rank_slice("rung.rank_owned", &|q| owned.rank(q, &mut NullMemory).0));
        }
        l.m.set("store.mapped_rank_cost_ns", median(&a) - median(&b));
    }
    let _ = std::fs::remove_file(&path);
}

/// Cells that take microseconds each: generators, histograms, the trace
/// ring, the journal, the delta overlay.
fn small_cells(l: &mut Ladder, mid: &[u32], seed: u64, out: &Path) {
    let slice = l.slice / 2;
    let mut gen = KeyGen::uniform(seed);
    l.m.set(
        "workload.next_key_ns",
        ns_per_op(slice, CHUNK, || {
            for _ in 0..CHUNK {
                black_box(gen.next_key());
            }
        }),
    );
    let t0 = Instant::now();
    let ops = gen_churn_ops(mid, seed + 2, 1 << 16);
    l.m.set("workload.churn_next_op_ns", t0.elapsed().as_nanos() as f64 / ops.len() as f64);

    let mut rng = SplitMix(seed);
    let mut hist = LogHistogram::new();
    l.m.set(
        "cluster.hist_record_ns",
        ns_per_op(slice, CHUNK, || {
            for _ in 0..CHUNK {
                hist.record((rng.next_u64() & 0xF_FFFF) as f64 + 1.0);
            }
        }),
    );
    // Resolution: the widest relative gap between adjacent values the
    // histogram can report, over one octave of evenly spread samples.
    let mut probe = LogHistogram::new();
    for i in 0..4096 {
        probe.record(100_000.0 * (1.0 + i as f64 / 4096.0));
    }
    let mut seen: Vec<f64> = (1..1000).map(|q| probe.quantile(q as f64 / 1000.0)).collect();
    seen.dedup();
    let step = seen.windows(2).map(|w| w[1] / w[0] - 1.0).fold(0.0, f64::max);
    l.m.set("cluster.hist_rel_step", step);

    let atomic = AtomicLogHistogram::new();
    l.m.set(
        "obs.hist_record_ns",
        ns_per_op(slice, CHUNK, || {
            for _ in 0..CHUNK {
                atomic.record((rng.next_u64() & 0xF_FFFF) + 1);
            }
        }),
    );
    let ring = TraceRing::new(&TraceConfig::dense());
    let rec = StageRecord::default();
    l.m.set(
        "obs.ring_push_ns",
        ns_per_op(slice, CHUNK, || {
            for _ in 0..CHUNK {
                ring.push(black_box(&rec));
            }
        }),
    );

    let path = out.join("ladder.journal");
    let _ = std::fs::remove_file(&path);
    match dini_flight::FlightJournal::open(&path, 4096) {
        Ok(journal) => {
            let mut i = 0u64;
            l.m.set(
                "flight.record_ns",
                ns_per_op(slice, CHUNK, || {
                    for _ in 0..CHUNK {
                        i += 1;
                        journal.record(dini_flight::EventKind::EpochSwap, 0, 0, i, 0, i);
                    }
                }),
            );
        }
        Err(e) => eprintln!("ladder: cannot open a journal, flight cell skipped: {e:?}"),
    }
    let _ = std::fs::remove_file(&path);

    // The overlay the serve writer folds churn through: rank with a
    // half-full delta, insert, and a full merge.
    let threshold = 4096;
    let mut delta = DeltaArray::new(mid.to_vec(), 0, 0.0, threshold);
    let mut at = 0usize;
    let t0 = Instant::now();
    for &op in ops.iter().filter(|op| matches!(op, Op::Insert(_))).take(threshold / 2) {
        delta.insert(op.key(), &mut NullMemory);
        at += 1;
    }
    l.m.set("index.delta_insert_ns", t0.elapsed().as_nanos() as f64 / at.max(1) as f64);
    let d = &delta;
    let rank = l.rank_slice("rung.delta_rank", &|q| d.rank(q, &mut NullMemory).0);
    l.m.set("index.delta_rank_ns", rank);
    let t0 = Instant::now();
    delta.merge(&mut NullMemory);
    l.m.set("index.delta_merge_ms", ms(t0.elapsed()));
}

/// The structures `dini-index` offers a slave, and the partition counts
/// `dini-core` can run them at, on the big and the cache-fitted key set.
fn index_and_core_cells(l: &mut Ladder, big_n: usize, fit_n: usize, cfg: RunCfg) {
    let big = Arc::new(sorted_keys(big_n, cfg.seed + 7));
    let fit = Arc::new(sorted_keys(fit_n, cfg.seed + 8));

    let sorted_big = SortedArray::from_shared(SharedKeys::from_arc(big.clone()), 0, 0.0);
    let sorted_fit = SortedArray::from_shared(SharedKeys::from_arc(fit.clone()), 0, 0.0);
    // 64-byte nodes, as `NativeStructure::CsbTree` builds them.
    let csb = CsbTree::with_leaf_entries(&big, 15, 8, 64, 1 << 20, 0.0);
    let mut space = AddressSpace::new();
    let mut buffered = BufferedLookup::for_cache(&csb, 2 << 20, 0.5, &mut space, BATCH);
    let mut out = Vec::with_capacity(BATCH);
    let (mut s_big, mut s_fit, mut c_big, mut b_big) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let slice = l.slice;
    for _ in 0..l.rounds {
        s_big.push(l.rank_slice("rung.sorted_big", &|q| sorted_big.rank(q, &mut NullMemory).0));
        s_fit.push(l.rank_slice("rung.sorted_fit", &|q| sorted_fit.rank(q, &mut NullMemory).0));
        c_big.push(l.rank_slice("rung.csb_big", &|q| csb.rank(q, &mut NullMemory).0));
        b_big.push(l.rung("rung.buffered_big", |l| {
            ns_per_op(slice, BATCH, || {
                buffered.rank_batch(&csb, l.take(BATCH), &mut out, &mut NullMemory);
                black_box(&out);
            })
        }));
    }
    l.m.set("index.sorted_rank_ns.big", median(&s_big));
    l.m.set("index.sorted_rank_ns.fit", median(&s_fit));
    l.m.set("index.csb_rank_ns.big", median(&c_big));
    l.m.set("index.buffered_rank_ns.big", median(&b_big));
    drop((csb, buffered));

    let mut s1 = DistributedIndex::build_shared(&big, native(1));
    let mut s2 = DistributedIndex::build_shared(&big, native(2));
    let mut s4 = DistributedIndex::build_shared(&big, native(4));
    let mut f2 = DistributedIndex::build_shared(&fit, native(2));
    let (mut n1, mut n2, mut n4, mut nf) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut s2_ctxsw = 0u64;
    let mut s2_batches = 0f64;
    for _ in 0..l.rounds {
        n1.push(l.batch_slice("rung.core_big_s1", &mut s1, BATCH, &mut out));
        let u0 = host::usage();
        let ns = l.batch_slice("rung.core_big_s2", &mut s2, BATCH, &mut out);
        s2_ctxsw += host::usage().since(&u0).ctxsw;
        s2_batches += slice.as_nanos() as f64 / (ns * BATCH as f64);
        n2.push(ns);
        n4.push(l.batch_slice("rung.core_big_s4", &mut s4, BATCH, &mut out));
        nf.push(l.batch_slice("rung.core_fit_s2", &mut f2, BATCH, &mut out));
    }
    let (b1, b2, b4) = (median(&n1), median(&n2), median(&n4));
    l.m.set("core.batch_ns_per_key.big.s1", b1);
    l.m.set("core.batch_ns_per_key.big.s2", b2);
    l.m.set("core.batch_ns_per_key.big.s4", b4);
    l.m.set("core.batch_ns_per_key.fit.s2", median(&nf));
    l.m.set("core.scatter_self_ns_per_key", b1 - median(&s_big));
    l.m.set("core.ctxsw_per_batch", s2_ctxsw as f64 / s2_batches.max(1.0));
    // The paper's claim as a number: as many slaves as cores, over one.
    let at_nproc = match cfg.nproc {
        0 | 1 => b1,
        2 | 3 => b2,
        _ => b4,
    };
    l.m.set("core.partition_speedup", b1 / at_nproc);
    // One key: nothing to amortise the master↔slave hand-off over.
    let one = l.rung("rung.core_lookup1", |l| {
        ns_per_op(slice, 1, || {
            black_box(f2.lookup(l.take(1)[0]));
        })
    });
    l.m.set("core.lookup1_rt_ns", one);
}
