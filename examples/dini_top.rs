//! `dini_top` — a `top`-style live view of a running dini cluster,
//! entirely over the wire: it connects a `RemoteClient` to any
//! endpoint, learns the shard map from the handshake, and then polls
//! every span with `StatsRequest` frames on a fixed cadence, printing
//! per-span served/admitted/shed counters, *live per-second rates*
//! (each all-time wire counter fed through a windowed [`Meter`]), a
//! key-range heat bar (the 16-bucket access grid the servers count on
//! the read path), queue depths per replica, latency quantiles, and
//! the stage-latency breakdown the servers sample into their trace
//! rings. Every number is a series of the span's metrics registry,
//! which the `StatsReply` frame carries whole; this view reads them by
//! name ([`ServeStats`] for the serving totals). No server-side
//! cooperation beyond the protocol — the observability plane is just
//! frames.
//!
//! ```text
//! cargo run --release --example dini_top -- 127.0.0.1:4100        # attach
//! cargo run --release --example dini_top -- 127.0.0.1:4100 500    # 500 ms cadence
//! DINI_TOP_SMOKE=1 cargo run --release --example dini_top         # self-contained CI smoke
//! ```
//!
//! In smoke mode no address is needed: the example boots a two-shard
//! `NetServer` on an ephemeral loopback port, drives a short burst of
//! load, takes three polls, asserts the counters move forward, and
//! exits 0 — the same code path CI exercises.

use dini::net::transport::{TcpAcceptorT, TcpDialer};
use dini::net::{Acceptor, ClientConfig, NetServerConfig, Topology};
use dini::obs::{Meter, MetricsSnapshot, HEAT_BUCKETS};
use dini::serve::{ServeConfig, ServeStats};
use dini::{NetServer, RemoteClient};
use dini_cluster::LogHistogram;
use std::time::{Duration, Instant};

fn smoke() -> bool {
    std::env::var_os("DINI_TOP_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Windowed per-second rates for one span, fed one wire poll at a time.
#[derive(Default)]
struct SpanRates {
    served: Meter,
    shed: Meter,
}

/// Turns successive polls of the all-time wire counters into "right
/// now" per-second rates, one [`SpanRates`] per span on one shared
/// monotonic timeline.
struct RateView {
    start: Instant,
    spans: Vec<SpanRates>,
}

impl RateView {
    fn new(n_spans: usize) -> Self {
        Self { start: Instant::now(), spans: (0..n_spans).map(|_| SpanRates::default()).collect() }
    }

    /// Feed one poll; returns `(served/s, shed/s)` over the window just
    /// closed (0.0 until the second poll primes the window).
    fn observe(&mut self, span: usize, s: &ServeStats) -> (f64, f64) {
        let t_ns = self.start.elapsed().as_nanos() as u64;
        let r = &mut self.spans[span];
        (r.served.observe(t_ns, s.served), r.shed.observe(t_ns, s.shed))
    }
}

/// Render a span's key-range heat grid (shard-major ×
/// [`HEAT_BUCKETS`]) as one bar, buckets summed across shards — bucket
/// `b` is the same position within each shard's own key span — and
/// scaled to the hottest: `·` cold, `▁`…`█` relative heat.
fn heat_bar(heat: &[u64]) -> String {
    if heat.is_empty() {
        return "(heat off)".to_owned();
    }
    let mut buckets = [0u64; HEAT_BUCKETS];
    for (i, c) in heat.iter().enumerate() {
        buckets[i % HEAT_BUCKETS] += c;
    }
    let max = buckets.iter().copied().max().unwrap_or(0);
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    buckets
        .iter()
        .map(|&b| {
            if b == 0 {
                '·'
            } else {
                GLYPHS[((b as u128 * (GLYPHS.len() as u128 - 1) / max as u128) as usize)
                    .min(GLYPHS.len() - 1)]
            }
        })
        .collect()
}

/// One rendered frame of the display: every span's live counters.
fn render(tick: u64, spans: &[(usize, Option<MetricsSnapshot>)], rates: &mut RateView) {
    println!("── dini_top · poll {tick} ──");
    println!(
        "{:>4} {:>10} {:>9} {:>10} {:>7} {:>9} {:>8}  heat / latency / stages / replicas",
        "span", "served", "/s", "admitted", "shed", "rerouted", "keys"
    );
    for (span, snap) in spans {
        let Some(snap) = snap else {
            println!("{span:>4} {:>10}", "(unreachable)");
            continue;
        };
        let s = ServeStats::from(snap);
        let (served_rate, _) = rates.observe(*span, &s);
        let heat: Vec<u64> = snap.series("dini_serve_heat").map(|(_, v)| v).collect();
        let traces = snap.sum("dini_serve_trace_records");
        let stages = if traces > 0 {
            let avg_us = |name| snap.sum(name) as f64 / traces as f64 / 1e3;
            format!(
                " | stages(avg over {traces} traces): wait {:.1} µs, serve {:.1} µs, fill {:.1} µs",
                avg_us("dini_serve_stage_wait_ns"),
                avg_us("dini_serve_stage_service_ns"),
                avg_us("dini_serve_stage_fill_ns"),
            )
        } else {
            String::new()
        };
        let mut replicas = String::new();
        for (labels, depth) in snap.series("dini_serve_queue_depth") {
            let served = ServeStats::within(snap, labels).served;
            replicas.push_str(&format!(" {{{labels}}}[depth {depth}, served {served}]"));
        }
        println!(
            "{span:>4} {:>10} {served_rate:>9.0} {:>10} {:>7} {:>9} {:>8}  [{}] {}{stages} |{replicas}",
            s.served,
            s.admitted,
            s.shed,
            s.rerouted,
            snap.sum("dini_serve_live_keys"),
            heat_bar(&heat),
            MetricsSnapshot::latency_line(&s.latency_ns),
        );
    }
}

/// Poll every span once through the handle.
fn poll_all(handle: &dini::net::NetHandle) -> Vec<(usize, Option<MetricsSnapshot>)> {
    (0..handle.n_spans()).map(|s| (s, handle.span_stats(s).ok())).collect()
}

fn main() {
    if smoke() {
        smoke_run();
        return;
    }
    let mut args = std::env::args().skip(1);
    let Some(addr) = args.next() else {
        eprintln!("usage: dini_top <host:port> [cadence_ms]   (or DINI_TOP_SMOKE=1)");
        std::process::exit(2);
    };
    let cadence =
        Duration::from_millis(args.next().and_then(|s| s.parse().ok()).unwrap_or(1000u64));

    let client = RemoteClient::connect(Box::new(TcpDialer), &addr, ClientConfig::default())
        .unwrap_or_else(|e| {
            eprintln!("dini_top: cannot connect to {addr}: {e:?}");
            std::process::exit(1);
        });
    let handle = client.handle();
    println!("attached to {addr}: {} spans, {} live keys", handle.n_spans(), handle.live_keys());
    let mut rates = RateView::new(handle.n_spans());
    let mut tick = 0u64;
    // lint: wait-ok: a live dashboard redraws until its operator stops it.
    loop {
        tick += 1;
        render(tick, &poll_all(&handle), &mut rates);
        std::thread::sleep(cadence);
    }
}

/// Self-contained CI smoke: boot a server, load it, watch it move.
fn smoke_run() {
    let keys: Vec<u32> = (0..20_000u32).map(|i| i * 2).collect();
    let acceptor = TcpAcceptorT::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.addr();
    let mut cfg = ServeConfig::new(2);
    cfg.replicas_per_shard = 2;
    let server = NetServer::start(
        Box::new(acceptor),
        &keys,
        NetServerConfig::new(cfg, Topology::single(vec![addr.clone()]), 0),
    );

    let client = RemoteClient::connect(Box::new(TcpDialer), &addr, ClientConfig::default())
        .expect("connect to smoke server");
    let handle = client.handle();

    // A burst of load between polls, so served (and its windowed rate)
    // visibly advances.
    let mut rates = RateView::new(handle.n_spans());
    let mut last_served = 0u64;
    for tick in 1..=3u64 {
        // Scattered over the whole key range (and one past its end), so
        // every shard's heat row has load across its span.
        let reach = keys[keys.len() - 1] + 2;
        for i in 0..500u32 {
            let q = i.wrapping_mul(2_654_435_761) % reach;
            let want = keys.partition_point(|&k| k <= q) as u32;
            assert_eq!(handle.lookup(q), Ok(want), "smoke rank({q})");
        }
        let polled = poll_all(&handle);
        render(tick, &polled, &mut rates);
        let snap = polled[0].1.as_ref().expect("span 0 must answer its stats poll");
        let s = ServeStats::from(snap);
        assert!(s.served >= last_served + 500, "served must advance by at least the burst");
        assert_eq!(snap.sum("dini_serve_live_keys"), keys.len() as u64);
        assert_eq!(snap.series("dini_serve_queue_depth").count(), 4, "2 shards × 2 replicas");
        assert!(s.latency_ns.count() > 0, "the latency histogram crossed the wire");
        // The writer's counters and the span's log position ride the
        // same frame, by name.
        for name in [
            "dini_serve_updates_applied",
            "dini_serve_update_nops",
            "dini_serve_update_batches",
            "dini_serve_snapshots",
            "dini_serve_merges",
            "dini_serve_live_keys",
            "dini_serve_checkpoints",
            "dini_serve_checkpoint_failures",
            "dini_net_log_epoch",
            "dini_net_log_seq",
        ] {
            let mut scalars = snap.counters.iter().chain(&snap.gauges);
            assert!(scalars.any(|(n, ..)| n == name), "{name} missing from the stats frame");
        }
        if tick >= 2 {
            // The first poll primed the meter; every later window closes
            // over a 500-lookup burst, so the live rate must be positive.
            assert!(
                rates.spans[0].served.rate() > 0.0,
                "windowed served rate must advance once primed"
            );
        }
        // Key-range heat rode the same stats frame: each shard's row is
        // cut from its own key span, so a burst across the keys lights
        // more than one bucket, and the hottest renders full-block.
        let heat: Vec<u64> = snap.series("dini_serve_heat").map(|(_, v)| v).collect();
        assert!(heat.iter().sum::<u64>() > 0, "heat counters must tick under load");
        let bar = heat_bar(&heat);
        assert!(bar.contains('█'), "the hottest bucket must render");
        assert!(bar.chars().filter(|&c| c != '·').count() > 1, "one lit bucket: {bar}");
        last_served = s.served;
    }
    // The client kept its own wire clock: RTT histogram + sampled
    // net-stage traces, printed with the shared formatter.
    let rtt: LogHistogram = handle.wire_rtt();
    assert!(rtt.count() > 0, "wire RTT must have samples");
    println!("wire RTT per batch: {}", MetricsSnapshot::latency_line(&rtt));
    drop(handle);
    drop(client);
    server.shutdown();
    println!("dini_top smoke ✓ ({last_served} served across 3 polls)");
}
