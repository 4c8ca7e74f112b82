//! Serving-layer demo: a sharded `IndexServer` under mixed load — Zipf
//! lookups from closed-loop clients *while* a churn stream folds inserts
//! and deletes through the writer — then a quiesce and an exact check of
//! served ranks against a single-threaded `BTreeSet` oracle.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! Set `DINI_DEMO_TCP=1` to additionally run the *same* closed-loop
//! Zipf load through `dini-net`'s `RemoteClient` over TCP loopback
//! (server and client in this process, every lookup crossing the wire),
//! printing the same p50/p99/p999 summary line so in-process vs TCP is
//! eyeball-comparable.

use dini::net::transport::{TcpAcceptorT, TcpDialer};
use dini::net::{run_net_load, Acceptor, ClientConfig, NetServerConfig, Topology};
use dini::obs::MetricsSnapshot;
use dini::serve::{IndexServer, LoadMode, Op, ServeConfig};
use dini::workload::{ChurnGen, KeyDistribution, OpMix};
use dini::{NetServer, RemoteClient};
use dini_serve::run_load;
use std::collections::BTreeSet;

fn main() {
    // Initial index: 200k keys in a compact range so churn collides with
    // the live set (tombstones, resurrects) rather than only growing it.
    let n_keys = 200_000usize;
    let keys: Vec<u32> = (0..n_keys as u32).map(|i| i * 16 + 3).collect();
    let key_space = n_keys as u32 * 16 + 16;

    let shards =
        std::thread::available_parallelism().map(|n| (n.get() / 2).clamp(2, 4)).unwrap_or(2);
    let mut cfg = ServeConfig::new(shards);
    // Two replicas per shard: they share the shard's snapshots — keys,
    // directory and overlay (no extra index memory) — the router spreads
    // callers between them by live depth, and either takes the other's
    // callers if it crashes.
    cfg.replicas_per_shard = 2;
    cfg.merge_threshold = 2048;
    cfg.publish_every = 64;
    println!(
        "serving {} keys over {} shards × {} replicas (each caller ranks its own keys)",
        n_keys, shards, cfg.replicas_per_shard
    );
    let server = IndexServer::build(&keys, cfg);

    // Churn: a deterministic write-heavy stream applied while serving.
    // The oracle replays the identical stream into a BTreeSet.
    let mut oracle: BTreeSet<u32> = keys.iter().copied().collect();
    let churn_ops: Vec<Op> =
        ChurnGen::new(7, KeyDistribution::Clustered { lo: 0, hi: key_space }, OpMix::write_heavy())
            .take(60_000);
    for op in &churn_ops {
        match *op {
            Op::Insert(k) => {
                oracle.insert(k);
            }
            Op::Delete(k) => {
                oracle.remove(&k);
            }
            Op::Query(_) => {}
        }
    }

    // Writer-side churn runs concurrently with the read load below.
    let clients = 8;
    let lookups_per_client = 25_000;
    let report = std::thread::scope(|scope| {
        let updater = scope.spawn(|| {
            for op in &churn_ops {
                server.update(*op).expect("writer alive");
            }
        });
        // Mixed Zipf lookups: hot buckets hammer a few shards, the tail
        // touches everything.
        let report = run_load(
            &server.handle(),
            KeyDistribution::Zipf { n_buckets: 256, s: 1.1 },
            42,
            LoadMode::Closed { clients, lookups_per_client },
        );
        updater.join().expect("churn thread");
        report
    });

    println!("\n== load report ({} closed-loop clients) ==", clients);
    println!("{}", report.summary());
    println!("client-observed {}", MetricsSnapshot::latency_line(&report.latency_ns));
    println!("\n== server accounting ==");
    let stats = server.stats();
    println!("{}", stats.summary());
    println!("server-side   {}", MetricsSnapshot::latency_line(&stats.latency_ns));
    let per_replica = server.replica_stats();
    let replicas = server.replicas_per_shard();
    print!("per replica (served):");
    for (i, s) in per_replica.iter().enumerate() {
        print!(" s{}r{}={}", i / replicas, i % replicas, s.served);
    }
    println!();

    // Quiesce: every update applied and published; lookups now must equal
    // the single-threaded oracle exactly (the integration test
    // `tests/serve_oracle.rs` checks the same invariant harder).
    server.quiesce();
    let handle = server.handle();
    let mut checked = 0u32;
    for q in (0..key_space + 64).step_by(97) {
        let got = handle.lookup(q).expect("serving");
        let want = oracle.range(..=q).count() as u32;
        assert_eq!(got, want, "rank({q}) diverged from oracle");
        checked += 1;
    }
    println!("\noracle check: {checked} ranks match the single-threaded BTreeSet replay ✓");
    println!("live keys: {} (oracle {})", server.len(), oracle.len());

    // Opt-in: the same closed-loop load, but every lookup crosses a real
    // TCP socket through dini-net's RemoteClient (client-side coalescing
    // packs concurrent callers' keys into Lookup frames, each ranked by
    // the server's connection reader as one batch per shard).
    if std::env::var_os("DINI_DEMO_TCP").is_some_and(|v| v != "0" && !v.is_empty()) {
        drop(server); // free the cores; the TCP run builds its own stack
        tcp_comparison(&keys, clients, lookups_per_client);
    }
}

/// Closed-loop Zipf clients over a `RemoteClient`, reported in the same
/// shape (and summary line) as the in-process `run_load` above.
fn tcp_comparison(keys: &[u32], clients: usize, lookups_per_client: usize) {
    let shards =
        std::thread::available_parallelism().map(|n| (n.get() / 2).clamp(2, 4)).unwrap_or(2);
    let mut cfg = ServeConfig::new(shards);
    cfg.replicas_per_shard = 2;

    let acceptor = TcpAcceptorT::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.addr();
    let net_server = NetServer::start(
        Box::new(acceptor),
        keys,
        NetServerConfig::new(cfg, Topology::single(vec![addr.clone()]), 0),
    );
    let client = RemoteClient::connect(Box::new(TcpDialer), &addr, ClientConfig::default())
        .expect("connect over TCP loopback");
    let handle = client.handle();

    let report = run_net_load(
        &handle,
        KeyDistribution::Zipf { n_buckets: 256, s: 1.1 },
        42,
        clients,
        lookups_per_client,
    );

    println!("\n== load report ({clients} closed-loop clients, TCP loopback) ==");
    println!("{}", report.summary());
    println!("client-observed {}", MetricsSnapshot::latency_line(&report.latency_ns));
    println!("(compare with the in-process line above: same load, plus the wire)");

    // Spot-check: remote ranks equal the local index.
    let mut checked = 0u32;
    for q in (0..keys.len() as u32 * 16).step_by(997) {
        let want = keys.partition_point(|&k| k <= q) as u32;
        assert_eq!(handle.lookup(q), Ok(want), "TCP rank({q}) diverged");
        checked += 1;
    }
    println!("tcp oracle check: {checked} ranks match the local index ✓");
    drop(handle);
    drop(client);
    net_server.shutdown();
}
