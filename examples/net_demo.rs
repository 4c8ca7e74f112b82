//! Two-process TCP-loopback demo: the paper's cluster, literally.
//!
//! The parent process re-executes itself with `--server`: the child
//! builds a `NetServer` hosting every shard (replica groups, writer,
//! admission — the whole `dini-serve` stack) on an ephemeral loopback
//! port and prints the address; the parent connects a `RemoteClient`,
//! drives mixed Zipf lookups *while* streaming a churn workload over
//! the wire, prints p50/p99/p999, and then checks every probed rank
//! against a single-threaded `BTreeSet` replay of the same churn —
//! answers crossing two processes must be identical to the oracle.
//!
//! ```text
//! cargo run --release --example net_demo          # full run
//! DINI_NET_DEMO_SMOKE=1 cargo run --release --example net_demo   # CI smoke
//! ```

use dini::net::transport::{TcpAcceptorT, TcpDialer};
use dini::net::{run_net_load, Acceptor, ClientConfig, NetServerConfig, Topology};
use dini::obs::MetricsSnapshot;
use dini::serve::ServeConfig;
use dini::workload::{ChurnGen, KeyDistribution, Op, OpMix};
use dini::{NetServer, RemoteClient};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};

fn smoke() -> bool {
    std::env::var_os("DINI_NET_DEMO_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Both processes derive the identical initial key set.
fn initial_keys() -> (Vec<u32>, u32) {
    let n_keys: usize = if smoke() { 20_000 } else { 200_000 };
    let keys: Vec<u32> = (0..n_keys as u32).map(|i| i * 16 + 3).collect();
    let key_space = n_keys as u32 * 16 + 16;
    (keys, key_space)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--server") {
        server_process();
    } else {
        client_process();
    }
}

/// The child: one `NetServer` hosting all shards, alive until the
/// parent hangs up its stdin pipe.
fn server_process() {
    let (keys, _) = initial_keys();
    let shards =
        std::thread::available_parallelism().map(|n| (n.get() / 2).clamp(2, 4)).unwrap_or(2);
    let mut cfg = ServeConfig::new(shards);
    cfg.replicas_per_shard = 2;
    cfg.max_batch = 256;
    cfg.merge_threshold = 2048;

    let acceptor = TcpAcceptorT::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.addr();
    let server = NetServer::start(
        Box::new(acceptor),
        &keys,
        NetServerConfig::new(cfg, Topology::single(vec![addr.clone()]), 0),
    );
    // Handshake with the parent: print the ephemeral address.
    println!("LISTEN {addr}");
    std::io::stdout().flush().expect("flush addr");

    // Serve until the parent closes our stdin (its exit does this too,
    // so an aborted parent can't leak a server process).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    eprintln!("[server] parent hung up; {} — shutting down", server.server().stats().summary());
    server.shutdown();
}

/// The parent: RemoteClient over the wire, mixed Zipf + churn, oracle.
fn client_process() {
    let (keys, key_space) = initial_keys();
    let (clients, lookups_per_client, churn_n) =
        if smoke() { (2, 2_000, 4_000) } else { (8, 25_000, 60_000) };

    // Spawn the server process (this same binary).
    let exe = std::env::current_exe().expect("own path");
    let mut child = std::process::Command::new(exe)
        .arg("--server")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn server process");
    let addr = {
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read LISTEN line");
        line.trim().strip_prefix("LISTEN ").expect("LISTEN prefix").to_owned()
    };
    println!("server process {} listening on {addr}", child.id());

    let client = RemoteClient::connect(Box::new(TcpDialer), &addr, ClientConfig::default())
        .expect("connect to server process");
    let handle = client.handle();

    // Deterministic churn stream, mirrored into the oracle.
    let mut oracle: BTreeSet<u32> = keys.iter().copied().collect();
    let churn_ops: Vec<Op> =
        ChurnGen::new(7, KeyDistribution::Clustered { lo: 0, hi: key_space }, OpMix::write_heavy())
            .take(churn_n);
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

    // Churn rides the wire concurrently with the Zipf read load.
    let report = std::thread::scope(|scope| {
        let churn_handle = client.handle();
        let updater = scope.spawn(move || {
            for op in &churn_ops {
                churn_handle.update(*op).expect("server process alive");
            }
        });
        let report = run_net_load(
            &handle,
            KeyDistribution::Zipf { n_buckets: 256, s: 1.1 },
            42,
            clients,
            lookups_per_client,
        );
        updater.join().expect("churn thread");
        report
    });

    println!("\n== two-process load report ({clients} closed-loop clients over TCP) ==");
    println!("{}", report.summary());
    println!("client-observed {}", MetricsSnapshot::latency_line(&report.latency_ns));
    println!("wire RTT per batch: {}", MetricsSnapshot::latency_line(&handle.wire_rtt()));
    let stats = client.stats();
    println!(
        "client accounting: {} admitted, {} shed, {} retries, {} rerouted",
        stats.admitted, stats.client_shed, stats.retries, stats.rerouted
    );

    // Quiesce across the wire, then the acceptance check: ranks served
    // by the other process equal the single-threaded BTreeSet replay.
    client.quiesce().expect("quiesce over the wire");
    let mut checked = 0u32;
    for q in (0..key_space + 64).step_by(97) {
        let got = handle.lookup(q).expect("serving");
        let want = oracle.range(..=q).count() as u32;
        assert_eq!(got, want, "rank({q}) across processes diverged from oracle");
        checked += 1;
    }
    println!("\noracle check: {checked} cross-process ranks match the BTreeSet replay ✓");
    println!("live keys: {} (oracle {})", handle.live_keys(), oracle.len());

    drop(handle);
    drop(client);
    // Closing the child's stdin asks it to shut down cleanly.
    drop(child.stdin.take());
    let status = child.wait().expect("server process exit");
    assert!(status.success(), "server process must exit cleanly, got {status}");
    println!("server process exited cleanly ✓");
}
