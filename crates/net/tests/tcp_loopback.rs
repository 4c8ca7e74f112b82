//! End-to-end integration over real TCP loopback: `NetServer` processes
//! (in-process here, separate processes in `examples/net_demo.rs`)
//! serving a `RemoteClient` — exact answers under mixed Zipf + churn,
//! cross-span rank composition, and live failover between replica
//! endpoints when a server goes away.

use dini_net::transport::{TcpAcceptorT, TcpDialer};
use dini_net::{Acceptor, ClientConfig, NetServer, NetServerConfig, RemoteClient, Span, Topology};
use dini_obs::{stitch, MetricsSnapshot};
use dini_serve::{ServeConfig, ServeError, ServeStats, TraceConfig};
use dini_workload::{ChurnGen, KeyDistribution, Op, OpMix};
use std::collections::BTreeSet;
use std::time::Duration;

fn serve_cfg(shards: usize) -> ServeConfig {
    ServeConfig::new(shards)
}

/// Every replica's depth gauge in a polled snapshot.
fn depths(snap: &MetricsSnapshot) -> Vec<u64> {
    snap.series("dini_serve_queue_depth").map(|(_, d)| d).collect()
}

/// Bind first so the topology can carry the real ephemeral address.
fn bound_acceptor() -> (TcpAcceptorT, String) {
    let acceptor = TcpAcceptorT::bind("127.0.0.1:0").expect("bind loopback");
    let addr = acceptor.addr();
    (acceptor, addr)
}

#[test]
fn single_server_mixed_churn_matches_btreeset_oracle() {
    let keys: Vec<u32> = (0..40_000u32).map(|i| i * 8 + 1).collect();
    let key_space = 40_000u32 * 8 + 16;
    let (acceptor, addr) = bound_acceptor();
    let server = NetServer::start(
        Box::new(acceptor),
        &keys,
        NetServerConfig::new(serve_cfg(3), Topology::single(vec![addr.clone()]), 0),
    );

    let client = RemoteClient::connect(Box::new(TcpDialer), &addr, ClientConfig::default())
        .expect("connect");
    let handle = client.handle();

    // Interleave Zipf lookups with a deterministic churn stream mirrored
    // into a BTreeSet.
    let mut oracle: BTreeSet<u32> = keys.iter().copied().collect();
    let mut churn = ChurnGen::new(
        11,
        KeyDistribution::Clustered { lo: 0, hi: key_space },
        OpMix::write_heavy(),
    );
    for _ in 0..3_000 {
        let op = churn.next_op();
        match op {
            Op::Insert(k) => {
                oracle.insert(k);
            }
            Op::Delete(k) => {
                oracle.remove(&k);
            }
            Op::Query(_) => {}
        }
        client.update(op).expect("server alive");
    }
    client.quiesce().expect("quiesce over the wire");

    // Exact sweep: remote ranks equal the single-threaded mirror.
    for q in (0..key_space + 64).step_by(311) {
        let want = oracle.range(..=q).count() as u32;
        assert_eq!(handle.lookup(q), Ok(want), "rank({q}) over TCP diverged from the oracle");
    }
    assert_eq!(handle.live_keys(), oracle.len() as u64, "quiesce refreshed the live count");

    let stats = client.stats();
    assert_eq!(stats.client_shed, 0, "closed-loop traffic must not shed");
    drop(handle);
    drop(client);
    server.shutdown();
}

#[test]
fn lookup_many_coalesces_into_few_wire_batches() {
    let keys: Vec<u32> = (0..10_000u32).map(|i| i * 2).collect();
    let (acceptor, addr) = bound_acceptor();
    let server = NetServer::start(
        Box::new(acceptor),
        &keys,
        NetServerConfig::new(serve_cfg(2), Topology::single(vec![addr.clone()]), 0),
    );
    let client = RemoteClient::connect(Box::new(TcpDialer), &addr, ClientConfig::default())
        .expect("connect");
    let queries: Vec<u32> = (0..512u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let got = client.lookup_many(&queries).expect("batch lookup");
    for (q, rank) in queries.iter().zip(&got) {
        assert_eq!(*rank, keys.partition_point(|&k| k <= *q) as u32, "rank({q})");
    }
    // 512 keys submitted before any wait: client-side coalescing must
    // pack them into far fewer server batches than keys.
    let server_stats = server.server().stats();
    assert_eq!(server_stats.served, 512);
    assert!(
        server_stats.batches < 256,
        "coalescing failed: {} server batches for 512 keys",
        server_stats.batches
    );
    drop(client);
    server.shutdown();
}

#[test]
fn two_spans_compose_global_ranks_across_processes() {
    // Global key set split across two server processes at key 500_000.
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 20 + 5).collect();
    let split_at = 500_000u32;

    let (acc_lo, addr_lo) = bound_acceptor();
    let (acc_hi, addr_hi) = bound_acceptor();
    let topology = Topology {
        spans: vec![
            Span { lo_key: 0, endpoints: vec![addr_lo.clone()] },
            Span { lo_key: split_at, endpoints: vec![addr_hi] },
        ],
    };
    let parts = topology.split(&keys);
    assert!(!parts[0].is_empty() && !parts[1].is_empty(), "both spans populated");
    let lo = NetServer::start(
        Box::new(acc_lo),
        parts[0],
        NetServerConfig::new(serve_cfg(2), topology.clone(), 0),
    );
    let hi = NetServer::start(
        Box::new(acc_hi),
        parts[1],
        NetServerConfig::new(serve_cfg(2), topology.clone(), 1),
    );

    let client = RemoteClient::connect(Box::new(TcpDialer), &addr_lo, ClientConfig::default())
        .expect("connect via the lo-span bootstrap");
    let handle = client.handle();
    assert_eq!(handle.n_spans(), 2);

    // Static sweep: global ranks must compose across the two processes.
    for q in (0..1_100_000u32).step_by(7_919) {
        let want = keys.partition_point(|&k| k <= q) as u32;
        assert_eq!(handle.lookup(q), Ok(want), "global rank({q}) across two processes");
    }

    // Churn the *lower* span: ranks in the upper span must shift by the
    // applied inserts once quiesce refreshes the base ranks.
    let before = handle.lookup(u32::MAX).unwrap();
    for i in 0..200u32 {
        client.update(Op::Insert(i * 20 + 6)).expect("insert below the split");
    }
    client.quiesce().expect("quiesce both spans");
    assert_eq!(
        handle.lookup(u32::MAX),
        Ok(before + 200),
        "epoch-consistent base ranks: lower-span churn shifts upper-span ranks"
    );

    drop(handle);
    drop(client);
    lo.shutdown();
    hi.shutdown();
}

#[test]
fn live_stats_poll_agrees_with_client_accounting() {
    let keys: Vec<u32> = (0..30_000u32).map(|i| i * 4).collect();
    let (acceptor, addr) = bound_acceptor();
    let mut serve = serve_cfg(2);
    serve.replicas_per_shard = 2;
    let server = NetServer::start(
        Box::new(acceptor),
        &keys,
        NetServerConfig::new(serve, Topology::single(vec![addr.clone()]), 0),
    );
    let client = RemoteClient::connect(Box::new(TcpDialer), &addr, ClientConfig::default())
        .expect("connect");
    let handle = client.handle();

    // Load threads hammer lookups while the main thread polls stats
    // mid-flight: every poll must decode, report sane depths, and show
    // a monotonically growing served count.
    let issued = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let loaders: Vec<_> = (0..3)
        .map(|t| {
            let h = handle.clone();
            let issued = issued.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let q = (i * 3 + t).wrapping_mul(2_654_435_761) % 200_000;
                    h.lookup(q).expect("server alive");
                    issued.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    let mut last_served = 0u64;
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(30));
        let snap = handle.span_stats(0).expect("mid-load stats poll");
        let s = ServeStats::from(&snap);
        assert!(s.served >= last_served, "served must be monotonic");
        last_served = s.served;
        assert_eq!(snap.sum("dini_serve_live_keys"), 30_000);
        let depths: Vec<u64> = depths(&snap);
        assert_eq!(depths.len(), 4, "2 shards × 2 replicas");
        assert!(depths.iter().all(|&d| d <= 1024), "depth within queue capacity, got {depths:?}");
    }
    assert!(last_served > 0, "polled stats must show live traffic");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for l in loaders {
        l.join().unwrap();
    }

    // Quiesced: the final wire-polled numbers agree with the client's
    // own accounting and the server's in-process view.
    let total_issued = issued.load(std::sync::atomic::Ordering::Relaxed);
    let snap = handle.span_stats(0).expect("final stats poll");
    let s = ServeStats::from(&snap);
    assert_eq!(s.served, total_issued, "wire-polled served == client-issued lookups");
    assert_eq!(s.served, server.server().stats().served, "wire == in-process view");
    assert_eq!(s.shed, 0, "closed-loop traffic must not shed");
    // Depth is released *after* replies go out, so give the last batch
    // a beat to drain before pinning the queues empty.
    let mut drained = depths(&snap).iter().all(|&d| d == 0);
    for _ in 0..50 {
        if drained {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        let snap = handle.span_stats(0).expect("drain poll");
        drained = depths(&snap).iter().all(|&d| d == 0);
    }
    assert!(drained, "queues must drain once load stops");

    // The client saw its own wire round trips too.
    let rtt = handle.wire_rtt();
    assert!(rtt.count() > 0, "wire RTT histogram must have samples");
    for t in handle.wire_traces() {
        assert!(t.acked_ns >= t.encoded_ns, "wire stages must be ordered");
    }

    drop(handle);
    drop(client);
    server.shutdown();
}

#[test]
fn dense_tracing_stitches_monotone_timelines_over_tcp() {
    // The causal-tracing story over a real kernel socket: every frame
    // traced on both sides, then the client's wire records and the
    // server's stage records stitched on the shared trace id. Both
    // processes live here, so `Clock::system()`'s process-wide anchor
    // makes the two record sets directly comparable, and each timeline
    // must be monotone — encoded before admitted, answered before acked
    // — with real wire time in between.
    let keys: Vec<u32> = (0..20_000u32).map(|i| i * 4).collect();
    let (acceptor, addr) = bound_acceptor();
    let dense = TraceConfig { capacity: 4096, sample_period: 1, seed: 0x5EED };
    let mut serve = serve_cfg(2);
    serve.trace = dense.clone();
    let server = NetServer::start(
        Box::new(acceptor),
        &keys,
        NetServerConfig::new(serve, Topology::single(vec![addr.clone()]), 0),
    );
    let cfg = ClientConfig { trace: dense, ..ClientConfig::default() };
    let client = RemoteClient::connect(Box::new(TcpDialer), &addr, cfg).expect("connect");
    let handle = client.handle();

    for i in 0..400u32 {
        let q = i.wrapping_mul(2_654_435_761) % 100_000;
        let want = keys.partition_point(|&k| k <= q) as u32;
        assert_eq!(handle.lookup(q), Ok(want), "rank({q}) over TCP");
    }

    let client_recs = handle.wire_traces();
    let server_recs = server.server().stage_traces();
    let timelines = stitch(&client_recs, &server_recs);
    assert!(
        !timelines.is_empty(),
        "dense tracing over TCP stitched no timeline ({} client wire records, {} server \
         stage records)",
        client_recs.len(),
        server_recs.len()
    );
    for t in &timelines {
        assert!(
            t.monotone(),
            "stitched TCP timeline for trace {:#x} is not monotone: {t:?}",
            t.trace
        );
        assert!(t.total_ns() > 0, "a TCP round trip takes nonzero wall time");
    }

    drop(handle);
    drop(client);
    server.shutdown();
}

#[test]
fn endpoint_shutdown_fails_over_to_replica_endpoint() {
    let keys: Vec<u32> = (0..20_000u32).map(|i| i * 4).collect();
    let (acc_a, addr_a) = bound_acceptor();
    let (acc_b, addr_b) = bound_acceptor();
    let topology = Topology::single(vec![addr_a.clone(), addr_b]);
    // Two independent full replicas of the same span.
    let a = NetServer::start(
        Box::new(acc_a),
        &keys,
        NetServerConfig::new(serve_cfg(2), topology.clone(), 0),
    );
    let b = NetServer::start(
        Box::new(acc_b),
        &keys,
        NetServerConfig::new(serve_cfg(2), topology.clone(), 0),
    );

    let cfg = ClientConfig { retry_timeout: Duration::from_millis(250), ..ClientConfig::default() };
    let client = RemoteClient::connect(Box::new(TcpDialer), &addr_a, cfg).expect("connect");
    let handle = client.handle();

    let check = |n: u32, label: &str| {
        for i in 0..n {
            let q = i.wrapping_mul(747_796_405) % 100_000;
            let want = keys.partition_point(|&k| k <= q) as u32;
            assert_eq!(handle.lookup(q), Ok(want), "{label}: rank({q})");
        }
    };
    check(200, "both endpoints up");

    // Kill endpoint A mid-service: the client must notice (shutdown
    // notice or closed socket), re-home anything in flight, and keep
    // answering through B — degraded capacity, not errors.
    a.shutdown();
    check(300, "after endpoint A shut down");
    assert!(handle.span_alive(0), "the span survives endpoint A through replica B");

    // Server-side: B actually served traffic.
    assert!(b.server().stats().served > 0, "replica endpoint B must have served lookups");

    // Kill B too: now the span is gone and callers see ShuttingDown,
    // exactly the local-caller semantics.
    b.shutdown();
    let mut saw_shutdown = false;
    for i in 0..50u32 {
        if handle.lookup(i * 13) == Err(ServeError::ShuttingDown) {
            saw_shutdown = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_shutdown, "with every endpoint gone the client must surface ShuttingDown");
}
