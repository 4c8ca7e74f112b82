//! The client's thread topology, pinned from the outside: a connected
//! `RemoteClient` runs one worker per endpoint (plus that endpoint's
//! per-connection reader) and nothing per span — the churn log ships
//! through the endpoint workers. The servers' side too: a connection is
//! one thread, its reader, which answers every frame itself. Read from `/proc/self/task/*/comm`, so
//! Linux only; one test in its own file (its own process), so no other
//! test's client is alive while the threads are counted.

#![cfg(target_os = "linux")]

use dini_net::transport::ChanNet;
use dini_net::{ClientConfig, NetServer, NetServerConfig, RemoteClient, Span, Topology};
use dini_serve::{Clock, Op, ServeConfig};
use std::time::{Duration, Instant};

/// Threads of this process whose name starts with `prefix`. `comm` holds
/// at most 15 bytes of the name, so prefixes must be no longer.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Wait up to 10 s for `census` to read `want`, then return what it
/// reads. A thread names itself once it runs, and one that is exiting
/// may still be listed, so a census settles rather than holds at once.
fn settled<const N: usize>(census: impl Fn() -> [usize; N], want: [usize; N]) -> [usize; N] {
    let start = Instant::now();
    while census() != want && start.elapsed() < Duration::from_secs(10) {
        std::thread::yield_now();
    }
    census()
}

#[test]
fn a_client_is_one_worker_and_one_reader_per_endpoint() {
    // workers, readers, per-span threads (none expected), all client threads
    let census = || {
        [
            threads_named("dini-net-cw-"),
            threads_named("dini-net-cr-"),
            threads_named("dini-net-ua-"),
            threads_named("dini-net-c"),
        ]
    };
    // connection readers and responders (none expected) across the servers
    let server_census = || [threads_named("dini-net-read-"), threads_named("dini-net-send-")];
    let net = ChanNet::new(Clock::system());
    let keys: Vec<u32> = (0..20_000u32).map(|i| i * 10).collect();
    // Two spans of two and three replica endpoints: five endpoints.
    let topology = Topology {
        spans: vec![
            Span { lo_key: 0, endpoints: vec!["a0".into(), "a1".into()] },
            Span { lo_key: 100_000, endpoints: vec!["b0".into(), "b1".into(), "b2".into()] },
        ],
    };
    let parts = topology.split(&keys);
    let servers: Vec<NetServer> = topology
        .spans
        .iter()
        .enumerate()
        .flat_map(|(span, s)| s.endpoints.iter().map(move |addr| (span, addr.clone())))
        .map(|(span, addr)| {
            let cfg = NetServerConfig::new(ServeConfig::new(1), topology.clone(), span);
            NetServer::start(Box::new(net.listen(&addr)), parts[span], cfg)
        })
        .collect();
    assert_eq!(census(), [0, 0, 0, 0], "no client yet");
    assert_eq!(server_census(), [0, 0], "no connection yet");

    let client =
        RemoteClient::connect(net.dialer(), "a0", ClientConfig::default()).expect("connect");
    // Updates to both spans go out and come back through the workers.
    client.update(Op::Insert(5)).unwrap();
    client.update(Op::Insert(100_005)).unwrap();
    client.quiesce().unwrap();
    assert_eq!(client.lookup(u32::MAX), Ok(20_002));
    // Connect waited for no thread to name itself.
    assert_eq!(
        settled(census, [5, 5, 0, 10]),
        [5, 5, 0, 10],
        "5 endpoints: 5 workers, 5 readers, no span thread"
    );
    // The bootstrap connection's reader exits once the client hangs it
    // up, leaving one connection per server.
    assert_eq!(
        settled(server_census, [5, 0]),
        [5, 0],
        "5 servers, one client connection each: one reader per connection and no responder"
    );

    drop(client);
    assert_eq!(census(), [0, 0, 0, 0], "dropping the client joins every thread it owned");
    assert_eq!(settled(server_census, [0, 0]), [0, 0], "a hung-up connection's reader exits");
    for s in servers {
        s.shutdown();
    }
}
