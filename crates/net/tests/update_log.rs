//! The replicated churn log's failure contract, pinned at the client
//! boundary:
//!
//! * `update()` returning `Ok` means the record is quorum-acked and
//!   applied — a dropped `Update` frame delays the `Ok` (the appender
//!   repairs by resending the unacked suffix), it never produces a
//!   silent `Ok`-but-lost. With every endpoint gone, `update()` errors.
//! * `ctrl_roundtrip`'s timeout-retry fills its waiter exactly once:
//!   a late first ack plus the retry's ack is one resolution, duplicate
//!   and stray acks (including byzantine sequence numbers) are dropped
//!   on the floor.

use dini_cluster::LinkPlan;
use dini_net::transport::ChanNet;
use dini_net::wire::SpanMsg;
use dini_net::{Acceptor, ClientConfig, Frame, NetServer, NetServerConfig, RemoteClient, Topology};
use dini_serve::{Clock, ServeConfig, ServeError, SimClock};
use dini_workload::Op;
use std::time::Duration;

const MS: u64 = 1_000_000;

/// Satellite: the control-plane timeout-retry path. A hand-scripted
/// server withholds the first `QuiesceAck` until the client's
/// per-attempt `ctrl_timeout` forces a retry (same request id), then
/// answers *both* attempts and salts the stream with a stray
/// `UpdateAck { req: 0 }` and a byzantine ack whose sequence is far
/// past anything appended. The waiter must resolve exactly once, the
/// strays must be dropped, and the client must stay fully functional
/// afterwards (the churn-log appender in particular must survive the
/// byzantine sequence number).
#[test]
fn ctrl_retry_fills_waiter_once_and_strays_are_dropped() {
    let net = ChanNet::new(Clock::system());
    let acceptor = net.listen("srv");

    let server = std::thread::spawn(move || {
        // Connection 1: the bootstrap handshake.
        let mut boot = acceptor.accept_timeout(Duration::from_secs(5)).expect("bootstrap dial");
        match boot.rx.recv_timeout(Duration::from_secs(5)).expect("hello") {
            Frame::Hello { .. } => {}
            other => panic!("expected Hello, got {other:?}"),
        }
        boot.tx
            .send(&Frame::ShardMap {
                spans: vec![SpanMsg { lo_key: 0, endpoints: vec!["srv".to_owned()] }],
                my_span: 0,
                live_keys: 0,
                log_epoch: 0,
                log_seq: 0,
            })
            .expect("shard map");

        // Connection 2: the endpoint the client actually talks to.
        let mut conn = acceptor.accept_timeout(Duration::from_secs(5)).expect("endpoint dial");
        let mut applied = 0u64;
        let mut quiesce_done = false;
        // A recv error means the client hung up: the script is over.
        while let Ok(frame) = conn.rx.recv_timeout(Duration::from_secs(5)) {
            match frame {
                Frame::EpochPing { req } => {
                    let live_keys = if quiesce_done { 7 } else { 0 };
                    conn.tx.send(&Frame::EpochPong { req, live_keys, snapshots: 0 }).expect("pong");
                }
                Frame::Update { req, epoch, seq, ops, .. } => {
                    if seq == applied + 1 {
                        applied += ops.len() as u64;
                    }
                    if req != 0 {
                        conn.tx
                            .send(&Frame::UpdateAck { req, epoch, seq: applied })
                            .expect("update ack");
                    }
                }
                Frame::Quiesce { req } => {
                    assert!(!quiesce_done, "the barrier must not run twice");
                    // Withhold the ack: the next frame must be the
                    // client retrying the *same* request id after its
                    // per-attempt ctrl_timeout expired.
                    match conn.rx.recv_timeout(Duration::from_secs(5)).expect("retry") {
                        Frame::Quiesce { req: retry } => {
                            assert_eq!(retry, req, "a ctrl retry must reuse its request id")
                        }
                        other => panic!("expected the Quiesce retry, got {other:?}"),
                    }
                    // Strays first: a req-0 ack (guarded) and a
                    // byzantine sequence far past the log head (the
                    // appender must clamp, not corrupt its trim).
                    conn.tx.send(&Frame::UpdateAck { req: 0, epoch: 1, seq: 0 }).expect("stray");
                    conn.tx
                        .send(&Frame::UpdateAck { req: 7_777, epoch: 1, seq: 999 })
                        .expect("byzantine stray");
                    // Now both attempts' acks: late first + retry's.
                    // One waiter, so exactly one may land.
                    for _ in 0..2 {
                        conn.tx
                            .send(&Frame::QuiesceAck { req, live_keys: 7, snapshots: 1 })
                            .expect("quiesce ack");
                    }
                    quiesce_done = true;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        applied
    });

    let cfg = ClientConfig {
        ctrl_timeout: Duration::from_millis(100),
        handshake_timeout: Duration::from_secs(2),
        max_retries: 4,
        ..ClientConfig::default()
    };
    let client = RemoteClient::connect(net.dialer(), "srv", cfg).expect("connect");

    // The barrier resolves Ok despite the withheld first ack, and the
    // (single) fill carried the ack's live-key payload.
    client.quiesce().expect("quiesce must survive a timeout-retry");
    let handle = client.handle();
    assert_eq!(handle.live_keys(), 7, "the quiesce ack's live count must land");

    // The appender survived the stray and byzantine acks: a real append
    // still quorum-acks, and a refresh still round-trips.
    client.update(Op::Insert(42)).expect("append after the stray acks");
    handle.refresh().expect("refresh after the stray acks");

    drop(handle);
    drop(client);
    let applied = server.join().expect("scripted server");
    assert_eq!(applied, 1, "exactly the one real append must have applied");
}

fn sim_serve_cfg(clock: &Clock) -> ServeConfig {
    let mut serve = ServeConfig::new(2);
    serve.max_batch = 64;
    serve.clock = clock.clone();
    serve
}

fn sim_client_cfg(clock: &Clock) -> ClientConfig {
    ClientConfig {
        clock: clock.clone(),
        max_batch: 64,
        retry_timeout: Duration::from_millis(4),
        max_retries: 50,
        ctrl_timeout: Duration::from_millis(20),
        handshake_timeout: Duration::from_millis(20),
        ..ClientConfig::default()
    }
}

/// Satellite (the regression the tentpole exists for): a blackout
/// window swallows the first `Update` frame to one replica. The old
/// fire-and-forget broadcast returned `Ok` and silently diverged; the
/// churn log must instead hold the `Ok` until the appender's repair
/// resends the suffix and a quorum (here: both endpoints) has acked —
/// acked *and applied*, never silently lost.
#[test]
fn update_is_not_ok_until_quorum_applied_despite_dropped_frames() {
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let net = ChanNet::new(clock.clone());

    let keys: Vec<u32> = (0..1_000u32).map(|i| i * 4).collect();
    let topology = Topology::single(vec!["a".to_owned(), "b".to_owned()]);
    let latency = 50_000u64; // 50 µs one way
                             // Endpoint a goes dark for frames sent in [20ms, 80ms) — long
                             // enough to swallow the first sends and several repair attempts,
                             // short enough that the appender's retry budget (50 × 4ms) never
                             // declares it dead.
    net.set_link_plan(
        "a",
        LinkPlan::reliable().with_latency_ns(latency).blackout_ns(20 * MS, 80 * MS),
    );
    net.set_link_plan("b", LinkPlan::reliable().with_latency_ns(latency));

    let servers: Vec<NetServer> = ["a", "b"]
        .iter()
        .map(|addr| {
            NetServer::start(
                Box::new(net.listen(addr)),
                &keys,
                NetServerConfig::new(sim_serve_cfg(&clock), topology.clone(), 0),
            )
        })
        .collect();

    let client = RemoteClient::connect(net.dialer(), "a", sim_client_cfg(&clock)).expect("connect");
    let handle = client.handle();

    // Step into the blackout, then append: the first Update frame to a
    // is dropped, so an immediate Ok would be the old silent-divergence
    // bug. The call must block until the repair path lands it on both.
    clock.sleep(Duration::from_millis(30));
    let mut mirror: std::collections::BTreeSet<u32> = keys.iter().copied().collect();
    for i in 0..20u32 {
        let k = 2_001 + i * 2;
        client.update(Op::Insert(k)).expect("append during the blackout");
        mirror.insert(k);
    }
    assert!(
        sim.now() >= 80 * MS,
        "updates appended mid-blackout must not resolve before the window heals \
         (resolved at {} ns)",
        sim.now()
    );
    client.quiesce().expect("post-heal barrier");

    // Applied everywhere, not just quorum-acked somewhere: both server
    // processes hold the full mirror, and wire ranks agree with it.
    for (name, srv) in ["a", "b"].iter().zip(&servers) {
        assert_eq!(srv.server().len(), mirror.len(), "replica {name} must converge to the mirror");
    }
    for q in (0..4_200u32).step_by(97) {
        let expect = mirror.range(..=q).count() as u32;
        assert_eq!(handle.lookup(q), Ok(expect), "post-heal rank({q})");
    }

    let stats = client.stats();
    assert!(
        stats.update_resends >= 1,
        "the blackout must have forced at least one suffix resend, got {}",
        stats.update_resends
    );
    assert_eq!(stats.elections, 0, "nobody died; the epoch must not move");

    drop(handle);
    drop(client);
    for s in servers {
        s.shutdown();
    }
}

/// With every endpoint of the span gone, `update()` must surface an
/// error once the retry budget is spent — the "never silently lost"
/// half: the op is either acked-and-applied or reported failed.
#[test]
fn update_errors_once_the_whole_span_is_gone() {
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let net = ChanNet::new(clock.clone());

    let keys: Vec<u32> = (0..500u32).map(|i| i * 3).collect();
    let topology = Topology::single(vec!["solo".to_owned()]);
    net.set_link_plan("solo", LinkPlan::reliable().with_latency_ns(50_000).down_at(10 * MS));

    let server = NetServer::start(
        Box::new(net.listen("solo")),
        &keys,
        NetServerConfig::new(sim_serve_cfg(&clock), topology.clone(), 0),
    );

    let mut cfg = sim_client_cfg(&clock);
    cfg.retry_timeout = Duration::from_millis(2);
    cfg.max_retries = 3;
    let client = RemoteClient::connect(net.dialer(), "solo", cfg).expect("connect");

    // Past the severance instant every frame (and every ack) is gone.
    clock.sleep(Duration::from_millis(15));
    assert_eq!(
        client.update(Op::Insert(9_999)),
        Err(ServeError::ShuttingDown),
        "an unackable append must error, not hang and not claim success"
    );
    assert!(client.stats().elections >= 1, "the endpoint's death must have bumped the epoch");

    drop(client);
    server.shutdown();
}
