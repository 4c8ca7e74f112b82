//! The replicated churn log's failure contract, pinned at the client
//! boundary:
//!
//! * `update()` returning `Ok` means the record is quorum-acked and
//!   applied — a dropped `Update` frame delays the `Ok` (the endpoint's
//!   worker repairs by resending the unacked suffix), it never produces a
//!   silent `Ok`-but-lost. With every endpoint gone, `update()` errors.
//! * A replica whose socket write is stuck holds up only its own worker:
//!   the span's other endpoints still form the quorum.
//! * Shutdown answers every pending update `ShuttingDown`, and refuses
//!   appends and barriers from handles that outlive the client.
//! * `ctrl_roundtrip`'s timeout-retry fills its waiter exactly once:
//!   a late first ack plus the retry's ack is one resolution, duplicate
//!   and stray acks (including byzantine sequence numbers) are dropped
//!   on the floor.

use dini_cluster::{Fault, FaultSchedule};
use dini_net::transport::{ChanNet, TrySend};
use dini_net::wire::SpanMsg;
use dini_net::{
    Acceptor, ClientConfig, Dialer, Duplex, Frame, FrameTx, NetError, NetServer, NetServerConfig,
    RemoteClient, Topology,
};
use dini_serve::{Clock, ServeConfig, ServeError, SimClock};
use dini_workload::Op;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const MS: u64 = 1_000_000;

/// Satellite: the control-plane timeout-retry path. A hand-scripted
/// server withholds the first `QuiesceAck` until the client's
/// per-attempt `ctrl_timeout` forces a retry (same request id), then
/// answers *both* attempts and salts the stream with a stray
/// `UpdateAck { req: 0 }` and a byzantine ack whose sequence is far
/// past anything appended. The waiter must resolve exactly once, the
/// strays must be dropped, and the client must stay fully functional
/// afterwards (the span's churn log in particular must survive the
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
                    // log must clamp, not corrupt its trim).
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

    // The log survived the stray and byzantine acks: a real append
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
/// churn log must instead hold the `Ok` until the worker's repair
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
    // 50 µs one way. Endpoint a goes dark for frames sent in
    // [20ms, 80ms) — long enough to swallow the first sends and several
    // repair attempts, short enough that the worker's retry budget
    // (50 × 4ms) never declares it dead.
    let (from, until) = (Duration::from_millis(20), Duration::from_millis(80));
    let schedule = FaultSchedule {
        latency: Duration::from_micros(50),
        events: vec![Fault::Partition { endpoint: 0, from, until }],
        ..FaultSchedule::default()
    };
    net.set_link("a", schedule.link(0));
    net.set_link("b", schedule.link(1));

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
    let schedule = FaultSchedule {
        latency: Duration::from_micros(50),
        events: vec![Fault::Sever { endpoint: 0, at: Duration::from_millis(10) }],
        ..FaultSchedule::default()
    };
    net.set_link("solo", schedule.link(0));

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

/// Shutdown answers the log's waiters: an update still short of its
/// quorum when the client drops resolves `ShuttingDown`, and a handle
/// that outlives the client has its later appends and barriers refused
/// at once rather than left to hang.
#[test]
fn shutdown_fails_pending_and_later_appends() {
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let net = ChanNet::new(clock.clone());

    let keys: Vec<u32> = (0..500u32).map(|i| i * 3).collect();
    let topology = Topology::single(vec!["solo".to_owned()]);
    // Dark from 10 ms for a virtual hour: no frame after that lands.
    let schedule = FaultSchedule {
        latency: Duration::from_micros(50),
        events: vec![Fault::Partition {
            endpoint: 0,
            from: Duration::from_millis(10),
            until: Duration::from_secs(3_600),
        }],
        ..FaultSchedule::default()
    };
    net.set_link("solo", schedule.link(0));
    let server = NetServer::start(
        Box::new(net.listen("solo")),
        &keys,
        NetServerConfig::new(sim_serve_cfg(&clock), topology.clone(), 0),
    );
    // A repair budget far past the test, so the endpoint is never buried.
    let cfg = ClientConfig { max_retries: 100_000, ..sim_client_cfg(&clock) };
    let client = RemoteClient::connect(net.dialer(), "solo", cfg).expect("connect");
    let handle = client.handle();

    clock.sleep(Duration::from_millis(15));
    let pending = handle.begin_update(Op::Insert(1)).expect("the endpoint is alive");
    clock.sleep(Duration::from_millis(30));
    assert_eq!(pending.poll(), None, "nothing can ack through the partition");

    drop(client);
    assert_eq!(pending.wait(), Err(ServeError::ShuttingDown), "pending at shutdown");
    assert_eq!(handle.update(Op::Insert(2)), Err(ServeError::ShuttingDown), "after shutdown");
    assert_eq!(handle.quiesce(), Err(ServeError::ShuttingDown), "barrier after shutdown");

    drop(handle);
    server.shutdown();
}

/// Whether the sending halves [`GatedDialer`] hands out may write, and
/// how many `Lookup` frames went through their blocking `send` — which
/// only an endpoint's worker calls for lookups.
#[derive(Default)]
struct Gate {
    shut: Mutex<bool>,
    opened: Condvar,
    lookups_sent: AtomicU64,
}

impl Gate {
    fn set(&self, shut: bool) {
        *self.shut.lock().unwrap() = shut;
        self.opened.notify_all();
    }
}

/// A dialer whose connections to one address send only while the gate is
/// open: a shut gate holds the writer in `send`, and refuses a
/// `try_send`, as a full TCP send buffer does.
struct GatedDialer {
    inner: Box<dyn Dialer>,
    addr: String,
    gate: Arc<Gate>,
}

struct GatedTx {
    inner: Box<dyn FrameTx>,
    gate: Arc<Gate>,
}

impl FrameTx for GatedTx {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let mut shut = self.gate.shut.lock().unwrap();
        while *shut {
            shut = self.gate.opened.wait(shut).unwrap();
        }
        drop(shut);
        if matches!(frame, Frame::Lookup { .. }) {
            self.gate.lookups_sent.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.send(frame)
    }

    fn try_send(&mut self, frame: &Frame) -> Result<TrySend, NetError> {
        if *self.gate.shut.lock().unwrap() {
            return Ok(TrySend::Busy);
        }
        self.inner.try_send(frame)
    }

    fn flush(&mut self) -> Result<(), NetError> {
        self.inner.flush()
    }
}

impl Dialer for GatedDialer {
    fn dial(&self, addr: &str) -> Result<Duplex, NetError> {
        let mut duplex = self.inner.dial(addr)?;
        if addr == self.addr {
            duplex.tx = Box::new(GatedTx { inner: duplex.tx, gate: self.gate.clone() });
        }
        Ok(duplex)
    }
}

/// One span, three replica endpoints, and the client's sending half to
/// position 0 stuck in `send`. Each endpoint's worker ships its own
/// endpoint's log suffix, so serial `update()`s still resolve through the
/// other two — a quorum of three — in far less than the transport's 10 s
/// write timeout; once the write is released, position 0 catches up and
/// the barrier finds all three converged, with nobody declared dead.
#[test]
fn a_stalled_endpoint_does_not_hold_up_its_span() {
    let net = ChanNet::new(Clock::system());
    let keys: Vec<u32> = (0..2_000u32).map(|i| i * 4).collect();
    let addrs = ["a", "b", "c"];
    let topology = Topology::single(addrs.iter().map(|a| a.to_string()).collect());
    let servers: Vec<NetServer> = addrs
        .iter()
        .map(|addr| {
            let cfg = NetServerConfig::new(ServeConfig::new(2), topology.clone(), 0);
            NetServer::start(Box::new(net.listen(addr)), &keys, cfg)
        })
        .collect();
    let gate = Arc::new(Gate::default());
    let dialer = GatedDialer { inner: net.dialer(), addr: "a".to_owned(), gate: gate.clone() };
    let client =
        RemoteClient::connect(Box::new(dialer), "b", ClientConfig::default()).expect("connect");
    let handle = client.handle();

    gate.set(true);
    const UPDATES: u32 = 40;
    let (done_tx, done_rx) = mpsc::channel();
    let updater = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            let start = Instant::now();
            for i in 0..UPDATES {
                assert_eq!(handle.update(Op::Insert(i * 4 + 1)), Ok(()), "update {i}");
            }
            done_tx.send(start.elapsed()).unwrap();
        })
    };
    let bound = Duration::from_secs(2);
    let took = done_rx.recv_timeout(bound);
    // Released either way, so a failing run still unwinds.
    gate.set(false);
    let took = took.unwrap_or_else(|_| {
        panic!("{UPDATES} serial updates did not resolve within {bound:?} with endpoint a stalled")
    });
    updater.join().unwrap();
    assert!(took < bound, "{UPDATES} serial updates took {took:?}");

    client.quiesce().expect("barrier after the release");
    let mut mirror: BTreeSet<u32> = keys.iter().copied().collect();
    mirror.extend((0..UPDATES).map(|i| i * 4 + 1));
    for (addr, srv) in addrs.iter().zip(&servers) {
        assert!(handle.endpoint_alive(addr), "endpoint {addr} must not have been buried");
        assert_eq!(srv.server().len(), mirror.len(), "replica {addr} must converge");
    }
    assert_eq!(client.stats().elections, 0, "nobody died; the epoch must not move");

    drop(handle);
    drop(client);
    for s in servers {
        s.shutdown();
    }
}

/// The lookup twin: the same span, endpoint a's sending half held. A
/// lookup caller never waits on it: the first frame routed to a finds
/// the socket refusing its `try_send`, the rest find a's worker stuck in
/// `send` holding the connection's lock, and either way `begin_lookup`
/// and `poll` return at once and the frame goes to a's worker. The other
/// two endpoints answer meanwhile; once the gate opens, a's worker writes
/// what it was left and every rank comes back exact.
#[test]
fn a_stalled_endpoint_does_not_hold_up_a_lookup_caller() {
    let net = ChanNet::new(Clock::system());
    let keys: Vec<u32> = (0..2_000u32).map(|i| i * 4).collect();
    let rank = |q: u32| keys.partition_point(|&k| k <= q) as u32;
    let addrs = ["a", "b", "c"];
    let topology = Topology::single(addrs.iter().map(|a| a.to_string()).collect());
    let servers: Vec<NetServer> = addrs
        .iter()
        .map(|addr| {
            let cfg = NetServerConfig::new(ServeConfig::new(2), topology.clone(), 0);
            NetServer::start(Box::new(net.listen(addr)), &keys, cfg)
        })
        .collect();
    let gate = Arc::new(Gate::default());
    let dialer = GatedDialer { inner: net.dialer(), addr: "a".to_owned(), gate: gate.clone() };
    let client =
        RemoteClient::connect(Box::new(dialer), "b", ClientConfig::default()).expect("connect");
    let handle = client.handle();

    gate.set(true);
    const LOOKUPS: u32 = 64;
    let (done_tx, done_rx) = mpsc::channel();
    let caller = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            let mut slowest = Duration::ZERO;
            let mut pending = Vec::new();
            for i in 0..LOOKUPS {
                let q = i * 97 % 8_000;
                let start = Instant::now();
                let p = handle.begin_lookup(q).expect("admitted");
                let _ = p.poll();
                slowest = slowest.max(start.elapsed());
                pending.push((q, p));
            }
            // The span still answers: a holds at most the frames routed
            // to it, and the power-of-two choice steers around its depth.
            let deadline = Instant::now() + Duration::from_secs(2);
            while pending.iter().filter(|(_, p)| p.poll().is_some()).count() < LOOKUPS as usize / 2
                && Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            let answered = pending.iter().filter(|(_, p)| p.poll().is_some()).count();
            done_tx.send((slowest, answered)).unwrap();
            pending
        })
    };
    let bound = Duration::from_secs(5);
    let done = done_rx.recv_timeout(bound);
    let held = gate.lookups_sent.load(Ordering::SeqCst);
    // Released either way, so a failing run still unwinds.
    gate.set(false);
    let (slowest, answered) =
        done.unwrap_or_else(|_| panic!("{LOOKUPS} lookups did not submit within {bound:?}"));
    let pending = caller.join().unwrap();
    assert!(slowest < Duration::from_millis(100), "a begin_lookup + poll took {slowest:?}");
    assert!(answered >= LOOKUPS as usize / 2, "only {answered} answered around the stall");
    assert_eq!(held, 0, "nothing got through a's gate while it was shut");
    for (q, p) in pending {
        assert_eq!(p.wait(), Ok(rank(q)), "rank({q})");
    }
    assert!(
        gate.lookups_sent.load(Ordering::SeqCst) > 0,
        "a's worker wrote the frames its callers could not"
    );
    for addr in addrs {
        assert!(handle.endpoint_alive(addr), "endpoint {addr} must not have been buried");
    }
    assert_eq!(client.stats().elections, 0, "nobody died; the epoch must not move");

    drop(handle);
    drop(client);
    for s in servers {
        s.shutdown();
    }
}
