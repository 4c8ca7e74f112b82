//! `RemoteClient`'s lookup contract at the client boundary: the
//! admission bound of an endpoint's outbox, what a frame's reply —
//! short, missing, or polled — answers each key in it, and the knobs
//! `connect` refuses before it dials anything.
//!
//! The reply-contract tests talk to a hand-scripted span over `ChanNet`
//! that answers the handshake and epoch pings itself and hands every
//! `Lookup` frame to the test's script, and a [`Hold`] on the client's
//! sending half shapes its frames; the admission test runs a real
//! `NetServer` on a `SimClock`, where nothing runs until the test thread
//! blocks, so the outbox fills deterministically.

use dini_net::transport::{ChanNet, Dialer, Duplex, FrameRx, FrameTx, NetError};
use dini_net::wire::{LookupStatus, SpanMsg};
use dini_net::{Acceptor, ClientConfig, Frame, NetServer, NetServerConfig, RemoteClient, Topology};
use dini_serve::{Clock, ServeConfig, ServeError, SimClock};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const SEC: Duration = Duration::from_secs(5);

/// What the scripted span does with one `Lookup` frame's keys: the
/// results to reply with, or `None` to leave the frame unanswered.
type Script = Box<dyn FnMut(&[u32]) -> Option<Vec<LookupStatus>> + Send>;

/// A one-span, one-endpoint fake server at `srv`: answers the bootstrap
/// handshake, then serves the endpoint connection — `Hello`, epoch
/// pings — and runs `script` on every `Lookup`. Each frame's keys are
/// also reported on the returned channel once the frame has arrived.
fn fake_span(
    net: &std::sync::Arc<ChanNet>,
    mut script: Script,
) -> (JoinHandle<()>, Receiver<Vec<u32>>) {
    let acceptor = net.listen("srv");
    let (seen_tx, seen_rx): (Sender<Vec<u32>>, _) = channel();
    let server = std::thread::spawn(move || {
        let mut boot: Duplex = acceptor.accept_timeout(SEC).expect("bootstrap dial");
        match boot.rx.recv_timeout(SEC).expect("hello") {
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
        let mut conn = acceptor.accept_timeout(SEC).expect("endpoint dial");
        // A recv error means the client hung up: the script is over.
        while let Ok(frame) = conn.rx.recv_timeout(SEC) {
            match frame {
                Frame::EpochPing { req } => {
                    let _ = conn.tx.send(&Frame::EpochPong { req, live_keys: 0, snapshots: 0 });
                }
                Frame::Lookup { req, keys, .. } => {
                    if let Some(results) = script(&keys) {
                        let _ = conn.tx.send(&Frame::Reply { req, trace: 0, parent: 0, results });
                    }
                    let _ = seen_tx.send(keys);
                }
                _ => {}
            }
        }
    });
    (server, seen_rx)
}

/// How many more `Lookup` sends may return: the endpoint worker sends
/// a frame, then waits in `send` until the budget lets it go. While it
/// waits it takes nothing from its outbox, so the keys appended
/// meanwhile form the next frames — up to `max_batch` each — exactly.
struct Hold {
    budget: Mutex<u64>,
    changed: Condvar,
}

impl Hold {
    fn new() -> Arc<Self> {
        Arc::new(Self { budget: Mutex::new(u64::MAX), changed: Condvar::new() })
    }

    fn set(&self, budget: u64) {
        *self.budget.lock().unwrap() = budget;
        self.changed.notify_all();
    }
}

/// A dialer whose connections hold their `Lookup` sends on one [`Hold`],
/// and release it for good once their reader hangs up — which the
/// client's reader does on shutdown, so a dropped client never waits on
/// the test.
struct HeldDialer {
    inner: Box<dyn Dialer>,
    hold: Arc<Hold>,
}

struct HeldTx {
    inner: Box<dyn FrameTx>,
    hold: Arc<Hold>,
}

struct HeldRx {
    inner: Box<dyn FrameRx>,
    hold: Arc<Hold>,
}

impl FrameTx for HeldTx {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.inner.send(frame)?;
        if matches!(frame, Frame::Lookup { .. }) {
            let mut budget = self.hold.budget.lock().unwrap();
            while *budget == 0 {
                budget = self.hold.changed.wait(budget).unwrap();
            }
            *budget -= 1;
        }
        Ok(())
    }
}

impl FrameRx for HeldRx {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        self.inner.recv_timeout(timeout)
    }
}

impl Drop for HeldRx {
    fn drop(&mut self) {
        self.hold.set(u64::MAX);
    }
}

impl Dialer for HeldDialer {
    fn dial(&self, addr: &str) -> Result<Duplex, NetError> {
        let Duplex { tx, rx, peer } = self.inner.dial(addr)?;
        let hold = self.hold.clone();
        let tx = Box::new(HeldTx { inner: tx, hold: hold.clone() });
        Ok(Duplex { tx, rx: Box::new(HeldRx { inner: rx, hold }), peer })
    }
}

/// A client of frames of at most four keys, over a [`HeldDialer`], that
/// never resends, with its worker held in the send of a first lookup
/// (key 0): what it is handed next ships in frames of exactly four keys
/// and a partial remainder. Returns the primer, answered or not.
fn four_key_frames(
    net: &Arc<ChanNet>,
    seen: &Receiver<Vec<u32>>,
) -> (RemoteClient, Arc<Hold>, dini_net::PendingNetLookup) {
    let hold = Hold::new();
    let cfg = ClientConfig {
        max_batch: 4,
        retry_timeout: Duration::from_secs(3600),
        ..ClientConfig::default()
    };
    let dialer = HeldDialer { inner: net.dialer(), hold: hold.clone() };
    let client = RemoteClient::connect(Box::new(dialer), "srv", cfg).expect("connect");
    hold.set(0);
    let primer = client.begin_lookup(0).expect("admitted");
    assert_eq!(seen.recv_timeout(SEC).expect("the primer"), vec![0]);
    (client, hold, primer)
}

#[test]
fn a_short_reply_answers_its_head_exactly_and_its_tail_shutting_down() {
    let net = ChanNet::new(Clock::system());
    let script: Script =
        Box::new(|keys| Some(keys.iter().take(2).map(|&k| LookupStatus::Rank(k * 10)).collect()));
    let (server, seen) = fake_span(&net, script);
    let (client, hold, primer) = four_key_frames(&net, &seen);
    let pending: Vec<_> = (1..=4u32).map(|k| client.begin_lookup(k).expect("admitted")).collect();
    hold.set(u64::MAX);
    assert_eq!(seen.recv_timeout(SEC).expect("one frame"), vec![1, 2, 3, 4]);
    assert_eq!(primer.wait(), Ok(0));
    let got: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
    assert_eq!(
        got,
        vec![Ok(10), Ok(20), Err(ServeError::ShuttingDown), Err(ServeError::ShuttingDown)]
    );
    drop(client);
    server.join().unwrap();
}

#[test]
fn dropping_the_client_answers_queued_and_wire_lookups_shutting_down() {
    let net = ChanNet::new(Clock::system());
    let (server, seen) = fake_span(&net, Box::new(|_| None));
    let (client, hold, primer) = four_key_frames(&net, &seen);
    // Keys 1–4 fill a frame, which ships (the worker is let through
    // once more) and is never answered; keys 5 and 6 are appended while
    // the worker is held again, so they are still queued at the drop.
    let mut pending: Vec<_> =
        (1..=4u32).map(|k| client.begin_lookup(k).expect("admitted")).collect();
    hold.set(1);
    assert_eq!(seen.recv_timeout(SEC).expect("the full frame"), vec![1, 2, 3, 4]);
    pending.extend((5..=6u32).map(|k| client.begin_lookup(k).expect("admitted")));
    pending.push(primer);
    assert!(pending.iter().all(|p| p.poll().is_none()), "nothing is answered yet");
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        drop(client);
        let got: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
        let _ = done_tx.send(got);
    });
    let got = done_rx.recv_timeout(SEC).expect("every waiter resolves after the drop");
    assert_eq!(got, vec![Err(ServeError::ShuttingDown); 7]);
    server.join().unwrap();
    assert!(seen.try_recv().is_err(), "the queued keys never shipped");
}

#[test]
fn poll_then_wait_return_the_same_answer() {
    let net = ChanNet::new(Clock::system());
    let script: Script =
        Box::new(|keys| Some(keys.iter().map(|&k| LookupStatus::Rank(k + 1)).collect()));
    let (server, _seen) = fake_span(&net, script);
    let client =
        RemoteClient::connect(net.dialer(), "srv", ClientConfig::default()).expect("connect");
    let pending = client.begin_lookup(41).expect("admitted");
    let deadline = std::time::Instant::now() + 12 * SEC;
    let polled = loop {
        if let Some(answer) = pending.poll() {
            break answer;
        }
        assert!(std::time::Instant::now() < deadline, "the polled lookup was never answered");
        std::thread::yield_now();
    };
    assert_eq!(polled, Ok(42));
    assert_eq!(pending.wait(), polled);
    drop(client);
    server.join().unwrap();
}

/// A lone lookup's frame is written at once; the four pipelined lookups
/// behind it fill an outbox of capacity 4, and the next is shed
/// client-side, naming its span; a blocking `lookup_many` then makes
/// room — it writes the open frame itself — instead of shedding, and
/// every rank comes back exact.
#[test]
fn a_full_outbox_sheds_begin_lookup_and_blocks_lookup_many() {
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let net = ChanNet::new(clock.clone());
    let keys: Vec<u32> = (0..1_000u32).map(|i| i * 3 + 1).collect();
    let rank = |q: u32| keys.partition_point(|&k| k <= q) as u32;
    let serve = ServeConfig { clock: clock.clone(), ..ServeConfig::new(2) };
    let server = NetServer::start(
        Box::new(net.listen("srv")),
        &keys,
        NetServerConfig::new(serve, Topology::single(vec!["srv".into()]), 0),
    );
    let cfg = ClientConfig { clock, queue_capacity: 4, ..ClientConfig::default() };
    let client = RemoteClient::connect(net.dialer(), "srv", cfg).expect("connect");
    let handle = client.handle();

    // Nothing else runs until this thread blocks: no reply can retire a
    // frame, and nothing but this thread writes one, before the sixth
    // key is refused.
    let admitted: Vec<_> =
        (0..5u32).map(|i| (i * 7, handle.begin_lookup(i * 7).expect("room for five"))).collect();
    assert_eq!(
        handle.begin_lookup(500).unwrap_err(),
        ServeError::Overloaded { shard: handle.span_of(500) }
    );
    assert_eq!((handle.stats().client_shed, handle.stats().admitted), (1, 5));

    let queries: Vec<u32> = (0..64u32).map(|i| i * 47 + 2).collect();
    let ranks = handle.lookup_many(&queries).expect("a blocking lookup waits for room");
    assert_eq!(ranks, queries.iter().map(|&q| rank(q)).collect::<Vec<_>>());
    for (q, p) in admitted {
        assert_eq!(p.wait(), Ok(rank(q)));
    }
    let stats = handle.stats();
    assert_eq!((stats.client_shed, stats.admitted), (1, 5 + 64));

    drop(handle);
    drop(client);
    server.shutdown();
}

/// `connect` validates its config before dialing: a frame must hold a
/// key, an outbox must admit one, and no timeout may be zero. Each
/// refusal names its knob.
fn connect_with(tweak: impl FnOnce(&mut ClientConfig)) {
    let mut cfg = ClientConfig::default();
    tweak(&mut cfg);
    let net = ChanNet::new(Clock::system());
    let _ = RemoteClient::connect(net.dialer(), "nowhere", cfg);
}

#[test]
#[should_panic(expected = "max_batch must be at least 1")]
fn a_zero_max_batch_is_refused() {
    connect_with(|c| c.max_batch = 0);
}

#[test]
#[should_panic(expected = "queue_capacity must be at least 1")]
fn a_zero_queue_capacity_is_refused() {
    connect_with(|c| c.queue_capacity = 0);
}

#[test]
#[should_panic(expected = "retry_timeout must be nonzero")]
fn a_zero_retry_timeout_is_refused() {
    connect_with(|c| c.retry_timeout = Duration::ZERO);
}

#[test]
#[should_panic(expected = "ctrl_timeout must be nonzero")]
fn a_zero_ctrl_timeout_is_refused() {
    connect_with(|c| c.ctrl_timeout = Duration::ZERO);
}

#[test]
#[should_panic(expected = "handshake_timeout must be nonzero")]
fn a_zero_handshake_timeout_is_refused() {
    connect_with(|c| c.handshake_timeout = Duration::ZERO);
}

#[test]
fn the_default_config_is_valid() {
    ClientConfig::default().validate();
}
