//! Who writes a lookup frame, and when: the caller that has it, by
//! Nagle's rule turned round. A lookup begun on a handle that holds no
//! unreaped lookup has its frame written before `begin_lookup` returns;
//! a pipelined one waits in its endpoint's open frame until the frame
//! fills to `max_batch` or its handle polls, waits on or drops an
//! unanswered lookup. These tests pin the rule on `ChanNet` with a
//! `SimClock`: nothing but the test thread runs until it blocks, so every
//! frame the client writes before then was written by the caller, and a
//! recording sending half lists each `Lookup` frame as it is written,
//! with its writer and the virtual instant.

use dini_cluster::FaultSchedule;
use dini_net::transport::{ChanNet, Dialer, Duplex, FrameTx, NetError, TrySend};
use dini_net::{
    ClientConfig, Frame, NetHandle, NetServer, NetServerConfig, PendingNetLookup, RemoteClient,
    Span, Topology,
};
use dini_serve::{Clock, Nanos, ServeConfig, SimClock};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

/// One `Lookup` frame as its writer handed it to the transport.
#[derive(Debug, Clone, PartialEq)]
struct Written {
    keys: Vec<u32>,
    by: ThreadId,
    at: Nanos,
}

/// Every `Lookup` frame the client has written, in order.
#[derive(Default)]
struct Wire {
    frames: Mutex<Vec<Written>>,
}

impl Wire {
    fn frames(&self) -> Vec<Written> {
        self.frames.lock().unwrap().clone()
    }

    fn sizes(&self) -> Vec<usize> {
        self.frames.lock().unwrap().iter().map(|w| w.keys.len()).collect()
    }
}

/// A sending half that records each `Lookup` frame it takes.
struct RecordingTx {
    inner: Box<dyn FrameTx>,
    wire: Arc<Wire>,
    clock: Clock,
}

impl RecordingTx {
    fn note(&self, frame: &Frame) {
        if let Frame::Lookup { keys, .. } = frame {
            let by = std::thread::current().id();
            let written = Written { keys: keys.clone(), by, at: self.clock.now() };
            self.wire.frames.lock().unwrap().push(written);
        }
    }
}

impl FrameTx for RecordingTx {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.inner.send(frame)?;
        self.note(frame);
        Ok(())
    }

    fn try_send(&mut self, frame: &Frame) -> Result<TrySend, NetError> {
        let sent = self.inner.try_send(frame)?;
        if sent != TrySend::Busy {
            self.note(frame);
        }
        Ok(sent)
    }

    fn flush(&mut self) -> Result<(), NetError> {
        self.inner.flush()
    }
}

struct RecordingDialer {
    inner: Box<dyn Dialer>,
    wire: Arc<Wire>,
    clock: Clock,
}

impl Dialer for RecordingDialer {
    fn dial(&self, addr: &str) -> Result<Duplex, NetError> {
        let Duplex { tx, rx, peer } = self.inner.dial(addr)?;
        let (wire, clock) = (self.wire.clone(), self.clock.clone());
        Ok(Duplex { tx: Box::new(RecordingTx { inner: tx, wire, clock }), rx, peer })
    }
}

/// Every third key from 1, split into `spans` equal spans.
const KEYS: u32 = 3_000;

fn rank(q: u32) -> u32 {
    (0..KEYS).map(|i| i * 3 + 1).filter(|&k| k <= q).count() as u32
}

/// A client on a `SimClock` over recording pipes to `spans` one-endpoint
/// span servers, each `one_way` away; `drive` gets a handle, the
/// recording and the clock.
fn with_client(
    spans: usize,
    one_way: Duration,
    max_batch: usize,
    drive: impl FnOnce(&NetHandle, &Wire, &Clock),
) {
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let net = ChanNet::new(clock.clone());
    let keys: Vec<u32> = (0..KEYS).map(|i| i * 3 + 1).collect();
    let per = keys.len() / spans;
    let topology = Topology {
        spans: (0..spans)
            .map(|s| Span {
                lo_key: if s == 0 { 0 } else { keys[s * per] },
                endpoints: vec![format!("s{s}")],
            })
            .collect(),
    };
    let parts = topology.split(&keys);
    let servers: Vec<NetServer> = (0..spans)
        .map(|s| {
            let addr = format!("s{s}");
            let link = FaultSchedule { latency: one_way, ..FaultSchedule::default() };
            net.set_link(&addr, link.link(s));
            let serve = ServeConfig { clock: clock.clone(), ..ServeConfig::new(2) };
            let cfg = NetServerConfig::new(serve, topology.clone(), s);
            NetServer::start(Box::new(net.listen(&addr)), parts[s], cfg)
        })
        .collect();
    let wire = Arc::new(Wire::default());
    let dialer = RecordingDialer { inner: net.dialer(), wire: wire.clone(), clock: clock.clone() };
    let cfg = ClientConfig { clock: clock.clone(), max_batch, ..ClientConfig::default() };
    let client = RemoteClient::connect(Box::new(dialer), "s0", cfg).expect("connect");
    let handle = client.handle();
    drive(&handle, &wire, &clock);
    drop(handle);
    drop(client);
    for s in servers {
        s.shutdown();
    }
}

/// The benchmark's closed loop: keep `window` lookups in flight, waiting
/// for the oldest before beginning the next, `n` in all; every rank exact.
fn closed_loop(handle: &NetHandle, window: usize, n: u32) {
    let mut flight: VecDeque<(u32, PendingNetLookup)> = VecDeque::with_capacity(window);
    for i in 0..n {
        if flight.len() == window {
            let (q, p) = flight.pop_front().expect("window is full");
            assert_eq!(p.wait(), Ok(rank(q)), "rank({q})");
        }
        let q = i.wrapping_mul(2_654_435_761) % (3 * KEYS);
        flight.push_back((q, handle.begin_lookup(q).expect("admitted")));
    }
    while let Some((q, p)) = flight.pop_front() {
        assert_eq!(p.wait(), Ok(rank(q)), "rank({q})");
    }
}

/// A closed loop whose window is a whole number of frames ships full
/// frames only, once its start has realigned: its first key goes alone
/// (nothing else is held yet), the first wait writes the partial frame
/// behind it, and from then on each wait finds the open frame empty and
/// every frame leaves when its `max_batch`-th key joins.
#[test]
fn a_closed_loop_window_of_whole_frames_ships_only_full_frames() {
    const BATCH: usize = 8;
    const N: u32 = 40 * BATCH as u32;
    for frames_per_window in [1, 2, 3] {
        let window = frames_per_window * BATCH;
        with_client(1, Duration::ZERO, BATCH, |handle, wire, _| {
            closed_loop(handle, window, N);
            let sizes = wire.sizes();
            let mut want = vec![1];
            want.extend(vec![BATCH; frames_per_window - 1]);
            want.push(BATCH - 1);
            want.resize(N as usize / BATCH + 1, BATCH);
            assert_eq!(sizes, want, "window {window}: frame sizes");
            assert_eq!(handle.wire_rtt().count(), want.len() as u64, "every frame answered");
            assert_eq!(handle.stats().admitted, u64::from(N));
        });
    }
}

/// A lookup begun with nothing else held is on the wire before
/// `begin_lookup` returns, written by the caller itself; so is the next
/// one, once the first has been reaped.
#[test]
fn a_lone_begin_lookup_is_written_before_it_returns() {
    with_client(1, Duration::from_micros(50), 256, |handle, wire, clock| {
        let me = std::thread::current().id();
        for (n, q) in [41u32, 4_242].into_iter().enumerate() {
            let at = clock.now();
            let pending = handle.begin_lookup(q).expect("admitted");
            let frames = wire.frames();
            assert_eq!(frames.len(), n + 1, "lookup {n}'s frame is written");
            assert_eq!(frames[n], Written { keys: vec![q], by: me, at }, "by the caller, at once");
            assert_eq!(pending.wait(), Ok(rank(q)));
            assert_eq!(clock.now() - at, 100_000, "one round trip, nothing else");
        }
    });
}

/// A caller that waits on span A's lookup has, by then, written the open
/// frame holding its key for span B: both round trips overlap, and the
/// pair costs one round trip, not two.
#[test]
fn waiting_on_one_span_first_writes_the_open_frame_for_another() {
    const RTT: u64 = 100_000;
    with_client(2, Duration::from_micros(50), 256, |handle, wire, clock| {
        let (qa, qb) = (10, 3 * KEYS - 10);
        assert_ne!(handle.span_of(qa), handle.span_of(qb));
        let at = clock.now();
        let a = handle.begin_lookup(qa).expect("admitted");
        let b = handle.begin_lookup(qb).expect("admitted");
        assert_eq!(wire.sizes(), vec![1], "span B's key waits in its open frame");
        assert_eq!(a.wait(), Ok(rank(qa)));
        let frames = wire.frames();
        assert_eq!(frames.len(), 2);
        assert_eq!((frames[1].keys.clone(), frames[1].at), (vec![qb], at), "written at the wait");
        assert_eq!(b.wait(), Ok(rank(qb)));
        assert_eq!(clock.now() - at, RTT, "both lookups answered in one round trip");
    });
}

/// A pipelined lookup dropped while its key waits in the open frame
/// writes that frame as it goes: the key is answered for nobody, and the
/// next lone lookup's frame carries nothing but its own key.
#[test]
fn a_dropped_pipelined_lookup_is_written_not_stranded() {
    with_client(1, Duration::from_micros(50), 256, |handle, wire, _| {
        let held = handle.begin_lookup(7).expect("admitted");
        let dropped = handle.begin_lookup(700).expect("admitted");
        assert_eq!(wire.sizes(), vec![1], "the pipelined key waits in the open frame");
        drop(dropped);
        let keys: Vec<_> = wire.frames().into_iter().map(|w| w.keys).collect();
        assert_eq!(keys, vec![vec![7], vec![700]], "the drop wrote its frame");
        assert_eq!(held.wait(), Ok(rank(7)));
        assert_eq!(handle.begin_lookup(70).expect("admitted").wait(), Ok(rank(70)));
        let keys: Vec<_> = wire.frames().into_iter().map(|w| w.keys).collect();
        assert_eq!(keys[2], vec![70], "nothing was left behind in the open frame");
        assert_eq!(handle.wire_rtt().count(), 3, "every frame answered");
    });
}
