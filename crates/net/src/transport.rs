//! Transport backends: frame pipes over TCP or deterministic channels.
//!
//! The protocol layer ([`NetServer`](crate::NetServer) /
//! [`RemoteClient`](crate::RemoteClient)) speaks to the world through
//! four small traits — [`FrameTx`], [`FrameRx`], [`Acceptor`],
//! [`Dialer`] — so the same server and client code runs over:
//!
//! * **TCP** ([`TcpAcceptorT`] / [`TcpDialer`], `std::net` only): real
//!   sockets with `TCP_NODELAY`, length-prefix framing, and an
//!   incremental receive buffer that survives timeouts mid-frame
//!   without losing stream sync. TCP always runs on the system clock —
//!   real sockets cannot wait in virtual time.
//! * **Simulated channels** ([`ChanNet`]): in-process frame pipes that
//!   wait in [`Clock`] time and route every frame through
//!   [`dini_cluster::schedule`]'s seeded fate machinery — per-link fixed
//!   latency, jitter (which reorders frames, as a real network would),
//!   drops, duplicates, partitions that heal, and link severance at a
//!   virtual instant. Under a [`SimClock`](dini_serve::SimClock) the
//!   whole transport replays bit-for-bit, which is how `dini-simtest`
//!   crashes links inside its determinism digest. With the system clock
//!   and perfect links (the default) the same pipes double as the
//!   in-process loopback used by unit tests.

use crate::wire::{frame_len, Frame, WireError};
use dini_cluster::{FrameFate, LinkFaults};
use dini_serve::clock::dur_ns;
use dini_serve::{Clock, Nanos};
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The peer (or the link) is gone.
    Closed,
    /// The operation's deadline passed.
    Timeout,
    /// The byte stream did not parse as a frame.
    Wire(WireError),
    /// An OS-level I/O error (message preserved; `std::io::Error` is
    /// neither `Clone` nor comparable).
    Io(String),
    /// Nothing is listening at the dialed address.
    Refused(String),
    /// The peer spoke the protocol wrong (unexpected frame, bad
    /// handshake).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Closed => write!(f, "connection closed"),
            NetError::Timeout => write!(f, "operation timed out"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Refused(addr) => write!(f, "connection refused: {addr}"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// The sending half of one connection.
pub trait FrameTx: Send {
    /// Ship one frame. `Err(Closed)` means the connection is dead and
    /// will never carry another frame.
    fn send(&mut self, frame: &Frame) -> Result<(), NetError>;
}

/// The receiving half of one connection.
pub trait FrameRx: Send {
    /// Wait up to `timeout` for the next frame. `Err(Timeout)` is
    /// retryable; `Err(Closed)` is final.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError>;
}

/// One established bidirectional connection.
pub struct Duplex {
    /// Sending half.
    pub tx: Box<dyn FrameTx>,
    /// Receiving half.
    pub rx: Box<dyn FrameRx>,
    /// Human-readable peer label (for diagnostics).
    pub peer: String,
}

/// A listening endpoint producing [`Duplex`] connections.
pub trait Acceptor: Send {
    /// Wait up to `timeout` for the next inbound connection.
    fn accept_timeout(&self, timeout: Duration) -> Result<Duplex, NetError>;
    /// The address peers dial to reach this acceptor.
    fn addr(&self) -> String;
}

/// An outbound connector.
pub trait Dialer: Send + Sync {
    /// Establish a connection to `addr`.
    fn dial(&self, addr: &str) -> Result<Duplex, NetError>;
}

// ------------------------------------------------------------------ TCP

/// How often a TCP accept loop polls its (non-blocking) listener.
const TCP_ACCEPT_POLL: Duration = Duration::from_millis(2);

/// A TCP listener (named with a `T` suffix to keep the bare name free
/// for the trait).
pub struct TcpAcceptorT {
    listener: TcpListener,
    addr: String,
}

impl TcpAcceptorT {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr).map_err(|e| NetError::Io(e.to_string()))?;
        listener.set_nonblocking(true).map_err(|e| NetError::Io(e.to_string()))?;
        let addr = listener.local_addr().map_err(|e| NetError::Io(e.to_string()))?.to_string();
        Ok(Self { listener, addr })
    }
}

/// Bound on a blocking socket write: a peer that stops reading long
/// enough to fill the TCP send buffer *and* sit out this timeout is
/// treated as dead (the write errors, the connection is torn down and
/// failed over) instead of wedging the sender thread — and with it
/// `NetServer::shutdown` / `RemoteClient::drop` — forever.
const TCP_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

fn tcp_duplex(stream: TcpStream, peer: String) -> Result<Duplex, NetError> {
    stream.set_nodelay(true).map_err(|e| NetError::Io(e.to_string()))?;
    stream.set_nonblocking(false).map_err(|e| NetError::Io(e.to_string()))?;
    stream.set_write_timeout(Some(TCP_WRITE_TIMEOUT)).map_err(|e| NetError::Io(e.to_string()))?;
    let rx_stream = stream.try_clone().map_err(|e| NetError::Io(e.to_string()))?;
    Ok(Duplex {
        tx: Box::new(TcpTx { stream, buf: Vec::with_capacity(4096) }),
        rx: Box::new(TcpRx {
            stream: rx_stream,
            buf: Vec::with_capacity(4096),
            read_timeout: None,
        }),
        peer,
    })
}

impl Acceptor for TcpAcceptorT {
    fn accept_timeout(&self, timeout: Duration) -> Result<Duplex, NetError> {
        // lint: wall-clock-ok: real-socket accept deadline; the sim backend never runs this.
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => return tcp_duplex(stream, peer.to_string()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // lint: wall-clock-ok: real-socket accept deadline; the sim backend never runs this.
                    if Instant::now() >= deadline {
                        return Err(NetError::Timeout);
                    }
                    std::thread::sleep(TCP_ACCEPT_POLL.min(timeout));
                }
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }
}

/// Dials TCP addresses.
#[derive(Debug, Default, Clone)]
pub struct TcpDialer;

impl Dialer for TcpDialer {
    fn dial(&self, addr: &str) -> Result<Duplex, NetError> {
        match TcpStream::connect(addr) {
            Ok(stream) => tcp_duplex(stream, addr.to_string()),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                Err(NetError::Refused(addr.to_string()))
            }
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }
}

struct TcpTx {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameTx for TcpTx {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.buf.clear();
        frame.encode_into(&mut self.buf);
        self.stream.write_all(&self.buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::UnexpectedEof => NetError::Closed,
            // A write timeout may have left a partial frame on the
            // stream; the connection is unusable either way — callers
            // treat Closed as final and fail over.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => NetError::Closed,
            _ => NetError::Io(e.to_string()),
        })
    }
}

/// Incremental frame reassembly: `buf` accumulates bytes across calls,
/// so a timeout mid-frame never loses stream sync.
struct TcpRx {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The read timeout the socket currently carries, so it is set again
    /// only when a caller asks for a different one.
    read_timeout: Option<Duration>,
}

impl TcpRx {
    /// Pop one complete frame off the front of `buf`, if present.
    fn take_frame(&mut self) -> Result<Option<Frame>, NetError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = frame_len(self.buf[..4].try_into().expect("4 bytes"))?;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = Frame::decode(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

impl FrameRx for TcpRx {
    /// Every poller passes a constant `timeout`, so the socket is armed
    /// with it once, not with the time left before every `read` — a
    /// `setsockopt` per frame otherwise. The deadline is re-checked
    /// after each read, so a call that finds nothing times out on time;
    /// one whose read is entered late, behind a partial frame, may
    /// overshoot by at most one `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        // lint: wall-clock-ok: real-socket read deadline; the sim backend never runs this.
        let deadline = Instant::now() + timeout;
        // `set_read_timeout` rejects zero (and `None` would block
        // forever); clamp low.
        let arm = Some(timeout.max(Duration::from_millis(1)));
        if self.read_timeout != arm {
            self.stream.set_read_timeout(arm).map_err(|e| NetError::Io(e.to_string()))?;
            self.read_timeout = arm;
        }
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(frame);
            }
            // lint: wall-clock-ok: real-socket read deadline; the sim backend never runs this.
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue; // deadline re-checked at loop top
                }
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                    return Err(NetError::Closed)
                }
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
    }
}

// ------------------------------------------- simulated / in-process net

/// A frame queued for delivery at a virtual instant.
struct Delivery {
    at: Nanos,
    seq: u64,
    frame: Frame,
}

impl PartialEq for Delivery {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Delivery {}
impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the earliest delivery (and
        // FIFO among equals) surfaces first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// An in-process network of frame pipes waiting in [`Clock`] time, with
/// per-destination [`LinkFaults`] injection. One `ChanNet` plays the
/// role of "the wire" for every listener registered on it.
///
/// ```
/// use dini_net::transport::{ChanNet, Acceptor, Dialer};
/// use dini_net::wire::Frame;
/// use dini_serve::Clock;
/// use std::time::Duration;
///
/// let net = ChanNet::new(Clock::system());
/// let acceptor = net.listen("srv");
/// let dialer = net.dialer();
/// let mut client = dialer.dial("srv").unwrap();
/// let mut server = acceptor.accept_timeout(Duration::from_secs(1)).unwrap();
/// client.tx.send(&Frame::Hello { proto: 1 }).unwrap();
/// assert_eq!(server.rx.recv_timeout(Duration::from_secs(1)).unwrap(), Frame::Hello { proto: 1 });
/// ```
pub struct ChanNet {
    clock: Clock,
    inner: Mutex<ChanInner>,
}

struct ChanInner {
    listeners: HashMap<String, Sender<Duplex>>,
    links: HashMap<String, LinkFaults>,
    dials: u64,
}

impl ChanNet {
    /// A fresh network whose pipes wait in `clock` time.
    pub fn new(clock: Clock) -> Arc<Self> {
        Arc::new(Self {
            clock,
            inner: Mutex::new(ChanInner {
                listeners: HashMap::new(),
                links: HashMap::new(),
                dials: 0,
            }),
        })
    }

    /// Register a listener at `addr` (any string; these are names, not
    /// sockets). Re-listening on a taken address replaces the listener.
    pub fn listen(self: &Arc<Self>, addr: &str) -> ChanAcceptor {
        let (tx, rx) = channel();
        self.inner.lock().expect("net lock").listeners.insert(addr.to_owned(), tx);
        ChanAcceptor { clock: self.clock.clone(), rx, addr: addr.to_owned() }
    }

    /// Apply `link` — one endpoint's resolution of a
    /// [`FaultSchedule`](dini_cluster::FaultSchedule) — to every
    /// connection subsequently dialed **to** `addr` (both directions of
    /// each such connection draw independent fate streams from it).
    pub fn set_link(&self, addr: &str, link: LinkFaults) {
        self.inner.lock().expect("net lock").links.insert(addr.to_owned(), link);
    }

    /// A dialer into this network.
    pub fn dialer(self: &Arc<Self>) -> Box<dyn Dialer> {
        Box::new(ChanDialer { net: self.clone() })
    }
}

/// The accepting side of a [`ChanNet`] listener.
pub struct ChanAcceptor {
    clock: Clock,
    rx: Receiver<Duplex>,
    addr: String,
}

impl Acceptor for ChanAcceptor {
    fn accept_timeout(&self, timeout: Duration) -> Result<Duplex, NetError> {
        match self.clock.recv_timeout(&self.rx, timeout) {
            Ok(d) => Ok(d),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }
}

struct ChanDialer {
    net: Arc<ChanNet>,
}

impl Dialer for ChanDialer {
    fn dial(&self, addr: &str) -> Result<Duplex, NetError> {
        let (listener, link, n) = {
            let mut inner = self.net.inner.lock().expect("net lock");
            let Some(listener) = inner.listeners.get(addr).cloned() else {
                return Err(NetError::Refused(addr.to_owned()));
            };
            let link = inner.links.get(addr).cloned().unwrap_or_default();
            inner.dials += 1;
            (listener, link, inner.dials)
        };
        let clock = self.net.clock.clone();
        let (c2s_tx, c2s_rx) = channel::<Delivery>();
        let (s2c_tx, s2c_rx) = channel::<Delivery>();
        let (server_link, client_link) = (link.state(n * 2), link.state(n * 2 + 1));
        let down_at = server_link.down_at_ns();
        let server_half = Duplex {
            tx: Box::new(ChanTx { clock: clock.clone(), tx: s2c_tx, link: server_link }),
            rx: Box::new(ChanRx {
                clock: clock.clone(),
                rx: c2s_rx,
                heap: BinaryHeap::new(),
                seq: 0,
                down_at,
                disconnected: false,
            }),
            peer: format!("dial-{n}"),
        };
        listener.send(server_half).map_err(|_| NetError::Refused(addr.to_owned()))?;
        Ok(Duplex {
            tx: Box::new(ChanTx { clock: clock.clone(), tx: c2s_tx, link: client_link }),
            rx: Box::new(ChanRx {
                clock,
                rx: s2c_rx,
                heap: BinaryHeap::new(),
                seq: 0,
                down_at,
                disconnected: false,
            }),
            peer: addr.to_owned(),
        })
    }
}

struct ChanTx {
    clock: Clock,
    tx: Sender<Delivery>,
    link: dini_cluster::LinkState,
}

impl FrameTx for ChanTx {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let now = self.clock.now();
        match self.link.next(now) {
            FrameFate::Down => Err(NetError::Closed),
            FrameFate::Drop => Ok(()), // the sender believes it went out
            FrameFate::Deliver { offset_ns, duplicate_offset_ns } => {
                let first = Delivery { at: now + offset_ns, seq: 0, frame: frame.clone() };
                // A receiver that hung up looks like a closed socket.
                self.tx.send(first).map_err(|_| NetError::Closed)?;
                if let Some(dup) = duplicate_offset_ns {
                    let copy = Delivery { at: now + dup, seq: 0, frame: frame.clone() };
                    let _ = self.tx.send(copy);
                }
                Ok(())
            }
        }
    }
}

struct ChanRx {
    clock: Clock,
    rx: Receiver<Delivery>,
    /// Frames in flight, ordered by delivery instant (jitter reorders).
    heap: BinaryHeap<Delivery>,
    /// Receiver-side arrival counter: FIFO tie-break among frames due at
    /// the same instant.
    seq: u64,
    down_at: Option<Nanos>,
    disconnected: bool,
}

impl ChanRx {
    fn push(&mut self, mut d: Delivery) {
        self.seq += 1;
        d.seq = self.seq;
        self.heap.push(d);
    }
}

impl FrameRx for ChanRx {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        let deadline = self.clock.now().saturating_add(dur_ns(timeout));
        loop {
            if !self.disconnected {
                while let Ok(d) = self.rx.try_recv() {
                    self.push(d);
                }
            }
            let now = self.clock.now();
            // A severed link loses whatever was in flight: Closed, not
            // a drained tail — that is what makes the client treat it
            // as an endpoint crash.
            if self.down_at.is_some_and(|t| now >= t) {
                return Err(NetError::Closed);
            }
            if self.heap.peek().is_some_and(|d| d.at <= now) {
                return Ok(self.heap.pop().expect("peeked").frame);
            }
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            let mut wake = deadline;
            if let Some(d) = self.heap.peek() {
                wake = wake.min(d.at);
            }
            if let Some(t) = self.down_at {
                wake = wake.min(t);
            }
            if self.disconnected {
                if self.heap.is_empty() {
                    return Err(NetError::Closed);
                }
                // Peer hung up but frames are still "on the wire":
                // deliver them at their instants, then close.
                self.clock.sleep(Duration::from_nanos(wake.saturating_sub(now).max(1)));
                continue;
            }
            match self.clock.recv_deadline(&self.rx, wake) {
                Ok(d) => self.push(d),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => self.disconnected = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::StatusCode;
    use dini_cluster::{Fault, FaultSchedule};

    const SEC: Duration = Duration::from_secs(1);

    #[test]
    fn chan_net_round_trips_frames_both_ways() {
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("a");
        let mut c = net.dialer().dial("a").unwrap();
        let mut s = acc.accept_timeout(SEC).unwrap();
        c.tx.send(&Frame::EpochPing { req: 5 }).unwrap();
        assert_eq!(s.rx.recv_timeout(SEC).unwrap(), Frame::EpochPing { req: 5 });
        s.tx.send(&Frame::EpochPong { req: 5, live_keys: 1, snapshots: 2 }).unwrap();
        assert_eq!(
            c.rx.recv_timeout(SEC).unwrap(),
            Frame::EpochPong { req: 5, live_keys: 1, snapshots: 2 }
        );
    }

    #[test]
    fn dialing_nowhere_is_refused() {
        let net = ChanNet::new(Clock::system());
        assert!(matches!(net.dialer().dial("ghost"), Err(NetError::Refused(_))));
    }

    #[test]
    fn recv_times_out_then_still_delivers() {
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("a");
        let mut c = net.dialer().dial("a").unwrap();
        let mut s = acc.accept_timeout(SEC).unwrap();
        assert_eq!(s.rx.recv_timeout(Duration::from_millis(10)), Err(NetError::Timeout));
        c.tx.send(&Frame::Hello { proto: 1 }).unwrap();
        assert_eq!(s.rx.recv_timeout(SEC).unwrap(), Frame::Hello { proto: 1 });
    }

    #[test]
    fn dropped_peer_closes_after_draining_in_flight() {
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("a");
        let mut c = net.dialer().dial("a").unwrap();
        let mut s = acc.accept_timeout(SEC).unwrap();
        c.tx.send(&Frame::Quiesce { req: 1 }).unwrap();
        drop(c);
        assert_eq!(s.rx.recv_timeout(SEC).unwrap(), Frame::Quiesce { req: 1 });
        assert_eq!(s.rx.recv_timeout(SEC), Err(NetError::Closed));
    }

    #[test]
    fn severed_link_fails_both_halves() {
        let sim = dini_serve::SimClock::new();
        let _main = sim.register_main();
        let clock = Clock::sim(&sim);
        let net = ChanNet::new(clock.clone());
        let sever = Fault::Sever { endpoint: 0, at: Duration::from_millis(1) };
        net.set_link(
            "a",
            FaultSchedule { events: vec![sever], ..FaultSchedule::default() }.link(0),
        );
        let acc = net.listen("a");
        let mut c = net.dialer().dial("a").unwrap();
        let mut s = acc.accept_timeout(SEC).unwrap();
        c.tx.send(&Frame::Hello { proto: 1 }).unwrap();
        assert_eq!(s.rx.recv_timeout(SEC).unwrap(), Frame::Hello { proto: 1 });
        clock.sleep(Duration::from_millis(2));
        assert_eq!(c.tx.send(&Frame::Hello { proto: 1 }), Err(NetError::Closed));
        assert_eq!(s.rx.recv_timeout(Duration::from_millis(1)), Err(NetError::Closed));
        assert_eq!(c.rx.recv_timeout(Duration::from_millis(1)), Err(NetError::Closed));
    }

    #[test]
    fn drops_lose_frames_silently_and_deterministically() {
        let run = || {
            let sim = dini_serve::SimClock::new();
            let _main = sim.register_main();
            let clock = Clock::sim(&sim);
            let net = ChanNet::new(clock.clone());
            let lossy = FaultSchedule { seed: 9, drop_prob: 0.5, ..FaultSchedule::default() };
            net.set_link("a", lossy.link(0));
            let acc = net.listen("a");
            let mut c = net.dialer().dial("a").unwrap();
            let mut s = acc.accept_timeout(SEC).unwrap();
            for i in 0..64 {
                c.tx.send(&Frame::EpochPing { req: i }).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(f) = s.rx.recv_timeout(Duration::from_millis(1)) {
                got.push(f);
            }
            got
        };
        let a = run();
        assert!(a.len() > 8 && a.len() < 56, "p=0.5 drops must lose some frames: {}", a.len());
        assert_eq!(a, run(), "same seed, same survivors");
    }

    #[test]
    fn jitter_reorders_but_loses_nothing() {
        let sim = dini_serve::SimClock::new();
        let _main = sim.register_main();
        let clock = Clock::sim(&sim);
        let net = ChanNet::new(clock.clone());
        let jittered = FaultSchedule {
            seed: 3,
            latency: Duration::from_micros(10),
            jitter: Duration::from_micros(50),
            ..FaultSchedule::default()
        };
        net.set_link("a", jittered.link(0));
        let acc = net.listen("a");
        let mut c = net.dialer().dial("a").unwrap();
        let mut s = acc.accept_timeout(SEC).unwrap();
        for i in 0..32 {
            c.tx.send(&Frame::EpochPing { req: i }).unwrap();
        }
        let mut reqs = Vec::new();
        for _ in 0..32 {
            match s.rx.recv_timeout(SEC).unwrap() {
                Frame::EpochPing { req } => reqs.push(req),
                other => panic!("unexpected {other:?}"),
            }
        }
        let mut sorted = reqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(reqs, sorted, "a 5x jitter window over send spacing must reorder");
    }

    #[test]
    fn tcp_loopback_round_trips_and_survives_partial_reads() {
        let acc = TcpAcceptorT::bind("127.0.0.1:0").unwrap();
        let addr = acc.addr();
        let t = std::thread::spawn(move || {
            let mut s = acc.accept_timeout(SEC).unwrap();
            let f1 = s.rx.recv_timeout(SEC).unwrap();
            let f2 = s.rx.recv_timeout(SEC).unwrap();
            s.tx.send(&Frame::Status { code: StatusCode::ShuttingDown }).unwrap();
            (f1, f2)
        });
        let mut c = TcpDialer.dial(&addr).unwrap();
        // Two frames in one write: the reassembly buffer must split them.
        c.tx.send(&Frame::Lookup { req: 1, trace: 0, parent: 0, keys: (0..500).collect() })
            .unwrap();
        c.tx.send(&Frame::EpochPing { req: 2 }).unwrap();
        let (f1, f2) = t.join().unwrap();
        assert_eq!(f1, Frame::Lookup { req: 1, trace: 0, parent: 0, keys: (0..500).collect() });
        assert_eq!(f2, Frame::EpochPing { req: 2 });
        assert_eq!(
            c.rx.recv_timeout(SEC).unwrap(),
            Frame::Status { code: StatusCode::ShuttingDown }
        );
        drop(c);
    }

    #[test]
    fn tcp_read_timeout_follows_the_caller_across_calls() {
        let acc = TcpAcceptorT::bind("127.0.0.1:0").unwrap();
        let mut c = TcpDialer.dial(&acc.addr()).unwrap();
        let mut s = acc.accept_timeout(SEC).unwrap();
        c.tx.send(&Frame::EpochPing { req: 1 }).unwrap();
        assert_eq!(s.rx.recv_timeout(10 * SEC).unwrap(), Frame::EpochPing { req: 1 });
        // The socket is armed with 10 s; a 10 ms call must not inherit it.
        let t0 = Instant::now();
        assert_eq!(s.rx.recv_timeout(Duration::from_millis(10)), Err(NetError::Timeout));
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(10) && waited < SEC, "waited {waited:?}");
        // Same timeout again (nothing to re-arm), then a frame still arrives.
        assert_eq!(s.rx.recv_timeout(Duration::from_millis(10)), Err(NetError::Timeout));
        c.tx.send(&Frame::EpochPing { req: 2 }).unwrap();
        assert_eq!(
            s.rx.recv_timeout(Duration::from_millis(10)).unwrap(),
            Frame::EpochPing { req: 2 }
        );
    }

    #[test]
    fn tcp_close_is_closed_and_refused_is_refused() {
        let acc = TcpAcceptorT::bind("127.0.0.1:0").unwrap();
        let addr = acc.addr();
        let mut c = TcpDialer.dial(&addr).unwrap();
        let s = acc.accept_timeout(SEC).unwrap();
        drop(s);
        assert_eq!(c.rx.recv_timeout(SEC), Err(NetError::Closed));
        drop(acc);
        // The listener is gone; connecting must fail (refused or reset,
        // OS-dependent — either way an error, never a hang).
        assert!(TcpDialer.dial(&addr).is_err());
    }
}
