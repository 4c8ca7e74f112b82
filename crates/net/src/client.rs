//! `RemoteClient`: the caller-side half of the transport — shard-map
//! routing, client-side batch coalescing, retry, and endpoint failover.
//!
//! A `RemoteClient` gives remote callers the exact API (and error
//! semantics) [`ServerHandle`](dini_serve::ServerHandle) gives local
//! ones:
//!
//! * **Routing** — keys route to spans through the same delimiter
//!   binary search (`dini-serve`'s [`ShardRouter`], one level up), and
//!   to one of the span's replica endpoints by power-of-two choices
//!   over each endpoint's depth gauge (keys admitted, not yet answered;
//!   [`ReplicaSelector`] over a [`ReplicaGauge`]) — the identical
//!   machinery `router.rs` runs over a server's replicas.
//! * **Coalescing** — a lookup appends its key to its endpoint's
//!   *outbox*: the open frame, under one short lock. Everything but the
//!   key slot is paid once per frame, so one `Lookup` frame amortises
//!   the per-frame overhead across a batch — the paper's Figure 3
//!   economics, applied to the wire. The caller that has a frame writes
//!   it, by the rule
//!   [`ServerHandle::begin_lookup`](dini_serve::ServerHandle::begin_lookup)
//!   groups by (Nagle's,
//!   turned round): a lookup begun on a handle that holds no unreaped
//!   lookup writes its frame at once; a pipelined one leaves its key in
//!   the open frame, and the caller whose key fills the frame to
//!   `max_batch` writes it; a caller that polls, waits on or drops an
//!   unanswered lookup first writes every open frame holding a key it
//!   began. No lookup waits on a timer, and none on another thread's
//!   wake-up before it leaves.
//! * **One socket, many writers** — an endpoint's sending half sits
//!   behind a mutex in the client core, and whichever thread has a
//!   frame for it writes it: a caller its `Lookup` frames and its
//!   `Quiesce` / `EpochPing` / `StatsRequest`, the endpoint's worker its
//!   retries and `Update` records. A lookup caller never blocks on the
//!   socket: it writes only if the lock is free, and only what the
//!   socket takes at once, and leaves a frame it could not start (and
//!   the unsent tail of one it could) to the endpoint's worker. Frames
//!   leave in lock order, so a control frame stays FIFO with the updates
//!   written before it, and a write held up on one endpoint holds up only
//!   that endpoint's worker and control callers.
//! * **Replies** — one reply cell per frame (`dini-serve`'s pooled
//!   [`ReplyCell`](dini_serve::oneshot::ReplyCell), the server's own): a
//!   pending lookup holds the cell and its key's index in the frame, and
//!   the endpoint reader fills the cell once with the decoded `Reply` and
//!   the span's base rank, waking any parked waiter once per frame. A
//!   duplicated reply frame finds its request no longer in flight and is
//!   dropped, so retry + duplication can never double-answer a lookup.
//!   Retired frames hand their key buffer and cell back to the outbox,
//!   and a cell is reused only once no pending lookup holds it, so a
//!   warmed caller allocates nothing.
//! * **Retry** — a batch unanswered after `retry_timeout` is resent
//!   under the same request id (lookups are idempotent reads); after
//!   `max_retries` the endpoint is declared dead.
//! * **Failover** — a dead endpoint (connection loss, server shutdown
//!   notice, retry exhaustion) marks itself dead *before* re-homing its
//!   in-flight and queued frames, whole, onto the least-loaded surviving
//!   replica endpoint of the same span — the protocol `dini-serve`'s
//!   crashed replicas run, lifted to connections. Only when a span's
//!   last endpoint is gone do callers see
//!   [`ShuttingDown`](ServeError::ShuttingDown).
//! * **Rank composition** — a span's server answers ranks within its
//!   own slice; the client adds the live-key counts of lower spans
//!   (refreshed by epoch pings and quiesce acks), composing global
//!   ranks exactly like the paper's master composes slave ranks.
//! * **Replicated churn** — updates append to a per-span single-writer
//!   log (epoch-stamped, sequence-numbered) on the caller's thread, and
//!   only report `Ok` once a quorum of the span's live endpoints has
//!   acked applying them in order. Each endpoint's worker ships its own
//!   endpoint the suffix it has not been sent, on the wake and socket
//!   its lookups use, and repairs its own endpoint's stalls; the death
//!   path of an endpoint's worker elects (bumps the epoch and replays
//!   laggards' missing suffixes). `SpanLog`'s docs spell out the
//!   protocol. The endpoint reader that receives an `UpdateAck` folds it
//!   into the quorum itself and releases the waiters it covers.

use crate::topology::Topology;
use crate::transport::{Dialer, Duplex, FrameRx, FrameTx, NetError, TrySend};
use crate::wire::{Frame, LookupStatus, StatusCode, WireOp, WIRE_VERSION};
use dini_cluster::LogHistogram;
use dini_flight::{EventKind, FlightJournal};
use dini_obs::{AtomicLogHistogram, MetricsSnapshot, StageRecord, TraceConfig, TraceRing};
use dini_serve::admission::ReplicaGauge;
use dini_serve::clock::dur_ns;
use dini_serve::oneshot::{CellPool, Filler, Unanswered, Waiter};
use dini_serve::{Clock, ClockJoinHandle, Nanos, ReplicaSelector, ServeError, ShardRouter};
use dini_workload::Op;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// The longest an endpoint worker sleeps: it bounds how stale the
/// endpoint's liveness flag and the shutdown flag can get. No request
/// waits it out — lookup callers write their own frames and ring the
/// worker's bell only for what they could not write without blocking,
/// an update rings the bell of every live endpoint of its span, control
/// frames never pass through the worker, and a pending lookup retry or
/// churn-log repair deadline sooner than this is slept to exactly.
const WORKER_POLL: Duration = Duration::from_millis(1);
/// How often an endpoint reader wakes to notice shutdown/death.
const READER_POLL: Duration = Duration::from_millis(10);
/// Retired key buffers, and retired reply cells, an outbox keeps for
/// reuse (each). Past this, a retired one is freed.
const FREE_FRAMES: usize = 64;

/// Client-side knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Max keys in one `Lookup` frame: the caller whose key fills an
    /// endpoint's open frame to this many writes it, and the next key
    /// opens a new one. Lookup frames only: an `Update` frame carries
    /// every record its endpoint has not been sent.
    pub max_batch: usize,
    /// Per-endpoint bound on keys not yet on the wire: those in the open
    /// frame, and those in frames waiting for the endpoint's worker —
    /// frames a caller could not write without blocking, and frames
    /// re-homed from a dead sibling. On a full outbox `begin_lookup`
    /// sheds client-side with `Overloaded`, and `lookup` /
    /// `lookup_many` make room: they write the open frame themselves,
    /// or block (in [`clock`](Self::clock) time) until the worker takes
    /// frames.
    pub queue_capacity: usize,
    /// Resend an unanswered lookup batch after this long.
    pub retry_timeout: Duration,
    /// Consecutive unanswered (re)sends before an endpoint is declared
    /// dead and failed over.
    pub max_retries: u32,
    /// Round-trip budget for control frames (quiesce, epoch ping) per
    /// attempt.
    pub ctrl_timeout: Duration,
    /// Budget for the connect-time `Hello`/`ShardMap` handshake.
    pub handshake_timeout: Duration,
    /// How many quorum-acked churn-log records each span's log retains
    /// *below* its trim watermark. A span process that restarts
    /// from a `dini-store` snapshot rejoins ([`NetHandle::rejoin`]) at
    /// its snapshot's `(epoch, seq)` watermark and is caught up by
    /// replaying this tail; a watermark older than the retained window
    /// cannot be repaired and the endpoint stays dead. Memory cost is
    /// `8 bytes × log_retention` per span, reserved at connect.
    pub log_retention: u64,
    /// The clock all client threads wait on (a
    /// [`SimClock`](dini_serve::SimClock) runs the whole client on
    /// virtual time).
    pub clock: Clock,
    /// Client-side wire tracing: seeded sampling of per-frame
    /// encoded→acked round trips into per-endpoint rings (the `net:`
    /// stages of the end-to-end trace). On by default;
    /// [`TraceConfig::disabled`] turns it off. A sampled batch is also
    /// stamped with a nonzero `trace` id on the wire, so the server's
    /// stage records for that batch join the client's wire record into
    /// one causal timeline ([`dini_obs::causal`]).
    pub trace: TraceConfig,
    /// Crash-safe flight recorder for client lifecycle events
    /// (elections, endpoint death/rejoin, update resends, shed
    /// bursts). `None` (the default) records nothing; with a journal,
    /// every event survives `kill -9` and
    /// [`dini_flight::read_journal`] replays the crash story.
    pub flight: Option<Arc<FlightJournal>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            max_batch: 256,
            queue_capacity: 1024,
            retry_timeout: Duration::from_secs(1),
            max_retries: 8,
            ctrl_timeout: Duration::from_secs(2),
            handshake_timeout: Duration::from_secs(5),
            log_retention: 16_384,
            clock: Clock::system(),
            trace: TraceConfig::default(),
            flight: None,
        }
    }
}

impl ClientConfig {
    /// Panic unless every knob is usable: a frame must hold a key, an
    /// outbox must admit one, and no timeout may be zero (a zero
    /// `retry_timeout` resends on every tick, a zero `ctrl_timeout` or
    /// `handshake_timeout` fails every round trip).
    /// [`RemoteClient::connect`] calls it.
    pub fn validate(&self) {
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(self.queue_capacity >= 1, "queue_capacity must be at least 1");
        assert!(!self.retry_timeout.is_zero(), "retry_timeout must be nonzero");
        assert!(!self.ctrl_timeout.is_zero(), "ctrl_timeout must be nonzero");
        assert!(!self.handshake_timeout.is_zero(), "handshake_timeout must be nonzero");
    }
}

/// Receipt for a control-frame round trip. Live-key payloads are folded
/// into `span_live` by the reader before the waiter is released; a
/// stats poll carries the span's [`MetricsSnapshot`] through to the waiter.
#[derive(Debug, Clone)]
enum CtrlReply {
    /// A bare acknowledgement (update ack, quiesce ack, epoch pong).
    Ack,
    /// A [`Frame::StatsReply`] payload.
    Stats(MetricsSnapshot),
}

/// What an endpoint reader publishes for every key of one frame: the
/// server's per-key results and the span's base rank at reply time. A
/// key past the end of `results` is answered `ShuttingDown` — the whole
/// frame when it was dropped unanswered (empty `results`), the missing
/// tail of a short (corrupt) `Reply`.
#[derive(Debug, Default)]
struct FrameReply {
    base: u32,
    results: Vec<LookupStatus>,
}

impl Unanswered for FrameReply {
    fn unanswered() -> Self {
        Self::default()
    }
}

impl FrameReply {
    fn answer(&self, idx: usize) -> Result<u32, ServeError> {
        match self.results.get(idx) {
            Some(LookupStatus::Rank(r)) => Ok(self.base + r),
            Some(&LookupStatus::Shed(shard)) => {
                Err(ServeError::Overloaded { shard: shard as usize })
            }
            Some(LookupStatus::Shutdown) | None => Err(ServeError::ShuttingDown),
        }
    }
}

/// A replicated update's verdict: `Ok` once quorum-acked.
type UpdateReply = Result<(), ServeError>;

/// One `Lookup` frame on the client side: its keys and the one cell that
/// answers them all. Dropped unanswered — a client shutting down, a
/// failover with no survivor — its filler answers every key
/// `ShuttingDown`, so a waiter is never stranded.
struct OutFrame {
    keys: Vec<u32>,
    reply: Filler<FrameReply>,
}

/// One endpoint's lookups not yet on the wire: the open frame callers
/// append keys to, the whole frames waiting for the endpoint's worker,
/// and the key buffers and cells of retired frames, for new frames to
/// reuse.
struct Outbox {
    state: Mutex<OutboxState>,
    /// Reply cells: a frame's goes back here when the frame is dropped.
    cells: CellPool<FrameReply>,
    /// Where a natively clocked caller blocks on a full outbox (a sim
    /// caller parks in the scheduler instead).
    room: Condvar,
    /// The worker's bell: one token, rung when there is something for
    /// it to write.
    bell: SyncSender<()>,
    /// The span this endpoint serves (what a shed names).
    span: usize,
    capacity: usize,
    max_batch: usize,
    clock: Clock,
}

#[derive(Default)]
struct OutboxState {
    open: Option<OutFrame>,
    /// Whole frames for the worker to write, oldest first: frames a
    /// caller could not write without blocking, and frames re-homed from
    /// a dead sibling.
    for_worker: VecDeque<OutFrame>,
    /// Keys in `open` and `for_worker`: what `queue_capacity` bounds.
    queued: usize,
    /// The worker has exited: nothing more is admitted.
    closed: bool,
    /// Callers blocked in `room`.
    parked: usize,
    admitted: u64,
    shed: u64,
    free_keys: Vec<Vec<u32>>,
}

impl Outbox {
    fn new(span: usize, bell: SyncSender<()>, cfg: &ClientConfig) -> Self {
        let max_batch = cfg.max_batch;
        // Two spare frames from the start (the cell pool starts with two
        // spare cells): a caller opening its next frame finds the one
        // before last retired even while the reader is still retiring the
        // last, so a lone warmed caller never allocates — nor when it
        // leaves a frame it could not write to the worker.
        let state = OutboxState {
            free_keys: (0..2).map(|_| Vec::with_capacity(max_batch)).collect(),
            for_worker: VecDeque::with_capacity(2),
            ..OutboxState::default()
        };
        Self {
            state: Mutex::new(state),
            cells: CellPool::new(FREE_FRAMES, cfg.clock.clone()),
            room: Condvar::new(),
            bell,
            span,
            capacity: cfg.queue_capacity,
            max_batch,
            clock: cfg.clock.clone(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().expect("outbox lock")
    }

    fn ring(&self) {
        // Full means a token is already waiting for the worker.
        let _ = self.bell.try_send(());
    }

    /// Take the open frame out to write it, if `which` is it (any open
    /// frame, for `None`); its keys stop counting against the bound.
    fn take_open(
        &self,
        st: &mut OutboxState,
        which: Option<&Waiter<FrameReply>>,
    ) -> Option<OutFrame> {
        let open = st.open.as_ref()?;
        if which.is_some_and(|cell| !open.reply.fills(cell)) {
            return None;
        }
        let frame = st.open.take().expect("checked above");
        st.queued -= frame.keys.len();
        if st.parked > 0 {
            self.room.notify_all();
        }
        Some(frame)
    }

    /// Block (in clock time) until the worker has taken frames or the
    /// outbox closed.
    fn wait_for_room<'a>(
        &'a self,
        mut st: MutexGuard<'a, OutboxState>,
    ) -> MutexGuard<'a, OutboxState> {
        if let Some(sim) = self.clock.as_sim() {
            drop(st);
            sim.wait_until(|| {
                let st = self.lock();
                (st.queued < self.capacity || st.closed).then_some(())
            });
            return self.lock();
        }
        st.parked += 1;
        st = self.room.wait(st).expect("outbox lock");
        st.parked -= 1;
        st
    }

    /// Move the frames waiting for the worker into `out`, and with
    /// `open_too` the open frame after them.
    fn take(&self, out: &mut VecDeque<OutFrame>, open_too: bool) {
        let mut st = self.lock();
        let st = &mut *st;
        out.extend(st.for_worker.drain(..));
        if open_too {
            out.extend(st.open.take());
        }
        let left = st.open.as_ref().map_or(0, |f| f.keys.len());
        let taken = st.queued - left;
        st.queued = left;
        if st.parked > 0 && taken > 0 {
            self.room.notify_all();
        }
    }

    /// Queue a whole frame for the worker and ring it: `false` (the frame
    /// dropped, answering `ShuttingDown`) once this outbox has closed.
    fn hand_off(&self, frame: OutFrame) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        st.queued += frame.keys.len();
        st.for_worker.push_back(frame);
        drop(st);
        self.ring();
        true
    }

    /// Hand an answered frame's key buffer back for reuse (dropping the
    /// frame hands its cell back to the pool).
    fn retire(&self, mut frame: OutFrame) {
        let mut keys = std::mem::take(&mut frame.keys);
        keys.clear();
        drop(frame);
        let mut st = self.lock();
        if st.free_keys.len() < FREE_FRAMES {
            st.free_keys.push(keys);
        }
    }

    /// The worker has exited: refuse new keys, answer every queued one
    /// `ShuttingDown`, release blocked callers.
    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        let open = st.open.take();
        let for_worker = std::mem::take(&mut st.for_worker);
        st.queued = 0;
        self.room.notify_all();
        drop(st);
        drop((open, for_worker));
    }
}

impl OutboxState {
    /// A new open frame, from retired parts where there are any.
    fn fresh_frame(&mut self, cells: &CellPool<FrameReply>, max_batch: usize) -> OutFrame {
        let keys = self.free_keys.pop().unwrap_or_else(|| Vec::with_capacity(max_batch));
        OutFrame { keys, reply: cells.take() }
    }
}

/// One lookup frame on the wire, awaiting its reply.
struct BatchInFlight {
    frame: OutFrame,
    sent_at: Nanos,
    attempts: u32,
    /// The causal trace id stamped on the frame (0 = unsampled).
    /// Resends reuse it — the timeline follows the request, not the
    /// attempt.
    trace: u64,
}

type InFlight = Arc<Mutex<BTreeMap<u64, BatchInFlight>>>;

/// One connection generation's sending side, as the core holds it: the
/// sending half, the lookup frames written on it and not yet answered
/// (shared with the generation's reader), and the buffer a frame's keys
/// are copied into for the write.
struct Conn {
    tx: Box<dyn FrameTx>,
    in_flight: InFlight,
    wire: Vec<u32>,
}

impl Conn {
    fn new(tx: Box<dyn FrameTx>) -> Self {
        Self { tx, in_flight: Arc::default(), wire: Vec::new() }
    }
}

/// Connect-time plumbing for one endpoint worker: its outbox bell, the
/// dialed connection's receiving half (`None` when the endpoint was
/// unreachable — the worker starts in its dead-wait loop; the sending
/// half is already installed in the core), and the revive route
/// [`NetHandle::rejoin`] hands fresh connections through.
type EndpointPipes = (Receiver<()>, Option<Box<dyn FrameRx>>, Receiver<Duplex>);

/// Client-side accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetClientStats {
    /// Lookup batches resent after a reply timeout.
    pub retries: u64,
    /// Lookups re-homed from a dead endpoint to a surviving replica.
    pub rerouted: u64,
    /// Lookups shed client-side (full endpoint outbox on `begin_lookup`).
    pub client_shed: u64,
    /// Lookups admitted into some endpoint outbox.
    pub admitted: u64,
    /// Churn-log suffixes resent to a lagging replica (repair traffic).
    pub update_resends: u64,
    /// Epoch bumps after an append-target endpoint died (each one
    /// re-elected the longest-log survivor and replayed the laggards'
    /// missing suffix).
    pub elections: u64,
}

struct ClientCore {
    cfg: ClientConfig,
    clock: Clock,
    span_router: ShardRouter,
    selectors: Vec<ReplicaSelector>,
    /// Flat, span-major: `gauges[span_eps[span][i]]` — each endpoint's
    /// depth (keys admitted, not yet answered) and liveness.
    gauges: Vec<ReplicaGauge>,
    /// Each endpoint's outbox, same order.
    outboxes: Vec<Outbox>,
    /// Each endpoint's connection, `None` between connection
    /// generations. Any thread with a frame for the endpoint writes it
    /// under the lock ([`send_frame`](Self::send_frame),
    /// [`write_batch`](Self::write_batch)); a lookup caller only takes a
    /// free lock ([`ship`](Self::ship)). The connect and revive paths
    /// install the slot, and the endpoint's worker clears it.
    conns: Vec<Mutex<Option<Conn>>>,
    span_eps: Vec<Vec<usize>>,
    ep_span: Vec<usize>,
    /// Position of each flat endpoint within its span's endpoint list
    /// (the per-span coordinate the log's cursors run on).
    ep_pos: Vec<usize>,
    /// Per-span reply-cell pools for pending updates.
    upd_pools: Vec<CellPool<UpdateReply>>,
    /// Per-span churn logs, advanced under the lock by whichever thread
    /// has the event: callers (appends, flushes), the span's endpoint
    /// workers (ship, repair, revive, election) and readers (acks).
    logs: Vec<Mutex<SpanLog>>,
    /// The dialer endpoints were connected through, kept for
    /// [`NetHandle::rejoin`]'s re-dial.
    dialer: Box<dyn Dialer>,
    /// Flat endpoint addresses, same order as `gauges` —
    /// [`NetHandle::rejoin`] resolves an address to its endpoint slot.
    ep_addrs: Vec<String>,
    /// Per-endpoint revive routes into the worker's dead-wait loop.
    revive_txs: Vec<SyncSender<Duplex>>,
    /// Live key count per span, refreshed by pings and quiesce acks —
    /// the cross-process half of rank composition.
    span_live: Vec<AtomicU64>,
    ctrl: Mutex<BTreeMap<u64, SyncSender<CtrlReply>>>,
    next_req: AtomicU64,
    shutdown: AtomicBool,
    // ordering: relaxed-ok: retries/rerouted are monotonic counters
    // folded into stats snapshots; readers tolerate staleness. The
    // shutdown flag above stays SeqCst everywhere — cold teardown path.
    retries: AtomicU64,
    rerouted: AtomicU64,
    update_resends: AtomicU64,
    elections: AtomicU64,
    /// Per-frame wire round-trip time (send → reply), nanoseconds.
    wire_rtt: AtomicLogHistogram,
    /// Per-endpoint wire-stage trace rings; each endpoint's reader
    /// thread is its ring's single writer.
    wire_traces: Vec<TraceRing>,
}

impl ClientCore {
    /// Record one lifecycle event in the flight journal, if configured.
    fn flight(&self, kind: EventKind, a: u16, b: u32, c: u64) {
        if let Some(j) = &self.cfg.flight {
            j.record(kind, a, b, c, 0, self.clock.now());
        }
    }

    fn fresh_req(&self) -> u64 {
        // ordering: relaxed-ok: unique request-id counter; atomicity only.
        self.next_req.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Sum of live keys in spans below `span` — the base rank added to
    /// every rank that span's servers return.
    fn span_base(&self, span: usize) -> u32 {
        // ordering: relaxed-ok: the quiesce/ping ctrl reply that refreshed
        // these counts already synchronized with this thread through its
        // reply channel; the load itself needs only atomicity.
        self.span_live[..span].iter().map(|a| a.load(Ordering::Relaxed) as u32).sum()
    }

    fn ctrl_fill(&self, req: u64, reply: CtrlReply) {
        if req == 0 {
            return;
        }
        let waiter = self.ctrl.lock().expect("ctrl lock").remove(&req);
        if let Some(tx) = waiter {
            let _ = tx.send(reply);
        }
    }

    /// Write one frame to endpoint `ep`'s socket, from whichever thread
    /// has it. Frames leave in lock order. `Err` means the frame did
    /// not go out — the endpoint is between connections, or the write
    /// failed, which marks the endpoint dead so its worker's next tick
    /// runs the failover path. A TCP write can block on back-pressure
    /// (bounded by the transport's write timeout); endpoint readers
    /// never send, so the peer's replies keep draining meanwhile.
    fn send_frame(&self, ep: usize, frame: &Frame) -> Result<(), ()> {
        let mut conn = self.conns[ep].lock().expect("conn lock");
        let conn = conn.as_mut().ok_or(())?;
        conn.tx.send(frame).map_err(|_| self.gauges[ep].mark_dead())
    }

    /// Append `key` to endpoint `ep`'s open frame, opening one if there
    /// is none, and write the frame from this thread if `alone` asks for
    /// it or the key filled it. Returns the key's cell and index, and
    /// whether its frame is still open. A full outbox sheds
    /// (`Overloaded`) or, `blocking`, makes room: this thread writes the
    /// open frame, or waits for the worker to take frames.
    fn admit(
        &self,
        ep: usize,
        key: u32,
        blocking: bool,
        alone: bool,
    ) -> Result<(Waiter<FrameReply>, usize, bool), ServeError> {
        let outbox = &self.outboxes[ep];
        let mut guard = outbox.lock();
        while guard.queued >= outbox.capacity && !guard.closed {
            if !blocking {
                guard.shed += 1;
                return Err(ServeError::Overloaded { shard: outbox.span });
            }
            match outbox.take_open(&mut guard, None) {
                Some(frame) => {
                    drop(guard);
                    self.ship(ep, frame);
                    guard = outbox.lock();
                }
                None => guard = outbox.wait_for_room(guard),
            }
        }
        if guard.closed {
            return Err(ServeError::ShuttingDown);
        }
        let st = &mut *guard;
        if st.open.is_none() {
            st.open = Some(st.fresh_frame(&outbox.cells, outbox.max_batch));
        }
        let frame = st.open.as_mut().expect("opened above");
        let idx = frame.keys.len();
        frame.keys.push(key);
        let cell = frame.reply.waiter();
        let full = frame.keys.len() >= outbox.max_batch;
        st.queued += 1;
        st.admitted += 1;
        // Counted before the frame can be written, so the reader's
        // `complete` can never run ahead of it.
        self.gauges[ep].add(1);
        let write = if alone || full { outbox.take_open(st, None) } else { None };
        drop(guard);
        let left_open = write.is_none();
        if let Some(frame) = write {
            self.ship(ep, frame);
        }
        Ok((cell, idx, left_open))
    }

    /// Write endpoint `ep`'s open frame from this thread, if `which` is
    /// it (any open frame, for `None`).
    fn ship_open(&self, ep: usize, which: Option<&Waiter<FrameReply>>) {
        let frame = self.outboxes[ep].take_open(&mut self.outboxes[ep].lock(), which);
        if let Some(frame) = frame {
            self.ship(ep, frame);
        }
    }

    /// Write a lookup frame from a caller's thread, never blocking: only
    /// if the connection's lock is free, and only what the socket takes
    /// at once ([`FrameTx::try_send`]). A frame the caller cannot write —
    /// the connection's lock or its in-flight map is held, the endpoint
    /// is between connections, or the socket still holds an earlier
    /// frame's unsent tail — goes to the endpoint's worker whole, and the
    /// worker writes the unsent tail of one the socket took only part of.
    fn ship(&self, ep: usize, frame: OutFrame) {
        let refused = match self.conns[ep].try_lock() {
            Ok(mut slot) => match slot.as_mut() {
                Some(conn) => self.write_batch(ep, conn, frame, false).unwrap_or(None),
                None => Some(frame),
            },
            Err(_) => Some(frame),
        };
        if let Some(frame) = refused {
            let n = frame.keys.len();
            if !self.outboxes[ep].hand_off(frame) {
                self.gauges[ep].complete(n);
            }
        }
    }

    /// Assign a request id, record the frame in `conn`'s in-flight map
    /// and write it: with the blocking [`FrameTx::send`] (`blocking`, the
    /// worker) or [`FrameTx::try_send`] (a caller). Recorded first, under
    /// the connection's lock, so a reply can never overtake its record,
    /// and a frame whose write fails stays in flight for the death path
    /// to re-home. `Err` means the write failed (the endpoint is marked
    /// dead); `Ok(Some)` hands back a frame a caller could not record or
    /// write without waiting.
    ///
    /// A frame the endpoint's wire-trace ring samples is stamped with a
    /// nonzero trace id (derived from the request id, so both sides of
    /// the wire agree without coordination) and `parent` = the flat
    /// endpoint index — the client span the server's stage records hang
    /// off. The keys go out through `conn.wire`, the connection's
    /// reusable copy: the frame itself stays in flight for a retry or a
    /// failover to resend.
    fn write_batch(
        &self,
        ep: usize,
        conn: &mut Conn,
        frame: OutFrame,
        blocking: bool,
    ) -> Result<Option<OutFrame>, ()> {
        // A caller does not wait for the map either: the reader and the
        // worker hold it only briefly, but may be descheduled meanwhile.
        let map = if blocking {
            Some(conn.in_flight.lock().expect("in-flight lock"))
        } else {
            conn.in_flight.try_lock().ok()
        };
        let Some(mut map) = map else { return Ok(Some(frame)) };
        let req = self.fresh_req();
        let now = self.clock.now();
        // `| 1` keeps a sampled id nonzero (0 means untraced on the wire).
        let trace = if self.wire_traces[ep].sample() {
            req.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
        } else {
            0
        };
        let mut keys = std::mem::take(&mut conn.wire);
        keys.clear();
        keys.extend_from_slice(&frame.keys);
        map.insert(req, BatchInFlight { frame, sent_at: now, attempts: 1, trace });
        drop(map);
        let lookup = Frame::Lookup { req, trace, parent: ep as u32, keys };
        let wrote = if blocking {
            conn.tx.send(&lookup).map(|()| TrySend::Sent)
        } else {
            conn.tx.try_send(&lookup)
        };
        if let Frame::Lookup { keys, .. } = lookup {
            conn.wire = keys;
        }
        match wrote {
            Ok(TrySend::Sent) => Ok(None),
            Ok(TrySend::Tail) => {
                self.outboxes[ep].ring();
                Ok(None)
            }
            Ok(TrySend::Busy) => {
                let b = conn.in_flight.lock().expect("in-flight lock").remove(&req);
                Ok(Some(b.expect("recorded above").frame))
            }
            Err(_) => {
                self.gauges[ep].mark_dead();
                Err(())
            }
        }
    }

    /// Send `make(req)` to endpoint `ep` and wait for its ack, retrying
    /// on per-attempt timeout. Control frames ride the lookup socket, so
    /// they order FIFO with the updates written before them.
    fn ctrl_roundtrip(
        &self,
        ep: usize,
        make: impl Fn(u64) -> Frame,
    ) -> Result<CtrlReply, ServeError> {
        let req = self.fresh_req();
        let (tx, rx) = sync_channel(1);
        self.ctrl.lock().expect("ctrl lock").insert(req, tx);
        let frame = make(req);
        for _ in 0..=self.cfg.max_retries {
            if !self.gauges[ep].is_alive() || self.send_frame(ep, &frame).is_err() {
                break;
            }
            match self.clock.recv_timeout(&rx, self.cfg.ctrl_timeout) {
                Ok(rep) => return Ok(rep),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.ctrl.lock().expect("ctrl lock").remove(&req);
        Err(ServeError::ShuttingDown)
    }

    /// Re-home a frame from dead endpoint `me`, whole, onto the
    /// least-loaded live sibling endpoint of its span (the lowest
    /// position on a tie) — its waiters keep waiting on its cell. A frame
    /// no sibling can take (none alive, or the client shutting down)
    /// drops here, which answers it `ShuttingDown`.
    fn reroute(&self, me: usize, frame: OutFrame) {
        let n = frame.keys.len();
        self.gauges[me].complete(n);
        let target = self.span_eps[self.ep_span[me]]
            .iter()
            .copied()
            .filter(|&e| e != me && self.gauges[e].is_alive())
            .min_by_key(|&e| self.gauges[e].depth());
        if let Some(e) = target {
            // Counted before the frame can be written, as at admission.
            self.gauges[e].add(n);
            if self.outboxes[e].hand_off(frame) {
                self.rerouted.fetch_add(n as u64, Ordering::Relaxed);
            } else {
                self.gauges[e].complete(n);
            }
        }
    }

    /// Run `f` on `span`'s log under its lock, then answer `Ok` every
    /// waiter the quorum watermark now covers — one at a time, each after
    /// the lock is released, so a caller the fill wakes never finds the
    /// log still held by the thread that woke it.
    fn with_log<R>(&self, span: usize, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let out = f(&mut self.logs[span].lock().expect("log lock"));
        loop {
            let next = self.logs[span].lock().expect("log lock").pop_durable();
            let Some(waiter) = next else { return out };
            waiter.fill(Ok(()));
        }
    }

    /// Ring the bell of every live endpoint worker of `span`: there is
    /// churn log for it to ship.
    fn ring_span(&self, span: usize) {
        for &e in &self.span_eps[span] {
            if self.gauges[e].is_alive() {
                self.outboxes[e].ring();
            }
        }
    }

    /// Drain `ep`'s in-flight wire frames and re-home every one.
    fn drain_in_flight(&self, ep: usize, in_flight: &InFlight) {
        let drained = std::mem::take(&mut *in_flight.lock().expect("in-flight lock"));
        for (_, b) in drained {
            self.reroute(ep, b.frame);
        }
    }
}

// ------------------------------------------------------------- threads

/// Why one connection's serve loop ended.
#[derive(PartialEq)]
enum ConnExit {
    /// The client is shutting down (or its core is gone): the worker
    /// itself should exit.
    Teardown,
    /// The endpoint died (send failure, retry exhaustion, or the reader
    /// saw it die): fail over, then wait for a revive.
    Dead,
}

/// The per-endpoint lifecycle thread. Owns the endpoint across
/// connection *generations*: serve the current connection's lookups
/// (the frames callers left it, unsent tails, retries) and its share of
/// the span's churn log (ship, repair) — the sending half lives in the
/// core, where callers write to it too — spawning one reader per
/// generation for the
/// receive half; on endpoint death, mark dead, elect, re-home the
/// backlog, **join the dead generation's reader**, and sit in a
/// dead-wait loop that keeps re-homing racing appends until
/// [`NetHandle::rejoin`] hands in a fresh connection — whose handshake
/// rewinds the endpoint's log cursors to the server's recovered snapshot
/// watermark before the endpoint flips alive again. On its return the
/// thread closes the outbox: what is still queued answers `ShuttingDown`.
///
/// The reader join *before* accepting a revive is load-bearing: a
/// previous generation's reader left polling a closed connection would
/// observe its `Err`, and mark the *revived* endpoint dead.
fn serve_endpoint(
    core: &Arc<ClientCore>,
    ep: usize,
    bell: &Receiver<()>,
    mut conn: Option<Box<dyn FrameRx>>,
    revive_rx: &Receiver<Duplex>,
) {
    let clock = core.clock.clone();
    let mut frames: VecDeque<OutFrame> = VecDeque::new();
    let mut generation = 0u64;
    loop {
        if let Some(frx) = conn.take() {
            generation += 1;
            let in_flight = core.conns[ep]
                .lock()
                .expect("conn lock")
                .as_ref()
                .expect("a sending half is installed before its receiving half is handed over")
                .in_flight
                .clone();
            let reader = {
                let c = core.clone();
                let inf = in_flight.clone();
                clock.spawn(&format!("dini-net-cr-{ep}-g{generation}"), move || {
                    run_reader(c, ep, frx, inf)
                })
            };
            // Flip alive only now: the reader that will drain replies
            // and the worker that will drain the outbox are both wired
            // up, and the sending half was installed before `conn` was
            // handed here. (No-op on generation 1 — the gauge starts
            // alive.)
            core.gauges[ep].revive();
            let exit = serve_conn(core, ep, bell, &in_flight, &mut frames);
            // Mark dead before re-homing (even on teardown — it lets the
            // reader exit on its poll) so nothing re-routes back here,
            // then close the sending half: control frames for a dead
            // connection are refused at `send_frame`, exactly as if sent
            // and lost, and a caller's lookup frame goes to this worker.
            // Every frame a caller recorded in flight was recorded under
            // the slot's lock, so the drain below finds it.
            core.gauges[ep].mark_dead();
            core.conns[ep].lock().expect("conn lock").take();
            if exit == ConnExit::Dead {
                // One record and one election per death, whoever noticed
                // first (reader, repair exhaustion, a failed control round
                // trip, or this worker's send failure) — every dead
                // generation exits through exactly this point.
                let span = core.ep_span[ep];
                core.flight(EventKind::EndpointDead, span as u16, ep as u32, 0);
                let now = clock.now();
                let elected = core.with_log(span, |log| log.elect(core.ep_pos[ep], now));
                if let Some(epoch) = elected {
                    core.elections.fetch_add(1, Ordering::Relaxed);
                    core.flight(EventKind::Election, span as u16, 0, epoch);
                    // The survivors' workers ship the replay at once.
                    core.ring_span(span);
                }
            }
            if exit == ConnExit::Teardown {
                // Dropping the backlog answers its waiters
                // `ShuttingDown`; re-homing at teardown would bounce
                // frames between endpoints that are all dying.
                frames.clear();
                let _ = reader.join();
                return;
            }
            for frame in frames.drain(..) {
                core.reroute(ep, frame);
            }
            core.drain_in_flight(ep, &in_flight);
            let _ = reader.join();
        }
        // Dead wait: re-home racing appends into survivors, watch for a
        // revive.
        loop {
            if core.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if let Ok(duplex) = revive_rx.try_recv() {
                conn = revive_handshake(core, ep, duplex);
                if conn.is_some() {
                    break;
                }
            }
            // Rung or not: the bell's sender lives in the core, so this
            // only ever wakes or times out.
            let _ = clock.recv_timeout(bell, READER_POLL);
            core.outboxes[ep].take(&mut frames, true);
            for frame in frames.drain(..) {
                core.reroute(ep, frame);
            }
        }
    }
}

/// Serve one connection generation until teardown or endpoint death:
/// what the endpoint's lookup callers could not write without blocking,
/// and its churn-log suffix. The worker blocks on its outbox bell — rung
/// by a caller that left it a frame or an unsent tail, and by every
/// append to its span — until the earliest pending deadline (a lookup
/// frame's retry, its endpoint's churn-log repair), or for at most
/// `WORKER_POLL`, which bounds how stale the liveness and shutdown
/// flags can get. Each wake writes the unsent tail and every frame left for it,
/// and every record appended since the last wake in one `Update` frame
/// (group commit). A frame whose write fails stays in flight for the
/// death path to re-home, and the frames not yet written stay in
/// `frames`.
fn serve_conn(
    core: &ClientCore,
    ep: usize,
    bell: &Receiver<()>,
    in_flight: &InFlight,
    frames: &mut VecDeque<OutFrame>,
) -> ConnExit {
    let clock = &core.clock;
    let mut sleep = WORKER_POLL;
    loop {
        if core.shutdown.load(Ordering::SeqCst) {
            return ConnExit::Teardown;
        }
        if !core.gauges[ep].is_alive() {
            return ConnExit::Dead;
        }
        // Rung or timed out, the outbox says what is ready.
        let _ = clock.recv_timeout(bell, sleep);
        core.outboxes[ep].take(frames, false);
        if write_frames(core, ep, frames).is_err() {
            return ConnExit::Dead;
        }
        // One clock read serves the log's and the lookups' deadlines.
        let now = clock.now();
        let Ok(repair) = ship_updates(core, ep, now) else { return ConnExit::Dead };
        let Ok(retry) = check_retries(core, ep, in_flight, now) else { return ConnExit::Dead };
        let due = repair.into_iter().chain(retry).min();
        sleep = due.map_or(WORKER_POLL, |at| {
            Duration::from_nanos(at.saturating_sub(now)).min(WORKER_POLL)
        });
    }
}

/// Handshake a revive connection: `Hello` → `ShardMap`, whose
/// `log_seq` is the restarted server's recovered snapshot watermark.
/// The span log's cursors for this endpoint are positioned there —
/// *before* the caller flips the endpoint alive, so a stale-high ack from
/// the endpoint's previous life can never count toward quorum — and this
/// worker's first ship replays exactly the churn-log suffix the snapshot
/// missed. On success the sending half is installed in the
/// core and the receiving half returned; `None` (endpoint stays dead)
/// on any failure, a wrong-span server, or a watermark the retained
/// log tail no longer reaches.
fn revive_handshake(core: &ClientCore, ep: usize, mut duplex: Duplex) -> Option<Box<dyn FrameRx>> {
    let span = core.ep_span[ep];
    if duplex.tx.send(&Frame::Hello { proto: WIRE_VERSION as u16 }).is_err() {
        return None;
    }
    match duplex.rx.recv_timeout(core.cfg.handshake_timeout) {
        Ok(Frame::ShardMap { my_span, live_keys, log_seq, .. }) => {
            if my_span as usize != span {
                return None; // a different server answered this address
            }
            let now = core.clock.now();
            let revived = core.with_log(span, |log| log.revive(core.ep_pos[ep], log_seq, now));
            if !revived {
                return None;
            }
            // ordering: SeqCst — same control-plane ordering as the
            // reader-thread refreshes of this gauge.
            core.span_live[span].store(live_keys, Ordering::SeqCst);
            core.flight(EventKind::EndpointRejoin, span as u16, ep as u32, log_seq);
            *core.conns[ep].lock().expect("conn lock") = Some(Conn::new(duplex.tx));
            Some(duplex.rx)
        }
        _ => None,
    }
}

/// Write the unsent tail a caller left on endpoint `ep`'s socket, then
/// every frame in `frames`, under one hold of the connection's lock.
/// `Err` means the endpoint is dead; the frames not yet written stay in
/// `frames`.
fn write_frames(core: &ClientCore, ep: usize, frames: &mut VecDeque<OutFrame>) -> Result<(), ()> {
    let mut slot = core.conns[ep].lock().expect("conn lock");
    let conn = slot.as_mut().ok_or(())?;
    conn.tx.flush().map_err(|_| core.gauges[ep].mark_dead())?;
    while let Some(frame) = frames.pop_front() {
        core.write_batch(ep, conn, frame, true)?;
    }
    Ok(())
}

/// Resend overdue frames (same request id: replies are deduplicated by
/// the in-flight map), and say when the next one falls due. A frame
/// past `max_retries` fails the whole endpoint — per-frame surrender
/// would strand its sibling frames on a connection that is clearly gone.
fn check_retries(
    core: &ClientCore,
    ep: usize,
    in_flight: &InFlight,
    now: Nanos,
) -> Result<Option<Nanos>, ()> {
    let timeout = dur_ns(core.cfg.retry_timeout);
    let mut resend: Vec<(u64, u64, Vec<u32>)> = Vec::new();
    let mut due = None;
    {
        let mut map = in_flight.lock().expect("in-flight lock");
        for (req, b) in map.iter_mut() {
            if now.saturating_sub(b.sent_at) >= timeout {
                if b.attempts > core.cfg.max_retries {
                    return Err(()); // endpoint unresponsive: fail over
                }
                b.attempts += 1;
                b.sent_at = now;
                resend.push((*req, b.trace, b.frame.keys.clone()));
            }
            let at = b.sent_at + timeout;
            due = Some(due.map_or(at, |d: Nanos| d.min(at)));
        }
    }
    for (req, trace, keys) in resend {
        core.retries.fetch_add(1, Ordering::Relaxed);
        // The resend reuses the original trace id: causally it is the
        // same request, and the reply joins whichever attempt answered.
        core.send_frame(ep, &Frame::Lookup { req, trace, parent: ep as u32, keys })?;
    }
    Ok(due)
}

/// Ship endpoint `ep` the churn-log suffix it has not been sent — every
/// record appended since this worker's last wake, in one `Update` frame —
/// after repairing a stall ([`SpanLog::ship`]). The frame is built under
/// the log lock and written after it is released, so a write held up by
/// TCP back-pressure keeps no reader from folding an ack and no caller
/// from appending. `Ok` carries when the endpoint's next repair falls
/// due, if its acks trail what it was sent. `Err` means the endpoint is
/// dead: the write failed, or it stalled through its repair budget.
fn ship_updates(core: &ClientCore, ep: usize, now: Nanos) -> Result<Option<Nanos>, ()> {
    let span = core.ep_span[ep];
    let (shipped, due) = {
        let mut log = core.logs[span].lock().expect("log lock");
        let shipped = log.ship(core.ep_pos[ep], now);
        (shipped, log.repair_due(core.ep_pos[ep]))
    };
    match shipped {
        Ship::Idle => Ok(due),
        Ship::Dead => Err(()),
        Ship::Suffix { epoch, seq, ops, resend } => {
            if resend {
                core.update_resends.fetch_add(1, Ordering::Relaxed);
                core.flight(EventKind::UpdateResend, span as u16, ep as u32, seq);
            }
            let req = core.fresh_req();
            core.send_frame(ep, &Frame::Update { req, epoch, seq, trace: 0, parent: 0, ops })?;
            Ok(due)
        }
    }
}

/// What [`SpanLog::ship`] asks of an endpoint's worker.
enum Ship {
    /// Nothing unsent, no stall to repair.
    Idle,
    /// Send `ops`, records `seq..`, stamped `epoch`; `resend` when a
    /// stall rewound the endpoint's cursor first (repair traffic).
    Suffix { epoch: u64, seq: u64, ops: Vec<WireOp>, resend: bool },
    /// The endpoint's acks stalled through `max_retries` repairs: it is
    /// dead.
    Dead,
}

/// One span's replicated churn log: the state behind the span's single
/// sequencer (neon-safekeeper shape, one level down), and the whole of
/// its protocol. It holds no socket, clock, counter or thread: each
/// method takes the instant and the liveness its step depends on and
/// returns what to send or whom to release, and the thread that has the
/// event calls it under the span's lock and does the I/O — socket
/// writes, and waking the callers an ack released
/// ([`ClientCore::with_log`]) — after releasing it.
///
/// Callers append epoch-stamped, sequence-numbered records
/// ([`append`](Self::append)); each live endpoint's worker takes the
/// suffix its endpoint has not yet been sent ([`ship`](Self::ship)); a
/// record's waiter resolves only once a **quorum** (majority of the
/// span's live endpoints) has acked its sequence ([`ack`](Self::ack),
/// folded by the endpoint reader that received it). Replicas apply
/// strictly in order from a per-connection cursor, so an acked record is
/// applied — never reordered, never silently lost.
///
/// Failure handling:
/// * a lagging endpoint (acks stalled past `retry_timeout`) gets the
///   suffix past its ack point resent (`update_resends`) by its own
///   worker; after `max_retries` stalls it is declared dead;
/// * an endpoint death bumps the epoch (`elections`,
///   [`elect`](Self::elect), run by the dead endpoint's worker) and
///   rewinds every survivor's send cursor to its ack point, replaying
///   the suffix the laggards are missing — the surviving longest log
///   wins by construction, because the sequencer never moved;
/// * a span with no live endpoint left fails all pending appends
///   `ShuttingDown` — but **keeps its log tail** (see below), because a
///   snapshot-restarted server can still rejoin and be caught up.
///
/// The log is trimmed `log_retention` records below the minimum live
/// ack (not *at* it): the retained tail is the replay window a
/// [`NetHandle::rejoin`]ed endpoint catches up from. Sequences are
/// never reused — a record that once occupied a sequence is the only
/// record that ever will, so replaying the tail to a replica that
/// already folded part of it is safe (in-order apply trims duplicates;
/// membership ops are idempotent) while *reissuing* a sequence with
/// different content could silently diverge a checkpointed replica.
struct SpanLog {
    epoch: u64,
    /// Sequences <= base are trimmed; `ops[i]` is record `base + 1 + i`.
    base: u64,
    ops: VecDeque<WireOp>,
    /// Per endpoint (by position in the span's endpoint list): the
    /// highest sequence acked and sent, when it last made progress, and
    /// how many repair resends it has stalled through.
    acked: Vec<u64>,
    sent: Vec<u64>,
    progress_at: Vec<Nanos>,
    tries: Vec<u32>,
    /// Which endpoints the quorum counts: set when an endpoint's
    /// connection comes up, cleared by its election.
    alive: Vec<bool>,
    /// Pending appends by sequence; an entry dropped unanswered
    /// answers `ShuttingDown`.
    waiters: VecDeque<(u64, Filler<UpdateReply>)>,
    /// The quorum watermark as of the last settle: a majority of the
    /// live endpoints has acked every sequence up to it.
    durable: u64,
    /// Pending flushes (the pre-barrier half of `quiesce`) by target
    /// sequence, answered like appends.
    flushes: Vec<(u64, Filler<UpdateReply>)>,
    /// [`settle`](Self::settle)'s scratch: the live endpoints' acks,
    /// sized to the span's endpoints up front so settling allocates
    /// nothing.
    live_acks: Vec<u64>,
    /// `log_retention`.
    retention: u64,
    /// `retry_timeout`: how long unacked records may sit before a repair.
    repair_after: Nanos,
    /// `max_retries`: repairs an endpoint may stall through.
    max_repairs: u32,
}

impl SpanLog {
    fn new(alive: Vec<bool>, now: Nanos, cfg: &ClientConfig) -> Self {
        let n = alive.len();
        Self {
            epoch: 1,
            base: 0,
            // The retained tail is the log's steady-state size: reserving
            // it keeps appends, which run on callers' threads, from
            // growing it.
            ops: VecDeque::with_capacity(cfg.log_retention as usize),
            acked: vec![0; n],
            sent: vec![0; n],
            progress_at: vec![now; n],
            tries: vec![0; n],
            alive,
            waiters: VecDeque::new(),
            durable: 0,
            flushes: Vec::new(),
            live_acks: Vec::with_capacity(n),
            retention: cfg.log_retention,
            repair_after: dur_ns(cfg.retry_timeout),
            max_repairs: cfg.max_retries,
        }
    }

    /// Sequence of the newest record.
    fn head(&self) -> u64 {
        self.base + self.ops.len() as u64
    }

    /// Append one record; `reply` resolves once it is quorum-acked.
    fn append(&mut self, op: WireOp, reply: Filler<UpdateReply>) {
        self.ops.push_back(op);
        self.waiters.push_back((self.head(), reply));
    }

    /// Answer `reply` once every *live* endpoint has acked everything
    /// appended so far (at once if they already have).
    fn flush(&mut self, reply: Filler<UpdateReply>) {
        self.flushes.push((self.head(), reply));
        self.settle();
    }

    /// Endpoint `pos`'s next frame: first repair a stall (acks stuck
    /// short of what was sent for `retry_timeout` since its last
    /// progress rewind its cursor to its ack point; `max_retries` such
    /// repairs and it is [`Dead`](Ship::Dead)), then hand out every
    /// record it has not been sent and advance its cursor to the head.
    fn ship(&mut self, pos: usize, now: Nanos) -> Ship {
        if !self.alive[pos] {
            return Ship::Idle;
        }
        let mut resend = false;
        if self.acked[pos] < self.sent[pos]
            && now.saturating_sub(self.progress_at[pos]) >= self.repair_after
        {
            if self.tries[pos] >= self.max_repairs {
                return Ship::Dead;
            }
            self.tries[pos] += 1;
            self.progress_at[pos] = now;
            self.sent[pos] = self.acked[pos];
            resend = true;
        }
        let head = self.head();
        if self.sent[pos] >= head {
            return Ship::Idle;
        }
        if self.sent[pos] == self.acked[pos] {
            // Nothing was outstanding: the stall clock starts with this
            // send, not at the last ack.
            self.progress_at[pos] = now;
        }
        // Everything below `base` is trimmed away — a cursor under it
        // belongs to a replica the revive path refused.
        let from = self.sent[pos].max(self.base);
        let ops = self.ops.range((from - self.base) as usize..).copied().collect();
        // A frame that then fails to go out kills its endpoint, whose
        // election rewinds the survivors; a revive resets this cursor.
        self.sent[pos] = head;
        Ship::Suffix { epoch: self.epoch, seq: from + 1, ops, resend }
    }

    /// When endpoint `pos`'s stall repair falls due, if its acks trail
    /// what it was sent: [`ship`](Self::ship) rewinds it then.
    fn repair_due(&self, pos: usize) -> Option<Nanos> {
        (self.alive[pos] && self.acked[pos] < self.sent[pos])
            .then(|| self.progress_at[pos] + self.repair_after)
    }

    /// Endpoint `pos` died: bump the epoch and rewind every survivor's
    /// send cursor to its ack point, so each survivor's next
    /// [`ship`](Self::ship) replays whatever suffix it is missing. (The
    /// longest-log survivor needs no catch-up: its rewind re-sends
    /// nothing it has already acked.) Returns the new epoch, or `None`
    /// when the quorum already did not count `pos` — one election per
    /// death.
    fn elect(&mut self, pos: usize, now: Nanos) -> Option<u64> {
        if !std::mem::replace(&mut self.alive[pos], false) {
            return None;
        }
        self.epoch += 1;
        for p in 0..self.alive.len() {
            if self.alive[p] {
                self.sent[p] = self.acked[p];
                self.progress_at[p] = now;
                self.tries[p] = 0;
            }
        }
        self.settle();
        Some(self.epoch)
    }

    /// Fold in an `UpdateAck`: endpoint `pos` has applied the log
    /// through `seq`, and settle what that covers. The ack's epoch is
    /// dropped at the reader — sequences are global (one sequencer,
    /// records immutable per seq), so a seq means the same thing in
    /// every epoch.
    fn ack(&mut self, pos: usize, seq: u64, now: Nanos) {
        // An honest ack never exceeds the log head; clamping keeps a
        // stray or corrupt one from dragging the trim watermark past
        // the log it indexes.
        let seq = seq.min(self.head());
        if seq > self.acked[pos] {
            self.acked[pos] = seq;
            self.progress_at[pos] = now;
            self.tries[pos] = 0;
        }
        self.settle();
    }

    /// `pos`'s server restarted from a snapshot whose watermark is
    /// `seq` — everything at or below is folded in, everything above
    /// must be replayed. Both cursors land exactly there (clamped to
    /// the head — a server that folded records this log already trimmed
    /// acks of is simply up to date), the quorum counts `pos` again, and
    /// its next ship sends precisely the suffix the snapshot missed.
    /// `false` when that suffix starts below the retained tail: the
    /// endpoint cannot be caught up from this log and must stay dead — a
    /// future snapshot on its side (with a fresher watermark) can still
    /// rejoin.
    fn revive(&mut self, pos: usize, seq: u64, now: Nanos) -> bool {
        if seq < self.base {
            return false;
        }
        let seq = seq.min(self.head());
        self.acked[pos] = seq;
        self.sent[pos] = seq;
        self.tries[pos] = 0;
        self.progress_at[pos] = now;
        self.alive[pos] = true;
        self.settle();
        true
    }

    /// Take the next waiter the quorum watermark covers, to be answered
    /// `Ok` once the log's lock is released ([`ClientCore::with_log`]).
    fn pop_durable(&mut self) -> Option<Filler<UpdateReply>> {
        let covered = self.waiters.front().is_some_and(|&(seq, _)| seq <= self.durable);
        covered.then(|| self.waiters.pop_front().expect("non-empty: just peeked").1)
    }

    /// Fold what the acks now cover: advance the quorum watermark
    /// waiters are released up to, resolve flushes up to the slowest
    /// live endpoint, and trim.
    fn settle(&mut self) {
        self.live_acks.clear();
        self.live_acks.extend(
            self.acked
                .iter()
                .zip(&self.alive)
                .filter_map(|(&acked, &alive)| alive.then_some(acked)),
        );
        self.live_acks.sort_unstable_by(|a, b| b.cmp(a));
        // With no live endpoint no quorum is reachable: fail the
        // pending appends (their outcome is *unknown* — some replica
        // may have applied them before dying, and a revived endpoint
        // may yet replay them; membership ops are idempotent, so
        // at-least-once is safe) but keep the retained tail, measured
        // from the head — a snapshot-restarted server rejoins through
        // this very log, and re-issuing a consumed sequence with
        // different content could silently diverge a replica that
        // checkpointed the original.
        let Some(&min_live) = self.live_acks.last() else {
            self.waiters.clear();
            self.flushes.clear();
            self.trim(self.head().saturating_sub(self.retention));
            return;
        };
        // A record is durable once a majority of the span's live
        // endpoints has acked it.
        self.durable = self.live_acks[self.live_acks.len() / 2];
        // A flush resolves only when *every* live endpoint has acked
        // its target — stronger than quorum, because the quiesce
        // barrier that follows it must find all replicas caught up.
        self.flushes.retain(|(target, reply)| {
            if *target <= min_live {
                reply.fill(Ok(()));
            }
            *target > min_live
        });
        // Retain `log_retention` records *below* the fully-acked
        // watermark — the replay window a snapshot-restarted endpoint
        // catches up from when it rejoins.
        self.trim(min_live.saturating_sub(self.retention));
    }

    fn trim(&mut self, keep_from: u64) {
        if keep_from > self.base {
            self.ops.drain(..(keep_from - self.base) as usize);
            self.base = keep_from;
        }
    }
}

/// The per-endpoint receiver: match replies to in-flight frames, fill
/// each frame's reply cell (with the span's base rank), hand the frame's
/// parts back to the outbox, and detect endpoint death. Owns the
/// connection's receive half.
fn run_reader(core: Arc<ClientCore>, ep: usize, mut rx: Box<dyn FrameRx>, in_flight: InFlight) {
    let span = core.ep_span[ep];
    loop {
        if core.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match rx.recv_timeout(READER_POLL) {
            Ok(Frame::Reply { req, trace: _, parent: _, results }) => {
                // A duplicate (or retried-and-answered-twice) reply
                // finds no entry and is dropped here — the "no
                // duplicated replies" half of the retry contract.
                let Some(b) = in_flight.lock().expect("in-flight lock").remove(&req) else {
                    continue;
                };
                let served = b.frame.keys.len();
                // Wire stages: `sent_at` is the frame's encode/send
                // instant (refreshed on retry, so a retried frame
                // reports its *answered* attempt's round trip). The
                // sampling decision was made at send time (it chose the
                // frame's trace id); a nonzero id means record.
                let acked = core.clock.now();
                core.wire_rtt.record(acked.saturating_sub(b.sent_at));
                if b.trace != 0 {
                    core.wire_traces[ep].push(&StageRecord {
                        trace: b.trace,
                        shard: span as u16,
                        replica: ep as u16,
                        batch_len: served as u32,
                        encoded_ns: b.sent_at,
                        acked_ns: acked,
                        ..StageRecord::default()
                    });
                }
                let sheds = results
                    .iter()
                    .take(served)
                    .filter(|r| matches!(r, LookupStatus::Shed(_)))
                    .count();
                // One fill answers the frame: key `i` reads `results[i]`
                // (a short list answers its missing tail ShuttingDown).
                b.frame.reply.fill(FrameReply { base: core.span_base(span), results });
                if sheds > 0 {
                    core.flight(EventKind::ShedBurst, span as u16, sheds as u32, 0);
                }
                core.gauges[ep].complete(served);
                core.outboxes[ep].retire(b.frame);
            }
            Ok(Frame::UpdateAck { req: _, epoch: _, seq }) => {
                // Update acks feed the span's log (quorum tracking),
                // not the ctrl waiter map: the ack's meaning is its log
                // position, not its request id. This thread folds it
                // and releases the waiters it covers — no hand-off.
                let now = core.clock.now();
                core.with_log(span, |log| log.ack(core.ep_pos[ep], seq, now));
            }
            Ok(Frame::QuiesceAck { req, live_keys, snapshots: _ })
            | Ok(Frame::EpochPong { req, live_keys, snapshots: _ }) => {
                // ordering: SeqCst — the refreshed live count must be
                // ordered before the ctrl reply below releases the caller
                // that requested it (rank composition reads it next).
                core.span_live[span].store(live_keys, Ordering::SeqCst);
                core.ctrl_fill(req, CtrlReply::Ack);
            }
            Ok(Frame::StatsReply { req, metrics }) => {
                core.ctrl_fill(req, CtrlReply::Stats(metrics));
            }
            Ok(Frame::Status { code: StatusCode::ShuttingDown }) | Err(NetError::Closed) => {
                // Endpoint gone: mark dead before draining so reroutes
                // can't land back here, then re-home the wire batches.
                // The worker notices the flag and drains the submit
                // queue side.
                core.gauges[ep].mark_dead();
                core.drain_in_flight(ep, &in_flight);
                return;
            }
            Ok(_) => {} // server-bound frames: protocol noise, ignore
            Err(NetError::Timeout) => {
                if !core.gauges[ep].is_alive() {
                    return;
                }
            }
            Err(_) => {
                core.gauges[ep].mark_dead();
                core.drain_in_flight(ep, &in_flight);
                return;
            }
        }
    }
}

// -------------------------------------------------------------- client

/// A lookup submitted over the transport, not yet answered. Same
/// contract as [`dini_serve::PendingLookup`]: block with
/// [`wait`](Self::wait) or reap with [`poll`](Self::poll). Polling or
/// waiting while it is unanswered first writes every open frame holding
/// a key its handle began; dropping it unanswered writes its own frame
/// if that is still open, so no key is stranded in an open frame.
pub struct PendingNetLookup {
    /// The reply cell of the frame the key travels in.
    cell: Waiter<FrameReply>,
    /// The key's position in that frame.
    idx: usize,
    /// The endpoint the frame goes to.
    ep: usize,
    /// Its handle's: held, it keeps the handle from reading idle.
    caller: Arc<Caller>,
}

impl PendingNetLookup {
    /// Block for the (globally composed) rank.
    pub fn wait(self) -> Result<u32, ServeError> {
        if self.cell.poll().is_none() {
            self.caller.flush();
        }
        self.cell.wait().answer(self.idx)
    }

    /// The rank if it has arrived, `None` while in flight.
    pub fn poll(&self) -> Option<Result<u32, ServeError>> {
        if self.cell.poll().is_none() {
            self.caller.flush();
        }
        self.cell.poll().map(|reply| reply.answer(self.idx))
    }
}

impl Drop for PendingNetLookup {
    fn drop(&mut self) {
        if self.cell.poll().is_none() {
            self.caller.core.ship_open(self.ep, Some(&self.cell));
        }
    }
}

impl std::fmt::Debug for PendingNetLookup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingNetLookup")
            .field("cell", &self.cell)
            .field("idx", &self.idx)
            .field("ep", &self.ep)
            .finish_non_exhaustive()
    }
}

/// An update appended to a span's replicated churn log, not yet
/// quorum-acked. [`wait`](Self::wait) blocks for the durability verdict.
#[derive(Debug)]
pub struct PendingNetUpdate {
    /// The update's reply cell; `None` for an `Op::Query`, which is
    /// answered `Ok` on the spot.
    cell: Option<Waiter<UpdateReply>>,
}

impl PendingNetUpdate {
    /// Block until the record is quorum-acked (`Ok`) or the span can no
    /// longer reach a quorum (`Err`).
    pub fn wait(self) -> Result<(), ServeError> {
        self.cell.map_or(Ok(()), |cell| *cell.wait())
    }

    /// The verdict if it has arrived, `None` while still replicating.
    pub fn poll(&self) -> Option<Result<(), ServeError>> {
        self.cell.as_ref().map_or(Some(Ok(())), |cell| cell.poll().copied())
    }
}

/// What a [`NetHandle`] shares with the lookups it began: the client,
/// and which endpoints' open frames hold a key it began and has not
/// written. Every [`PendingNetLookup`] holds it, so a handle whose
/// `Caller` is held by nothing else holds no unreaped lookup.
struct Caller {
    core: Arc<ClientCore>,
    /// Per endpoint: a key this handle began was left in the open frame.
    open: Vec<AtomicBool>,
}

impl Caller {
    fn new(core: Arc<ClientCore>) -> Arc<Self> {
        let open = core.gauges.iter().map(|_| AtomicBool::new(false)).collect();
        Arc::new(Self { core, open })
    }

    /// Write every open frame holding a key this handle began.
    fn flush(&self) {
        for (ep, open) in self.open.iter().enumerate() {
            // Acquire pairs with the release in `enqueue`: the key that
            // set the flag is in the outbox this thread then locks.
            if open.load(Ordering::Acquire) && open.swap(false, Ordering::Acquire) {
                self.core.ship_open(ep, None);
            }
        }
    }
}

/// A cheap, cloneable caller handle onto a [`RemoteClient`] (the
/// transport analogue of [`dini_serve::ServerHandle`]). Clones carry
/// their own routing tick, and the frame rule of
/// [`begin_lookup`](Self::begin_lookup) counts only the lookups begun
/// on the clone itself; they can be moved to other threads.
pub struct NetHandle {
    caller: Arc<Caller>,
    tick: AtomicU64,
}

impl Clone for NetHandle {
    fn clone(&self) -> Self {
        Self { caller: Caller::new(self.caller.core.clone()), tick: AtomicU64::new(0) }
    }
}

impl NetHandle {
    /// Admit `key` to an endpoint of its span. With `alone_if_idle`, a
    /// key begun while this handle holds no unreaped lookup has its frame
    /// written at once; any other key waits in the open frame for the
    /// frame to fill, or for this handle to poll, wait on or drop a
    /// lookup.
    fn enqueue(
        &self,
        key: u32,
        blocking: bool,
        alone_if_idle: bool,
    ) -> Result<PendingNetLookup, ServeError> {
        let core = &self.caller.core;
        let span = core.span_router.route(key);
        let eps = &core.span_eps[span];
        // ordering: relaxed-ok: per-handle rotation phase; atomicity only.
        // A lone endpoint needs no rotation, so it skips the RMW.
        let tick = if eps.len() == 1 { 0 } else { self.tick.fetch_add(1, Ordering::Relaxed) };
        let Some(choice) = core.selectors[span].select(tick, |i| core.gauges[eps[i]].probe())
        else {
            return Err(ServeError::ShuttingDown);
        };
        let ep = eps[choice];
        let alone = alone_if_idle && Arc::strong_count(&self.caller) == 1;
        let (cell, idx, left_open) = core.admit(ep, key, blocking, alone)?;
        if left_open {
            // Release pairs with the acquire in `Caller::flush`: the key
            // is in the open frame before the flag says so.
            self.caller.open[ep].store(true, Ordering::Release);
        }
        Ok(PendingNetLookup { cell, idx, ep, caller: self.caller.clone() })
    }

    /// Rank of `key` across the whole cluster, blocking while the
    /// chosen endpoint's outbox is full.
    pub fn lookup(&self, key: u32) -> Result<u32, ServeError> {
        self.enqueue(key, true, true)?.wait()
    }

    /// Submit without waiting (sheds on a full endpoint outbox). One
    /// rule decides when the key's frame is written — Nagle's, turned
    /// round, as [`ServerHandle::begin_lookup`] groups:
    ///
    /// * **Alone, at once.** If this handle holds no lookup it began and
    ///   has not reaped, the key's frame — the endpoint's open frame,
    ///   with whatever other handles left in it — is written before this
    ///   returns.
    /// * **Pipelined, in a frame.** Otherwise the key joins the
    ///   endpoint's open frame, which is written by the caller whose key
    ///   fills it to `max_batch`, or by this handle's next poll, wait or
    ///   drop of an unanswered lookup, whichever comes first.
    ///
    /// A frame is written on the calling thread without blocking; what
    /// the socket will not take at once goes to the endpoint's worker.
    ///
    /// [`ServerHandle::begin_lookup`]: dini_serve::ServerHandle::begin_lookup
    pub fn begin_lookup(&self, key: u32) -> Result<PendingNetLookup, ServeError> {
        self.enqueue(key, false, true)
    }

    /// Rank every key, preserving order; appends everything first so the
    /// slice coalesces into few frames.
    pub fn lookup_many(&self, keys: &[u32]) -> Result<Vec<u32>, ServeError> {
        let mut replies = Vec::with_capacity(keys.len());
        for &k in keys {
            replies.push(self.enqueue(k, true, false)?);
        }
        replies.into_iter().map(PendingNetLookup::wait).collect()
    }

    /// Append one churn operation to the owning span's replicated log
    /// without waiting; the returned [`PendingNetUpdate`] resolves once
    /// the record is quorum-acked. `Op::Query` resolves immediately.
    ///
    /// Never blocks: the record is appended on this thread, under the
    /// span's log lock, and the span's live endpoint workers are rung to
    /// ship it. A span with no live endpoint refuses it at once
    /// (`ShuttingDown`), as does a client that has shut down.
    pub fn begin_update(&self, op: Op) -> Result<PendingNetUpdate, ServeError> {
        let core = &self.caller.core;
        let (key, wire_op) = match op {
            Op::Insert(k) => (k, WireOp::Insert(k)),
            Op::Delete(k) => (k, WireOp::Delete(k)),
            Op::Query(_) => {
                // Accepted-and-ignored, pre-resolved: whole ChurnGen
                // streams feed through unfiltered, as locally.
                return Ok(PendingNetUpdate { cell: None });
            }
        };
        let span = core.span_router.route(key);
        let reply = core.upd_pools[span].take();
        let cell = Some(reply.waiter());
        // Liveness is read under the log's lock: a client shut down has
        // every gauge dead before it fails what is pending under this
        // lock, so a record is either refused here or failed there.
        let appended =
            core.with_log(span, |log| self.span_alive(span).then(|| log.append(wire_op, reply)));
        appended.ok_or(ServeError::ShuttingDown)?;
        core.ring_span(span);
        Ok(PendingNetUpdate { cell })
    }

    /// Apply one churn operation through the owning span's replicated
    /// log, blocking until a **quorum** (majority of the span's live
    /// endpoints) has acknowledged applying it in log order.
    ///
    /// # Errors
    ///
    /// `Ok(())` means the record is durably applied on a quorum and
    /// will survive any single endpoint failure; `Err(ShuttingDown)`
    /// means the span could not reach a quorum and the op must be
    /// considered not applied. There is no silent third state — this is
    /// the contract change from the fire-and-forget broadcast, whose
    /// `Ok` meant only "one send was queued".
    pub fn update(&self, op: Op) -> Result<(), ServeError> {
        self.begin_update(op)?.wait()
    }

    /// Barrier: every previously appended update is applied and
    /// published on every live endpoint of every span, and the client's
    /// cross-span base ranks are refreshed from the acks.
    ///
    /// Two phases per span: first a log **flush** (all live endpoints
    /// caught up to the log head — their workers repair or bury
    /// laggards), then a `Quiesce` round trip per endpoint so each
    /// publishes what it applied. An endpoint that stops answering
    /// mid-barrier is marked dead and the barrier proceeds with the
    /// survivors; only a span with no live endpoint left fails the
    /// barrier.
    pub fn quiesce(&self) -> Result<(), ServeError> {
        let core = &self.caller.core;
        for span in 0..core.span_eps.len() {
            let reply = core.upd_pools[span].take();
            let flushed = reply.waiter();
            core.logs[span].lock().expect("log lock").flush(reply);
            (*flushed.wait())?;
            let mut reached = false;
            for &e in &core.span_eps[span] {
                if !core.gauges[e].is_alive() {
                    continue;
                }
                match core.ctrl_roundtrip(e, |req| Frame::Quiesce { req }) {
                    Ok(_) => reached = true,
                    // A failed round trip is this endpoint's failure,
                    // not the barrier's: bury it (its backlog re-homes
                    // through the usual death path) and carry on with
                    // the span's survivors.
                    Err(_) => core.gauges[e].mark_dead(),
                }
            }
            if !reached {
                return Err(ServeError::ShuttingDown);
            }
        }
        Ok(())
    }

    /// Refresh every span's live-key count (and therefore the base
    /// ranks) with epoch pings — cheaper than [`quiesce`](Self::quiesce),
    /// no barrier.
    pub fn refresh(&self) -> Result<(), ServeError> {
        let core = &self.caller.core;
        for span in 0..core.span_eps.len() {
            let mut reached = false;
            for &e in &core.span_eps[span] {
                if !core.gauges[e].is_alive() {
                    continue;
                }
                if core.ctrl_roundtrip(e, |req| Frame::EpochPing { req }).is_ok() {
                    reached = true;
                    break;
                }
            }
            if !reached {
                return Err(ServeError::ShuttingDown);
            }
        }
        Ok(())
    }

    /// Total live keys across all spans, as of the last refresh.
    pub fn live_keys(&self) -> u64 {
        // ordering: relaxed-ok: advisory total for reporting; staleness
        // only lags the gauge, it cannot corrupt routing or ranks.
        self.caller.core.span_live.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Number of spans in the shard map.
    pub fn n_spans(&self) -> usize {
        self.caller.core.span_eps.len()
    }

    /// Which span serves `key` (the client's own routing, exposed for
    /// oracles).
    pub fn span_of(&self, key: u32) -> usize {
        self.caller.core.span_router.route(key)
    }

    /// Is any endpoint of `span` still alive?
    pub fn span_alive(&self, span: usize) -> bool {
        let core = &self.caller.core;
        core.span_eps[span].iter().any(|&e| core.gauges[e].is_alive())
    }

    /// Is the endpoint at `addr` (as listed in the connect-time shard
    /// map) currently alive?
    pub fn endpoint_alive(&self, addr: &str) -> bool {
        let core = &self.caller.core;
        core.ep_addrs.iter().position(|a| a == addr).is_some_and(|ep| core.gauges[ep].is_alive())
    }

    /// Reconnect a dead endpoint whose server came back — typically a
    /// span process restarted from its `dini-store` snapshot
    /// ([`NetServer::restart`](crate::NetServer::restart)). Dials the
    /// address and hands the fresh connection to the endpoint's worker,
    /// which handshakes it: the server's `ShardMap` carries its
    /// recovered churn-log watermark, the worker rewinds this endpoint's
    /// log cursors there, ships the retained log suffix, and the
    /// endpoint rejoins quorum, lookups, and barriers exactly caught up.
    ///
    /// Returns once the connection is handed off (the handshake and
    /// catch-up run on the worker); poll
    /// [`endpoint_alive`](Self::endpoint_alive) to observe the rejoin
    /// completing. An already-alive endpoint is a no-op. Errors are the
    /// dial's; a failed handshake leaves the endpoint dead, to try
    /// again.
    pub fn rejoin(&self, addr: &str) -> Result<(), NetError> {
        let core = &self.caller.core;
        let Some(ep) = core.ep_addrs.iter().position(|a| a == addr) else {
            return Err(NetError::Refused(format!("{addr} is not in the shard map")));
        };
        if core.gauges[ep].is_alive() {
            return Ok(());
        }
        let duplex = core.dialer.dial(addr)?;
        core.revive_txs[ep].send(duplex).map_err(|_| NetError::Closed)?;
        Ok(())
    }

    /// The clock this client waits on.
    pub fn clock(&self) -> &Clock {
        &self.caller.core.clock
    }

    /// Point-in-time client-side accounting.
    pub fn stats(&self) -> NetClientStats {
        let core = &self.caller.core;
        let (mut admitted, mut client_shed) = (0, 0);
        for outbox in &core.outboxes {
            let st = outbox.lock();
            admitted += st.admitted;
            client_shed += st.shed;
        }
        NetClientStats {
            retries: core.retries.load(Ordering::Relaxed),
            rerouted: core.rerouted.load(Ordering::Relaxed),
            client_shed,
            admitted,
            update_resends: core.update_resends.load(Ordering::Relaxed),
            elections: core.elections.load(Ordering::Relaxed),
        }
    }

    /// Poll one span process for its live server-side metrics — its
    /// hosted server's whole registry (queue depths, per-replica service
    /// split, latency histograms, stage-trace sums, log position), read
    /// by series name — over the wire: a cheap, barrier-free
    /// [`Frame::StatsRequest`] round trip to the first live endpoint of
    /// `span`. This is what `dini_top` refreshes on; `ServeStats::from`
    /// reads the serving totals off it.
    pub fn span_stats(&self, span: usize) -> Result<MetricsSnapshot, ServeError> {
        let core = &self.caller.core;
        for &e in &core.span_eps[span] {
            if !core.gauges[e].is_alive() {
                continue;
            }
            match core.ctrl_roundtrip(e, |req| Frame::StatsRequest { req }) {
                Ok(CtrlReply::Stats(metrics)) => return Ok(metrics),
                Ok(CtrlReply::Ack) => continue, // protocol noise; try a sibling
                Err(_) => continue,
            }
        }
        Err(ServeError::ShuttingDown)
    }

    /// Client-observed wire round-trip distribution (frame send → reply
    /// receipt), nanoseconds, across all endpoints.
    pub fn wire_rtt(&self) -> LogHistogram {
        self.caller.core.wire_rtt.snapshot()
    }

    /// Sampled wire-stage records (`encoded_ns` → `acked_ns`; the serve
    /// stages are zero — those live server-side), endpoint-major. Each
    /// record's `shard` is the span, `replica` the flat endpoint index,
    /// `batch_len` the frame's key count.
    pub fn wire_traces(&self) -> Vec<StageRecord> {
        self.caller.core.wire_traces.iter().flat_map(|r| r.snapshot()).collect()
    }
}

/// A connected client: owns the per-endpoint worker/reader threads and
/// hands out cloneable [`NetHandle`]s. Dropping it re-homes nothing —
/// it shuts the transport down; outstanding lookups resolve
/// `ShuttingDown`.
pub struct RemoteClient {
    handle: NetHandle,
    threads: Vec<ClockJoinHandle<()>>,
}

impl RemoteClient {
    /// Dial `bootstrap`, learn the shard map from its handshake, connect
    /// to every endpoint, and refresh the cross-span base ranks.
    pub fn connect(
        dialer: Box<dyn Dialer>,
        bootstrap: &str,
        cfg: ClientConfig,
    ) -> Result<Self, NetError> {
        cfg.validate();
        let clock = cfg.clock.clone();

        // Handshake: any server teaches us the whole topology. Retried
        // with a fresh connection per attempt — on a lossy link the
        // Hello (or the ShardMap) can be dropped in flight.
        let mut handshake: Option<(Topology, usize, u64)> = None;
        let mut last_err = NetError::Timeout;
        for _ in 0..=cfg.max_retries {
            let mut boot = match dialer.dial(bootstrap) {
                Ok(b) => b,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            if let Err(e) = boot.tx.send(&Frame::Hello { proto: WIRE_VERSION as u16 }) {
                last_err = e;
                continue;
            }
            match boot.rx.recv_timeout(cfg.handshake_timeout) {
                Ok(Frame::ShardMap { spans, my_span, live_keys, .. }) => {
                    // The watermark fields matter to *rejoin* handshakes
                    // (the log rewinds a revived endpoint's cursors
                    // there); a cold connect has no cursor to rewind.
                    handshake = Some((Topology::from_wire(&spans), my_span as usize, live_keys));
                    break;
                }
                Ok(other) => {
                    return Err(NetError::Protocol(format!("expected ShardMap, got {other:?}")))
                }
                Err(e) => last_err = e,
            }
        }
        let Some((topology, boot_span, boot_live)) = handshake else {
            return Err(last_err);
        };
        topology.check().map_err(|why| NetError::Protocol(why.to_owned()))?;
        if boot_span >= topology.n_spans() {
            return Err(NetError::Protocol("handshake span out of range".to_owned()));
        }

        // Wire up every endpoint (span-major order, deterministic).
        let n_spans = topology.n_spans();
        let mut gauges = Vec::new();
        let mut outboxes = Vec::new();
        let mut conns = Vec::new();
        let mut span_eps: Vec<Vec<usize>> = Vec::with_capacity(n_spans);
        let mut ep_span = Vec::new();
        let mut ep_pos = Vec::new();
        let mut plumbing: Vec<EndpointPipes> = Vec::new();
        let mut revive_txs = Vec::new();
        let mut ep_addrs = Vec::new();
        for (span, s) in topology.spans.iter().enumerate() {
            let mut eps = Vec::with_capacity(s.endpoints.len());
            for (pos, addr) in s.endpoints.iter().enumerate() {
                let ep = gauges.len();
                let (bell_tx, bell_rx) = sync_channel::<()>(1);
                let (rev_tx, rev_rx) = sync_channel::<Duplex>(1);
                let gauge = ReplicaGauge::new();
                let (tx, rx) = match dialer.dial(addr) {
                    Ok(Duplex { tx, rx, peer: _ }) => (Some(tx), Some(rx)),
                    Err(_) => {
                        // Unreachable from the start: a dead endpoint,
                        // exactly as if it crashed later — its worker
                        // starts in the dead-wait loop, rejoinable.
                        gauge.mark_dead();
                        (None, None)
                    }
                };
                plumbing.push((bell_rx, rx, rev_rx));
                revive_txs.push(rev_tx);
                ep_addrs.push(addr.clone());
                gauges.push(gauge);
                outboxes.push(Outbox::new(span, bell_tx, &cfg));
                conns.push(Mutex::new(tx.map(Conn::new)));
                ep_span.push(span);
                ep_pos.push(pos);
                eps.push(ep);
            }
            if !eps.iter().any(|&e| gauges[e].is_alive()) {
                return Err(NetError::Refused(format!("no endpoint of span {span} is reachable")));
            }
            span_eps.push(eps);
        }

        let selectors = span_eps.iter().map(|eps| ReplicaSelector::new(eps.len())).collect();
        let logs = span_eps
            .iter()
            .map(|eps| {
                let alive = eps.iter().map(|&e| gauges[e].is_alive()).collect();
                Mutex::new(SpanLog::new(alive, clock.now(), &cfg))
            })
            .collect();
        let upd_pools = (0..n_spans)
            .map(|_| CellPool::new(cfg.queue_capacity + cfg.max_batch, clock.clone()))
            .collect();
        let span_live: Vec<AtomicU64> = (0..n_spans).map(|_| AtomicU64::new(0)).collect();
        // ordering: SeqCst to match the reader-thread refreshes — span
        // liveness is control-plane state, kept at one ordering everywhere.
        span_live[boot_span].store(boot_live, Ordering::SeqCst);

        // One wire-trace ring per endpoint (its reader thread is the
        // single writer), seeds decorrelated the same way the server
        // decorrelates replica rings.
        let wire_traces: Vec<TraceRing> = (0..gauges.len())
            .map(|ep| {
                let salt = (ep as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                TraceRing::new(&TraceConfig { seed: cfg.trace.seed ^ salt, ..cfg.trace.clone() })
            })
            .collect();
        let core = Arc::new(ClientCore {
            cfg,
            clock: clock.clone(),
            span_router: topology.router(),
            selectors,
            gauges,
            outboxes,
            conns,
            span_eps,
            ep_span,
            ep_pos,
            upd_pools,
            logs,
            dialer,
            ep_addrs,
            revive_txs,
            span_live,
            ctrl: Mutex::new(BTreeMap::new()),
            next_req: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            retries: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            update_resends: AtomicU64::new(0),
            elections: AtomicU64::new(0),
            wire_rtt: AtomicLogHistogram::new(),
            wire_traces,
        });

        // One lifecycle worker per endpoint — dead ones included, so a
        // server that comes back later can rejoin. Each worker spawns
        // (and joins) its own per-generation reader.
        let mut threads = Vec::new();
        for (ep, (bell_rx, conn, rev_rx)) in plumbing.into_iter().enumerate() {
            let c = core.clone();
            threads.push(clock.spawn(&format!("dini-net-cw-{ep}"), move || {
                serve_endpoint(&c, ep, &bell_rx, conn, &rev_rx);
                c.outboxes[ep].close();
            }));
        }

        let client = Self {
            handle: NetHandle { caller: Caller::new(core), tick: AtomicU64::new(0) },
            threads,
        };
        // Base ranks need every span's live count, not just bootstrap's.
        client.handle.refresh().map_err(|_| {
            NetError::Protocol("could not refresh live counts from every span".to_owned())
        })?;
        Ok(client)
    }

    /// A cloneable caller handle.
    pub fn handle(&self) -> NetHandle {
        self.handle.clone()
    }

    /// See [`NetHandle::lookup`].
    pub fn lookup(&self, key: u32) -> Result<u32, ServeError> {
        self.handle.lookup(key)
    }

    /// See [`NetHandle::begin_lookup`].
    pub fn begin_lookup(&self, key: u32) -> Result<PendingNetLookup, ServeError> {
        self.handle.begin_lookup(key)
    }

    /// See [`NetHandle::lookup_many`].
    pub fn lookup_many(&self, keys: &[u32]) -> Result<Vec<u32>, ServeError> {
        self.handle.lookup_many(keys)
    }

    /// See [`NetHandle::update`].
    pub fn update(&self, op: Op) -> Result<(), ServeError> {
        self.handle.update(op)
    }

    /// See [`NetHandle::begin_update`].
    pub fn begin_update(&self, op: Op) -> Result<PendingNetUpdate, ServeError> {
        self.handle.begin_update(op)
    }

    /// See [`NetHandle::quiesce`].
    pub fn quiesce(&self) -> Result<(), ServeError> {
        self.handle.quiesce()
    }

    /// See [`NetHandle::stats`].
    pub fn stats(&self) -> NetClientStats {
        self.handle.stats()
    }
}

impl Drop for RemoteClient {
    fn drop(&mut self) {
        // ordering: SeqCst — teardown flag, checked by lookup entry points
        // and reader drains; cold path, strongest ordering for free.
        let core = &self.handle.caller.core;
        core.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // No worker is left to ship or elect, and every gauge is dead:
        // what is pending can never be acked, and a later append or
        // flush fails at once. (A poisoned log is skipped: drop must not
        // panic.)
        for log in &core.logs {
            if let Ok(mut log) = log.lock() {
                log.alive.fill(false);
                log.settle();
            }
        }
    }
}

/// Closed-loop load over a [`NetHandle`]: `clients` OS threads each
/// issue `lookups_per_client` blocking lookups drawn from `dist`
/// (seeded per client with `seed + id`), with caller-observed latency
/// recorded per lookup — the remote analogue of
/// [`dini_serve::run_load`]'s closed mode, returning the same
/// [`LoadReport`](dini_serve::LoadReport) shape so in-process and
/// over-the-wire summaries are directly comparable. Wall-clock
/// timestamped (`Instant`), so this is for natively clocked clients —
/// benches and demos, not simtest scenarios.
pub fn run_net_load(
    handle: &NetHandle,
    dist: dini_workload::KeyDistribution,
    seed: u64,
    clients: usize,
    lookups_per_client: usize,
) -> dini_serve::LoadReport {
    use std::time::Instant;

    // lint: wall-clock-ok: wall-clock duration of a real TCP load run is the quantity reported.
    let start = Instant::now();
    let results: Vec<(u64, LogHistogram)> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|id| {
                let h = handle.clone();
                scope.spawn(move || {
                    let mut gen = dini_workload::KeyGen::new(seed + id as u64, dist);
                    let mut hist = LogHistogram::new();
                    let mut completed = 0u64;
                    for _ in 0..lookups_per_client {
                        // lint: wall-clock-ok: wall-clock latency of a real TCP lookup is the quantity reported.
                        let t0 = Instant::now();
                        if h.lookup(gen.next_key()).is_ok() {
                            hist.record(t0.elapsed().as_nanos() as f64);
                            completed += 1;
                        }
                    }
                    (completed, hist)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("net load client panicked")).collect()
    });
    let mut report = dini_serve::LoadReport {
        wall: start.elapsed(),
        completed: 0,
        latency_ns: LogHistogram::new(),
    };
    for (completed, hist) in results {
        report.completed += completed;
        report.latency_ns.merge(&hist);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    struct CountingAlloc;

    thread_local! {
        /// Allocations this thread has made while armed; `None` while
        /// unarmed. Const-initialized and destructor-free, so touching
        /// it from inside the allocator cannot itself allocate.
        static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
    }

    fn count() {
        let _ = ALLOCS.try_with(|a| a.set(a.get().map(|n| n + 1)));
    }

    // SAFETY: pure passthrough to the `System` allocator plus a
    // const-initialized thread-local counter; upholds `GlobalAlloc`'s
    // contract because `System` does, and the counting adds no
    // allocation, locking, or reentrancy.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: same layout contract as `System::alloc`, to which this
        // delegates unchanged.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            System.alloc(layout)
        }

        // SAFETY: same ptr/layout contract as `System::dealloc`, to
        // which this delegates unchanged.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        // SAFETY: same ptr/layout/size contract as `System::realloc`, to
        // which this delegates unchanged.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTER: CountingAlloc = CountingAlloc;

    /// Heap allocations `f` makes on the calling thread.
    fn allocs_in(f: impl FnOnce()) -> u64 {
        ALLOCS.with(|a| a.set(Some(0)));
        f();
        ALLOCS.with(|a| a.replace(None)).expect("armed above")
    }

    #[test]
    fn settle_matches_a_sorting_reference_and_allocates_nothing() {
        const HEAD: u64 = 12;
        const RETENTION: u64 = 3;
        let cfg = ClientConfig { log_retention: RETENTION, ..ClientConfig::default() };
        // Capacity past anything one case holds, and its free list grown
        // to it up front: a filler settle drops goes back without the
        // pool itself allocating.
        let pool = CellPool::<UpdateReply>::new(64, Clock::system());
        drop((0..64).map(|_| pool.take()).collect::<Vec<_>>());
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut settle_allocs = 0;
        let mut cases = 0;
        for n in 1..=5usize {
            for mask in 0..1u32 << n {
                let alive: Vec<bool> = (0..n).map(|p| mask >> p & 1 == 1).collect();
                for spread in 0..12 {
                    // Acks at the head, at zero, or anywhere between.
                    let acked: Vec<u64> = (0..n)
                        .map(|_| {
                            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                            match spread {
                                0 => HEAD,
                                1 => 0,
                                _ => (rng >> 33) % (HEAD + 1),
                            }
                        })
                        .collect();
                    let mut log = SpanLog::new(alive.clone(), 0, &cfg);
                    for _ in 0..HEAD {
                        log.ops.push_back(WireOp::Insert(0));
                    }
                    log.acked.clone_from(&acked);
                    // One flush per target; `waiters[t]` reads flush `t`.
                    let waiters: Vec<_> = (0..=HEAD)
                        .map(|target| {
                            let reply = pool.take();
                            let waiter = reply.waiter();
                            log.flushes.push((target, reply));
                            waiter
                        })
                        .collect();
                    settle_allocs += allocs_in(|| log.settle());
                    cases += 1;

                    // The reference: the live acks, freshly sorted.
                    let mut live: Vec<u64> =
                        (0..n).filter(|&p| alive[p]).map(|p| acked[p]).collect();
                    live.sort_unstable_by(|a, b| b.cmp(a));
                    let at = format!("alive {alive:?}, acked {acked:?}");
                    match live.last() {
                        Some(&min_live) => {
                            assert_eq!(log.durable, live[live.len() / 2], "quorum mark, {at}");
                            for (target, waiter) in (0..=HEAD).zip(&waiters) {
                                let released = waiter.poll().is_some();
                                assert_eq!(released, target <= min_live, "flush {target}, {at}");
                                assert!(waiter.poll().is_none_or(Result::is_ok), "{at}");
                            }
                            assert_eq!(log.base, min_live.saturating_sub(RETENTION), "trim, {at}");
                        }
                        None => {
                            assert_eq!(log.durable, 0, "no quorum to advance, {at}");
                            // Every flush fails: nobody left to ack it.
                            for waiter in &waiters {
                                assert_eq!(waiter.poll(), Some(&Err(ServeError::ShuttingDown)));
                            }
                            assert_eq!(log.base, HEAD - RETENTION, "trim, {at}");
                        }
                    }
                    assert_eq!(log.head(), HEAD, "settling trims, never drops the head");
                }
            }
        }
        assert_eq!(cases, 12 * (2 + 4 + 8 + 16 + 32));
        assert_eq!(settle_allocs, 0, "settle allocated across {cases} cases");
    }
}
