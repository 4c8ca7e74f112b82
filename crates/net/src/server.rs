//! `NetServer`: an [`IndexServer`] hosted behind a transport listener.
//!
//! One `NetServer` owns one span of the key space (its shards, their
//! replica groups, and its writer) and serves it to remote callers:
//!
//! ```text
//!   acceptor thread ──► per-connection reader ──begin_lookup_many()──► IndexServer
//!                          │   (ranks the frame itself when its replicas
//!                          │    are idle, and what queued behind it;
//!                          │    otherwise waits the queued keys' cells)
//!                          ▼
//!                       send half (the reader's own)
//! ```
//!
//! * A connection is **one thread**, its reader: it decodes a frame,
//!   handles it, and writes the frame's reply itself before it reads
//!   the next, so replies leave in frame order.
//! * A `Lookup` frame is already a batch, and it is admitted as one
//!   ([`begin_lookup_many`](dini_serve::ServerHandle::begin_lookup_many),
//!   non-blocking, so server-side admission control sheds exactly as it
//!   does for local callers): the keys bound for an idle replica are
//!   ranked in place, by this thread, as one batch. Keys queued behind a
//!   busy replica are redeemed from their pooled reply cells — the
//!   reader parks on them like any in-process caller whose claim lost,
//!   until the replica's holder answers them — and the
//!   positionally-aligned `Reply` goes out. The wait holds the
//!   connection's later frames for one holder's turnaround, as a
//!   `Quiesce` or a full writer queue already does.
//! * Updates feed the span's single writer; `Quiesce` runs the writer
//!   barrier and returns the fresh live-key count (the client uses it
//!   to recompose cross-span base ranks).
//! * A `StatsRequest` is answered with the hosted server's metrics
//!   registry, snapshotted whole; the span's churn-log position is two
//!   more series in it (`dini_net_log_epoch`, `dini_net_log_seq`).
//!
//! Every thread is spawned on the hosted server's [`Clock`], so under
//! `dini-simtest` the acceptor and readers wait in virtual time inside
//! the deterministic scheduler.

use crate::topology::Topology;
use crate::transport::{Acceptor, Duplex, NetError};
use crate::wire::{Frame, LookupStatus, StatusCode, WireOp, WIRE_VERSION};
use dini_serve::{
    open_snapshot, Clock, ClockJoinHandle, IndexServer, LookupScratch, ServeConfig, ServeError,
    SnapError,
};
use dini_workload::Op;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How often the acceptor and connection readers wake to check the
/// shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
const READ_POLL: Duration = Duration::from_millis(10);

/// Configuration of one hosted span.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// The hosted [`IndexServer`]'s own knobs (shards, replicas,
    /// coalescing, clock, faults — everything).
    pub serve: ServeConfig,
    /// The whole cluster's span layout, served to clients in the
    /// handshake.
    pub topology: Topology,
    /// Which span of `topology` this server hosts.
    pub span: usize,
}

impl NetServerConfig {
    /// Host `span` of `topology` with `serve` knobs.
    pub fn new(serve: ServeConfig, topology: Topology, span: usize) -> Self {
        Self { serve, topology, span }
    }
}

/// A span process's churn-log high-water mark: the highest epoch any
/// connection has adopted and the highest sequence contiguously applied,
/// aggregated across connections. Purely introspective — the apply
/// order itself is carried by each connection's private cursor and the
/// writer channel.
#[derive(Debug, Default)]
pub struct LogPosition {
    // ordering: relaxed-ok: advisory introspection gauges folded with
    // fetch_max; no data is published through them.
    epoch: AtomicU64,
    seq: AtomicU64,
}

impl LogPosition {
    fn advance(&self, epoch: u64, seq: u64) {
        self.epoch.fetch_max(epoch, Ordering::Relaxed);
        self.seq.fetch_max(seq, Ordering::Relaxed);
    }

    /// The `(epoch, seq)` high-water mark.
    pub fn get(&self) -> (u64, u64) {
        (self.epoch.load(Ordering::Relaxed), self.seq.load(Ordering::Relaxed))
    }
}

/// What one key's outcome looks like on the wire.
fn lookup_status(outcome: Result<u32, ServeError>) -> LookupStatus {
    match outcome {
        Ok(rank) => LookupStatus::Rank(rank),
        Err(ServeError::Overloaded { shard }) => LookupStatus::Shed(shard as u32),
        Err(ServeError::ShuttingDown) => LookupStatus::Shutdown,
    }
}

/// An [`IndexServer`] (one span's shards + replicas + writer) hosted
/// behind a transport [`Acceptor`]. Dropping (or
/// [`shutdown`](Self::shutdown)-ing) the `NetServer` notifies connected
/// clients, joins every connection thread, then winds the index server
/// down.
pub struct NetServer {
    server: Arc<IndexServer>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<ClockJoinHandle<()>>,
    conns: Arc<Mutex<Vec<ClockJoinHandle<()>>>>,
    addr: String,
    log: Arc<LogPosition>,
}

impl NetServer {
    /// Build an [`IndexServer`] over `keys` (this span's slice of the
    /// global key set) and serve it through `acceptor`.
    pub fn start(acceptor: Box<dyn Acceptor>, keys: &[u32], cfg: NetServerConfig) -> Self {
        let server = IndexServer::build(keys, cfg.serve.clone());
        Self::host(acceptor, server, (0, 0), cfg)
    }

    /// Restart this span from the `dini-store` snapshot at
    /// `cfg.serve.store`'s path (which must be set): the shard mains are
    /// memory-mapped — no sort, no copy — pending deltas and routing
    /// resume exactly, and every connection's churn-log cursor starts at
    /// the snapshot's `(epoch, seq)` watermark, so a rejoining client
    /// replays only the log suffix the snapshot missed.
    ///
    /// Any [`SnapError`] (no snapshot yet, torn write, flipped bit — the
    /// codec rejects them all by name) falls back to a cold sort-rebuild
    /// over `fallback_keys`, returning the error alongside the running
    /// server so callers can count or log the degraded start.
    pub fn restart(
        acceptor: Box<dyn Acceptor>,
        fallback_keys: &[u32],
        cfg: NetServerConfig,
    ) -> (Self, Option<SnapError>) {
        let plan = cfg.serve.store.as_ref().expect("restart requires ServeConfig::store");
        match open_snapshot(&plan.path) {
            Ok(snap) => {
                let server = IndexServer::build_recovered(&snap, cfg.serve.clone());
                let watermark = (snap.log_epoch, snap.log_seq);
                (Self::host(acceptor, server, watermark, cfg), None)
            }
            Err(e) => (Self::start(acceptor, fallback_keys, cfg), Some(e)),
        }
    }

    fn host(
        acceptor: Box<dyn Acceptor>,
        server: IndexServer,
        init_log: (u64, u64),
        cfg: NetServerConfig,
    ) -> Self {
        cfg.topology.validate();
        assert!(cfg.span < cfg.topology.n_spans(), "hosted span out of range");
        let clock = cfg.serve.clock.clone();
        let server = Arc::new(server);
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ClockJoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let addr = acceptor.addr();
        let log = Arc::new(LogPosition::default());
        // A recovered span's high-water mark starts at the snapshot
        // watermark, not zero — everything below it is already folded in.
        log.advance(init_log.0, init_log.1);
        // The log position rides every `StatsReply` as two more series in
        // the hosted server's registry.
        let l = log.clone();
        server.metrics().gauge_fn("dini_net_log_epoch", "", move || l.get().0);
        let l = log.clone();
        server.metrics().gauge_fn("dini_net_log_seq", "", move || l.get().1);

        let acceptor_thread = {
            let server = server.clone();
            let shutdown = shutdown.clone();
            let conns = conns.clone();
            let topology = Arc::new(cfg.topology.clone());
            let span = cfg.span;
            let clock2 = clock.clone();
            let log = log.clone();
            clock.spawn("dini-net-acceptor", move || {
                let mut conn_id = 0u64;
                loop {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match acceptor.accept_timeout(ACCEPT_POLL) {
                        Ok(duplex) => {
                            conn_id += 1;
                            let reader = spawn_connection(
                                &clock2,
                                conn_id,
                                duplex,
                                ConnShared {
                                    server: server.clone(),
                                    topology: topology.clone(),
                                    span,
                                    shutdown: shutdown.clone(),
                                    log: log.clone(),
                                    init_log,
                                },
                            );
                            let mut guard = conns.lock().expect("conn list lock");
                            // Prune exited connections so a long-lived
                            // server tracks live ones, not every
                            // connection ever accepted. (Dropping a
                            // finished thread's handle just detaches it.)
                            guard.retain(|h| !h.is_finished());
                            guard.push(reader);
                        }
                        Err(NetError::Timeout) => continue,
                        Err(NetError::Closed) => break, // listener gone
                        Err(_) => {
                            // Transient accept failure (e.g. the peer
                            // reset before accept completed, momentary
                            // fd exhaustion): the listener itself is
                            // fine — pace the retry, keep accepting.
                            clock2.sleep(ACCEPT_POLL);
                        }
                    }
                }
            })
        };

        Self { server, shutdown, acceptor: Some(acceptor_thread), conns, addr, log }
    }

    /// The span's churn-log high-water mark `(epoch, seq)` across
    /// connections — what election and the simtest convergence oracles
    /// compare between replicas.
    pub fn log_position(&self) -> (u64, u64) {
        self.log.get()
    }

    /// The address clients dial to reach this server.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The hosted index server (stats, quiesce, local handles, …).
    pub fn server(&self) -> &IndexServer {
        &self.server
    }

    /// Notify clients, join every transport thread, and wind down the
    /// hosted server.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // ordering: SeqCst — matches the loads in the acceptor and
        // per-connection reader loops; cold teardown path.
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn list lock"));
        for c in conns {
            let _ = c.join();
        }
        // `self.server` (the last strong count) drops with `self`,
        // joining the writer.
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Everything an accepted connection shares with its host server,
/// assembled fresh per accept.
struct ConnShared {
    server: Arc<IndexServer>,
    topology: Arc<Topology>,
    span: usize,
    shutdown: Arc<AtomicBool>,
    log: Arc<LogPosition>,
    /// The snapshot watermark this server recovered from (`(0, 0)` on a
    /// cold start): every connection's churn-log cursor starts here, and
    /// the handshake reports it so a rejoining client replays exactly
    /// the log suffix the snapshot missed. Per-connection state must use
    /// this, never the live [`LogPosition`] — reporting another
    /// connection's progress would open a gap this reader then holds off
    /// forever.
    init_log: (u64, u64),
}

/// Spawn the one thread that serves an accepted connection: it reads
/// each frame, handles it, and writes its reply.
fn spawn_connection(
    clock: &Clock,
    conn_id: u64,
    duplex: Duplex,
    shared: ConnShared,
) -> ClockJoinHandle<()> {
    let ConnShared { server, topology, span, shutdown, log, init_log } = shared;
    let Duplex { tx: mut frame_tx, rx: mut frame_rx, peer: _ } = duplex;
    clock.spawn(&format!("dini-net-read-{conn_id}"), move || {
        let handle = server.handle();
        // Kept across frames: a warmed `Lookup`, quiet or queued,
        // allocates only what the transport does.
        let mut scratch = LookupScratch::default();
        let mut pendings = Vec::new();
        let mut results = Vec::new();
        // The connection's churn-log cursor: the highest sequence
        // applied with no gaps below it, and the epoch adopted from the
        // writer. One writer per connection keeps the cursor race-free.
        // On a snapshot restart the cursor opens at the recovered
        // watermark — those records are already folded in.
        let mut applied = init_log.1;
        let mut adopted_epoch = init_log.0;
        loop {
            // Every frame read so far is answered: nothing is pending.
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let frame = match frame_rx.recv_timeout(READ_POLL) {
                Ok(f) => f,
                Err(NetError::Timeout) => continue,
                Err(_) => return, // peer gone (or stream corrupt): hang up
            };
            let reply = match frame {
                // One version so far; a future v2 negotiates here.
                Frame::Hello { proto: _ } => Frame::ShardMap {
                    spans: topology.to_wire(),
                    my_span: span as u16,
                    live_keys: server.len() as u64,
                    log_epoch: init_log.0,
                    log_seq: init_log.1,
                },
                Frame::Lookup { req, trace, parent, keys } => {
                    // Non-blocking: remote traffic sheds under the same
                    // admission control as local callers. The frame's
                    // trace id rides along, so the stage records of
                    // whoever ranks this batch carry the same id as the
                    // client's wire record. A key queued behind a busy
                    // replica parks this thread on its reply cell.
                    handle.begin_lookup_many(&keys, trace, &mut scratch, &mut pendings);
                    results.extend(pendings.drain(..).map(|p| lookup_status(p.wait())));
                    Frame::Reply { req, trace, parent, results: std::mem::take(&mut results) }
                }
                Frame::Update { req, epoch, seq, trace: _, parent: _, ops } => {
                    // Strict in-order apply from the cursor: a duplicate
                    // or overlapping suffix is trimmed, a frame opening
                    // past `applied + 1` (a gap) is held off entirely —
                    // the writer learns the position from the ack and
                    // replays. Every log record is applied exactly once,
                    // in order.
                    adopted_epoch = adopted_epoch.max(epoch);
                    let n = ops.len() as u64;
                    if seq <= applied + 1 {
                        let skip = (applied + 1 - seq) as usize;
                        if skip < ops.len() {
                            let batch: Vec<Op> = ops[skip..]
                                .iter()
                                .map(|&op| match op {
                                    WireOp::Insert(k) => Op::Insert(k),
                                    WireOp::Delete(k) => Op::Delete(k),
                                })
                                .collect();
                            // `update_batch_at` stamps the writer's
                            // checkpoint watermark: the next snapshot
                            // records that everything through
                            // `seq + n - 1` is folded in.
                            if server.update_batch_at(batch, adopted_epoch, seq + n - 1).is_err() {
                                break;
                            }
                            applied = seq + n - 1;
                            log.advance(adopted_epoch, applied);
                        }
                    }
                    if req == 0 {
                        continue; // a probe: no ack
                    }
                    Frame::UpdateAck { req, epoch: adopted_epoch, seq: applied }
                }
                Frame::Quiesce { req } => {
                    // The barrier blocks this connection's frame stream —
                    // that is its point: every update this reader already
                    // applied is published when the ack goes out.
                    server.quiesce();
                    Frame::QuiesceAck {
                        req,
                        live_keys: server.len() as u64,
                        snapshots: server.snapshots_published(),
                    }
                }
                Frame::EpochPing { req } => Frame::EpochPong {
                    req,
                    live_keys: server.len() as u64,
                    snapshots: server.snapshots_published(),
                },
                Frame::StatsRequest { req } => {
                    Frame::StatsReply { req, metrics: server.metrics_snapshot() }
                }
                // Client-bound frames arriving here are protocol noise
                // (e.g. a fuzzer); ignore rather than kill the
                // connection.
                Frame::ShardMap { .. }
                | Frame::Reply { .. }
                | Frame::UpdateAck { .. }
                | Frame::QuiesceAck { .. }
                | Frame::EpochPong { .. }
                | Frame::StatsReply { .. }
                | Frame::Status { .. } => continue,
            };
            let sent = frame_tx.send(&reply);
            // The result vector goes back to scratch for the next frame.
            if let Frame::Reply { results: shipped, .. } = reply {
                results = shipped;
                results.clear();
            }
            if sent.is_err() {
                return;
            }
        }
        // The server is going away (shutdown, or its writer is gone):
        // tell the peer, then hang up.
        let _ = frame_tx.send(&Frame::Status { code: StatusCode::ShuttingDown });
    })
}

/// The protocol version this build speaks (re-exported for handshakes).
pub const PROTO: u16 = WIRE_VERSION as u16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChanNet;

    const SEC: Duration = Duration::from_secs(1);

    fn cfg(addr: &str) -> NetServerConfig {
        NetServerConfig::new(ServeConfig::new(2), Topology::single(vec![addr.to_owned()]), 0)
    }

    #[test]
    fn handshake_lookup_and_ping_over_chan_net() {
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("srv");
        let keys: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        let server = NetServer::start(Box::new(acc), &keys, cfg("srv"));
        assert_eq!(server.addr(), "srv");

        let mut c = net.dialer().dial("srv").unwrap();
        c.tx.send(&Frame::Hello { proto: PROTO }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::ShardMap { spans, my_span, live_keys, log_epoch, log_seq } => {
                assert_eq!(spans.len(), 1);
                assert_eq!(my_span, 0);
                assert_eq!(live_keys, 10_000);
                assert_eq!((log_epoch, log_seq), (0, 0), "cold start has no watermark");
            }
            other => panic!("expected ShardMap, got {other:?}"),
        }

        let queries = vec![0u32, 5, 19_998, u32::MAX];
        c.tx.send(&Frame::Lookup { req: 9, trace: 0, parent: 0, keys: queries.clone() }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::Reply { req, results, .. } => {
                assert_eq!(req, 9);
                let expect: Vec<LookupStatus> = queries
                    .iter()
                    .map(|&q| LookupStatus::Rank(keys.partition_point(|&k| k <= q) as u32))
                    .collect();
                assert_eq!(results, expect);
            }
            other => panic!("expected Reply, got {other:?}"),
        }

        c.tx.send(&Frame::EpochPing { req: 11 }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::EpochPong { req, live_keys, .. } => {
                assert_eq!((req, live_keys), (11, 10_000));
            }
            other => panic!("expected EpochPong, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn queued_lookup_frames_are_answered_in_frame_order_before_later_acks() {
        // A second connection holds the one replica, sleeping out its
        // straggle, when the first frame arrives: that frame's keys queue
        // behind it, and the reader waits on their reply cells — answered
        // by the other connection's reader — before it reads the next.
        use dini_cluster::Fault;
        let extra = Duration::from_millis(20);
        let mut c = cfg("srv");
        c.serve.n_shards = 1;
        c.serve.faults.events.push(Fault::Straggle { shard: 0, replica: None, extra });
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("srv");
        let keys: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let server = NetServer::start(Box::new(acc), &keys, c);

        let mut c = net.dialer().dial("srv").unwrap();
        let mut holder = net.dialer().dial("srv").unwrap();
        const FRAMES: u64 = 8;
        let frame_keys =
            |req: u64| -> Vec<u32> { (0..24).map(|i| (req as u32 * 24 + i) * 1_237).collect() };
        holder
            .tx
            .send(&Frame::Lookup { req: 1, trace: 0, parent: 0, keys: frame_keys(0) })
            .unwrap();
        while server.server().metrics_snapshot().sum("dini_serve_queue_depth") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for req in 1..=FRAMES {
            c.tx.send(&Frame::Lookup { req, trace: req, parent: 7, keys: frame_keys(req) })
                .unwrap();
        }
        let ops = vec![WireOp::Insert(1), WireOp::Delete(0)];
        c.tx.send(&Frame::Update { req: FRAMES + 1, epoch: 1, seq: 1, trace: 0, parent: 0, ops })
            .unwrap();
        c.tx.send(&Frame::Quiesce { req: FRAMES + 2 }).unwrap();

        for want in 1..=FRAMES {
            match c.rx.recv_timeout(SEC).unwrap() {
                Frame::Reply { req, trace, parent, results } => {
                    assert_eq!(req, want, "replies leave in frame order");
                    assert_eq!((trace, parent), (want, 7), "the trace context is echoed");
                    let expect: Vec<LookupStatus> = frame_keys(req)
                        .iter()
                        .map(|&q| LookupStatus::Rank(keys.partition_point(|&k| k <= q) as u32))
                        .collect();
                    assert_eq!(results, expect);
                }
                other => panic!("expected Reply {want}, got {other:?}"),
            }
        }
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::UpdateAck { req, epoch, seq } => {
                assert_eq!((req, epoch, seq), (FRAMES + 1, 1, 2))
            }
            other => panic!("expected UpdateAck, got {other:?}"),
        }
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::QuiesceAck { req, live_keys, .. } => {
                assert_eq!((req, live_keys), (FRAMES + 2, 10_000), "one insert, one delete");
            }
            other => panic!("expected QuiesceAck, got {other:?}"),
        }
        assert!(matches!(holder.rx.recv_timeout(SEC).unwrap(), Frame::Reply { req: 1, .. }));
        let stats = server.server().stats();
        assert_eq!(stats.served, (FRAMES + 1) * 24);
        assert!(stats.served - stats.claimed >= 24, "the first frame queued behind the holder");
        server.shutdown();
    }

    #[test]
    fn stats_request_reports_live_accounting() {
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("srv");
        let keys: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        let server = NetServer::start(Box::new(acc), &keys, cfg("srv"));

        let mut c = net.dialer().dial("srv").unwrap();
        c.tx.send(&Frame::Lookup { req: 1, trace: 0, parent: 0, keys: vec![0, 100, 9_999] })
            .unwrap();
        let _ = c.rx.recv_timeout(SEC).unwrap();
        c.tx.send(&Frame::StatsRequest { req: 2 }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::StatsReply { req, metrics } => {
                assert_eq!(req, 2);
                assert_eq!(metrics.sum("dini_serve_served"), 3);
                assert_eq!(metrics.sum("dini_serve_live_keys"), 10_000);
                let depths: Vec<&(String, String, u64)> =
                    metrics.gauges.iter().filter(|(n, ..)| n == "dini_serve_queue_depth").collect();
                assert_eq!(depths.len(), 2, "2 shards × 1 replica");
                // A holder leaves the gauge *after* its keys are ranked,
                // so a poll racing the reply may still see the batch.
                assert!(depths.iter().all(|(.., d)| *d <= 3), "depth bounded by issued");
                // Default sampling (period 64) may or may not have hit
                // these 3 requests, but can never exceed them.
                assert!(metrics.sum("dini_serve_trace_records") <= 3);
                assert_eq!(metrics.sum("dini_net_log_seq"), 0, "no update applied yet");
                // The frame is the process's own registry, whole.
                let local = server.server().metrics_snapshot();
                assert_eq!(metrics.counters, local.counters);
                assert_eq!(metrics.histograms, local.histograms);
            }
            other => panic!("expected StatsReply, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn a_registered_series_reaches_span_stats_by_name() {
        // A counter registered on the hosted server's registry and
        // nothing else: the next poll carries it.
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("srv");
        let keys: Vec<u32> = (0..1_000).collect();
        let server = NetServer::start(Box::new(acc), &keys, cfg("srv"));
        let extra = server.server().metrics().counter("dini_test_extra", "kind=\"new\"");
        extra.add(41);
        let client = crate::RemoteClient::connect(net.dialer(), "srv", Default::default()).unwrap();
        extra.inc();
        let polled = client.handle().span_stats(0).expect("span 0 answers");
        assert_eq!(polled.sum("dini_test_extra"), 42);
        assert!(polled.counters.contains(&("dini_test_extra".into(), "kind=\"new\"".into(), 42)));
        drop(client);
        server.shutdown();
    }

    #[test]
    fn updates_quiesce_and_shift_ranks() {
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("srv");
        let keys: Vec<u32> = (0..1_000).map(|i| i * 4).collect();
        let server = NetServer::start(Box::new(acc), &keys, cfg("srv"));

        let mut c = net.dialer().dial("srv").unwrap();
        c.tx.send(&Frame::Update {
            req: 0,
            epoch: 1,
            seq: 1,
            trace: 0,
            parent: 0,
            ops: vec![WireOp::Insert(1), WireOp::Delete(0)],
        })
        .unwrap();
        c.tx.send(&Frame::Quiesce { req: 3 }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::QuiesceAck { req, live_keys, .. } => {
                assert_eq!(req, 3);
                assert_eq!(live_keys, 1_000, "one insert, one delete");
            }
            other => panic!("expected QuiesceAck, got {other:?}"),
        }
        assert_eq!(server.log_position(), (1, 2), "two log records applied at epoch 1");
        c.tx.send(&Frame::Lookup { req: 4, trace: 0, parent: 0, keys: vec![1] }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::Reply { results, .. } => {
                assert_eq!(results, vec![LookupStatus::Rank(1)], "{{1}} ≤ 1 after churn");
            }
            other => panic!("expected Reply, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn restart_maps_snapshot_and_resumes_log_cursor_mid_stream() {
        use dini_serve::StorePlan;
        let dir = std::env::temp_dir().join(format!("dini-net-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("span0.snap");
        let _ = std::fs::remove_file(&snap_path);

        let keys: Vec<u32> = (0..2_000).map(|i| i * 4).collect();
        let mk_cfg = |addr: &str| {
            let mut c = cfg(addr);
            c.serve.store = Some(StorePlan::new(&snap_path));
            c
        };

        // First life: apply log records 1..=4, checkpoint at quiesce, die.
        {
            let net = ChanNet::new(Clock::system());
            let acc = net.listen("srv");
            let server = NetServer::start(Box::new(acc), &keys, mk_cfg("srv"));
            let mut c = net.dialer().dial("srv").unwrap();
            c.tx.send(&Frame::Update {
                req: 1,
                epoch: 1,
                seq: 1,
                trace: 0,
                parent: 0,
                ops: vec![
                    WireOp::Insert(1),
                    WireOp::Insert(3),
                    WireOp::Delete(0),
                    WireOp::Insert(5),
                ],
            })
            .unwrap();
            match c.rx.recv_timeout(SEC).unwrap() {
                Frame::UpdateAck { epoch, seq, .. } => assert_eq!((epoch, seq), (1, 4)),
                other => panic!("expected UpdateAck, got {other:?}"),
            }
            c.tx.send(&Frame::Quiesce { req: 2 }).unwrap();
            let _ = c.rx.recv_timeout(SEC).unwrap();
            server.shutdown();
        }

        // Second life: restart from the snapshot — no sort, cursor at
        // (1, 4) — and the handshake tells the client so.
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("srv");
        let (server, degraded) = NetServer::restart(Box::new(acc), &keys, mk_cfg("srv"));
        assert!(degraded.is_none(), "snapshot was intact: {degraded:?}");
        assert_eq!(server.log_position(), (1, 4));

        let mut c = net.dialer().dial("srv").unwrap();
        c.tx.send(&Frame::Hello { proto: PROTO }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::ShardMap { log_epoch, log_seq, live_keys, .. } => {
                assert_eq!((log_epoch, log_seq), (1, 4));
                assert_eq!(live_keys, 2_002, "2000 - {{0}} + {{1,3,5}}");
            }
            other => panic!("expected ShardMap, got {other:?}"),
        }

        // A replayed log suffix overlapping the watermark is trimmed:
        // records 3..=4 are already folded in, 5..=6 apply fresh.
        c.tx.send(&Frame::Update {
            req: 3,
            epoch: 1,
            seq: 3,
            trace: 0,
            parent: 0,
            ops: vec![
                WireOp::Delete(0), // seq 3: duplicate, trimmed
                WireOp::Insert(5), // seq 4: duplicate, trimmed
                WireOp::Insert(7), // seq 5: fresh
                WireOp::Delete(4), // seq 6: fresh
            ],
        })
        .unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::UpdateAck { epoch, seq, .. } => assert_eq!((epoch, seq), (1, 6)),
            other => panic!("expected UpdateAck, got {other:?}"),
        }
        c.tx.send(&Frame::Quiesce { req: 4 }).unwrap();
        let _ = c.rx.recv_timeout(SEC).unwrap();

        // Exact ranks over the recovered + replayed set.
        let mut mirror: std::collections::BTreeSet<u32> = keys.iter().copied().collect();
        for k in [1u32, 3, 5] {
            mirror.insert(k);
        }
        for k in [0u32, 4] {
            mirror.remove(&k);
        }
        mirror.insert(7);
        let probe = vec![0u32, 1, 3, 4, 5, 7, 8, 4_000, u32::MAX];
        c.tx.send(&Frame::Lookup { req: 5, trace: 0, parent: 0, keys: probe.clone() }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::Reply { results, .. } => {
                let expect: Vec<LookupStatus> = probe
                    .iter()
                    .map(|&q| LookupStatus::Rank(mirror.range(..=q).count() as u32))
                    .collect();
                assert_eq!(results, expect);
            }
            other => panic!("expected Reply, got {other:?}"),
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_without_snapshot_falls_back_to_sort_rebuild() {
        use dini_serve::StorePlan;
        let dir = std::env::temp_dir().join(format!("dini-net-nosnap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut c = cfg("srv");
        c.serve.store = Some(StorePlan::new(dir.join("never-written.snap")));
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("srv");
        let keys: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let (server, degraded) = NetServer::restart(Box::new(acc), &keys, c);
        assert!(degraded.is_some(), "missing snapshot must surface");
        assert_eq!(server.log_position(), (0, 0), "fallback is a cold start");
        assert_eq!(server.server().len(), 500);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_notifies_connected_clients() {
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("srv");
        let keys: Vec<u32> = (0..100).collect();
        let server = NetServer::start(Box::new(acc), &keys, cfg("srv"));
        let mut c = net.dialer().dial("srv").unwrap();
        c.tx.send(&Frame::Hello { proto: PROTO }).unwrap();
        let _map = c.rx.recv_timeout(SEC).unwrap();
        server.shutdown();
        // The Bye status races the socket close; either is a clean
        // "endpoint gone" signal for the client.
        match c.rx.recv_timeout(SEC) {
            Ok(Frame::Status { code: StatusCode::ShuttingDown }) | Err(NetError::Closed) => {}
            other => panic!("expected shutdown notice or close, got {other:?}"),
        }
    }

    #[test]
    fn hosts_one_span_of_a_two_span_topology() {
        let net = ChanNet::new(Clock::system());
        let acc = net.listen("hi-span");
        let keys: Vec<u32> = (0..2_000).map(|i| i * 10).collect();
        let topo = Topology {
            spans: vec![
                crate::topology::Span { lo_key: 0, endpoints: vec!["lo-span".into()] },
                crate::topology::Span { lo_key: 10_000, endpoints: vec!["hi-span".into()] },
            ],
        };
        let hi_keys = topo.split(&keys)[1].to_vec();
        let serve = ServeConfig::new(2);
        let server =
            NetServer::start(Box::new(acc), &hi_keys, NetServerConfig::new(serve, topo, 1));

        let mut c = net.dialer().dial("hi-span").unwrap();
        c.tx.send(&Frame::Hello { proto: PROTO }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::ShardMap { spans, my_span, live_keys, .. } => {
                assert_eq!(my_span, 1);
                assert_eq!(spans.len(), 2);
                assert_eq!(live_keys as usize, hi_keys.len());
                // The span delimiters round-trip into a working router.
                let router = Topology::from_wire(&spans).router();
                assert_eq!(router.route(9_999), 0);
                assert_eq!(router.route(10_000), 1);
            }
            other => panic!("expected ShardMap, got {other:?}"),
        }
        // Span-local ranks: the hi-span server counts only its own keys.
        c.tx.send(&Frame::Lookup { req: 1, trace: 0, parent: 0, keys: vec![u32::MAX] }).unwrap();
        match c.rx.recv_timeout(SEC).unwrap() {
            Frame::Reply { results, .. } => {
                assert_eq!(results, vec![LookupStatus::Rank(hi_keys.len() as u32)]);
            }
            other => panic!("expected Reply, got {other:?}"),
        }
        server.shutdown();
    }
}
