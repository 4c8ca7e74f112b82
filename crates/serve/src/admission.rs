//! Admission control: bounded per-replica queues with shed-on-full,
//! live depth gauges, and liveness flags.
//!
//! An unbounded queue converts overload into unbounded latency; a bounded
//! queue converts it into explicit, cheap rejection at the door, keeping
//! the latency of *admitted* requests bounded by
//! `queue_capacity / service_rate`. Shedding is per replica, so a hot
//! replica degrades alone while the rest of the key space serves
//! normally.
//!
//! The queue is a `std::sync::mpsc::sync_channel`: there is no lock
//! between a caller and the dispatcher (`dini-lint` R4 holds this module
//! to that), a send makes a syscall only when the dispatcher is parked,
//! and the `queue_capacity` slots are allocated once, at construction.
//!
//! With replica groups, each queue also carries the two signals the
//! router and the failover path live on — its [`ReplicaGauge`], which
//! `dini-net`'s `RemoteClient` keeps per remote endpoint as well:
//!
//! * a **depth gauge** — requests admitted to this replica and not yet
//!   answered (or handed off). Incremented *before* the request is sent
//!   (and given back when the send fails), decremented by whoever
//!   answers it after replying, so it reads > 0 whenever a request is
//!   queued or in service; this is the live load signal
//!   power-of-two-choices routing samples
//!   ([`ReplicaSelector`](crate::ReplicaSelector)). And because "idle"
//!   is exactly "depth 0", the gauge is also **the claim**: a caller
//!   that takes it 0 → n ([`claim`](AdmissionQueue::claim)) found
//!   nothing queued and nothing in service, holds the replica until its
//!   [`release`](AdmissionQueue::release), and ranks its own keys on
//!   its own thread instead of waking the dispatcher. A caller that
//!   finds depth > 0 queues as ever. At most one claimant holds a
//!   replica at a time, and its parked dispatcher is woken only by a
//!   request that lost a claim — which it may then serve while the
//!   winner is still ranking: the two share nothing that is not atomic.
//! * an **alive flag** — cleared by the dispatcher when its fault schedule
//!   crashes it, so routers stop picking the replica and its siblings
//!   know not to re-route back into it. A shard is only `ShuttingDown`
//!   once every replica's flag is down.

use crate::batcher::Request;
use crate::clock::Clock;
use crate::config::ServeError;
use crate::sync::{Arc, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};

/// The load-and-liveness half of a queue: a depth gauge and an alive
/// flag, shared by every clone. An [`AdmissionQueue`] is one with a
/// channel in front (and derefs to it); `dini-net`'s `RemoteClient`
/// keeps one per remote endpoint beside its own outbox, so its
/// power-of-two-choices routing and failover read the same two signals
/// a server's replica routing does.
#[derive(Debug, Clone)]
pub struct ReplicaGauge {
    // ordering: relaxed-ok: a *reader* of `depth` (the p2c probe, the
    // gauge) wants atomicity, never synchronization; whatever hands the
    // request over orders the handoff itself. The one pairing on `depth`
    // is the claim: `claim` is an Acquire RMW and `complete` a Release
    // RMW — every other write is an RMW too, so the release sequence is
    // never broken — which orders successive claimants, who share the
    // replica's claim-side trace ring and accounting.
    /// Requests admitted and not yet answered or handed off — the live
    /// load signal replica routing samples, and the claim.
    depth: Arc<AtomicU64>,
    /// Cleared when the serving side dies.
    alive: Arc<AtomicBool>,
}

impl Default for ReplicaGauge {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicaGauge {
    /// Depth 0, alive.
    pub fn new() -> Self {
        Self { depth: Arc::new(AtomicU64::new(0)), alive: Arc::new(AtomicBool::new(true)) }
    }

    /// `n` requests were admitted (or handed over from a dead sibling).
    /// Count them *before* they can be answered: counted late, an early
    /// [`complete`](Self::complete) would dip the gauge below zero and
    /// wrap.
    #[inline]
    pub fn add(&self, n: usize) {
        self.depth.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` admitted requests were answered (or re-routed, or dropped):
    /// release them from the depth gauge.
    #[inline]
    pub fn complete(&self, n: usize) {
        // Release: the claim's other half (see `AdmissionQueue::claim`).
        self.depth.fetch_sub(n as u64, Ordering::Release);
    }

    /// Live queue depth: admitted requests not yet answered.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Is the serving side still alive?
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Relaxed)
    }

    /// The routing probe: `Some(depth)` while alive, `None` once dead —
    /// exactly the shape [`ReplicaSelector::select`](crate::ReplicaSelector::select)
    /// samples.
    #[inline]
    pub fn probe(&self) -> Option<u64> {
        self.is_alive().then(|| self.depth())
    }

    /// Mark the serving side dead (a crashed dispatcher, a lost
    /// endpoint). Ordering matters on the failover path: the flag is
    /// cleared *before* the backlog is re-routed, so a sibling that
    /// receives a re-routed request can never bounce it back here
    /// believing it alive.
    pub fn mark_dead(&self) {
        // ordering: SeqCst so the flag flip is globally ordered before the
        // backlog re-route that follows; a sibling probing after receiving
        // a re-routed request must observe `alive == false`.
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Re-arm a dead gauge: its serving side came back (a transport
    /// endpoint whose server restarted from a snapshot and rejoined).
    /// The caller must have the replacement consumer fully wired up
    /// *before* flipping the flag — a request routed here the instant
    /// the flag rises must land somewhere that drains.
    pub fn revive(&self) {
        // ordering: SeqCst — pairs with mark_dead; globally ordered after
        // the rejoined connection's setup that precedes the call.
        self.alive.store(true, Ordering::SeqCst);
    }
}

/// The admission side of one replica's request queue: a bounded channel
/// in front of the replica's [`ReplicaGauge`].
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    shard: usize,
    replica: usize,
    tx: SyncSender<Request>,
    /// Blocking admission waits in this clock's time (a full queue under
    /// a sim clock parks in the scheduler instead of wedging the run).
    clock: Clock,
    // ordering: relaxed-ok: `admitted` and `shed` are accounting; the
    // channel send/recv orders the request handoff itself.
    admitted: Arc<AtomicU64>,
    /// Requests admitted under a claim: written only by the claim's
    /// holder, in [`release`](Self::release), with a load and a store.
    claimed: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    gauge: ReplicaGauge,
    /// Whether a [`claim`](Self::claim) may ever succeed.
    claimable: bool,
}

impl std::ops::Deref for AdmissionQueue {
    type Target = ReplicaGauge;

    fn deref(&self) -> &ReplicaGauge {
        &self.gauge
    }
}

impl AdmissionQueue {
    /// Wrap the bounded sender for `replica` of `shard`, waiting in
    /// `clock` time.
    pub fn new(shard: usize, replica: usize, tx: SyncSender<Request>, clock: Clock) -> Self {
        Self {
            shard,
            replica,
            tx,
            clock,
            admitted: Arc::new(AtomicU64::new(0)),
            claimed: Arc::new(AtomicU64::new(0)),
            shed: Arc::new(AtomicU64::new(0)),
            gauge: ReplicaGauge::new(),
            claimable: true,
        }
    }

    /// This replica's requests always go through its dispatcher:
    /// [`claim`](Self::claim) never succeeds. For a replica with a
    /// scripted fault schedule — stragglers and crashes are dispatcher
    /// faults, so its traffic must reach the dispatcher to meet them.
    pub fn dispatcher_only(mut self) -> Self {
        self.claimable = false;
        self
    }

    /// Whether a caller may ever [`claim`](Self::claim) this replica:
    /// `false` once [`dispatcher_only`](Self::dispatcher_only).
    pub fn claimable(&self) -> bool {
        self.claimable
    }

    /// Claim the replica for `n` requests if it is idle: `true` means
    /// the depth gauge went 0 → `n` — nothing was queued, nothing in
    /// service — and the caller now holds the replica: it answers its
    /// `n` requests itself and releases with
    /// [`release(n)`](Self::release), which counts them as admitted (they
    /// never enter the channel, so no send will). `false` (busy, or
    /// [`dispatcher_only`](Self::dispatcher_only)) changes nothing: the
    /// requests go down the queue like any others.
    #[inline]
    pub fn claim(&self, n: usize) -> bool {
        // Acquire on success: pairs with the Release in `complete`,
        // ordering this claimant after whatever the last holder did.
        self.claimable
            && self
                .gauge
                .depth
                .compare_exchange(0, n as u64, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Release a [`claim`](Self::claim) of `n` requests, answered: count
    /// them as admitted and [`complete`](ReplicaGauge::complete) them. Only the
    /// claim's holder may call this — it is the admitted-under-claim
    /// count's single writer, so the count costs a load and a store, and
    /// the `complete` that follows is what orders it before the next
    /// holder's.
    #[inline]
    pub fn release(&self, n: usize) {
        // ordering: relaxed-ok: single writer — successive holders are
        // ordered by `claim` (Acquire) after `complete` (Release), so this
        // load sees the last holder's store; readers only sum it.
        let claimed = self.claimed.load(Ordering::Relaxed) + n as u64;
        self.claimed.store(claimed, Ordering::Relaxed);
        self.complete(n);
    }

    /// Admit without blocking; a full queue sheds the request.
    pub fn try_submit(&self, req: Request) -> Result<(), ServeError> {
        // Depth first: the dispatcher may answer (and `complete`) the
        // request the instant it is sent, and the gauge must already
        // hold it — counted late, it would dip below zero and wrap.
        self.add(1);
        match self.tx.try_send(req) {
            Ok(()) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.complete(1);
                self.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded { shard: self.shard })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.complete(1);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Admit, blocking while the queue is full (closed-loop callers).
    pub fn submit(&self, req: Request) -> Result<(), ServeError> {
        self.add(1);
        match self.clock.send(&self.tx, req) {
            Ok(()) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => {
                self.complete(1);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Hand a request over from a crashed sibling replica (failover
    /// re-route): bumps the depth gauge but neither `admitted` nor
    /// `shed` — the request was already admitted once, at the door.
    /// Returns the request on a full (`blocking == false`) or
    /// disconnected queue so the caller can try the next survivor —
    /// the server's crashed-replica failover runs exactly that two-pass
    /// protocol over its replica group. (`dini-net`'s `RemoteClient`
    /// re-homes a dead endpoint's lookups a whole frame at a time into
    /// its own outboxes, reading only the [`ReplicaGauge`] half.)
    pub fn resubmit(&self, req: Request, blocking: bool) -> Result<(), Request> {
        self.add(1);
        let sent = if blocking {
            self.clock.send(&self.tx, req).map_err(|e| e.0)
        } else {
            self.tx.try_send(req).map_err(|e| match e {
                TrySendError::Full(req) | TrySendError::Disconnected(req) => req,
            })
        };
        if sent.is_err() {
            self.complete(1);
        }
        sent
    }

    /// Which replica this queue admits for.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Requests admitted so far: queued, plus claimed and released.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed) + self.claimed.load(Ordering::Relaxed)
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::CellPool;
    use std::sync::mpsc::sync_channel;

    fn req(key: u32) -> Request {
        // No waiter: these tests never reap replies.
        let reply = CellPool::new(0, Clock::system()).take();
        Request { key, enqueued: Clock::system().now(), trace: 0, reply }
    }

    #[test]
    fn sheds_exactly_past_capacity() {
        let (tx, rx) = sync_channel(2);
        let q = AdmissionQueue::new(0, 0, tx, Clock::system());
        assert!(q.try_submit(req(1)).is_ok());
        assert!(q.try_submit(req(2)).is_ok());
        assert_eq!(q.try_submit(req(3)), Err(ServeError::Overloaded { shard: 0 }));
        assert_eq!((q.admitted(), q.shed()), (2, 1));
        // Draining one slot readmits.
        let _ = rx.recv().unwrap();
        assert!(q.try_submit(req(4)).is_ok());
        assert_eq!((q.admitted(), q.shed()), (3, 1));
    }

    #[test]
    fn disconnect_is_shutdown_not_shed() {
        let (tx, rx) = sync_channel(2);
        let q = AdmissionQueue::new(3, 1, tx, Clock::system());
        drop(rx);
        assert_eq!(q.try_submit(req(1)), Err(ServeError::ShuttingDown));
        assert_eq!(q.submit(req(2)), Err(ServeError::ShuttingDown));
        assert_eq!(q.shed(), 0, "shutdown is not overload");
        assert_eq!(q.replica(), 1);
    }

    #[test]
    fn depth_tracks_admissions_and_completions() {
        let (tx, _rx) = sync_channel(8);
        let q = AdmissionQueue::new(0, 0, tx, Clock::system());
        assert_eq!(q.probe(), Some(0));
        q.try_submit(req(1)).unwrap();
        q.submit(req(2)).unwrap();
        assert_eq!(q.depth(), 2);
        q.complete(2);
        assert_eq!(q.depth(), 0);
        // Shed requests never enter the gauge.
        let (tx2, _rx2) = sync_channel(1);
        let q2 = AdmissionQueue::new(0, 0, tx2, Clock::system());
        q2.try_submit(req(1)).unwrap();
        let _ = q2.try_submit(req(2));
        assert_eq!(q2.depth(), 1);
    }

    #[test]
    fn claim_takes_only_an_idle_replica() {
        let (tx, rx) = sync_channel(8);
        let q = AdmissionQueue::new(0, 0, tx, Clock::system());
        assert!(q.claim(3), "idle: the gauge goes 0 → 3");
        assert_eq!(q.depth(), 3);
        assert!(!q.claim(1), "held: a second claimant loses and pays nothing");
        assert_eq!((q.admitted(), q.depth()), (0, 3), "admitted when released");
        q.release(3);
        assert_eq!((q.admitted(), q.depth()), (3, 0));
        // A queued request keeps the replica busy until it is answered.
        q.try_submit(req(1)).unwrap();
        assert!(!q.claim(1));
        drop(rx.recv().unwrap());
        q.complete(1);
        assert!(q.claim(1));
        q.release(1);
        assert_eq!((q.admitted(), q.depth()), (5, 0), "queued plus claimed");
        // A scripted replica is never claimed, idle or not.
        let (tx, _rx) = sync_channel(1);
        let q = AdmissionQueue::new(0, 0, tx, Clock::system()).dispatcher_only();
        assert!(!q.claim(1));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn resubmit_bumps_depth_but_not_admitted() {
        let (tx, rx) = sync_channel(1);
        let q = AdmissionQueue::new(0, 1, tx, Clock::system());
        assert!(q.resubmit(req(1), false).is_ok());
        assert_eq!((q.admitted(), q.depth()), (0, 1));
        // Full, non-blocking: the request comes back for the next
        // survivor.
        let bounced = q.resubmit(req(2), false).unwrap_err();
        assert_eq!(bounced.key, 2);
        assert_eq!(q.depth(), 1);
        drop(rx);
        let bounced = q.resubmit(req(3), true).unwrap_err();
        assert_eq!(bounced.key, 3, "disconnected blocking resubmit returns the request");
    }

    #[test]
    fn dead_replicas_probe_none() {
        let (tx, _rx) = sync_channel(2);
        let q = AdmissionQueue::new(0, 0, tx, Clock::system());
        let clone = q.clone();
        assert!(clone.is_alive());
        q.mark_dead();
        assert!(!clone.is_alive(), "liveness is shared across clones");
        assert_eq!(clone.probe(), None);
    }
}
