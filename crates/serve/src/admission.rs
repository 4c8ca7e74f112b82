//! Admission control and the combining protocol: bounded per-replica
//! queues with shed-on-full, live depth gauges, and liveness flags.
//!
//! An unbounded queue converts overload into unbounded latency; a bounded
//! queue converts it into explicit, cheap rejection at the door, keeping
//! the latency of *admitted* requests bounded by
//! `queue_capacity / service_rate`. Shedding is per replica, so a hot
//! replica degrades alone while the rest of the key space serves
//! normally.
//!
//! The queue is a `std::sync::mpsc::sync_channel`: there is no lock
//! between callers (`dini-lint` R4 holds this module to that), and the
//! `queue_capacity` slots are allocated once, at construction.
//!
//! A replica has no thread of its own. Its **depth gauge** decides who
//! ranks — flat combining (Hendler et al., SPAA 2010) on one word:
//!
//! * a caller that takes the gauge 0 → n ([`claim`](AdmissionQueue::claim))
//!   **holds** the replica: it ranks its own `n` keys on its own thread,
//!   then [`drain`](AdmissionQueue::drain)s whatever queued meanwhile, in
//!   group-committed batches, and leaves only when its subtract brings
//!   the gauge back to 0;
//! * every other caller **pushes** ([`push`](AdmissionQueue::push)): it
//!   sends its request into the bounded queue and only then counts it on
//!   the gauge. A count that finds 0 means the holder left after its
//!   last look — the pusher holds now and drains, its own request
//!   included. Otherwise it parks on its pooled reply cell, and the
//!   holder, which cannot leave while the count is outstanding, answers it.
//!
//! Sending before counting is what keeps the protocol free of waits: a
//! count on the gauge always stands for a request already in the queue
//! (or already answered), so a holder that reads a non-zero remainder
//! finds the work without parking, and a shed request — refused by the
//! full queue before it was counted — owes the gauge nothing. No queued
//! request is ever without a holder, and nothing spins: each of the
//! holder's passes acknowledges every count it saw.
//!
//! The gauge is also the live load signal power-of-two-choices routing
//! samples ([`ReplicaSelector`](crate::ReplicaSelector)): it reads > 0
//! while the replica is held or a counted request waits. Beside it sits
//! an **alive flag**, cleared by a holder that meets the replica's
//! scripted crash, so routers stop picking the replica and its siblings
//! know not to re-route back into it; a shard is only `ShuttingDown`
//! once every replica's flag is down. `dini-net`'s `RemoteClient` keeps
//! the same two signals per remote endpoint ([`ReplicaGauge`]).

use crate::batcher::Request;
use crate::clock::Clock;
use crate::config::ServeError;
use crate::sync::{switch_point, Arc, AtomicBool, AtomicU64, Ordering};
use dini_obs::Counter;
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
    // gauge) wants atomicity, never synchronization. The pairing on
    // `depth` is the hold: every write is an RMW (the release sequence
    // is never broken), taking the hold is an Acquire and leaving it a
    // Release, which orders successive holders — they share the
    // replica's trace ring and accounting.
    /// Requests admitted and not yet answered or handed off — the live
    /// load signal replica routing samples, and the hold.
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

    /// `n` requests were admitted to a remote endpoint (or handed over
    /// from a dead one). Count them *before* they can be answered:
    /// counted late, an early [`complete`](Self::complete) would dip the
    /// gauge below zero and wrap. (A server's replica counts through
    /// [`AdmissionQueue`]'s protocol instead.)
    #[inline]
    pub fn add(&self, n: usize) {
        self.depth.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` admitted requests were answered (or re-routed, or dropped):
    /// release them from the depth gauge.
    #[inline]
    pub fn complete(&self, n: usize) {
        // ordering: relaxed-ok: a remote endpoint's gauge is a load
        // signal only; the reply frame orders the answer itself.
        self.depth.fetch_sub(n as u64, Ordering::Relaxed);
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

    /// Mark the serving side dead (a replica whose holder met its
    /// crash point, a lost endpoint). Ordering matters on the failover path: the flag is
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

/// The admission side of one replica: a bounded channel in front of
/// the replica's [`ReplicaGauge`], and the combining protocol run on it
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    shard: usize,
    tx: SyncSender<Request>,
    /// Blocking admission waits in this clock's time (a full queue under
    /// a sim clock parks in the scheduler instead of wedging the run).
    clock: Clock,
    // ordering: relaxed-ok: `admitted` and `shed` are accounting; the
    // channel send/recv orders the request handoff itself.
    admitted: Arc<AtomicU64>,
    /// Keys admitted under a claim: written only by the holder, with a
    /// load and a store ([`Counter::add_unshared`]).
    claimed: Counter,
    shed: Arc<AtomicU64>,
    gauge: ReplicaGauge,
}

impl std::ops::Deref for AdmissionQueue {
    type Target = ReplicaGauge;

    fn deref(&self) -> &ReplicaGauge {
        &self.gauge
    }
}

impl AdmissionQueue {
    /// Wrap the bounded sender for a replica of `shard`, waiting in
    /// `clock` time. Whoever holds the replica drains the matching
    /// receiver ([`drain`](Self::drain)).
    pub fn new(shard: usize, tx: SyncSender<Request>, clock: Clock) -> Self {
        Self {
            shard,
            tx,
            clock,
            admitted: Arc::new(AtomicU64::new(0)),
            claimed: Counter::new(),
            shed: Arc::new(AtomicU64::new(0)),
            gauge: ReplicaGauge::new(),
        }
    }

    /// Hold the replica for `n` keys of the caller's own if it is idle:
    /// `true` means the depth gauge went 0 → `n` — nothing queued,
    /// nobody holding — and the caller now ranks its keys, counts them
    /// ([`admit_claimed`](Self::admit_claimed)) and [`drain`](Self::drain)s
    /// with `n` owed. `false` changes nothing: the keys are
    /// [`push`](Self::push)ed like any others.
    #[inline]
    pub fn claim(&self, n: usize) -> bool {
        // Acquire on success: pairs with the Release in `release`,
        // ordering this holder after whatever the last one did.
        self.gauge.depth.compare_exchange(0, n as u64, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    /// Count `n` keys ranked under a [`claim`](Self::claim) as admitted.
    /// Only the holder may call this — the count's single writer — so it
    /// costs a load and a store; the subtract that ends the hold (in
    /// [`drain`](Self::drain)) orders it before the next holder's.
    #[inline]
    pub fn admit_claimed(&self, n: usize) {
        self.claimed.add_unshared(n as u64);
    }

    /// Admit `req` down the queue: send it — shedding on a full queue,
    /// or waiting for room when `blocking` — then count it on the gauge.
    /// `Ok(true)`: the count found the replica idle, so the caller holds
    /// it now and must [`drain`](Self::drain) with nothing owed — its own
    /// request is among what queued, and its count stays on the gauge
    /// until a pass has answered it. A refused request is dropped here,
    /// which answers its cell `ShuttingDown`.
    pub fn push(&self, req: Request, blocking: bool) -> Result<bool, ServeError> {
        match self.send(req, blocking) {
            Ok(()) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(self.count(1))
            }
            Err(TrySendError::Full(_)) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded { shard: self.shard })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Hand a request over from a crashed sibling replica (failover
    /// re-route): as [`push`](Self::push), counting neither `admitted`
    /// nor `shed` — the request was admitted once, at the door. Returns
    /// the request on a full (`blocking == false`) or disconnected queue
    /// so the caller can try the next survivor. (`dini-net`'s
    /// `RemoteClient` re-homes a dead endpoint's lookups a whole frame at
    /// a time into its own outboxes, reading only the [`ReplicaGauge`]
    /// half.)
    pub fn resubmit(&self, req: Request, blocking: bool) -> Result<bool, Request> {
        self.send(req, blocking).map_err(|e| match e {
            TrySendError::Full(req) | TrySendError::Disconnected(req) => req,
        })?;
        Ok(self.count(1))
    }

    fn send(&self, req: Request, blocking: bool) -> Result<(), TrySendError<Request>> {
        // The model checker does not see the channel: this point stands
        // for the send, so it can run another thread on either side.
        switch_point();
        if blocking {
            self.clock.send(&self.tx, req).map_err(|e| TrySendError::Disconnected(e.0))
        } else {
            self.tx.try_send(req)
        }
    }

    /// Count `n` sent requests on the gauge: whether it was 0, i.e. the
    /// caller now holds the replica.
    fn count(&self, n: u64) -> bool {
        // AcqRel: Release publishes the send to whoever holds; Acquire,
        // when this count takes the hold, orders this caller after the
        // last holder's release.
        self.gauge.depth.fetch_add(n, Ordering::AcqRel) == 0
    }

    /// Give back `owed` of the gauge: what is still counted afterwards —
    /// 0 once the holder has left. Only the holder may call this.
    fn release(&self, owed: u64) -> u64 {
        // AcqRel: Release hands everything this holder wrote to the next
        // one; Acquire makes every request a counted pusher sent visible
        // to the pass it triggers.
        self.gauge.depth.fetch_sub(owed, Ordering::AcqRel) - owed
    }

    /// The holder's side of the protocol, run with `owed` counts it has
    /// taken on for work already done (its own keys, ranked; 0 for a
    /// pusher that holds, whose request still waits in the queue): give
    /// them back, and while that leaves the gauge above 0, run `pass` —
    /// which must empty the queue, answering or re-homing every request
    /// in it — then give back what the remainder counted. Returns with
    /// the hold left. The common case, nothing queued behind the
    /// holder's own keys, is one subtract and no pass.
    ///
    /// Every count stands for a request sent before it, so a pass never
    /// waits for one: a remainder's requests are in the queue when the
    /// pass begins, or an earlier pass answered them.
    pub fn drain(&self, mut owed: u64, mut pass: impl FnMut()) {
        loop {
            owed = self.release(owed);
            if owed == 0 {
                return;
            }
            pass();
        }
    }

    /// Requests admitted so far: pushed, plus ranked under a claim.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed) + self.claimed.get()
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::{CellPool, Waiter};
    use std::sync::mpsc::{sync_channel, Receiver};

    fn req(key: u32) -> (Request, Waiter<Result<u32, ServeError>>) {
        let reply = CellPool::new(1, Clock::system()).take();
        let cell = reply.waiter();
        (Request { key, enqueued: Clock::system().now(), trace: 0, reply }, cell)
    }

    fn queue(capacity: usize) -> (AdmissionQueue, Receiver<Request>) {
        let (tx, rx) = sync_channel(capacity);
        (AdmissionQueue::new(0, tx, Clock::system()), rx)
    }

    /// Drain as a holder that answers every key with itself.
    fn drain(q: &AdmissionQueue, rx: &Receiver<Request>, owed: u64) -> usize {
        let mut answered = 0;
        q.drain(owed, || {
            for r in rx.try_iter() {
                answered += 1;
                let key = r.key;
                r.respond(Ok(key));
            }
        });
        answered
    }

    #[test]
    fn sheds_exactly_past_capacity() {
        let (q, rx) = queue(2);
        q.claim(1);
        assert_eq!(q.push(req(1).0, false), Ok(false), "held: a pusher does not hold");
        assert_eq!(q.push(req(2).0, false), Ok(false));
        assert_eq!(q.push(req(3).0, false), Err(ServeError::Overloaded { shard: 0 }));
        assert_eq!((q.admitted(), q.shed(), q.depth()), (2, 1, 3), "a shed owes the gauge nothing");
        // Draining a slot readmits.
        let _ = rx.recv().unwrap();
        assert_eq!(q.push(req(4).0, false), Ok(false));
        assert_eq!((q.admitted(), q.shed()), (3, 1));
    }

    #[test]
    fn disconnect_is_shutdown_not_shed() {
        let (q, rx) = queue(2);
        drop(rx);
        assert_eq!(q.push(req(1).0, false), Err(ServeError::ShuttingDown));
        assert_eq!(q.push(req(2).0, true), Err(ServeError::ShuttingDown));
        assert_eq!((q.shed(), q.depth()), (0, 0), "shutdown is not overload");
        assert_eq!(q.resubmit(req(3).0, true).unwrap_err().key, 3);
    }

    #[test]
    fn a_claim_holds_until_everything_queued_is_answered() {
        let (q, rx) = queue(8);
        assert!(q.claim(3), "idle: the gauge goes 0 → 3");
        assert!(!q.claim(1), "held: a second claimant loses and pays nothing");
        let cells: Vec<_> = (1..=3)
            .map(|k| {
                let (r, cell) = req(k);
                assert_eq!(q.push(r, false), Ok(false));
                cell
            })
            .collect();
        assert_eq!(q.depth(), 6);
        q.admit_claimed(3);
        assert_eq!(drain(&q, &rx, 3), 3, "the holder answers what queued");
        assert_eq!((q.admitted(), q.depth()), (6, 0));
        assert!(cells.iter().zip(1..).all(|(c, k)| *c.wait() == Ok(k)));
        // Idle again: the next claim takes it, and with nothing queued
        // leaving is one subtract.
        assert!(q.claim(1));
        assert_eq!(drain(&q, &rx, 1), 0);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn a_push_that_finds_the_replica_idle_holds_it() {
        let (q, rx) = queue(2);
        let (r, cell) = req(7);
        assert_eq!(q.push(r, false), Ok(true), "nobody held: the pusher does");
        assert_eq!(drain(&q, &rx, 0), 1, "its own request is among what queued");
        assert_eq!((*cell.wait(), q.depth()), (Ok(7), 0));
        // A request sent but not yet counted when the holder left is
        // answered by whoever counts it: the holder leaves without
        // looking, and the late count finds 0 and holds.
        let (r, cell) = req(8);
        q.tx.try_send(r).unwrap();
        assert!(q.claim(1));
        assert_eq!(drain(&q, &rx, 1), 0, "the gauge said nothing was queued");
        assert!(q.count(1), "the late count finds 0 and holds");
        assert_eq!(drain(&q, &rx, 0), 1);
        assert_eq!((*cell.wait(), q.depth()), (Ok(8), 0));
    }

    #[test]
    fn resubmit_counts_depth_but_not_admitted() {
        let (q, rx) = queue(1);
        assert_eq!(q.resubmit(req(1).0, false).ok(), Some(true));
        assert_eq!((q.admitted(), q.depth()), (0, 1));
        // Full, non-blocking: the request comes back for the next survivor.
        assert_eq!(q.resubmit(req(2).0, false).unwrap_err().key, 2);
        assert_eq!(q.depth(), 1);
        assert_eq!(drain(&q, &rx, 0), 1);
    }

    #[test]
    fn dead_replicas_probe_none() {
        let (q, _rx) = queue(2);
        let clone = q.clone();
        assert!(clone.is_alive());
        assert_eq!(clone.probe(), Some(0));
        q.mark_dead();
        assert!(!clone.is_alive(), "liveness is shared across clones");
        assert_eq!(clone.probe(), None);
    }
}
