//! The claim and the load signal: a replica's depth gauge and its
//! liveness flag.
//!
//! A replica has no thread and no queue. Whoever routes a batch of
//! keys to it ranks them on its own thread, against the shard's pinned
//! snapshot; the **depth gauge** only decides how that caller keeps the
//! replica's books:
//!
//! * a caller that takes the gauge 0 → n ([`claim`](ReplicaGauge::claim))
//!   **holds** the replica: nobody else is in, so it counts its batch in
//!   the replica's claim rows with plain loads and stores, and its
//!   subtract ([`release`](ReplicaGauge::release)) hands those writes to
//!   the next claimant;
//! * every other caller adds its `n` ([`add`](ReplicaGauge::add)), ranks
//!   just the same, counts its batch in the shared rows with
//!   read-modify-writes, and subtracts ([`complete`](ReplicaGauge::complete)).
//!   Nothing waits: a lost claim costs a caller two more atomic adds,
//!   not a hand-off to whoever holds.
//!
//! Every write to the depth word is a read-modify-write, so a loser's
//! add and subtract continue the release sequence of the last holder's
//! subtract: the next claim, an Acquire, still reads every write that
//! holder made to the claim rows.
//!
//! The gauge is also the live load signal power-of-two-choices routing
//! samples ([`ReplicaSelector`](crate::ReplicaSelector)): it reads the
//! keys being ranked on the replica right now. Beside it sits an **alive
//! flag**, cleared by a caller that meets the replica's scripted crash,
//! so routers stop picking the replica; a shard is only `ShuttingDown`
//! once every replica's flag is down. `dini-net`'s `RemoteClient` keeps
//! the same two signals per remote endpoint.

use crate::sync::{Arc, AtomicBool, AtomicU64, Ordering};

/// A depth gauge and an alive flag, shared by every clone: a server's
/// replica claims and counts through one, and `dini-net`'s
/// `RemoteClient` keeps one per remote endpoint beside its own outbox,
/// so its power-of-two-choices routing and failover read the same two
/// signals a server's replica routing does.
#[derive(Debug, Clone)]
pub struct ReplicaGauge {
    // ordering: relaxed-ok: a *reader* of `depth` (the p2c probe, the
    // gauge) wants atomicity, never synchronization. The pairing on
    // `depth` is the hold: every write is an RMW (the release sequence
    // is never broken), taking the hold is an Acquire and leaving it a
    // Release, which orders successive holders — they share the
    // replica's claim rows.
    /// Keys being ranked (or, for an endpoint, in flight) right now —
    /// the live load signal replica routing samples, and the hold.
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

    /// Hold the replica for `n` keys if it is idle: `true` means the
    /// gauge went 0 → `n` — nobody else is ranking on it — and the
    /// caller may write its claim rows until it [`release`](Self::release)s
    /// `n`. `false` changes nothing: the caller [`add`](Self::add)s its
    /// keys and ranks them anyway.
    #[inline]
    pub fn claim(&self, n: usize) -> bool {
        // Acquire on success: pairs with the Release in `release`,
        // ordering this holder after whatever the last one did.
        self.depth.compare_exchange(0, n as u64, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    /// Give back the `n` a [`claim`](Self::claim) took: the hold ends.
    /// Only the holder may call this.
    #[inline]
    pub fn release(&self, n: usize) {
        // Release: hands everything this holder wrote to the next one.
        self.depth.fetch_sub(n as u64, Ordering::Release);
    }

    /// `n` keys are being ranked on the replica without its claim (or
    /// were sent to a remote endpoint). Count them *before* they can
    /// be answered: counted late, an early [`complete`](Self::complete)
    /// would dip the gauge below zero and wrap.
    #[inline]
    pub fn add(&self, n: usize) {
        // ordering: relaxed-ok: a load signal; as an RMW it continues
        // the last holder's release sequence, which is all the claim
        // needs.
        self.depth.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` keys [`add`](Self::add)ed earlier were answered (or re-routed,
    /// or dropped): take them off the gauge.
    #[inline]
    pub fn complete(&self, n: usize) {
        // ordering: relaxed-ok: as `add`. The caller wrote only shared
        // rows, and a reply orders the answer itself.
        self.depth.fetch_sub(n as u64, Ordering::Relaxed);
    }

    /// Live depth: keys being ranked, or in flight.
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

    /// Mark the serving side dead (a replica whose caller met its crash
    /// point, a lost endpoint). Ordering matters on the failover path:
    /// the flag is cleared *before* the caller selects again, so its
    /// keys — or an endpoint's re-homed frames — never land back here.
    pub fn mark_dead(&self) {
        // ordering: SeqCst so the flag flip is globally ordered before the
        // re-selection that follows; a probe after it must observe
        // `alive == false`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_claim_admits_one_holder_and_losers_still_count() {
        let g = ReplicaGauge::new();
        assert!(g.claim(3), "idle: the gauge goes 0 → 3");
        assert!(!g.claim(1), "held: a second claimant loses and changes nothing");
        assert_eq!(g.depth(), 3);
        g.add(2);
        assert_eq!(g.depth(), 5, "a loser's keys are load too");
        g.release(3);
        assert!(!g.claim(1), "a loser still ranking keeps the replica busy");
        g.complete(2);
        assert_eq!(g.depth(), 0);
        assert!(g.claim(1), "idle again");
        g.release(1);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn dead_replicas_probe_none() {
        let g = ReplicaGauge::new();
        let clone = g.clone();
        assert!(clone.is_alive());
        assert_eq!(clone.probe(), Some(0));
        g.mark_dead();
        assert!(!clone.is_alive(), "liveness is shared across clones");
        assert_eq!(clone.probe(), None);
        g.revive();
        assert_eq!(clone.probe(), Some(0));
    }
}
