//! Group-commit batch coalescing, with an optional time bound.
//!
//! The paper's core observation is that per-query costs (network
//! overhead there, wake-ups and channel hops here) amortise across a
//! batch, and its Figure 3 sweeps batch size against both throughput and
//! response time. A *server* cannot choose its batch size — concurrent
//! callers arrive one query at a time — so the serving layer manufactures
//! batches, and it does so without a clock: the first query to arrive
//! opens a batch, everything that queued while the previous batch was in
//! service joins it (up to `max_batch`), and the batch departs at once.
//! Under load the queue is never empty and batches fill by themselves;
//! a lone query on an idle replica never gets here — its caller ranks
//! it (see [`server`](crate::server)) — so what a dispatcher sees is
//! contention, and the first request it receives departs the moment it
//! arrives. The dispatcher then ranks the whole batch in place against
//! one pinned snapshot
//! ([`ShardSnapshot::rank_batch`](crate::ShardSnapshot::rank_batch)).
//!
//! When a caller configures a nonzero `max_delay`, a partial batch is
//! additionally held open for co-travellers until `max_batch` queries
//! are aboard or `max_delay` has passed since it opened — the timed
//! point on the Figure 3 curve, kept for callers that want it and for
//! the simulation tests that use it to place requests in one batch.
//!
//! Collection fills a caller-owned buffer ([`collect_batch_into`]) so the
//! dispatcher loop reuses one `Vec` for every batch it ever dispatches —
//! part of the allocation-free steady-state read path.
//!
//! All waiting is in [`Clock`] time: with the system clock the timed
//! wait compiles to a `recv_timeout` loop; under a
//! [`SimClock`](crate::SimClock) the deadline is virtual, which is what
//! lets `dini-simtest` prove both semantics exactly (at zero delay a
//! batch departs at its open instant holding exactly the backlog present
//! then; with a delay configured, a lone request departs at precisely
//! `open + max_delay`).

use crate::clock::{dur_ns, Clock, Nanos};
use crate::config::ServeError;
use crate::oneshot::Filler;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Duration;

/// One enqueued lookup.
#[derive(Debug)]
pub struct Request {
    /// The key whose rank is requested.
    pub key: u32,
    /// When the request entered the admission queue, in the server's
    /// [`Clock`] time (for latency accounting: reply time − enqueue time
    /// includes coalescing delay).
    pub enqueued: Nanos,
    /// Causal trace id stamped by the transport layer (0 = untraced):
    /// carried through the batch so the dispatcher's sampled
    /// [`StageRecord`](dini_obs::StageRecord)s join the client's wire
    /// records into one cross-process timeline.
    pub trace: u64,
    /// Where the rank goes: the filler side of a pooled reply cell.
    /// Dropping the request unanswered answers `ShuttingDown`.
    pub reply: Filler<Result<u32, ServeError>>,
}

impl Request {
    /// Answer the request; dropping it then returns its cell to the pool.
    pub fn respond(self, reply: Result<u32, ServeError>) {
        self.reply.fill(reply);
    }
}

/// Collect one batch into `batch` (cleared first): `first` plus whatever
/// already sits in `rx`, up to `max_batch` items — the backlog that
/// formed while the caller served its previous batch. With a nonzero
/// `max_delay`, a batch still short of `max_batch` then waits for
/// co-travellers until `max_delay` after it opened (= now, in `clock`
/// time); at zero the clock is never read. Returns whether the queue
/// disconnected while collecting. Generic over the item type; a
/// shard's dispatcher coalesces [`Request`]s through it.
pub fn collect_batch_into<T>(
    clock: &Clock,
    rx: &Receiver<T>,
    first: T,
    batch: &mut Vec<T>,
    max_batch: usize,
    max_delay: Duration,
) -> bool {
    let deadline = (!max_delay.is_zero()).then(|| clock.now().saturating_add(dur_ns(max_delay)));
    batch.clear();
    batch.push(first);

    // Free co-travellers: drain whatever has already queued up.
    while batch.len() < max_batch {
        match rx.try_recv() {
            Ok(req) => batch.push(req),
            Err(TryRecvError::Empty) => break,
            Err(TryRecvError::Disconnected) => return true,
        }
    }

    // Paid co-travellers, only when a delay is configured: wait out the
    // remaining budget.
    let Some(deadline) = deadline else { return false };
    while batch.len() < max_batch {
        if clock.now() >= deadline {
            break;
        }
        match clock.recv_deadline(rx, deadline) {
            Ok(req) => batch.push(req),
            Err(RecvTimeoutError::Timeout) => break,
            Err(RecvTimeoutError::Disconnected) => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::{CellPool, Waiter};
    use std::sync::mpsc::sync_channel;
    use std::time::Instant;

    fn req(key: u32) -> (Request, Waiter<Result<u32, ServeError>>) {
        let reply = CellPool::new(1, Clock::system()).take();
        let cell = reply.waiter();
        (Request { key, enqueued: Clock::system().now(), trace: 0, reply }, cell)
    }

    #[test]
    fn fills_to_max_batch_without_waiting_out_the_delay() {
        let clock = Clock::system();
        let (tx, rx) = sync_channel(16);
        for k in 1..8u32 {
            tx.send(req(k).0).unwrap();
        }
        let start = Instant::now();
        let mut batch = Vec::new();
        let disc = collect_batch_into(&clock, &rx, req(0).0, &mut batch, 4, Duration::from_secs(5));
        assert_eq!(batch.len(), 4);
        assert!(!disc);
        assert!(start.elapsed() < Duration::from_secs(1), "must not wait for the delay");
        assert_eq!(batch.iter().map(|r| r.key).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn departs_at_deadline_with_partial_batch() {
        let clock = Clock::system();
        let (_tx, rx) = sync_channel::<Request>(4);
        let start = Instant::now();
        let mut batch = Vec::new();
        let disc =
            collect_batch_into(&clock, &rx, req(9).0, &mut batch, 100, Duration::from_millis(30));
        assert_eq!(batch.len(), 1);
        assert!(!disc, "sender still alive");
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(25), "left early: {waited:?}");
        assert!(waited < Duration::from_millis(300), "overstayed: {waited:?}");
    }

    #[test]
    fn reports_disconnect() {
        let clock = Clock::system();
        let (tx, rx) = sync_channel(4);
        tx.send(req(1).0).unwrap();
        drop(tx);
        let mut batch = Vec::new();
        let disc =
            collect_batch_into(&clock, &rx, req(0).0, &mut batch, 10, Duration::from_secs(5));
        assert_eq!(batch.len(), 2);
        assert!(disc);
    }

    #[test]
    fn max_batch_one_never_waits() {
        let clock = Clock::system();
        let (_tx, rx) = sync_channel::<Request>(4);
        let start = Instant::now();
        let mut batch = Vec::new();
        let _ = collect_batch_into(&clock, &rx, req(0).0, &mut batch, 1, Duration::from_secs(10));
        assert_eq!(batch.len(), 1);
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn stale_results_cleared_and_capacity_reused() {
        let clock = Clock::system();
        let (tx, rx) = sync_channel(8);
        let mut batch = Vec::new();
        for round in 0..3u32 {
            for k in 0..4u32 {
                tx.send(req(round * 10 + k).0).unwrap();
            }
            let (first, _slot) = req(round * 10 + 99);
            let disc = collect_batch_into(&clock, &rx, first, &mut batch, 8, Duration::ZERO);
            assert!(!disc);
            assert_eq!(batch.len(), 5, "round {round}: first + 4 queued");
            assert_eq!(batch[0].key, round * 10 + 99);
        }
        let cap = batch.capacity();
        assert!(cap >= 5, "capacity persists across rounds");
    }

    #[test]
    fn dropping_a_collected_batch_shuts_waiters_down() {
        let clock = Clock::system();
        let (tx, rx) = sync_channel(4);
        let (r1, s1) = req(1);
        tx.send(r1).unwrap();
        let (r0, s0) = req(0);
        let mut batch = Vec::new();
        collect_batch_into(&clock, &rx, r0, &mut batch, 4, Duration::ZERO);
        drop(batch); // dispatcher dying with requests aboard
        assert_eq!(*s0.wait(), Err(ServeError::ShuttingDown));
        assert_eq!(*s1.wait(), Err(ServeError::ShuttingDown));
    }
}
