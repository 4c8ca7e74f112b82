//! Group-commit batch coalescing.
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
//! it (see [`server`](crate::server)) — so what queues is contention,
//! drained by the caller holding the replica the moment its own keys are
//! ranked. The holder then ranks the whole batch in place against one
//! pinned snapshot
//! ([`ShardSnapshot::rank_batch`](crate::ShardSnapshot::rank_batch)).
//!
//! Collection fills a caller-owned buffer ([`collect_batch_into`]) so
//! every holder of a replica reuses its one `Vec` for every batch —
//! part of the allocation-free steady-state read path.
//!
//! On virtual time `dini-simtest` proves the one semantics exactly: a
//! batch departs at its open instant holding exactly the backlog
//! present then.

use crate::clock::Nanos;
use crate::config::ServeError;
use crate::oneshot::Filler;
use std::sync::mpsc::Receiver;

/// One enqueued lookup.
#[derive(Debug)]
pub struct Request {
    /// The key whose rank is requested.
    pub key: u32,
    /// When the request entered the admission queue, in the server's
    /// [`Clock`](crate::Clock) time (for latency accounting: reply time −
    /// enqueue time includes queueing delay).
    pub enqueued: Nanos,
    /// Causal trace id stamped by the transport layer (0 = untraced):
    /// carried through the batch so the holder's sampled
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
/// formed while the caller ranked its previous batch. Generic over the
/// item type; a replica's holder coalesces [`Request`]s through it.
pub fn collect_batch_into<T>(rx: &Receiver<T>, first: T, batch: &mut Vec<T>, max_batch: usize) {
    batch.clear();
    batch.push(first);
    batch.extend(rx.try_iter().take(max_batch - 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::oneshot::{CellPool, Waiter};
    use std::sync::mpsc::sync_channel;

    fn req(key: u32) -> (Request, Waiter<Result<u32, ServeError>>) {
        let reply = CellPool::new(1, Clock::system()).take();
        let cell = reply.waiter();
        (Request { key, enqueued: Clock::system().now(), trace: 0, reply }, cell)
    }

    #[test]
    fn fills_to_max_batch_and_leaves_the_rest_queued() {
        let (tx, rx) = sync_channel(16);
        for k in 1..8u32 {
            tx.send(req(k).0).unwrap();
        }
        let mut batch = Vec::new();
        collect_batch_into(&rx, req(0).0, &mut batch, 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.iter().map(|r| r.key).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(rx.try_iter().map(|r| r.key).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn max_batch_one_takes_nothing_from_the_queue() {
        let (tx, rx) = sync_channel(4);
        tx.send(req(1).0).unwrap();
        let mut batch = Vec::new();
        collect_batch_into(&rx, req(0).0, &mut batch, 1);
        assert_eq!(batch.len(), 1);
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn stale_results_cleared_and_capacity_reused() {
        let (tx, rx) = sync_channel(8);
        let mut batch = Vec::new();
        for round in 0..3u32 {
            for k in 0..4u32 {
                tx.send(req(round * 10 + k).0).unwrap();
            }
            let (first, _slot) = req(round * 10 + 99);
            collect_batch_into(&rx, first, &mut batch, 8);
            assert_eq!(batch.len(), 5, "round {round}: first + 4 queued");
            assert_eq!(batch[0].key, round * 10 + 99);
        }
        let cap = batch.capacity();
        assert!(cap >= 5, "capacity persists across rounds");
    }

    #[test]
    fn dropping_a_collected_batch_shuts_waiters_down() {
        let (tx, rx) = sync_channel(4);
        let (r1, s1) = req(1);
        tx.send(r1).unwrap();
        let (r0, s0) = req(0);
        let mut batch = Vec::new();
        collect_batch_into(&rx, r0, &mut batch, 4);
        drop(batch); // a holder dying with requests aboard
        assert_eq!(*s0.wait(), Err(ServeError::ShuttingDown));
        assert_eq!(*s1.wait(), Err(ServeError::ShuttingDown));
    }
}
