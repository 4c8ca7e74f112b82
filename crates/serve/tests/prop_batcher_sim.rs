//! Property tests for the batcher's group commit on virtual time.
//!
//! Under a [`SimClock`] the semantics are *exact* whatever the real
//! scheduler does, so proptest can pin them across arbitrary arrival
//! patterns:
//!
//! 1. a batch never exceeds `max_batch`;
//! 2. a batch departs at its open instant holding exactly the backlog
//!    present then, capped at `max_batch`.

use dini_serve::batcher::{collect_batch_into, Request};
use dini_serve::clock::{Clock, SimClock};
use dini_serve::oneshot::CellPool;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_commit_exact_under_virtual_time(
        max_batch in 1usize..24,
        // Arrival gaps in µs; 0 = back-to-back (co-travellers for free).
        gaps_us in vec(0u64..600, 1..48),
    ) {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let clock = Clock::sim(&sim);

        let (tx, rx) = sync_channel::<Request>(1024);
        // Requests sent so far. `std`'s receiver has no `len()`, so the
        // backlog is counted: sent minus received. One thread runs at a
        // time under a `SimClock` and the feeder counts a request in the
        // same turn it sends it, so the difference is exact whenever
        // this thread reads it.
        let sent = Arc::new(AtomicUsize::new(0));
        let feeder = {
            let clock = clock.clone();
            let gaps = gaps_us.clone();
            let sent = sent.clone();
            // No waiter: the test reads batches, not replies.
            let replies = CellPool::new(0, clock.clone());
            clock.clone().spawn("feeder", move || {
                for (i, gap) in gaps.into_iter().enumerate() {
                    clock.sleep(Duration::from_micros(gap));
                    let reply = replies.take();
                    let req = Request { key: i as u32, enqueued: clock.now(), trace: 0, reply };
                    if tx.send(req).is_err() {
                        break;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                }
                // Dropping tx disconnects the queue: collection ends.
            })
        };

        let n_requests = gaps_us.len();
        let mut batch: Vec<Request> = Vec::new();
        let mut collected = 0usize;
        loop {
            let first = match clock.recv(&rx) {
                Ok(req) => req,
                Err(_) => break,
            };
            let open = clock.now();
            let backlog = sent.load(Ordering::Relaxed) - (collected + 1);
            let disconnected = collect_batch_into(&rx, first, &mut batch, max_batch);
            let departed = clock.now();
            collected += batch.len();

            // (1) size bound.
            prop_assert!(batch.len() <= max_batch, "batch overfilled: {}", batch.len());
            // (2) group commit: the opener plus the backlog at open,
            // nothing else, at once.
            prop_assert_eq!(departed, open, "a batch waited");
            prop_assert_eq!(batch.len(), (1 + backlog).min(max_batch));
            batch.clear();
            if disconnected {
                break;
            }
        }
        // Whatever the interleaving, every request rode exactly one batch.
        while let Ok(req) = rx.try_recv() {
            drop(req);
            collected += 1;
        }
        prop_assert_eq!(collected, n_requests, "requests lost or duplicated by coalescing");
        feeder.join().expect("feeder panicked");
    }
}
