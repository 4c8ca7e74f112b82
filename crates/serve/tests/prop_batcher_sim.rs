//! Property tests for batcher semantics — group commit and the timed
//! wait — on virtual time.
//!
//! The wall-clock batcher tests can only assert loose brackets ("waited
//! at least 25 ms, at most 300 ms") because real schedulers add noise.
//! Under a [`SimClock`] the semantics are *exact*, so proptest can pin
//! them across arbitrary arrival patterns:
//!
//! 1. a batch never exceeds `max_batch`;
//! 2. no batch is held open past `open + max_delay`;
//! 3. a partial batch (not full, feeder still alive) departs at
//!    **exactly** its deadline — in particular, a lone request
//!    dispatches at precisely `enqueue + max_delay`;
//! 4. at `max_delay` 0 (group commit, the shipped default) a batch
//!    departs at its open instant holding exactly the backlog present
//!    then, capped at `max_batch` — which is what 2 and 3 say at zero,
//!    plus the size.

use dini_serve::batcher::{collect_batch_into, Request};
use dini_serve::clock::{dur_ns, Clock, SimClock};
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
    fn deadline_semantics_exact_under_virtual_time(
        max_batch in 1usize..24,
        max_delay_us in prop_oneof![Just(0u64), 0u64..400],
        // Arrival gaps in µs; 0 = back-to-back (co-travellers for free).
        gaps_us in vec(0u64..600, 1..48),
    ) {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let clock = Clock::sim(&sim);
        let max_delay = Duration::from_micros(max_delay_us);

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
            let disconnected =
                collect_batch_into(&clock, &rx, first, &mut batch, max_batch, max_delay);
            let departed = clock.now();
            collected += batch.len();

            // (1) size bound.
            prop_assert!(batch.len() <= max_batch, "batch overfilled: {}", batch.len());
            // (2) no batch held past its deadline.
            prop_assert!(
                departed <= open + dur_ns(max_delay),
                "held {} ns past a {} ns budget",
                departed - open,
                dur_ns(max_delay)
            );
            // (3) a partial batch with a live feeder departs exactly at
            // its deadline (this is the lone-request case whenever
            // batch.len() == 1).
            if batch.len() < max_batch && !disconnected {
                prop_assert_eq!(
                    departed,
                    open + dur_ns(max_delay),
                    "partial batch departed early"
                );
            }
            // (4) group commit: the opener plus the backlog at open,
            // nothing else, at once.
            if max_delay.is_zero() {
                prop_assert_eq!(departed, open, "a zero-delay batch waited");
                prop_assert_eq!(batch.len(), (1 + backlog).min(max_batch));
            }
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
