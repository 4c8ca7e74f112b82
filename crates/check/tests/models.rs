//! Exhaustive model checks of the production lock-free primitives.
//!
//! Each test compiles the *real* `dini-serve` / `dini-obs` code — not a
//! copy — against the `dini-check` shim (both crates import their
//! atomics through a `sync` seam module) and explores every bounded
//! interleaving and weak-memory value choice of a small concurrent
//! scenario, asserting the contract the rest of the repo relies on:
//!
//! * `EpochCell`: readers never observe a torn or freed snapshot; the
//!   superseded epoch is released by the cell inside `publish` and freed
//!   exactly once, on the last unpin.
//! * `SlotPool` / `ReplyCell`: a reply is never lost and never
//!   duplicated, across fills, parks, and generation recycling.
//! * `TraceRing`: a concurrent snapshot never returns a torn record.
//! * `AdmissionQueue`: the admitted/shed/depth gauges stay coherent
//!   with what actually entered the queue.
//! * `ReplicaMetrics`: a caller that has observed its reply observes
//!   the `served` count of the batch that produced it (the
//!   record-before-release contract `stats.rs` documents).
//!
//! The suite only builds under `RUSTFLAGS="--cfg dini_check"`; in a
//! normal build it compiles to nothing (and the production crates pay
//! nothing either — the seam re-exports `std::sync`).

#![cfg(dini_check)]

use dini_check::model::{model, thread, Checker};
use dini_check::sync::{Arc, AtomicU64, Ordering};
use dini_obs::{MetricsRegistry, TraceRing};
use dini_serve::admission::AdmissionQueue;
use dini_serve::batcher::Request;
use dini_serve::oneshot::reply_pair;
use dini_serve::{
    Clock, EpochCell, ReplicaMetrics, ShardSnapshot, SlotPool, StageRecord, TraceConfig,
};
use std::sync::Arc as StdArc;

/// A self-describing snapshot: `base_rank` is derived from the epoch,
/// so a reader observing a mixed pair proves a torn or stale read.
fn snap(epoch: u64) -> ShardSnapshot {
    ShardSnapshot {
        main_epoch: epoch,
        base_rank: (epoch * 10) as u32,
        ..ShardSnapshot::empty(0, 0)
    }
}

/// A self-describing stage record: every later stage is a fixed offset
/// from `admitted_ns`, so any mix of two records fails the arithmetic.
fn rec(i: u64) -> StageRecord {
    StageRecord {
        admitted_ns: i * 100,
        collected_ns: i * 100 + 10,
        dispatched_ns: i * 100 + 11,
        answered_ns: i * 100 + 20,
        filled_ns: i * 100 + 25,
        ..StageRecord::default()
    }
}

fn assert_untorn(s: &ShardSnapshot) {
    assert_eq!(
        u64::from(s.base_rank),
        s.main_epoch * 10,
        "torn snapshot: epoch {} with base_rank {}",
        s.main_epoch,
        s.base_rank
    );
}

/// Two readers pin and dereference snapshots while a publisher swaps
/// the epoch under them. The model `Arc` turns a premature free into a
/// use-after-free failure, the self-describing payload catches torn
/// reads, and the strong counts prove the release rule: once `publish`
/// has returned, the cell holds no reference to the superseded epoch —
/// only the readers that pinned it do — so the last unpin frees it
/// without waiting for another publish.
#[test]
fn epoch_cell_readers_race_one_publish() {
    let report = model("epoch-cell/readers-vs-publish", || {
        let cell = StdArc::new(EpochCell::new(snap(0)));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = StdArc::clone(&cell);
                thread::spawn(move || {
                    let s = cell.load();
                    assert_untorn(&s);
                    s
                })
            })
            .collect();
        cell.publish(snap(1));
        let pins: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
        let superseded = pins.iter().filter(|s| s.main_epoch == 0).count();
        for s in &pins {
            assert!(s.main_epoch <= 1, "reader observed unpublished epoch {}", s.main_epoch);
            if s.main_epoch == 0 {
                assert_eq!(
                    Arc::strong_count(s),
                    superseded,
                    "publish returned but the cell still references the superseded epoch"
                );
            }
        }
        let now = cell.load();
        assert_untorn(&now);
        assert_eq!(now.main_epoch, 1, "post-publish load must see the new epoch");
    });
    assert!(report.executions >= 10, "publish/load race under-explored: {report:?}");
}

/// Regression (3 threads): a reader holds its pin across *two*
/// publishes — the window where the cell recycles the slot the pinned
/// epoch lives in. The snapshot must stay dereferenceable until the
/// reader drops it (unpin frees last), and the leak check proves both
/// superseded epochs are freed by execution end.
#[test]
fn epoch_cell_unpin_frees_last_under_double_publish() {
    let report = model("epoch-cell/unpin-frees-last", || {
        let cell = StdArc::new(EpochCell::new(snap(0)));
        let reader = {
            let cell = StdArc::clone(&cell);
            thread::spawn(move || {
                let s = cell.load();
                // Keep the pinned epoch alive across the publisher's
                // slot recycling before dereferencing it.
                dini_check::sync::yield_now();
                assert_untorn(&s);
            })
        };
        let publisher = {
            let cell = StdArc::clone(&cell);
            thread::spawn(move || {
                cell.publish(snap(1));
                cell.publish(snap(2));
            })
        };
        reader.join();
        publisher.join();
        assert_eq!(cell.load().main_epoch, 2);
    });
    assert!(report.executions >= 10, "double-publish race under-explored: {report:?}");
}

/// A pooled reply crosses threads exactly once: the filler's value is
/// neither lost (the waiter parks forever — a detected deadlock) nor
/// observed as anything but what was sent. Covers the word CAS, the
/// parked-counter SeqCst handshake, and the condvar park/notify.
#[test]
fn slot_pool_reply_is_never_lost() {
    let report = model("slot-pool/fill-vs-wait", || {
        let pool = SlotPool::new(2);
        let (slot, handle) = pool.take();
        let filler = thread::spawn(move || handle.send(Ok(7)));
        assert_eq!(slot.wait(), Ok(7), "reply lost or corrupted");
        filler.join();
        assert_eq!(pool.idle(), 1, "reaped cell must return to the pool");
    });
    assert!(report.executions >= 2, "fill/wait race under-explored: {report:?}");
}

/// Generation recycling: a stale `ReplyHandle` from an abandoned
/// lookup races the recycled cell's new tenant. Whatever the
/// interleaving, the stale fill (a `SHUTDOWN` written by the handle's
/// drop) must miss, and the new tenant's reply must win.
#[test]
fn slot_pool_stale_generation_cannot_corrupt_new_tenant() {
    let report = model("slot-pool/stale-generation", || {
        let pool = SlotPool::new(2);
        let (slot, stale) = pool.take();
        drop(slot); // abandon while pending: the cell is recycled below
        let (slot2, handle2) = pool.take(); // same cell, new generation
        let staler = thread::spawn(move || drop(stale)); // fills SHUTDOWN at the old gen
        handle2.send(Ok(9));
        assert_eq!(slot2.wait(), Ok(9), "stale fill corrupted the recycled cell");
        staler.join();
    });
    assert!(report.executions >= 2, "stale-fill race under-explored: {report:?}");
}

/// The seqlock ring: a reader snapshots while the single writer wraps
/// the one-slot ring, so the reader races the writer *inside* a slot
/// rewrite. Every record a snapshot returns must be exactly one of the
/// pushed records — the version protocol must discard torn reads.
#[test]
fn trace_ring_snapshot_never_returns_torn_record() {
    let report = model("trace-ring/snapshot-vs-wrap", || {
        let ring =
            StdArc::new(TraceRing::new(&TraceConfig { capacity: 1, sample_period: 1, seed: 0 }));
        let writer = {
            let ring = StdArc::clone(&ring);
            thread::spawn(move || {
                ring.push(&rec(1));
                ring.push(&rec(2)); // wraps: rewrites the same slot
            })
        };
        for r in ring.snapshot() {
            assert_eq!(r.collected_ns, r.admitted_ns + 10, "torn record escaped: {r:?}");
            assert_eq!(r.filled_ns, r.admitted_ns + 25, "torn record escaped: {r:?}");
            assert!(r.admitted_ns == 100 || r.admitted_ns == 200, "phantom record: {r:?}");
        }
        writer.join();
        let settled = ring.snapshot();
        assert_eq!(settled.len(), 1);
        assert_eq!(settled[0], rec(2), "settled ring must retain the last push");
        assert_eq!(ring.recorded(), 2);
    });
    assert!(report.executions >= 10, "seqlock race under-explored: {report:?}");
}

/// Admission gauges under a submit/probe race: `admitted`, `shed`, and
/// the depth gauge must agree with what actually entered the bounded
/// queue, and a concurrent probe must never read a depth beyond what
/// was ever submitted.
#[test]
fn admission_gauges_stay_coherent_under_race() {
    fn req(key: u32) -> Request {
        let (_slot, handle) = reply_pair();
        Request { key, enqueued: Clock::system().now(), trace: 0, reply: handle }
    }
    let report = model("admission/gauges", || {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let q = AdmissionQueue::new(0, 0, tx, Clock::system());
        let submitter = {
            let q = q.clone();
            thread::spawn(move || {
                let first = q.try_submit(req(1)).is_ok();
                let second = q.try_submit(req(2)).is_ok();
                (first, second)
            })
        };
        let d = q.depth();
        assert!(d <= 2, "depth gauge beyond anything submitted: {d}");
        let (first, second) = submitter.join();
        assert!(first, "capacity-1 queue must admit the first request");
        assert!(!second, "capacity-1 queue must shed the second request");
        assert_eq!((q.admitted(), q.shed(), q.depth()), (1, 1, 1));
        q.complete(1);
        assert_eq!(q.probe(), Some(0));
        q.mark_dead();
        assert_eq!(q.probe(), None, "dead replicas must probe None");
        drop(rx);
    });
    assert!(report.executions >= 2, "gauge race under-explored: {report:?}");
}

/// Regression: the record-before-release contract `stats.rs` documents.
/// The dispatcher folds a batch into `ReplicaMetrics` (all `Relaxed`
/// adds) *before* releasing the reply; the release is an
/// acquire/release handoff through the reply word, so a caller that has
/// observed its reply must observe `served >= 1` — under every
/// interleaving and every weak-memory value choice.
#[test]
fn replica_metrics_record_before_release_is_visible() {
    let report = model("replica-metrics/record-before-release", || {
        let reg = MetricsRegistry::new();
        let m = StdArc::new(ReplicaMetrics::new(&reg, 0, 0, &TraceConfig::disabled()));
        let (slot, handle) = reply_pair();
        let dispatcher = {
            let m = StdArc::clone(&m);
            thread::spawn(move || {
                m.record_batch(&[100.0]);
                handle.send(Ok(1));
            })
        };
        assert_eq!(slot.wait(), Ok(1));
        let served = m.snapshot().served;
        assert!(served >= 1, "observed a reply but served={served}: count released early");
        dispatcher.join();
        assert_eq!(m.snapshot().served, 1);
    });
    assert!(report.executions >= 2, "record/release race under-explored: {report:?}");
}

/// Teeth (mutation): a seqlock that skips the odd-marking and the
/// fences — the bug `TraceRing::push`'s version protocol exists to
/// prevent. The checker must find the interleaving where a reader
/// passes both version checks yet reads a half-written record.
#[test]
#[should_panic(expected = "torn record observed")]
fn seqlock_without_write_marking_is_caught() {
    struct BrokenSlot {
        lo: AtomicU64,
        hi: AtomicU64,
        version: AtomicU64,
    }
    Checker::new().model("mutation/broken-seqlock", || {
        let slot = StdArc::new(BrokenSlot {
            lo: AtomicU64::new(0),
            hi: AtomicU64::new(0),
            version: AtomicU64::new(0),
        });
        let writer = {
            let slot = StdArc::clone(&slot);
            thread::spawn(move || {
                // No odd pre-bump, no Release ordering: the reader's
                // version checks can pass around a half-written record.
                slot.lo.store(1, Ordering::Relaxed);
                slot.hi.store(1, Ordering::Relaxed);
                slot.version.store(2, Ordering::Relaxed);
            })
        };
        let v1 = slot.version.load(Ordering::Relaxed);
        if v1 % 2 == 0 {
            let lo = slot.lo.load(Ordering::Relaxed);
            let hi = slot.hi.load(Ordering::Relaxed);
            if slot.version.load(Ordering::Relaxed) == v1 {
                assert_eq!(lo, hi, "torn record observed");
            }
        }
        writer.join();
    });
}
