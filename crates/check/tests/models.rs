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
//!   exactly once, on the last unpin; a borrow under the pin (`with`)
//!   holds off the `publish` that supersedes its epoch until it ends.
//! * `ReplyCell` / `CellPool` / `Filler`: a reply is never lost and
//!   never duplicated, and one fill wakes every waiter, however it races
//!   their parking; an answered cell goes back to its pool; a cell held
//!   by a waiter or by a filler is never handed to a new tenant; a
//!   filler dropped unanswered answers `ShuttingDown`.
//! * `OpenGroup` / `Member` and the group's ticket (the one reference a
//!   grouped lookup holds, counted from its group's close): a pipelined
//!   caller joining its open group while another thread polls one of
//!   the group's lookups loses no key and answers each exactly once; a
//!   group's ticket, and the cell it carries, never pass to a new group
//!   while any of its lookups is held — dropped on the owner's thread or
//!   on another; and a lookup dropped while a poll closes its group
//!   releases exactly the count it holds, so the ticket's count comes
//!   back to 0 and the ticket is recycled exactly once.
//! * `TraceRing`: a concurrent snapshot never returns a torn record,
//!   with one writer or two racing for a slot.
//! * `ReplicaGauge` and the two rows of `ReplicaMetrics`: the depth
//!   gauge reads only counts that exist and ends at 0; a caller that
//!   wins the claim counts in the claim row with plain stores, one that
//!   loses counts in the shared row with read-modify-writes, and the
//!   totals come out exact — a later claimant reads every count the
//!   earlier one stored.
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
use dini_serve::admission::ReplicaGauge;
use dini_serve::group::{OpenGroup, Ranker};
use dini_serve::oneshot::CellPool;
use dini_serve::{
    Clock, EpochCell, ReplicaMetrics, ServeError, ServeStats, ShardSnapshot, StageRecord,
    TraceConfig,
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

/// `EpochCell::with` lends the snapshot under the pin instead of a
/// reference, so the pin itself must keep the epoch alive: a borrower
/// yields inside `f` while a publisher publishes twice (the second
/// recycles the slot the first retired). `open` holds the epoch a borrow
/// has open (`u64::MAX`: none), set and cleared inside `f`. Once
/// `publish(e)` has returned, no borrow of an epoch before `e` may still
/// be open — the drain waited it out — and the borrower must read one
/// whole, live snapshot throughout (the model `Arc` turns a premature
/// free into a use-after-free failure).
#[test]
fn epoch_cell_with_holds_publish_until_the_borrow_ends() {
    const NONE: u64 = u64::MAX;
    let report = model("epoch-cell/with-vs-double-publish", || {
        let cell = StdArc::new(EpochCell::new(snap(0)));
        let open = StdArc::new(AtomicU64::new(NONE));
        let borrower = {
            let (cell, open) = (StdArc::clone(&cell), StdArc::clone(&open));
            thread::spawn(move || {
                cell.with(|s| {
                    open.store(s.main_epoch, Ordering::SeqCst);
                    dini_check::sync::yield_now();
                    assert_untorn(s);
                    open.store(NONE, Ordering::SeqCst);
                    s.main_epoch
                })
            })
        };
        for e in 1..=2 {
            cell.publish(snap(e));
            let o = open.load(Ordering::SeqCst);
            assert!(o == NONE || o >= e, "publish({e}) returned with a borrow of epoch {o} open");
        }
        assert!(borrower.join() <= 2);
        assert_eq!(cell.with(|s| s.main_epoch), 2);
    });
    assert!(report.executions >= 10, "with/publish race under-explored: {report:?}");
}

/// What a lookup's caller reads.
type Reply = Result<u32, ServeError>;

fn pool(capacity: usize) -> CellPool<Reply> {
    pool_of(capacity)
}

fn pool_of<T: dini_serve::oneshot::Unanswered>(capacity: usize) -> CellPool<T> {
    CellPool::new(capacity, Clock::system())
}

/// (a) A pooled reply crosses threads exactly once: the filler's value
/// is neither lost (the waiter parks forever — a detected deadlock) nor
/// observed as anything but what was sent, and the answered cell is back
/// in the pool once the filler is gone. Covers the SeqCst
/// publish/register handshake and the condvar park/notify.
#[test]
fn cell_pool_reply_is_never_lost() {
    let report = model("cell-pool/fill-vs-wait", || {
        let pool = pool(2);
        let filler = pool.take();
        let cell = filler.waiter();
        let dispatcher = thread::spawn(move || filler.fill(Ok(7)));
        assert_eq!(*cell.wait(), Ok(7), "reply lost or corrupted");
        dispatcher.join();
        assert_eq!(pool.idle(), 2, "the answered cell must be back in the pool");
    });
    assert!(report.executions >= 2, "fill/wait race under-explored: {report:?}");
}

/// (b) A request its waiter abandoned while its filler still holds it:
/// the filler's drop (answering `ShuttingDown` for nobody) races two new
/// tenants taking cells. Whatever the interleaving, a new tenant's cell
/// is pending when taken and reads its own reply — the pool never hands
/// out a cell the stale filler can still write.
#[test]
fn cell_pool_never_hands_a_held_cell_to_a_new_tenant() {
    let report = model("cell-pool/abandoned-vs-new-tenant", || {
        let pool = pool(2);
        let stale = pool.take();
        drop(stale.waiter()); // the waiter gives up; the filler still holds the cell
        let dispatcher = thread::spawn(move || drop(stale));
        for n in 0..2u32 {
            let filler = pool.take();
            let cell = filler.waiter();
            assert_eq!(cell.poll(), None, "a new tenant's cell came answered");
            filler.fill(Ok(n));
            drop(filler);
            assert_eq!(*cell.wait(), Ok(n), "a stale filler reached a recycled cell");
        }
        dispatcher.join();
    });
    assert!(report.executions >= 2, "stale-filler race under-explored: {report:?}");
}

/// (c) The drop-fill rule: a filler dropped unanswered — a client
/// frame torn down with its keys aboard, say — answers its parked
/// waiter `ShuttingDown`: never a lost wake (a model deadlock), never a
/// silent hang.
#[test]
fn a_request_dropped_unanswered_wakes_its_waiter() {
    let report = model("filler/drop-vs-parked-waiter", || {
        let pool = pool(2);
        let reply = pool.take();
        let cell = reply.waiter();
        let queue = vec![reply];
        let teardown = thread::spawn(move || drop(queue));
        assert_eq!(*cell.wait(), Err(ServeError::ShuttingDown), "waiter stranded or misanswered");
        teardown.join();
    });
    assert!(report.executions >= 2, "drop-fill/park race under-explored: {report:?}");
}

/// A frame's one fill races two waiters parking on it (the test thread
/// and one more): neither may sleep through the fill — a lost wake is a
/// model deadlock — and both read the one reply.
#[test]
fn reply_cell_fill_wakes_every_parked_waiter() {
    let report = model("reply-cell/fill-vs-waiters", || {
        let pool = pool(2);
        let filler = pool.take();
        let cell = filler.waiter();
        let waiter = {
            let cell = filler.waiter();
            thread::spawn(move || *cell.wait())
        };
        // The filler comes back unreturned: its trip to the pool is not
        // what this model is about, and would only multiply schedules.
        let dispatcher = thread::spawn(move || {
            filler.fill(Ok(7));
            filler
        });
        assert_eq!(*cell.wait(), Ok(7), "reply lost or corrupted");
        assert_eq!(waiter.join(), Ok(7), "second waiter lost the reply");
        drop(dispatcher.join());
    });
    assert!(report.executions >= 10, "fill/park race under-explored: {report:?}");
}

/// Recycling: the filler answers a one-cell pool's cell and gives it
/// back while a pending lookup still holds it and reads its reply twice;
/// the next take races that lookup. The pool must not recycle the cell
/// until the lookup has dropped its handle — were the cell reset (or
/// refilled) under it, its second read would see a pending cell or the
/// next tenant's reply.
#[test]
fn reply_cell_is_not_recycled_under_a_pending_lookup() {
    let report = model("reply-cell/recycle-vs-pending", || {
        let pool = pool(1);
        let filler = pool.take();
        let pending = filler.waiter();
        let lookup = thread::spawn(move || {
            let first = *pending.wait();
            dini_check::sync::yield_now();
            assert_eq!(pending.poll(), Some(&first), "cell recycled under a pending lookup");
            first
        });
        filler.fill(Ok(5));
        drop(filler);
        let next = pool.take();
        let cell = next.waiter();
        assert_eq!(cell.poll(), None, "a recycled cell is pending again");
        next.fill(Ok(9));
        assert_eq!(lookup.join(), Ok(5));
        assert_eq!(*cell.wait(), Ok(9));
    });
    assert!(report.executions >= 2, "recycle/pending race under-explored: {report:?}");
}

/// A ranker for the open-group models: answers `key * 10`, and records
/// each key it ranks as a bit, failing if one comes round twice.
#[derive(Default)]
struct Tens {
    ranked: AtomicU64,
}

impl Ranker for Tens {
    type Answer = Reply;
    type Scratch = ();
    fn rank(&self, keys: &[u32], _: &mut (), answers: &mut Vec<Reply>) {
        answers.clear();
        for &key in keys {
            let before = self.ranked.fetch_or(1 << key, Ordering::SeqCst);
            assert_eq!(before & (1 << key), 0, "key {key} ranked twice");
            answers.push(Ok(key * 10));
        }
    }
}

/// (a) The owner keeps joining keys to its open group while another
/// thread polls the group's first lookup — a poll ranks a group still
/// open, so the two race to close it. Whatever the interleaving, the
/// polled group is ranked once, the owner's later keys land in it or in
/// the next group, and every key is ranked exactly once and answered
/// with its own rank.
#[test]
fn open_group_join_races_a_poll_and_loses_no_key() {
    let report = model("open-group/join-vs-poll", || {
        let group = OpenGroup::shared(Tens::default(), pool_of(2));
        let first = OpenGroup::join(&group, 1);
        let poller = thread::spawn(move || {
            // `None` only while the owner is mid-rank on this group.
            let reply = first.poll().copied();
            reply.unwrap_or_else(|| *first.wait())
        });
        let second = OpenGroup::join(&group, 2);
        let third = OpenGroup::join(&group, 3);
        assert_eq!(*third.wait(), Ok(30));
        assert_eq!(*second.wait(), Ok(20));
        assert_eq!(poller.join(), Ok(10), "the polled lookup misanswered");
        assert_eq!(group.ranker().ranked.load(Ordering::SeqCst), 0b1110, "a key was lost");
    });
    assert!(report.executions >= 10, "join/poll race under-explored: {report:?}");
}

/// (b) Recycling: a group's two lookups hold one ticket, which carries
/// the group's cell; one is read twice from another thread while the
/// owner drops the other and opens the next group, whose cell comes from
/// a one-cell pool. Neither the ticket nor the cell may pass to the next
/// group while the held lookup can still read them.
#[test]
fn a_group_cell_is_not_recycled_under_a_held_lookup() {
    let report = model("open-group/recycle-vs-held-lookup", || {
        let group = OpenGroup::shared(Tens::default(), pool_of(1));
        let held = OpenGroup::join(&group, 1);
        let dropped = OpenGroup::join(&group, 2);
        let reader = thread::spawn(move || {
            let first = *held.wait();
            dini_check::sync::yield_now();
            assert_eq!(held.poll(), Some(&first), "group cell recycled under a held lookup");
            first
        });
        assert_eq!(*dropped.wait(), Ok(20));
        drop(dropped);
        let next = OpenGroup::join(&group, 3);
        assert_eq!(*next.wait(), Ok(30), "the next group misanswered");
        assert_eq!(reader.join(), Ok(10));
    });
    assert!(report.executions >= 2, "recycle/held race under-explored: {report:?}");
}

/// (c) A lookup dropped on another thread while its owner opens the
/// next group: the owner holds one lookup of a ranked group and hands
/// the other to a thread that drops it, racing the owner's next join,
/// which takes its ticket from the group's free list and its cell from a
/// one-cell pool. The drop lets go of a count, never of the ticket the
/// owner's lookup still holds: the next group gets a fresh ticket, the
/// held answer stays put, and once everything is dropped the group is
/// idle again (its strong count is back to the owner's).
#[test]
fn a_lookup_dropped_on_another_thread_frees_no_held_ticket() {
    let report = model("open-group/drop-vs-next-group", || {
        let group = OpenGroup::shared(Tens::default(), pool_of(1));
        let held = OpenGroup::join(&group, 1);
        let handed = OpenGroup::join(&group, 2);
        assert_eq!(*held.wait(), Ok(10));
        let dropper = thread::spawn(move || drop(handed));
        let next = OpenGroup::join(&group, 3);
        assert_eq!(held.poll(), Some(&Ok(10)), "a held lookup's ticket went to the next group");
        assert_eq!(*next.wait(), Ok(30), "the next group misanswered");
        dropper.join();
        assert_eq!(held.poll(), Some(&Ok(10)));
        drop((held, next));
        assert!(OpenGroup::is_idle(&group), "a released ticket still holds the group");
    });
    assert!(report.executions >= 2, "drop/next-group race under-explored: {report:?}");
}

/// (d) The count at close: a group's members join uncounted, and its
/// close counts those still held, under the join lock. Here the owner
/// drops one of a group's two lookups while another thread polls the
/// other — a poll closes and ranks a group still open — so the drop
/// meets the group open (it leaves uncounted, and its key is never
/// ranked) or closed (the close counted it, and it releases its count).
/// Either way the polled key is ranked once and answered, the dropped
/// one at most once, and when the polled lookup goes too the ticket's
/// count is back to exactly 0: the ticket is in the free list once, its
/// cell back in the pool, and the group idle.
#[test]
fn a_lookup_dropped_while_a_poll_closes_its_group_releases_its_own_count() {
    let report = model("open-group/drop-vs-close", || {
        let cells = pool_of(1);
        let group = OpenGroup::shared(Tens::default(), cells.clone());
        let polled = OpenGroup::join(&group, 1);
        let dropped = OpenGroup::join(&group, 2);
        let poller = thread::spawn(move || {
            // `None` only while the owner is mid-rank on this group.
            let reply = polled.poll().copied();
            reply.unwrap_or_else(|| *polled.wait())
        });
        drop(dropped);
        assert_eq!(poller.join(), Ok(10), "the polled lookup misanswered");
        let ranked = group.ranker().ranked.load(Ordering::SeqCst);
        assert!(ranked == 0b010 || ranked == 0b110, "a key was lost: {ranked:#b}");
        assert_eq!(OpenGroup::free_tickets(&group), 1, "the ticket came back ≠ once");
        assert_eq!(cells.idle(), 1, "the group's cell is not back in its pool");
        assert!(OpenGroup::is_idle(&group), "a released ticket still holds the group");
    });
    assert!(report.executions >= 10, "drop/close race under-explored: {report:?}");
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

/// Two writers race for the ring's slots while a reader snapshots it:
/// on a one-slot ring both writers want the same slot (one keeps it, or
/// the later position overwrites the earlier), on a two-slot ring each
/// has its own. Every record a snapshot returns, during the race or
/// after it, must be exactly one of the pushed records — the version
/// compare-exchange must keep a second writer out of a slot in flight.
#[test]
fn trace_ring_writers_and_a_reader_never_tear() {
    for (name, capacity) in [("trace-ring/two-writers-one-slot", 1), ("trace-ring/two-writers", 2)]
    {
        let report = model(name, || {
            let cfg = TraceConfig { capacity, sample_period: 1, seed: 0 };
            let ring = StdArc::new(TraceRing::new(&cfg));
            let writers = [1, 2].map(|i| {
                let ring = StdArc::clone(&ring);
                thread::spawn(move || ring.push(&rec(i)))
            });
            let whole = |r: &StageRecord| {
                assert_eq!(r.collected_ns, r.admitted_ns + 10, "torn record escaped: {r:?}");
                assert_eq!(r.filled_ns, r.admitted_ns + 25, "torn record escaped: {r:?}");
                assert!(r.admitted_ns == 100 || r.admitted_ns == 200, "phantom record: {r:?}");
            };
            ring.snapshot().iter().for_each(whole);
            for w in writers {
                w.join();
            }
            let settled = ring.snapshot();
            settled.iter().for_each(whole);
            assert_eq!(ring.recorded(), 2);
            if capacity == 2 {
                let mut kept: Vec<u64> = settled.iter().map(|r| r.admitted_ns).collect();
                kept.sort_unstable();
                assert_eq!(kept, [100, 200], "a writer with a slot of its own lost its record");
            } else {
                assert!(settled.len() <= 1);
            }
        });
        assert!(report.executions >= 10, "{name} under-explored: {report:?}");
    }
}

/// A caller as `HandleCore::rank_here` is one, for a batch of one key:
/// take the replica's claim or add to its depth, count the batch — in
/// the claim row under the claim, in the shared row without it — and
/// give the depth back. Returns whether it held the claim.
fn rank_one(gauge: &ReplicaGauge, metrics: &ReplicaMetrics) -> bool {
    let claimed = gauge.claim(1);
    if !claimed {
        gauge.add(1);
    }
    metrics.count_batch(1, claimed);
    if claimed {
        gauge.release(1);
    } else {
        gauge.complete(1);
    }
    claimed
}

/// A replica's depth gauge and accounting, shared by its callers.
fn replica(reg: &MetricsRegistry) -> StdArc<(ReplicaGauge, ReplicaMetrics)> {
    StdArc::new((ReplicaGauge::new(), ReplicaMetrics::new(reg, 0, 0, &TraceConfig::disabled())))
}

/// The depth gauge under a claim/add/probe race: a probe never reads a
/// depth beyond the counts that exist, the claim goes to at most one
/// caller at a time, and once everyone is gone the gauge reads 0 — and a
/// dead replica probes `None`.
#[test]
fn admission_gauges_stay_coherent_under_race() {
    let report = model("admission/gauges", || {
        let g = ReplicaGauge::new();
        let caller = {
            let g = g.clone();
            thread::spawn(move || {
                let claimed = g.claim(1);
                if !claimed {
                    g.add(1);
                }
                let d = g.depth();
                assert!((1..=2).contains(&d), "depth {d} while this caller counts itself");
                if claimed {
                    g.release(1);
                } else {
                    g.complete(1);
                }
                claimed
            })
        };
        let claimed = g.claim(1);
        if !claimed {
            g.add(1);
        }
        let d = g.depth();
        assert!((1..=2).contains(&d), "depth {d} with one or two callers counted");
        let caller_claimed = caller.join();
        assert!(!(claimed && caller_claimed) || d == 1, "two callers held the claim at once");
        if claimed {
            g.release(1);
        } else {
            g.complete(1);
        }
        assert_eq!(g.depth(), 0, "the gauge outlived every caller");
        g.mark_dead();
        assert_eq!(g.probe(), None, "dead replicas must probe None");
    });
    assert!(report.executions >= 2, "gauge race under-explored: {report:?}");
}

/// A claim winner and a loser on one replica, racing a third caller on
/// this thread: whichever wins the claim counts in the claim row with
/// plain loads and stores, whichever loses in the shared row with
/// read-modify-writes. `served` must read all three keys and `claimed`
/// exactly the winners' — which holds only if a later winner's load
/// sees every store an earlier one made (the release sequence the
/// losers' depth RMWs continue), and no loser writes the claim row.
#[test]
fn a_claim_winner_and_a_loser_count_exactly() {
    let report = model("admission/winner-and-loser", || {
        let reg = MetricsRegistry::new();
        let r = replica(&reg);
        let caller = || {
            let r = StdArc::clone(&r);
            thread::spawn(move || rank_one(&r.0, &r.1))
        };
        let (a, b) = (caller(), caller());
        let later = rank_one(&r.0, &r.1);
        let wins = [a.join(), b.join(), later].into_iter().filter(|&w| w).count() as u64;
        assert!(wins >= 1, "nobody won the claim of an idle replica");
        let stats = ServeStats::from(&reg.snapshot());
        assert_eq!(stats.served, 3, "a count was lost");
        assert_eq!(stats.claimed, wins, "the claim row does not count exactly the winners");
        assert_eq!(r.0.depth(), 0, "the gauge outlived every caller");
    });
    assert!(report.executions >= 20, "winner/loser race under-explored: {report:?}");
}

/// Regression: the record-before-release contract `stats.rs` documents.
/// A caller folds its batch into `ReplicaMetrics` (the claim row's
/// `Relaxed` loads and stores) *before* releasing the answers — a
/// group's reply cell, read by the thread that began a grouped lookup;
/// the release is an acquire/release handoff through the reply word, so
/// a thread that has observed its reply must observe `served >= 1` —
/// under every interleaving and every weak-memory value choice.
#[test]
fn replica_metrics_record_before_release_is_visible() {
    let report = model("replica-metrics/record-before-release", || {
        let reg = MetricsRegistry::new();
        let m = StdArc::new(ReplicaMetrics::new(&reg, 0, 0, &TraceConfig::disabled()));
        let pool = pool(1);
        let reply = pool.take();
        let cell = reply.waiter();
        let holder = {
            let m = StdArc::clone(&m);
            thread::spawn(move || {
                m.count_batch(1, true);
                reply.fill(Ok(1));
                reply // returned to the pool after the join, off the race
            })
        };
        assert_eq!(*cell.wait(), Ok(1));
        let served = ServeStats::from(&reg.snapshot()).served;
        assert!(served >= 1, "observed a reply but served={served}: count released early");
        drop(holder.join());
        assert_eq!(ServeStats::from(&reg.snapshot()).served, 1);
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
