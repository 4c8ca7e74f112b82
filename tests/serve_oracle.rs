//! End-to-end correctness of the serving layer against a single-threaded
//! oracle: churn streams replay both into `IndexServer::update` (folded
//! through per-shard `DeltaArray`s, published as epoch snapshots,
//! merged/rebuilt when over budget) and into a `BTreeSet`; ranks must
//! agree exactly after `quiesce()` — for any shard count, with merges
//! forced often, with an overlay never merged until its directory is
//! three levels deep, and with concurrent readers hammering the server
//! while snapshots are being published.

use dini::cluster::Fault;
use dini::serve::{IndexServer, LoadMode, Op, ServeConfig, ServeError};
use dini::workload::{ChurnGen, KeyDistribution, OpMix};
use dini_serve::run_load;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// Wait until every reader has counted itself into `started` (one
/// completed lookup each), or until one has finished: a reader only
/// stops early by panicking, and its `join` then reports the failure
/// instead of this wait hanging.
fn await_readers<T>(started: &AtomicUsize, readers: &[JoinHandle<T>]) {
    while started.load(Ordering::SeqCst) < readers.len() && !readers.iter().any(|r| r.is_finished())
    {
        std::thread::yield_now();
    }
}

fn oracle_rank(set: &BTreeSet<u32>, q: u32) -> u32 {
    set.range(..=q).count() as u32
}

/// Deterministic initial keys in a compact range so churn collides with
/// them often (tombstones, resurrects, duplicate inserts).
fn initial_keys(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| i * 16 + 3).collect()
}

fn serve_cfg(shards: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(shards);
    cfg.max_batch = 128;
    cfg.merge_threshold = 64; // force many merge/rebuild epochs
    cfg.publish_every = 16;
    cfg
}

/// Replay `n_ops` of churn into both the server and a BTreeSet oracle.
/// Query ops are collected and later checked against the oracle.
fn replay_churn(
    server: &IndexServer,
    set: &mut BTreeSet<u32>,
    seed: u64,
    n_ops: usize,
) -> Vec<u32> {
    // Keys from the same compact range as the initial set.
    let dist = KeyDistribution::Clustered { lo: 0, hi: 70_000 };
    let mut churn = ChurnGen::new(seed, dist, OpMix::write_heavy());
    let mut query_keys = Vec::new();
    for _ in 0..n_ops {
        let op = churn.next_op();
        match op {
            Op::Query(k) => query_keys.push(k),
            Op::Insert(k) => {
                set.insert(k);
            }
            Op::Delete(k) => {
                set.remove(&k);
            }
        }
        server.update(op).expect("writer alive");
    }
    query_keys
}

#[test]
fn churn_replay_matches_oracle_across_shard_counts() {
    for shards in [1usize, 2, 4, 7] {
        let keys = initial_keys(4000);
        let mut set: BTreeSet<u32> = keys.iter().copied().collect();
        let server = IndexServer::build(&keys, serve_cfg(shards));
        let handle = server.handle();

        let queries = replay_churn(&server, &mut set, 1000 + shards as u64, 3000);
        server.quiesce();

        let stats = server.stats();
        assert!(stats.merges > 0, "{shards} shards: churn must cross the merge threshold");

        // The churn stream's own queries…
        for &q in queries.iter().step_by(3) {
            assert_eq!(
                handle.lookup(q).expect("serving"),
                oracle_rank(&set, q),
                "{shards} shards, churn query {q}"
            );
        }
        // …plus a full sweep across the key range, shard boundaries
        // included.
        for q in (0..70_100u32).step_by(211) {
            assert_eq!(
                handle.lookup(q).expect("serving"),
                oracle_rank(&set, q),
                "{shards} shards, sweep query {q}"
            );
        }
        assert_eq!(server.len(), set.len());
    }
}

#[test]
fn second_churn_round_stays_correct_after_rebuilds() {
    // Crossing many merge epochs must not accumulate drift: replay two
    // rounds with a full verification between them.
    let keys = initial_keys(2000);
    let mut set: BTreeSet<u32> = keys.iter().copied().collect();
    let server = IndexServer::build(&keys, serve_cfg(3));
    let handle = server.handle();

    for round in 0..2u64 {
        replay_churn(&server, &mut set, 77 + round, 2500);
        server.quiesce();
        for q in (0..70_100u32).step_by(173) {
            assert_eq!(
                handle.lookup(q).expect("serving"),
                oracle_rank(&set, q),
                "round {round}, query {q}"
            );
        }
    }
    assert!(server.stats().merges >= 2);
}

#[test]
fn a_deep_overlay_ranks_exactly_after_quiesce() {
    // Every other test merges at 8–64 pending ops. Here nothing merges:
    // 5 500 mixed inserts and deletes all stay in the overlay, whose
    // line directory grows to two levels (over 256 keys) and then to
    // three (over 4 096), and every rank must still be the oracle's.
    let keys = initial_keys(4000);
    let initial: BTreeSet<u32> = keys.iter().copied().collect();
    let mut set = initial.clone();
    let mut cfg = ServeConfig::new(1);
    cfg.merge_threshold = 1 << 30;
    let server = IndexServer::build(&keys, cfg);
    let handle = server.handle();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for (round, ops) in [(0, 2_000), (1, 3_500)] {
        for _ in 0..ops {
            let r = next();
            // Mostly fresh inserts and deletes of initial keys; one op in
            // twenty undoes a pending one (deletes an insert, re-inserts
            // a tombstone), which shrinks the overlay instead.
            let op = match r % 20 {
                0..=11 => Op::Insert((r >> 8) as u32 % 70_000),
                12..=18 => Op::Delete(keys[(r >> 8) as usize % keys.len()]),
                _ => match set.symmetric_difference(&initial).nth((r >> 8) as usize % 64) {
                    Some(&k) if set.contains(&k) => Op::Delete(k),
                    Some(&k) => Op::Insert(k),
                    None => continue,
                },
            };
            match op {
                Op::Insert(k) => set.insert(k),
                Op::Delete(k) => set.remove(&k),
                Op::Query(_) => unreachable!(),
            };
            server.update(op).expect("writer alive");
        }
        server.quiesce();
        // With no merge, the overlay is exactly the keys whose presence
        // changed: pending inserts and tombstones.
        let overlay: Vec<u32> = set.symmetric_difference(&initial).copied().collect();
        let (lo, hi, levels) = [(257, 4096, 2), (4097, usize::MAX, 3)][round];
        assert!(
            (lo..=hi).contains(&overlay.len()),
            "round {round}: an overlay of {} keys has no {levels}-level directory",
            overlay.len()
        );
        let mut probes = vec![0, u32::MAX];
        for &k in &overlay {
            probes.extend([k.saturating_sub(1), k, k + 1]);
        }
        probes.extend((0..70_100u32).step_by(97));
        let live: Vec<u32> = set.iter().copied().collect();
        let want: Vec<u32> =
            probes.iter().map(|&q| live.partition_point(|&k| k <= q) as u32).collect();
        assert_eq!(handle.lookup_many(&probes).expect("serving"), want, "round {round}");
        for (&q, &w) in probes.iter().zip(&want) {
            assert_eq!(handle.lookup(q).expect("serving"), w, "round {round}, query {q}");
        }
        assert_eq!(server.len(), set.len());
    }
    assert_eq!(server.stats().merges, 0, "the overlay is never merged away");
}

#[test]
fn lookups_during_churn_converge_to_oracle() {
    // DeltaArray under concurrent snapshot publication: readers hammer
    // the server from other threads while the writer folds churn,
    // publishes snapshots, and rebuilds indexes. Concurrent answers are
    // allowed to be stale, never torn; afterwards a quiesce must bring
    // everything to the oracle state.
    let keys = initial_keys(4000);
    let mut set: BTreeSet<u32> = keys.iter().copied().collect();
    let server = IndexServer::build(&keys, serve_cfg(4));
    let handle = server.handle();

    let stop = std::sync::Arc::new(AtomicBool::new(false));
    // Readers that have completed a lookup: the churn waits for all
    // four, so none can sleep through it.
    let started = std::sync::Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let h = server.handle();
            let (stop, started) = (stop.clone(), started.clone());
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut k = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    k = k.wrapping_add(0x9E37_79B9).wrapping_add(r);
                    let rank = h.lookup(k % 70_000).expect("serving");
                    // Rank is bounded by the key universe at all times —
                    // a torn snapshot would violate this wildly.
                    assert!(rank <= 80_000, "implausible rank {rank}");
                    if served == 0 {
                        started.fetch_add(1, Ordering::SeqCst);
                    }
                    served += 1;
                }
                served
            })
        })
        .collect();

    await_readers(&started, &readers);
    replay_churn(&server, &mut set, 4242, 6000);
    server.quiesce();
    stop.store(true, Ordering::Relaxed);
    let concurrent_lookups: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(concurrent_lookups > 0, "readers must have made progress");

    for q in (0..70_100u32).step_by(101) {
        assert_eq!(handle.lookup(q).expect("serving"), oracle_rank(&set, q), "query {q}");
    }
    let stats = server.stats();
    assert!(stats.merges > 0 && stats.snapshots_published > 0);
}

#[test]
fn replica_reads_stay_inside_the_rank_window_across_merges() {
    // A reply computed from a main array and an overlay of different
    // epochs double-counts (or drops) up to a merge threshold's worth of
    // keys. Insert-only churn makes that visible from outside: the rank
    // of u32::MAX is the live count, which only ever grows, so a reply
    // must lie between what was certainly published when the lookup was
    // submitted and what had been sent when it returned. The updater
    // keeps that window narrower than the merge threshold by never
    // running more than a chunk ahead of publication.
    const CHUNK: usize = 8;
    const PUBLISH_EVERY: usize = 4;
    const MERGE_THRESHOLD: usize = 48;
    const INSERTS: usize = 1200;

    let keys = initial_keys(4000);
    let mut set: BTreeSet<u32> = keys.iter().copied().collect();
    let mut cfg = serve_cfg(1);
    cfg.replicas_per_shard = 2;
    cfg.merge_threshold = MERGE_THRESHOLD;
    cfg.publish_every = PUBLISH_EVERY;
    let server = IndexServer::build(&keys, cfg);

    let sent = std::sync::Arc::new(AtomicUsize::new(0));
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    // Readers that have completed a lookup: the storm waits for all four,
    // so none can sleep through it.
    let started = std::sync::Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let h = server.handle();
            let (sent, stop, started) = (sent.clone(), stop.clone(), started.clone());
            let n0 = keys.len();
            std::thread::spawn(move || {
                // (ranked by this thread on an idle replica, queued for
                // a dispatcher behind a claimed one)
                let mut served = (0u64, 0u64);
                while !stop.load(Ordering::SeqCst) {
                    let before = sent.load(Ordering::SeqCst);
                    let pending =
                        h.begin_lookup(u32::MAX).expect("four callers never fill a queue");
                    let claimed = pending.poll().is_some();
                    let rank = pending.wait().expect("serving") as usize;
                    let after = sent.load(Ordering::SeqCst);
                    let lo = n0 + before.saturating_sub(CHUNK + PUBLISH_EVERY);
                    assert!(
                        (lo..=n0 + after).contains(&rank),
                        "rank {rank} outside [{lo}, {}]: a mixed (main, overlay) pair",
                        n0 + after
                    );
                    if served == (0, 0) {
                        started.fetch_add(1, Ordering::SeqCst);
                    }
                    if claimed {
                        served.0 += 1;
                    } else {
                        served.1 += 1;
                    }
                }
                served
            })
        })
        .collect();

    // Keys that are never in the initial set (those are ≡ 3 mod 16).
    let fresh: Vec<u32> = (0..INSERTS as u32).map(|i| i * 48 + 5).collect();
    await_readers(&started, &readers);
    for chunk in fresh.chunks(CHUNK) {
        for &k in chunk {
            sent.fetch_add(1, Ordering::SeqCst);
            server.update(Op::Insert(k)).expect("writer alive");
            set.insert(k);
        }
        // `len()` is the live count as of the last publication, which
        // trails the applied count by less than `publish_every`.
        while server.len() + PUBLISH_EVERY <= set.len() {
            std::thread::yield_now();
        }
    }
    server.quiesce();
    stop.store(true, Ordering::SeqCst);
    let (mut claimed, mut queued) = (0, 0);
    for r in readers {
        let served = r.join().unwrap();
        assert!(served.0 + served.1 > 0, "every reader must have made progress");
        claimed += served.0;
        queued += served.1;
    }
    // Four callers on two replicas: the window must hold whoever ranks.
    assert!(claimed > 0, "no lookup was ranked by its caller");
    assert!(queued > 0, "no lookup was queued behind a claimed replica");
    assert!(server.stats().merges >= 20, "only {} merges", server.stats().merges);
    assert!(
        server.replica_stats().iter().all(|r| r.served > 0),
        "both replicas must have served part of the storm"
    );

    let handle = server.handle();
    for q in (0..70_100u32).step_by(101) {
        assert_eq!(handle.lookup(q).expect("serving"), oracle_rank(&set, q), "query {q}");
    }
}

#[test]
fn shard_boundary_churn_with_concurrent_readers_matches_oracle() {
    // The rank-composition edges the plain churn sweep doesn't pin down:
    // inserts *below the global minimum key* (shard 0's base grows from
    // the left), inserts *above the maximum* (the unbounded last shard),
    // and *emptying one shard entirely* (its base_rank contribution must
    // drop to zero while its neighbours keep serving) — all while reader
    // threads hammer the server through the publication churn.
    let keys: Vec<u32> = (0..2000u32).map(|i| 10_000 + i * 16).collect();
    let mut set: BTreeSet<u32> = keys.iter().copied().collect();
    let server = IndexServer::build(&keys, serve_cfg(4));
    let handle = server.handle();

    let stop = std::sync::Arc::new(AtomicBool::new(false));
    // Readers that have completed a lookup: the churn waits for both.
    let started = std::sync::Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let h = server.handle();
            let (stop, started) = (stop.clone(), started.clone());
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut k = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    k = k.wrapping_add(0x9E37_79B9).wrapping_add(r);
                    let rank = h.lookup(k % 60_000).expect("serving");
                    assert!(rank <= 4100, "implausible rank {rank}");
                    if served == 0 {
                        started.fetch_add(1, Ordering::SeqCst);
                    }
                    served += 1;
                }
                served
            })
        })
        .collect();
    await_readers(&started, &readers);

    // Below the global minimum: new leftmost keys shift every rank.
    for k in 0..200u32 {
        server.update(Op::Insert(k * 3)).unwrap();
        set.insert(k * 3);
    }
    // Above the global maximum: the last shard's open range absorbs them.
    for k in 0..200u32 {
        server.update(Op::Insert(50_000 + k * 7)).unwrap();
        set.insert(50_000 + k * 7);
    }
    // Empty shard 0 completely: its 500 initial keys all die (the shard's
    // merged main array vanishes), then churn partially refills it.
    for &k in keys.iter().take(500) {
        server.update(Op::Delete(k)).unwrap();
        set.remove(&k);
    }
    server.quiesce();
    for q in [0, 9_999, 10_000, 17_984, 17_985, 60_000, u32::MAX] {
        assert_eq!(handle.lookup(q).unwrap(), oracle_rank(&set, q), "mid-churn probe {q}");
    }
    for &k in keys.iter().take(100).step_by(2) {
        server.update(Op::Insert(k)).unwrap();
        set.insert(k);
    }
    server.quiesce();

    stop.store(true, Ordering::Relaxed);
    let concurrent: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(concurrent > 0, "readers must have made progress");

    // Full sweep, shard boundaries and the emptied range included.
    for q in (0..60_100u32).step_by(97) {
        assert_eq!(handle.lookup(q).unwrap(), oracle_rank(&set, q), "sweep query {q}");
    }
    assert_eq!(server.len(), set.len());
    assert!(server.stats().merges > 0, "emptying a shard must cross the merge threshold");
}

#[test]
fn a_pipelined_caller_stays_inside_the_rank_window_under_churn() {
    // A caller keeping a window of lookups in flight has every lookup
    // after its first join its handle's open group, ranked when the
    // group fills or is first reaped — some time between its begin and
    // its reap. Insert-only churn of ascending keys makes the reply's
    // window computable: rank(q) counts the initial keys ≤ q plus the
    // fresh keys ≤ q among those inserted so far. So a reply must lie
    // between the rank over what was certainly published at the begin
    // and the rank over what had been sent at the reap. Two such
    // callers on two shards: a group finds its replica claimed by the
    // other caller often enough to queue part of itself.
    const WINDOW: usize = 64;
    const CHUNK: usize = 8;
    const PUBLISH_EVERY: usize = 4;
    const INSERTS: usize = 1200;

    let keys = initial_keys(4000);
    let mut set: BTreeSet<u32> = keys.iter().copied().collect();
    let mut cfg = serve_cfg(2);
    cfg.merge_threshold = 48;
    cfg.publish_every = PUBLISH_EVERY;
    let server = IndexServer::build(&keys, cfg);
    // Keys that are never in the initial set (those are ≡ 3 mod 16),
    // ascending: the first `n` inserted that are ≤ q are
    // `min(n, fresh.partition_point(≤ q))`.
    let fresh: std::sync::Arc<Vec<u32>> =
        std::sync::Arc::new((0..INSERTS as u32).map(|i| i * 48 + 5).collect());
    let base = std::sync::Arc::new(keys.clone());
    let rank_after = move |base: &[u32], fresh: &[u32], q: u32, n: usize| {
        (base.partition_point(|&k| k <= q) + n.min(fresh.partition_point(|&k| k <= q))) as u32
    };

    let sent = std::sync::Arc::new(AtomicUsize::new(0));
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let started = std::sync::Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..2u32)
        .map(|r| {
            let h = server.handle();
            let (sent, stop, started) = (sent.clone(), stop.clone(), started.clone());
            let (base, fresh) = (base.clone(), fresh.clone());
            std::thread::spawn(move || {
                let mut flight = std::collections::VecDeque::with_capacity(WINDOW);
                let check = |(q, before, p): (u32, usize, dini::serve::PendingLookup)| {
                    let rank = p.wait().expect("serving");
                    let after = sent.load(Ordering::SeqCst);
                    let lo = before.saturating_sub(CHUNK + PUBLISH_EVERY);
                    let (lo, hi) =
                        (rank_after(&base, &fresh, q, lo), rank_after(&base, &fresh, q, after));
                    assert!((lo..=hi).contains(&rank), "rank({q}) = {rank} outside [{lo}, {hi}]");
                };
                let mut reaped = 0u64;
                let mut i = r;
                while !stop.load(Ordering::SeqCst) {
                    if flight.len() == WINDOW {
                        check(flight.pop_front().expect("window is full"));
                        reaped += 1;
                        if reaped == 1 {
                            started.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    i = i.wrapping_add(2);
                    let q = i.wrapping_mul(2_654_435_761) % 70_000;
                    let before = sent.load(Ordering::SeqCst);
                    flight.push_back((q, before, h.begin_lookup(q).expect("deep queues")));
                }
                reaped += flight.len() as u64;
                flight.into_iter().for_each(check);
                reaped
            })
        })
        .collect();

    await_readers(&started, &readers);
    for chunk in fresh.chunks(CHUNK) {
        for &k in chunk {
            sent.fetch_add(1, Ordering::SeqCst);
            server.update(Op::Insert(k)).expect("writer alive");
            set.insert(k);
        }
        while server.len() + PUBLISH_EVERY <= set.len() {
            std::thread::yield_now();
        }
    }
    server.quiesce();
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        assert!(r.join().unwrap() > WINDOW as u64, "every reader must have made progress");
    }
    let stats = server.stats();
    assert!(stats.merges > 0, "the storm must cross merges");
    assert_eq!(stats.served, stats.admitted, "every admitted lookup was answered");
    assert!(stats.mean_batch() > 2.0, "pipelined lookups were not grouped");

    // Quiesced: a pipelined caller's ranks are exact.
    let h = server.handle();
    let mut flight = std::collections::VecDeque::with_capacity(WINDOW);
    for i in 0..5_000u32 {
        if flight.len() == WINDOW {
            let (q, p): (u32, dini::serve::PendingLookup) = flight.pop_front().unwrap();
            assert_eq!(p.wait().expect("serving"), oracle_rank(&set, q), "query {q}");
        }
        let q = i.wrapping_mul(747_796_405) % 70_100;
        flight.push_back((q, h.begin_lookup(q).expect("deep queues")));
    }
    for (q, p) in flight {
        assert_eq!(p.wait().expect("serving"), oracle_rank(&set, q), "query {q}");
    }
}

#[test]
fn overload_sheds_instead_of_queueing_without_bound() {
    // One shard, queue of 1, no coalescing of what queues: a
    // multi-threaded fire-and-forget burst offers far more than the shard
    // can admit and the bounded queue must shed — while every *admitted*
    // lookup still returns the exact oracle rank. The shard is a (mild)
    // straggler: its holder sleeps inside its hold, so the others' keys
    // find it held and queue, or are shed. Each submitter pipelines, so
    // after its first lookup its keys join its handle's open group and
    // are admitted — or shed — when the group is ranked: a shed shows at
    // `begin_lookup` for a lone lookup and at `wait` for a grouped one.
    let keys = initial_keys(2000);
    let set: BTreeSet<u32> = keys.iter().copied().collect();
    let mut cfg = ServeConfig::new(1);
    cfg.queue_capacity = 1;
    cfg.max_batch = 1;
    let extra = Duration::from_micros(50);
    cfg.faults.events.push(Fault::Straggle { shard: 0, replica: None, extra });
    let server = IndexServer::build(&keys, cfg);

    let submitters: Vec<_> = (0..4u32)
        .map(|t| {
            let h = server.handle();
            std::thread::spawn(move || {
                let mut shed = 0u64;
                let mut pending = Vec::new();
                for i in 0..5000u32 {
                    let key = (t * 5000 + i).wrapping_mul(2_654_435_761) % 40_000;
                    match h.begin_lookup(key) {
                        Ok(p) => pending.push((key, p)),
                        Err(ServeError::Overloaded { shard }) => {
                            assert_eq!(shard, 0);
                            shed += 1;
                        }
                        Err(e) => panic!("unexpected error {e}"),
                    }
                }
                (shed, pending)
            })
        })
        .collect();

    let mut ok = 0u64;
    let mut shed = 0u64;
    for s in submitters {
        let (sh, pending) = s.join().unwrap();
        shed += sh;
        for (key, p) in pending {
            match p.wait() {
                Ok(rank) => {
                    assert_eq!(rank, oracle_rank(&set, key), "an admitted lookup misranked");
                    ok += 1;
                }
                Err(ServeError::Overloaded { shard: 0 }) => shed += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
    assert!(ok > 0, "some lookups must be admitted");
    assert!(shed > 0, "a capacity-1 queue under a 4×5000 burst must shed");
    assert_eq!(ok + shed, 20_000, "every lookup is answered or shed");
    // Shedding is non-destructive: service resumes immediately.
    assert_eq!(server.handle().lookup(keys[10]).unwrap(), 11);
    // A holder counts a batch before it releases the batch's replies.
    let stats = server.stats();
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.served, ok + 1);
}

#[test]
fn closed_loop_load_is_fully_served_and_accounted() {
    let keys = initial_keys(20_000);
    let server = IndexServer::build(&keys, serve_cfg(4));
    let report = run_load(
        &server.handle(),
        KeyDistribution::Zipf { n_buckets: 128, s: 1.1 },
        9,
        LoadMode::Closed { clients: 4, lookups_per_client: 500 },
    );
    assert_eq!(report.completed, 2000);
    assert_eq!(report.shed, 0);
    let stats = server.stats();
    assert_eq!(stats.served, 2000);
    assert_eq!(stats.admitted, 2000);
    assert!(stats.mean_batch() >= 1.0);
}
