//! What a `Lookup` frame costs the *server* in heap allocations, pinned
//! with a counting global allocator.
//!
//! A quiet frame — every key bound for an idle replica — is ranked and
//! answered by the connection's reader thread alone, out of scratch it
//! keeps across frames: the shard grouping, the ranks, the pending list
//! and the `Reply`'s result vector all recycle. What is left is the
//! transport's own, and it is TCP's: `ChanNet` carries encoded frames,
//! so the server's reader decodes each `Lookup` into a fresh key vector
//! (one allocation), and encodes its `Reply` into a buffer the pipe
//! reuses (none). These tests count every allocation made by any thread
//! *but* the one playing the client, so they see exactly the server's
//! share.
//!
//! A queued frame — sent while a second connection's reader holds the
//! one replica, sleeping out its scripted straggle, so each key is
//! pushed and answered by that holder — costs the same: the reader
//! parks on the keys' pooled reply cells, the holder ranks out of the
//! replica's reused batch, and the `Reply` is built out of the same
//! pending list and result vector the reader keeps for quiet frames.
//!
//! The wire itself allocates nothing once warm: a `ChanNet` pipe keeps
//! its queue and its decoded frames' buffers for reuse, so the budget
//! below is exactly one per frame, not "about one per frame".

use dini_cluster::Fault;
use dini_net::transport::ChanNet;
use dini_net::wire::{Frame, LookupStatus};
use dini_net::{NetServer, NetServerConfig, Topology};
use dini_serve::{Clock, ServeConfig, ServeStats};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the thread playing the client: its allocations (building
    /// `Lookup` frames, decoding replies) are not the server's. Const-initialized and destructor-free, so touching it
    /// from inside the allocator cannot itself allocate.
    static CLIENT_SIDE: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    ARMED.load(Ordering::Relaxed) && !CLIENT_SIDE.try_with(Cell::get).unwrap_or(true)
}

// SAFETY: pure passthrough to the `System` allocator plus lock-free
// counters and a const-initialized thread-local flag; upholds
// `GlobalAlloc`'s contract because `System` does, and the counting adds
// no allocation, locking, or reentrancy.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System::alloc`, to which this
    // delegates unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: same ptr/layout contract as `System::dealloc`, to which
    // this delegates unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same ptr/layout/size contract as `System::realloc`, to
    // which this delegates unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const SEC: Duration = Duration::from_secs(5);
const FRAME_KEYS: u32 = 16;

/// Send one `Lookup` frame of `FRAME_KEYS` keys spread over the key
/// space; returns its keys.
fn send_lookup(c: &mut dini_net::transport::Duplex, req: u64) -> Vec<u32> {
    let queries: Vec<u32> = (0..FRAME_KEYS)
        .map(|i| (req as u32 * FRAME_KEYS + i).wrapping_mul(2_654_435_761))
        .collect();
    c.tx.send(&Frame::Lookup { req, trace: 0, parent: 0, keys: queries.clone() }).unwrap();
    queries
}

/// Receive the reply to `req`, checked against the key set.
fn check_reply(c: &mut dini_net::transport::Duplex, keys: &[u32], req: u64, queries: &[u32]) {
    match c.rx.recv_timeout(SEC).unwrap() {
        Frame::Reply { req: got, results, .. } => {
            assert_eq!(got, req);
            for (q, r) in queries.iter().zip(&results) {
                assert_eq!(*r, LookupStatus::Rank(keys.partition_point(|&k| k <= *q) as u32));
            }
        }
        other => panic!("expected Reply, got {other:?}"),
    }
}

/// Server-side allocations over `FRAMES` warmed `Lookup` frames on one
/// connection, after checking every rank; also returns the server's
/// accounting. Quiet: a two-shard server, every frame alone on it.
/// Queued: a one-shard, one-replica server whose replica straggles
/// `STRAGGLE` per batch, and before each frame a second connection's
/// frame, sent first and held until its reader is inside its hold — so
/// the measured frame's keys all queue behind it. The budget then
/// counts both connections' frames.
fn warmed_frame_allocs(queued: bool) -> (u64, ServeStats) {
    // The count is process-wide: one measured server at a time.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    CLIENT_SIDE.with(|c| c.set(true));
    let net = ChanNet::new(Clock::system());
    let acceptor = net.listen("srv");
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 4 + 1).collect();
    let mut serve = ServeConfig::new(if queued { 1 } else { 2 });
    if queued {
        serve.faults.events.push(Fault::Straggle { shard: 0, replica: None, extra: STRAGGLE });
    }
    let cfg = NetServerConfig::new(serve, Topology::single(vec!["srv".into()]), 0);
    let server = NetServer::start(Box::new(acceptor), &keys, cfg);
    let mut c = net.dialer().dial("srv").unwrap();
    let mut holder = net.dialer().dial("srv").unwrap();
    let depth = || server.server().metrics_snapshot().sum("dini_serve_queue_depth");
    let mut round_trip = |req: u64| {
        let held = queued.then(|| {
            let queries = send_lookup(&mut holder, req);
            while depth() == 0 {
                std::thread::yield_now();
            }
            queries
        });
        let queries = send_lookup(&mut c, req);
        check_reply(&mut c, &keys, req, &queries);
        if let Some(queries) = held {
            check_reply(&mut holder, &keys, req, &queries);
        }
    };

    // Warmup: the readers' scratch (and, queued, the reply-cell pool and
    // the replica's batch).
    for req in 1..=WARMUP {
        round_trip(req);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for req in WARMUP + 1..=WARMUP + FRAMES {
        round_trip(req);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let stats = server.server().stats();
    drop((c, holder));
    server.shutdown();
    (allocs, stats)
}

const WARMUP: u64 = 300;
const FRAMES: u64 = 200;
/// The queued server's per-batch straggle: the window in which the
/// measured frame's reader reaches the held replica.
const STRAGGLE: Duration = Duration::from_millis(5);

#[test]
fn a_warmed_quiet_lookup_frame_costs_the_server_one_allocation() {
    let (allocs, stats) = warmed_frame_allocs(false);
    // Every frame was ranked by the reader: one batch per shard it
    // touched, and nothing ever queued.
    assert_eq!(stats.served, (WARMUP + FRAMES) * u64::from(FRAME_KEYS));
    assert_eq!(stats.claimed, stats.served, "the reader ranked every key");
    assert!(stats.batches <= 2 * (WARMUP + FRAMES), "a frame is one batch per shard");
    assert_eq!(
        allocs, FRAMES,
        "{allocs} server-side allocations across {FRAMES} warmed quiet Lookup frames: the \
         budget is one per frame — the reader decoding the Lookup's key vector"
    );
}

#[test]
fn a_warmed_queued_lookup_frame_costs_the_server_no_more_than_a_quiet_one() {
    let (allocs, stats) = warmed_frame_allocs(true);
    let per_connection = (WARMUP + FRAMES) * u64::from(FRAME_KEYS);
    assert_eq!(stats.served, 2 * per_connection);
    assert_eq!(
        (stats.claimed, stats.served - stats.claimed),
        (per_connection, per_connection),
        "the holding connection ranked its own keys, and combined every key of the other"
    );
    assert_eq!(
        allocs,
        2 * FRAMES,
        "{allocs} server-side allocations across {FRAMES} warmed queued Lookup frames and the \
         {FRAMES} frames holding the replica ahead of them: the readers reuse their pending \
         lists and result vectors, the holder the replica's batch and the pool its reply cells, \
         so the quiet frame's budget holds — one per frame, the decoded Lookup's key vector"
    );
}
