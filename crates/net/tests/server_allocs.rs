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
//! A queued frame — every replica scripted to straggle, so each key
//! waits behind a dispatcher — costs the same: the reader parks on the
//! keys' pooled reply cells, the dispatchers rank out of their own
//! reused batches, and the `Reply` is built out of the same pending list
//! and result vector the reader keeps for quiet frames.
//!
//! The wire itself allocates nothing once warm: a `ChanNet` pipe keeps
//! its queue and its decoded frames' buffers for reuse, so the budget
//! below is exactly one per frame, not "about one per frame".

use dini_cluster::{Fault, FaultSchedule};
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

/// One `Lookup` frame of `FRAME_KEYS` keys spread over both shards, and
/// its reply checked against the key set.
fn round_trip(c: &mut dini_net::transport::Duplex, keys: &[u32], req: u64) {
    let queries: Vec<u32> = (0..FRAME_KEYS)
        .map(|i| (req as u32 * FRAME_KEYS + i).wrapping_mul(2_654_435_761))
        .collect();
    c.tx.send(&Frame::Lookup { req, trace: 0, parent: 0, keys: queries.clone() }).unwrap();
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

/// Server-side allocations over `FRAMES` warmed `Lookup` frames, on one
/// connection to a two-shard server scripted with `faults`, after
/// checking every rank; also returns the server's accounting.
fn warmed_frame_allocs(faults: FaultSchedule) -> (u64, ServeStats) {
    // The count is process-wide: one measured server at a time.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    CLIENT_SIDE.with(|c| c.set(true));
    let net = ChanNet::new(Clock::system());
    let acceptor = net.listen("srv");
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 4 + 1).collect();
    let mut serve = ServeConfig::new(2);
    serve.faults = faults;
    let cfg = NetServerConfig::new(serve, Topology::single(vec!["srv".into()]), 0);
    let server = NetServer::start(Box::new(acceptor), &keys, cfg);
    let mut c = net.dialer().dial("srv").unwrap();

    // Warmup: the reader's scratch (and, queued, the reply-cell pools).
    for req in 1..=WARMUP {
        round_trip(&mut c, &keys, req);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for req in WARMUP + 1..=WARMUP + FRAMES {
        round_trip(&mut c, &keys, req);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let stats = server.server().stats();
    drop(c);
    server.shutdown();
    (allocs, stats)
}

const WARMUP: u64 = 300;
const FRAMES: u64 = 200;

#[test]
fn a_warmed_quiet_lookup_frame_costs_the_server_one_allocation() {
    let (allocs, stats) = warmed_frame_allocs(FaultSchedule::default());
    // Every frame was ranked by the reader: one batch per shard it
    // touched, and nothing ever reached a dispatcher's queue.
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
    // A straggle on every replica makes every replica dispatcher-only:
    // each key of each frame queues, and the reader waits on its pooled
    // reply cell before it writes the frame's reply itself.
    let extra = Duration::from_micros(20);
    let events = (0..2).map(|shard| Fault::Straggle { shard, replica: None, extra }).collect();
    let (allocs, stats) = warmed_frame_allocs(FaultSchedule { events, ..FaultSchedule::default() });
    assert_eq!(stats.served, (WARMUP + FRAMES) * u64::from(FRAME_KEYS));
    assert_eq!(stats.claimed, 0, "the dispatchers ranked every key");
    assert_eq!(
        allocs, FRAMES,
        "{allocs} server-side allocations across {FRAMES} warmed queued Lookup frames: the \
         reader reuses its pending list and result vector, the dispatchers their batches and \
         the pools their reply cells, so the quiet frame's budget holds — one per frame, the \
         decoded Lookup's key vector"
    );
}
