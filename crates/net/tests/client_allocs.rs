//! What a remote lookup costs its *caller* in heap allocations, pinned
//! with a per-thread counting global allocator: nothing, once warm.
//!
//! A lookup appends its key to its endpoint's open frame and waits on
//! that frame's reply cell. The frame's key buffer and cell are recycled
//! when its reply has been handed out — the reader gives them back to
//! the outbox, and a cell is reused only once no pending lookup holds
//! it — and an outbox starts with two spare frames, so a caller opening
//! its next frame always finds the one before last retired. The worker,
//! the reader and the server allocate on their own threads (the wire's
//! copies, the decoded reply); this test counts only the thread playing
//! the caller.

use dini_net::transport::ChanNet;
use dini_net::{ClientConfig, NetServer, NetServerConfig, RemoteClient, Topology};
use dini_serve::{Clock, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set on the thread playing the caller: only its allocations count.
    /// Const-initialized and destructor-free, so touching it from inside
    /// the allocator cannot itself allocate.
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    ARMED.load(Ordering::Relaxed) && CALLER.try_with(Cell::get).unwrap_or(false)
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

#[test]
fn a_warmed_remote_caller_allocates_nothing() {
    let net = ChanNet::new(Clock::system());
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 4 + 1).collect();
    let cfg = NetServerConfig::new(ServeConfig::new(2), Topology::single(vec!["srv".into()]), 0);
    let server = NetServer::start(Box::new(net.listen("srv")), &keys, cfg);
    let client =
        RemoteClient::connect(net.dialer(), "srv", ClientConfig::default()).expect("connect");
    let handle = client.handle();
    let query = |i: u32| i.wrapping_mul(2_654_435_761) % 200_004;
    let lookup = |i: u32| {
        let q = query(i);
        let got = handle.begin_lookup(q).expect("admitted").wait();
        assert_eq!(got, Ok(keys.partition_point(|&k| k <= q) as u32));
    };

    CALLER.with(|c| c.set(true));
    const WARMUP: u32 = 1_000;
    for i in 0..WARMUP {
        lookup(i);
    }
    const LOOKUPS: u32 = 10_000;
    ARMED.store(true, Ordering::SeqCst);
    for i in WARMUP..WARMUP + LOOKUPS {
        lookup(i);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    CALLER.with(|c| c.set(false));
    assert_eq!(
        allocs, 0,
        "{allocs} caller-thread allocations across {LOOKUPS} warmed begin_lookup/wait calls"
    );

    drop(handle);
    drop(client);
    server.shutdown();
}
