//! What a remote lookup or update costs its *caller* in heap
//! allocations, pinned with a per-thread counting global allocator:
//! nothing, once warm.
//!
//! A lookup appends its key to its endpoint's open frame and waits on
//! that frame's reply cell. The frame's key buffer and cell are recycled
//! when its reply has been handed out — the reader gives them back to
//! the outbox, and a cell is reused only once no pending lookup holds
//! it — and an outbox starts with two spare frames, so a caller opening
//! its next frame always finds the one before last retired. A lone
//! lookup's frame is written by the caller itself: its keys are copied
//! into the connection's reusable buffer, its in-flight record goes into
//! a map that keeps its node once warm, and `ChanNet` encodes the frame
//! into a buffer its pipe hands back after decoding. An update
//! takes a reply cell from its span's pool and appends its record to the
//! span's log on the caller's thread — the log reserves its retained
//! tail up front, so the append does not grow it — and the cell goes back
//! once the quorum has answered; an `Op::Query` update is answered on the
//! spot and needs no cell. The workers, the readers and the server
//! allocate on their own threads (the decoded frames, the shipped log
//! suffix); these tests count only the thread playing the caller.

use dini_net::transport::ChanNet;
use dini_net::{ClientConfig, NetHandle, NetServer, NetServerConfig, RemoteClient, Topology};
use dini_serve::{Clock, Op, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations this thread has made since [`allocs_in`] armed it;
    /// `None` while unarmed. Const-initialized and destructor-free, so
    /// touching it from inside the allocator cannot itself allocate.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = ALLOCS.try_with(|a| a.set(a.get().map(|n| n + 1)));
}

/// Heap allocations `f` makes on the calling thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|a| a.set(Some(0)));
    f();
    ALLOCS.with(|a| a.replace(None)).expect("armed above")
}

// SAFETY: pure passthrough to the `System` allocator plus a
// const-initialized thread-local counter; upholds `GlobalAlloc`'s
// contract because `System` does, and the counting adds no allocation,
// locking, or reentrancy.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System::alloc`, to which this
    // delegates unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
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
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A two-shard server on a `ChanNet` holding every fourth key from 1,
/// and a client connected to it; `drive` gets the client's handle and
/// the keys.
fn with_client(drive: impl FnOnce(&NetHandle, &[u32])) {
    let net = ChanNet::new(Clock::system());
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 4 + 1).collect();
    let cfg = NetServerConfig::new(ServeConfig::new(2), Topology::single(vec!["srv".into()]), 0);
    let server = NetServer::start(Box::new(net.listen("srv")), &keys, cfg);
    let client =
        RemoteClient::connect(net.dialer(), "srv", ClientConfig::default()).expect("connect");
    let handle = client.handle();
    drive(&handle, &keys);
    drop(handle);
    drop(client);
    server.shutdown();
}

const WARMUP: u32 = 1_000;

#[test]
fn a_warmed_remote_caller_allocates_nothing() {
    with_client(|handle, keys| {
        let query = |i: u32| i.wrapping_mul(2_654_435_761) % 200_004;
        let lookup = |i: u32| {
            let q = query(i);
            let got = handle.begin_lookup(q).expect("admitted").wait();
            assert_eq!(got, Ok(keys.partition_point(|&k| k <= q) as u32));
        };
        for i in 0..WARMUP {
            lookup(i);
        }
        const LOOKUPS: u32 = 10_000;
        let allocs = allocs_in(|| (WARMUP..WARMUP + LOOKUPS).for_each(lookup));
        assert_eq!(
            allocs, 0,
            "{allocs} caller-thread allocations across {LOOKUPS} warmed begin_lookup/wait calls"
        );
    });
}

#[test]
fn a_warmed_remote_updater_allocates_nothing() {
    with_client(|handle, _| {
        // Keys the server does not hold (every fourth from 3), inserted
        // and deleted again, so the live set ends where it started.
        let update = |op: Op| handle.begin_update(op).expect("appended").wait();
        let churn = |i: u32| {
            let k = (i % 50_000) * 4 + 3;
            assert_eq!(update(Op::Insert(k)), Ok(()));
            assert_eq!(update(Op::Delete(k)), Ok(()));
        };
        for i in 0..WARMUP {
            churn(i);
        }
        const CYCLES: u32 = 2_000;
        let allocs = allocs_in(|| (WARMUP..WARMUP + CYCLES).for_each(churn));
        assert_eq!(
            allocs, 0,
            "{allocs} caller-thread allocations across {CYCLES} warmed Insert + Delete \
             begin_update/wait pairs"
        );
        const QUERIES: u32 = 1_000;
        let allocs = allocs_in(|| {
            for i in 0..QUERIES {
                assert_eq!(update(Op::Query(i)), Ok(()));
            }
        });
        assert_eq!(
            allocs, 0,
            "{allocs} caller-thread allocations across {QUERIES} Op::Query begin_update/wait calls"
        );
    });
}
