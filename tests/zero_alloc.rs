//! The zero-allocation invariant of the steady-state read path, pinned
//! with a counting global allocator so it cannot silently regress.
//!
//! The serving read path is built so that a warmed-up lookup touches the
//! allocator zero times: reply cells come from a pool, the
//! dispatcher's batch/keys/ranks/latency scratch is reused across
//! batches, the lockstep probe's group state lives on the stack, and
//! snapshot pins are `Arc`-count bumps on a lock-free epoch cell (a bare
//! `DistributedIndex` also recycles its master↔slave scatter buffers).
//! A lookup that finds its replica idle does not even get that far: the
//! calling thread ranks it against the pinned snapshot and returns.
//! This binary installs a counting allocator and asserts the invariant
//! end to end: *after warmup, N lookups perform exactly zero heap
//! allocations anywhere in the process* — caller and dispatcher included.
//!
//! Warmup is what "steady state" means: the server's threads start and
//! park on their queues (`settle`), and the first lookups grow batch
//! scratch and the reply-cell pool to the workload's shape; those allocations
//! are the amortised setup the paper's economics permit. What the
//! invariant forbids is *per-lookup* allocation.
//!
//! The write side has one pin of the same kind, filtered by size: once
//! two merges have run, a shard's merge builds into the key array the
//! merge before it retired, so further merges allocate nothing the size
//! of a key array.

use dini::serve::{open_snapshot, IndexServer, PendingLookup, ServeConfig, StorePlan, TraceConfig};
use dini::workload::Op;
use dini::{DistributedIndex, NativeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counts allocations (and reallocations) while armed, and separately
/// those of at least `BIG_BYTES`, and those of a thread that armed its
/// own count; delegates to the system allocator.
struct CountingAlloc;

thread_local! {
    /// This thread's allocations since it armed its count; `None` while
    /// disarmed. Const-initialised and without a destructor, so reading
    /// it from inside the allocator allocates nothing.
    static MINE: Cell<Option<u64>> = const { Cell::new(None) };
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static ARMED: AtomicBool = AtomicBool::new(false);

fn count(size: usize) {
    let _ = MINE.try_with(|mine| {
        if let Some(n) = mine.get() {
            mine.set(Some(n + 1));
        }
    });
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if size >= BIG_BYTES.load(Ordering::Relaxed) {
            BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: pure passthrough to the `System` allocator plus lock-free
// atomic counters; upholds `GlobalAlloc`'s contract because `System`
// does, and the counting adds no allocation, locking, or reentrancy.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System::alloc`, to which this
    // delegates unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
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
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Serializes the two measurements: the counter is process-global, so a
/// concurrently running sibling test would pollute the armed window.
static GATE: Mutex<()> = Mutex::new(());

/// Run `f` with the counter armed; returns allocations observed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Wait (at most ten seconds) until the `n` threads a server owns have
/// all started and gone to sleep on their queues, and every other thread
/// but the caller is asleep too. A thread the scheduler
/// has not yet run, or has not yet let park, still owes the allocator
/// its start-up — its name, and on its first park the channel's
/// per-thread context and the queue's waiter list — and on a busy host
/// that can be milliseconds after `build` returned, inside a window
/// armed by then. A thread names itself when it first runs, so `n`
/// sleeping `dini-…` threads in `/proc` means none is left to start.
/// The rest of the process is the test harness: when the test before
/// this one ends, it starts the next on a fresh thread, which allocates
/// until it blocks on [`GATE`].
/// Elsewhere than Linux this is a no-op and warmup is the lookups alone.
fn settle(n: usize) {
    #[cfg(target_os = "linux")]
    {
        let me = std::fs::read_link("/proc/thread-self").expect("procfs");
        let quiet = || {
            let (mut parked, mut busy) = (0, 0);
            let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
            for task in tasks.filter_map(Result::ok) {
                if Some(task.file_name().as_os_str()) == me.file_name() {
                    continue;
                }
                // "<tid> (<name>) <state> …"; a thread that exited
                // since the listing has no stat to read.
                let Ok(stat) = std::fs::read_to_string(task.path().join("stat")) else { continue };
                match (stat.contains("(dini-"), stat.contains(") S ")) {
                    (true, true) => parked += 1,
                    (_, false) => busy += 1,
                    (false, true) => {}
                }
            }
            parked == n && busy == 0
        };
        let started = std::time::Instant::now();
        while !quiet() && started.elapsed() < std::time::Duration::from_secs(10) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = n;
}

/// Run `f` with this thread's own count armed; returns the allocations
/// this thread made. Other threads' are not counted.
fn count_thread_allocs(f: impl FnOnce()) -> u64 {
    MINE.with(|mine| mine.set(Some(0)));
    f();
    MINE.with(|mine| mine.take()).expect("armed above")
}

#[test]
fn the_counter_itself_counts() {
    // Guards the guard: if arming ever breaks, the two invariant tests
    // below would pass vacuously.
    let _gate = GATE.lock().unwrap();
    let allocs = count_allocs(|| {
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
    });
    assert!(allocs >= 1, "a fresh Vec allocation must be observed");
}

#[test]
fn native_lookup_batch_into_is_allocation_free_when_warm() {
    let _gate = GATE.lock().unwrap();
    let keys: Vec<u32> = (0..100_000u32).map(|i| i * 3).collect();
    let mut cfg = NativeConfig::new(3);
    cfg.pin_cores = false;
    let mut index = DistributedIndex::build(&keys, cfg);
    let queries: Vec<u32> = (0..512u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut out = Vec::new();

    // Warmup: the three slaves, then grow scatter/response/result
    // buffers to the batch shape.
    settle(3);
    for _ in 0..50 {
        index.lookup_batch_into(&queries, &mut out);
    }

    let allocs = count_allocs(|| {
        for _ in 0..200 {
            index.lookup_batch_into(&queries, &mut out);
        }
    });
    assert_eq!(
        allocs, 0,
        "lookup_batch_into allocated {allocs} times across 200 warmed batches; \
         the scatter/response recycling must keep the steady state allocation-free"
    );
    assert_eq!(out[0], keys.partition_point(|&k| k <= queries[0]) as u32, "still correct");

    // The single-key form answers into a scratch slot kept on the index:
    // it is a batch of one, not a fresh `Vec` per call.
    let mut checksum = 0u64;
    for &q in &queries {
        checksum += u64::from(index.lookup(q));
    }
    let allocs = count_allocs(|| {
        for &q in &queries {
            checksum += u64::from(index.lookup(q));
        }
    });
    assert_eq!(allocs, 0, "lookup() allocated {allocs} times across 512 warmed single-key calls");
    assert_eq!(checksum, 2 * out.iter().map(|&r| u64::from(r)).sum::<u64>(), "still correct");
}

#[test]
fn serve_steady_state_lookup_is_allocation_free() {
    let _gate = GATE.lock().unwrap();
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 4 + 1).collect();
    let mut cfg = ServeConfig::new(2);
    cfg.max_batch = 64;
    // Densest possible observability: *every* request is considered and
    // recorded into the pre-allocated stage-trace rings, key-range heat
    // counters tick on every admission, and the lock-free per-replica
    // metrics run as always. Instrumentation must ride the steady state
    // for free or it doesn't ship.
    cfg.trace = TraceConfig::dense();
    cfg.heat = true;
    let server = IndexServer::build(&keys, cfg);
    let h = server.handle();

    // Warmup: the server's own threads first (two dispatchers and the
    // writer), then the reply-cell pool and dispatcher scratch; spread keys
    // across both shards.
    settle(3);
    let mut k = 0u32;
    for _ in 0..3000 {
        k = k.wrapping_add(0x9E37_79B9);
        h.lookup(k % 250_000).unwrap();
    }

    let mut checksum = 0u64;
    let allocs = count_allocs(|| {
        let mut k = 12_345u32;
        for _ in 0..1000 {
            k = k.wrapping_add(0x9E37_79B9);
            checksum += u64::from(h.lookup(k % 250_000).unwrap());
        }
    });
    assert_eq!(
        allocs, 0,
        "the steady-state dispatch path allocated {allocs} times across 1000 lookups \
         with dense stage tracing enabled; pooled reply cells + reused batch scratch + \
         pre-allocated trace rings must make warmed, fully instrumented lookups \
         allocation-free end to end"
    );
    assert!(checksum > 0, "lookups still answer");

    // The instrumentation was genuinely live inside the armed window:
    // dense sampling must have retained records for the traffic above.
    // (Snapshotting the rings allocates, which is why it runs *after*
    // the counted section.)
    let traces = server.stage_traces();
    assert!(
        !traces.is_empty(),
        "dense tracing must have recorded stage traces during the armed window"
    );
    assert!(traces.iter().all(|r| r.stages_monotonic()), "recorded traces are well-formed");
    let heat = server.metrics_snapshot().sum("dini_serve_heat");
    assert!(heat > 0, "heat counters must have ticked during the armed window");

    // And the answers stay exact.
    for q in [0u32, 1, 199_997, 200_000, u32::MAX] {
        assert_eq!(h.lookup(q).unwrap(), keys.partition_point(|&key| key <= q) as u32);
    }
}

/// A pipelined caller — 256 lookups in flight, waiting on the oldest
/// before each new one, as a closed-loop load generator does — has every
/// lookup after its first join its handle's open group, ranked 32 keys
/// under one claim. Group cells come from a pool, the group's keys,
/// scratch and answers are reused, and a slot's answer is a plain
/// value: once the pool holds a window's worth of cells, the caller
/// allocates nothing. Counted on the caller's thread alone, with dense
/// tracing and heat on.
#[test]
fn a_pipelined_caller_is_allocation_free_when_warm() {
    const WINDOW: usize = 256;
    const LOOKUPS: usize = 40_000;
    let _gate = GATE.lock().unwrap();
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 4 + 1).collect();
    let mut cfg = ServeConfig::new(2);
    cfg.max_batch = 64;
    cfg.trace = TraceConfig::dense();
    cfg.heat = true;
    let server = IndexServer::build(&keys, cfg);
    let h = server.handle();
    let mut flight: VecDeque<(u32, PendingLookup)> = VecDeque::with_capacity(WINDOW);
    let mut k = 0u32;
    let mut wrong = 0u64;
    let mut run = |lookups: usize, flight: &mut VecDeque<(u32, PendingLookup)>| {
        for _ in 0..lookups {
            if flight.len() == WINDOW {
                let (q, p) = flight.pop_front().expect("window is full");
                wrong += u64::from(p.wait() != Ok(keys.partition_point(|&key| key <= q) as u32));
            }
            k = k.wrapping_add(0x9E37_79B9);
            let q = k % 250_000;
            flight.push_back((q, h.begin_lookup(q).expect("an idle server admits")));
        }
    };

    // The per-thread count counts (so a 0 below is not vacuous).
    let mine = count_thread_allocs(|| {
        std::hint::black_box(Vec::<u64>::with_capacity(32));
    });
    assert_eq!(mine, 1, "this thread's one Vec allocation must be observed");

    settle(3);
    run(LOOKUPS / 2, &mut flight);
    let allocs = count_thread_allocs(|| run(LOOKUPS, &mut flight));
    for (q, p) in flight.drain(..) {
        assert_eq!(p.wait(), Ok(keys.partition_point(|&key| key <= q) as u32));
    }
    assert_eq!(
        allocs, 0,
        "a warmed pipelined caller allocated {allocs} times across {LOOKUPS} lookups with \
         {WINDOW} in flight; pooled group cells and reused group scratch must make it \
         allocation-free"
    );
    assert_eq!(wrong, 0, "every reply exact");
    let stats = server.stats();
    assert_eq!(stats.served, (LOOKUPS + LOOKUPS / 2) as u64);
    assert!(stats.mean_batch() > 8.0, "lookups were not grouped: {}", stats.mean_batch());
}

/// The pins above are single-caller, so every lookup in them finds its
/// replica idle and is ranked by the calling thread. This one reaches
/// the other path: two callers hammer one shard until their claims have
/// collided — a caller that finds the replica claimed takes a pooled
/// slot, queues, and is answered by the dispatcher — and the whole mix,
/// both paths and both hand-offs between them, must stay at zero.
#[test]
fn serve_queued_and_claimed_paths_are_allocation_free_when_warm() {
    use std::sync::atomic::Ordering::{Acquire, Release};
    use std::time::{Duration, Instant};

    /// Two callers, each looking keys up until `WANT_QUEUED` lookups in
    /// all have been seen still pending on return (or ten seconds pass);
    /// the counter is armed from before the first lookup until after the
    /// last. Returns (allocations, lookups seen queued).
    ///
    /// The pool grows to the most reply cells ever out at once, which
    /// for two callers is a few — but only at a moment when both are
    /// queued, and whether a pass has such a moment is up to the
    /// scheduler. So the warmup pass (`armed == false`) makes it
    /// certain: each caller keeps its first two queued lookups
    /// un-redeemed while it carries on, and redeems them at the end.
    /// After that the pool holds at least as many cells as the armed
    /// pass, which holds none back, can ever have out.
    fn hammer(server: &IndexServer, armed: bool) -> (u64, u64) {
        const WANT_QUEUED: u64 = 64;
        let queued = AtomicU64::new(0);
        let go = AtomicBool::new(false);
        let finished = AtomicU64::new(0);
        let release = AtomicBool::new(false);
        let mut allocs = 0;
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let (queued, go, finished, release) = (&queued, &go, &finished, &release);
                let h = server.handle();
                s.spawn(move || {
                    while !go.load(Acquire) {
                        std::thread::yield_now();
                    }
                    let deadline = Instant::now() + Duration::from_secs(10);
                    let mut held = Vec::with_capacity(if armed { 0 } else { 2 });
                    let mut k = t;
                    while queued.load(Ordering::Relaxed) < WANT_QUEUED && Instant::now() < deadline
                    {
                        for _ in 0..256 {
                            k = k.wrapping_add(0x9E37_79B9);
                            let pending = h.begin_lookup(k % 250_000).unwrap();
                            if pending.poll().is_none() {
                                queued.fetch_add(1, Ordering::Relaxed);
                                if held.len() < held.capacity() {
                                    held.push(pending);
                                    continue;
                                }
                            }
                            std::hint::black_box(pending.wait().unwrap());
                        }
                    }
                    for pending in held {
                        std::hint::black_box(pending.wait().unwrap());
                    }
                    // Park (without exiting: thread teardown may free and
                    // allocate) until the counter is disarmed.
                    finished.fetch_add(1, Release);
                    while !release.load(Acquire) {
                        std::thread::yield_now();
                    }
                });
            }
            let before = ALLOCS.load(Ordering::SeqCst);
            ARMED.store(armed, Ordering::SeqCst);
            go.store(true, Release);
            while finished.load(Acquire) < 2 {
                std::thread::yield_now();
            }
            ARMED.store(false, Ordering::SeqCst);
            allocs = ALLOCS.load(Ordering::SeqCst) - before;
            release.store(true, Release);
        });
        (allocs, queued.load(Ordering::Relaxed))
    }

    let _gate = GATE.lock().unwrap();
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 4 + 1).collect();
    let mut cfg = ServeConfig::new(1);
    cfg.max_batch = 64;
    cfg.trace = TraceConfig::dense();
    cfg.heat = true;
    let server = IndexServer::build(&keys, cfg);

    // Warmup runs the same mix: it is the queued path's pool and the
    // dispatcher's scratch that need filling.
    settle(2);
    let (_, warm_queued) = hammer(&server, false);
    assert!(warm_queued > 0, "two callers on one shard never collided during warmup");
    let (allocs, queued) = hammer(&server, true);
    assert!(queued > 0, "the armed window never reached the queued path");
    assert_eq!(
        allocs, 0,
        "{allocs} allocations with {queued} lookups queued behind a claimed replica and the \
         rest ranked by their callers; both paths must be allocation-free once warm"
    );
    let stats = server.stats();
    assert_eq!(stats.served, stats.admitted, "every admitted lookup was answered");
}

/// The invariant must survive recovery: a server whose main arrays are
/// *memory-mapped* straight out of a `dini-store` snapshot (no sort, no
/// owned `Vec` rebuild) serves warmed lookups with zero allocations —
/// the `SharedKeys::Mapped` backing rides the identical read path, so
/// mapping an index must cost exactly what owning one costs.
#[test]
fn recovered_mapped_backing_lookup_is_allocation_free_when_warm() {
    let _gate = GATE.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("dini-zero-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot scratch dir");
    let path = dir.join("mapped.snap");

    // Origin server: initial build plus live churn, checkpointed by the
    // quiesce durability barrier — the snapshot carries both merged
    // mains and a pending overlay, like any mid-life checkpoint.
    let keys: Vec<u32> = (0..50_000u32).map(|i| i * 4 + 1).collect();
    let mut expect: BTreeSet<u32> = keys.iter().copied().collect();
    let mut cfg = ServeConfig::new(2);
    cfg.max_batch = 64;
    cfg.trace = TraceConfig::dense();
    cfg.store = Some(StorePlan::new(path.clone()));
    let origin = IndexServer::build(&keys, cfg.clone());
    let mut k = 1u32;
    for _ in 0..200 {
        k = k.wrapping_mul(2_654_435_761).wrapping_add(12_345);
        origin.update(Op::Insert(k)).unwrap();
        expect.insert(k);
    }
    origin.quiesce();
    drop(origin);

    // Restart by mapping. On unix the mains must genuinely be the mmap,
    // not a heap copy — that is the backing under test.
    let snap = open_snapshot(&path).expect("checkpoint must map back");
    #[cfg(unix)]
    assert!(
        snap.shards.iter().all(|s| s.main.is_mapped()),
        "recovered mains must serve straight from the map"
    );
    cfg.store = None; // the recovered server takes no further checkpoints
    let server = IndexServer::build_recovered(&snap, cfg);
    let h = server.handle();

    // Warmup, then the armed window: identical protocol to the owned
    // sibling test above.
    settle(3);
    let mut k = 0u32;
    for _ in 0..3000 {
        k = k.wrapping_add(0x9E37_79B9);
        h.lookup(k % 250_000).unwrap();
    }
    let mut checksum = 0u64;
    let allocs = count_allocs(|| {
        let mut k = 12_345u32;
        for _ in 0..1000 {
            k = k.wrapping_add(0x9E37_79B9);
            checksum += u64::from(h.lookup(k % 250_000).unwrap());
        }
    });
    assert_eq!(
        allocs, 0,
        "the steady-state dispatch path over a memory-mapped main array allocated \
         {allocs} times across 1000 warmed lookups; `SharedKeys::Mapped` must ride the \
         same zero-allocation read path as an owned build"
    );
    assert!(checksum > 0, "lookups still answer");

    // Exactness over the mapped backing, overlay folded in.
    let sorted: Vec<u32> = expect.iter().copied().collect();
    for q in [0u32, 1, 199_997, 200_000, u32::MAX] {
        assert_eq!(h.lookup(q).unwrap(), sorted.partition_point(|&key| key <= q) as u32);
    }

    drop(h);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// The write side's pin: a merge builds into the key array the merge
/// before it retired, so once two merges have run — the first has no
/// retired array (a mapped main is never one), the second reclaims the
/// build's or the first's — a shard's merges allocate nothing the size
/// of a key array. Over an owned build and a mapped recovery alike.
#[test]
fn recycled_merges_allocate_no_key_array() {
    const KEYS: u32 = 200_000;
    /// Insert + delete pairs per merge: `2 · PAIRS` updates are one more
    /// than the merge threshold.
    const PAIRS: usize = 32;

    /// Count the allocations of at least half the shard's key bytes
    /// across `n` merges. Each is `PAIRS` fresh inserts and as many
    /// deletes of build keys, so the shard keeps its size and a retired
    /// array always fits.
    fn big_allocs_across(server: &IndexServer, n: u64, next: &mut u32) -> u64 {
        let merges = server.stats().merges;
        BIG_BYTES.store(KEYS as usize * 4 / 2, Ordering::SeqCst);
        let before = BIG_ALLOCS.load(Ordering::SeqCst);
        count_allocs(|| {
            for _ in 0..n {
                for _ in 0..PAIRS {
                    server.update(Op::Insert(*next * 4 + 3)).unwrap();
                    server.update(Op::Delete(*next * 4 + 1)).unwrap();
                    *next += 1;
                }
                server.quiesce();
            }
        });
        BIG_BYTES.store(usize::MAX, Ordering::SeqCst);
        assert_eq!(server.stats().merges, merges + n, "each round is one merge");
        BIG_ALLOCS.load(Ordering::SeqCst) - before
    }

    let _gate = GATE.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("dini-zero-alloc-merge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot scratch dir");
    let path = dir.join("recycle.snap");
    let keys: Vec<u32> = (0..KEYS).map(|i| i * 4 + 1).collect();
    let mut cfg = ServeConfig::new(1);
    cfg.merge_threshold = 2 * PAIRS - 1;
    cfg.store = Some(StorePlan::new(path.clone()));
    IndexServer::build(&keys, cfg.clone()).quiesce();
    let snap = open_snapshot(&path).expect("checkpoint must map back");
    cfg.store = None;

    for (what, server) in [
        ("owned build", IndexServer::build(&keys, cfg.clone())),
        ("mapped recovery", IndexServer::build_recovered(&snap, cfg.clone())),
    ] {
        let mut next = 0;
        // The counter sees the warm-up merges' fresh arrays: one for a
        // build (the second merge reclaims the build's array), two for a
        // recovery.
        let warm = big_allocs_across(&server, 2, &mut next);
        assert!(warm >= 1, "{what}: the size filter missed the warm-up merges' arrays");
        let allocs = big_allocs_across(&server, 3, &mut next);
        assert_eq!(
            allocs, 0,
            "{what}: {allocs} key-array-sized allocations across three warm merges; each \
             must build into the array the merge before it retired"
        );
        let h = server.handle();
        for q in [0u32, 4 * next, 4 * next + 3, u32::MAX] {
            let want = keys.partition_point(|&k| k <= q) as u32;
            assert_eq!(h.lookup(q).unwrap(), want, "{what}: rank({q})");
        }
    }
    drop(snap);
    std::fs::remove_dir_all(&dir).ok();
}
