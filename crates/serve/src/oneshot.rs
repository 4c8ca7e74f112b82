//! Pooled oneshot reply slots: the allocation-free half of the read path.
//!
//! The first serving layer paid two heap allocations per lookup for a
//! fresh `bounded(1)` reply channel. In the paper's economics those are
//! exactly the per-query overheads batching exists to amortise — so this
//! module replaces the channel with a **slab of reusable reply cells**:
//! [`ServerHandle`](crate::ServerHandle) takes a cell from its
//! [`SlotPool`], splits it into a waiter half ([`ReplySlot`]) and a
//! filler half ([`ReplyHandle`]), and the waiter returns the cell to the
//! pool when it reaps the reply. In steady state every lookup reuses a
//! warmed cell and the path allocates nothing.
//!
//! ## The cell
//!
//! A cell is an `AtomicU64` word, a parked-waiter count, and a parking
//! lot (`Mutex<()>` + `Condvar`) touched only when a waiter actually has
//! to block — a poll-driven (open-loop) reply never takes the lock on
//! either side. The word packs
//!
//! ```text
//!   63           34 33  32 31            0
//!  [  generation  ][ tag ][   payload    ]
//! ```
//!
//! * `tag` — `PENDING` (0), `OK` (rank in payload), `SHUTDOWN`, or
//!   `OVERLOAD` (shard in payload);
//! * `generation` — bumped every time the pool hands the cell out.
//!
//! The generation is what makes pooling safe without reference-count
//! gymnastics: a filler writes its reply with a compare-exchange from
//! `gen | PENDING`, so a stale [`ReplyHandle`] whose waiter abandoned the
//! lookup (and whose cell has since been re-issued at a higher
//! generation) fails the CAS and silently discards its write instead of
//! corrupting the cell's new tenant. Cells can therefore go back to the
//! pool the moment the waiter is done with them, even if a filler clone
//! is still in flight somewhere in a shutdown path.
//!
//! A [`ReplyHandle`] dropped without sending (dispatcher shutting down,
//! queue destroyed with requests aboard) fills `SHUTDOWN` so the waiter
//! is never stranded — the pooled analogue of a oneshot channel's
//! disconnect.
//!
//! ## The frame cell
//!
//! [`FrameCell`] shares the cell's parking lot under a different reply:
//! one cell answers a whole *frame* of requests (`dini-net`'s
//! `RemoteClient` gives each outgoing `Lookup` frame one), and each
//! request's waiter keeps an `Arc` of it plus its own index into the
//! reply. The filler publishes once and wakes once per frame. Its owner
//! recycles a retired cell only through [`FrameCell::recycle`], which
//! needs the only `Arc` left — so no pending request can ever see its
//! cell reused under it.

use crate::clock::Clock;
use crate::config::ServeError;
use crate::sync::{Arc, AtomicU64, Condvar, Mutex, Ordering};
use std::sync::OnceLock;

const TAG_SHIFT: u32 = 32;
const GEN_SHIFT: u32 = 34;
const TAG_MASK: u64 = 0b11 << TAG_SHIFT;
const PAYLOAD_MASK: u64 = (1 << TAG_SHIFT) - 1;
/// 30 bits of generation: 10⁹ reuses per cell before wraparound.
const GEN_MASK: u64 = (1 << (64 - GEN_SHIFT)) - 1;

const TAG_PENDING: u64 = 0;
const TAG_OK: u64 = 1;
const TAG_SHUTDOWN: u64 = 2;
const TAG_OVERLOAD: u64 = 3;

#[inline]
fn encode(gen: u64, reply: Result<u32, ServeError>) -> u64 {
    let (tag, payload) = match reply {
        Ok(rank) => (TAG_OK, u64::from(rank)),
        Err(ServeError::ShuttingDown) => (TAG_SHUTDOWN, 0),
        Err(ServeError::Overloaded { shard }) => (TAG_OVERLOAD, shard as u64 & PAYLOAD_MASK),
    };
    (gen << GEN_SHIFT) | (tag << TAG_SHIFT) | payload
}

#[inline]
fn decode(word: u64) -> Option<Result<u32, ServeError>> {
    match (word & TAG_MASK) >> TAG_SHIFT {
        TAG_PENDING => None,
        TAG_OK => Some(Ok((word & PAYLOAD_MASK) as u32)),
        TAG_SHUTDOWN => Some(Err(ServeError::ShuttingDown)),
        _ => Some(Err(ServeError::Overloaded { shard: (word & PAYLOAD_MASK) as usize })),
    }
}

/// The parking lot every reply cell here shares: a parked-waiter count
/// and a `Mutex<()>` + `Condvar` touched only when a waiter actually has
/// to block. The cell that owns it publishes its reply with a SeqCst
/// write and then calls [`wake`](Self::wake); a waiter's `ready` check
/// reads that publication with a SeqCst load.
#[derive(Debug)]
struct Parking {
    /// Waiters currently parked (or committing to park) on `cv`. Lets
    /// `wake` skip the lock/notify entirely on the poll-driven path,
    /// where nobody ever sleeps.
    parked: AtomicU64,
    /// The filler acquires the lock between publishing its reply and
    /// notifying, which is what makes the sleep/notify handoff
    /// race-free.
    // lint: lock-ok: parking lot only — poll-driven replies never touch it.
    lock: Mutex<()>,
    cv: Condvar,
}

impl Parking {
    fn new() -> Self {
        Self {
            parked: AtomicU64::new(0),
            // lint: lock-ok: parking lot only (see the field's contract).
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Wake every parked waiter. Call after the SeqCst write that
    /// published the reply.
    fn wake(&self) {
        // SeqCst on the publishing write and on this load pairs with the
        // waiter's SeqCst (register-parked → recheck-reply) sequence:
        // either this load observes the waiter registering (notify
        // runs), or the waiter's recheck observes the reply (it never
        // sleeps) — store buffering can't hide both.
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Hold the lock across notify: a registered waiter either
            // rechecks the reply before sleeping (it holds this lock to
            // do so) or is parked and gets the wakeup.
            let _held = self.lock.lock().expect("reply cell lock");
            self.cv.notify_all();
        }
    }

    /// Block until `ready` (a SeqCst read of the owner's reply) yields
    /// one. Under a sim `clock`, park in the scheduler instead of on the
    /// condvar: the filler runs serialized with us, so the scheduler
    /// re-polls `ready` the moment it could have changed (and a reply
    /// that never comes is a detected deadlock, not a hang).
    fn wait<R>(&self, clock: Option<&Clock>, ready: impl Fn() -> Option<R>) -> R {
        if let Some(reply) = ready() {
            return reply;
        }
        if let Some(sim) = clock.and_then(Clock::as_sim) {
            return sim.wait_until(ready);
        }
        // A native condvar park is invisible to a sim scheduler: the
        // thread would stay marked Running and wedge the whole
        // simulation in wall-clock, bypassing the deadlock detector.
        // Refuse loudly instead.
        assert!(
            !crate::clock::thread_registered_in_sim(),
            "a reply wait on a natively clocked cell from a sim-registered thread; build the \
             SlotPool (or FrameCell) with the sim clock"
        );
        let mut held = self.lock.lock().expect("reply cell lock");
        // Register as a parked waiter *before* the under-lock recheck so
        // a concurrent filler either sees the registration (and takes
        // the notify path) or we see its reply here and never sleep.
        self.parked.fetch_add(1, Ordering::SeqCst);
        let reply = loop {
            if let Some(reply) = ready() {
                break reply;
            }
            held = self.cv.wait(held).expect("reply cell lock");
        };
        self.parked.fetch_sub(1, Ordering::SeqCst);
        drop(held);
        reply
    }
}

/// One reusable reply cell. Lives in `Arc`s held by the pool, the waiter,
/// and (transiently) the filler; all coordination is through `word`.
#[derive(Debug)]
struct ReplyCell {
    word: AtomicU64,
    parking: Parking,
}

impl ReplyCell {
    fn new() -> Self {
        Self { word: AtomicU64::new(0), parking: Parking::new() }
    }

    /// Publish `reply` for generation `gen`. A stale generation (the cell
    /// was re-issued) or an already-filled cell is a silent no-op.
    fn fill(&self, gen: u64, reply: Result<u32, ServeError>) {
        let pending = gen << GEN_SHIFT; // tag PENDING, payload 0
        if self
            .word
            .compare_exchange(pending, encode(gen, reply), Ordering::SeqCst, Ordering::Acquire)
            .is_ok()
        {
            self.parking.wake();
        }
    }
}

/// The waiter half of one pooled lookup: redeem with [`wait`](Self::wait)
/// or poll with [`poll`](Self::poll); dropping it returns the cell to the
/// pool it came from.
#[derive(Debug)]
pub struct ReplySlot {
    cell: Arc<ReplyCell>,
    gen: u64,
    pool: Option<SlotPool>,
}

impl ReplySlot {
    /// Block until the reply arrives.
    pub fn wait(self) -> Result<u32, ServeError> {
        let clock = self.pool.as_ref().map(|p| &p.shared.clock);
        self.cell.parking.wait(clock, || decode(self.cell.word.load(Ordering::SeqCst)))
    }

    /// The reply if it has arrived, `None` while still in flight.
    pub fn poll(&self) -> Option<Result<u32, ServeError>> {
        let word = self.cell.word.load(Ordering::Acquire);
        debug_assert_eq!(word >> GEN_SHIFT, self.gen & GEN_MASK, "slot outlived its generation");
        decode(word)
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(self.cell.clone());
        }
    }
}

/// The filler half of one pooled lookup: consumed by
/// [`send`](Self::send); dropping it unsent fills `ShuttingDown` so the
/// waiter is never stranded.
#[derive(Debug)]
pub struct ReplyHandle {
    cell: Arc<ReplyCell>,
    gen: u64,
    sent: bool,
}

impl ReplyHandle {
    /// Publish the reply and wake the waiter.
    pub fn send(mut self, reply: Result<u32, ServeError>) {
        self.sent = true;
        self.cell.fill(self.gen, reply);
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        if !self.sent {
            self.cell.fill(self.gen, Err(ServeError::ShuttingDown));
        }
    }
}

/// A slab of reusable reply cells. The server keeps one per shard,
/// shared by every [`ServerHandle`](crate::ServerHandle) clone, so slab
/// traffic contends only within a shard; cells cycle
/// take → submit → reply → reap → put without touching the allocator once
/// the pool is warm.
#[derive(Debug, Clone)]
pub struct SlotPool {
    /// Cheaply clonable handle: every clone shares the same slab (the
    /// server hands one clone per `ServerHandle`). Hiding the `Arc`
    /// here keeps `take` an ordinary `&self` method, which is also what
    /// lets the whole pool compile against the `dini-check` model
    /// `Arc` (no `Arc<Self>` receivers).
    shared: Arc<PoolShared>,
}

#[derive(Debug)]
struct PoolShared {
    // lint: lock-ok: slab free-list, touched once per take/put — the
    // reply handoff itself is the lock-free word protocol above.
    free: Mutex<Vec<Arc<ReplyCell>>>,
    /// Pool size cap: cells beyond this are dropped on return instead of
    /// pooled, bounding memory under in-flight spikes.
    capacity: usize,
    /// How waiters on this pool's slots block: natively (condvar) or in
    /// a sim scheduler.
    clock: Clock,
}

impl SlotPool {
    /// An empty pool retaining at most `capacity` idle cells, with
    /// native (wall-clock) waiting.
    pub fn new(capacity: usize) -> Self {
        Self::with_clock(capacity, Clock::system())
    }

    /// An empty pool whose waiters block in `clock` time.
    pub fn with_clock(capacity: usize, clock: Clock) -> Self {
        Self {
            shared: Arc::new(PoolShared {
                // lint: lock-ok: slab free-list (see the field's contract).
                free: Mutex::new(Vec::with_capacity(capacity)),
                capacity,
                clock,
            }),
        }
    }

    /// Idle cells currently pooled.
    pub fn idle(&self) -> usize {
        self.shared.free.lock().expect("slot pool lock").len()
    }

    /// Hand out a cell as a fresh-generation waiter/filler pair,
    /// allocating only when the pool is empty (cold start or an in-flight
    /// spike beyond anything seen before).
    pub fn take(&self) -> (ReplySlot, ReplyHandle) {
        let cell = self
            .shared
            .free
            .lock()
            .expect("slot pool lock")
            .pop()
            .unwrap_or_else(|| Arc::new(ReplyCell::new()));
        // ordering: relaxed-ok: the pool's free-list mutex already ordered
        // this cell's last tenant before us; no filler is in flight.
        let gen = (cell.word.load(Ordering::Relaxed) >> GEN_SHIFT).wrapping_add(1) & GEN_MASK;
        cell.word.store(gen << GEN_SHIFT, Ordering::Release);
        let slot = ReplySlot { cell: cell.clone(), gen, pool: Some(self.clone()) };
        let handle = ReplyHandle { cell, gen, sent: false };
        (slot, handle)
    }

    fn put(&self, cell: Arc<ReplyCell>) {
        let mut free = self.shared.free.lock().expect("slot pool lock");
        if free.len() < self.shared.capacity {
            free.push(cell);
        }
    }
}

/// A poolless waiter/filler pair (tests and one-off callers; steady-state
/// serving always goes through a [`SlotPool`]).
pub fn reply_pair() -> (ReplySlot, ReplyHandle) {
    let cell = Arc::new(ReplyCell::new());
    let gen = 1u64;
    cell.word.store(gen << GEN_SHIFT, Ordering::Release);
    (ReplySlot { cell: cell.clone(), gen, pool: None }, ReplyHandle { cell, gen, sent: false })
}

const FRAME_PENDING: u64 = 0;
const FRAME_FILLED: u64 = 1;

/// One reply cell for a whole frame of requests: the filler publishes
/// one reply `T` for all of them, and every request's waiter holds an
/// `Arc` of the cell plus its own index into that reply. Parking is the
/// same as a pooled slot's — a waiter blocks only if the reply is not
/// there yet, and the fill wakes parked waiters once per frame, not per
/// request.
///
/// Written once per tenancy: the first [`fill`](Self::fill) wins, later
/// ones are no-ops. Reuse needs no generation tag, because a cell is
/// made pending again only through [`recycle`](Self::recycle), which
/// succeeds only while the caller holds the *only* `Arc` — no waiter and
/// no filler can still see the old tenancy.
#[derive(Debug)]
pub struct FrameCell<T> {
    /// `FRAME_PENDING` or `FRAME_FILLED`; the SeqCst store of
    /// `FRAME_FILLED` publishes `reply`.
    word: AtomicU64,
    /// Set once per tenancy, before `word` flips; read only after a
    /// waiter has seen `word` filled. A plain `std` cell, not a seam
    /// type: it carries no ordering of its own that anything relies on —
    /// `word` publishes it — so the checker needs to see only `word`.
    reply: OnceLock<T>,
    parking: Parking,
    /// How a waiter blocks: natively (condvar) or in a sim scheduler.
    clock: Clock,
}

impl<T> FrameCell<T> {
    /// A pending cell whose waiters block in `clock` time.
    pub fn new(clock: Clock) -> Self {
        Self {
            word: AtomicU64::new(FRAME_PENDING),
            reply: OnceLock::new(),
            parking: Parking::new(),
            clock,
        }
    }

    /// Publish `reply` and wake every parked waiter. A cell that already
    /// holds a reply keeps it.
    pub fn fill(&self, reply: T) {
        if self.reply.set(reply).is_ok() {
            self.word.store(FRAME_FILLED, Ordering::SeqCst);
            self.parking.wake();
        }
    }

    fn filled(&self, order: Ordering) -> Option<&T> {
        (self.word.load(order) == FRAME_FILLED)
            .then(|| self.reply.get().expect("a filled word follows the reply's set"))
    }

    /// The reply if it has been filled, `None` while pending.
    pub fn poll(&self) -> Option<&T> {
        self.filled(Ordering::Acquire)
    }

    /// Block until the reply is filled.
    pub fn wait(&self) -> &T {
        self.parking.wait(Some(&self.clock), || self.filled(Ordering::SeqCst))
    }

    /// Make `cell` pending again for a new tenancy, if nothing else holds
    /// it: `false` (and nothing changes) while any other `Arc` of it — a
    /// waiter's, a filler's — is alive.
    pub fn recycle(cell: &mut Arc<Self>) -> bool {
        let Some(cell) = Arc::get_mut(cell) else { return false };
        cell.reply.take();
        // ordering: relaxed-ok: `get_mut` proved this the only handle;
        // the next tenancy is published through whatever hands the `Arc`
        // to another thread.
        cell.word.store(FRAME_PENDING, Ordering::Relaxed);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_then_wait_round_trips() {
        let (slot, handle) = reply_pair();
        assert_eq!(slot.poll(), None);
        handle.send(Ok(42));
        assert_eq!(slot.poll(), Some(Ok(42)));
        assert_eq!(slot.wait(), Ok(42));
    }

    #[test]
    fn wait_blocks_until_filled_cross_thread() {
        // Deterministic handshake instead of a sleep: the waiter
        // registers in `parked` before it can possibly sleep, so once we
        // observe `parked == 1` the waiter is committed to the
        // park-and-recheck protocol and the fill must wake it. No
        // timing assumption, so the test cannot flake under load.
        let (slot, handle) = reply_pair();
        let cell = slot.cell.clone();
        let t = thread::spawn(move || slot.wait());
        while cell.parking.parked.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        handle.send(Ok(7));
        assert_eq!(t.join().unwrap(), Ok(7));
    }

    #[test]
    fn dropped_handle_signals_shutdown() {
        let (slot, handle) = reply_pair();
        drop(handle);
        assert_eq!(slot.wait(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn errors_round_trip() {
        let (slot, handle) = reply_pair();
        handle.send(Err(ServeError::Overloaded { shard: 5 }));
        assert_eq!(slot.wait(), Err(ServeError::Overloaded { shard: 5 }));
    }

    #[test]
    fn pool_recycles_cells_without_reallocating() {
        let pool = SlotPool::new(8);
        let (slot, handle) = pool.take();
        handle.send(Ok(1));
        assert_eq!(slot.wait(), Ok(1)); // drop returns the cell
        assert_eq!(pool.idle(), 1);
        for i in 0..100u32 {
            let (slot, handle) = pool.take();
            assert_eq!(pool.idle(), 0, "single-caller reuse must hit the pooled cell");
            handle.send(Ok(i));
            assert_eq!(slot.wait(), Ok(i));
        }
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn stale_filler_cannot_corrupt_a_recycled_cell() {
        let pool = SlotPool::new(8);
        let (slot, stale_handle) = pool.take();
        drop(slot); // abandon while still pending: cell goes back pooled
        assert_eq!(pool.idle(), 1);

        let (slot2, handle2) = pool.take(); // same cell, new generation
        stale_handle.send(Ok(999)); // stale write must miss
        assert_eq!(slot2.poll(), None, "stale generation must not fill the new tenant");
        handle2.send(Ok(5));
        assert_eq!(slot2.wait(), Ok(5));
    }

    #[test]
    fn pool_capacity_bounds_idle_cells() {
        let pool = SlotPool::new(2);
        let pairs: Vec<_> = (0..5).map(|_| pool.take()).collect();
        for (slot, handle) in pairs {
            handle.send(Ok(0));
            let _ = slot.wait();
        }
        assert_eq!(pool.idle(), 2, "returns beyond capacity are dropped");
    }

    #[test]
    fn many_threads_share_one_pool() {
        let pool = SlotPool::new(64);
        let fillers: Vec<_> = (0..4u32)
            .map(|t| {
                let pool = pool.clone();
                thread::spawn(move || {
                    for i in 0..500u32 {
                        let (slot, handle) = pool.take();
                        let filler = thread::spawn(move || handle.send(Ok(t * 1000 + i)));
                        assert_eq!(slot.wait(), Ok(t * 1000 + i));
                        filler.join().unwrap();
                    }
                })
            })
            .collect();
        for f in fillers {
            f.join().unwrap();
        }
        assert!(pool.idle() <= 64);
    }
}
