//! Pooled reply cells: the allocation-free half of every reply path.
//!
//! The first serving layer paid two heap allocations per lookup for a
//! fresh `bounded(1)` reply channel. In the paper's economics those are
//! exactly the per-query overheads batching exists to amortise — so this
//! module replaces the channel with reusable reply cells, and every
//! reply in the workspace goes through the same three pieces:
//!
//! * [`ReplyCell<T>`] — written once per tenancy with one reply `T`,
//!   which any number of waiters read through their own `Arc` of it. A
//!   pipelined caller's open group's answers the group's keys — its
//!   lookups read it through
//!   the group's ticket, which holds the cell's [`Filler`], rather than
//!   through an `Arc` each (see [`crate::group`]) — and a `dini-net`
//!   client's a whole `Lookup` frame (each pending lookup keeps its
//!   index into the reply), or one replicated update.
//! * [`CellPool<T>`] — a bounded free list of cells. It hands a cell to
//!   a new tenant only while it holds the *only* `Arc` of it, so no
//!   waiter and no filler of the old tenancy can still see it: reuse
//!   needs no generation tag, and a stale filler cannot reach a recycled
//!   cell because it still holds the `Arc` that keeps the cell out of
//!   circulation.
//! * [`Filler<T>`] — the one side that may answer. Whatever holds it
//!   (a group's ticket, a client frame, a churn-log waiter entry)
//!   answers [`T::unanswered`](Unanswered) if it is dropped before it
//!   filled — a client torn down with frames aboard, a failover with no
//!   survivor — so a waiter is never stranded, and then gives the cell
//!   back to its pool.
//!
//! In steady state every reply reuses a warmed cell and the path
//! allocates nothing.
//!
//! ## Parking
//!
//! A cell is a filled flag, the reply, and a parking lot (`Mutex<()>` +
//! `Condvar` plus a parked-waiter count) touched only when a waiter
//! actually has to block — a poll-driven (open-loop) reply never takes
//! the lock on either side, and a fill wakes parked waiters once per
//! cell, however many requests it answers.

use crate::clock::Clock;
use crate::config::ServeError;
use crate::sync::{Arc, AtomicU64, Condvar, Mutex, Ordering};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Cells a new pool starts with: a caller taking its next cell finds
/// the one before last back in the pool even while the filler of the
/// last is still giving it back, so a lone warmed caller never
/// allocates.
const SPARE_CELLS: usize = 2;
/// Pooled cells [`CellPool::take`] checks, oldest first, before it
/// allocates: a cell some waiter still holds rotates to the back instead
/// of blocking the ones behind it.
const RECYCLE_TRIES: usize = 4;

/// The parking lot a reply cell blocks its waiters in: a parked-waiter
/// count and a `Mutex<()>` + `Condvar` touched only when a waiter
/// actually has to block. The cell publishes its reply with a SeqCst
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
    fn wait<R>(&self, clock: &Clock, ready: impl Fn() -> Option<R>) -> R {
        if let Some(reply) = ready() {
            return reply;
        }
        if let Some(sim) = clock.as_sim() {
            return sim.wait_until(ready);
        }
        // A native condvar park is invisible to a sim scheduler: the
        // thread would stay marked Running and wedge the whole
        // simulation in wall-clock, bypassing the deadlock detector.
        // Refuse loudly instead.
        assert!(
            !crate::clock::thread_registered_in_sim(),
            "a reply wait on a natively clocked cell from a sim-registered thread; build the \
             CellPool with the sim clock"
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

const PENDING: u64 = 0;
const FILLED: u64 = 1;

/// One reply cell: its [`Filler`] publishes one reply `T`, and every
/// waiter holding an `Arc` of the cell reads it — once it is there
/// ([`poll`](Self::poll)) or by blocking until it is
/// ([`wait`](Self::wait)).
///
/// Written once per tenancy: the first fill wins, later ones are no-ops.
/// Cells come from a [`CellPool`], which makes one pending again only
/// while it holds the *only* `Arc` — no waiter and no filler can still
/// see the old tenancy.
#[derive(Debug)]
pub struct ReplyCell<T> {
    /// `PENDING` or `FILLED`; the SeqCst store of `FILLED` publishes
    /// `reply`.
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

impl<T> ReplyCell<T> {
    fn new(clock: Clock) -> Self {
        Self {
            word: AtomicU64::new(PENDING),
            reply: OnceLock::new(),
            parking: Parking::new(),
            clock,
        }
    }

    /// Publish `reply` and wake every parked waiter. A cell that already
    /// holds a reply keeps it.
    fn fill(&self, reply: T) {
        if self.reply.set(reply).is_ok() {
            self.word.store(FILLED, Ordering::SeqCst);
            self.parking.wake();
        }
    }

    fn filled(&self, order: Ordering) -> Option<&T> {
        (self.word.load(order) == FILLED)
            .then(|| self.reply.get().expect("a filled word follows the reply's set"))
    }

    /// The reply if it has been filled, `None` while pending.
    pub fn poll(&self) -> Option<&T> {
        self.filled(Ordering::Acquire)
    }

    /// Block until the reply is filled.
    pub fn wait(&self) -> &T {
        self.parking.wait(&self.clock, || self.filled(Ordering::SeqCst))
    }

    /// Make `cell` pending again for a new tenancy, if nothing else holds
    /// it: `false` (and nothing changes) while any other `Arc` of it — a
    /// waiter's, a filler's — is alive.
    fn recycle(cell: &mut Arc<Self>) -> bool {
        let Some(cell) = Arc::get_mut(cell) else { return false };
        cell.reply.take();
        // ordering: relaxed-ok: `get_mut` proved this the only handle;
        // the next tenancy is published through whatever hands the `Arc`
        // to another thread.
        cell.word.store(PENDING, Ordering::Relaxed);
        true
    }
}

/// A waiter's handle on a reply cell: read the reply through it. The
/// pool reuses the cell only once every handle on it is gone.
pub type Waiter<T> = Arc<ReplyCell<T>>;

/// The reply a [`Filler`] dropped before it filled leaves its waiters.
pub trait Unanswered {
    /// "Nobody will answer this": what a waiter reads when the request
    /// was torn down with its filler.
    fn unanswered() -> Self;
}

impl<T> Unanswered for Result<T, ServeError> {
    fn unanswered() -> Self {
        Err(ServeError::ShuttingDown)
    }
}

/// A group's answers: every slot unanswered.
impl<T: Unanswered, const N: usize> Unanswered for [T; N] {
    fn unanswered() -> Self {
        std::array::from_fn(|_| T::unanswered())
    }
}

/// The filler side of one pooled [`ReplyCell`]: the only handle that
/// can answer it. Dropped, it answers [`Unanswered::unanswered`] if it
/// had not filled, and gives the cell back to the pool it came from.
#[derive(Debug)]
pub struct Filler<T: Unanswered> {
    /// `Some` until `drop` hands it back to `pool`.
    cell: Option<Arc<ReplyCell<T>>>,
    pool: CellPool<T>,
}

impl<T: Unanswered> Filler<T> {
    fn arc(&self) -> &Arc<ReplyCell<T>> {
        self.cell.as_ref().expect("a filler holds its cell until dropped")
    }

    /// The cell this filler answers, borrowed: what a reader that holds
    /// the filler's owner, not a [`Waiter`], polls or waits on.
    pub fn cell(&self) -> &ReplyCell<T> {
        self.arc()
    }

    /// A waiter's handle on the cell.
    pub fn waiter(&self) -> Waiter<T> {
        self.arc().clone()
    }

    /// Whether `cell` is the cell this filler answers.
    pub fn fills(&self, cell: &Waiter<T>) -> bool {
        Arc::ptr_eq(self.arc(), cell)
    }

    /// Publish `reply` and wake every parked waiter; the first fill of a
    /// tenancy wins.
    pub fn fill(&self, reply: T) {
        self.cell().fill(reply);
    }
}

impl<T: Unanswered> Drop for Filler<T> {
    fn drop(&mut self) {
        let cell = self.cell.take().expect("dropped once");
        // Only this filler answers the cell: one it filled needs no
        // `unanswered` built to be refused.
        if cell.poll().is_none() {
            cell.fill(T::unanswered());
        }
        self.pool.put(cell);
    }
}

/// A bounded free list of reply cells, shared by every clone. The server
/// keeps one per shard, shared by every
/// [`ServerHandle`](crate::ServerHandle), so pool traffic contends only
/// within a shard; a `dini-net` client keeps one per endpoint outbox and
/// one per span's churn log. Cells cycle take → fill → drop the filler →
/// take without touching the allocator once the pool is warm.
#[derive(Debug)]
pub struct CellPool<T> {
    /// Hiding the `Arc` here keeps `take` an ordinary `&self` method,
    /// which is also what lets the pool compile against the `dini-check`
    /// model `Arc` (no `Arc<Self>` receivers).
    shared: Arc<PoolShared<T>>,
}

impl<T> Clone for CellPool<T> {
    fn clone(&self) -> Self {
        Self { shared: self.shared.clone() }
    }
}

#[derive(Debug)]
struct PoolShared<T> {
    /// Oldest first: the likeliest to be held by nobody.
    // lint: lock-ok: free list, touched once per take and once per
    // returned filler — the reply handoff itself is the cell's word.
    free: Mutex<VecDeque<Arc<ReplyCell<T>>>>,
    /// Cells beyond this are freed on return instead of pooled, bounding
    /// memory under in-flight spikes.
    capacity: usize,
    /// How waiters on this pool's cells block.
    clock: Clock,
}

impl<T: Unanswered> CellPool<T> {
    /// A pool retaining at most `capacity` idle cells, whose waiters
    /// block in `clock` time. It starts with two spare cells (fewer if
    /// `capacity` is smaller).
    pub fn new(capacity: usize, clock: Clock) -> Self {
        let free = (0..SPARE_CELLS.min(capacity))
            .map(|_| Arc::new(ReplyCell::new(clock.clone())))
            .collect();
        Self {
            shared: Arc::new(PoolShared {
                // lint: lock-ok: free list (see the field's contract).
                free: Mutex::new(free),
                capacity,
                clock,
            }),
        }
    }

    /// Idle cells currently pooled (some may still be held by a waiter).
    pub fn idle(&self) -> usize {
        self.shared.free.lock().expect("cell pool lock").len()
    }

    /// A pending cell for a new request, as its filler: a pooled one no
    /// one else holds, or a new one when the oldest few are all held
    /// (cold start, or an in-flight spike beyond anything seen before).
    pub fn take(&self) -> Filler<T> {
        let recycled = {
            let mut free = self.shared.free.lock().expect("cell pool lock");
            (0..free.len().min(RECYCLE_TRIES)).find_map(|_| {
                let mut cell = free.pop_front()?;
                if ReplyCell::recycle(&mut cell) {
                    Some(cell)
                } else {
                    free.push_back(cell);
                    None
                }
            })
        };
        let cell = recycled.unwrap_or_else(|| Arc::new(ReplyCell::new(self.shared.clock.clone())));
        Filler { cell: Some(cell), pool: self.clone() }
    }

    fn put(&self, cell: Arc<ReplyCell<T>>) {
        let mut free = self.shared.free.lock().expect("cell pool lock");
        if free.len() < self.shared.capacity {
            free.push_back(cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    type Reply = Result<u32, ServeError>;

    fn pool(capacity: usize) -> CellPool<Reply> {
        CellPool::new(capacity, Clock::system())
    }

    #[test]
    fn fill_then_wait_round_trips() {
        let pool = pool(8);
        let filler = pool.take();
        let cell = filler.waiter();
        assert_eq!(cell.poll(), None);
        filler.fill(Ok(42));
        assert_eq!(cell.poll(), Some(&Ok(42)));
        assert_eq!(*cell.wait(), Ok(42));
        filler.fill(Ok(7));
        assert_eq!(*cell.wait(), Ok(42), "the first fill of a tenancy wins");
    }

    #[test]
    fn wait_blocks_until_filled_cross_thread() {
        // Deterministic handshake instead of a sleep: the waiter
        // registers in `parked` before it can possibly sleep, so once we
        // observe `parked == 1` the waiter is committed to the
        // park-and-recheck protocol and the fill must wake it. No
        // timing assumption, so the test cannot flake under load.
        let pool = pool(8);
        let filler = pool.take();
        let cell = filler.waiter();
        let t = thread::spawn({
            let cell = cell.clone();
            move || *cell.wait()
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while cell.parking.parked.load(Ordering::SeqCst) == 0 {
            assert!(std::time::Instant::now() < deadline, "the waiter never parked");
            thread::yield_now();
        }
        filler.fill(Ok(7));
        assert_eq!(t.join().unwrap(), Ok(7));
    }

    #[test]
    fn dropped_filler_answers_shutdown_and_returns_the_cell() {
        let pool = pool(8);
        let filler = pool.take();
        let cell = filler.waiter();
        assert_eq!(pool.idle(), 1);
        drop(filler);
        assert_eq!(*cell.wait(), Err(ServeError::ShuttingDown));
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn pool_recycles_cells_without_reallocating() {
        let pool = pool(8);
        let cells: Vec<_> = (0..2).map(|_| Arc::as_ptr(&pool.take().waiter())).collect();
        for i in 0..100u32 {
            let filler = pool.take();
            let cell = filler.waiter();
            assert!(cells.contains(&Arc::as_ptr(&cell)), "a lone caller reuses the spares");
            assert_eq!(cell.poll(), None, "a recycled cell is pending again");
            filler.fill(Ok(i));
            drop(filler);
            assert_eq!(*cell.wait(), Ok(i));
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn a_cell_some_waiter_holds_is_not_recycled() {
        let pool = pool(8);
        let held: Vec<_> = (0..2).map(|_| pool.take().waiter()).collect();
        assert_eq!(pool.idle(), 2, "both spares returned, both still held by waiters");
        let filler = pool.take();
        let fresh = filler.waiter();
        assert!(held.iter().all(|h| !Arc::ptr_eq(h, &fresh)), "a held cell was recycled");
        assert_eq!(held[0].poll(), Some(&Err(ServeError::ShuttingDown)));
        assert_eq!(fresh.poll(), None);
    }

    #[test]
    fn pool_capacity_bounds_idle_cells() {
        let pool = pool(2);
        let fillers: Vec<_> = (0..5).map(|_| pool.take()).collect();
        drop(fillers);
        assert_eq!(pool.idle(), 2, "returns beyond capacity are dropped");
    }

    #[test]
    fn many_threads_share_one_pool() {
        let pool = pool(64);
        let callers: Vec<_> = (0..4u32)
            .map(|t| {
                let pool = pool.clone();
                thread::spawn(move || {
                    for i in 0..500u32 {
                        let filler = pool.take();
                        let cell = filler.waiter();
                        let f = thread::spawn(move || filler.fill(Ok(t * 1000 + i)));
                        assert_eq!(*cell.wait(), Ok(t * 1000 + i));
                        f.join().unwrap();
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        assert!(pool.idle() <= 64);
    }
}
