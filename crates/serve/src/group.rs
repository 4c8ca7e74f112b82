//! The open group: a pipelined caller's lookups, ranked as one.
//!
//! The paper never sends a word alone: a query travels in a packet of
//! others, and a batch pays because its misses overlap. A caller that
//! keeps many lookups in flight has such a batch in hand already, one
//! key at a time. An [`OpenGroup`] collects those keys, up to the
//! kernel's own lockstep [`GROUP`], and hands them to its [`Ranker`]
//! together — the in-process analogue of a `dini-net` client's open
//! frame.
//!
//! * [`OpenGroup::join`] adds a key to the open group and returns a
//!   [`Member`]: the key's slot in the group's answers. The group is
//!   ranked when it is full, or as soon as any member is polled or
//!   waited on, by whichever thread gets there first; the rest find its
//!   answers filled, or wait for them.
//! * A member dropped before its group is ranked leaves a hole: its key
//!   is never ranked. A group whose members are all gone is discarded.
//! * The lock guards only the group's bookkeeping. A group is taken out
//!   of it before it is ranked, so ranking — which may block, yield to a
//!   virtual clock, or wait out a snapshot pin — never holds it.
//!
//! ## The ticket: one reference a lookup
//!
//! What a member holds is its group's **ticket**, and nothing else: one
//! counted reference to a pooled record of the group's tenancy — its
//! reply cell (a pooled [`Filler`]) and a hold on the [`OpenGroup`]. A
//! grouped lookup therefore costs four atomic read-modify-writes from
//! `join` to drop: the join lock's lock and unlock, the ticket's count
//! up at join and down at drop. The group's own count on its ticket
//! goes when the group has been ranked, or discarded.
//!
//! Whoever lets go of a ticket last — a member, or the thread that
//! ranked it — gives it back to its group's free list, its cell back to
//! the cell pool, and drops its hold on the group. So a ticket, and the
//! cell it carries, pass to a new group only once no lookup holds them;
//! a warmed owner takes both from its pools and allocates nothing; and
//! the group's strong count is its owner's reference plus one per
//! ticket some lookup holds.
//!
//! Which lookups join is the owner's rule, not this module's:
//! [`OpenGroup::is_idle`] tells it whether anything it began is still
//! held (see [`ServerHandle::begin_lookup`](crate::ServerHandle::begin_lookup)).

use crate::oneshot::{CellPool, Filler, ReplyCell, Unanswered};
use crate::sync::{Arc, AtomicUsize, Mutex, Ordering};
pub use dini_index::line_directory::GROUP;
use std::fmt;
use std::ptr::NonNull;

/// A group's answers, slot by slot: what its one pooled reply cell
/// holds. Slots past the group's length, and holes, read
/// [`Unanswered::unanswered`].
pub type Answers<A> = [A; GROUP];

/// A group's dropped slots are the bits of one `u32`.
const _: () = assert!(GROUP <= u32::BITS as usize);

/// Ranks a closed group's keys.
pub trait Ranker {
    /// One key's answer.
    type Answer: Unanswered;
    /// Scratch reused from one group to the next.
    type Scratch: Default;
    /// Rank `keys`: clear `answers`, then leave `answers[i]` answering
    /// `keys[i]`.
    fn rank(&self, keys: &[u32], scratch: &mut Self::Scratch, answers: &mut Vec<Self::Answer>);
}

/// An open group and the ranker that closes it. Shared, as a
/// [`Shared`], by its owner and by every ticket in use.
pub struct OpenGroup<R: Ranker> {
    ranker: R,
    // A lock, not a lock-free slot: joins from one owner never contend,
    // and a poll from another thread must see the group whole.
    open: Mutex<Open<R>>,
    pool: CellPool<Answers<R::Answer>>,
}

/// How an owner and the tickets of its groups hold an [`OpenGroup`].
pub type Shared<R> = Arc<OpenGroup<R>>;

/// The group being collected, the scratch that ranks it, and the
/// tickets no lookup holds.
struct Open<R: Ranker> {
    /// The open group's ticket, counted once for the group itself;
    /// `None` while no group is open.
    ticket: Option<TicketRef<R>>,
    keys: [u32; GROUP],
    len: usize,
    /// Bit `i`: slot `i`'s member was dropped before the group was
    /// ranked.
    dropped: u32,
    scratch: R::Scratch,
    answers: Vec<R::Answer>,
    /// Tickets whose last holder has let go, ready for the next group.
    /// Boxed: a ticket in use is leaked from its box, and must not move.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Ticket<R>>>,
}

/// A group taken out of [`Open`] to be ranked with the lock released.
struct Closed<R: Ranker> {
    ticket: TicketRef<R>,
    keys: [u32; GROUP],
    len: usize,
    dropped: u32,
    scratch: R::Scratch,
    answers: Vec<R::Answer>,
}

/// No group open; empty scratch. Allocates nothing.
impl<R: Ranker> Default for Open<R> {
    fn default() -> Self {
        Self {
            ticket: None,
            keys: [0; GROUP],
            len: 0,
            dropped: 0,
            scratch: R::Scratch::default(),
            answers: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<R: Ranker> Open<R> {
    /// Whether `ticket` is the open group's.
    fn holds(&self, ticket: &TicketRef<R>) -> bool {
        self.ticket.as_ref().is_some_and(|t| t.0 == ticket.0)
    }

    /// Take the open group out, scratch and all, leaving none open.
    fn close(&mut self) -> Closed<R> {
        Closed {
            ticket: self.ticket.take().expect("only an open group closes"),
            keys: self.keys,
            len: std::mem::take(&mut self.len),
            dropped: std::mem::take(&mut self.dropped),
            scratch: std::mem::take(&mut self.scratch),
            answers: std::mem::take(&mut self.answers),
        }
    }
}

/// One group's tenancy, held by its members through [`TicketRef`]s.
///
/// Free (in its group's free list, owned by that `Box`) its fields are
/// `None` and written only by whoever owns the box. In use (shared as a
/// [`TicketRef`]) it is only read, and `refs` counts its holders: every
/// member of the group, plus the group itself until ranked or
/// discarded.
struct Ticket<R: Ranker> {
    refs: AtomicUsize,
    /// The group's reply cell.
    filler: Option<Filler<Answers<R::Answer>>>,
    /// The group this tenancy belongs to: what a member ranks an open
    /// group through, and what keeps the group alive while the ticket
    /// is held.
    group: Option<Shared<R>>,
}

/// A counted reference to a ticket in use: `Arc`'s protocol, over a
/// count the last holder can see go to zero, so it can recycle the
/// ticket instead of freeing it.
struct TicketRef<R: Ranker>(NonNull<Ticket<R>>);

// SAFETY: a `TicketRef` is a shared reference to a `Ticket` kept alive by
// its count (see `get`), and whichever thread drops the last one drops
// the ticket's contents. Field by field: `refs` is an atomic; `filler`
// owns a cell of `R::Answer`s, read from any holder's thread and dropped
// on the last one's (`R::Answer: Send + Sync`); `group` is an `Arc` of
// the `OpenGroup`, whose ranker every holder may call and whose lock
// guards scratch and answers any holder's thread may rank with
// (`R: Send + Sync`, `R::Scratch: Send`).
unsafe impl<R: Ranker> Send for TicketRef<R>
where
    R: Send + Sync,
    R::Answer: Send + Sync,
    R::Scratch: Send,
{
}
// SAFETY: as for `Send`, field by field; through a shared `TicketRef` a
// thread only reads the ticket, or bumps its atomic count.
unsafe impl<R: Ranker> Sync for TicketRef<R>
where
    R: Send + Sync,
    R::Answer: Send + Sync,
    R::Scratch: Send,
{
}

impl<R: Ranker> TicketRef<R> {
    /// Put a free ticket in use, counted once for its holder.
    fn issue(
        mut ticket: Box<Ticket<R>>,
        group: Shared<R>,
        filler: Filler<Answers<R::Answer>>,
    ) -> Self {
        ticket.group = Some(group);
        ticket.filler = Some(filler);
        // ordering: relaxed-ok: the box is owned here; whoever gets a
        // count gets it through the group lock or from this thread.
        ticket.refs.store(1, Ordering::Relaxed);
        Self(NonNull::from(Box::leak(ticket)))
    }

    fn get(&self) -> &Ticket<R> {
        // SAFETY: `self` is one of the ticket's counted references, so
        // the count is at least one: the box it was leaked from is not
        // reclaimed (see `Drop`) until this reference is gone, and while
        // any count is held nothing writes the ticket but its atomic.
        unsafe { self.0.as_ref() }
    }

    /// One more counted reference, as `Arc::clone`.
    fn count(&self) -> Self {
        // ordering: relaxed-ok: as `Arc::clone` — a new reference is
        // made from an existing one, which already orders every access
        // it could make before the ticket's release.
        self.get().refs.fetch_add(1, Ordering::Relaxed);
        Self(self.0)
    }

    fn group(&self) -> &OpenGroup<R> {
        self.get().group.as_ref().expect("a ticket in use holds its group")
    }

    fn cell(&self) -> &ReplyCell<Answers<R::Answer>> {
        self.get().filler.as_ref().expect("a ticket in use holds its cell").cell()
    }
}

/// The last holder recycles the ticket: back to its group's free list,
/// its cell back to its pool, and its hold on the group dropped — the
/// group's strong count falls back to its owner's once no ticket is in
/// use.
impl<R: Ranker> Drop for TicketRef<R> {
    fn drop(&mut self) {
        // AcqRel, as `Arc`'s drop: every holder's accesses happen before
        // the last holder's reclaim below.
        if self.get().refs.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // SAFETY: the count went to zero, so this was the last reference
        // to the ticket leaked in `issue`, and no other can be made from
        // nothing: the box is owned here again.
        let mut ticket = unsafe { Box::from_raw(self.0.as_ptr()) };
        let filler = ticket.filler.take();
        let Some(group) = ticket.group.take() else { return };
        // A poisoned lock frees the ticket instead: no panic in a drop.
        if let Ok(mut open) = group.open.lock() {
            open.free.push(ticket);
        }
        drop(filler);
        drop(group);
    }
}

impl<R: Ranker> OpenGroup<R> {
    /// A group with nothing open, ranked by `ranker`, whose cells come
    /// from `pool`.
    pub fn shared(ranker: R, pool: CellPool<Answers<R::Answer>>) -> Shared<R> {
        Arc::new(Self { ranker, open: Mutex::new(Open::default()), pool })
    }

    /// A new group with nothing open, over a clone of this one's ranker,
    /// taking cells from the same pool.
    pub fn sibling(&self) -> Shared<R>
    where
        R: Clone,
    {
        Self::shared(self.ranker.clone(), self.pool.clone())
    }

    /// What ranks this group.
    pub fn ranker(&self) -> &R {
        &self.ranker
    }

    /// Whether the owner holds nothing of this group: no ticket in use
    /// (so no [`Member`]) and no other clone of `this`. An owner that
    /// hands out a clone with each lookup it answers alone thereby
    /// learns whether the caller still holds any lookup it began.
    pub fn is_idle(this: &Shared<R>) -> bool {
        Arc::strong_count(this) == 1
    }

    fn lock(&self) -> crate::sync::MutexGuard<'_, Open<R>> {
        self.open.lock().expect("open group lock")
    }

    /// Add `key` to the open group, opening one if none is, and rank
    /// the group here if that filled it.
    pub fn join(this: &Shared<R>, key: u32) -> Member<R> {
        let mut open = this.lock();
        if open.ticket.is_none() {
            let free = open.free.pop().unwrap_or_else(|| {
                Box::new(Ticket { refs: AtomicUsize::new(0), filler: None, group: None })
            });
            open.ticket = Some(TicketRef::issue(free, this.clone(), this.pool.take()));
        }
        let ticket = open.ticket.as_ref().expect("opened above").count();
        let slot = open.len;
        open.keys[slot] = key;
        open.len += 1;
        let full = (open.len == GROUP).then(|| open.close());
        drop(open);
        if let Some(group) = full {
            this.rank(group);
        }
        Member { ticket, slot }
    }

    /// Rank `ticket`'s group if it is still the open one.
    fn rank_open(&self, ticket: &TicketRef<R>) {
        let mut open = self.lock();
        let closed = open.holds(ticket).then(|| open.close());
        drop(open);
        if let Some(group) = closed {
            self.rank(group);
        }
    }

    /// Slot `slot` of `ticket`'s group lost its member: if that group is
    /// still open, its key will not be ranked.
    fn abandon(&self, ticket: &TicketRef<R>, slot: usize) {
        let mut open = self.lock();
        if !open.holds(ticket) {
            return;
        }
        open.dropped |= 1 << slot;
        if open.dropped.count_ones() as usize == open.len {
            // Nobody is left to read it: the group lets go of its ticket
            // unranked, and none is open.
            let discarded = open.ticket.take();
            open.len = 0;
            open.dropped = 0;
            drop(open);
            // Never the last count: the abandoning member still holds one.
            drop(discarded);
        }
    }

    /// Rank a closed group's live keys, fill its cell, and give the
    /// scratch back.
    fn rank(&self, group: Closed<R>) {
        let Closed { ticket, keys: slots, len, dropped, mut scratch, mut answers } = group;
        let live = |slot: usize| slot < len && dropped & (1 << slot) == 0;
        let mut keys = [0u32; GROUP];
        let mut n = 0;
        for slot in (0..len).filter(|&s| live(s)) {
            keys[n] = slots[slot];
            n += 1;
        }
        self.ranker.rank(&keys[..n], &mut scratch, &mut answers);
        let mut ranked = answers.drain(..);
        let reply = std::array::from_fn(|slot| {
            live(slot).then(|| ranked.next()).flatten().unwrap_or_else(R::Answer::unanswered)
        });
        drop(ranked);
        ticket.get().filler.as_ref().expect("a ticket in use holds its cell").fill(reply);
        drop(ticket);
        let mut open = self.lock();
        open.scratch = scratch;
        open.answers = answers;
    }
}

impl<R: Ranker> fmt::Debug for OpenGroup<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpenGroup").finish_non_exhaustive()
    }
}

/// One key's place in a group: its group's ticket and its slot in the
/// group's answers.
pub struct Member<R: Ranker> {
    ticket: TicketRef<R>,
    slot: usize,
}

impl<R: Ranker> Member<R> {
    /// This key's answer once its group is ranked — ranking the group
    /// first if it is still open. `None` only while another thread is
    /// ranking it.
    pub fn poll(&self) -> Option<&R::Answer> {
        self.rank_if_open();
        self.ticket.cell().poll().map(|answers| &answers[self.slot])
    }

    /// This key's answer, ranking the group first if it is still open,
    /// or blocking until the thread ranking it has filled it.
    pub fn wait(&self) -> &R::Answer {
        self.rank_if_open();
        &self.ticket.cell().wait()[self.slot]
    }

    fn rank_if_open(&self) {
        if self.ticket.cell().poll().is_none() {
            self.ticket.group().rank_open(&self.ticket);
        }
    }
}

/// An unranked member takes its key out of a group still open; then its
/// ticket lets go of the group's tenancy.
impl<R: Ranker> Drop for Member<R> {
    fn drop(&mut self) {
        // A ticket with no cell was recycled under this member: a broken
        // count. Say so and leave it; a panic here, while the thread
        // unwinds from whatever the broken ticket did first, would abort
        // the process and take that first report with it.
        let ticket = self.ticket.get();
        let (Some(filler), Some(group)) = (&ticket.filler, &ticket.group) else {
            eprintln!("dini-serve: a grouped lookup (slot {}) outlived its ticket", self.slot);
            return;
        };
        if filler.cell().poll().is_none() {
            group.abandon(&self.ticket, self.slot);
        }
    }
}

impl<R: Ranker> fmt::Debug for Member<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Member")
            .field("slot", &self.slot)
            .field("ranked", &self.ticket.cell().poll().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::config::ServeError;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Answers `key * 10` and counts the keys it ranked and the groups.
    #[derive(Default)]
    struct Tens {
        keys: AtomicU64,
        groups: AtomicU64,
    }

    type Reply = Result<u32, ServeError>;

    impl Ranker for Tens {
        type Answer = Reply;
        type Scratch = ();
        fn rank(&self, keys: &[u32], _: &mut (), answers: &mut Vec<Reply>) {
            self.keys.fetch_add(keys.len() as u64, Ordering::Relaxed);
            self.groups.fetch_add(1, Ordering::Relaxed);
            answers.clear();
            answers.extend(keys.iter().map(|&k| Ok(k * 10)));
        }
    }

    fn group() -> Shared<Tens> {
        OpenGroup::shared(Tens::default(), CellPool::new(4, Clock::system()))
    }

    #[test]
    fn a_full_group_is_ranked_as_it_fills() {
        let g = group();
        let members: Vec<_> = (0..GROUP as u32).map(|k| OpenGroup::join(&g, k)).collect();
        assert_eq!(
            g.ranker().groups.load(Ordering::Relaxed),
            1,
            "ranked by the join that filled it"
        );
        for (k, m) in members.iter().enumerate() {
            assert_eq!(m.poll(), Some(&Ok(k as u32 * 10)));
        }
        let next = OpenGroup::join(&g, 7);
        assert_eq!(next.wait(), &Ok(70), "a new group opens after a full one");
        assert_eq!(g.ranker().keys.load(Ordering::Relaxed), GROUP as u64 + 1);
    }

    #[test]
    fn a_poll_ranks_the_open_group_once() {
        let g = group();
        let a = OpenGroup::join(&g, 1);
        let b = OpenGroup::join(&g, 2);
        assert_eq!(b.poll(), Some(&Ok(20)));
        assert_eq!(a.poll(), Some(&Ok(10)));
        assert_eq!(*a.wait(), Ok(10));
        assert_eq!(g.ranker().groups.load(Ordering::Relaxed), 1);
        assert!(!OpenGroup::is_idle(&g), "two members are held");
        drop((a, b));
        assert!(OpenGroup::is_idle(&g));
    }

    #[test]
    fn a_member_dropped_unranked_is_never_ranked() {
        let g = group();
        let a = OpenGroup::join(&g, 1);
        let b = OpenGroup::join(&g, 2);
        let c = OpenGroup::join(&g, 3);
        drop(b);
        assert_eq!((a.wait(), c.wait()), (&Ok(10), &Ok(30)));
        assert_eq!(g.ranker().keys.load(Ordering::Relaxed), 2, "the hole was not ranked");
        // A group whose every member is gone is discarded unranked.
        let gone: Vec<_> = (0..3).map(|k| OpenGroup::join(&g, k)).collect();
        drop(gone);
        assert_eq!(OpenGroup::join(&g, 5).wait(), &Ok(50));
        assert_eq!(g.ranker().keys.load(Ordering::Relaxed), 3);
        assert_eq!(g.ranker().groups.load(Ordering::Relaxed), 2);
    }
}
