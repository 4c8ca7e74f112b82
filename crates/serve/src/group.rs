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
//!   [`Member`]: the key's slot in the group's one pooled reply cell.
//!   The group is ranked when it is full, or as soon as any member is
//!   polled or waited on, by whichever thread gets there first; the
//!   rest find the cell filled, or wait on it.
//! * A member dropped before its group is ranked leaves a hole: its key
//!   is never ranked. A group whose members are all gone is discarded.
//! * The lock guards only the group's bookkeeping. A group is taken out
//!   of it before it is ranked, so ranking — which may block, yield to a
//!   virtual clock, or wait out a snapshot pin — never holds it.
//!
//! Which lookups join is the owner's rule, not this module's:
//! [`OpenGroup::is_idle`] tells it whether anything it began is still
//! held (see [`ServerHandle::begin_lookup`](crate::ServerHandle::begin_lookup)).

use crate::oneshot::{CellPool, Filler, Unanswered, Waiter};
use crate::sync::{Arc, Mutex};
pub use dini_index::line_directory::GROUP;
use std::fmt;

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
/// [`Shared`], by its owner and by every [`Member`].
pub struct OpenGroup<R: Ranker> {
    ranker: R,
    // A lock, not a lock-free slot: joins from one owner never contend,
    // and a poll from another thread must see the group whole.
    open: Mutex<Open<R>>,
    pool: CellPool<Answers<R::Answer>>,
}

/// How an owner and the members of its groups hold an [`OpenGroup`].
pub type Shared<R> = Arc<OpenGroup<R>>;

/// The group being collected, and the scratch that ranks it.
struct Open<R: Ranker> {
    /// The open group's cell, as its filler; `None` while no group is
    /// open.
    filler: Option<Filler<Answers<R::Answer>>>,
    keys: [u32; GROUP],
    len: usize,
    /// Bit `i`: slot `i`'s member was dropped before the group was
    /// ranked.
    dropped: u32,
    scratch: R::Scratch,
    answers: Vec<R::Answer>,
}

/// No group open; empty scratch. Allocates nothing.
impl<R: Ranker> Default for Open<R> {
    fn default() -> Self {
        Self {
            filler: None,
            keys: [0; GROUP],
            len: 0,
            dropped: 0,
            scratch: R::Scratch::default(),
            answers: Vec::new(),
        }
    }
}

impl<R: Ranker> Open<R> {
    /// Whether `cell` is the open group's.
    fn holds(&self, cell: &Waiter<Answers<R::Answer>>) -> bool {
        self.filler.as_ref().is_some_and(|f| f.fills(cell))
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

    /// Whether the owner holds nothing of this group: no [`Member`] and
    /// no other clone of `this`. An owner that hands out a clone with
    /// each lookup it answers alone thereby learns whether the caller
    /// still holds any lookup it began.
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
        let cell = open.filler.get_or_insert_with(|| this.pool.take()).waiter();
        let slot = open.len;
        open.keys[slot] = key;
        open.len += 1;
        // Full: take it out, scratch and all, to rank with the lock
        // released, leaving none open.
        let full = (open.len == GROUP).then(|| std::mem::take(&mut *open));
        drop(open);
        if let Some(group) = full {
            this.rank(group);
        }
        Member { group: this.clone(), cell, slot }
    }

    /// Rank the group `cell` answers if it is still the open one.
    fn rank_open(&self, cell: &Waiter<Answers<R::Answer>>) {
        let mut open = self.lock();
        let closed = open.holds(cell).then(|| std::mem::take(&mut *open));
        drop(open);
        if let Some(group) = closed {
            self.rank(group);
        }
    }

    /// Slot `slot` of the group `cell` answers lost its member: if that
    /// group is still open, its key will not be ranked.
    fn abandon(&self, cell: &Waiter<Answers<R::Answer>>, slot: usize) {
        let mut open = self.lock();
        if !open.holds(cell) {
            return;
        }
        open.dropped |= 1 << slot;
        if open.dropped.count_ones() as usize == open.len {
            // Nobody is left to read it: the filler answers the cell
            // for no one and gives it back to the pool.
            open.filler = None;
            open.len = 0;
            open.dropped = 0;
        }
    }

    /// Rank a closed group's live keys, fill its cell, and give the
    /// scratch back.
    fn rank(&self, group: Open<R>) {
        let Open { filler, keys: slots, len, dropped, mut scratch, mut answers } = group;
        let filler = filler.expect("a closed group has a cell");
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
        filler.fill(reply);
        drop(filler);
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

/// One key's place in a group: its slot in the group's reply cell.
pub struct Member<R: Ranker> {
    group: Shared<R>,
    cell: Waiter<Answers<R::Answer>>,
    slot: usize,
}

impl<R: Ranker> Member<R> {
    /// This key's answer once its group is ranked — ranking the group
    /// first if it is still open. `None` only while another thread is
    /// ranking it.
    pub fn poll(&self) -> Option<&R::Answer> {
        self.rank_if_open();
        self.cell.poll().map(|answers| &answers[self.slot])
    }

    /// This key's answer, ranking the group first if it is still open,
    /// or blocking until the thread ranking it has filled it.
    pub fn wait(&self) -> &R::Answer {
        self.rank_if_open();
        &self.cell.wait()[self.slot]
    }

    fn rank_if_open(&self) {
        if self.cell.poll().is_none() {
            self.group.rank_open(&self.cell);
        }
    }
}

impl<R: Ranker> Drop for Member<R> {
    fn drop(&mut self) {
        if self.cell.poll().is_none() {
            self.group.abandon(&self.cell, self.slot);
        }
    }
}

impl<R: Ranker> fmt::Debug for Member<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Member")
            .field("slot", &self.slot)
            .field("ranked", &self.cell.poll().is_some())
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
