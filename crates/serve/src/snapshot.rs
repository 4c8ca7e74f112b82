//! Epoch-published immutable shard snapshots.
//!
//! The serving layer separates readers from the single writer with the
//! classic epoch scheme: the writer never mutates state a reader can see.
//! It builds a fresh immutable [`ShardSnapshot`] off to the side and
//! *publishes* it by swapping a pointer in an [`EpochCell`]; readers pin
//! the current epoch (a lock-free pointer load plus reference bump) and
//! keep using their pinned snapshot for the whole batch. A superseded
//! snapshot is freed when its last reader drops its pin — no reader ever
//! blocks on the writer, and the writer waits for readers only across
//! their few-instruction pin window. A reader with one short job (a
//! caller ranking its own keys under a replica's claim) can instead run
//! it *inside* the pin window ([`EpochCell::with`]: two atomic RMWs, no
//! reference bump or drop), so a publish may wait out one claimed rank
//! (up to a group of keys: a pipelined caller ranks its open group at
//! once).
//!
//! A snapshot is a shard's *whole* read state: the merged main array
//! behind its [`LineDirectory`] (rebuilt only on merge, `Arc`-shared by
//! every snapshot of that main epoch), the [`Overlay`] of inserts and
//! tombstones folded in since, and the shard's global base rank. The
//! three are published as one value, so a reader can never pair an
//! overlay with a main array it was not computed against — consistency
//! holds by construction, not by protocol. `main_epoch` counts the
//! merges behind `main`; it is data (the snapshot file's per-shard epoch,
//! the `rebuilds` statistic), not something readers compare.
//!
//! The overlay is bounded by the merge threshold, but bounded is not
//! free: ranked as two binary searches per key (one over the inserts,
//! one over the deletes) it roughly doubled what a churned shard's
//! `rank_batch` cost — on 2^22 keys, 32-key batches, one core of a
//! shared 2-vCPU Xeon, 27–30 ns/key with no overlay against 53–67
//! ns/key with 1 024–4 096 entries pending. So it is one sorted array
//! behind its own [`LineDirectory`], walked by the same lockstep kernel
//! right after the main array, which brings those 53–67 ns/key to
//! 36–44; an unchurned shard carries no overlay and pays nothing for
//! it.
//!
//! With replica groups, one `EpochCell` serves a whole shard: every
//! caller on every replica pins epochs from the same cell, so publication
//! fans out to `R` replicas for the price of one pointer swap, replicas
//! share the main array *and* its directory, and they can never serve
//! diverging states of the same shard.

use crate::sync::{Arc, AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use dini_cache_sim::NullMemory;
use dini_index::line_directory::GROUP;
use dini_index::{LineDirectory, SharedKeys};

/// A shard's pending churn as readers rank it: the sorted union of the
/// keys inserted since the last merge and the tombstones of the keys
/// deleted since, behind its own [`LineDirectory`], plus what each prefix
/// of that union adds to a main-array rank. The two sets are disjoint by
/// construction — an insert is absent from the main array, a tombstone is
/// in it — so one sorted array holds both, and a key's rank `p` in it
/// picks its adjustment `adjust[p]`: inserts minus tombstones among the
/// first `p` keys. The writer builds one per publish (one merge pass
/// over its two delta arrays, then one strided directory pass); readers
/// walk it with the main array's kernel.
#[derive(Debug, Clone)]
pub struct Overlay {
    keys: LineDirectory,
    /// `adjust[p]`: inserts minus tombstones among the first `p` keys,
    /// so one entry more than there are keys (`adjust[0] = 0`).
    adjust: Vec<i32>,
}

impl Overlay {
    /// The overlay of `inserts` and `deletes` (each sorted and unique,
    /// and disjoint from each other); `None` when both are empty, so an
    /// unchurned shard carries no overlay and ranks without one.
    pub fn new(inserts: &[u32], deletes: &[u32]) -> Option<Self> {
        let n = inserts.len() + deletes.len();
        if n == 0 {
            return None;
        }
        // One branchless merge pass: inserts and tombstones interleave at
        // random, so a branch on which run to take would mispredict half
        // the time. An exhausted run's head reads as past every key.
        let mut keys = vec![0u32; n];
        let mut adjust = vec![0i32; n + 1];
        let (mut i, mut d) = (0, 0);
        for p in 0..n {
            let ins = inserts.get(i).map_or(u64::MAX, |&k| u64::from(k));
            let del = deletes.get(d).map_or(u64::MAX, |&k| u64::from(k));
            let take = ins < del;
            keys[p] = ins.min(del) as u32;
            i += usize::from(take);
            d += usize::from(!take);
            adjust[p + 1] = adjust[p] + 2 * i32::from(take) - 1;
        }
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "inserts and deletes must be disjoint");
        Some(Self { keys: LineDirectory::new(SharedKeys::owned(keys), 0..n, 0, 0.0), adjust })
    }

    /// The overlay's keys: pending inserts and tombstones, in key order.
    pub fn keys(&self) -> &[u32] {
        self.keys.keys()
    }
}

/// Immutable per-shard read state. Ranks compose as
/// `base_rank + main_rank + adjust[overlay_rank]` — the
/// [`DeltaArray`](dini_index::DeltaArray) rank decomposition
/// (`main + inserts≤key − deletes≤key`), republished as shared-nothing
/// data with the two delta counts folded into one [`Overlay`].
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Merges behind `main`; bumped each time the writer replaces it.
    pub main_epoch: u64,
    /// Global rank of the first slot of this shard (number of live keys
    /// in all lower shards) as of publication.
    pub base_rank: u32,
    /// The merged main array behind its cache-line directory, shared by
    /// every snapshot (and every replica) of this main epoch; `None`
    /// when the main array is empty (all keys deleted). (`std`'s `Arc`,
    /// not the `sync` seam's: the directory is payload, not part of the
    /// modeled publication protocol.)
    pub main: Option<std::sync::Arc<LineDirectory>>,
    /// The inserts and deletes folded in since the last merge; `None`
    /// when there are none.
    pub overlay: Option<Overlay>,
}

impl ShardSnapshot {
    /// The read state of a shard whose main array is `main` (`None` when
    /// empty) with `inserts` and `deletes` pending (each sorted and
    /// unique; inserts absent from the main array, deletes present in
    /// it), at epoch `main_epoch` with the given base rank. Builds the
    /// [`Overlay`]; the main directory is shared, not copied.
    pub fn new(
        main_epoch: u64,
        base_rank: u32,
        main: Option<std::sync::Arc<LineDirectory>>,
        inserts: &[u32],
        deletes: &[u32],
    ) -> Self {
        Self { main_epoch, base_rank, main, overlay: Overlay::new(inserts, deletes) }
    }

    /// No main array and no overlay, at epoch `main_epoch` with the given
    /// base rank.
    pub fn empty(main_epoch: u64, base_rank: u32) -> Self {
        Self { main_epoch, base_rank, main: None, overlay: None }
    }

    /// Global rank of every key in `keys` (all routed to this shard) into
    /// `ranks` (cleared first), in lockstep groups of [`GROUP`] keys:
    /// each group walks the main directory, then the overlay's, with the
    /// same kernel (see [`LineDirectory::rank_group`]), so the misses of
    /// a group overlap in both. Allocates only to grow `ranks`.
    pub fn rank_batch(&self, keys: &[u32], ranks: &mut Vec<u32>) {
        ranks.clear();
        ranks.extend_from_slice(keys);
        for (keys, group) in keys.chunks(GROUP).zip(ranks.chunks_mut(GROUP)) {
            self.rank_group(keys, group);
        }
    }

    /// Global rank of one `key` routed to this shard:
    /// [`rank_batch`](Self::rank_batch)'s walk on a group of one, without
    /// the output vector.
    pub fn rank(&self, key: u32) -> u32 {
        let mut one = [key];
        self.rank_group(&[key], &mut one);
        one[0]
    }

    /// Rank one group of at most [`GROUP`] `keys`: `group` holds the
    /// keys on entry and their global ranks on return. The overlay's
    /// ranks go to a stack array, so nothing is allocated.
    #[inline]
    fn rank_group(&self, keys: &[u32], group: &mut [u32]) {
        match &self.main {
            Some(main) => {
                main.rank_group(group, &mut NullMemory);
            }
            None => group.fill(0),
        }
        let Some(overlay) = &self.overlay else {
            group.iter_mut().for_each(|rank| *rank += self.base_rank);
            return;
        };
        let mut at = [0u32; GROUP];
        let at = &mut at[..keys.len()];
        at.copy_from_slice(keys);
        overlay.keys.rank_group(at, &mut NullMemory);
        for (rank, &p) in group.iter_mut().zip(at.iter()) {
            *rank = self.globalize(*rank, overlay.adjust[p as usize]);
        }
    }

    /// Shift a key's rank in the main array by the base rank and the
    /// overlay's adjustment at the key's rank in the overlay. What the
    /// overlay costs a key is its walk, not this sum: about 8–15 ns/key
    /// of a 32-key group on top of the main array's 27–30 (see the
    /// module docs), where its two binary searches cost 25–37.
    #[inline]
    fn globalize(&self, main_rank: u32, adjust: i32) -> u32 {
        let global = i64::from(self.base_rank) + i64::from(main_rank) + i64::from(adjust);
        debug_assert!(global >= 0, "rank underflow");
        global as u32
    }
}

/// Spin briefly, then start yielding the CPU: publisher-side waits are
/// a few instructions long unless the other thread was preempted inside
/// its window, in which case spinning would burn the whole quantum.
#[inline]
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        crate::sync::spin_loop();
    } else {
        crate::sync::yield_now();
    }
}

/// One publication slot: a snapshot pointer (owning one strong count of
/// its `Arc`) plus a count of readers transiently pinning the slot while
/// they secure their own strong count.
#[derive(Debug)]
struct PinSlot {
    pinners: AtomicUsize,
    ptr: AtomicPtr<ShardSnapshot>,
}

impl PinSlot {
    fn empty() -> Self {
        Self { pinners: AtomicUsize::new(0), ptr: AtomicPtr::new(std::ptr::null_mut()) }
    }
}

/// One reader's pin on a slot, released on drop — so a panic while the
/// pin is held (inside [`EpochCell::with`]'s `f`) cannot wedge `publish`.
struct Pin<'a>(&'a AtomicUsize);

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A publication point for [`ShardSnapshot`]s (one per shard) — a
/// hand-rolled lock-free `Arc` swap.
///
/// [`load`](Self::load) is genuinely lock-free: no mutex, no poisoning
/// panic path. A reader costs three atomic read-modify-writes (pin the
/// active slot, bump the `Arc` count, unpin) plus two loads, and a fourth
/// when it drops the `Arc`; [`with`](Self::with) borrows the snapshot
/// under the pin for two (pin, unpin).
/// The two-slot scheme closes the classic race between reading the
/// pointer and bumping its count: [`publish`](Self::publish) installs
/// into the *inactive* (empty) slot and flips, so the slot a reader
/// pinned keeps its snapshot alive — the pointer it loads can never be
/// freed mid-bump, because emptying a slot first waits out its
/// (transient, few-instruction) pinners. Superseded snapshots are freed
/// on the last unpin: `publish` drops the cell's own reference before it
/// returns — a snapshot carries its shard's main array, so holding it
/// until the next publish would pin a second copy of the shard for as
/// long as no update arrives — and whichever of cell/readers drops the
/// final `Arc` frees the epoch.
///
/// `publish` is single-writer by design (the serve writer thread); a
/// publisher-side spin guard keeps concurrent publishes merely serialized
/// rather than undefined, without ever touching the reader path.
#[derive(Debug)]
pub struct EpochCell {
    slots: [PinSlot; 2],
    /// Index of the slot readers should pin.
    active: AtomicUsize,
    /// Publisher-side guard (publishers are cold; readers never look).
    publishing: AtomicBool,
}

impl EpochCell {
    /// A cell initially publishing `snapshot`.
    pub fn new(snapshot: ShardSnapshot) -> Self {
        let cell = Self {
            slots: [PinSlot::empty(), PinSlot::empty()],
            active: AtomicUsize::new(0),
            publishing: AtomicBool::new(false),
        };
        let ptr = Arc::into_raw(Arc::new(snapshot)).cast_mut();
        cell.slots[0].ptr.store(ptr, Ordering::Release);
        cell
    }

    /// Pin the active slot and read its pointer. The slot holds one
    /// strong count of the pointed-to snapshot, and `publish` releases it
    /// only after the slot's pinners drain — so the pointer stays valid
    /// for as long as the returned [`Pin`] lives.
    fn pin(&self) -> (Pin<'_>, *const ShardSnapshot) {
        loop {
            let i = self.active.load(Ordering::SeqCst);
            let slot = &self.slots[i];
            // Pin the slot. SeqCst pairs with publish's flip/drain pair:
            // either publish's drain observes this pinner and waits, or
            // the recheck below observes the flip and retries — never
            // neither (which is exactly the store-buffering interleaving
            // weaker orderings would allow).
            slot.pinners.fetch_add(1, Ordering::SeqCst);
            let pin = Pin(&slot.pinners);
            if self.active.load(Ordering::SeqCst) == i {
                // The slot is pinned and still active: its pointer cannot
                // be swapped out and released until the pin drops.
                return (pin, slot.ptr.load(Ordering::Acquire));
            }
            // Superseded between the two loads; `pin` unpins, retry.
        }
    }

    /// Pin and return the current snapshot. Lock-free; three atomic RMWs
    /// (pin, `Arc` bump, unpin) and two loads on the uncontended path.
    pub fn load(&self) -> Arc<ShardSnapshot> {
        let (_pin, ptr) = self.pin();
        // SAFETY: `ptr` came from `Arc::into_raw` and is valid while
        // `_pin` lives (see `pin`); bumping the count here hands this
        // reader its own reference.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Run `f` on the current snapshot, pinning its slot for the whole
    /// call instead of taking a reference: two atomic RMWs (pin, unpin)
    /// and two loads, against [`load`](Self::load)'s three plus the
    /// `Arc` drop. The price is that a [`publish`](Self::publish) that
    /// supersedes this epoch waits out `f`, not just a pin window — so
    /// `f` must be short and must not wait on anything, the writer
    /// included: a claimed rank — one key, a pipelined caller's open
    /// group of up to [`GROUP`] keys, or a slice's share of one shard —
    /// never a batch's lifetime. The pin is released however `f` exits,
    /// unwinding included.
    pub fn with<R>(&self, f: impl FnOnce(&ShardSnapshot) -> R) -> R {
        let (_pin, ptr) = self.pin();
        // SAFETY: `ptr` is valid while `_pin` lives (see `pin`), and
        // `_pin` drops only after `f` has returned, so the snapshot
        // outlives the borrow.
        f(unsafe { &*ptr })
    }

    /// Publish `snapshot`, superseding the current epoch, and release the
    /// cell's reference to the superseded one. Readers holding the old
    /// `Arc` finish their batch on the old epoch. Never blocks on readers
    /// beyond the pin window of the slot being retired: a few
    /// instructions for a `load`, one claimed rank for a `with`.
    pub fn publish(&self, snapshot: ShardSnapshot) {
        let mut spins = 0u32;
        while self.publishing.swap(true, Ordering::Acquire) {
            backoff(&mut spins);
        }
        let retired = self.active.load(Ordering::SeqCst);
        let fresh = Arc::into_raw(Arc::new(snapshot)).cast_mut();
        // The inactive slot is empty (the previous publish emptied it, or
        // the cell is new). A straggler may still pin it — it read
        // `active` before an earlier flip — but it dereferences the slot
        // only if its recheck sees the flip below, and the flip is what
        // makes this store visible to it.
        self.slots[1 - retired].ptr.store(fresh, Ordering::Release);
        self.active.store(1 - retired, Ordering::SeqCst);
        // Wait out readers still pinning the retired slot. Pins last a
        // handful of instructions (increment → recheck → count bump), or
        // one claimed rank under `with`, so this resolves in a few spins
        // or one short backoff — except when a pinner is
        // preempted mid-window, which is what the backoff's yield is for
        // (otherwise the writer would burn a core for the reader's whole
        // scheduling quantum). A reader that pins after this drain
        // rechecks `active` after the flip and retries on the new slot.
        let mut spins = 0u32;
        while self.slots[retired].pinners.load(Ordering::SeqCst) != 0 {
            backoff(&mut spins);
        }
        let stale = self.slots[retired].ptr.swap(std::ptr::null_mut(), Ordering::AcqRel);
        self.publishing.store(false, Ordering::Release);
        // SAFETY: `stale` owned the retired slot's strong count (an
        // active slot is never empty); the slot no longer references it
        // and its pinners drained above.
        drop(unsafe { Arc::from_raw(stale) });
    }
}

impl Drop for EpochCell {
    fn drop(&mut self) {
        for slot in &self.slots {
            // ordering: relaxed-ok: `&mut self` — every reader has unpinned
            // and handed back its reference, and whatever synchronized the
            // cell to this thread ordered those accesses; no concurrent
            // access can exist, so the swap needs no fence.
            let ptr = slot.ptr.swap(std::ptr::null_mut(), Ordering::Relaxed);
            if !ptr.is_null() {
                // SAFETY: reclaiming the slot's own strong count; `&mut
                // self` means no readers remain.
                drop(unsafe { Arc::from_raw(ptr) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn rank_adjust_counts_both_sides() {
        // No main array: a rank is the base plus the overlay's adjustment
        // alone, inserts ≤ key minus deletes ≤ key.
        let snap = ShardSnapshot::new(0, 100, None, &[5, 15, 25], &[10, 20]);
        assert_eq!(snap.overlay.as_ref().map(Overlay::keys), Some(&[5, 10, 15, 20, 25][..]));
        assert_eq!(snap.rank(0), 100);
        assert_eq!(snap.rank(5), 101);
        assert_eq!(snap.rank(12), 100); // +5, −10
        assert_eq!(snap.rank(30), 101); // +3, −2
        assert!(ShardSnapshot::new(0, 0, None, &[], &[]).overlay.is_none());
    }

    fn directory(keys: Vec<u32>) -> std::sync::Arc<LineDirectory> {
        let n = keys.len();
        std::sync::Arc::new(LineDirectory::new(SharedKeys::owned(keys), 0..n, 0, 0.0))
    }

    #[test]
    fn rank_batch_composes_base_main_and_overlay() {
        // Main {10, 20, …, 1000} with 20 deleted and 15 inserted, 7 live
        // keys in lower shards.
        let main = directory((1..=100).map(|i| i * 10).collect());
        let snap = ShardSnapshot::new(3, 7, Some(main), &[15], &[20]);
        let mut ranks = vec![99; 2];
        let keys = [0, 10, 15, 20, 1000, u32::MAX];
        snap.rank_batch(&keys, &mut ranks);
        assert_eq!(ranks, vec![7, 8, 9, 9, 107, 107]);
        assert_eq!(keys.map(|k| snap.rank(k)), ranks[..], "rank() is a batch of one");
        // An emptied main array: ranks are base + overlay alone.
        let snap = ShardSnapshot::new(4, 7, None, &[4, 6], &[]);
        snap.rank_batch(&[3, 5, 7], &mut ranks);
        assert_eq!(ranks, vec![7, 8, 9]);
        assert_eq!([3, 5, 7].map(|k| snap.rank(k)), ranks[..]);
    }

    #[test]
    fn publish_supersedes_but_pins_survive() {
        let cell = EpochCell::new(ShardSnapshot::empty(0, 0));
        let pinned = cell.load();
        cell.publish(ShardSnapshot::new(1, 7, None, &[1], &[]));
        // The pinned epoch is unchanged…
        assert_eq!(pinned.main_epoch, 0);
        // …while new readers see the new epoch.
        let fresh = cell.load();
        assert_eq!(fresh.main_epoch, 1);
        assert_eq!(fresh.base_rank, 7);
    }

    #[test]
    fn superseded_snapshots_are_freed_on_last_unpin() {
        let main = directory((0..100).collect());
        let main_probe = std::sync::Arc::downgrade(&main);
        let cell = EpochCell::new(ShardSnapshot { main: Some(main), ..ShardSnapshot::empty(0, 0) });
        let pinned = cell.load();
        let probe = Arc::downgrade(&pinned);
        // One publish retires epoch 0 *and* drops the cell's reference to
        // it: from here on only the reader's pin keeps it alive.
        cell.publish(ShardSnapshot::empty(1, 0));
        assert!(probe.upgrade().is_some(), "the reader's pin must keep epoch 0 alive");
        drop(pinned);
        assert!(probe.upgrade().is_none(), "last unpin must free the superseded epoch");
        assert!(
            main_probe.upgrade().is_none(),
            "the superseded main array must not wait for another publish"
        );
    }

    #[test]
    fn with_borrows_the_current_epoch_and_unpins_on_unwind() {
        let cell = EpochCell::new(ShardSnapshot::empty(0, 3));
        assert_eq!(cell.with(|s| (s.main_epoch, s.base_rank)), (0, 3));
        cell.publish(ShardSnapshot::empty(1, 4));
        assert_eq!(cell.with(|s| (s.main_epoch, s.base_rank)), (1, 4));
        // A panicking borrower must not leave its slot pinned: the next
        // two publishes retire both slots, and would spin forever on it.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with(|_| panic!("borrower fails"));
        }));
        assert!(unwound.is_err());
        cell.publish(ShardSnapshot::empty(2, 0));
        cell.publish(ShardSnapshot::empty(3, 0));
        assert_eq!(cell.with(|s| s.main_epoch), 3);
    }

    #[test]
    fn dropping_the_cell_frees_both_slots() {
        let cell = EpochCell::new(ShardSnapshot::empty(0, 0));
        cell.publish(ShardSnapshot::empty(1, 0));
        let a = cell.load();
        let probe = Arc::downgrade(&a);
        drop(cell);
        assert!(probe.upgrade().is_some(), "reader still pins epoch 1");
        drop(a);
        assert!(probe.upgrade().is_none());
    }

    #[test]
    fn concurrent_loads_see_monotone_epochs() {
        let cell = Arc::new(EpochCell::new(ShardSnapshot::empty(0, 0)));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                thread::spawn(move || {
                    let mut last = 0u64;
                    for _ in 0..10_000 {
                        let e = cell.load().main_epoch;
                        assert!(e >= last, "epoch went backwards: {e} < {last}");
                        last = e;
                    }
                })
            })
            .collect();
        for e in 1..=100u64 {
            cell.publish(ShardSnapshot::empty(e, 0));
        }
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn snapshots_are_never_torn_under_publication_storm() {
        // Each epoch's payload is self-describing (base_rank and insert
        // contents derived from the epoch); a reader observing a mixed
        // snapshot would prove a torn or use-after-free read.
        let cell = Arc::new(EpochCell::new(ShardSnapshot::empty(0, 0)));
        let stop = Arc::new(AtomicBool::new(false));
        let loads = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (cell, stop, loads) = (cell.clone(), stop.clone(), loads.clone());
                thread::spawn(move || {
                    let check = |s: &ShardSnapshot| {
                        let e = s.main_epoch;
                        assert_eq!(u64::from(s.base_rank), e % 1000, "torn epoch {e}");
                        let inserts = s.overlay.as_ref().map_or(&[][..], Overlay::keys);
                        assert_eq!(inserts.len(), (e % 7) as usize, "torn epoch {e}");
                        for (i, &k) in inserts.iter().enumerate() {
                            assert_eq!(u64::from(k), e + i as u64, "torn epoch {e}");
                        }
                    };
                    while !stop.load(Ordering::Relaxed) {
                        // Both ways in: a pinned reference, and a borrow
                        // under the pin.
                        check(&cell.load());
                        cell.with(check);
                        loads.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Keep publishing until the readers have raced a fair share of
        // it, however late the scheduler starts them.
        let mut e = 0u64;
        while e < 20_000 || loads.load(Ordering::Relaxed) < 1_000 {
            e += 1;
            let inserts: Vec<u32> = (0..e % 7).map(|i| (e + i) as u32).collect();
            cell.publish(ShardSnapshot::new(e, (e % 1000) as u32, None, &inserts, &[]));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
