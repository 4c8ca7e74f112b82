//! The `std::sync` shim: what production code compiles against.
//!
//! Compiled **without** `--cfg dini_check` (every normal build), this
//! module is nothing but re-exports of the real `std` types — zero
//! cost, zero behavior change. Compiled **with** `--cfg dini_check`,
//! the same names resolve to model types that route every operation
//! through the checker's scheduler (`sched`), so the primitives in
//! `dini-serve` / `dini-obs` compile unchanged against either world.
//!
//! Model-type caveats (all checked or documented, none silent):
//!
//! * Model state is keyed by the address of the shimmed object. Keep a
//!   primitive alive (and at a stable address — behind an `Arc`, or
//!   borrowed) for the whole model closure; the repo's primitives
//!   already live behind `Arc`s.
//! * `compare_exchange_weak` is modeled without spurious failure (same
//!   choice loom makes by default); the repo's CAS loops retry on any
//!   failure, so spurious failures add no new behaviors.
//! * The model `Arc` detects use-after-free and double-free at strong
//!   count operations (`clone` / `drop` / `increment_strong_count` /
//!   `get_mut`),
//!   which is where the `EpochCell` reclamation protocol can go wrong;
//!   it does not model `Weak` (the repo uses `downgrade` only in
//!   `#[cfg(test)]` code, which is never compiled under the checker).

// ---------------------------------------------------------------------
// Normal builds: the real thing.
// ---------------------------------------------------------------------

#[cfg(not(dini_check))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(dini_check))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Voluntarily yield the processor (spin-loop backoff slow path).
/// Under the checker this is a scheduler fairness point.
#[cfg(not(dini_check))]
#[inline]
pub fn yield_now() {
    std::thread::yield_now();
}

/// A point where the checker may switch threads, standing for an
/// operation it does not model (a `std::sync::mpsc` send, say); in a
/// normal build, nothing at all.
#[cfg(not(dini_check))]
#[inline(always)]
pub fn switch_point() {}

/// Spin-loop hint (busy-wait fast path). Under the checker this is the
/// same fairness point as [`yield_now`] — a modeled spinner must let
/// every other thread run before it retries, or exploration would
/// never terminate.
#[cfg(not(dini_check))]
#[inline]
pub fn spin_loop() {
    std::hint::spin_loop();
}

#[cfg(dini_check)]
pub use imp::{
    fence, spin_loop, switch_point, yield_now, Arc, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize,
    Condvar, Mutex, MutexGuard, Ordering,
};

// ---------------------------------------------------------------------
// Checker builds: model types over `sched`.
// ---------------------------------------------------------------------

#[cfg(dini_check)]
mod imp {
    use crate::sched;
    use std::marker::PhantomData;
    use std::mem::{offset_of, ManuallyDrop};
    use std::ops::{Deref, DerefMut};
    use std::ptr::NonNull;
    use std::sync::atomic::{
        AtomicBool as RealBool, AtomicU64 as RealU64, AtomicUsize as RealUsize,
    };
    use std::sync::{Condvar as StdCondvar, LockResult, Mutex as StdMutex};

    pub use std::sync::atomic::Ordering;

    fn addr_of<T: ?Sized>(r: &T) -> usize {
        r as *const T as *const () as usize
    }

    // -- atomics ------------------------------------------------------

    macro_rules! model_int_atomic {
        ($name:ident, $real:ty, $int:ty, $doc:literal) => {
            #[doc = $doc]
            #[doc = " Model type: every operation is a scheduler step; `Relaxed`"]
            #[doc = " loads may observe any coherent stale value."]
            #[derive(Debug, Default)]
            pub struct $name {
                real: $real,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(v: $int) -> Self {
                    Self { real: <$real>::new(v) }
                }

                fn key(&self) -> usize {
                    addr_of(&self.real)
                }

                fn seed(&self) -> u64 {
                    self.real.load(Ordering::Relaxed) as u64
                }

                /// Atomic load.
                pub fn load(&self, ord: Ordering) -> $int {
                    match sched::atomic_load(self.key(), self.seed(), ord) {
                        Some(v) => v as $int,
                        None => self.real.load(ord),
                    }
                }

                /// Atomic store.
                pub fn store(&self, v: $int, ord: Ordering) {
                    match sched::atomic_store(self.key(), self.seed(), v as u64, ord) {
                        Some(()) => self.real.store(v, Ordering::Relaxed),
                        None => self.real.store(v, ord),
                    }
                }

                /// Atomic swap; returns the previous value.
                pub fn swap(&self, v: $int, ord: Ordering) -> $int {
                    match sched::atomic_rmw(self.key(), self.seed(), ord, move |_| v as u64) {
                        Some(old) => {
                            self.real.store(v, Ordering::Relaxed);
                            old as $int
                        }
                        None => self.real.swap(v, ord),
                    }
                }

                /// Atomic compare-and-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    succ: Ordering,
                    fail: Ordering,
                ) -> Result<$int, $int> {
                    match sched::atomic_cas(
                        self.key(),
                        self.seed(),
                        current as u64,
                        new as u64,
                        succ,
                        fail,
                    ) {
                        Some(Ok(old)) => {
                            self.real.store(new, Ordering::Relaxed);
                            Ok(old as $int)
                        }
                        Some(Err(old)) => Err(old as $int),
                        None => self.real.compare_exchange(current, new, succ, fail),
                    }
                }

                /// Atomic compare-and-exchange, weak form (modeled
                /// without spurious failure — see module docs).
                pub fn compare_exchange_weak(
                    &self,
                    current: $int,
                    new: $int,
                    succ: Ordering,
                    fail: Ordering,
                ) -> Result<$int, $int> {
                    self.compare_exchange(current, new, succ, fail)
                }

                fn rmw(&self, ord: Ordering, f: impl Fn(u64) -> u64 + Copy) -> Option<$int> {
                    sched::atomic_rmw(self.key(), self.seed(), ord, f).map(|old| {
                        self.real.store(f(old) as $int, Ordering::Relaxed);
                        old as $int
                    })
                }

                /// Atomic add; returns the previous value.
                pub fn fetch_add(&self, v: $int, ord: Ordering) -> $int {
                    self.rmw(ord, move |o| o.wrapping_add(v as u64))
                        .unwrap_or_else(|| self.real.fetch_add(v, ord))
                }

                /// Atomic subtract; returns the previous value.
                pub fn fetch_sub(&self, v: $int, ord: Ordering) -> $int {
                    self.rmw(ord, move |o| o.wrapping_sub(v as u64))
                        .unwrap_or_else(|| self.real.fetch_sub(v, ord))
                }

                /// Atomic minimum; returns the previous value.
                pub fn fetch_min(&self, v: $int, ord: Ordering) -> $int {
                    self.rmw(ord, move |o| o.min(v as u64))
                        .unwrap_or_else(|| self.real.fetch_min(v, ord))
                }

                /// Atomic maximum; returns the previous value.
                pub fn fetch_max(&self, v: $int, ord: Ordering) -> $int {
                    self.rmw(ord, move |o| o.max(v as u64))
                        .unwrap_or_else(|| self.real.fetch_max(v, ord))
                }

                /// Atomic bitwise OR; returns the previous value.
                pub fn fetch_or(&self, v: $int, ord: Ordering) -> $int {
                    self.rmw(ord, move |o| o | (v as u64))
                        .unwrap_or_else(|| self.real.fetch_or(v, ord))
                }
            }
        };
    }

    model_int_atomic!(AtomicU64, RealU64, u64, "A 64-bit unsigned model atomic.");
    model_int_atomic!(AtomicUsize, RealUsize, usize, "A pointer-sized unsigned model atomic.");

    /// A boolean model atomic.
    /// Model type: every operation is a scheduler step; `Relaxed`
    /// loads may observe any coherent stale value.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        real: RealBool,
    }

    impl AtomicBool {
        /// Creates a new atomic with the given initial value.
        pub const fn new(v: bool) -> Self {
            Self { real: RealBool::new(v) }
        }

        fn key(&self) -> usize {
            addr_of(&self.real)
        }

        fn seed(&self) -> u64 {
            self.real.load(Ordering::Relaxed) as u64
        }

        /// Atomic load.
        pub fn load(&self, ord: Ordering) -> bool {
            match sched::atomic_load(self.key(), self.seed(), ord) {
                Some(v) => v != 0,
                None => self.real.load(ord),
            }
        }

        /// Atomic store.
        pub fn store(&self, v: bool, ord: Ordering) {
            match sched::atomic_store(self.key(), self.seed(), v as u64, ord) {
                Some(()) => self.real.store(v, Ordering::Relaxed),
                None => self.real.store(v, ord),
            }
        }

        /// Atomic swap; returns the previous value.
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            match sched::atomic_rmw(self.key(), self.seed(), ord, move |_| v as u64) {
                Some(old) => {
                    self.real.store(v, Ordering::Relaxed);
                    old != 0
                }
                None => self.real.swap(v, ord),
            }
        }

        /// Atomic compare-and-exchange.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            succ: Ordering,
            fail: Ordering,
        ) -> Result<bool, bool> {
            match sched::atomic_cas(self.key(), self.seed(), current as u64, new as u64, succ, fail)
            {
                Some(Ok(old)) => {
                    self.real.store(new, Ordering::Relaxed);
                    Ok(old != 0)
                }
                Some(Err(old)) => Err(old != 0),
                None => self.real.compare_exchange(current, new, succ, fail),
            }
        }
    }

    /// A raw-pointer model atomic.
    /// Model type: every operation is a scheduler step; `Relaxed`
    /// loads may observe any coherent stale value.
    #[derive(Debug)]
    pub struct AtomicPtr<T> {
        real: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic with the given initial pointer.
        pub const fn new(p: *mut T) -> Self {
            Self { real: std::sync::atomic::AtomicPtr::new(p) }
        }

        fn key(&self) -> usize {
            addr_of(&self.real)
        }

        fn seed(&self) -> u64 {
            self.real.load(Ordering::Relaxed) as u64
        }

        /// Atomic load.
        pub fn load(&self, ord: Ordering) -> *mut T {
            match sched::atomic_load(self.key(), self.seed(), ord) {
                Some(v) => v as *mut T,
                None => self.real.load(ord),
            }
        }

        /// Atomic store.
        pub fn store(&self, p: *mut T, ord: Ordering) {
            match sched::atomic_store(self.key(), self.seed(), p as u64, ord) {
                Some(()) => self.real.store(p, Ordering::Relaxed),
                None => self.real.store(p, ord),
            }
        }

        /// Atomic swap; returns the previous pointer.
        pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
            match sched::atomic_rmw(self.key(), self.seed(), ord, move |_| p as u64) {
                Some(old) => {
                    self.real.store(p, Ordering::Relaxed);
                    old as *mut T
                }
                None => self.real.swap(p, ord),
            }
        }

        /// Atomic compare-and-exchange.
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            succ: Ordering,
            fail: Ordering,
        ) -> Result<*mut T, *mut T> {
            match sched::atomic_cas(self.key(), self.seed(), current as u64, new as u64, succ, fail)
            {
                Some(Ok(old)) => {
                    self.real.store(new, Ordering::Relaxed);
                    Ok(old as *mut T)
                }
                Some(Err(old)) => Err(old as *mut T),
                None => self.real.compare_exchange(current, new, succ, fail),
            }
        }
    }

    /// Model memory fence.
    pub fn fence(ord: Ordering) {
        if sched::atomic_fence(ord).is_none() {
            std::sync::atomic::fence(ord);
        }
    }

    /// Voluntarily yield (scheduler fairness point — see the
    /// non-checker doc).
    pub fn yield_now() {
        if sched::yield_now().is_none() {
            std::thread::yield_now();
        }
    }

    /// A scheduling point standing for an unmodeled operation (see the
    /// non-checker doc).
    pub fn switch_point() {
        let _ = sched::switch_point();
    }

    /// Spin-loop hint: under the checker, identical to [`yield_now`].
    pub fn spin_loop() {
        if sched::yield_now().is_none() {
            std::hint::spin_loop();
        }
    }

    // -- Arc ----------------------------------------------------------

    #[repr(C)]
    struct ArcInner<T> {
        strong: RealUsize,
        /// Set (under the scheduler lock) when the strong count hits
        /// zero in-model; later count operations on the same
        /// allocation are then reported as use-after-free instead of
        /// being undefined behavior — the memory itself is kept until
        /// execution teardown.
        freed: RealBool,
        data: ManuallyDrop<T>,
    }

    /// SAFETY: called only from execution teardown (or a passthrough
    /// final drop); `addr` is a live `Box<ArcInner<T>>` allocation
    /// whose payload has already been dropped, so this only releases
    /// the memory.
    unsafe fn dealloc_inner<T>(addr: usize) {
        // SAFETY: per the function contract, `addr` came from
        // `Box::into_raw` and is not referenced by anything else.
        drop(unsafe { Box::from_raw(addr as *mut ArcInner<T>) });
    }

    /// A model `Arc`: thread-safe reference counting with
    /// use-after-free, double-free, and leak detection. Count
    /// operations are scheduler steps; the count itself lives in a
    /// real atomic manipulated inside those steps.
    pub struct Arc<T> {
        ptr: NonNull<ArcInner<T>>,
        _marker: PhantomData<ArcInner<T>>,
    }

    // SAFETY: same bounds as std's Arc — the payload is shared across
    // threads and the handle may be dropped on any thread.
    unsafe impl<T: Send + Sync> Send for Arc<T> {}
    // SAFETY: as above.
    unsafe impl<T: Send + Sync> Sync for Arc<T> {}

    impl<T> Arc<T> {
        /// Allocates a new reference-counted payload.
        pub fn new(data: T) -> Self {
            let inner = Box::new(ArcInner {
                strong: RealUsize::new(1),
                freed: RealBool::new(false),
                data: ManuallyDrop::new(data),
            });
            let ptr = NonNull::from(Box::leak(inner));
            sched::arc_created(ptr.as_ptr() as usize, dealloc_inner::<T>);
            Self { ptr, _marker: PhantomData }
        }

        fn inner(&self) -> &ArcInner<T> {
            // SAFETY: the handle keeps the allocation alive; freed
            // allocations are only reachable through protocol bugs,
            // which the count-operation checks report before the
            // memory is actually released (teardown).
            unsafe { self.ptr.as_ref() }
        }

        /// Returns a raw pointer to the payload without affecting the
        /// count (mirrors `std::sync::Arc::as_ptr`).
        pub fn as_ptr(this: &Self) -> *const T {
            &*this.inner().data as *const T
        }

        /// Consumes the handle, returning a raw payload pointer; the
        /// strong reference it held is leaked until `from_raw`.
        pub fn into_raw(this: Self) -> *const T {
            let p = Self::as_ptr(&this);
            std::mem::forget(this);
            p
        }

        fn inner_from_payload(ptr: *const T) -> NonNull<ArcInner<T>> {
            let base = (ptr as usize) - offset_of!(ArcInner<T>, data);
            NonNull::new(base as *mut ArcInner<T>).expect("null Arc payload pointer")
        }

        /// Reconstitutes a handle from `into_raw`, adopting the strong
        /// reference that call leaked.
        ///
        /// # Safety
        /// `ptr` must come from `into_raw` of this same `Arc` type,
        /// and the leaked reference must not be adopted twice.
        pub unsafe fn from_raw(ptr: *const T) -> Self {
            Self { ptr: Self::inner_from_payload(ptr), _marker: PhantomData }
        }

        /// Increments the strong count through a raw payload pointer.
        /// Under the checker this is the use-after-free tripwire: doing
        /// it on an allocation whose count already reached zero fails
        /// the model (in std it would be undefined behavior).
        ///
        /// # Safety
        /// `ptr` must come from `into_raw`/`as_ptr` of this same `Arc`
        /// type, and the allocation must not have been freed.
        pub unsafe fn increment_strong_count(ptr: *const T) {
            let inner = Self::inner_from_payload(ptr);
            // SAFETY: allocation memory is valid until teardown even
            // when logically freed (that is the point of the check).
            let r = unsafe { inner.as_ref() };
            let in_model = sched::arc_action(inner.as_ptr() as usize, dealloc_inner::<T>, || {
                if r.freed.load(Ordering::Relaxed) {
                    sched::ArcOutcome::Uaf("increment_strong_count")
                } else {
                    r.strong.fetch_add(1, Ordering::Relaxed);
                    sched::ArcOutcome::Ok
                }
            });
            if in_model.is_none() {
                r.strong.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Whether two handles point at the same allocation.
        pub fn ptr_eq(a: &Self, b: &Self) -> bool {
            a.ptr == b.ptr
        }

        /// A mutable borrow of the payload if `this` is the only handle
        /// (mirrors `std::sync::Arc::get_mut`). The count read is a
        /// scheduler step, so a racing clone or drop is explored on
        /// both sides of it.
        pub fn get_mut(this: &mut Self) -> Option<&mut T> {
            let r = this.inner();
            let mut unique = false;
            let in_model =
                sched::arc_action(this.ptr.as_ptr() as usize, dealloc_inner::<T>, || {
                    if r.freed.load(Ordering::Relaxed) {
                        sched::ArcOutcome::Uaf("get_mut")
                    } else {
                        unique = r.strong.load(Ordering::Acquire) == 1;
                        sched::ArcOutcome::Ok
                    }
                });
            if in_model.is_none() {
                unique = r.strong.load(Ordering::Acquire) == 1;
            }
            // SAFETY: a strong count of 1 read through `&mut this` means
            // no other handle exists and none can be made while the
            // borrow lives, so the payload is exclusively ours.
            unique.then(|| unsafe { &mut *(*this.ptr.as_ptr()).data })
        }

        /// Current strong count (inherently racy, as in std).
        pub fn strong_count(this: &Self) -> usize {
            this.inner().strong.load(Ordering::SeqCst)
        }
    }

    impl<T> Clone for Arc<T> {
        fn clone(&self) -> Self {
            let r = self.inner();
            let in_model =
                sched::arc_action(self.ptr.as_ptr() as usize, dealloc_inner::<T>, || {
                    if r.freed.load(Ordering::Relaxed) {
                        sched::ArcOutcome::Uaf("clone")
                    } else {
                        r.strong.fetch_add(1, Ordering::Relaxed);
                        sched::ArcOutcome::Ok
                    }
                });
            if in_model.is_none() {
                r.strong.fetch_add(1, Ordering::Relaxed);
            }
            Self { ptr: self.ptr, _marker: PhantomData }
        }
    }

    impl<T> Deref for Arc<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.inner().data
        }
    }

    impl<T> Drop for Arc<T> {
        fn drop(&mut self) {
            if sched::is_unwinding() {
                // Tearing down a failed execution: leak rather than
                // race the threads still inside the model.
                return;
            }
            let inner = self.ptr.as_ptr();
            let mut freed_now = false;
            // SAFETY: the handle being dropped keeps the allocation
            // alive; the count/flag manipulation happens inside a
            // scheduler step, serialized against every model thread.
            let in_model = sched::arc_action(inner as usize, dealloc_inner::<T>, || unsafe {
                if (*inner).freed.load(Ordering::Relaxed) {
                    sched::ArcOutcome::Uaf("drop")
                } else if (*inner).strong.fetch_sub(1, Ordering::Release) == 1 {
                    (*inner).freed.store(true, Ordering::Relaxed);
                    freed_now = true;
                    sched::ArcOutcome::Freed
                } else {
                    sched::ArcOutcome::Ok
                }
            });
            match in_model {
                Some(()) => {
                    if freed_now {
                        // The payload is dropped *outside* the step so
                        // that destructors using shim types take
                        // ordinary scheduled steps of this thread; the
                        // memory itself is reclaimed at teardown.
                        std::sync::atomic::fence(Ordering::Acquire);
                        // SAFETY: count reached zero inside the step;
                        // no other handle exists.
                        unsafe { ManuallyDrop::drop(&mut (*inner).data) };
                    }
                }
                None => {
                    // Passthrough: the std algorithm — sub, acquire
                    // fence, drop payload, free memory.
                    // SAFETY: as in std's Arc::drop.
                    unsafe {
                        if (*inner).strong.fetch_sub(1, Ordering::Release) == 1 {
                            std::sync::atomic::fence(Ordering::Acquire);
                            ManuallyDrop::drop(&mut (*inner).data);
                            drop(Box::from_raw(inner));
                        }
                    }
                }
            }
        }
    }

    impl<T: Default> Default for Arc<T> {
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for Arc<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            std::fmt::Debug::fmt(&**self, f)
        }
    }

    // -- Mutex / Condvar ----------------------------------------------

    /// A model mutex: blocking is modeled by the scheduler (a thread
    /// waiting on a held mutex is simply not runnable), so deadlocks
    /// are detected rather than hung. The payload lives in a real
    /// `std::sync::Mutex` acquired only after the model grant.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        real: StdMutex<T>,
    }

    /// RAII guard for [`Mutex`]; releases the model lock on drop.
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        /// `None` only transiently inside `Condvar::wait`.
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Creates a new unlocked mutex.
        pub const fn new(t: T) -> Self {
            Self { real: StdMutex::new(t) }
        }

        fn key(&self) -> usize {
            addr_of(self)
        }

        fn real_lock(&self) -> std::sync::MutexGuard<'_, T> {
            // The model grant guarantees exclusivity; the real lock is
            // only ever contended briefly by unwinding threads.
            self.real.lock().unwrap_or_else(|p| p.into_inner())
        }

        /// Acquires the mutex, blocking (in-model: descheduling) until
        /// it is free. Never poisons; the `Result` mirrors std's API.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            sched::mutex_lock(self.key());
            Ok(MutexGuard { lock: self, inner: Some(self.real_lock()) })
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard present outside Condvar::wait")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard present outside Condvar::wait")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None; // release the real lock first
            sched::mutex_unlock(self.lock.key());
        }
    }

    /// A model condition variable. Lost wakeups surface as model
    /// deadlocks with the schedule that produced them.
    #[derive(Debug, Default)]
    pub struct Condvar {
        real: StdCondvar,
    }

    impl Condvar {
        /// Creates a new condition variable.
        pub const fn new() -> Self {
            Self { real: StdCondvar::new() }
        }

        fn key(&self) -> usize {
            addr_of(self)
        }

        /// Atomically releases the guard's mutex and parks until
        /// notified, then re-acquires the mutex. May wake spuriously
        /// in passthrough mode, exactly like std — callers loop.
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let real_guard = guard.inner.take().expect("guard present entering wait");
            let lock = guard.lock;
            std::mem::forget(guard); // both paths handle the model unlock themselves
            if sched::in_model() {
                // The *real* lock must be released before parking, or
                // the next model thread granted the model mutex would
                // block on it while holding the scheduler baton.
                drop(real_guard);
                // Releases the model mutex and parks in one step;
                // returns with the model mutex re-held.
                sched::condvar_wait(self.key(), lock.key());
                Ok(MutexGuard { lock, inner: Some(lock.real_lock()) })
            } else {
                let inner = self.real.wait(real_guard).unwrap_or_else(|p| p.into_inner());
                Ok(MutexGuard { lock, inner: Some(inner) })
            }
        }

        /// Wakes all parked waiters.
        pub fn notify_all(&self) {
            if sched::condvar_notify_all(self.key()).is_none() {
                self.real.notify_all();
            }
        }

        /// Wakes one parked waiter.
        pub fn notify_one(&self) {
            if sched::condvar_notify_one(self.key()).is_none() {
                self.real.notify_one();
            }
        }
    }
}
