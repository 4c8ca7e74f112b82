//! The execution engine behind `--cfg dini_check`: a depth-first
//! exhaustive explorer of thread interleavings with an ordering-aware
//! value-visibility model.
//!
//! ## How an execution runs
//!
//! Model threads are real OS threads, but only one ever runs at a time:
//! every shim operation (atomic access, fence, mutex/condvar op, `Arc`
//! count change, yield, spawn/join) funnels through [`atomic_step`],
//! which waits until the scheduler hands the thread the baton *and every
//! other thread stands at a step of its own* (`ThreadState::parked`),
//! performs the operation against the model state, then picks the next
//! thread to run. Code *between* shim operations therefore executes
//! atomically — the standard reduction for data-race-free programs —
//! and that covers code the shim knows nothing about: a model may pass
//! values between its threads through a real channel (the
//! `AdmissionQueue` models do) and remain a pure function of the
//! schedule, because the sender has come to rest at its next step
//! before the receiver's turn begins.
//!
//! ## How the space is explored
//!
//! Every point where more than one thing could happen — which runnable
//! thread takes the next step, which coherent store a load observes —
//! is a [`Decision`] recorded on a trail. Executions are deterministic
//! given a trail prefix, so the driver re-runs the model, replaying the
//! prefix and taking the first unexplored option at the frontier,
//! until every branch of the tree has been visited (DFS with
//! backtracking). The trail of a failing execution *is* the
//! counterexample schedule, printed in full.
//!
//! ## The memory model
//!
//! Per atomic location we keep the complete modification order. Each
//! store carries its writer, the writer's timestamp, a *message* vector
//! clock (what an acquire-load of it learns), and whether it was
//! `SeqCst`. A load may observe any suffix of the modification order
//! past a floor derived from (a) read-read/read-write coherence — never
//! older than the thread last read or wrote, (b) happens-before — never
//! older than a store the thread's vector clock already covers, and
//! (c) for `SeqCst` loads, the latest `SeqCst` store to the location
//! (the execution order of `SeqCst` operations approximates C11's total
//! order S). RMWs read the latest store unconditionally (C11 requires
//! it) and continue release sequences by joining the displaced store's
//! message into their own. Release fences stamp subsequent relaxed
//! stores; acquire fences collect the messages of prior relaxed loads.
//!
//! Blocking is modelled, not simulated: a thread waiting on a model
//! mutex, condvar, or join is simply not runnable, and a state where
//! nothing is runnable but something is blocked fails the model as a
//! deadlock — which is precisely how a lost wakeup in the
//! `ReplyCell` park/notify protocol, or a reply that is never filled,
//! surfaces as a hard counterexample instead of a hung test.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, OnceLock};

/// Most threads a single model may register (main + spawned).
pub const MAX_THREADS: usize = 6;

/// No thread holds the baton (execution complete).
const NOBODY: usize = usize::MAX;

pub(crate) type Tid = usize;

/// Deallocates one model-`Arc` allocation once the checker is done
/// with it (payload already dropped when it was freed in-model).
pub(crate) type DeallocFn = unsafe fn(usize);

/// A vector clock over model threads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(pub [u64; MAX_THREADS]);

impl VClock {
    fn join(&mut self, o: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&o.0) {
            *a = (*a).max(*b);
        }
    }

    fn covers(&self, writer: Tid, ts: u64) -> bool {
        self.0[writer] >= ts
    }
}

/// One store in a location's modification order.
#[derive(Clone, Debug)]
struct StoreRec {
    value: u64,
    writer: Tid,
    writer_ts: u64,
    /// Clock an acquire-load of this store joins (empty for a plain
    /// relaxed store with no preceding release fence).
    msg: VClock,
}

/// One atomic location's model state.
#[derive(Debug)]
struct Location {
    history: Vec<StoreRec>,
    /// Index of the latest `SeqCst` store (0 = the initial value).
    last_sc: usize,
}

/// Why a thread cannot currently run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Blocked {
    No,
    /// Waiting to acquire the model mutex at this address.
    Mutex(usize),
    /// Parked on the model condvar at this address.
    Condvar(usize),
    /// Waiting for this thread to finish.
    Join(Tid),
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    clock: VClock,
    /// Per-location coherence floor: minimum readable index.
    read_floor: HashMap<usize, usize>,
    /// Clock at the last release fence (stamps later relaxed stores).
    rel_fence: Option<VClock>,
    /// Messages of relaxed loads, pending the next acquire fence.
    acq_pending: VClock,
    blocked: Blocked,
    /// Voluntarily descheduled (spin backoff); cleared when scheduled.
    yielded: bool,
    /// Standing at a step (waiting for the baton, blocked, not yet
    /// started, or finished) rather than running code of its own. A
    /// step runs only while every other thread is parked, so exactly
    /// one thread executes at any time — *all* of its code, not just
    /// the shimmed operations. That is what lets a model share
    /// unmodeled state between threads (a real channel, say) and still
    /// be a pure function of the schedule.
    parked: bool,
}

impl ThreadState {
    fn fresh(clock: VClock) -> Self {
        Self {
            clock,
            read_floor: HashMap::new(),
            rel_fence: None,
            acq_pending: VClock::default(),
            blocked: Blocked::No,
            yielded: false,
            // A new thread runs nothing until its entry gate is scheduled.
            parked: true,
        }
    }
}

#[derive(Debug)]
struct MutexModel {
    held_by: Option<Tid>,
    /// Release clock of the last unlock (joined on acquire).
    clock: VClock,
}

/// One branch point: which of `options` alternatives was taken.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decision {
    pub chosen: usize,
    pub options: usize,
}

/// Mutable state of one execution (one path through the tree).
pub(crate) struct Exec {
    threads: Vec<ThreadState>,
    locs: HashMap<usize, Location>,
    mutexes: HashMap<usize, MutexModel>,
    current: Tid,
    trail: Vec<Decision>,
    cursor: usize,
    preemptions: usize,
    bound: usize,
    steps: u64,
    max_steps: u64,
    failed: Option<String>,
    /// Live model-`Arc` allocations (addr → deallocator).
    arcs_live: HashMap<usize, DeallocFn>,
    /// Freed-in-model allocations awaiting memory reclamation.
    arcs_garbage: Vec<(usize, DeallocFn)>,
    /// OS handles of spawned model threads, joined at teardown.
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Outcome of one execution, handed back to the DFS driver.
pub(crate) struct RunResult {
    pub trail: Vec<Decision>,
    pub failed: Option<String>,
    pub steps: u64,
}

/// Bounds for one model run (mirrored by `model::Checker`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bounds {
    pub preemptions: usize,
    pub max_steps: u64,
    pub leak_check: bool,
}

struct Global {
    exec: StdMutex<Option<Exec>>,
    cv: StdCondvar,
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| Global { exec: StdMutex::new(None), cv: StdCondvar::new() })
}

thread_local! {
    static TID: Cell<Option<Tid>> = const { Cell::new(None) };
    /// Set while unwinding out of a failed execution: shim operations
    /// fall through to their real implementations so destructors can
    /// run without re-entering the scheduler.
    static UNWINDING: Cell<bool> = const { Cell::new(false) };
}

/// Panic payload for tearing threads out of a failed execution without
/// tripping the double-panic abort in destructors.
struct SilentUnwind;

fn lock_global() -> std::sync::MutexGuard<'static, Option<Exec>> {
    // A model thread that fails panics while holding this lock;
    // poisoning is expected and harmless (the state is torn down
    // wholesale after every execution).
    global().exec.lock().unwrap_or_else(|p| p.into_inner())
}

/// Record a model failure (first one wins), wake everyone, and unwind
/// the current thread out of the execution.
fn fail_and_unwind(exec: &mut Exec, msg: String) -> ! {
    if exec.failed.is_none() {
        let trail: Vec<String> =
            exec.trail.iter().map(|d| format!("{}/{}", d.chosen, d.options)).collect();
        exec.failed = Some(format!(
            "{msg}\n  schedule trail (chosen/options per decision): [{}]",
            trail.join(", ")
        ));
    }
    exec.current = NOBODY;
    global().cv.notify_all();
    UNWINDING.with(|u| u.set(true));
    panic::panic_any(SilentUnwind);
}

/// Whether the current thread is unwinding out of a failed execution
/// (shim destructors consult this to avoid racing the teardown).
pub(crate) fn is_unwinding() -> bool {
    UNWINDING.with(|u| u.get())
}

/// Whether the calling thread is currently inside a model execution.
/// Shim operations that must order their *real* side effects around
/// the model call (e.g. releasing a real mutex before parking on a
/// model condvar) branch on this instead of discovering the mode from
/// the model call's return value — by then it is too late.
pub(crate) fn in_model() -> bool {
    if UNWINDING.with(|u| u.get()) || TID.with(|t| t.get()).is_none() {
        return false;
    }
    lock_global().is_some()
}

enum StepOutcome<R> {
    Done(R),
    Block(Blocked),
}

/// Consume the next branch-point decision: replay the trail prefix,
/// then extend it with the first unexplored option.
fn decide(exec: &mut Exec, options: usize) -> usize {
    if options <= 1 {
        return 0;
    }
    let c = exec.cursor;
    exec.cursor += 1;
    if c < exec.trail.len() {
        assert_eq!(
            exec.trail[c].options, options,
            "dini-check: non-deterministic model: decision {c} had {} options on a previous \
             run, {options} now — the model closure must be a pure function of the schedule",
            exec.trail[c].options,
        );
        exec.trail[c].chosen
    } else {
        exec.trail.push(Decision { chosen: 0, options });
        0
    }
}

/// After `me` completed (or blocked on) a step, pick who runs next.
fn schedule_next(exec: &mut Exec, me: Tid) {
    let n = exec.threads.len();
    let runnable: Vec<Tid> = (0..n).filter(|&t| exec.threads[t].blocked == Blocked::No).collect();
    if runnable.is_empty() {
        if exec.threads.iter().all(|t| t.blocked == Blocked::Finished) {
            exec.current = NOBODY; // execution complete
            return;
        }
        let stuck: Vec<String> = (0..n)
            .filter(|&t| exec.threads[t].blocked != Blocked::Finished)
            .map(|t| format!("thread {t}: {:?}", exec.threads[t].blocked))
            .collect();
        fail_and_unwind(
            exec,
            format!(
                "deadlock: no runnable thread (lost wakeup / reply never filled?): {}",
                stuck.join("; ")
            ),
        );
    }
    // Yield fairness: a spinner that backed off cannot be rescheduled
    // while some other thread could run — this is what makes
    // publisher-side spin loops terminate under exhaustive search.
    let mut cands: Vec<Tid> =
        runnable.iter().copied().filter(|&t| !exec.threads[t].yielded).collect();
    if cands.is_empty() {
        for &t in &runnable {
            exec.threads[t].yielded = false;
        }
        cands = runnable.clone();
    }
    let me_contends = exec.threads[me].blocked == Blocked::No && !exec.threads[me].yielded;
    if me_contends && exec.preemptions >= exec.bound && cands.contains(&me) {
        // Preemption budget spent: the running thread keeps running.
        cands = vec![me];
    }
    let pick = cands[decide(exec, cands.len())];
    if me_contends && pick != me {
        exec.preemptions += 1;
    }
    exec.threads[pick].yielded = false;
    exec.current = pick;
}

/// The heart of the shim: wait for the baton, run `f` against the model
/// state, schedule the next thread. Returns `None` when the calling
/// thread is outside any model execution (passthrough mode). `f` may be
/// retried if it blocks (`StepOutcome::Block`), so it must be
/// idempotent until it returns `Done`.
fn atomic_step<R>(mut f: impl FnMut(&mut Exec, Tid) -> StepOutcome<R>) -> Option<R> {
    if UNWINDING.with(|u| u.get()) {
        return None;
    }
    let tid = TID.with(|t| t.get())?;
    let g = global();
    let mut guard = lock_global();
    // Arrived at a step: whoever holds the baton may have been waiting
    // for this thread to stop running.
    if let Some(e) = guard.as_mut() {
        e.threads[tid].parked = true;
        g.cv.notify_all();
    }
    loop {
        loop {
            match guard.as_ref() {
                None => return None, // execution torn down under us
                Some(e) if e.failed.is_some() => {
                    drop(guard);
                    UNWINDING.with(|u| u.set(true));
                    panic::panic_any(SilentUnwind);
                }
                Some(e)
                    if e.current == tid
                        && e.threads.iter().enumerate().all(|(t, th)| t == tid || th.parked) =>
                {
                    break
                }
                Some(_) => guard = g.cv.wait(guard).unwrap_or_else(|p| p.into_inner()),
            }
        }
        let exec = guard.as_mut().expect("checked above");
        exec.steps += 1;
        if exec.steps > exec.max_steps {
            let cap = exec.max_steps;
            fail_and_unwind(
                exec,
                format!("step bound exceeded ({cap}): livelock, or raise Checker::max_steps"),
            );
        }
        match f(exec, tid) {
            StepOutcome::Done(r) => {
                schedule_next(exec, tid);
                // Off to run its own code until its next step.
                exec.threads[tid].parked = false;
                g.cv.notify_all();
                return Some(r);
            }
            StepOutcome::Block(b) => {
                exec.threads[tid].blocked = b;
                schedule_next(exec, tid);
                g.cv.notify_all();
                // Stay in the outer loop: when someone unblocks us and
                // the scheduler hands the baton back, retry `f`.
            }
        }
    }
}

// ---------------------------------------------------------------------
// Atomic locations
// ---------------------------------------------------------------------

fn loc_entry<'e>(exec: &'e mut Exec, addr: usize, seed: u64) -> &'e mut Location {
    exec.locs.entry(addr).or_insert_with(|| Location {
        history: vec![StoreRec { value: seed, writer: 0, writer_ts: 0, msg: VClock::default() }],
        last_sc: 0,
    })
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Observe store `idx` of `addr`: apply acquire semantics and advance
/// the coherence floor.
fn absorb_read(exec: &mut Exec, tid: Tid, addr: usize, idx: usize, ord: Ordering) {
    let msg = exec.locs[&addr].history[idx].msg.clone();
    let t = &mut exec.threads[tid];
    if is_acquire(ord) {
        t.clock.join(&msg);
    } else {
        t.acq_pending.join(&msg);
    }
    let floor = t.read_floor.entry(addr).or_insert(0);
    *floor = (*floor).max(idx);
}

/// The set of stores a load of `addr` by `tid` may observe: every index
/// from the floor (coherence ∪ happens-before ∪ SeqCst) to the latest.
fn readable_floor(exec: &Exec, tid: Tid, addr: usize, ord: Ordering) -> usize {
    let loc = &exec.locs[&addr];
    let t = &exec.threads[tid];
    let mut floor = t.read_floor.get(&addr).copied().unwrap_or(0);
    for (i, s) in loc.history.iter().enumerate().skip(floor + 1) {
        if t.clock.covers(s.writer, s.writer_ts) {
            floor = i;
        }
    }
    if ord == Ordering::SeqCst {
        floor = floor.max(loc.last_sc);
    }
    floor
}

/// Append a store by `tid` to `addr`'s modification order.
/// `seq_msg` carries a displaced store's message for RMW release-
/// sequence continuation.
fn append_store(
    exec: &mut Exec,
    tid: Tid,
    addr: usize,
    value: u64,
    ord: Ordering,
    seq_msg: Option<VClock>,
) {
    let t = &mut exec.threads[tid];
    t.clock.0[tid] += 1;
    let ts = t.clock.0[tid];
    let mut msg =
        if is_release(ord) { t.clock.clone() } else { t.rel_fence.clone().unwrap_or_default() };
    if let Some(prev) = seq_msg {
        msg.join(&prev);
    }
    let floor_idx;
    {
        let loc = exec.locs.get_mut(&addr).expect("store to unseeded location");
        loc.history.push(StoreRec { value, writer: tid, writer_ts: ts, msg });
        floor_idx = loc.history.len() - 1;
        if ord == Ordering::SeqCst {
            loc.last_sc = floor_idx;
        }
    }
    // Write-write / read-write coherence: the writer can never again
    // observe anything older than its own store.
    let floor = exec.threads[tid].read_floor.entry(addr).or_insert(0);
    *floor = (*floor).max(floor_idx);
}

/// Model an atomic load. `None` ⇒ passthrough (run the real op).
pub(crate) fn atomic_load(addr: usize, seed: u64, ord: Ordering) -> Option<u64> {
    atomic_step(move |exec, tid| {
        loc_entry(exec, addr, seed);
        let floor = readable_floor(exec, tid, addr, ord);
        let len = exec.locs[&addr].history.len();
        // Which coherent store this load observes is a branch point,
        // explored exactly like a scheduling decision.
        let idx = floor + decide(exec, len - floor);
        let v = exec.locs[&addr].history[idx].value;
        absorb_read(exec, tid, addr, idx, ord);
        StepOutcome::Done(v)
    })
}

/// Model an atomic store. `None` ⇒ passthrough.
pub(crate) fn atomic_store(addr: usize, seed: u64, value: u64, ord: Ordering) -> Option<()> {
    atomic_step(move |exec, tid| {
        loc_entry(exec, addr, seed);
        append_store(exec, tid, addr, value, ord, None);
        StepOutcome::Done(())
    })
}

/// Model an unconditional RMW (`fetch_add`, `swap`, `fetch_min`, …):
/// reads the **latest** store (C11), applies `f`, appends the result,
/// continuing the displaced store's release sequence.
pub(crate) fn atomic_rmw(
    addr: usize,
    seed: u64,
    ord: Ordering,
    f: impl Fn(u64) -> u64 + Copy,
) -> Option<u64> {
    atomic_step(move |exec, tid| {
        loc_entry(exec, addr, seed);
        let idx = exec.locs[&addr].history.len() - 1;
        let old = exec.locs[&addr].history[idx].value;
        let seq = exec.locs[&addr].history[idx].msg.clone();
        absorb_read(exec, tid, addr, idx, ord);
        append_store(exec, tid, addr, f(old), ord, Some(seq));
        StepOutcome::Done(old)
    })
}

/// Model `compare_exchange`: reads the latest store; on match appends
/// `new` with `succ` ordering, otherwise acts as a load with `fail`
/// ordering.
pub(crate) fn atomic_cas(
    addr: usize,
    seed: u64,
    current: u64,
    new: u64,
    succ: Ordering,
    fail: Ordering,
) -> Option<Result<u64, u64>> {
    atomic_step(move |exec, tid| {
        loc_entry(exec, addr, seed);
        let idx = exec.locs[&addr].history.len() - 1;
        let old = exec.locs[&addr].history[idx].value;
        if old == current {
            let seq = exec.locs[&addr].history[idx].msg.clone();
            absorb_read(exec, tid, addr, idx, succ);
            append_store(exec, tid, addr, new, succ, Some(seq));
            StepOutcome::Done(Ok(old))
        } else {
            absorb_read(exec, tid, addr, idx, fail);
            StepOutcome::Done(Err(old))
        }
    })
}

/// Model a memory fence.
pub(crate) fn atomic_fence(ord: Ordering) -> Option<()> {
    atomic_step(move |exec, tid| {
        let t = &mut exec.threads[tid];
        if is_acquire(ord) {
            let pending = std::mem::take(&mut t.acq_pending);
            t.clock.join(&pending);
        }
        if is_release(ord) {
            t.rel_fence = Some(t.clock.clone());
        }
        StepOutcome::Done(())
    })
}

// ---------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------

/// Model-acquire the mutex at `addr` (blocks until free). `None` ⇒
/// passthrough.
pub(crate) fn mutex_lock(addr: usize) -> Option<()> {
    atomic_step(move |exec, tid| {
        let m = exec
            .mutexes
            .entry(addr)
            .or_insert_with(|| MutexModel { held_by: None, clock: VClock::default() });
        match m.held_by {
            None => {
                m.held_by = Some(tid);
                let clock = m.clock.clone();
                exec.threads[tid].clock.join(&clock);
                StepOutcome::Done(())
            }
            Some(holder) if holder == tid => {
                fail_and_unwind(exec, format!("thread {tid}: recursive model-mutex lock"))
            }
            Some(_) => StepOutcome::Block(Blocked::Mutex(addr)),
        }
    })
}

/// Model-release the mutex at `addr`, waking its waiters.
pub(crate) fn mutex_unlock(addr: usize) -> Option<()> {
    atomic_step(move |exec, tid| {
        exec.threads[tid].clock.0[tid] += 1;
        let clock = exec.threads[tid].clock.clone();
        let m = exec.mutexes.get_mut(&addr).expect("unlock of unknown model mutex");
        debug_assert_eq!(m.held_by, Some(tid), "unlock by non-holder");
        m.held_by = None;
        m.clock.join(&clock);
        for t in exec.threads.iter_mut() {
            if t.blocked == Blocked::Mutex(addr) {
                t.blocked = Blocked::No; // they retry the acquire
            }
        }
        StepOutcome::Done(())
    })
}

/// Model condvar wait: atomically release the mutex and park; once
/// notified, re-acquire the mutex before returning. `None` ⇒
/// passthrough (caller must use the real condvar).
pub(crate) fn condvar_wait(cv_addr: usize, mx_addr: usize) -> Option<()> {
    let mut parked = false;
    atomic_step(move |exec, tid| {
        if !parked {
            parked = true;
            // Release the mutex and park in one step (no missed-notify
            // window — exactly the condvar guarantee).
            exec.threads[tid].clock.0[tid] += 1;
            let clock = exec.threads[tid].clock.clone();
            let m = exec.mutexes.get_mut(&mx_addr).expect("cv wait without model mutex");
            debug_assert_eq!(m.held_by, Some(tid), "cv wait by non-holder");
            m.held_by = None;
            m.clock.join(&clock);
            for t in exec.threads.iter_mut() {
                if t.blocked == Blocked::Mutex(mx_addr) {
                    t.blocked = Blocked::No;
                }
            }
            return StepOutcome::Block(Blocked::Condvar(cv_addr));
        }
        // Notified: reacquire the mutex (contending like any locker).
        let m = exec
            .mutexes
            .entry(mx_addr)
            .or_insert_with(|| MutexModel { held_by: None, clock: VClock::default() });
        match m.held_by {
            None => {
                m.held_by = Some(tid);
                let clock = m.clock.clone();
                exec.threads[tid].clock.join(&clock);
                StepOutcome::Done(())
            }
            Some(_) => StepOutcome::Block(Blocked::Mutex(mx_addr)),
        }
    })
}

/// Model `notify_all`: every thread parked on the condvar proceeds to
/// mutex re-acquisition.
pub(crate) fn condvar_notify_all(cv_addr: usize) -> Option<()> {
    atomic_step(move |exec, tid| {
        exec.threads[tid].clock.0[tid] += 1;
        for t in exec.threads.iter_mut() {
            if t.blocked == Blocked::Condvar(cv_addr) {
                t.blocked = Blocked::No;
            }
        }
        StepOutcome::Done(())
    })
}

/// Model `notify_one`: wake the lowest-numbered parked thread. (The
/// shimmed code only uses `notify_all`; this keeps the API total.)
pub(crate) fn condvar_notify_one(cv_addr: usize) -> Option<()> {
    atomic_step(move |exec, tid| {
        exec.threads[tid].clock.0[tid] += 1;
        if let Some(t) = exec.threads.iter_mut().find(|t| t.blocked == Blocked::Condvar(cv_addr)) {
            t.blocked = Blocked::No;
        }
        StepOutcome::Done(())
    })
}

// ---------------------------------------------------------------------
// Yielding
// ---------------------------------------------------------------------

/// Voluntarily deschedule (spin backoff). Under the checker this is a
/// fairness point: the yielding thread cannot run again until every
/// other runnable thread has had a chance — which is what makes
/// wait-for-a-flag spin loops terminate under exhaustive exploration.
pub(crate) fn yield_now() -> Option<()> {
    atomic_step(|exec, tid| {
        exec.threads[tid].yielded = true;
        StepOutcome::Done(())
    })
}

// ---------------------------------------------------------------------
// Model Arc bookkeeping
// ---------------------------------------------------------------------

/// What a model-`Arc` count operation did. The operation itself (the
/// real refcount RMW, payload drop, freed-flag store) runs **inside**
/// the scheduled step via the `arc_action` callback, so it is fully
/// serialized with every other model thread — doing it after the step
/// returned would race the next scheduled thread.
pub(crate) enum ArcOutcome {
    /// Plain count adjustment.
    Ok,
    /// Strong count hit zero: payload dropped, allocation parked for
    /// reclamation at execution teardown (the `freed` flag must stay
    /// readable so a racing `increment_strong_count` is *detected*,
    /// not undefined behavior).
    Freed,
    /// The allocation was already freed (use-after-free — the exact
    /// failure mode of a broken epoch-reclamation protocol).
    Uaf(&'static str),
}

/// Register a freshly allocated model-`Arc` inner (leak tracking).
pub(crate) fn arc_created(addr: usize, dealloc: DeallocFn) -> Option<()> {
    atomic_step(move |exec, _| {
        exec.arcs_live.insert(addr, dealloc);
        StepOutcome::Done(())
    })
}

/// Run one `Arc` count operation as a scheduled step. `None` ⇒
/// passthrough (caller performs the std-equivalent sequence itself).
pub(crate) fn arc_action(
    addr: usize,
    dealloc: DeallocFn,
    mut action: impl FnMut() -> ArcOutcome,
) -> Option<()> {
    atomic_step(move |exec, tid| match action() {
        ArcOutcome::Ok => StepOutcome::Done(()),
        ArcOutcome::Freed => {
            exec.arcs_live.remove(&addr);
            exec.arcs_garbage.push((addr, dealloc));
            StepOutcome::Done(())
        }
        ArcOutcome::Uaf(what) => fail_and_unwind(
            exec,
            format!("thread {tid}: use-after-free: {what} on a freed model-Arc allocation"),
        ),
    })
}

// ---------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------

/// Spawn a model thread. Returns its tid; the OS thread must call
/// [`register_child`] + [`child_entry`] before touching model state and
/// [`finish_thread`] when done.
pub(crate) fn spawn_thread(body: Box<dyn FnOnce() + Send>) -> Option<Tid> {
    atomic_step(move |exec, tid| {
        if exec.threads.len() >= MAX_THREADS {
            fail_and_unwind(exec, format!("more than {MAX_THREADS} model threads"));
        }
        let child = exec.threads.len();
        // Spawn edge: the child begins with everything the parent did.
        exec.threads[tid].clock.0[tid] += 1;
        let clock = exec.threads[tid].clock.clone();
        exec.threads.push(ThreadState::fresh(clock));
        StepOutcome::Done(child)
    })
    .map(|child| {
        // Move the closure out through a cell the OS thread takes from.
        let handle = std::thread::Builder::new()
            .name(format!("dini-check-{child}"))
            .spawn(move || {
                TID.with(|t| t.set(Some(child)));
                // Entry gate: run no user code until first scheduled.
                let _ = atomic_step(|_, _| StepOutcome::Done::<()>(()));
                let r = panic::catch_unwind(AssertUnwindSafe(body));
                UNWINDING.with(|u| u.set(false));
                match r {
                    Ok(()) => finish_thread(child, None),
                    Err(p) if p.is::<SilentUnwind>() => finish_thread(child, None),
                    Err(p) => finish_thread(child, Some(panic_message(&*p))),
                }
                TID.with(|t| t.set(None));
            })
            .expect("spawn model thread");
        let mut guard = lock_global();
        if let Some(exec) = guard.as_mut() {
            exec.handles.push(handle);
        } else {
            drop(guard);
            let _ = handle.join();
        }
        child
    })
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked".to_owned()
    }
}

/// Mark `tid` finished (optionally failing the model with a panic
/// message), wake joiners, and hand off the baton. Works even on a
/// failed execution, where the normal step machinery is disabled.
pub(crate) fn finish_thread(tid: Tid, panicked: Option<String>) {
    let mut guard = lock_global();
    let Some(exec) = guard.as_mut() else { return };
    exec.threads[tid].blocked = Blocked::Finished;
    exec.threads[tid].parked = true;
    for t in exec.threads.iter_mut() {
        if t.blocked == Blocked::Join(tid) {
            t.blocked = Blocked::No;
        }
    }
    if let Some(msg) = panicked {
        if exec.failed.is_none() {
            let trail: Vec<String> =
                exec.trail.iter().map(|d| format!("{}/{}", d.chosen, d.options)).collect();
            exec.failed = Some(format!(
                "thread {tid} panicked: {msg}\n  schedule trail (chosen/options per decision): \
                 [{}]",
                trail.join(", ")
            ));
        }
        exec.current = NOBODY;
    } else if exec.failed.is_none() && exec.current == tid {
        schedule_next(exec, tid);
    }
    global().cv.notify_all();
}

/// Block until model thread `child` finishes; establishes the join
/// happens-before edge.
pub(crate) fn join_thread(child: Tid) -> Option<()> {
    atomic_step(move |exec, tid| {
        if exec.threads[child].blocked == Blocked::Finished {
            let clock = exec.threads[child].clock.clone();
            exec.threads[tid].clock.join(&clock);
            StepOutcome::Done(())
        } else {
            StepOutcome::Block(Blocked::Join(child))
        }
    })
}

// ---------------------------------------------------------------------
// The per-execution driver
// ---------------------------------------------------------------------

/// Run the model closure once under the scheduler, replaying `prefix`
/// and extending it at the frontier. Called only from `model::Checker`
/// on the test thread.
pub(crate) fn run_one(f: &(dyn Fn() + Sync), prefix: Vec<Decision>, bounds: Bounds) -> RunResult {
    // `SilentUnwind` is control flow, not a failure: keep the default
    // panic hook from spamming a backtrace for every thread torn out
    // of a failed execution.
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SilentUnwind>().is_none() {
                prev(info);
            }
        }));
    });
    {
        let mut guard = lock_global();
        assert!(guard.is_none(), "dini-check: nested model() executions are not supported");
        *guard = Some(Exec {
            // The closure's own thread is running from the start.
            threads: vec![ThreadState { parked: false, ..ThreadState::fresh(VClock::default()) }],
            locs: HashMap::new(),
            mutexes: HashMap::new(),
            current: 0,
            trail: prefix,
            cursor: 0,
            preemptions: 0,
            bound: bounds.preemptions,
            steps: 0,
            max_steps: bounds.max_steps,
            failed: None,
            arcs_live: HashMap::new(),
            arcs_garbage: Vec::new(),
            handles: Vec::new(),
        });
    }
    TID.with(|t| t.set(Some(0)));

    let r = panic::catch_unwind(AssertUnwindSafe(f));
    UNWINDING.with(|u| u.set(false));
    match r {
        Ok(()) => finish_thread(0, None),
        Err(p) if p.is::<SilentUnwind>() => finish_thread(0, None),
        Err(p) => finish_thread(0, Some(panic_message(&*p))),
    }

    // Drive the execution to completion: spawned threads may still be
    // running; on failure everyone unwinds out on their own.
    let g = global();
    let handles = {
        let mut guard = lock_global();
        loop {
            let exec = guard.as_mut().expect("execution present");
            let done = exec.failed.is_some()
                || exec.threads.iter().all(|t| t.blocked == Blocked::Finished);
            if done {
                break std::mem::take(&mut exec.handles);
            }
            guard = g.cv.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    };
    for h in handles {
        let _ = h.join();
    }

    // Teardown: reclaim freed model-Arc allocations, leak-check the
    // rest, and surface the verdict.
    let mut guard = lock_global();
    let mut exec = guard.take().expect("execution present");
    TID.with(|t| t.set(None));
    for (addr, dealloc) in exec.arcs_garbage.drain(..) {
        // SAFETY: `addr` was parked by `arc_freed` when its strong
        // count hit zero in this execution; nothing references it now
        // that every model thread has been joined.
        unsafe { dealloc(addr) };
    }
    if bounds.leak_check && exec.failed.is_none() && !exec.arcs_live.is_empty() {
        exec.failed = Some(format!(
            "leak: {} model-Arc allocation(s) were never freed (an epoch or reply cell was \
             lost) — disable with Checker::leak_check(false) if escaping Arcs is intended",
            exec.arcs_live.len()
        ));
    }
    RunResult { trail: exec.trail, failed: exec.failed, steps: exec.steps }
}
