//! Time virtualization: the `Clock` seam and the deterministic
//! [`SimClock`] scheduler behind `dini-simtest`.
//!
//! Every timing decision in the serving layer — idle polls, open-loop
//! arrival naps, blocking admission, reply waits — goes through
//! a [`Clock`] instead of touching `Instant::now()` / `thread::sleep`
//! directly. A clock comes in two flavours:
//!
//! * [`Clock::system`] — the production path. Every method forwards
//!   straight to the native primitive (`Instant`, `thread::sleep`,
//!   `Receiver::recv_timeout`, …) through one `match` on a fieldless
//!   variant: no allocation, no indirection, no atomics. The
//!   steady-state read path stays exactly as fast (and as
//!   allocation-free) as before the seam existed.
//! * [`Clock::sim`] — virtual time, driven by a [`SimClock`]. Idle
//!   waits fast-forward instantly, timeout and failure scenarios become
//!   cheap, and — crucially — the whole multi-threaded server executes
//!   **deterministically**, so any run replays bit-for-bit from its
//!   inputs.
//!
//! ## How `SimClock` makes real threads deterministic
//!
//! The serving stack uses genuine OS threads (the writer, callers,
//! load clients), so determinism cannot come from a single-threaded
//! event loop the way it does in `dini-cluster::sim`. Instead the
//! `SimClock` borrows the discrete-event scheduler's core idea — a
//! totally ordered schedule with deterministic tie-breaks — and imposes
//! it on live threads:
//!
//! 1. Every thread that participates in simulated time **registers**
//!    (the scenario's main thread via [`SimClock::register_main`];
//!    children are spawned through [`Clock::spawn`], which assigns slot
//!    ids in program order). The one thread the server owns — the
//!    writer — is spawned this way.
//! 2. **At most one registered thread runs at a time.** All blocking
//!    operations (sleeps, channel sends/recvs, reply waits, joins)
//!    funnel into `SimClock::block`, which parks the caller and hands
//!    control to the scheduler.
//! 3. When every registered thread is blocked, the scheduler runs a
//!    **round**: it polls the blocked threads in slot-id order; the
//!    first one whose wait condition is satisfiable (a message arrived,
//!    a reply landed, a joinee exited) wakes and becomes the sole
//!    runner. If nobody is ready, virtual time **advances** to the
//!    earliest pending deadline and the round restarts — idle waits
//!    cost nothing in wall-clock. If nobody is ready and no deadline is
//!    pending, the run has genuinely deadlocked and the clock panics
//!    with a full thread dump (which doubles as the "every admitted
//!    request gets exactly one reply" oracle: a lost reply strands its
//!    waiter forever, and the sim refuses to silently hang).
//!
//! Because the schedule is a pure function of the inputs, the clock can
//! fold every transition (block, wake, timeout, advance, spawn, exit)
//! into an FNV-1a **event-trace digest**: two runs of the same scenario
//! with the same seed produce identical digests, and any failure
//! replays exactly from its seed.

use std::cell::Cell;
use std::sync::mpsc::{
    Receiver, RecvError, RecvTimeoutError, SendError, SyncSender, TryRecvError, TrySendError,
};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monotonic nanoseconds. On the system clock these are measured from a
/// process-wide anchor (first use); on a sim clock they are virtual,
/// starting at 0.
pub type Nanos = u64;

/// Convert a `Duration` to `Nanos`, saturating.
#[inline]
pub fn dur_ns(d: Duration) -> Nanos {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
thread_local! {
    /// System-clock reads made by this thread: what the clock-read pin
    /// (`server::tests::claimed_lookup_reads_the_clock_only_when_timed`)
    /// counts. Per thread, so concurrently running tests and the
    /// server's own threads do not disturb a caller's count.
    pub(crate) static SYS_NOW_READS: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide zero point for the system clock.
#[inline]
fn sys_now() -> Nanos {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    #[cfg(test)]
    SYS_NOW_READS.with(|n| n.set(n.get() + 1));
    dur_ns(ANCHOR.get_or_init(Instant::now).elapsed())
}

/// The time source every serve component consults. Cheap to clone
/// (fieldless for system, one `Arc` bump for sim); clone at setup, not
/// per operation.
#[derive(Clone, Debug, Default)]
pub struct Clock(Inner);

#[derive(Clone, Debug, Default)]
enum Inner {
    #[default]
    System,
    Sim(Arc<SimClock>),
}

impl Clock {
    /// The native wall clock (the default): zero-overhead passthrough.
    pub fn system() -> Self {
        Clock(Inner::System)
    }

    /// A clock driven by `sim`'s virtual time.
    pub fn sim(sim: &Arc<SimClock>) -> Self {
        Clock(Inner::Sim(sim.clone()))
    }

    /// The backing `SimClock`, if this is a sim clock.
    pub fn as_sim(&self) -> Option<&Arc<SimClock>> {
        match &self.0 {
            Inner::System => None,
            Inner::Sim(c) => Some(c),
        }
    }

    /// Current time in nanoseconds (virtual or anchored-monotonic).
    #[inline]
    pub fn now(&self) -> Nanos {
        match &self.0 {
            Inner::System => sys_now(),
            Inner::Sim(c) => c.now(),
        }
    }

    /// Sleep for `d` (virtual time fast-forwards instead of waiting).
    pub fn sleep(&self, d: Duration) {
        match &self.0 {
            Inner::System => std::thread::sleep(d),
            Inner::Sim(c) => {
                let deadline = c.now().saturating_add(dur_ns(d));
                let timed_out: Option<()> = c.block(Some(deadline), |_| None);
                debug_assert!(timed_out.is_none());
            }
        }
    }

    /// Receive, waiting (in this clock's time) at most until `deadline`.
    pub fn recv_deadline<T>(
        &self,
        rx: &Receiver<T>,
        deadline: Nanos,
    ) -> Result<T, RecvTimeoutError> {
        match &self.0 {
            Inner::System => {
                let remaining = deadline.saturating_sub(sys_now());
                rx.recv_timeout(Duration::from_nanos(remaining))
            }
            Inner::Sim(c) => c.recv_blocking(rx, Some(deadline)),
        }
    }

    /// Receive with a relative timeout in this clock's time.
    pub fn recv_timeout<T>(
        &self,
        rx: &Receiver<T>,
        timeout: Duration,
    ) -> Result<T, RecvTimeoutError> {
        match &self.0 {
            Inner::System => rx.recv_timeout(timeout),
            Inner::Sim(c) => {
                let deadline = c.now().saturating_add(dur_ns(timeout));
                c.recv_blocking(rx, Some(deadline))
            }
        }
    }

    /// Receive, blocking indefinitely (but visible to the sim scheduler,
    /// unlike a raw `rx.recv()`, which would wedge virtual time).
    pub fn recv<T>(&self, rx: &Receiver<T>) -> Result<T, RecvError> {
        match &self.0 {
            Inner::System => rx.recv(),
            Inner::Sim(c) => c.recv_blocking(rx, None).map_err(|_| RecvError),
        }
    }

    /// Send, blocking while the channel is full (the sim-safe analogue
    /// of `tx.send(msg)`).
    pub fn send<T>(&self, tx: &SyncSender<T>, msg: T) -> Result<(), SendError<T>> {
        match &self.0 {
            Inner::System => tx.send(msg),
            Inner::Sim(c) => {
                let mut held = Some(msg);
                c.block(None, |_| match tx.try_send(held.take().expect("msg in hand")) {
                    Ok(()) => Some(Ok(())),
                    Err(TrySendError::Full(m)) => {
                        held = Some(m);
                        None
                    }
                    Err(TrySendError::Disconnected(m)) => Some(Err(SendError(m))),
                })
                .expect("untimed block always resolves")
            }
        }
    }

    /// A scheduling point that costs no time: nothing on the system
    /// clock (no syscall, no spin), and under a sim clock a hand-off to
    /// any other registered thread that is due at this very instant —
    /// and only then, so a thread alone at its instant passes through
    /// without a scheduler event. A caller that holds a replica's claim
    /// passes through here, which is what lets the deterministic
    /// scheduler put a second caller *inside* the claim window: on
    /// virtual time the window is otherwise zero-length and nothing could
    /// ever overlap it.
    #[inline]
    pub fn yield_now(&self) {
        if let Inner::Sim(c) = &self.0 {
            c.yield_now();
        }
    }

    /// Spawn a named thread. Under a sim clock the child is registered
    /// with the scheduler (slot assigned here, in program order, so
    /// spawn order — and therefore the whole schedule — is
    /// deterministic) and waits for its first turn before running.
    pub fn spawn<T, F>(&self, name: &str, f: F) -> ClockJoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let builder = std::thread::Builder::new().name(name.to_owned());
        match &self.0 {
            Inner::System => {
                let inner = builder.spawn(f).expect("spawn thread");
                ClockJoinHandle { inner, sim: None }
            }
            Inner::Sim(c) => {
                let id = c.prepare_slot();
                let clock = c.clone();
                let inner = builder
                    .spawn(move || {
                        SIM_ID.with(|s| s.set(id));
                        clock.wait_first_turn(id);
                        let _exit = ExitGuard { clock: &clock, id };
                        f()
                    })
                    .expect("spawn thread");
                ClockJoinHandle { inner, sim: Some((c.clone(), id)) }
            }
        }
    }
}

/// Marks the slot `Exited` even if the thread body panics, so sim joins
/// can never hang on a dead thread.
struct ExitGuard<'a> {
    clock: &'a SimClock,
    id: usize,
}

impl Drop for ExitGuard<'_> {
    fn drop(&mut self) {
        self.clock.exit(self.id);
    }
}

/// A join handle that knows how to wait in the owning clock's time:
/// joining a sim-registered thread parks in the scheduler (so virtual
/// time keeps flowing for everyone else) before the real join.
#[derive(Debug)]
pub struct ClockJoinHandle<T> {
    inner: JoinHandle<T>,
    sim: Option<(Arc<SimClock>, usize)>,
}

impl<T> ClockJoinHandle<T> {
    /// Wait for the thread to finish and return its result.
    pub fn join(self) -> std::thread::Result<T> {
        if let Some((clock, id)) = &self.sim {
            clock.wait_exited(*id);
        }
        self.inner.join()
    }

    /// Has the thread already finished? Non-blocking; lets long-lived
    /// owners (e.g. a transport acceptor collecting per-connection
    /// threads) prune exited handles instead of accumulating them.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

const NOT_REGISTERED: usize = usize::MAX;

thread_local! {
    /// This thread's slot id in the sim it is registered with (if any).
    static SIM_ID: Cell<usize> = const { Cell::new(NOT_REGISTERED) };
}

/// Is the calling thread registered with a `SimClock`? Used by native
/// blocking paths to refuse waits the scheduler cannot see (which would
/// wedge the simulation silently instead of tripping its deadlock
/// detector).
pub(crate) fn thread_registered_in_sim() -> bool {
    SIM_ID.with(Cell::get) != NOT_REGISTERED
}

/// Scheduling state of one registered thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Spawned but not yet given its first turn.
    Starting,
    /// Currently executing (at most one slot is ever `Running`).
    Running,
    /// Parked in [`SimClock::block`]; `deadline` is the virtual instant
    /// its wait times out (`None` = waits for an event, not for time).
    Blocked { deadline: Option<Nanos> },
    /// Finished (or unwound); will never run again.
    Exited,
}

#[derive(Debug)]
struct SimState {
    now: Nanos,
    threads: Vec<Slot>,
    /// One per slot: a slot's thread parks on its own condvar, so a
    /// hand-off wakes exactly the thread the cursor moved to.
    wakers: Vec<Arc<Condvar>>,
    /// Number of `Running` slots (0 or 1 away from transitions).
    running: usize,
    /// `Some(i)` while a scheduling round is active and it is slot
    /// `i`'s turn to re-check its wait condition.
    cursor: Option<usize>,
    digest: u64,
    events: u64,
}

/// Event kinds folded into the trace digest.
const EV_BLOCK: u64 = 1;
const EV_WAKE: u64 = 2;
const EV_TIMEOUT: u64 = 3;
const EV_ADVANCE: u64 = 4;
const EV_SPAWN: u64 = 5;
const EV_EXIT: u64 = 6;
const EV_PASS: u64 = 7;

impl SimState {
    fn record(&mut self, kind: u64, id: usize, aux: u64) {
        self.events += 1;
        let mut h = self.digest;
        for v in [kind, id as u64, self.now, aux] {
            h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        }
        self.digest = h;
    }

    fn push_slot(&mut self, slot: Slot) {
        self.threads.push(slot);
        self.wakers.push(Arc::new(Condvar::new()));
    }

    /// Wake the thread whose turn it now is (if any). Only the cursor's
    /// holder can act on a hand-off, so no other parked thread is woken.
    fn wake_cursor(&self) {
        if let Some(c) = self.cursor {
            self.wakers[c].notify_one();
        }
    }

    /// First slot at or after `from` that a round should visit.
    fn next_pollable(&self, from: usize) -> Option<usize> {
        (from..self.threads.len())
            .find(|&i| matches!(self.threads[i], Slot::Starting | Slot::Blocked { .. }))
    }

    /// Would a round wake slot `i` right now, whatever it waits on? (A
    /// thread parked on an event may be runnable too; only its own
    /// `attempt` can tell.)
    fn due(&self, i: usize) -> bool {
        match self.threads[i] {
            Slot::Starting => true,
            Slot::Blocked { deadline } => deadline.is_some_and(|d| d <= self.now),
            Slot::Running | Slot::Exited => false,
        }
    }

    fn earliest_deadline(&self) -> Option<Nanos> {
        self.threads
            .iter()
            .filter_map(|s| match s {
                Slot::Blocked { deadline } => *deadline,
                _ => None,
            })
            .min()
    }
}

/// A seeded-scenario virtual-time scheduler for real threads. See the
/// module docs for the protocol; construct one per scenario, register
/// the driving thread, build the server with [`Clock::sim`], and read
/// the [`digest`](Self::digest) afterwards to pin reproducibility.
#[derive(Debug)]
pub struct SimClock {
    state: Mutex<SimState>,
    /// Virtual-time runaway guard: advancing past this panics.
    horizon: Nanos,
}

/// Un-registers the scenario's main thread on drop.
#[derive(Debug)]
pub struct SimMainGuard {
    clock: Arc<SimClock>,
    id: usize,
}

impl Drop for SimMainGuard {
    fn drop(&mut self) {
        self.clock.exit(self.id);
        SIM_ID.with(|s| s.set(NOT_REGISTERED));
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::with_horizon(3_600_000_000_000)
    }
}

impl SimClock {
    /// A fresh clock at virtual t = 0 with a 1-virtual-hour horizon.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// A fresh clock that panics if virtual time exceeds `horizon_ns`
    /// (catches runaway scenarios instead of spinning forever).
    pub fn with_horizon(horizon_ns: Nanos) -> Self {
        Self {
            state: Mutex::new(SimState {
                now: 0,
                threads: Vec::new(),
                wakers: Vec::new(),
                running: 0,
                cursor: None,
                digest: 0xcbf2_9ce4_8422_2325,
                events: 0,
            }),
            horizon: horizon_ns,
        }
    }

    /// Poison-tolerant: a deadlock/horizon panic unwinds with the lock
    /// held, and the cleanup paths (guard drops, sibling waits) must
    /// still be able to read the state instead of abort-on-panic-in-
    /// panic.
    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register the calling thread as the scenario driver (slot 0). Must
    /// be called before any sim-clocked component runs, and the guard
    /// must outlive every sim-clocked object (drop the server first).
    pub fn register_main(self: &Arc<Self>) -> SimMainGuard {
        SIM_ID.with(|s| {
            assert_eq!(s.get(), NOT_REGISTERED, "thread already registered with a sim clock");
            let mut st = self.lock();
            assert!(st.threads.is_empty(), "register_main must be the first registration");
            st.push_slot(Slot::Running);
            st.running = 1;
            st.record(EV_SPAWN, 0, 0);
            s.set(0);
            SimMainGuard { clock: self.clone(), id: 0 }
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.lock().now
    }

    /// `(digest, events)`: the FNV-1a fold of every scheduling event so
    /// far and how many there were. Equal digests ⇒ identical schedules.
    pub fn digest(&self) -> (u64, u64) {
        let st = self.lock();
        (st.digest, st.events)
    }

    /// Reserve a slot for a thread about to be spawned (caller must be
    /// the running thread, so ids are assigned in program order).
    fn prepare_slot(&self) -> usize {
        let mut st = self.lock();
        st.push_slot(Slot::Starting);
        let id = st.threads.len() - 1;
        st.record(EV_SPAWN, id, 0);
        id
    }

    /// Park a freshly spawned thread until the scheduler gives it its
    /// first turn.
    fn wait_first_turn(&self, id: usize) {
        let mut st = self.lock();
        let waker = st.wakers[id].clone();
        loop {
            if st.cursor == Some(id) {
                st.threads[id] = Slot::Running;
                st.running += 1;
                st.cursor = None;
                st.record(EV_WAKE, id, 0);
                return;
            }
            st = waker.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mark thread `id` finished; if it was the last runner, hand the
    /// schedule to whoever is ready next.
    fn exit(&self, id: usize) {
        let mut st = self.lock();
        if matches!(st.threads[id], Slot::Running) {
            st.running -= 1;
        }
        st.threads[id] = Slot::Exited;
        st.record(EV_EXIT, id, 0);
        if st.running == 0 {
            self.start_round(&mut st);
        }
        st.wake_cursor();
    }

    /// Block in the scheduler until `joinee` has exited.
    fn wait_exited(&self, joinee: usize) {
        let done: Option<()> =
            self.block(None, |st| matches!(st.threads[joinee], Slot::Exited).then_some(()));
        debug_assert!(done.is_some());
    }

    /// Block until `ready` yields a value (no deadline). The wait is
    /// visible to the scheduler, so virtual time keeps flowing.
    pub fn wait_until<T>(&self, mut ready: impl FnMut() -> Option<T>) -> T {
        self.block(None, |_| ready()).expect("untimed block always resolves")
    }

    /// See [`Clock::yield_now`]. Threads with a lower slot id are polled
    /// before this one when the round starts; for the ones after it, this
    /// thread declines its first poll so the cursor reaches them. Every
    /// thread it defers to is due by its deadline, so one of them is
    /// certain to wake and the round cannot end (and advance time, or
    /// declare deadlock) with this thread still parked and ready.
    fn yield_now(&self) {
        let id = SIM_ID.with(Cell::get);
        if id == NOT_REGISTERED {
            return;
        }
        {
            let st = self.lock();
            if !(0..st.threads.len()).any(|i| i != id && st.due(i)) {
                return;
            }
        }
        let mut polls = 0u32;
        self.block(None, |st| {
            polls += 1;
            // Poll 1 is `block`'s in-line attempt (still running), poll 2
            // the first time the cursor reaches this thread.
            let defer = polls == 1 || (polls == 2 && (id + 1..st.threads.len()).any(|i| st.due(i)));
            (!defer).then_some(())
        })
        .expect("untimed block always resolves");
    }

    fn recv_blocking<T>(
        &self,
        rx: &Receiver<T>,
        deadline: Option<Nanos>,
    ) -> Result<T, RecvTimeoutError> {
        match self.block(deadline, |_| match rx.try_recv() {
            Ok(v) => Some(Ok(v)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
        }) {
            Some(r) => r,
            None => Err(RecvTimeoutError::Timeout),
        }
    }

    /// The one blocking primitive. Re-evaluates `attempt` whenever the
    /// scheduler polls this thread; returns `Some` with its value, or
    /// `None` once virtual time reaches `deadline`.
    fn block<T>(
        &self,
        deadline: Option<Nanos>,
        mut attempt: impl FnMut(&SimState) -> Option<T>,
    ) -> Option<T> {
        let id = SIM_ID.with(Cell::get);
        assert_ne!(
            id, NOT_REGISTERED,
            "a sim-clocked wait reached a thread that is not registered with the SimClock \
             (spawn sim threads via Clock::spawn, and drive scenarios from inside \
             SimClock::register_main)"
        );
        let mut st = self.lock();
        debug_assert!(matches!(st.threads[id], Slot::Running), "blocking thread must be running");
        // Fast path: the condition (or the deadline) is already met —
        // stay running, pay one lock.
        if let Some(v) = attempt(&st) {
            st.record(EV_PASS, id, 0);
            return Some(v);
        }
        if deadline.is_some_and(|d| st.now >= d) {
            st.record(EV_TIMEOUT, id, 0);
            return None;
        }
        st.threads[id] = Slot::Blocked { deadline };
        st.running -= 1;
        st.record(EV_BLOCK, id, deadline.unwrap_or(0));
        if st.running == 0 {
            self.start_round(&mut st);
        }
        st.wake_cursor();
        let waker = st.wakers[id].clone();
        loop {
            if st.cursor == Some(id) {
                if let Some(v) = attempt(&st) {
                    st.threads[id] = Slot::Running;
                    st.running += 1;
                    st.cursor = None;
                    st.record(EV_WAKE, id, 0);
                    return Some(v);
                }
                if deadline.is_some_and(|d| st.now >= d) {
                    st.threads[id] = Slot::Running;
                    st.running += 1;
                    st.cursor = None;
                    st.record(EV_TIMEOUT, id, 0);
                    return None;
                }
                // Not ready: pass the cursor down the line. After an
                // end-of-round time advance the cursor may come straight
                // back to us (sole timed waiter), so loop to re-check
                // rather than waiting on a notification that already
                // happened.
                match st.next_pollable(id + 1) {
                    Some(next) => st.cursor = Some(next),
                    None => self.end_of_round(&mut st),
                }
                st.wake_cursor();
                continue;
            }
            st = waker.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// All registered threads are parked: poll them in id order.
    fn start_round(&self, st: &mut SimState) {
        debug_assert_eq!(st.running, 0);
        match st.next_pollable(0) {
            Some(first) => st.cursor = Some(first),
            None => st.cursor = None, // everyone exited; clock is quiescent
        }
    }

    /// A full round found nobody ready at the current instant: advance
    /// virtual time to the earliest deadline, or declare deadlock.
    fn end_of_round(&self, st: &mut SimState) {
        match st.earliest_deadline() {
            Some(d) => {
                debug_assert!(d > st.now, "expired deadline should have woken in the round");
                st.now = st.now.max(d);
                assert!(
                    st.now <= self.horizon,
                    "virtual time {} ns exceeded the sim horizon ({} ns): \
                     runaway scenario? threads: {:?}",
                    st.now,
                    self.horizon,
                    st.threads
                );
                st.record(EV_ADVANCE, usize::MAX & 0xffff, d);
                st.cursor = st.next_pollable(0);
            }
            None => panic!(
                "virtual-time deadlock at t = {} ns: every registered thread is waiting on an \
                 event no other thread can produce (a lost reply, an un-dropped sender, or a \
                 join on a wedged thread). threads: {:?}",
                st.now, st.threads
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    #[test]
    fn system_clock_is_monotonic_and_sleeps() {
        let c = Clock::system();
        let a = c.now();
        c.sleep(Duration::from_millis(2));
        let b = c.now();
        assert!(b >= a + 1_000_000, "{a} .. {b}");
        assert!(c.as_sim().is_none());
    }

    #[test]
    fn sim_sleep_fast_forwards_instantly() {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let c = Clock::sim(&sim);
        let wall = Instant::now();
        c.sleep(Duration::from_secs(3600 - 1)); // just under the horizon
        assert_eq!(c.now(), (3600 - 1) * 1_000_000_000);
        assert!(wall.elapsed() < Duration::from_secs(5), "virtual sleep must not wait");
    }

    #[test]
    fn sim_recv_timeout_advances_exactly_to_deadline() {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let c = Clock::sim(&sim);
        let (_tx, rx) = sync_channel::<u32>(1);
        let err = c.recv_timeout(&rx, Duration::from_millis(250)).unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
        assert_eq!(c.now(), 250_000_000);
    }

    #[test]
    fn sim_threads_communicate_in_virtual_time() {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let c = Clock::sim(&sim);
        let (tx, rx) = sync_channel::<Nanos>(4);
        let producer = {
            let c2 = c.clone();
            c.spawn("producer", move || {
                for _ in 0..3 {
                    c2.sleep(Duration::from_millis(10));
                    tx.send(c2.now()).unwrap();
                }
            })
        };
        let mut got = Vec::new();
        while let Ok(t) = c.recv(&rx) {
            got.push(t);
            if got.len() == 3 {
                break;
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![10_000_000, 20_000_000, 30_000_000]);
    }

    #[test]
    fn sim_blocking_send_waits_for_capacity() {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let c = Clock::sim(&sim);
        let (tx, rx) = sync_channel::<u32>(1);
        let drainer = {
            let c2 = c.clone();
            c.spawn("drainer", move || {
                c2.sleep(Duration::from_millis(5));
                let mut got = Vec::new();
                while let Ok(v) = c2.recv(&rx) {
                    got.push(v);
                }
                got
            })
        };
        c.send(&tx, 1).unwrap(); // fills capacity
        c.send(&tx, 2).unwrap(); // must wait for the drainer
        drop(tx);
        assert_eq!(drainer.join().unwrap(), vec![1, 2]);
    }

    /// Run `f` on the system clock, then on a fresh sim clock with the
    /// calling thread registered as its main thread.
    fn on_both_clocks(f: impl Fn(Clock)) {
        f(Clock::system());
        let sim = SimClock::new();
        let _main = sim.register_main();
        f(Clock::sim(&sim));
    }

    // The three channel behaviours the serving code leans on, on both
    // clocks. (One sender's order is pinned elsewhere, by
    // `sim_blocking_send_waits_for_capacity`.)

    #[test]
    fn a_sender_blocked_in_send_observes_the_receivers_drop() {
        on_both_clocks(|c| {
            let (tx, rx) = sync_channel::<u32>(1);
            c.send(&tx, 1).unwrap(); // fills capacity
            let sender = {
                let c2 = c.clone();
                c.spawn("sender", move || c2.send(&tx, 2))
            };
            // Exact on virtual time (the sender is parked by now); on the
            // system clock the nap only makes that likely — dropped early,
            // the send fails at once, which is the same answer.
            c.sleep(Duration::from_millis(5));
            drop(rx);
            assert_eq!(sender.join().unwrap(), Err(SendError(2)));
        });
    }

    #[test]
    fn recv_timeout_tells_timeout_from_disconnect_after_a_drain() {
        on_both_clocks(|c| {
            let wait = Duration::from_millis(2);
            let (tx, rx) = sync_channel::<u32>(4);
            tx.send(1).unwrap();
            assert_eq!(c.recv_timeout(&rx, wait), Ok(1));
            assert_eq!(c.recv_timeout(&rx, wait), Err(RecvTimeoutError::Timeout), "sender alive");
            tx.send(2).unwrap();
            drop(tx);
            assert_eq!(c.recv_timeout(&rx, wait), Ok(2), "queued messages outlive their sender");
            assert_eq!(c.recv_timeout(&rx, wait), Err(RecvTimeoutError::Disconnected));
            assert_eq!(c.recv(&rx), Err(RecvError));
        });
    }

    #[test]
    fn each_senders_messages_arrive_in_the_order_it_sent_them() {
        on_both_clocks(|c| {
            // Capacity 2 against 2 × 50 messages: both senders block often.
            let (tx, rx) = sync_channel::<(u32, u32)>(2);
            let senders: Vec<_> = (0..2u32)
                .map(|who| {
                    let (c2, tx) = (c.clone(), tx.clone());
                    c.spawn("sender", move || {
                        for i in 0..50 {
                            c2.send(&tx, (who, i)).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut next = [0u32; 2];
            while let Ok((who, i)) = c.recv(&rx) {
                assert_eq!(i, next[who as usize], "sender {who} reordered");
                next[who as usize] += 1;
            }
            assert_eq!(next, [50, 50]);
            for s in senders {
                s.join().unwrap();
            }
        });
    }

    #[test]
    fn same_schedule_same_digest() {
        let run = || {
            let sim = SimClock::new();
            let _main = sim.register_main();
            let c = Clock::sim(&sim);
            let (tx, rx) = sync_channel::<u32>(2);
            let child = {
                let c2 = c.clone();
                c.spawn("child", move || {
                    for i in 0..10 {
                        c2.sleep(Duration::from_micros(100 + u64::from(i)));
                        let _ = tx.send(i);
                    }
                })
            };
            let mut sum = 0u32;
            while let Ok(v) = c.recv(&rx) {
                sum += v;
            }
            child.join().unwrap();
            let (digest, events) = sim.digest();
            (sum, c.now(), digest, events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        let result = std::thread::spawn(|| {
            let sim = SimClock::new();
            let _main = sim.register_main();
            let c = Clock::sim(&sim);
            let (_tx, rx) = sync_channel::<u32>(1);
            let _ = c.recv(&rx); // nobody will ever send, and _tx lives on
        })
        .join();
        let msg = *result.unwrap_err().downcast::<String>().expect("panic message");
        assert!(msg.contains("virtual-time deadlock"), "{msg}");
    }

    #[test]
    fn join_waits_in_virtual_time() {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let c = Clock::sim(&sim);
        let child = {
            let c2 = c.clone();
            c.spawn("sleepy", move || {
                c2.sleep(Duration::from_secs(2));
                42u32
            })
        };
        assert_eq!(child.join().unwrap(), 42);
        assert_eq!(c.now(), 2_000_000_000);
    }

    #[test]
    fn panicking_sim_thread_still_joins() {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let c = Clock::sim(&sim);
        let child = c.spawn("doomed", || panic!("scripted"));
        assert!(child.join().is_err(), "panic must surface through join");
    }
}
