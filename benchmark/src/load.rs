//! The load generator: one thread, a closed loop for capacity and an
//! open loop for latency, the same code for an in-process
//! [`ServerHandle`] and a [`NetHandle`] over a wire.
//!
//! Window and rates are constants, not functions of measured speed, and
//! the generator never sleeps: it spins on the clock, so its lateness is
//! the host's doing, and is reported.

use crate::oracle::{rank_in, RankWindow, Tally};
use crate::refk::{Blend, RefSample, Reference};
use crate::spans::{Recorder, ROOT};
use crate::stats::Pair;
use dini_net::{NetHandle, PendingNetLookup};
use dini_serve::{IndexServer, PendingLookup, ServeError, ServerHandle};
use dini_workload::Op;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Lookups in flight in the closed loop.
pub const WINDOW: usize = 256;
/// Admission queue bound the benchmark configures (server and client):
/// deep enough that a one-second host stall at the highest paced rate is
/// queued, not shed — a refusal would count as a failed operation, and
/// this host has descheduled a vCPU for over 100 ms mid-run.
pub const QUEUE_CAPACITY: usize = 1 << 16;
/// One request in this many carries spans in a traced run.
const SPAN_EVERY: u64 = 64;
/// Length of a measured slice and of the reference slice after it.
pub const SLICE: Duration = Duration::from_millis(200);
/// See [`SLICE`].
pub const REF_SLICE: Duration = Duration::from_millis(100);

/// Something lookups can be submitted to and reaped from.
pub trait Target {
    /// A lookup in flight.
    type Pending;
    /// Submit without waiting; `Err` is a refusal (shed).
    fn begin(&self, key: u32) -> Result<Self::Pending, ServeError>;
    /// Block for the rank.
    fn wait(p: Self::Pending) -> Result<u32, ServeError>;
    /// The rank if it has arrived.
    fn poll(p: &Self::Pending) -> Option<Result<u32, ServeError>>;
}

impl Target for ServerHandle {
    type Pending = PendingLookup;
    fn begin(&self, key: u32) -> Result<PendingLookup, ServeError> {
        self.begin_lookup(key)
    }
    fn wait(p: PendingLookup) -> Result<u32, ServeError> {
        p.wait()
    }
    fn poll(p: &PendingLookup) -> Option<Result<u32, ServeError>> {
        p.poll()
    }
}

impl Target for NetHandle {
    type Pending = PendingNetLookup;
    fn begin(&self, key: u32) -> Result<PendingNetLookup, ServeError> {
        self.begin_lookup(key)
    }
    fn wait(p: PendingNetLookup) -> Result<u32, ServeError> {
        p.wait()
    }
    fn poll(p: &PendingNetLookup) -> Option<Result<u32, ServeError>> {
        p.poll()
    }
}

/// The cycled query stream.
pub struct Queries<'a> {
    keys: &'a [u32],
    at: usize,
}

impl<'a> Queries<'a> {
    /// Start at the beginning of `keys`.
    pub fn new(keys: &'a [u32]) -> Self {
        Self { keys, at: 0 }
    }

    /// Next key, wrapping.
    #[inline]
    pub fn next(&mut self) -> u32 {
        let k = self.keys[self.at];
        self.at += 1;
        if self.at == self.keys.len() {
            self.at = 0;
        }
        k
    }
}

/// An insert/delete stream issued by the generator thread beside its
/// reads: one `update_batch` of [`CHURN_BATCH`] every `every`.
pub struct ChurnFeed<'a> {
    server: &'a IndexServer,
    ops: &'a [Op],
    every: Duration,
    /// Operations sent so far (a prefix of `ops`).
    pub sent: usize,
    next_due: Instant,
    /// What the operations sent so far allow a reply to be.
    pub window: RankWindow,
}

/// Operations per churn batch.
pub const CHURN_BATCH: usize = 20;

impl<'a> ChurnFeed<'a> {
    /// A feed over `ops` at `ops_per_s`, first batch due now.
    pub fn new(server: &'a IndexServer, ops: &'a [Op], ops_per_s: f64) -> Self {
        let every = Duration::from_secs_f64(CHURN_BATCH as f64 / ops_per_s);
        Self { server, ops, every, sent: 0, next_due: Instant::now(), window: RankWindow::new() }
    }

    /// Send every batch that is due. Returns failed submissions.
    fn tick(&mut self, now: Instant) -> u64 {
        let mut failed = 0;
        while now >= self.next_due && self.sent + CHURN_BATCH <= self.ops.len() {
            let batch = &self.ops[self.sent..self.sent + CHURN_BATCH];
            for &op in batch {
                self.window.sent(op);
            }
            if self.server.update_batch(batch.to_vec()).is_err() {
                failed += CHURN_BATCH as u64;
            }
            self.sent += CHURN_BATCH;
            self.next_due += self.every;
        }
        failed
    }
}

/// How replies are judged.
pub struct Judge<'a> {
    /// The benchmark's own sorted copy of the keys the server was built on.
    pub base: &'a [u32],
    /// Check one reply in this many (1 under `--smoke`).
    pub every: u64,
}

impl Judge<'_> {
    #[inline]
    fn reply(
        &self,
        n: u64,
        q: u32,
        got: Result<u32, ServeError>,
        churn: Option<&ChurnFeed>,
        t: &mut Tally,
    ) {
        match got {
            Err(_) => t.failed += 1,
            Ok(rank) if n.is_multiple_of(self.every) => match churn {
                Some(c) => t.check_window(rank, c.window.allowed(self.base, q)),
                None => t.check(rank, rank_in(self.base, q)),
            },
            Ok(_) => {}
        }
    }
}

/// Result of a closed-loop phase.
#[derive(Default)]
pub struct CapacityOut {
    /// One entry per measured slice.
    pub pairs: Vec<Pair>,
    /// The reference sample taken after each slice.
    pub refs: Vec<RefSample>,
    /// Whether spans were recorded during each slice (traced runs
    /// alternate, which prices the recorder).
    pub spans_on: Vec<bool>,
    /// Operation counts.
    pub tally: Tally,
}

struct InFlight<P> {
    key: u32,
    pending: P,
    /// Start and end of the submit call on the recorder's clock (0 = this
    /// request carries no spans).
    submit: (u64, u64),
}

fn record_request(rec: &mut Recorder, req: u64, submit: (u64, u64), done: u64) {
    let id = rec.push("request", submit.0, done, ROOT, req);
    rec.push("submit", submit.0, submit.1, id, req);
    rec.push("await", submit.1, done, id, req);
}

/// The closed loop's state between slices: what is in flight, and what
/// has been counted.
pub struct ClosedLoop<T: Target> {
    flight: VecDeque<InFlight<T::Pending>>,
    n: u64,
    /// Operation counts so far.
    pub tally: Tally,
    /// Duration of the submit call of every span-carrying request, ns.
    pub submit_ns: Vec<f64>,
}

impl<T: Target> ClosedLoop<T> {
    /// Nothing in flight.
    pub fn new() -> Self {
        Self {
            flight: VecDeque::with_capacity(WINDOW),
            n: 0,
            tally: Tally::default(),
            submit_ns: Vec::with_capacity(1 << 14),
        }
    }

    /// Keep [`WINDOW`] lookups in flight for `dur`; returns how many
    /// completed. With `spans`, one request in [`SPAN_EVERY`] records its
    /// `request` / `submit` / `await` spans.
    #[allow(clippy::too_many_arguments)]
    pub fn slice(
        &mut self,
        target: &T,
        queries: &mut Queries,
        dur: Duration,
        judge: &Judge,
        mut churn: Option<&mut ChurnFeed>,
        rec: &mut Recorder,
        spans: bool,
    ) -> u64 {
        let t0 = Instant::now();
        let mut done = 0u64;
        loop {
            for _ in 0..64 {
                if self.flight.len() == WINDOW {
                    let f = self.flight.pop_front().expect("window is full");
                    let got = T::wait(f.pending);
                    if f.submit.1 != 0 {
                        let now = rec.now();
                        record_request(rec, self.n, f.submit, now);
                    }
                    judge.reply(self.n, f.key, got, churn.as_deref(), &mut self.tally);
                    done += 1;
                    self.n += 1;
                }
                let key = queries.next();
                self.tally.attempted += 1;
                let sample = spans && self.tally.attempted.is_multiple_of(SPAN_EVERY);
                let s0 = if sample { rec.now() } else { 0 };
                match target.begin(key) {
                    Ok(pending) => {
                        let submit = if sample { (s0, rec.now().max(s0 + 1)) } else { (0, 0) };
                        if sample {
                            self.submit_ns.push((submit.1 - submit.0) as f64);
                        }
                        self.flight.push_back(InFlight { key, pending, submit });
                    }
                    Err(_) => self.tally.failed += 1,
                }
            }
            let now = Instant::now();
            if let Some(c) = churn.as_deref_mut() {
                let failed = c.tick(now);
                self.tally.attempted += failed;
                self.tally.failed += failed;
            }
            if now.duration_since(t0) >= dur {
                return done;
            }
        }
    }

    /// Wait for everything still in flight.
    pub fn drain(&mut self, judge: &Judge, churn: Option<&ChurnFeed>) {
        while let Some(f) = self.flight.pop_front() {
            let got = T::wait(f.pending);
            judge.reply(self.n, f.key, got, churn, &mut self.tally);
            self.n += 1;
        }
    }
}

/// Closed loop for `dur`, in slices of [`SLICE`] each followed by a
/// reference slice.
#[allow(clippy::too_many_arguments)]
pub fn capacity<T: Target>(
    target: &T,
    queries: &mut Queries,
    dur: Duration,
    reference: &mut Reference,
    blend: Blend,
    judge: &Judge,
    mut churn: Option<&mut ChurnFeed>,
    rec: &mut Recorder,
) -> CapacityOut {
    let mut out = CapacityOut::default();
    let mut lp = ClosedLoop::<T>::new();
    let end = Instant::now() + dur;
    while Instant::now() < end {
        // Traced runs record spans on every other slice.
        let spans = rec.on() && out.pairs.len() % 2 == 0;
        let t0 = Instant::now();
        let done = lp.slice(target, queries, SLICE, judge, churn.as_deref_mut(), rec, spans);
        let rate = done as f64 / t0.elapsed().as_secs_f64();
        let (sample, speed) = reference.measure(REF_SLICE, blend);
        out.pairs.push(Pair { rate, speed });
        out.refs.push(sample);
        out.spans_on.push(spans);
    }
    lp.drain(judge, churn.as_deref());
    out.tally = lp.tally;
    if let Some(c) = churn {
        out.tally.attempted += c.sent as u64;
    }
    out
}

/// A tick with no reply: the generator skipped it, or it was refused.
pub const NO_REPLY: u32 = u32::MAX;
/// A window is calm when at most this share of its ticks found the
/// generator more than one gap late.
const CALM_LATE_SHARE: f64 = 0.05;
/// The paced phase may run this many times its nominal length looking
/// for calm windows.
const MAX_STRETCH: usize = 4;

/// Result of an open-loop phase. Vectors are indexed by tick, in due
/// order.
#[derive(Default)]
pub struct PacedOut {
    /// Due time → reply observed, nanoseconds ([`NO_REPLY`] where none).
    pub latency_ns: Vec<u32>,
    /// Due time → generator ready to submit, nanoseconds.
    pub late_ns: Vec<u32>,
    /// Ticks per window.
    pub window: usize,
    /// Per complete window: did the generator keep its own schedule?
    pub calm: Vec<bool>,
    /// Ticks not sent because the generator itself was over
    /// [`GENERATOR_STALL`] late for them.
    pub skipped: u64,
    /// Operation counts.
    pub tally: Tally,
}

fn clamp_ns(d: Duration) -> u32 {
    d.as_nanos().min(NO_REPLY as u128 - 1) as u32
}

/// A generator this late for a tick was descheduled by the host: the
/// tick is dropped and counted instead of sent, because catching up would
/// hand the server a burst of hundreds of lookups that the workload ("one
/// every 1 / rate seconds") does not contain.
const GENERATOR_STALL: Duration = Duration::from_millis(1);

/// Open loop: one lookup every `1 / rate` seconds, whatever the replies
/// do; latency runs from the due time. The phase lasts until `dur` worth
/// of `window`-tick windows were *calm* — the generator itself kept its
/// schedule in them — or [`MAX_STRETCH`] times `dur`, whichever is first:
/// a window in which the load generator could not run on time measures
/// the host, not the program.
#[allow(clippy::too_many_arguments)]
pub fn paced<T: Target>(
    target: &T,
    queries: &mut Queries,
    dur: Duration,
    rate: f64,
    window: usize,
    judge: &Judge,
    mut churn: Option<&mut ChurnFeed>,
    rec: &mut Recorder,
) -> PacedOut {
    let nominal = (dur.as_secs_f64() * rate) as usize;
    let window = window.clamp(1, nominal.max(1));
    let want_calm = (nominal / window).max(1);
    let max_ticks = nominal * MAX_STRETCH;
    let gap = Duration::from_secs_f64(1.0 / rate);
    let mut out = PacedOut {
        latency_ns: vec![NO_REPLY; max_ticks],
        late_ns: Vec::with_capacity(max_ticks),
        window,
        calm: Vec::with_capacity(max_ticks / window + 1),
        skipped: 0,
        tally: Tally::default(),
    };
    struct Due<P> {
        tick: usize,
        due: Instant,
        flight: InFlight<P>,
    }
    let mut flight: VecDeque<Due<T::Pending>> = VecDeque::with_capacity(4096);
    let mut n = 0u64;
    let start = Instant::now();
    let mut reap = |flight: &mut VecDeque<Due<T::Pending>>,
                    out: &mut PacedOut,
                    now: Instant,
                    churn: Option<&ChurnFeed>,
                    rec: &mut Recorder| {
        while let Some(got) = flight.front().and_then(|d| T::poll(&d.flight.pending)) {
            let d = flight.pop_front().expect("front was polled");
            out.latency_ns[d.tick] = clamp_ns(now.duration_since(d.due));
            if d.flight.submit.1 != 0 {
                rec.push("late", rec.at(d.due), d.flight.submit.0, ROOT, n);
                record_request(rec, n, d.flight.submit, rec.at(now));
            }
            judge.reply(n, d.flight.key, got, churn, &mut out.tally);
            n += 1;
        }
    };
    let mut late_in_window = 0usize;
    let mut calm_windows = 0usize;
    for tick in 0..max_ticks {
        let due = start + gap.mul_f64(tick as f64);
        let mut now = Instant::now();
        loop {
            reap(&mut flight, &mut out, now, churn.as_deref(), rec);
            if now >= due {
                break;
            }
            now = Instant::now();
        }
        let late = now.duration_since(due);
        out.late_ns.push(clamp_ns(late));
        late_in_window += (late > gap) as usize;
        if late > GENERATOR_STALL {
            out.skipped += 1;
        } else {
            let key = queries.next();
            out.tally.attempted += 1;
            let sample = rec.on() && out.tally.attempted.is_multiple_of(SPAN_EVERY);
            let s0 = if sample { rec.at(now) } else { 0 };
            match target.begin(key) {
                Ok(pending) => {
                    let submit = if sample { (s0, rec.now().max(s0 + 1)) } else { (0, 0) };
                    flight.push_back(Due { tick, due, flight: InFlight { key, pending, submit } });
                }
                Err(_) => out.tally.failed += 1,
            }
            if let Some(c) = churn.as_deref_mut() {
                let failed = c.tick(now);
                out.tally.attempted += failed;
                out.tally.failed += failed;
            }
        }
        if (tick + 1) % window == 0 {
            let calm = late_in_window as f64 <= CALM_LATE_SHARE * window as f64;
            out.calm.push(calm);
            calm_windows += calm as usize;
            late_in_window = 0;
            if calm_windows >= want_calm {
                break;
            }
        }
    }
    // Drain: everything still in flight is waited for, and still timed
    // from its due time.
    while let Some(d) = flight.pop_front() {
        let got = T::wait(d.flight.pending);
        out.latency_ns[d.tick] = clamp_ns(Instant::now().duration_since(d.due));
        judge.reply(n, d.flight.key, got, churn.as_deref(), &mut out.tally);
        n += 1;
    }
    out.latency_ns.truncate(out.late_ns.len());
    if let Some(c) = churn {
        out.tally.attempted += c.sent as u64;
    }
    out
}
