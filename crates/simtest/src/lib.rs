//! # dini-simtest
//!
//! FoundationDB-style deterministic simulation testing for the whole
//! serving stack: the **actual** [`IndexServer`](dini_serve::IndexServer)
//! — replica claims, callers ranking beside each other, the writer's
//! snapshot/merge machinery — alone in a process or hosted by several
//! [`NetServer`](dini_net::NetServer)s behind a
//! [`RemoteClient`](dini_net::RemoteClient), with the wire between them
//! ([`ChanNet`](dini_net::transport::ChanNet), whose frames route
//! through `dini-cluster`'s seeded fate machinery), all on one seeded
//! [`SimClock`](dini_serve::SimClock), so
//!
//! * idle waits fast-forward: a multi-second soak finishes in
//!   milliseconds of wall-clock;
//! * hostile schedules are *scripted*, not hoped for: one
//!   [`FaultSchedule`] crashes or slows a shard or one replica at an
//!   exact virtual instant and makes links drop, duplicate, reorder,
//!   black out or sever, and a [`Step`] list kills a server process,
//!   restarts it from its snapshot and rejoins it;
//! * every run is reproducible: every thread (writers, acceptors,
//!   connection readers, client workers, probes) waits through the same
//!   clock, the scheduler folds its event trace into a digest, and the
//!   same deployment + seed yields the same digest bit-for-bit — a
//!   failure replays exactly.
//!
//! There is one description, [`Deployment`], one runner, [`run`], and
//! one outcome, [`Report`]. What a deployment *is* switches its oracles
//! on; there is no flag per oracle:
//!
//! 1. **Reply completeness** (always) — every issued lookup resolves
//!    exactly once, as a rank, a shed, or a shutdown; retries and
//!    duplicated frames must not double-resolve anything. The
//!    scheduler's deadlock detector enforces "at least once": a lost
//!    reply strands its waiter and panics the run instead of hanging.
//! 2. **Per-reply exactness** (static keys: no churn anywhere) — every
//!    rank is checked against `keys.partition_point` when it is reaped,
//!    drops, jitter and failover notwithstanding.
//! 3. **Mirror sweep, live-key accounting, replica convergence**
//!    (churn, beside the probes or step by step) — the one churn
//!    generator folds every acknowledged op into a `BTreeSet` mirror;
//!    after a quiesce barrier, sampled ranks through the deployment's
//!    front must match the mirror, the live-key count must equal its
//!    size, and every server process that kept its link must hold
//!    exactly its span's slice of it (set size and local ranks), so a
//!    dropped, duplicated or blacked-out update frame can never silently
//!    diverge one replica. In process the sweep runs for static keys
//!    too: it costs no wire traffic.
//! 4. **Latency bound** ([`Deployment::latency_bound`]) — in virtual
//!    time service is instantaneous and delays are only what the
//!    description injects, so a *tight* bound holds: on every server's
//!    worst served latency and traced stage span, and over a wire on
//!    what the probes observed.
//! 5. **Accounting** (always) — no reply without an admission; in
//!    process, where the probes are the only way in, client- and
//!    server-side sheds match exactly; with wire stats polls, every
//!    mid-load poll is monotone and never ahead of admissions, and a
//!    final poll per single-endpoint span, read through `ServeStats`,
//!    equals that process's own `stats()` — every count and both
//!    histograms — and its live-key count.
//! 6. **Stage timing** (tracing on, sampled or dense) — on *every*
//!    server process, each sampled record advances monotonically
//!    through admitted → collected → dispatched → answered → filled,
//!    names a shard and replica that exist, and carries a batch length
//!    no longer than what its caller held: in process a probe's lone
//!    lookup or open group, so `1..=GROUP`; over a wire a client frame
//!    the connection reader ranks as one batch per shard, so
//!    `1..=max_batch`, the client's frame size.
//! 7. **Causal stitching** (dense tracing over a wire) — client wire
//!    records and server stage records must stitch into timelines on
//!    the shared trace id, each monotone on the one virtual clock.
//! 8. **Journals agree with counters** ([`Deployment::flight`]) — the
//!    client's flight journal holds one record per counted election and
//!    update resend (and shows every kill and rejoin); a killed
//!    server's journal, read cold off disk, tells exactly its
//!    checkpoint counters' story, and its restart appends past it.
//!
//! Scenario tests live in `tests/` and sweep a seed matrix sized by
//! `DINI_SIMTEST_SEEDS`, each run executed twice
//! ([`run_reproducibly`]). `tests/golden.txt` pins `(digest, events,
//! virtual_ns)` of every scenario × seeds 0–7, so a change to the
//! harness, or to anything under it, that moves a schedule has to edit
//! that file.
//!
//! ## Running a deployment
//!
//! A deployment is plain data: describe the topology, the servers, the
//! load and the faults, then run it under a seed — every thread
//! executes on virtual time and the call returns a deterministic
//! [`Report`]:
//!
//! ```
//! use dini_simtest::{run, Deployment};
//!
//! let mut d = Deployment::in_process("doc-example");
//! d.clients = 1;
//! d.lookups_per_client = 50;
//! d.replicas_per_shard = 2; // a replica group per shard
//! let report = run(&d, 42);
//! assert_eq!(report.issued, 50);
//! assert_eq!(report.ok, 50, "fault-free: every lookup answers");
//! assert_eq!(report.per_replica_served.len(), d.shards * 2);
//! assert_eq!(run(&d, 42), report, "same seed, same run");
//!
//! // The same load through a client, over a wire, to one server process.
//! d.spans = 1;
//! d.latency_bound = None; // links add to what a probe sees
//! let wired = run(&d, 42);
//! assert_eq!((wired.issued, wired.ok), (report.issued, report.ok));
//! ```

#![warn(missing_docs)]

mod oracles;
mod run;

pub use run::run;

use dini_cluster::{Fault, FaultSchedule};
use dini_workload::ArrivalProcess;
use std::time::Duration;

/// One deterministic deployment: a topology, a server shape, a load, a
/// fault schedule, and what to hold the run to.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Name (labels panics, reports and scratch directories).
    pub name: &'static str,
    /// Server *processes* along the key space, each reached over a
    /// [`ChanNet`](dini_net::transport::ChanNet) link through one
    /// `RemoteClient`. Zero is the in-process deployment: one
    /// `IndexServer`, probed through its own handle, no wire.
    pub spans: usize,
    /// Replica endpoints per span (independent full copies; the client
    /// fails over between them). Endpoints are numbered span-major.
    pub endpoints_per_span: usize,
    /// Initial sorted key count (split evenly across spans).
    pub n_keys: usize,
    /// Shards inside each server.
    pub shards: usize,
    /// Replicas per shard — independent claims (more than one enables failover
    /// and load-aware routing inside a server).
    pub replicas_per_shard: usize,
    /// Keys per client frame (over a wire; a server has no batch knob —
    /// its callers rank what they hold).
    pub max_batch: usize,
    /// Keys the client's outbox holds per span before it sheds (over a
    /// wire; in process nothing queues).
    pub queue_capacity: usize,
    /// Writer delta budget before a merge — and, with
    /// [`flight`](Self::flight), a checkpoint. Small → a churn storm
    /// checkpoints itself; huge → only quiesce barriers do.
    pub merge_threshold: usize,
    /// Writer ops per snapshot publication.
    pub publish_every: usize,
    /// Client resend timeout for unanswered lookup batches.
    pub retry_timeout: Duration,
    /// Client retry budget before declaring an endpoint dead.
    pub max_retries: u32,
    /// Open-loop probe threads.
    pub clients: usize,
    /// Arrivals issued per probe.
    pub lookups_per_client: usize,
    /// Per-probe arrival process (virtual time).
    pub arrival: ArrivalProcess,
    /// Lookups a probe begins back to back at each arrival instant,
    /// reaping only before the first (1: every arrival alone). A burst
    /// is how a pipelined caller fills a client's open frame faster
    /// than a reap writes it.
    pub burst: usize,
    /// Churn operations fed *beside* the probes by a dedicated thread
    /// (0 = none). Over a wire they ride the replicated churn log: each
    /// op resolves only once quorum-acked. A deployment churns here or
    /// through [`Step::Churn`], not both — the mirror has one owner.
    pub churn_ops: usize,
    /// Virtual pause between those operations.
    pub churn_gap: Duration,
    /// Everything the run injects: the rates of every link, dispatch
    /// jitter, and the timed crashes, straggles, severances and
    /// partitions. Every server reads its replicas' faults from it and
    /// every link its own; its seed is the run's (the runner stamps
    /// it). A severance is the network view of an endpoint crash; a
    /// partition is one that heals.
    pub faults: FaultSchedule,
    /// What the driving thread does, in order, while the probes run.
    pub lifecycle: Vec<Step>,
    /// Upper bound on the worst latency, where the deployment measures
    /// it: every server's served latency and traced stage spans, and —
    /// over a wire — what the probes observed, issue to reap (they reap
    /// on a 100 µs cadence, already included in the bound you pass).
    /// Service is instantaneous on virtual time, so the in-process
    /// baseline's bound is zero and a bound is a sum of injected delays.
    /// `None` disables it (overload, or drops, where tails legitimately
    /// include queueing or retry timeouts).
    pub latency_bound: Option<Duration>,
    /// Mid-load `StatsRequest` polls per span from a dedicated thread
    /// (0 = none; needs a wire).
    pub stats_polls: usize,
    /// Virtual pause between stats polls.
    pub stats_poll_gap: Duration,
    /// Stage-trace sampling period on the client and every server
    /// (1 = trace everything, 0 = off). Dense tracing over a wire is
    /// for clean links only: a retried frame re-encodes, so a reply
    /// answered from an earlier delivered attempt would legitimately
    /// violate cross-attempt ordering.
    pub trace_sample_period: u64,
    /// Keep crash-safe state in a per-run scratch directory: a flight
    /// journal for the client and for every server, and a snapshot
    /// store per server — what [`Step::Restart`] recovers from.
    pub flight: bool,
}

/// One step of a deployment's [lifecycle](Deployment::lifecycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Let virtual time pass.
    Pause(Duration),
    /// Feed this many churn ops, each acknowledged before the next (so
    /// the mirror is exact at every instant).
    Churn(usize),
    /// Barrier: every fed op applied and published — with
    /// [`Deployment::flight`], checkpointed — everywhere.
    Quiesce,
    /// [`Quiesce`](Self::Quiesce), then check this many sampled ranks
    /// through the front against the mirror.
    Sweep(usize),
    /// Kill this endpoint's server process, crash-like: no parting
    /// checkpoint. Its journal is read cold off disk and must match the
    /// checkpoint counters it had.
    Kill(usize),
    /// Restart a killed endpoint by *mapping* its last snapshot (a
    /// sort-rebuild fallback fails the run). The client must already
    /// see it dead.
    Restart(usize),
    /// Have the client re-dial a restarted endpoint and wait until it
    /// is live; the churn-log suffix past its recovered watermark is
    /// replayed to it.
    Rejoin(usize),
}

impl Deployment {
    /// A small, fast, fault-free in-process baseline; override fields
    /// per test.
    pub fn in_process(name: &'static str) -> Self {
        Self {
            name,
            spans: 0,
            endpoints_per_span: 1,
            n_keys: 8_192,
            shards: 3,
            replicas_per_shard: 1,
            max_batch: 32,
            queue_capacity: 1024,
            merge_threshold: 4096,
            publish_every: 64,
            retry_timeout: Duration::from_millis(5),
            max_retries: 40,
            clients: 3,
            lookups_per_client: 400,
            arrival: ArrivalProcess::poisson_rate(20_000.0),
            burst: 1,
            churn_ops: 0,
            churn_gap: Duration::from_micros(50),
            faults: FaultSchedule { latency: Duration::from_micros(50), ..Default::default() },
            lifecycle: Vec::new(),
            latency_bound: Some(Duration::ZERO),
            stats_polls: 0,
            stats_poll_gap: Duration::from_micros(500),
            trace_sample_period: 64,
            flight: false,
        }
    }

    /// A small, fast, fault-free two-process baseline over 50 µs links.
    pub fn wire(name: &'static str) -> Self {
        Self {
            spans: 2,
            shards: 2,
            max_batch: 64,
            clients: 2,
            lookups_per_client: 300,
            latency_bound: None,
            ..Self::in_process(name)
        }
    }

    /// A small, fast kill-and-recover baseline: one span, two replica
    /// endpoints under quorum-acked churn, no probes. Endpoint 1 is
    /// killed after a checkpointing barrier, churn continues through
    /// the survivor (quorum degrades 2 → 1), then the victim restarts
    /// from its snapshot, replays the log suffix and rejoins; the ops
    /// after the rejoin need a quorum of 2 again, so their `Ok`s prove
    /// the revived endpoint applied the whole replayed suffix.
    pub fn restart(name: &'static str) -> Self {
        Self {
            spans: 1,
            endpoints_per_span: 2,
            n_keys: 2_048,
            merge_threshold: 1 << 30,
            retry_timeout: Duration::from_millis(2),
            clients: 0,
            flight: true,
            lifecycle: vec![
                Step::Churn(200),
                Step::Quiesce,
                Step::Kill(1),
                Step::Churn(200),
                Step::Sweep(128),
                Step::Restart(1),
                Step::Rejoin(1),
                Step::Churn(100),
                Step::Sweep(128),
            ],
            ..Self::wire(name)
        }
    }

    /// Does any op ever reach the index — is there a mirror to check?
    pub(crate) fn churns(&self) -> bool {
        self.churn_ops > 0 || self.has_step(Step::Churn(0))
    }

    /// Key-space owners (shards in process, spans over a wire) the
    /// description takes down for good, so no probe after the load can
    /// expect an answer from them: a shard-wide crash or crashes
    /// covering every replica of a shard; a span whose every endpoint
    /// link is severed. One survivor keeps an owner answering.
    pub(crate) fn dark_owners(&self) -> Vec<usize> {
        if self.spans == 0 {
            let crashed = |s: usize, r: usize| {
                self.faults.events.iter().any(|e| {
                    matches!(*e, Fault::Crash { shard, replica, .. }
                        if shard == s && replica.is_none_or(|x| x == r))
                })
            };
            (0..self.shards)
                .filter(|&s| (0..self.replicas_per_shard).all(|r| crashed(s, r)))
                .collect()
        } else {
            (0..self.spans)
                .filter(|&s| {
                    (0..self.endpoints_per_span)
                        .all(|e| self.severed(s * self.endpoints_per_span + e))
                })
                .collect()
        }
    }

    /// Does the lifecycle contain a step like `like` (payload aside)?
    pub(crate) fn has_step(&self, like: Step) -> bool {
        self.lifecycle.iter().any(|s| std::mem::discriminant(s) == std::mem::discriminant(&like))
    }

    /// Is this endpoint's link severed at some point of the run?
    pub(crate) fn severed(&self, endpoint: usize) -> bool {
        self.faults
            .events
            .iter()
            .any(|e| matches!(*e, Fault::Sever { endpoint: ep, .. } if ep == endpoint))
    }
}

/// Deterministic outcome of one run. Two runs of the same deployment
/// with the same seed produce `Report`s that compare equal — including
/// the scheduler's event-trace `digest`, which pins the entire thread
/// interleaving, not just the totals. Server-side fields sum over every
/// server process alive at the end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// FNV-1a fold of every scheduling event (block/wake/advance/…).
    pub digest: u64,
    /// Number of scheduling events folded into `digest`.
    pub events: u64,
    /// Virtual time the whole deployment consumed.
    pub virtual_ns: u64,
    /// Lookups issued by all probes.
    pub issued: u64,
    /// Lookups answered with a rank.
    pub ok: u64,
    /// Lookups shed by admission control (client-observed).
    pub shed: u64,
    /// Lookups answered `ShuttingDown` (crashed shard, at submit or in
    /// flight).
    pub shutdown: u64,
    /// Worst probe-observed latency (issue → reap), virtual ns.
    pub max_client_latency_ns: u64,
    /// Queries served (server-side).
    pub served: u64,
    /// Requests admitted (server-side).
    pub admitted: u64,
    /// Worst served latency in virtual nanoseconds (server-side).
    pub max_latency_ns: u64,
    /// Worst traced coalescing wait (admission → batch closed), virtual
    /// nanoseconds; over every request under dense tracing, 0 with
    /// tracing off. What the group-commit scenarios bound.
    pub max_wait_ns: u64,
    /// Writer merges (index rebuilds).
    pub merges: u64,
    /// Snapshot epochs published.
    pub snapshots: u64,
    /// Churn operations that mutated some server's index.
    pub updates_applied: u64,
    /// Queries served per server process (span-major; one entry in
    /// process; 0 for a process that is down at the end).
    pub served_per_server: Vec<u64>,
    /// Queries served per replica, server-major then
    /// `shard * replicas_per_shard + replica` — the breakdown the
    /// straggler and load-balance oracles read.
    pub per_replica_served: Vec<u64>,
    /// Stage-trace records sampled across all replicas of all servers,
    /// each one held to the stage-timing oracle.
    pub trace_records: u64,
    /// Requests re-routed to a surviving sibling: from a crashed
    /// replica inside a server, or from a dead endpoint by the client.
    pub rerouted: u64,
    /// Lookup batches the client resent after a reply timeout.
    pub retries: u64,
    /// Churn-log suffixes resent to lagging or lossy endpoints (a
    /// rejoin's catch-up rides this path).
    pub update_resends: u64,
    /// Churn-log epoch bumps (an endpoint died with appends pending).
    pub elections: u64,
    /// Exact-rank assertions performed (per reply, post-quiesce sweeps,
    /// replica convergence).
    pub oracle_checks: u64,
    /// Mid-load wire stats polls that came back (each one checked for
    /// monotone accounting).
    pub stats_polls_ok: u64,
    /// Client↔server causal timelines stitched post-run (dense tracing
    /// over a wire; each one asserted monotone on virtual time).
    pub stitched_timelines: u64,
    /// Events in the client's flight journal at the end.
    pub flight_events: u64,
    /// Live keys at the end (equals the mirror's size under churn).
    pub live_keys: u64,
    /// Churn-log seq of the victim's span at the last [`Step::Kill`]
    /// (what the survivors had acked).
    pub seq_at_kill: u64,
    /// Events the last victim's flight journal held at its kill, read
    /// cold off disk.
    pub flight_events_at_kill: u64,
    /// The `(epoch, seq)` watermark the last [`Step::Restart`] recovered
    /// at, having mapped a valid snapshot — its state folds exactly the
    /// churn-log prefix up to this point. `None` if nothing restarted.
    pub recovered_watermark: Option<(u64, u64)>,
}

/// Run the deployment twice with the same seed and assert the runs are
/// identical — totals *and* the full event-trace digest — then return
/// the report. This is the reproducibility contract every scenario test
/// goes through: a kill, a snapshot map, a suffix replay and a rejoin
/// must be as replayable as everything else.
pub fn run_reproducibly(d: &Deployment, seed: u64) -> Report {
    let a = run(d, seed);
    let b = run(d, seed);
    assert_eq!(
        a, b,
        "[{}] seed {seed} did not reproduce: wall-clock (or leftover scratch state) leaked \
         into the simulation",
        d.name
    );
    a
}

/// The seed matrix: `DINI_SIMTEST_SEEDS` selects how many seeds to
/// sweep (default 3; CI sets 8 and 16). Virtual time makes extra seeds
/// cheap. A value that is not a count in `1..=64` panics rather than
/// silently shrinking the advertised matrix.
pub fn seeds_from_env() -> Vec<u64> {
    (0..std::env::var("DINI_SIMTEST_SEEDS").map_or(3, |v| seed_count(&v))).collect()
}

fn seed_count(v: &str) -> u64 {
    match v.trim().parse::<u64>() {
        Ok(n) if (1..=64).contains(&n) => n,
        _ => panic!("DINI_SIMTEST_SEEDS must be a seed count in 1..=64, got {v:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_scenario_is_clean_and_reproducible() {
        let report = run_reproducibly(&Deployment::in_process("unit-base"), 1);
        assert_eq!(report.issued, 3 * 400);
        assert_eq!(report.shed, 0);
        assert_eq!(report.shutdown, 0);
        assert!(report.oracle_checks > 1000);
        assert!(report.virtual_ns > 0);
    }

    #[test]
    fn distinct_seeds_distinct_schedules() {
        let d = Deployment::in_process("unit-seeds");
        let a = run(&d, 1);
        let b = run(&d, 2);
        assert_ne!(a.digest, b.digest, "different seeds must interleave differently");
    }

    #[test]
    #[should_panic(expected = "[unit-sever-nowhere] Sever { endpoint: 2")]
    fn a_link_event_past_the_last_endpoint_is_refused() {
        let mut d = Deployment::wire("unit-sever-nowhere");
        d.faults.events.push(Fault::Sever { endpoint: 2, at: Duration::from_millis(1) });
        run(&d, 0);
    }

    #[test]
    fn seed_counts_outside_the_range_are_refused_not_clamped() {
        assert_eq!(seed_count("8 "), 8);
        for bad in ["0", "65", "eight"] {
            let panic = std::panic::catch_unwind(|| seed_count(bad)).expect_err(bad);
            let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains(&format!("in 1..=64, got {bad:?}")), "{msg}");
        }
    }
}
