//! # dini-simtest
//!
//! FoundationDB-style deterministic simulation testing for the
//! `dini-serve` stack: the **actual** [`IndexServer`] — dispatchers,
//! admission queues, the writer's snapshot/merge machinery, and
//! open-loop arrival processes — runs on a seeded
//! [`SimClock`], so
//!
//! * idle waits fast-forward: a multi-second soak finishes in
//!   milliseconds of wall-clock;
//! * hostile schedules are *scripted*, not hoped for: a
//!   [`ServeFaultPlan`] crashes a shard (or one replica of it)
//!   mid-batch, jitters the dispatch path, or turns one shard or
//!   replica into a straggler at an exact virtual instant — and the
//!   replica scenarios then hold failover to "degraded capacity, never
//!   errors": a crashed replica's backlog must be re-routed and
//!   answered exactly, not resolved to `ShuttingDown`;
//! * every run is reproducible: the scheduler folds its event trace
//!   into a digest, and the same scenario + seed yields the same digest
//!   bit-for-bit — a failure replays exactly.
//!
//! The crate exposes a scenario runner ([`run_scenario`]) whose
//! invariant oracles hold for *every* scenario:
//!
//! 1. **Reply completeness** — every issued lookup resolves exactly
//!    once, as a rank, a shed, or a shutdown. (The scheduler's deadlock
//!    detector enforces the "at least once" half: a lost reply strands
//!    its waiter and panics the run instead of hanging.)
//! 2. **Answer correctness** — with no concurrent churn, every rank is
//!    checked against `keys.partition_point`; with churn, a
//!    post-quiesce sweep checks ranks against a replayed `BTreeSet`
//!    mirror of the deterministic churn stream.
//! 3. **Latency bound** — in virtual time, service is instantaneous and
//!    delays are only what the configuration and fault plan inject, so
//!    the scenario can assert a *tight* bound on the worst served
//!    latency (the configured `max_delay`, zero by default, + a small
//!    multiple of the injected delays) — a bound wall-clock tests could
//!    never hold.
//! 4. **Accounting** — client-side and server-side counters agree
//!    (sheds match exactly; no reply without an admission).
//!
//! Scenario tests live in `tests/scenarios.rs` and run across a seed
//! matrix sized by the `DINI_SIMTEST_SEEDS` env var.
//!
//! ## Running a scenario
//!
//! A scenario is plain data: describe the server, the load, and the
//! faults, then run it under a seed — the whole multi-threaded server
//! executes on virtual time and the call returns a deterministic
//! [`Report`]:
//!
//! ```
//! use dini_simtest::{run_scenario, Scenario};
//!
//! let mut sc = Scenario::base("doc-example");
//! sc.clients = 1;
//! sc.lookups_per_client = 50;
//! sc.replicas_per_shard = 2; // a replica group per shard
//! let report = run_scenario(&sc, 42);
//! assert_eq!(report.issued, 50);
//! assert_eq!(report.ok, 50, "fault-free: every lookup answers");
//! assert_eq!(report.per_replica_served.len(), sc.shards * 2);
//! assert_eq!(run_scenario(&sc, 42), report, "same seed, same run");
//! ```

#![warn(missing_docs)]

pub mod net;

pub use net::{
    run_net_scenario, run_net_scenario_reproducibly, run_restart_scenario,
    run_restart_scenario_reproducibly, NetReport, NetScenario, RestartReport, RestartScenario,
};

use dini_serve::{
    Clock, IndexServer, PendingLookup, ServeConfig, ServeError, ServeFaultPlan, ServerHandle,
    SimClock, TraceConfig,
};
use dini_workload::{
    gen_sorted_unique_keys, ArrivalGen, ArrivalProcess, ChurnGen, KeyDistribution, KeyGen, Op,
    OpMix,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Salt mixed into per-purpose RNG seeds so the key, arrival, churn, and
/// fault streams of one scenario seed are decorrelated.
const CHURN_SALT: u64 = 0xC0A1_E5CE ^ 0x9E37_79B9_7F4A_7C15;

/// One deterministic scenario: a server shape, a load shape, a fault
/// plan, and the oracles to hold it to.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name (labels panics and reports).
    pub name: &'static str,
    /// Initial sorted key count.
    pub n_keys: usize,
    /// Server shards.
    pub shards: usize,
    /// Replicated dispatchers per shard (1 = the classic single
    /// dispatcher; more enables failover and load-aware routing
    /// scenarios).
    pub replicas_per_shard: usize,
    /// Coalescing bound: queries per batch.
    pub max_batch: usize,
    /// Coalescing bound: max wait for co-travellers. The base scenario
    /// sets one explicitly — a timed batch is how the fault scenarios
    /// keep requests queued and coalescing when a fault fires; zero is
    /// the server's shipped group commit.
    pub max_delay: Duration,
    /// Admission queue depth per shard.
    pub queue_capacity: usize,
    /// Writer delta budget before merge/rebuild.
    pub merge_threshold: usize,
    /// Writer ops per snapshot publication.
    pub publish_every: usize,
    /// Open-loop client threads.
    pub clients: usize,
    /// Arrivals issued per client.
    pub lookups_per_client: usize,
    /// Per-client arrival process (virtual time).
    pub arrival: ArrivalProcess,
    /// Concurrent churn operations fed by a dedicated updater thread
    /// (0 = static keys, enabling per-reply exact verification).
    pub churn_ops: usize,
    /// Virtual pause between churn operations.
    pub churn_gap: Duration,
    /// Deterministic fault plan (crashes / jitter / stragglers).
    pub faults: ServeFaultPlan,
    /// Upper bound on the worst *served* latency (server-side, virtual).
    /// `None` disables the oracle (e.g. under overload, where queueing
    /// delay is the point).
    pub latency_bound: Option<Duration>,
    /// Issue a mid-run `quiesce()` and verify immediate visibility.
    pub quiesce_mid_run: bool,
    /// Stage-trace sampling period (1 = trace every request, 0 =
    /// tracing off). Sampled records feed the stage-timing oracle and
    /// their count is pinned in the deterministic report.
    pub trace_sample_period: u64,
}

impl Scenario {
    /// A small, fast, fault-free baseline scenario; override fields per
    /// test.
    pub fn base(name: &'static str) -> Self {
        Self {
            name,
            n_keys: 8_192,
            shards: 3,
            replicas_per_shard: 1,
            max_batch: 32,
            max_delay: Duration::from_micros(200),
            queue_capacity: 1024,
            merge_threshold: 4096,
            publish_every: 64,
            clients: 3,
            lookups_per_client: 400,
            arrival: ArrivalProcess::poisson_rate(20_000.0),
            churn_ops: 0,
            churn_gap: Duration::from_micros(50),
            faults: ServeFaultPlan::none(),
            latency_bound: Some(Duration::from_micros(250)),
            quiesce_mid_run: false,
            trace_sample_period: 64,
        }
    }

    /// Shards this scenario's fault plan kills *entirely* — a
    /// shard-wide crash, or per-replica crashes covering every one of
    /// its replicas. A shard with a surviving replica keeps answering
    /// (failover), so only fully crashed shards are excluded from
    /// post-run probes.
    fn fully_crashed_shards(&self) -> Vec<usize> {
        let mut gone: Vec<usize> = self.faults.crash_at.iter().map(|&(s, _)| s).collect();
        for s in 0..self.shards {
            let dead_replicas = (0..self.replicas_per_shard)
                .filter(|&r| {
                    self.faults.crash_replica_at.iter().any(|&(cs, cr, _)| (cs, cr) == (s, r))
                })
                .count();
            if dead_replicas == self.replicas_per_shard {
                gone.push(s);
            }
        }
        gone.sort_unstable();
        gone.dedup();
        gone
    }
}

/// Deterministic outcome of one scenario run. Two runs of the same
/// scenario with the same seed produce `Report`s that compare equal —
/// including the scheduler's event-trace `digest`, which pins the entire
/// thread interleaving, not just the totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// FNV-1a fold of every scheduling event (block/wake/advance/…).
    pub digest: u64,
    /// Number of scheduling events folded into `digest`.
    pub events: u64,
    /// Virtual time consumed by the whole scenario.
    pub virtual_ns: u64,
    /// Lookups issued by all clients.
    pub issued: u64,
    /// Lookups answered with a rank.
    pub ok: u64,
    /// Lookups shed by admission control (client-observed).
    pub shed: u64,
    /// Lookups answered `ShuttingDown` (crashed shard, at submit or in
    /// flight).
    pub shutdown: u64,
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
    /// Churn operations that mutated the index.
    pub updates_applied: u64,
    /// Exact-rank assertions performed (during-run + post-quiesce).
    pub oracle_checks: u64,
    /// Requests re-routed from crashed replicas to surviving siblings
    /// (failover hand-offs; 0 in any scenario without replica crashes).
    pub rerouted: u64,
    /// Queries served per replica, replica-major
    /// (`shard * replicas_per_shard + replica`) — the breakdown the
    /// straggler and load-balance oracles read.
    pub per_replica_served: Vec<u64>,
    /// Stage-trace records sampled across all replicas. Same seed, same
    /// schedule, same samples — pinned by the reproducibility contract
    /// like every other field.
    pub trace_records: u64,
}

/// What one probe client observed.
struct Tally {
    issued: u64,
    ok: u64,
    shed: u64,
    shutdown: u64,
    oracle_checks: u64,
}

/// An open-loop probe client: issues `n_lookups` on a seeded arrival
/// schedule (admission never waits on replies), then drains. When
/// `verify` is set (static key set), every rank is checked on the spot.
fn probe_client(
    h: ServerHandle,
    keys: Arc<Vec<u32>>,
    seed: u64,
    n_lookups: usize,
    arrival: ArrivalProcess,
    verify: bool,
) -> Tally {
    let clock = h.clock().clone();
    let mut keygen = KeyGen::new(seed, KeyDistribution::Uniform);
    let mut arrivals = ArrivalGen::new(seed ^ 0x9E37_79B9, arrival);
    let mut t = Tally { issued: 0, ok: 0, shed: 0, shutdown: 0, oracle_checks: 0 };
    let mut in_flight: Vec<(u32, PendingLookup)> = Vec::new();
    let start = clock.now();
    let mut at = 0u64;
    for _ in 0..n_lookups {
        at = arrivals.next_at_ns(at);
        let target = start.saturating_add(at);
        loop {
            let now = clock.now();
            if now >= target {
                break;
            }
            clock.sleep(Duration::from_nanos(target - now));
        }
        t.issued += 1;
        let key = keygen.next_key();
        match h.begin_lookup(key) {
            Ok(pending) => in_flight.push((key, pending)),
            Err(ServeError::Overloaded { .. }) => t.shed += 1,
            Err(ServeError::ShuttingDown) => t.shutdown += 1,
        }
    }
    for (key, pending) in in_flight {
        match pending.wait() {
            Ok(rank) => {
                t.ok += 1;
                if verify {
                    let expect = keys.partition_point(|&k| k <= key) as u32;
                    assert_eq!(rank, expect, "rank({key}) wrong under simulation");
                    t.oracle_checks += 1;
                }
            }
            Err(ServeError::ShuttingDown) => t.shutdown += 1,
            Err(ServeError::Overloaded { .. }) => t.shed += 1,
        }
    }
    t
}

/// Replay the churn stream a scenario's updater thread fed, into a
/// `BTreeSet` mirror (the generator is deterministic, so this is exact).
fn churn_mirror(sc: &Scenario, seed: u64, initial: &[u32]) -> BTreeSet<u32> {
    let mut set: BTreeSet<u32> = initial.iter().copied().collect();
    let mut gen = churn_gen(seed);
    for _ in 0..sc.churn_ops {
        match gen.next_op() {
            Op::Insert(k) => {
                set.insert(k);
            }
            Op::Delete(k) => {
                set.remove(&k);
            }
            Op::Query(_) => {}
        }
    }
    set
}

fn churn_gen(seed: u64) -> ChurnGen {
    // No queries in the mix: the updater thread only mutates; lookups
    // come from the probe clients.
    ChurnGen::new(
        seed ^ CHURN_SALT,
        KeyDistribution::Uniform,
        OpMix { query: 0.0, insert: 0.6, delete: 0.4 },
    )
}

/// Run `sc` once under seed `seed` and enforce its oracles. Panics (with
/// the scenario name) on any violation; returns the deterministic
/// [`Report`] otherwise.
pub fn run_scenario(sc: &Scenario, seed: u64) -> Report {
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);

    let keys = Arc::new(gen_sorted_unique_keys(sc.n_keys, seed));
    let mut cfg = ServeConfig::new(sc.shards);
    cfg.replicas_per_shard = sc.replicas_per_shard;
    cfg.max_batch = sc.max_batch;
    cfg.max_delay = sc.max_delay;
    cfg.queue_capacity = sc.queue_capacity;
    cfg.merge_threshold = sc.merge_threshold;
    cfg.publish_every = sc.publish_every;
    cfg.clock = clock.clone();
    cfg.faults = sc.faults.clone();
    cfg.trace = if sc.trace_sample_period == 0 {
        TraceConfig::disabled()
    } else {
        TraceConfig { capacity: 4096, sample_period: sc.trace_sample_period, seed }
    };
    let server = IndexServer::build(&keys, cfg);
    let handle = server.handle();

    // Concurrent churn, from a dedicated (sim-registered) updater thread.
    let churn_thread = (sc.churn_ops > 0).then(|| {
        let updater = server.updater();
        let clock2 = clock.clone();
        let mut gen = churn_gen(seed);
        let (ops, gap) = (sc.churn_ops, sc.churn_gap);
        clock.spawn("simtest-churn", move || {
            for _ in 0..ops {
                clock2.sleep(gap);
                if updater.update(gen.next_op()).is_err() {
                    break;
                }
            }
        })
    });

    // Probe clients. Exact per-reply verification only makes sense when
    // the key set is static.
    let verify_during = sc.churn_ops == 0;
    let client_threads: Vec<_> = (0..sc.clients)
        .map(|id| {
            let h = handle.clone();
            let keys = keys.clone();
            let (n, arrival) = (sc.lookups_per_client, sc.arrival);
            let seed_c = seed.wrapping_add(1 + id as u64);
            clock.spawn(&format!("simtest-client-{id}"), move || {
                probe_client(h, keys, seed_c, n, arrival, verify_during)
            })
        })
        .collect();

    if sc.quiesce_mid_run {
        // Quiesce while clients are genuinely in flight: sleep partway
        // into the load window first (under the sim clock, blocking
        // main is what hands the clients and the churn feeder their
        // turns), then demand full visibility mid-storm.
        clock.sleep(Duration::from_millis(2));
        server.quiesce();
    }

    let mut issued = 0u64;
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut shutdown = 0u64;
    let mut oracle_checks = 0u64;
    for t in client_threads {
        let t = t.join().expect("probe client panicked");
        issued += t.issued;
        ok += t.ok;
        shed += t.shed;
        shutdown += t.shutdown;
        oracle_checks += t.oracle_checks;
    }
    if let Some(t) = churn_thread {
        t.join().expect("churn thread panicked");
    }

    // Oracle 1: reply completeness — every issued lookup resolved
    // exactly once. (That none hung is enforced by the scheduler's
    // deadlock detector: a lost reply cannot terminate the run.)
    assert_eq!(
        issued,
        ok + shed + shutdown,
        "[{}] lookups unaccounted for: issued {issued}, ok {ok}, shed {shed}, \
         shutdown {shutdown}",
        sc.name
    );

    // Post-churn sweep: quiesce, then check ranks against the mirror on
    // shards with at least one surviving replica (failover keeps a
    // partially crashed shard answering).
    server.quiesce();
    let crashed = sc.fully_crashed_shards();
    let mirror = churn_mirror(sc, seed, &keys);
    let mut probe = 0x9E37u32;
    for _ in 0..256 {
        probe = probe.wrapping_mul(2_654_435_761).wrapping_add(12_345);
        if crashed.contains(&handle.shard_of(probe)) {
            continue;
        }
        let expect = mirror.range(..=probe).count() as u32;
        assert_eq!(
            handle.lookup(probe).expect("surviving shard must answer"),
            expect,
            "[{}] post-quiesce rank({probe}) diverged from the churn mirror",
            sc.name
        );
        oracle_checks += 1;
    }

    let stats = server.stats();

    // Oracle 3: virtual-time latency bound over every served query.
    let max_latency_ns = stats.latency_ns.max() as u64;
    if let Some(bound) = sc.latency_bound {
        assert!(
            stats.served == 0 || max_latency_ns <= bound.as_nanos() as u64,
            "[{}] worst served latency {max_latency_ns} ns exceeds the virtual-time bound \
             {} ns (max_delay + injected delays)",
            sc.name,
            bound.as_nanos()
        );
    }

    // Oracle 4: client- and server-side accounting agree. (Probe clients
    // are the only lookup traffic; the post-quiesce sweep adds `ok`s.)
    assert_eq!(shed, stats.shed, "[{}] shed counts disagree", sc.name);
    assert!(ok <= stats.admitted, "[{}] more oks than admissions", sc.name);

    // Oracle 5: stage-timing — every sampled trace record advances
    // monotonically through admitted → collected → dispatched →
    // answered → filled on the virtual clock, batches respect the
    // configured ceiling, and when the scenario declares a latency
    // bound, both the coalescing wait and the full stage span honour
    // it (the bound covers admitted→answered, which is exactly the
    // per-query latency Oracle 3 already pins).
    let traces = server.stage_traces();
    for r in &traces {
        assert!(r.stages_monotonic(), "[{}] stage trace not monotonic: {r:?}", sc.name);
        assert!(
            (r.batch_len as usize) >= 1 && (r.batch_len as usize) <= sc.max_batch,
            "[{}] traced batch of {} outside 1..={}",
            sc.name,
            r.batch_len,
            sc.max_batch
        );
        assert!(
            (r.shard as usize) < sc.shards && (r.replica as usize) < sc.replicas_per_shard,
            "[{}] trace record from unknown replica {}/{}",
            sc.name,
            r.shard,
            r.replica
        );
        if let Some(bound) = sc.latency_bound {
            let bound = bound.as_nanos() as u64;
            assert!(
                r.wait_ns() <= bound && r.answered_ns.saturating_sub(r.admitted_ns) <= bound,
                "[{}] traced stage span exceeds the virtual-time bound {bound} ns: {r:?}",
                sc.name
            );
        }
        oracle_checks += 1;
    }
    if sc.trace_sample_period == 1 && sc.faults.is_noop() {
        // Dense sampling with no crashes: every served query was
        // considered, so a busy run must have retained records.
        assert!(
            stats.served == 0 || !traces.is_empty(),
            "[{}] dense tracing recorded nothing across {} served",
            sc.name,
            stats.served
        );
    }

    let report = Report {
        digest: 0, // filled after the server (and its threads) wind down
        events: 0,
        virtual_ns: 0,
        issued,
        ok,
        shed,
        shutdown,
        served: stats.served,
        admitted: stats.admitted,
        max_latency_ns,
        max_wait_ns: traces.iter().map(|r| r.wait_ns()).max().unwrap_or(0),
        merges: stats.merges,
        snapshots: stats.snapshots_published,
        updates_applied: stats.updates_applied,
        oracle_checks,
        rerouted: stats.rerouted,
        per_replica_served: server.replica_stats().iter().map(|s| s.served).collect(),
        trace_records: traces.len() as u64,
    };
    drop(handle);
    drop(server);
    let (digest, events) = sim.digest();
    Report { digest, events, virtual_ns: sim.now(), ..report }
}

/// Run the scenario twice with the same seed and assert the runs are
/// identical — totals *and* the full event-trace digest — then return
/// the report. This is the reproducibility contract every scenario test
/// goes through.
pub fn run_scenario_reproducibly(sc: &Scenario, seed: u64) -> Report {
    let a = run_scenario(sc, seed);
    let b = run_scenario(sc, seed);
    assert_eq!(
        a, b,
        "[{}] seed {seed} did not reproduce: wall-clock leaked into the simulation",
        sc.name
    );
    a
}

/// The scenario seed matrix: `DINI_SIMTEST_SEEDS` selects how many seeds
/// to sweep (default 3; CI sets 8). Virtual time makes extra seeds
/// cheap. An unparsable value panics rather than silently shrinking the
/// advertised matrix.
pub fn seeds_from_env() -> Vec<u64> {
    let n = match std::env::var("DINI_SIMTEST_SEEDS") {
        Ok(v) => v
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("DINI_SIMTEST_SEEDS must be a seed count, got {v:?}")),
        Err(_) => 3,
    };
    (0..n.clamp(1, 64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_scenario_is_clean_and_reproducible() {
        let report = run_scenario_reproducibly(&Scenario::base("unit-base"), 1);
        assert_eq!(report.issued, 3 * 400);
        assert_eq!(report.shed, 0);
        assert_eq!(report.shutdown, 0);
        assert!(report.oracle_checks > 1000);
        assert!(report.virtual_ns > 0);
    }

    #[test]
    fn distinct_seeds_distinct_schedules() {
        let sc = Scenario::base("unit-seeds");
        let a = run_scenario(&sc, 1);
        let b = run_scenario(&sc, 2);
        assert_ne!(a.digest, b.digest, "different seeds must interleave differently");
    }
}
