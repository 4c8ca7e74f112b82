//! Network-fault scenarios: whole multi-process deployments — several
//! [`NetServer`]s, a [`RemoteClient`], and the wire between them — on
//! seeded deterministic virtual time.
//!
//! The transport runs over [`ChanNet`], whose frames route through
//! `dini-cluster`'s seeded fate machinery: per-link fixed latency,
//! jitter (reordering), drops, duplicates, and link severance at an
//! exact virtual instant. Because every thread (server dispatchers,
//! acceptors, connection readers/responders, client workers, probe
//! clients) waits through the same [`SimClock`], an entire cluster run
//! folds into one event-trace digest and replays bit-for-bit.
//!
//! Always-on oracles, the network edition of [`crate::run_scenario`]'s:
//!
//! 1. **Reply completeness** — every issued lookup resolves exactly
//!    once (rank, shed, or shutdown); a lost reply deadlocks the sim
//!    and panics with a thread dump instead of hanging. Retries and
//!    duplicated frames must not double-resolve anything — the
//!    in-flight map drops duplicate replies, and the generation-tagged
//!    reply cells make a double fill impossible.
//! 2. **Answer exactness** — with a static key set every rank is
//!    checked against `keys.partition_point` at reap time, drops,
//!    jitter, and failover notwithstanding; with churn, a post-quiesce
//!    sweep checks against a replayed `BTreeSet` mirror (epoch
//!    consistency across processes: cross-span base ranks must be
//!    refreshed by the quiesce acks).
//! 3. **Bounded tails** — in virtual time the client-observed latency
//!    is exactly coalescing + wire + injected delays, so jitter
//!    scenarios assert a tight end-to-end bound.
//! 4. **Failover** — a severed endpoint link (the network view of an
//!    endpoint crash) must degrade capacity, never correctness:
//!    surviving replica endpoints answer everything.
//! 5. **Replica convergence** — with churn, every replica process that
//!    kept its link is checked against the churn mirror after the
//!    quiesce barrier: applied-op set sizes match and sampled local
//!    ranks agree, so a dropped, duplicated, or blacked-out update
//!    frame can never silently diverge one replica.
//!
//! Two opt-in oracles check the observability plane itself:
//!
//! 6. **Causal tracing** ([`NetScenario::dense_tracing`]) — with every
//!    frame traced on both sides, the client's wire records and the
//!    servers' stage records must stitch into causal timelines on the
//!    shared trace id, each monotone on virtual time.
//! 7. **Flight recorder** ([`NetScenario::flight`]) — the client's
//!    crash-safe journal must record exactly one event per counted
//!    election and update resend; the restart scenarios extend this to
//!    the server's checkpoint story, read cold off disk after a kill.

use dini_cluster::{FaultPlan, LinkPlan};
use dini_net::transport::ChanNet;
use dini_net::{ClientConfig, NetHandle, NetServer, NetServerConfig, RemoteClient, Span, Topology};
use dini_obs::{stitch, StageRecord};
use dini_serve::clock::dur_ns;
use dini_serve::{
    read_journal, Clock, EventKind, FlightJournal, Nanos, ServeConfig, ServeError, SimClock,
    StorePlan, TraceConfig,
};
use dini_workload::{
    gen_sorted_unique_keys, ArrivalGen, ArrivalProcess, ChurnGen, KeyDistribution, KeyGen, Op,
    OpMix,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Salt decorrelating churn from key/arrival streams (same constant
/// family as the in-process scenarios).
const NET_CHURN_SALT: u64 = 0x5EA5_1DE5 ^ 0x9E37_79B9_7F4A_7C15;

/// Monotone counter making each flight-enabled net run's journal
/// scratch directory unique — the reproducibility wrapper runs the same
/// seed twice and the second run must not recover the first run's
/// events.
static FLIGHT_RUN: AtomicU64 = AtomicU64::new(0);

/// Trace-every-frame config used on both sides of the wire when
/// [`NetScenario::dense_tracing`] is on (the sampling seed is
/// irrelevant at period 1; the capacity just has to outlast the run).
fn dense_trace() -> TraceConfig {
    TraceConfig { capacity: 8192, sample_period: 1, seed: 0x5EED }
}

/// One deterministic multi-process scenario.
#[derive(Debug, Clone)]
pub struct NetScenario {
    /// Name (labels panics and reports).
    pub name: &'static str,
    /// Initial sorted key count (split evenly across spans).
    pub n_keys: usize,
    /// Spans (server *processes* along the key space).
    pub spans: usize,
    /// Replica endpoints per span (independent full copies; the client
    /// fails over between them).
    pub endpoints_per_span: usize,
    /// Shards inside each server process.
    pub shards_per_server: usize,
    /// Server-side coalescing window.
    pub server_max_delay: Duration,
    /// Client-side coalescing window.
    pub client_max_delay: Duration,
    /// Client resend timeout for unanswered lookup batches.
    pub retry_timeout: Duration,
    /// Client retry budget before declaring an endpoint dead.
    pub max_retries: u32,
    /// Open-loop probe clients.
    pub clients: usize,
    /// Arrivals issued per client.
    pub lookups_per_client: usize,
    /// Per-client arrival process (virtual time).
    pub arrival: ArrivalProcess,
    /// Churn operations fed through the client (0 = static keys,
    /// enabling per-reply exact verification). Updates ride the
    /// replicated churn log: sequence-numbered, applied in order, and
    /// each op resolves only once quorum-acked — dropped, duplicated,
    /// or blacked-out update frames are repaired by suffix resend.
    pub churn_ops: usize,
    /// Virtual pause between churn operations.
    pub churn_gap: Duration,
    /// Fixed one-way link latency (all links).
    pub link_latency: Duration,
    /// Per-frame drop probability (all links).
    pub drop_prob: f64,
    /// Per-frame duplicate probability (all links).
    pub duplicate_prob: f64,
    /// Uniform per-frame delivery jitter in `[0, max)` (all links;
    /// reorders frames).
    pub jitter_max: Duration,
    /// Sever the link to these flat endpoint indices (span-major) at a
    /// virtual instant — the network view of an endpoint crash.
    pub link_down: Vec<(usize, Duration)>,
    /// Black out the link to these flat endpoint indices over a
    /// half-open virtual window `[start, end)`: frames sent inside it
    /// are dropped, the link heals afterwards — a partition that ends,
    /// where `link_down` is a crash that doesn't.
    pub blackout: Vec<(usize, Duration, Duration)>,
    /// Upper bound on the worst client-observed latency (reap-time
    /// measured; the probe reaps on a 100 µs cadence, already included
    /// in the bound you pass). `None` disables (e.g. under drops, where
    /// tails legitimately include retry timeouts).
    pub latency_bound: Option<Duration>,
    /// Mid-load `StatsRequest` polls issued per span by a dedicated
    /// sim-registered poller thread (0 = no wire introspection). Each
    /// successful poll asserts the served counter is monotone and never
    /// ahead of admissions — live observability riding the same lookup
    /// socket as the load it observes.
    pub stats_polls: usize,
    /// Virtual pause between stats polls.
    pub stats_poll_gap: Duration,
    /// Trace every frame (client) and every request (server) instead of
    /// sampling, then stitch client wire records to server stage records
    /// on the shared trace id post-run and assert each timeline is
    /// monotone on virtual time. Clean-link scenarios only: a retried
    /// frame re-encodes, so a reply answered from an earlier delivered
    /// attempt would legitimately violate cross-attempt ordering.
    pub dense_tracing: bool,
    /// Attach a crash-safe flight journal to the client and assert
    /// post-run that the recorded event story matches the live
    /// counters: one `Election` record per observed epoch bump and one
    /// `UpdateResend` per counted resend.
    pub flight: bool,
}

impl NetScenario {
    /// A small, fast, fault-free two-span baseline; override per test.
    pub fn base(name: &'static str) -> Self {
        Self {
            name,
            n_keys: 8_192,
            spans: 2,
            endpoints_per_span: 1,
            shards_per_server: 2,
            server_max_delay: Duration::from_micros(200),
            client_max_delay: Duration::from_micros(100),
            retry_timeout: Duration::from_millis(5),
            max_retries: 40,
            clients: 2,
            lookups_per_client: 300,
            arrival: ArrivalProcess::poisson_rate(20_000.0),
            churn_ops: 0,
            churn_gap: Duration::from_micros(50),
            link_latency: Duration::from_micros(50),
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            jitter_max: Duration::ZERO,
            link_down: Vec::new(),
            blackout: Vec::new(),
            latency_bound: None,
            stats_polls: 0,
            stats_poll_gap: Duration::from_micros(500),
            dense_tracing: false,
            flight: false,
        }
    }
}

/// Deterministic outcome of one net scenario run; two same-seed runs
/// compare equal, digest included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetReport {
    /// FNV-1a fold of every scheduling event.
    pub digest: u64,
    /// Scheduling events folded into `digest`.
    pub events: u64,
    /// Virtual time the whole deployment consumed.
    pub virtual_ns: u64,
    /// Lookups issued by all probe clients.
    pub issued: u64,
    /// Lookups answered with a (verified) rank.
    pub ok: u64,
    /// Lookups shed (client- or server-side admission).
    pub shed: u64,
    /// Lookups resolved `ShuttingDown`.
    pub shutdown: u64,
    /// Lookup batches the client resent after a reply timeout.
    pub retries: u64,
    /// Lookups re-homed from a dead endpoint to a surviving replica.
    pub rerouted: u64,
    /// Churn-log suffixes resent to lagging or lossy endpoints.
    pub update_resends: u64,
    /// Churn-log epoch bumps (an endpoint died with appends pending).
    pub elections: u64,
    /// Worst client-observed latency (issue → reap), virtual ns.
    pub max_client_latency_ns: u64,
    /// Exact-rank assertions performed.
    pub oracle_checks: u64,
    /// Queries served per server process (span-major).
    pub served_per_server: Vec<u64>,
    /// Churn operations that mutated some server's index.
    pub updates_applied: u64,
    /// Mid-load wire stats polls that came back (each one oracle-checked
    /// for monotone accounting).
    pub stats_polls_ok: u64,
    /// Client↔server causal timelines stitched post-run (dense tracing
    /// only; each one asserted monotone on virtual time).
    pub stitched_timelines: u64,
    /// Events the client's flight journal recorded (flight scenarios
    /// only; the election/resend subsets are asserted against the live
    /// counters).
    pub flight_events: u64,
}

struct Tally {
    issued: u64,
    ok: u64,
    shed: u64,
    shutdown: u64,
    checks: u64,
    max_latency_ns: Nanos,
}

/// Longest a probe lets a completed reply sit unreaped (bounds the
/// latency-measurement error, exactly like `loadgen`'s open loop).
const REAP_CADENCE: Duration = Duration::from_micros(100);

/// Open-loop probe over the wire: seeded arrivals, aggressive reaping,
/// optional per-reply exact verification against the static key set.
fn net_probe(
    h: NetHandle,
    keys: Arc<Vec<u32>>,
    seed: u64,
    n_lookups: usize,
    arrival: ArrivalProcess,
    verify: bool,
) -> Tally {
    let clock = h.clock().clone();
    let mut keygen = KeyGen::new(seed, KeyDistribution::Uniform);
    let mut arrivals = ArrivalGen::new(seed ^ 0x9E37_79B9, arrival);
    let mut t = Tally { issued: 0, ok: 0, shed: 0, shutdown: 0, checks: 0, max_latency_ns: 0 };
    let mut in_flight: Vec<(u32, Nanos, dini_net::PendingNetLookup)> = Vec::new();
    let start = clock.now();
    let mut at = 0u64;

    let reap = |in_flight: &mut Vec<(u32, Nanos, dini_net::PendingNetLookup)>,
                t: &mut Tally,
                clock: &Clock| {
        in_flight.retain(|(key, issued, pending)| match pending.poll() {
            Some(Ok(rank)) => {
                t.ok += 1;
                t.max_latency_ns = t.max_latency_ns.max(clock.now().saturating_sub(*issued));
                if verify {
                    let expect = keys.partition_point(|&k| k <= *key) as u32;
                    assert_eq!(rank, expect, "rank({key}) wrong over the simulated wire");
                    t.checks += 1;
                }
                false
            }
            Some(Err(ServeError::ShuttingDown)) => {
                t.shutdown += 1;
                false
            }
            Some(Err(ServeError::Overloaded { .. })) => {
                t.shed += 1;
                false
            }
            None => true,
        });
    };

    for _ in 0..n_lookups {
        at = arrivals.next_at_ns(at);
        let target = start.saturating_add(at);
        loop {
            reap(&mut in_flight, &mut t, &clock);
            let now = clock.now();
            if now >= target {
                break;
            }
            let remaining = target - now;
            let nap =
                if in_flight.is_empty() { remaining } else { remaining.min(dur_ns(REAP_CADENCE)) };
            clock.sleep(Duration::from_nanos(nap));
        }
        t.issued += 1;
        let key = keygen.next_key();
        match h.begin_lookup(key) {
            Ok(pending) => in_flight.push((key, clock.now(), pending)),
            Err(ServeError::Overloaded { .. }) => t.shed += 1,
            Err(ServeError::ShuttingDown) => t.shutdown += 1,
        }
    }
    // Drain: keep reaping on the cadence so tail latencies stay honest.
    while !in_flight.is_empty() {
        reap(&mut in_flight, &mut t, &clock);
        if !in_flight.is_empty() {
            clock.sleep(REAP_CADENCE);
        }
    }
    t
}

fn churn_gen(seed: u64) -> ChurnGen {
    ChurnGen::new(
        seed ^ NET_CHURN_SALT,
        KeyDistribution::Uniform,
        OpMix { query: 0.0, insert: 0.6, delete: 0.4 },
    )
}

fn churn_mirror(sc: &NetScenario, seed: u64, initial: &[u32]) -> BTreeSet<u32> {
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

/// Spans whose every endpoint link is severed by the plan (excluded
/// from post-run probes; a span with one live endpoint keeps serving).
fn fully_severed_spans(sc: &NetScenario) -> Vec<usize> {
    (0..sc.spans)
        .filter(|&s| {
            (0..sc.endpoints_per_span).all(|e| {
                let flat = s * sc.endpoints_per_span + e;
                sc.link_down.iter().any(|&(ep, _)| ep == flat)
            })
        })
        .collect()
}

/// Run `sc` once under `seed`, enforce its oracles, and return the
/// deterministic [`NetReport`].
pub fn run_net_scenario(sc: &NetScenario, seed: u64) -> NetReport {
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let net = ChanNet::new(clock.clone());

    let keys = Arc::new(gen_sorted_unique_keys(sc.n_keys, seed));

    // Client flight journal: a per-run scratch file under the OS temp
    // dir, removed before returning. Journal I/O is mmap stores that
    // never wait on the sim clock, so it cannot perturb the scheduling
    // digest.
    let flight_dir = sc.flight.then(|| {
        let run = FLIGHT_RUN.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "dini-simtest-flight-{}-{run}-{}",
            std::process::id(),
            sc.name
        ));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("[{}] flight scratch dir: {e}", sc.name));
        dir
    });
    let journal = flight_dir.as_ref().map(|d| {
        Arc::new(
            FlightJournal::open(&d.join("client.flt"), 4096)
                .unwrap_or_else(|e| panic!("[{}] client flight journal: {e}", sc.name)),
        )
    });

    // Topology: spans of near-equal population, replica endpoints named
    // span-major.
    let per = sc.n_keys / sc.spans;
    let spans: Vec<Span> = (0..sc.spans)
        .map(|s| Span {
            lo_key: if s == 0 { 0 } else { keys[s * per] },
            endpoints: (0..sc.endpoints_per_span).map(|e| format!("s{s}e{e}")).collect(),
        })
        .collect();
    let topology = Topology { spans };
    let parts = topology.split(&keys);

    // Link plans: every endpoint gets the scenario's fault envelope,
    // decorrelated by endpoint index; severed links get their instant.
    for s in 0..sc.spans {
        for e in 0..sc.endpoints_per_span {
            let flat = s * sc.endpoints_per_span + e;
            let mut fault = FaultPlan::none();
            fault.seed = seed ^ (flat as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
            fault.drop_prob = sc.drop_prob;
            fault.duplicate_prob = sc.duplicate_prob;
            fault.jitter_max_ns = dur_ns(sc.jitter_max) as f64;
            let mut plan =
                LinkPlan::reliable().with_latency_ns(dur_ns(sc.link_latency)).with_faults(fault);
            if let Some(&(_, at)) = sc.link_down.iter().find(|&&(ep, _)| ep == flat) {
                plan = plan.down_at(dur_ns(at));
            }
            if let Some(&(_, from, until)) = sc.blackout.iter().find(|&&(ep, _, _)| ep == flat) {
                plan = plan.blackout_ns(dur_ns(from), dur_ns(until));
            }
            net.set_link_plan(&format!("s{s}e{e}"), plan);
        }
    }

    // Server processes (sim-registered threads throughout).
    let mut servers = Vec::new();
    for (s, part) in parts.iter().enumerate() {
        for e in 0..sc.endpoints_per_span {
            let mut serve = ServeConfig::new(sc.shards_per_server);
            serve.max_batch = 64;
            serve.max_delay = sc.server_max_delay;
            serve.clock = clock.clone();
            if sc.dense_tracing {
                serve.trace = dense_trace();
            }
            let acceptor = net.listen(&format!("s{s}e{e}"));
            servers.push(NetServer::start(
                Box::new(acceptor),
                part,
                NetServerConfig::new(serve, topology.clone(), s),
            ));
        }
    }

    // The client (bootstraps off span 0, endpoint 0).
    let ccfg = ClientConfig {
        clock: clock.clone(),
        max_batch: 64,
        max_delay: sc.client_max_delay,
        retry_timeout: sc.retry_timeout,
        max_retries: sc.max_retries,
        ctrl_timeout: Duration::from_millis(20),
        handshake_timeout: Duration::from_millis(20),
        trace: if sc.dense_tracing { dense_trace() } else { TraceConfig::default() },
        flight: journal.clone(),
        ..ClientConfig::default()
    };
    let client = RemoteClient::connect(net.dialer(), "s0e0", ccfg)
        .unwrap_or_else(|e| panic!("[{}] connect failed: {e}", sc.name));
    let handle = client.handle();

    // Concurrent churn through the wire (clean-link scenarios only).
    let churn_thread = (sc.churn_ops > 0).then(|| {
        let h = client.handle();
        let clock2 = clock.clone();
        let mut gen = churn_gen(seed);
        let (ops, gap) = (sc.churn_ops, sc.churn_gap);
        clock.spawn("net-churn", move || {
            for _ in 0..ops {
                clock2.sleep(gap);
                if h.update(gen.next_op()).is_err() {
                    break;
                }
            }
        })
    });

    // Wire introspection mid-load: a sim-registered poller fires
    // `StatsRequest`s at every live span while the probes hammer the
    // same sockets, asserting the counters only ever move forward.
    let severed_for_poller = fully_severed_spans(sc);
    let stats_thread = (sc.stats_polls > 0).then(|| {
        let h = client.handle();
        let clock2 = clock.clone();
        let (polls, gap, spans, name) = (sc.stats_polls, sc.stats_poll_gap, sc.spans, sc.name);
        clock.spawn("net-stats-poll", move || {
            let mut prev_served = vec![0u64; spans];
            let mut ok_polls = 0u64;
            for _ in 0..polls {
                clock2.sleep(gap);
                for (span, prev) in prev_served.iter_mut().enumerate() {
                    if severed_for_poller.contains(&span) {
                        continue;
                    }
                    let Ok(s) = h.span_stats(span) else { continue };
                    assert!(
                        s.served >= *prev,
                        "[{name}] span {span} served counter went backwards: \
                         {} then {}",
                        *prev,
                        s.served
                    );
                    assert!(
                        s.served <= s.admitted,
                        "[{name}] span {span} served {} ahead of admitted {}",
                        s.served,
                        s.admitted
                    );
                    *prev = s.served;
                    ok_polls += 1;
                }
            }
            ok_polls
        })
    });

    let verify_during = sc.churn_ops == 0;
    let probes: Vec<_> = (0..sc.clients)
        .map(|id| {
            let h = handle.clone();
            let keys = keys.clone();
            let (n, arrival) = (sc.lookups_per_client, sc.arrival);
            let seed_c = seed.wrapping_add(1 + id as u64);
            clock.spawn(&format!("net-probe-{id}"), move || {
                net_probe(h, keys, seed_c, n, arrival, verify_during)
            })
        })
        .collect();

    let mut issued = 0u64;
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut shutdown = 0u64;
    let mut oracle_checks = 0u64;
    let mut max_client_latency_ns = 0u64;
    for p in probes {
        let t = p.join().expect("net probe panicked");
        issued += t.issued;
        ok += t.ok;
        shed += t.shed;
        shutdown += t.shutdown;
        oracle_checks += t.checks;
        max_client_latency_ns = max_client_latency_ns.max(t.max_latency_ns);
    }
    if let Some(t) = churn_thread {
        t.join().expect("net churn panicked");
    }
    let stats_polls_ok = stats_thread.map_or(0, |t| t.join().expect("stats poller panicked"));

    // Oracle 1: reply completeness — exactly one resolution per lookup,
    // drops, duplicates, retries, and failover notwithstanding.
    assert_eq!(
        issued,
        ok + shed + shutdown,
        "[{}] lookups unaccounted for: issued {issued}, ok {ok}, shed {shed}, \
         shutdown {shutdown}",
        sc.name
    );

    // Oracle 2 (churn): post-quiesce sweep against the mirror — epoch
    // consistency across processes (base ranks refreshed by the acks).
    let severed = fully_severed_spans(sc);
    if sc.churn_ops > 0 {
        handle.quiesce().unwrap_or_else(|e| panic!("[{}] quiesce failed: {e:?}", sc.name));
        let mirror = churn_mirror(sc, seed, &keys);
        let mut probe_key = 0x9E37u32;
        for _ in 0..256 {
            probe_key = probe_key.wrapping_mul(2_654_435_761).wrapping_add(12_345);
            if severed.contains(&handle.span_of(probe_key)) {
                continue;
            }
            let expect = mirror.range(..=probe_key).count() as u32;
            assert_eq!(
                handle.lookup(probe_key),
                Ok(expect),
                "[{}] post-quiesce rank({probe_key}) diverged from the churn mirror",
                sc.name
            );
            oracle_checks += 1;
        }
        assert_eq!(
            handle.live_keys(),
            mirror.len() as u64,
            "[{}] live-key accounting diverged from the mirror",
            sc.name
        );

        // Replica convergence: after the barrier, every replica that
        // kept its link (blackouts heal; severed links do not) holds
        // exactly its span's slice of the mirror — set sizes match and
        // local ranks agree on a probe sweep. This is the oracle the
        // old fire-and-forget update path failed: one dropped Update
        // frame silently diverged a replica forever.
        for (flat, srv) in servers.iter().enumerate() {
            if sc.link_down.iter().any(|&(ep, _)| ep == flat) {
                continue;
            }
            let span = flat / sc.endpoints_per_span;
            let span_mirror: BTreeSet<u32> =
                mirror.iter().copied().filter(|&k| handle.span_of(k) == span).collect();
            assert_eq!(
                srv.server().len(),
                span_mirror.len(),
                "[{}] replica {flat} (span {span}) did not converge to the mirror's op set",
                sc.name
            );
            let local = srv.server().handle();
            let mut probe = 0x00C0_FFEEu32;
            for _ in 0..128 {
                probe = probe.wrapping_mul(2_654_435_761).wrapping_add(12_345);
                let expect = span_mirror.range(..=probe).count() as u32;
                assert_eq!(
                    local.lookup(probe),
                    Ok(expect),
                    "[{}] replica {flat} local rank({probe}) diverged from the mirror",
                    sc.name
                );
                oracle_checks += 1;
            }
        }
    }

    // Oracle 3: bounded virtual-time tails.
    if let Some(bound) = sc.latency_bound {
        assert!(
            max_client_latency_ns <= dur_ns(bound),
            "[{}] worst client-observed latency {max_client_latency_ns} ns exceeds the \
             virtual-time bound {} ns",
            sc.name,
            dur_ns(bound)
        );
    }

    // Oracle 5: wire-level introspection agrees with in-process truth.
    // With load drained, a final `StatsRequest` to each surviving
    // single-endpoint span must report exactly what that server's own
    // counters say (served settles once every reply is reaped).
    if sc.stats_polls > 0 && sc.endpoints_per_span == 1 {
        // One endpoint per span means the span-major flat index is the
        // span itself, so each poll names its process unambiguously.
        for (span, srv) in servers.iter().enumerate() {
            if severed.contains(&span) {
                continue;
            }
            let wire = handle
                .span_stats(span)
                .unwrap_or_else(|e| panic!("[{}] final stats poll failed: {e:?}", sc.name));
            let local = srv.server().stats();
            assert_eq!(
                wire.served, local.served,
                "[{}] span {span}: wire-polled served disagrees with the process",
                sc.name
            );
            assert_eq!(
                wire.live_keys,
                srv.server().len() as u64,
                "[{}] span {span}: wire-polled live_keys disagrees with the process",
                sc.name
            );
            oracle_checks += 1;
        }
    }

    let stats = client.stats();

    // Oracle 6 (dense tracing): the cross-process story. Every frame
    // carried a trace id, so the client's wire records and the servers'
    // stage records must stitch into causal timelines, each monotone on
    // virtual time — encoded before admitted, admitted before answered,
    // answered before acked. One shared virtual clock makes this an
    // exact ordering check, not a tolerance.
    let mut stitched_timelines = 0u64;
    if sc.dense_tracing {
        let client_recs = handle.wire_traces();
        let server_recs: Vec<StageRecord> =
            servers.iter().flat_map(|s| s.server().stage_traces()).collect();
        let timelines = stitch(&client_recs, &server_recs);
        assert!(
            !timelines.is_empty(),
            "[{}] dense tracing stitched no client↔server timeline \
             ({} client wire records, {} server stage records)",
            sc.name,
            client_recs.len(),
            server_recs.len()
        );
        for t in &timelines {
            assert!(
                t.monotone(),
                "[{}] stitched timeline for trace {:#x} is not monotone on virtual time",
                sc.name,
                t.trace
            );
            oracle_checks += 1;
        }
        stitched_timelines = timelines.len() as u64;
    }

    // Oracle 7 (flight): the journal's story matches the live counters
    // — every election and every update resend left exactly one record.
    let mut flight_events = 0u64;
    if let Some(j) = &journal {
        let events = j.events();
        flight_events = events.len() as u64;
        let count = |k: EventKind| events.iter().filter(|e| e.event() == Some(k)).count() as u64;
        assert_eq!(
            count(EventKind::Election),
            stats.elections,
            "[{}] journal election records disagree with the elections counter",
            sc.name
        );
        assert_eq!(
            count(EventKind::UpdateResend),
            stats.update_resends,
            "[{}] journal resend records disagree with the update_resends counter",
            sc.name
        );
        oracle_checks += 2;
    }

    let served_per_server: Vec<u64> = servers.iter().map(|s| s.server().stats().served).collect();
    let updates_applied: u64 = servers.iter().map(|s| s.server().stats().updates_applied).sum();

    let report = NetReport {
        digest: 0,
        events: 0,
        virtual_ns: 0,
        issued,
        ok,
        shed,
        shutdown,
        retries: stats.retries,
        rerouted: stats.rerouted,
        update_resends: stats.update_resends,
        elections: stats.elections,
        max_client_latency_ns,
        oracle_checks,
        served_per_server,
        updates_applied,
        stats_polls_ok,
        stitched_timelines,
        flight_events,
    };
    drop(handle);
    drop(client);
    for s in servers {
        s.shutdown();
    }
    if let Some(d) = &flight_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let (digest, events) = sim.digest();
    NetReport { digest, events, virtual_ns: sim.now(), ..report }
}

/// Run twice under the same seed and require identical reports —
/// totals *and* event-trace digest (the reproducibility contract).
pub fn run_net_scenario_reproducibly(sc: &NetScenario, seed: u64) -> NetReport {
    let a = run_net_scenario(sc, seed);
    let b = run_net_scenario(sc, seed);
    assert_eq!(
        a, b,
        "[{}] seed {seed} did not reproduce: wall-clock leaked into the simulated network",
        sc.name
    );
    a
}

// ---------------------------------------------------------------------------
// Crash-recovery scenarios: kill an endpoint mid-churn, restart it from
// its `dini-store` snapshot, replay the churn-log suffix, rejoin.

/// Monotone counter making each restart run's snapshot scratch
/// directory unique — the reproducibility wrapper runs the same seed
/// twice and the second run must not map the first run's checkpoints.
static RESTART_RUN: AtomicU64 = AtomicU64::new(0);

/// One deterministic crash-recovery scenario: a single span with two
/// replica endpoints under synchronous quorum-acked churn. Endpoint 1
/// is killed (process shutdown — crash-like: no parting checkpoint),
/// churn continues through the survivor (quorum degrades 2 → 1), then
/// the victim restarts by *mapping* its last snapshot, replays the
/// client-retained churn-log suffix past its recovered watermark, and
/// rejoins serving exact ranks.
#[derive(Debug, Clone)]
pub struct RestartScenario {
    /// Name (labels panics and reports).
    pub name: &'static str,
    /// Initial sorted key count (one span: every endpoint holds all).
    pub n_keys: usize,
    /// Shards inside each server process.
    pub shards_per_server: usize,
    /// Per-shard pending-delta threshold that triggers a merge cycle —
    /// and with a store plan, a checkpoint. Small → the storm itself
    /// checkpoints mid-churn; huge → only quiesce barriers checkpoint,
    /// leaving a deliberately stale snapshot behind.
    pub merge_threshold: usize,
    /// Quorum-acked churn ops before the kill.
    pub churn_before_kill: usize,
    /// Run a quiesce barrier (a guaranteed checkpoint on both
    /// endpoints) before killing. `false` leaves only merge-cycle
    /// checkpoints — the crash lands mid-storm.
    pub quiesce_before_kill: bool,
    /// Ops appended while the victim is down. They outrun its snapshot
    /// and must come back as a churn-log suffix replay at rejoin; keep
    /// below the client's `log_retention` (default 16 384).
    pub churn_while_dead: usize,
    /// Ops after the rejoin. Must be ≥ 1: each post-rejoin `Ok` needs a
    /// quorum of 2 again, so it proves the revived endpoint applied the
    /// whole replayed suffix *and* makes the final quiesce barrier
    /// provably cover it.
    pub churn_after_rejoin: usize,
    /// Fixed one-way link latency (both endpoints, reliable links).
    pub link_latency: Duration,
}

impl RestartScenario {
    /// A small, fast kill-and-recover baseline; override per test.
    pub fn base(name: &'static str) -> Self {
        Self {
            name,
            n_keys: 2_048,
            shards_per_server: 2,
            merge_threshold: 1 << 30,
            churn_before_kill: 200,
            quiesce_before_kill: true,
            churn_while_dead: 200,
            churn_after_rejoin: 100,
            link_latency: Duration::from_micros(50),
        }
    }
}

/// Deterministic outcome of one restart scenario; two same-seed runs
/// compare equal, digest included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartReport {
    /// FNV-1a fold of every scheduling event.
    pub digest: u64,
    /// Scheduling events folded into `digest`.
    pub events: u64,
    /// Virtual time the whole deployment consumed.
    pub virtual_ns: u64,
    /// The restart mapped a valid snapshot (no sort-rebuild fallback).
    pub recovered_from_snapshot: bool,
    /// The `(epoch, seq)` watermark the victim recovered at — its state
    /// folds exactly the churn-log prefix up to this point.
    pub recovered_watermark: (u64, u64),
    /// Churn-log seq at kill time (what the survivor had acked).
    pub seq_at_kill: u64,
    /// Churn-log epoch bumps the client observed (the kill is one).
    pub elections: u64,
    /// Churn-log suffixes resent to lagging endpoints (the rejoin
    /// catch-up rides this path).
    pub update_resends: u64,
    /// Exact-rank assertions performed.
    pub oracle_checks: u64,
    /// Live keys at the end (must equal the mirror's size).
    pub live_keys: u64,
    /// Events the victim's flight journal held at the kill, read cold
    /// off disk (its checkpoint subset is asserted against the victim's
    /// live counters; the restart must recover every one of them).
    pub flight_events_at_kill: u64,
}

/// Run `sc` once under `seed`, enforce its oracles, and return the
/// deterministic [`RestartReport`].
///
/// Snapshot files live in a per-run scratch directory under the OS
/// temp dir, removed before returning. File I/O happens on
/// sim-registered threads but never waits on the sim clock, so it
/// cannot perturb the scheduling digest.
pub fn run_restart_scenario(sc: &RestartScenario, seed: u64) -> RestartReport {
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let net = ChanNet::new(clock.clone());

    let keys = Arc::new(gen_sorted_unique_keys(sc.n_keys, seed));
    let topology = Topology::single(vec!["s0e0".to_owned(), "s0e1".to_owned()]);

    let run = RESTART_RUN.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dini-simtest-restart-{}-{run}-{}",
        std::process::id(),
        sc.name
    ));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("[{}] snapshot scratch dir: {e}", sc.name));

    for ep in ["s0e0", "s0e1"] {
        net.set_link_plan(ep, LinkPlan::reliable().with_latency_ns(dur_ns(sc.link_latency)));
    }

    let serve_cfg = |ep: &str| {
        let mut serve = ServeConfig::new(sc.shards_per_server);
        serve.max_batch = 64;
        serve.max_delay = Duration::from_micros(200);
        serve.merge_threshold = sc.merge_threshold;
        serve.clock = clock.clone();
        serve.store = Some(StorePlan::new(dir.join(format!("{ep}.snap"))));
        // Every endpoint keeps a flight journal next to its snapshot.
        // The restart call below reopens the victim's — the same
        // crash-recovery path a real postmortem uses.
        serve.flight = Some(Arc::new(
            FlightJournal::open(&dir.join(format!("{ep}.flt")), 4096)
                .unwrap_or_else(|e| panic!("[{}] {ep} flight journal: {e}", sc.name)),
        ));
        serve
    };
    let survivor = NetServer::start(
        Box::new(net.listen("s0e0")),
        &keys,
        NetServerConfig::new(serve_cfg("s0e0"), topology.clone(), 0),
    );
    let mut victim = Some(NetServer::start(
        Box::new(net.listen("s0e1")),
        &keys,
        NetServerConfig::new(serve_cfg("s0e1"), topology.clone(), 0),
    ));

    // The client keeps its own journal: the kill must show up there as
    // an endpoint death plus a churn-log election, the rejoin as a
    // revival plus the catch-up resends.
    let client_journal = Arc::new(
        FlightJournal::open(&dir.join("client.flt"), 4096)
            .unwrap_or_else(|e| panic!("[{}] client flight journal: {e}", sc.name)),
    );
    let ccfg = ClientConfig {
        clock: clock.clone(),
        max_batch: 64,
        max_delay: Duration::from_micros(100),
        retry_timeout: Duration::from_millis(2),
        max_retries: 40,
        ctrl_timeout: Duration::from_millis(20),
        handshake_timeout: Duration::from_millis(20),
        flight: Some(client_journal.clone()),
        ..ClientConfig::default()
    };
    let client = RemoteClient::connect(net.dialer(), "s0e0", ccfg)
        .unwrap_or_else(|e| panic!("[{}] connect failed: {e}", sc.name));
    let handle = client.handle();

    // Synchronous churn: every op quorum-acked before the next, so the
    // runner-side mirror is exact at every instant.
    let mut gen = churn_gen(seed);
    let mut mirror: BTreeSet<u32> = keys.iter().copied().collect();
    let mut appended = 0u64;
    let mut oracle_checks = 0u64;
    let apply = |n: usize,
                 phase: &str,
                 handle: &NetHandle,
                 gen: &mut ChurnGen,
                 mirror: &mut BTreeSet<u32>,
                 appended: &mut u64| {
        for i in 0..n {
            let op = gen.next_op();
            handle
                .update(op)
                .unwrap_or_else(|e| panic!("[{}] {phase} op {i} failed: {e:?}", sc.name));
            *appended += 1;
            match op {
                Op::Insert(k) => {
                    mirror.insert(k);
                }
                Op::Delete(k) => {
                    mirror.remove(&k);
                }
                Op::Query(_) => {}
            }
        }
    };
    let sweep = |tag: &str, handle: &NetHandle, mirror: &BTreeSet<u32>, checks: &mut u64| {
        let mut probe = 0x9E37u32;
        for _ in 0..128 {
            probe = probe.wrapping_mul(2_654_435_761).wrapping_add(12_345);
            let expect = mirror.range(..=probe).count() as u32;
            assert_eq!(
                handle.lookup(probe),
                Ok(expect),
                "[{}] {tag} rank({probe}) diverged from the mirror",
                sc.name
            );
            *checks += 1;
        }
    };

    apply(sc.churn_before_kill, "pre-kill", &handle, &mut gen, &mut mirror, &mut appended);
    if sc.quiesce_before_kill {
        handle.quiesce().unwrap_or_else(|e| panic!("[{}] pre-kill quiesce failed: {e:?}", sc.name));
    }
    let seq_at_kill = appended;

    // Kill endpoint 1: crash-like process shutdown (the writer takes no
    // parting checkpoint — whatever quiesce or merge cycles persisted
    // is all the restart gets). Its live checkpoint counters are read
    // first: the flight journal on disk must tell the same story.
    let victim_srv = victim.as_ref().expect("victim alive");
    let victim_checkpoints = victim_srv.server().checkpoints();
    let victim_ck_failures = victim_srv.server().checkpoint_failures();
    victim.take().expect("victim alive").shutdown();

    // Oracle: the recorded crash story. Read cold off disk — the
    // postmortem path — the victim's journal must hold exactly one
    // `CheckpointOk` per counted checkpoint, one `CheckpointFail` per
    // counted failure, one `CheckpointBegin` per attempt, and every
    // completion must close a preceding `Begin` (one writer, so
    // sequence order is program order).
    let story = read_journal(&dir.join("s0e1.flt"))
        .unwrap_or_else(|e| panic!("[{}] victim journal unreadable after the kill: {e}", sc.name));
    let count = |k: EventKind| story.iter().filter(|e| e.event() == Some(k)).count() as u64;
    assert_eq!(
        count(EventKind::CheckpointOk),
        victim_checkpoints,
        "[{}] journal CheckpointOk records disagree with the victim's checkpoint counter",
        sc.name
    );
    assert_eq!(
        count(EventKind::CheckpointFail),
        victim_ck_failures,
        "[{}] journal CheckpointFail records disagree with the victim's failure counter",
        sc.name
    );
    assert_eq!(
        count(EventKind::CheckpointBegin),
        victim_checkpoints + victim_ck_failures,
        "[{}] every checkpoint attempt must open with exactly one Begin record",
        sc.name
    );
    let mut open_begin = false;
    for ev in &story {
        match ev.event() {
            Some(EventKind::CheckpointBegin) => {
                assert!(!open_begin, "[{}] nested CheckpointBegin in the journal", sc.name);
                open_begin = true;
            }
            Some(EventKind::CheckpointOk) | Some(EventKind::CheckpointFail) => {
                assert!(
                    open_begin,
                    "[{}] checkpoint completion with no open Begin in the journal",
                    sc.name
                );
                open_begin = false;
            }
            _ => {}
        }
    }
    oracle_checks += 3;
    let flight_events_at_kill = story.len() as u64;

    // Churn through the dead window: quorum degrades to the survivor
    // alone (live 1 → quorum 1), so every op still resolves `Ok` and
    // the mirror stays the exact acked state.
    apply(sc.churn_while_dead, "dead-window", &handle, &mut gen, &mut mirror, &mut appended);
    handle.quiesce().unwrap_or_else(|e| panic!("[{}] mid-dead quiesce failed: {e:?}", sc.name));
    sweep("mid-dead-window", &handle, &mirror, &mut oracle_checks);
    assert!(
        !handle.endpoint_alive("s0e1"),
        "[{}] the killed endpoint must read dead before the restart",
        sc.name
    );

    // Restart: re-listen on the victim's address (ChanNet replaces the
    // dead listener) and cold-start by *mapping* the snapshot — the
    // initial key set is only the sort-rebuild fallback and must not be
    // needed.
    let (revived_srv, degraded) = NetServer::restart(
        Box::new(net.listen("s0e1")),
        &keys,
        NetServerConfig::new(serve_cfg("s0e1"), topology.clone(), 0),
    );
    assert!(degraded.is_none(), "[{}] restart fell back to sort-rebuild: {degraded:?}", sc.name);
    let recovered_watermark = revived_srv.log_position();
    assert!(
        recovered_watermark.1 <= seq_at_kill,
        "[{}] recovered watermark seq {} is past the kill-time head {seq_at_kill}",
        sc.name,
        recovered_watermark.1
    );

    // Rejoin: dial, handshake, position the replay cursors at the
    // recovered watermark, then flip the endpoint live. The appender
    // ships the retained suffix from there.
    handle.rejoin("s0e1").unwrap_or_else(|e| panic!("[{}] rejoin failed: {e:?}", sc.name));
    let mut waited = 0u32;
    while !handle.endpoint_alive("s0e1") {
        waited += 1;
        assert!(waited < 5_000, "[{}] rejoin handshake never completed", sc.name);
        clock.sleep(Duration::from_millis(1));
    }

    // Post-rejoin churn: quorum is 2 again, so each `Ok` proves the
    // revived endpoint acked — and it acks in log order, so the first
    // one already certifies the whole replayed suffix applied.
    apply(sc.churn_after_rejoin, "post-rejoin", &handle, &mut gen, &mut mirror, &mut appended);

    // Catch-up barrier: flush holds until *every* live endpoint —
    // revived one included — acked the log head, then the per-endpoint
    // quiesce roundtrips publish merged epochs for exact wire ranks.
    handle.quiesce().unwrap_or_else(|e| panic!("[{}] final quiesce failed: {e:?}", sc.name));
    sweep("post-rejoin", &handle, &mirror, &mut oracle_checks);

    // Convergence: both *processes* hold exactly the mirror — the
    // survivor that never blinked and the victim that recovered via
    // snapshot map + suffix replay.
    for (name, srv) in [("survivor", &survivor), ("revived", &revived_srv)] {
        assert_eq!(
            srv.server().len(),
            mirror.len(),
            "[{}] the {name} process did not converge to the mirror's op set",
            sc.name
        );
        let local = srv.server().handle();
        let mut probe = 0x00C0_FFEEu32;
        for _ in 0..128 {
            probe = probe.wrapping_mul(2_654_435_761).wrapping_add(12_345);
            let expect = mirror.range(..=probe).count() as u32;
            assert_eq!(
                local.lookup(probe),
                Ok(expect),
                "[{}] {name} local rank({probe}) diverged from the mirror",
                sc.name
            );
            oracle_checks += 1;
        }
    }
    assert_eq!(
        handle.live_keys(),
        mirror.len() as u64,
        "[{}] live-key accounting diverged from the mirror",
        sc.name
    );

    // The revived endpoint reopened the same journal file: recovery
    // must have kept the whole pre-kill story and appended past it
    // (post-rejoin churn checkpoints on the final quiesce barrier).
    let revived_story = read_journal(&dir.join("s0e1.flt"))
        .unwrap_or_else(|e| panic!("[{}] revived journal unreadable: {e}", sc.name));
    assert!(
        revived_story.len() > story.len(),
        "[{}] the revived journal must recover the {} pre-kill events and append new ones \
         (found {})",
        sc.name,
        story.len(),
        revived_story.len()
    );
    oracle_checks += 1;

    let stats = client.stats();

    // The client's own journal agrees with its counters: the kill is
    // recorded as an endpoint death and exactly `elections` epoch
    // bumps; the rejoin as a revival and exactly `update_resends`
    // catch-up suffix resends.
    let cstory = client_journal.events();
    let ccount = |k: EventKind| cstory.iter().filter(|e| e.event() == Some(k)).count() as u64;
    assert_eq!(
        ccount(EventKind::Election),
        stats.elections,
        "[{}] client journal election records disagree with the elections counter",
        sc.name
    );
    assert_eq!(
        ccount(EventKind::UpdateResend),
        stats.update_resends,
        "[{}] client journal resend records disagree with the update_resends counter",
        sc.name
    );
    assert!(
        ccount(EventKind::EndpointDead) >= 1,
        "[{}] the kill never reached the client journal as an EndpointDead record",
        sc.name
    );
    assert!(
        ccount(EventKind::EndpointRejoin) >= 1,
        "[{}] the rejoin never reached the client journal as an EndpointRejoin record",
        sc.name
    );
    oracle_checks += 4;

    let report = RestartReport {
        digest: 0,
        events: 0,
        virtual_ns: 0,
        recovered_from_snapshot: degraded.is_none(),
        recovered_watermark,
        seq_at_kill,
        elections: stats.elections,
        update_resends: stats.update_resends,
        oracle_checks,
        live_keys: handle.live_keys(),
        flight_events_at_kill,
    };
    drop(handle);
    drop(client);
    survivor.shutdown();
    revived_srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let (digest, events) = sim.digest();
    RestartReport { digest, events, virtual_ns: sim.now(), ..report }
}

/// Run twice under the same seed and require identical reports —
/// totals *and* event-trace digest. Crash recovery must be as replayable
/// as everything else: the kill, the snapshot map, the suffix replay,
/// and the rejoin all fold into the same deterministic event trace.
pub fn run_restart_scenario_reproducibly(sc: &RestartScenario, seed: u64) -> RestartReport {
    let a = run_restart_scenario(sc, seed);
    let b = run_restart_scenario(sc, seed);
    assert_eq!(
        a, b,
        "[{}] seed {seed} did not reproduce: wall-clock (or leftover snapshot state) \
         leaked into the crash-recovery path",
        sc.name
    );
    a
}
