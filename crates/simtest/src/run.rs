//! The one runner: build what a [`Deployment`] describes on a fresh
//! [`SimClock`], drive its load and lifecycle, hold the outcome to the
//! oracles, tear it down and read the digest.
//!
//! Order is behaviour here. The scheduler polls threads in the order
//! they were spawned and the digest folds slot ids, so servers, client,
//! churn thread, stats poller and probes start in exactly that order,
//! and every post-load step that waits on the clock (barrier, sweep,
//! final polls, teardown) keeps its place — `tests/golden.txt` notices
//! when one moves.

use crate::oracles::{self, Outcome};
use crate::{Deployment, Report, Step};
use dini_cluster::{Fault, FaultSchedule};
use dini_net::transport::ChanNet;
use dini_net::{ClientConfig, NetHandle, NetServer, NetServerConfig, RemoteClient, Span, Topology};
use dini_obs::StageRecord;
use dini_serve::clock::dur_ns;
use dini_serve::{
    read_journal, Clock, FlightEvent, FlightJournal, IndexServer, Nanos, ServeConfig, ServeError,
    ServeStats, ServerHandle, SimClock, SnapError, StorePlan, TraceConfig, UpdateHandle,
};
use dini_workload::{
    gen_sorted_unique_keys, ArrivalGen, ChurnGen, KeyDistribution, KeyGen, Op, OpMix,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Salts decorrelating the churn stream from the key and arrival
/// streams of the same seed, in process and over a wire. Two values for
/// one job only because `tests/golden.txt` pins the schedules each one
/// produces; a new topology should reuse one, not add a third.
const CHURN_SALT_IN_PROCESS: u64 = 0xC0A1_E5CE ^ 0x9E37_79B9_7F4A_7C15;
const CHURN_SALT_WIRE: u64 = 0x5EA5_1DE5 ^ 0x9E37_79B9_7F4A_7C15;

/// Longest a probe lets a completed reply sit unreaped (bounds the
/// latency-measurement error, exactly like `loadgen`'s open loop).
const REAP_CADENCE: Duration = Duration::from_micros(100);

/// Ranks the closing sweep samples through the front.
const CLOSING_SWEEP: usize = 256;

/// Where a deployment takes its requests: the server's own handle, or a
/// client's, over the wire.
#[derive(Clone)]
pub(crate) enum Front {
    Local(ServerHandle, UpdateHandle),
    Wire(NetHandle),
}

/// A lookup in flight, as its probe sees it: the reply once it is in.
type Pending = Box<dyn Fn() -> Option<Result<u32, ServeError>>>;

impl Front {
    fn begin_lookup(&self, key: u32) -> Result<Pending, ServeError> {
        match self {
            Front::Local(h, _) => h.begin_lookup(key).map(|p| Box::new(move || p.poll()) as _),
            Front::Wire(h) => h.begin_lookup(key).map(|p| Box::new(move || p.poll()) as _),
        }
    }

    pub(crate) fn lookup(&self, key: u32) -> Result<u32, ServeError> {
        match self {
            Front::Local(h, _) => h.lookup(key),
            Front::Wire(h) => h.lookup(key),
        }
    }

    fn update(&self, op: Op) -> Result<(), ServeError> {
        match self {
            Front::Local(_, u) => u.update(op),
            Front::Wire(h) => h.update(op),
        }
    }

    /// The key-space owner a key routes to: its shard in process, its
    /// span over a wire (what [`Deployment::dark_owners`] names).
    pub(crate) fn owner_of(&self, key: u32) -> usize {
        match self {
            Front::Local(h, _) => h.shard_of(key),
            Front::Wire(h) => h.span_of(key),
        }
    }

    pub(crate) fn wire(&self) -> &NetHandle {
        match self {
            Front::Wire(h) => h,
            Front::Local(..) => panic!("this needs a wire: set Deployment::spans"),
        }
    }
}

/// The one rank sweep: walk `n` keys of an LCG from `start` (so a sweep
/// is a function of the state it checks alone), skip those `skip` says
/// nobody can answer, and hold `lookup` to `mirror` on the rest.
/// Returns how many were checked.
pub(crate) fn sweep(
    what: &str,
    start: u32,
    n: usize,
    mirror: &BTreeSet<u32>,
    skip: impl Fn(u32) -> bool,
    lookup: impl Fn(u32) -> Result<u32, ServeError>,
) -> u64 {
    let (mut key, mut checked) = (start, 0);
    for _ in 0..n {
        key = key.wrapping_mul(2_654_435_761).wrapping_add(12_345);
        if skip(key) {
            continue;
        }
        let expect = mirror.range(..=key).count() as u32;
        assert_eq!(lookup(key), Ok(expect), "{what}: rank({key}) diverged from the churn mirror");
        checked += 1;
    }
    checked
}

/// The one churn stream and the mirror of what it has fed: every op
/// passes through [`feed`](Self::feed), wherever it is fed from.
pub(crate) struct Churn {
    gen: ChurnGen,
    pub(crate) mirror: BTreeSet<u32>,
    /// Ops appended per span (each span's churn-log seq, over a wire).
    pub(crate) appended: Vec<u64>,
}

impl Churn {
    fn new(d: &Deployment, seed: u64, keys: &[u32]) -> Self {
        let salt = if d.spans == 0 { CHURN_SALT_IN_PROCESS } else { CHURN_SALT_WIRE };
        // No queries in the mix: the stream only mutates; lookups come
        // from the probes.
        let mix = OpMix { query: 0.0, insert: 0.6, delete: 0.4 };
        Self {
            gen: ChurnGen::new(seed ^ salt, KeyDistribution::Uniform, mix),
            mirror: keys.iter().copied().collect(),
            appended: vec![0; d.spans],
        }
    }

    /// Draw the next op, feed it, and — once it is acknowledged — fold
    /// it into the mirror.
    fn feed(&mut self, front: &Front) -> Result<(), ServeError> {
        let op = self.gen.next_op();
        front.update(op)?;
        match op {
            Op::Insert(k) => self.mirror.insert(k),
            Op::Delete(k) => self.mirror.remove(&k),
            Op::Query(_) => return Ok(()),
        };
        if let Front::Wire(h) = front {
            self.appended[h.span_of(op.key())] += 1;
        }
        Ok(())
    }
}

/// What one probe observed.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) issued: u64,
    pub(crate) ok: u64,
    pub(crate) shed: u64,
    pub(crate) shutdown: u64,
    pub(crate) checks: u64,
    pub(crate) max_latency_ns: Nanos,
}

impl Tally {
    fn settle(&mut self, reply: Result<u32, ServeError>) {
        match reply {
            Ok(_) => self.ok += 1,
            Err(ServeError::Overloaded { .. }) => self.shed += 1,
            Err(ServeError::ShuttingDown) => self.shutdown += 1,
        }
    }
}

/// An open-loop probe: seeded arrivals (admission never waits on
/// replies), replies reaped on [`REAP_CADENCE`] so the latency it
/// reports is honest, and — with `verify`, for a static key set — every
/// rank checked when it is reaped.
fn probe(front: Front, clock: Clock, keys: Arc<Vec<u32>>, seed: u64, d: Deployment) -> Tally {
    // Exact per-reply verification only makes sense for a static key set.
    let verify = !d.churns();
    let mut keygen = KeyGen::new(seed, KeyDistribution::Uniform);
    let mut arrivals = ArrivalGen::new(seed ^ 0x9E37_79B9, d.arrival);
    let mut t = Tally::default();
    let mut in_flight: Vec<(u32, Nanos, Pending)> = Vec::new();
    let start = clock.now();
    let mut at = 0u64;

    let reap = |in_flight: &mut Vec<(u32, Nanos, Pending)>, t: &mut Tally| {
        in_flight.retain(|(key, issued, pending)| {
            let Some(reply) = pending() else { return true };
            t.settle(reply);
            if let Ok(rank) = reply {
                t.max_latency_ns = t.max_latency_ns.max(clock.now().saturating_sub(*issued));
                if verify {
                    let expect = keys.partition_point(|&k| k <= *key) as u32;
                    assert_eq!(rank, expect, "rank({key}) wrong under simulation");
                    t.checks += 1;
                }
            }
            false
        });
    };

    for _ in 0..d.lookups_per_client {
        at = arrivals.next_at_ns(at);
        let target = start.saturating_add(at);
        loop {
            reap(&mut in_flight, &mut t);
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
        match front.begin_lookup(key) {
            Ok(pending) => in_flight.push((key, clock.now(), pending)),
            Err(e) => t.settle(Err(e)),
        }
    }
    // Drain: keep reaping on the cadence so tail latencies stay honest.
    loop {
        reap(&mut in_flight, &mut t);
        if in_flight.is_empty() {
            return t;
        }
        clock.sleep(REAP_CADENCE);
    }
}

/// Monotone counter making each run's scratch directory unique — the
/// reproducibility wrapper runs the same seed twice and the second run
/// must not recover the first run's journals or map its checkpoints.
static SCRATCH_RUN: AtomicU64 = AtomicU64::new(0);

/// A run's scratch directory under the OS temp dir: journals and
/// snapshots live here, and it goes when the run does — a failed
/// oracle's unwind included, which is when a clean re-run matters most.
/// Journal and snapshot I/O is mmap stores and plain file writes that
/// never wait on the sim clock, so none of it can perturb the digest.
pub(crate) struct Scratch(PathBuf);

impl Scratch {
    fn create(name: &str) -> Self {
        let run = SCRATCH_RUN.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dini-simtest-{}-{run}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("[{name}] scratch dir: {e}"));
        Self(dir)
    }

    /// Open (or, after a kill, recover) the journal of `who`.
    fn journal(&self, who: &str) -> Arc<FlightJournal> {
        let path = self.0.join(format!("{who}.flt"));
        Arc::new(
            FlightJournal::open(&path, 4096)
                .unwrap_or_else(|e| panic!("flight journal {}: {e}", path.display())),
        )
    }

    /// The journal of `who` as a postmortem reads it: cold, off disk.
    pub(crate) fn read(&self, who: &str) -> Vec<FlightEvent> {
        let path = self.0.join(format!("{who}.flt"));
        read_journal(&path).unwrap_or_else(|e| panic!("journal {} unreadable: {e}", path.display()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What it takes to start a server process — the first time or again.
pub(crate) struct Site<'a> {
    d: &'a Deployment,
    seed: u64,
    /// The deployment's schedule under the run's seed.
    faults: FaultSchedule,
    clock: Clock,
    keys: Arc<Vec<u32>>,
    net: Arc<ChanNet>,
    topology: Topology,
    pub(crate) scratch: Option<Scratch>,
}

impl Site<'_> {
    fn trace(&self) -> TraceConfig {
        TraceConfig { capacity: 4096, sample_period: self.d.trace_sample_period, seed: self.seed }
    }

    /// The server `who` runs, persisting next to its journal when the
    /// deployment keeps one.
    fn serve_config(&self, who: &str) -> ServeConfig {
        let d = self.d;
        let mut cfg = ServeConfig::new(d.shards);
        cfg.replicas_per_shard = d.replicas_per_shard;
        cfg.max_batch = d.max_batch;
        cfg.max_delay = d.max_delay;
        cfg.queue_capacity = d.queue_capacity;
        cfg.merge_threshold = d.merge_threshold;
        cfg.publish_every = d.publish_every;
        cfg.clock = self.clock.clone();
        cfg.faults = self.faults.clone();
        cfg.trace = self.trace();
        if let Some(scratch) = &self.scratch {
            cfg.store = Some(StorePlan::new(scratch.0.join(format!("{who}.snap"))));
            cfg.flight = Some(scratch.journal(who));
        }
        cfg
    }

    pub(crate) fn addr(&self, endpoint: usize) -> String {
        let per = self.d.endpoints_per_span;
        format!("s{}e{}", endpoint / per, endpoint % per)
    }

    /// Start `endpoint`'s server process over its span's slice of the
    /// keys — or, restarting, over its snapshot, with that slice only
    /// the sort-rebuild fallback.
    fn host(&self, endpoint: usize, restart: bool) -> (NetServer, Option<SnapError>) {
        let (addr, span) = (self.addr(endpoint), endpoint / self.d.endpoints_per_span);
        let acceptor = Box::new(self.net.listen(&addr));
        let part = self.topology.split(&self.keys)[span];
        let cfg = NetServerConfig::new(self.serve_config(&addr), self.topology.clone(), span);
        if restart {
            assert!(self.d.flight, "[{}] Step::Restart needs Deployment::flight", self.d.name);
            NetServer::restart(acceptor, part, cfg)
        } else {
            (NetServer::start(acceptor, part, cfg), None)
        }
    }
}

/// Everything a deployment runs. Field order is drop order, for the
/// unwind of a failed oracle: handles before the servers they feed,
/// the scratch directory (in `site`) after everything that writes it.
pub(crate) struct Cluster<'a> {
    pub(crate) front: Front,
    client: Option<RemoteClient>,
    pub(crate) client_journal: Option<Arc<FlightJournal>>,
    /// The in-process deployment's one server.
    local: Option<IndexServer>,
    /// One slot per endpoint, span-major; `None` while killed.
    pub(crate) hosted: Vec<Option<NetServer>>,
    /// `(endpoint, events its journal held)` at each kill.
    pub(crate) stories: Vec<(usize, usize)>,
    pub(crate) site: Site<'a>,
}

impl<'a> Cluster<'a> {
    fn start(d: &'a Deployment, seed: u64, clock: &Clock, keys: &Arc<Vec<u32>>) -> Self {
        // Spans of near-equal population, replica endpoints named
        // span-major.
        let per = d.n_keys / d.spans.max(1);
        let endpoints = d.spans * d.endpoints_per_span;
        for event in &d.faults.events {
            if let Fault::Sever { endpoint, .. } | Fault::Partition { endpoint, .. } = *event {
                let name = d.name;
                assert!(endpoint < endpoints, "[{name}] {event:?} names none of {endpoints} links");
            }
        }
        let mut site = Site {
            d,
            seed,
            faults: FaultSchedule { seed, ..d.faults.clone() },
            clock: clock.clone(),
            keys: keys.clone(),
            net: ChanNet::new(clock.clone()),
            topology: Topology { spans: Vec::new() },
            scratch: d.flight.then(|| Scratch::create(d.name)),
        };
        site.topology.spans = (0..d.spans)
            .map(|s| Span {
                lo_key: if s == 0 { 0 } else { keys[s * per] },
                endpoints: (0..d.endpoints_per_span)
                    .map(|e| site.addr(s * d.endpoints_per_span + e))
                    .collect(),
            })
            .collect();
        let client_journal = site.scratch.as_ref().map(|s| s.journal("client"));

        if d.spans == 0 {
            let server = IndexServer::build(keys, site.serve_config("local"));
            let front = Front::Local(server.handle(), server.updater());
            let (local, hosted) = (Some(server), Vec::new());
            let stories = Vec::new();
            return Self { front, client: None, client_journal, local, hosted, stories, site };
        }

        for ep in 0..endpoints {
            site.net.set_link(&site.addr(ep), site.faults.link(ep));
        }
        let hosted = (0..endpoints).map(|ep| Some(site.host(ep, false).0)).collect();

        // The client bootstraps off span 0, endpoint 0.
        let ccfg = ClientConfig {
            clock: clock.clone(),
            max_batch: d.max_batch,
            max_delay: d.client_max_delay,
            retry_timeout: d.retry_timeout,
            max_retries: d.max_retries,
            ctrl_timeout: Duration::from_millis(20),
            handshake_timeout: Duration::from_millis(20),
            trace: site.trace(),
            flight: client_journal.clone(),
            ..ClientConfig::default()
        };
        let client = RemoteClient::connect(site.net.dialer(), &site.addr(0), ccfg)
            .unwrap_or_else(|e| panic!("[{}] connect failed: {e}", d.name));
        let front = Front::Wire(client.handle());
        let stories = Vec::new();
        Self { front, client: Some(client), client_journal, local: None, hosted, stories, site }
    }

    /// Every server process, endpoint-major (`None` while killed); in
    /// process, the one server.
    pub(crate) fn servers(&self) -> Vec<Option<&IndexServer>> {
        match &self.local {
            Some(server) => vec![Some(server)],
            None => self.hosted.iter().map(|s| s.as_ref().map(NetServer::server)).collect(),
        }
    }

    /// Live keys as the front counts them.
    pub(crate) fn live_keys(&self) -> u64 {
        self.local.as_ref().map_or_else(|| self.front.wire().live_keys(), |s| s.len() as u64)
    }

    /// Barrier: every fed op applied and published everywhere.
    fn quiesce(&self) {
        match &self.local {
            Some(server) => server.quiesce(),
            None => self
                .front
                .wire()
                .quiesce()
                .unwrap_or_else(|e| panic!("[{}] quiesce failed: {e:?}", self.site.d.name)),
        }
    }

    /// [`Step::Kill`]: crash-like process shutdown (the writer takes no
    /// parting checkpoint — whatever barriers or merge cycles persisted
    /// is all a restart gets). The victim's live checkpoint counters
    /// are read first: its journal on disk must tell the same story.
    /// Returns the events that journal held.
    fn kill(&mut self, endpoint: usize) -> u64 {
        let name = self.site.d.name;
        let victim = self.hosted[endpoint]
            .take()
            .unwrap_or_else(|| panic!("[{name}] endpoint {endpoint} is already down"));
        let server = victim.server();
        let (checkpoints, failures) = (server.checkpoints(), server.checkpoint_failures());
        victim.shutdown();
        let Some(scratch) = &self.site.scratch else { return 0 };
        let story = scratch.read(&self.site.addr(endpoint));
        oracles::checkpoint_story(name, &story, checkpoints, failures);
        self.stories.push((endpoint, story.len()));
        story.len() as u64
    }

    /// [`Step::Restart`]: re-listen on the victim's address (`ChanNet`
    /// replaces the dead listener) and cold-start by *mapping* the
    /// snapshot. Returns the `(epoch, seq)` watermark it recovered at,
    /// which cannot be past `seq_at_kill`.
    fn restart(&mut self, endpoint: usize, seq_at_kill: u64) -> (u64, u64) {
        let (name, addr) = (self.site.d.name, self.site.addr(endpoint));
        assert!(self.hosted[endpoint].is_none(), "[{name}] endpoint {endpoint} is still up");
        assert!(
            !self.front.wire().endpoint_alive(&addr),
            "[{name}] the killed endpoint must read dead before the restart"
        );
        let (server, degraded) = self.site.host(endpoint, true);
        assert!(degraded.is_none(), "[{name}] restart fell back to sort-rebuild: {degraded:?}");
        let watermark = server.log_position();
        assert!(
            watermark.1 <= seq_at_kill,
            "[{name}] recovered watermark seq {} is past the kill-time head {seq_at_kill}",
            watermark.1
        );
        self.hosted[endpoint] = Some(server);
        watermark
    }

    /// [`Step::Rejoin`]: dial, handshake, position the replay cursors
    /// at the recovered watermark, then flip the endpoint live. The
    /// endpoint's worker ships the retained suffix from there.
    fn rejoin(&self, endpoint: usize) {
        let (name, addr, h) = (self.site.d.name, self.site.addr(endpoint), self.front.wire());
        h.rejoin(&addr).unwrap_or_else(|e| panic!("[{name}] rejoin failed: {e:?}"));
        let mut waited = 0u32;
        while !h.endpoint_alive(&addr) {
            waited += 1;
            assert!(waited < 5_000, "[{name}] rejoin handshake never completed");
            self.site.clock.sleep(Duration::from_millis(1));
        }
    }

    /// Wind everything down in the order it was built up from: handles,
    /// client, servers, scratch directory.
    fn shutdown(self) {
        let Self { front, client, client_journal, local, hosted, site, .. } = self;
        drop((front, client, client_journal, local));
        for server in hosted.into_iter().flatten() {
            server.shutdown();
        }
        drop(site);
    }
}

/// Mid-load wire introspection: `StatsRequest`s at every reachable span
/// while the probes hammer the same sockets; the counters may only move
/// forward, and never ahead of admissions. (The second holds here, not
/// on real threads: the simulator switches threads only at clock calls,
/// and none falls between a lookup's `served` and admission counts.)
/// Returns the polls answered.
fn poll_stats(h: NetHandle, d: Deployment) -> u64 {
    let (dark, name) = (d.dark_owners(), d.name);
    let mut prev_served = vec![0u64; d.spans];
    let mut answered = 0u64;
    for _ in 0..d.stats_polls {
        h.clock().sleep(d.stats_poll_gap);
        for (span, prev) in prev_served.iter_mut().enumerate() {
            if dark.contains(&span) {
                continue;
            }
            let Ok(polled) = h.span_stats(span) else { continue };
            let ServeStats { served, admitted, .. } = ServeStats::from(&polled);
            assert!(
                served >= *prev,
                "[{name}] span {span} served counter went backwards: {prev} then {served}"
            );
            assert!(
                served <= admitted,
                "[{name}] span {span} served {served} ahead of admitted {admitted}"
            );
            *prev = served;
            answered += 1;
        }
    }
    answered
}

/// Run `d` once under `seed` and enforce its oracles. Panics (with the
/// deployment's name) on any violation; returns the deterministic
/// [`Report`] otherwise.
pub fn run(d: &Deployment, seed: u64) -> Report {
    let name = d.name;
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let keys = Arc::new(gen_sorted_unique_keys(d.n_keys, seed));
    let mut cluster = Cluster::start(d, seed, &clock, &keys);
    let mut churn = Some(Churn::new(d, seed, &keys));

    // Churn beside the probes, from a dedicated thread that owns the
    // stream and its mirror until it is joined.
    let churn_thread = (d.churn_ops > 0).then(|| {
        let (front, mut churn) = (cluster.front.clone(), churn.take().expect("one owner"));
        let (ops, gap, clock2) = (d.churn_ops, d.churn_gap, clock.clone());
        clock.spawn("simtest-churn", move || {
            for _ in 0..ops {
                clock2.sleep(gap);
                if churn.feed(&front).is_err() {
                    break;
                }
            }
            churn
        })
    });
    let stats_thread = (d.stats_polls > 0).then(|| {
        let (h, d) = (cluster.front.wire().clone(), d.clone());
        clock.spawn("simtest-stats-poll", move || poll_stats(h, d))
    });
    let probes: Vec<_> = (0..d.clients)
        .map(|id| {
            let (front, clock2, keys, d) =
                (cluster.front.clone(), clock.clone(), keys.clone(), d.clone());
            let seed = seed.wrapping_add(1 + id as u64);
            clock.spawn(&format!("simtest-probe-{id}"), move || probe(front, clock2, keys, seed, d))
        })
        .collect();

    // The lifecycle, on this thread, while the load runs. Blocking here
    // is what hands the other threads their turns.
    let mut report = Report::default();
    let mut unswept = d.churn_ops > 0;
    for (i, step) in d.lifecycle.iter().enumerate() {
        let stepwise =
            || panic!("[{name}] step {i} ({step:?}) needs step-fed churn, not churn_ops");
        match *step {
            Step::Pause(gap) => clock.sleep(gap),
            Step::Churn(n) => {
                let churn = churn.as_mut().unwrap_or_else(stepwise);
                for op in 0..n {
                    churn
                        .feed(&cluster.front)
                        .unwrap_or_else(|e| panic!("[{name}] step {i}, op {op} failed: {e:?}"));
                }
                unswept = true;
            }
            Step::Quiesce => cluster.quiesce(),
            Step::Sweep(n) => {
                let churn = churn.as_mut().unwrap_or_else(stepwise);
                cluster.quiesce();
                let what = format!("[{name}] step {i}");
                let lookup = |k| cluster.front.lookup(k);
                report.oracle_checks += sweep(&what, 0x9E37, n, &churn.mirror, |_| false, lookup);
                unswept = false;
            }
            Step::Kill(endpoint) => {
                let churn = churn.as_mut().unwrap_or_else(stepwise);
                report.seq_at_kill = churn.appended[endpoint / d.endpoints_per_span];
                report.flight_events_at_kill = cluster.kill(endpoint);
            }
            Step::Restart(endpoint) => {
                report.recovered_watermark = Some(cluster.restart(endpoint, report.seq_at_kill));
            }
            Step::Rejoin(endpoint) => cluster.rejoin(endpoint),
        }
    }

    for p in probes {
        let t = p.join().expect("probe panicked");
        report.issued += t.issued;
        report.ok += t.ok;
        report.shed += t.shed;
        report.shutdown += t.shutdown;
        report.oracle_checks += t.checks;
        report.max_client_latency_ns = report.max_client_latency_ns.max(t.max_latency_ns);
    }
    let churn = match churn_thread {
        Some(t) => t.join().expect("churn thread panicked"),
        None => churn.expect("nobody took it"),
    };
    report.stats_polls_ok = stats_thread.map_or(0, |t| t.join().expect("stats poller panicked"));

    // The closing barrier and sweep: whenever ops were fed since the
    // last one, and always in process, where a sweep costs no wire
    // traffic. Owners the description took down for good are skipped;
    // one survivor keeps an owner answering.
    if unswept || d.spans == 0 {
        cluster.quiesce();
        let (dark, front) = (d.dark_owners(), &cluster.front);
        let skip = |k| dark.contains(&front.owner_of(k));
        let what = format!("[{name}] post-quiesce");
        report.oracle_checks +=
            sweep(&what, 0x9E37, CLOSING_SWEEP, &churn.mirror, skip, |k| front.lookup(k));
    }

    // What the servers and the client count, then the oracles over it.
    let traces: Vec<StageRecord> =
        cluster.servers().into_iter().flatten().flat_map(IndexServer::stage_traces).collect();
    report.trace_records = traces.len() as u64;
    report.max_wait_ns = traces.iter().map(StageRecord::wait_ns).max().unwrap_or(0);
    for server in cluster.servers() {
        let stats = server.map(IndexServer::stats).unwrap_or_default();
        report.served += stats.served;
        report.admitted += stats.admitted;
        report.max_latency_ns = report.max_latency_ns.max(stats.latency_ns.max() as u64);
        report.merges += stats.merges;
        report.snapshots += stats.snapshots_published;
        report.updates_applied += stats.updates_applied;
        report.rerouted += stats.rerouted;
        report.served_per_server.push(stats.served);
        let replicas = server.map(IndexServer::replica_stats).unwrap_or_default();
        report.per_replica_served.extend(replicas.iter().map(|r| r.served));
    }
    let outcome = Outcome { d, cluster: &cluster, report: &report, mirror: &churn.mirror };
    oracles::reply_completeness(&outcome);
    oracles::servers_hold(&outcome, &traces);
    let converged = if d.churns() { oracles::replicas_converged(&outcome) } else { 0 };
    oracles::final_stats_polls(&outcome);
    let client = cluster.client.as_ref().map(RemoteClient::stats).unwrap_or_default();
    let stitched_timelines = oracles::causal_stitching(&outcome, &traces);
    let flight_events = oracles::journals_agree(&outcome, &client);
    let live_keys = cluster.live_keys();

    cluster.shutdown();
    let (digest, events) = sim.digest();
    Report {
        digest,
        events,
        virtual_ns: sim.now(),
        oracle_checks: report.oracle_checks + converged,
        rerouted: report.rerouted + client.rerouted,
        retries: client.retries,
        update_resends: client.update_resends,
        elections: client.elections,
        stitched_timelines,
        flight_events,
        live_keys,
        ..report
    }
}
