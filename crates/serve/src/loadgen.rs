//! Closed- and open-loop load generation against a [`ServerHandle`].
//!
//! Two canonical harnesses:
//!
//! * **Closed loop** — `clients` threads each issue, wait, repeat. Offered
//!   load self-throttles with latency, so this measures capacity under
//!   well-behaved callers (and can never shed).
//! * **Open loop** — arrivals come from a seeded
//!   [`ArrivalProcess`] regardless of
//!   completions, issued with [`ServerHandle::begin_lookup`] and reaped
//!   by polling; overload surfaces as shed requests (refused at submit,
//!   or, for a lookup that joined the handle's open group, reported when
//!   it is reaped) instead of collapsing offered load. This is the
//!   regime admission control exists for.
//!
//! Latency is recorded *caller-side*, from just before the submit to
//! the reply (so a lookup ranked inside the submit call bills that
//! rank), coalescing delay and queueing included, per client, into
//! [`LogHistogram`]s merged into the report. With replica groups each
//! client's handle routes load-aware (power-of-two choices on live
//! replica queue depth), so the generators exercise exactly the path
//! production callers take; the per-replica service breakdown lives
//! server-side in [`IndexServer::replica_stats`](crate::IndexServer::replica_stats).
//!
//! All waiting and timestamping goes through the server's [`Clock`]
//! (taken from the [`ServerHandle`]), so the *same* code path drives
//! native wall-clock load and `dini-simtest`'s virtual-time load — no
//! `#[cfg]` forks, no second loadgen. Under a sim clock the open loop's
//! arrival schedule plays out in virtual time: a 10-second soak costs
//! milliseconds of wall-clock and replays deterministically.

use crate::clock::{dur_ns, Clock, Nanos};
use crate::config::ServeError;
use crate::server::ServerHandle;
use dini_cluster::LogHistogram;
use dini_workload::{ArrivalGen, ArrivalProcess, KeyDistribution, KeyGen};
use std::time::Duration;

/// What a load run offers to the server.
#[derive(Debug, Clone)]
pub enum LoadMode {
    /// `clients` closed-loop callers, `lookups_per_client` each.
    Closed {
        /// Concurrent caller threads.
        clients: usize,
        /// Lookups each caller issues.
        lookups_per_client: usize,
    },
    /// `clients` open-loop callers, each following `process` for
    /// `duration` (arrivals that would block are issued late, not
    /// dropped; arrivals that find a full queue are shed by the server).
    Open {
        /// Concurrent caller threads.
        clients: usize,
        /// Per-client arrival process.
        process: ArrivalProcess,
        /// Wall-clock run length per client.
        duration: Duration,
    },
}

/// Caller-side results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Wall-clock of the whole run.
    pub wall: Duration,
    /// Lookups answered.
    pub completed: u64,
    /// Lookups shed by admission control (open loop only).
    pub shed: u64,
    /// Caller-observed latency (ns).
    pub latency_ns: LogHistogram,
}

impl LoadReport {
    /// Answered lookups per second.
    pub fn throughput_lps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.wall.as_secs_f64()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{:.0} lookups/s ({} completed, {} shed, {:.2} s) | \
             latency p50 {:.1} µs, p99 {:.1} µs, p999 {:.1} µs",
            self.throughput_lps(),
            self.completed,
            self.shed,
            self.wall.as_secs_f64(),
            self.latency_ns.quantile(0.50) / 1e3,
            self.latency_ns.quantile(0.99) / 1e3,
            self.latency_ns.quantile(0.999) / 1e3,
        )
    }
}

struct ClientResult {
    completed: u64,
    shed: u64,
    latency_ns: LogHistogram,
}

/// Run `mode` against `handle`, drawing keys from `dist` (seeded per
/// client with `seed + client_id`).
pub fn run_load(
    handle: &ServerHandle,
    dist: KeyDistribution,
    seed: u64,
    mode: LoadMode,
) -> LoadReport {
    let clock = handle.clock().clone();
    let start = clock.now();
    let results: Vec<ClientResult> = match mode {
        LoadMode::Closed { clients, lookups_per_client } => {
            spawn_clients(handle, clients, move |h, id| {
                closed_loop(h, dist, seed + id, lookups_per_client)
            })
        }
        LoadMode::Open { clients, process, duration } => {
            spawn_clients(handle, clients, move |h, id| {
                open_loop(h, dist, seed + id, process, duration)
            })
        }
    };
    let wall = Duration::from_nanos(clock.now().saturating_sub(start));
    let mut report = LoadReport { wall, completed: 0, shed: 0, latency_ns: LogHistogram::new() };
    for r in results {
        report.completed += r.completed;
        report.shed += r.shed;
        report.latency_ns.merge(&r.latency_ns);
    }
    report
}

fn spawn_clients(
    handle: &ServerHandle,
    clients: usize,
    body: impl Fn(ServerHandle, u64) -> ClientResult + Clone + Send + 'static,
) -> Vec<ClientResult> {
    assert!(clients >= 1, "need at least one client");
    let clock = handle.clock();
    let joins: Vec<_> = (0..clients)
        .map(|id| {
            let h = handle.clone();
            let body = body.clone();
            clock.spawn(&format!("dini-load-{id}"), move || body(h, id as u64))
        })
        .collect();
    joins.into_iter().map(|j| j.join().expect("load client panicked")).collect()
}

fn closed_loop(h: ServerHandle, dist: KeyDistribution, seed: u64, lookups: usize) -> ClientResult {
    let clock = h.clock().clone();
    let mut gen = KeyGen::new(seed, dist);
    let mut r = ClientResult { completed: 0, shed: 0, latency_ns: LogHistogram::new() };
    for _ in 0..lookups {
        let key = gen.next_key();
        let t0 = clock.now();
        match h.lookup(key) {
            Ok(_) => {
                r.latency_ns.record(clock.now().saturating_sub(t0) as f64);
                r.completed += 1;
            }
            Err(ServeError::ShuttingDown) => break,
            Err(ServeError::Overloaded { .. }) => unreachable!("closed loop blocks"),
        }
    }
    r
}

struct InFlight {
    issued: Nanos,
    pending: crate::server::PendingLookup,
}

/// Longest the open loop will sleep between reap sweeps. Recorded latency
/// is reap time − issue time, so the reap cadence bounds the measurement
/// error: without a cap, a reply landing right after the loop dozed off
/// would sit unreaped for a whole inter-arrival gap and be billed the gap
/// as latency (the bug this constant fixes — at 50 arrivals/s that
/// over-reported p50 by up to 20 ms).
const MAX_REAP_INTERVAL: Duration = Duration::from_micros(500);

impl ClientResult {
    /// Count one reaped reply issued at `issued`.
    fn settle(&mut self, clock: &Clock, issued: Nanos, reply: Result<u32, ServeError>) {
        match reply {
            Ok(_) => {
                self.latency_ns.record(clock.now().saturating_sub(issued) as f64);
                self.completed += 1;
            }
            Err(ServeError::Overloaded { .. }) => self.shed += 1,
            Err(ServeError::ShuttingDown) => {}
        }
    }
}

/// Reap completed lookups; replies never gate arrivals.
fn reap(clock: &Clock, in_flight: &mut Vec<InFlight>, r: &mut ClientResult) {
    in_flight.retain(|f| match f.pending.poll() {
        Some(reply) => {
            r.settle(clock, f.issued, reply);
            false
        }
        None => true,
    });
}

fn open_loop(
    h: ServerHandle,
    dist: KeyDistribution,
    seed: u64,
    process: ArrivalProcess,
    duration: Duration,
) -> ClientResult {
    let clock = h.clock().clone();
    let mut keys = KeyGen::new(seed, dist);
    let mut arrivals = ArrivalGen::new(seed ^ 0x9E37_79B9, process);
    let mut r = ClientResult { completed: 0, shed: 0, latency_ns: LogHistogram::new() };
    let mut in_flight: Vec<InFlight> = Vec::new();
    let start = clock.now();
    let duration_ns = dur_ns(duration);
    let mut next_at: Nanos = 0; // offset from `start`, in clock time
    loop {
        next_at = arrivals.next_at_ns(next_at);
        if next_at >= duration_ns {
            break;
        }
        // Wait out the gap to the next scheduled arrival in capped
        // slices, reaping between slices so in-flight replies are
        // timestamped promptly instead of after the whole gap. Late
        // arrivals issue immediately — the schedule never stretches on
        // slow replies, which is what keeps the loop "open".
        loop {
            reap(&clock, &mut in_flight, &mut r);
            let elapsed = clock.now().saturating_sub(start);
            if elapsed >= next_at {
                break;
            }
            let remaining = next_at - elapsed;
            // The reap cadence only matters while replies are actually
            // outstanding; an idle client sleeps the whole gap at once.
            let nap = if in_flight.is_empty() {
                remaining
            } else {
                remaining.min(dur_ns(MAX_REAP_INTERVAL))
            };
            clock.sleep(Duration::from_nanos(nap));
        }
        // Stamped before the submit: a lookup ranked inside it bills
        // the rank.
        let issued = clock.now();
        match h.begin_lookup(keys.next_key()) {
            Ok(pending) => in_flight.push(InFlight { issued, pending }),
            Err(ServeError::Overloaded { .. }) => r.shed += 1,
            Err(ServeError::ShuttingDown) => break,
        }
    }
    for f in in_flight {
        let reply = f.pending.wait();
        r.settle(&clock, f.issued, reply);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::server::IndexServer;
    use dini_workload::gen_sorted_unique_keys;

    fn quick_server(shards: usize) -> IndexServer {
        let keys = gen_sorted_unique_keys(20_000, 5);
        IndexServer::build(&keys, ServeConfig::new(shards))
    }

    #[test]
    fn closed_loop_completes_every_lookup() {
        let server = quick_server(2);
        let report = run_load(
            &server.handle(),
            KeyDistribution::Uniform,
            1,
            LoadMode::Closed { clients: 4, lookups_per_client: 250 },
        );
        assert_eq!(report.completed, 1000);
        assert_eq!(report.shed, 0);
        assert!(report.throughput_lps() > 0.0);
        assert_eq!(report.latency_ns.count(), 1000);
        assert_eq!(server.stats().served, 1000);
        assert!(report.summary().contains("lookups/s"));
    }

    #[test]
    fn open_loop_offers_on_schedule() {
        let server = quick_server(2);
        let report = run_load(
            &server.handle(),
            KeyDistribution::Uniform,
            2,
            LoadMode::Open {
                clients: 2,
                process: ArrivalProcess::uniform_rate(2000.0),
                duration: Duration::from_millis(200),
            },
        );
        // 2 clients × 2000/s × 0.2 s ≈ 800 arrivals; allow wide slack for
        // slow CI machines, but the loop must make real progress.
        let offered = report.completed + report.shed;
        assert!(offered > 100, "offered only {offered}");
        assert!(report.wall >= Duration::from_millis(150));
    }

    #[test]
    fn open_loop_latency_not_inflated_by_sparse_arrivals() {
        // Regression: open_loop used to reap in-flight replies only after
        // the *next* arrival, so at sparse rates a reply that landed in
        // microseconds sat unreaped through the whole inter-arrival sleep
        // and `issued.elapsed()` billed it up to a full gap. At 50
        // arrivals/s (20 ms gaps) against an idle server whose batch
        // delay is 100 µs, honest p50 is well under a millisecond; the
        // bug recorded ~20 ms.
        let server = quick_server(2);
        let gap = Duration::from_millis(20);
        let report = run_load(
            &server.handle(),
            KeyDistribution::Uniform,
            7,
            LoadMode::Open {
                clients: 1,
                process: ArrivalProcess::uniform_rate(50.0),
                duration: Duration::from_millis(400),
            },
        );
        assert!(report.completed >= 10, "sparse run must complete lookups");
        let p50 = Duration::from_nanos(report.latency_ns.quantile(0.50) as u64);
        assert!(
            p50 < gap / 4,
            "p50 {p50:?} is inflated toward the {gap:?} inter-arrival gap: \
             replies are not being reaped promptly"
        );
    }

    #[test]
    fn zipf_load_hits_hot_shards_without_errors() {
        let server = quick_server(4);
        let report = run_load(
            &server.handle(),
            KeyDistribution::Zipf { n_buckets: 64, s: 1.2 },
            3,
            LoadMode::Closed { clients: 2, lookups_per_client: 200 },
        );
        assert_eq!(report.completed, 400);
    }
}
