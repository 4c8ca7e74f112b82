//! Determinism of the simulation itself — the property every scenario
//! leans on, tested directly so a wall-clock leak (an `Instant::now()`
//! or raw `thread::sleep` creeping back into a sim-clocked path) fails
//! here first, with a clear name.

use dini_serve::ServeFaultPlan;
use dini_simtest::{run_scenario, Report, Scenario};
use dini_workload::ArrivalProcess;
use std::collections::HashSet;
use std::time::Duration;

/// A scenario that exercises every subsystem at once (churn + merges +
/// publication + mid-run quiesce + multiple clients + both ways a lookup
/// is answered): the widest surface a nondeterminism bug could hide in.
/// Shard 0 is a straggler, so its requests queue, coalesce and wait on
/// its dispatcher — real contention, whose timing follows the seeded
/// arrivals — while the other shards' lookups are ranked by the clients
/// themselves, at no virtual cost.
fn busy_scenario() -> Scenario {
    let mut sc = Scenario::base("determinism-busy");
    sc.churn_ops = 800;
    sc.churn_gap = Duration::from_micros(10);
    sc.merge_threshold = 64;
    sc.publish_every = 8;
    sc.quiesce_mid_run = true;
    sc.arrival = ArrivalProcess::poisson_rate(15_000.0);
    let extra = Duration::from_micros(300);
    sc.faults = ServeFaultPlan::none().slow_shard(0, extra);
    // Queued behind one slow batch, then riding its own.
    sc.latency_bound = Some(sc.max_delay + 2 * extra);
    sc
}

#[test]
fn same_seed_byte_identical_reports() {
    let sc = busy_scenario();
    for seed in [0u64, 7, 42] {
        let a = run_scenario(&sc, seed);
        let b = run_scenario(&sc, seed);
        assert_eq!(a, b, "seed {seed}: rerun diverged — wall clock leaked into the sim path");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.virtual_ns, b.virtual_ns);
    }
}

#[test]
fn distinct_seeds_distinct_interleavings() {
    let sc = busy_scenario();
    let reports: Vec<Report> = (0..4).map(|seed| run_scenario(&sc, seed)).collect();
    let digests: HashSet<u64> = reports.iter().map(|r| r.digest).collect();
    assert_eq!(
        digests.len(),
        reports.len(),
        "seeds must produce distinct event traces; a collision here means the seed is \
         not actually reaching the workload"
    );
    // Seeds must differ in *behaviour*, not just in hash: virtual
    // makespans depend on the seeded arrival gaps.
    let makespans: HashSet<u64> = reports.iter().map(|r| r.virtual_ns).collect();
    assert!(makespans.len() > 1, "all seeds produced identical virtual makespans");
}

#[test]
fn virtual_time_outruns_wall_clock() {
    // ~72 virtual ms of open-loop load (sparse arrivals, long idle
    // gaps) must complete orders of magnitude faster in wall-clock:
    // the sim fast-forwards idle waits instead of sleeping them.
    let mut sc = Scenario::base("determinism-fastforward");
    sc.arrival = ArrivalProcess::poisson_rate(700.0); // sparse: mostly idle
    sc.lookups_per_client = 50;
    let wall = std::time::Instant::now();
    let report = run_scenario(&sc, 5);
    let wall = wall.elapsed();
    assert!(
        report.virtual_ns > 30_000_000,
        "sparse arrivals should span tens of virtual ms, got {} ns",
        report.virtual_ns
    );
    assert!(
        wall < Duration::from_secs(10),
        "virtual idle time must not be slept in wall-clock (took {wall:?})"
    );
}
