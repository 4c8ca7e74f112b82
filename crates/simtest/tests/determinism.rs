//! Determinism of the simulation itself — the property every scenario
//! leans on, tested directly so a wall-clock leak (an `Instant::now()`
//! or raw `thread::sleep` creeping back into a sim-clocked path) fails
//! here first, with a clear name.

mod catalog;

use catalog::determinism_busy;
use dini_simtest::{run, Report};
use std::collections::HashSet;
use std::time::Duration;

#[test]
fn same_seed_byte_identical_reports() {
    for seed in [0u64, 7, 42] {
        let a = run(&determinism_busy(seed), seed);
        let b = run(&determinism_busy(seed), seed);
        assert_eq!(a, b, "seed {seed}: rerun diverged — wall clock leaked into the sim path");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.virtual_ns, b.virtual_ns);
    }
}

#[test]
fn distinct_seeds_distinct_interleavings() {
    let reports: Vec<Report> = (0..4).map(|seed| run(&determinism_busy(seed), seed)).collect();
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
    let wall = std::time::Instant::now();
    let report = run(&catalog::determinism_fastforward(5), 5);
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
