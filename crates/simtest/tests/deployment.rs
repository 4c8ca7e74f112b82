//! What one description makes possible that three could not: the same
//! load run both ways and compared, and one scratch-directory guard for
//! every run that keeps journals.

use dini_cluster::FaultSchedule;
use dini_simtest::{run, seeds_from_env, Deployment, Report};
use std::time::Duration;

/// Differential: the same keys, probes and seed, once in process and
/// once through a client to one server process over a link that costs
/// nothing. The wire may add waiting — exactly the probe's reap cadence,
/// which is all the looser bound below allows — but not change what is
/// asked, answered or served.
/// Every reply is checked against the static key set in both runs, so
/// equal counts of checked replies are equal per-key ranks.
#[test]
fn in_process_and_over_a_free_wire_agree() {
    // In process the closing sweep always runs (it costs no wire
    // traffic) and is served like any lookup; leave it out of both sides.
    let by_probes = |r: &Report| (r.served - (r.oracle_checks - r.ok), r.ok);
    for seed in seeds_from_env() {
        let local = Deployment::in_process("differential-in-process");
        let wired = Deployment {
            name: "differential-over-a-free-wire",
            spans: 1,
            faults: FaultSchedule::default(),
            latency_bound: local.latency_bound.map(|b| b + Duration::from_micros(100)),
            ..local.clone()
        };
        let (a, b) = (run(&local, seed), run(&wired, seed));
        assert_eq!((a.issued, a.ok, a.shed, a.shutdown), (b.issued, b.ok, b.shed, b.shutdown));
        assert_eq!(a.ok, a.issued, "seed {seed}: fault-free, so every lookup answers");
        assert_eq!(by_probes(&a), by_probes(&b), "seed {seed}: served and rank-checked replies");
        assert_eq!(b.oracle_checks, b.ok, "seed {seed}: every rank over the wire verified");
    }
}

/// A failed oracle is when someone most wants a clean re-run: the
/// scratch directory (journals, snapshots) must go with the unwind, not
/// only on the success path. Nothing over a 50 µs link answers in zero
/// time, so the latency oracle fails this run by construction.
#[test]
fn a_failed_oracle_leaves_no_scratch_directory_behind() {
    let mut d = Deployment::wire("scratch-guard-under-unwind");
    d.flight = true;
    d.latency_bound = Some(Duration::ZERO);
    let panic = std::panic::catch_unwind(|| run(&d, 0)).expect_err("the latency oracle must fail");
    let msg = panic.downcast_ref::<String>().expect("a formatted panic message");
    assert!(msg.contains("exceeds the virtual-time bound"), "failed for another reason: {msg}");

    let ours = format!("dini-simtest-{}-", std::process::id());
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir is listable")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|f| f.starts_with(&ours) && f.ends_with(d.name))
        .collect();
    assert!(left.is_empty(), "scratch directories survived the unwind: {left:?}");
}
