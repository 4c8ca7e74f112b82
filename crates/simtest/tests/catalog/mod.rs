//! Every deployment the scenario tests run, by name — shared with
//! `golden.rs`, which pins each one's schedule across seeds 0–7. A
//! scenario test takes its deployment from here, so the thing it
//! asserts on and the thing the golden file pins cannot drift apart.

#![allow(dead_code)] // each test binary uses its own part of the list

use dini_cluster::Fault;
use dini_simtest::{Deployment, Step};
use dini_workload::ArrivalProcess;
use std::time::Duration;

/// Quiesce while probes are genuinely in flight: pause partway into the
/// load window first, then demand full visibility mid-storm.
const QUIESCE_MID_RUN: [Step; 2] = [Step::Pause(Duration::from_millis(2)), Step::Quiesce];

const MS: Duration = Duration::from_millis(1);

/// Every replica of `shard` pays `extra` per batch.
fn slow_shard(shard: usize, extra: Duration) -> Fault {
    Fault::Straggle { shard, replica: None, extra }
}

pub fn clean_quiesce() -> Deployment {
    let mut d = Deployment::in_process("clean_quiesce");
    d.churn_ops = 600;
    d.churn_gap = Duration::from_micros(20);
    d.lifecycle = QUIESCE_MID_RUN.to_vec();
    d
}

pub fn no_wait_lone() -> Deployment {
    let mut d = Deployment::in_process("lone_request_departs_at_open");
    d.trace_sample_period = 1; // every request's wait recorded
    d.clients = 1;
    d.lookups_per_client = 64;
    d.arrival = ArrivalProcess::poisson_rate(1_000.0);
    d
}

/// The straggler's per-batch delay in `no_wait_straggler`.
pub const STRAGGLE_D: Duration = Duration::from_millis(1);

/// One shard, straggling: every caller sleeps out `D` before it ranks,
/// and 3 clients × 20k/s put about 60 arrivals in each `D`, so callers
/// overlap inside the straggle and lose claims all the time.
pub fn no_wait_straggler() -> Deployment {
    let mut d = Deployment::in_process("straggling_shard_keeps_no_request_waiting");
    d.trace_sample_period = 1; // every request's wait recorded
    d.shards = 1;
    d.faults.events = vec![slow_shard(0, STRAGGLE_D)];
    d.latency_bound = Some(STRAGGLE_D); // its own straggle, nothing queued ahead
    d
}

pub fn shard_crash_mid_batch() -> Deployment {
    let mut d = Deployment::in_process("shard_crash_mid_batch");
    // Shard 1 pays `extra` per batch, about two arrivals' worth, so a
    // caller is nearly always sleeping out a batch's straggle there; it
    // crashes at 3 virtual ms — squarely inside the ~20 ms load window.
    let extra = Duration::from_micros(100);
    d.faults.events =
        vec![slow_shard(1, extra), Fault::Crash { shard: 1, replica: None, at: 3 * MS }];
    // Each batch pays its own straggle, nothing ahead of it.
    d.latency_bound = Some(extra);
    d
}

pub fn shard_crash_under_concurrent_callers() -> Deployment {
    let mut d = Deployment::in_process("shard_crash_under_concurrent_callers");
    d.shards = 1;
    // A 1 ms straggle against arrivals every ~17 µs: dozens of callers
    // are inside a straggle on the one replica when it crashes.
    d.faults.events = vec![slow_shard(0, MS), Fault::Crash { shard: 0, replica: None, at: 2 * MS }];
    d.clients = 3;
    d.lookups_per_client = 150;
    d.latency_bound = Some(MS);
    d
}

pub fn replica_crash_mid_batch() -> Deployment {
    let mut d = Deployment::in_process("replica_crash_mid_batch");
    d.replicas_per_shard = 2;
    // Both replicas of shard 1 pay `extra` per batch, so callers are
    // nearly always sleeping out a straggle on each; replica 0 crashes
    // at 3 virtual ms — squarely inside the ~20 ms load window — with
    // callers mid-straggle on it.
    let extra = Duration::from_micros(200);
    d.faults.events =
        vec![slow_shard(1, extra), Fault::Crash { shard: 1, replica: Some(0), at: 3 * MS }];
    // The worst case is a caller on the dying replica: its straggle
    // until the crash is seen, then its batch's straggle on the
    // survivor.
    d.latency_bound = Some(2 * extra);
    d
}

pub fn straggler_replica() -> Deployment {
    let mut d = Deployment::in_process("straggler_replica_with_bounded_tail");
    d.replicas_per_shard = 2;
    let extra = Duration::from_millis(2);
    d.faults.events = vec![Fault::Straggle { shard: 0, replica: Some(0), extra }];
    d.arrival = ArrivalProcess::poisson_rate(4_000.0);
    // A request that lands on the straggler pays its straggle and
    // nothing else: no caller waits on another.
    d.latency_bound = Some(extra);
    d
}

pub fn all_replicas_down() -> Deployment {
    let mut d = Deployment::in_process("all_replicas_down_is_shutdown");
    d.replicas_per_shard = 2;
    d.faults.events = vec![
        Fault::Crash { shard: 1, replica: Some(0), at: 2 * MS },
        Fault::Crash { shard: 1, replica: Some(1), at: 6 * MS },
    ];
    d.latency_bound = None; // a caller can meet both crashes, one straggle-free hop each
    d
}

pub fn dispatch_jitter() -> Deployment {
    let mut d = Deployment::in_process("dispatch_jitter");
    let jitter = Duration::from_micros(400);
    d.faults.dispatch_jitter = jitter;
    d.arrival = ArrivalProcess::poisson_rate(5_000.0);
    // Each batch pays its own jitter, nothing ahead of it.
    d.latency_bound = Some(jitter);
    d
}

/// The straggler's per-batch delay in `slow_shard_straggler`.
pub const STRAGGLER_EXTRA: Duration = Duration::from_millis(2);

pub fn slow_shard_straggler() -> Deployment {
    let mut d = Deployment::in_process("slow_shard_straggler");
    d.faults.events = vec![slow_shard(0, STRAGGLER_EXTRA)];
    d.arrival = ArrivalProcess::poisson_rate(4_000.0);
    // A request pays its own batch's straggle and nothing else: ≤ extra,
    // exactly, in virtual time.
    d.latency_bound = Some(STRAGGLER_EXTRA);
    d
}

pub fn churn_storm() -> Deployment {
    let mut d = Deployment::in_process("churn_storm_during_snapshot_publish");
    d.churn_ops = 1_500;
    d.churn_gap = Duration::from_micros(5); // storm
    d.merge_threshold = 48; // force frequent merges/rebuilds
    d.publish_every = 4; // publication storm
    d
}

/// The straggling replica's per-batch delay in
/// `churn_storm_straggler`.
pub const STORM_STRAGGLE: Duration = Duration::from_micros(100);

/// The churn storm with one replica of shard 0 straggling. Its callers
/// sleep out the straggle before they pin, several at once, claim or no
/// claim: the storm's epoch swaps and rebuilds then race pins taken
/// after a straggle, not only the probes' instant ranks, and dense
/// tracing hands the stage-timing oracle both rows' records.
pub fn churn_storm_straggler() -> Deployment {
    let mut d = churn_storm();
    d.name = "churn_storm_against_a_straggling_replica";
    d.replicas_per_shard = 2;
    d.faults.events = vec![Fault::Straggle { shard: 0, replica: Some(0), extra: STORM_STRAGGLE }];
    d.trace_sample_period = 1;
    // Its own straggle, nothing ahead of it.
    d.latency_bound = Some(STORM_STRAGGLE);
    d
}

pub fn stage_traces_dense() -> Deployment {
    let mut d = Deployment::in_process("stage_traces_on_virtual_time");
    d.trace_sample_period = 1; // dense: every request sampled
    d
}

pub fn stage_traces_sparse() -> Deployment {
    let mut d = stage_traces_dense();
    d.name = "stage_traces_sparse";
    d.trace_sample_period = 64;
    d
}

pub fn stage_traces_disabled() -> Deployment {
    let mut d = stage_traces_dense();
    d.name = "stage_traces_disabled";
    d.trace_sample_period = 0;
    d
}

/// Overload where a queue still exists: a client outbox of 4 keys per
/// span. Each probe begins its lookups in bursts of 8, which join the
/// open frame with nothing reaped in between, so a burst overruns the
/// outbox and the client sheds the rest.
pub fn overload_to_shed() -> Deployment {
    let mut d = Deployment::wire("overload_to_shed");
    d.spans = 1;
    d.clients = 3;
    d.lookups_per_client = 320;
    d.arrival = ArrivalProcess::poisson_rate(2_500.0);
    d.burst = 8;
    d.queue_capacity = 4;
    d
}

/// A scenario that exercises every subsystem at once (churn + merges +
/// publication + mid-run quiesce + multiple clients + both rows a
/// lookup is counted in): the widest surface a nondeterminism bug could
/// hide in. Shard 0 is a straggler, so its callers overlap inside their
/// straggles and lose claims — real contention, whose timing follows
/// the seeded arrivals — while the other shards' lookups are ranked at
/// no virtual cost.
pub fn determinism_busy() -> Deployment {
    let mut d = Deployment::in_process("determinism-busy");
    d.churn_ops = 800;
    d.churn_gap = Duration::from_micros(10);
    d.merge_threshold = 64;
    d.publish_every = 8;
    d.lifecycle = QUIESCE_MID_RUN.to_vec();
    d.arrival = ArrivalProcess::poisson_rate(15_000.0);
    let extra = Duration::from_micros(300);
    d.faults.events = vec![slow_shard(0, extra)];
    // Its own straggle, nothing ahead of it.
    d.latency_bound = Some(extra);
    d
}

pub fn determinism_fastforward() -> Deployment {
    let mut d = Deployment::in_process("determinism-fastforward");
    d.arrival = ArrivalProcess::poisson_rate(700.0); // sparse: mostly idle
    d.lookups_per_client = 50;
    d
}

pub fn net_clean_two_spans() -> Deployment {
    let mut d = Deployment::wire("net-clean-two-spans");
    // Two 50 µs link crossings + the probe's 100 µs reap cadence.
    d.latency_bound = Some(Duration::from_micros(2 * 50 + 100));
    d
}

/// One span of `endpoints` replica endpoints over 20 µs links, with a
/// client that gives up on a lookup batch after 2 ms.
fn one_span(name: &'static str, endpoints: usize) -> Deployment {
    let mut d = Deployment::wire(name);
    d.spans = 1;
    d.endpoints_per_span = endpoints;
    d.faults.latency = Duration::from_micros(20);
    d.retry_timeout = Duration::from_millis(2);
    d
}

/// 300 churn ops streamed through the wire beside the probes.
fn with_churn(mut d: Deployment) -> Deployment {
    d.churn_ops = 300;
    d.churn_gap = Duration::from_micros(40);
    d
}

pub fn net_frame_drop_retry() -> Deployment {
    let mut d = one_span("net-frame-drop-retry", 1);
    d.faults.drop_prob = 0.05;
    d.faults.duplicate_prob = 0.05;
    d.latency_bound = None; // tails legitimately include retry timeouts
    d
}

pub fn net_endpoint_crash_failover() -> Deployment {
    let mut d = Deployment::wire("net-endpoint-crash-failover");
    d.spans = 1;
    d.endpoints_per_span = 2;
    d.lookups_per_client = 400;
    d.faults.events = vec![Fault::Sever { endpoint: 0, at: 3 * MS }];
    d.latency_bound = None; // failover re-homing can stretch a tail
    d
}

pub fn net_jittered_links() -> Deployment {
    let mut d = Deployment::wire("net-jittered-links");
    d.spans = 1;
    d.faults.latency = Duration::from_micros(20);
    d.faults.jitter = Duration::from_micros(300);
    // Two crossings of at most 20 + 300 µs + the 100 µs reap cadence.
    d.latency_bound = Some(Duration::from_micros(2 * (20 + 300) + 100));
    d
}

pub fn net_epoch_consistency() -> Deployment {
    let mut d = with_churn(Deployment::wire("net-epoch-consistency"));
    d.latency_bound = None; // server-side quiesce stalls its connection
    d
}

pub fn net_lossy_update_quorum() -> Deployment {
    let mut d = with_churn(one_span("net-lossy-update-quorum", 2));
    d.faults.drop_prob = 0.05;
    d.faults.duplicate_prob = 0.05;
    d.latency_bound = None; // tails legitimately include retry timeouts
    d
}

pub fn net_leader_crash_mid_append() -> Deployment {
    let mut d = with_churn(one_span("net-leader-crash-mid-append", 2));
    d.faults.drop_prob = 0.05;
    d.faults.events = vec![Fault::Sever { endpoint: 0, at: 3 * MS }];
    d.latency_bound = None; // failover re-homing can stretch a tail
                            // The flight journal rides along: the runner asserts the recorded
                            // election/resend story matches the counters exactly, so the crash
                            // must leave a journal trail.
    d.flight = true;
    d
}

pub fn net_partition_then_heal() -> Deployment {
    let mut d = with_churn(one_span("net-partition-then-heal", 2));
    d.faults.events = vec![Fault::Partition { endpoint: 1, from: 2 * MS, until: 10 * MS }];
    d.latency_bound = None; // appends stall across the window
    d.flight = true; // every healed-suffix resend must leave a journal record
    d
}

pub fn net_dense_tracing_stitch() -> Deployment {
    let mut d = Deployment::wire("net-dense-tracing-stitch");
    d.trace_sample_period = 1;
    d.flight = true;
    d.churn_ops = 100;
    d.churn_gap = Duration::from_micros(40);
    d.latency_bound = None; // server-side quiesce stalls its connection
    d
}

pub fn net_live_stats_polls() -> Deployment {
    let mut d = Deployment::wire("net-live-stats-polls");
    d.stats_polls = 8;
    d.stats_poll_gap = Duration::from_micros(500);
    d.latency_bound = None; // ctrl frames share the lookup FIFO
    d
}

pub fn net_seeds_differ() -> Deployment {
    Deployment::wire("net-seeds-differ")
}

/// The kill-and-recover lifecycle of `Deployment::restart` with its op
/// counts chosen: `before` ops and (optionally) a checkpointing barrier,
/// kill endpoint 1, `while_dead` ops through the survivor (they outrun
/// the victim's snapshot and must come back as a log-suffix replay; keep
/// below the client's 16 384-record retention) and a sweep, restart and
/// rejoin, `after` ops (≥ 1: each needs a quorum of 2 again, so it
/// proves the revived endpoint applied the whole replayed suffix *and*
/// makes the final barrier provably cover it) and a last sweep.
fn kill_and_recover(before: usize, barrier: bool, while_dead: usize, after: usize) -> Vec<Step> {
    let mut steps = vec![Step::Churn(before)];
    steps.extend(barrier.then_some(Step::Quiesce));
    steps.extend([Step::Kill(1), Step::Churn(while_dead), Step::Sweep(128)]);
    steps.extend([Step::Restart(1), Step::Rejoin(1), Step::Churn(after), Step::Sweep(128)]);
    steps
}

pub fn kill_span_mid_churn() -> Deployment {
    let mut d = Deployment::restart("kill-span-mid-churn");
    d.lifecycle = kill_and_recover(250, true, 300, 120);
    d
}

pub fn snapshot_mid_churn_storm() -> Deployment {
    let mut d = Deployment::restart("snapshot-mid-churn-storm");
    d.merge_threshold = 16;
    d.lifecycle = kill_and_recover(500, false, 250, 120);
    d
}

pub fn stale_snapshot_log_replay() -> Deployment {
    let mut d = Deployment::restart("stale-snapshot-log-replay");
    d.merge_threshold = 1 << 30;
    d.lifecycle = kill_and_recover(60, true, 600, 150);
    d
}

/// Builds a deployment (the runner seeds it).
pub type Make = fn() -> Deployment;

/// `(test file, constructor)` for every deployment above, in the order
/// `golden.txt` lists them.
pub const ALL: &[(&str, Make)] = &[
    ("scenarios", clean_quiesce),
    ("scenarios", no_wait_lone),
    ("scenarios", no_wait_straggler),
    ("scenarios", shard_crash_mid_batch),
    ("scenarios", shard_crash_under_concurrent_callers),
    ("scenarios", replica_crash_mid_batch),
    ("scenarios", straggler_replica),
    ("scenarios", all_replicas_down),
    ("scenarios", dispatch_jitter),
    ("scenarios", slow_shard_straggler),
    ("scenarios", churn_storm),
    ("scenarios", churn_storm_straggler),
    ("scenarios", stage_traces_dense),
    ("scenarios", stage_traces_sparse),
    ("scenarios", stage_traces_disabled),
    ("scenarios", overload_to_shed),
    ("determinism", determinism_busy),
    ("determinism", determinism_fastforward),
    ("net_scenarios", net_clean_two_spans),
    ("net_scenarios", net_frame_drop_retry),
    ("net_scenarios", net_endpoint_crash_failover),
    ("net_scenarios", net_jittered_links),
    ("net_scenarios", net_epoch_consistency),
    ("net_scenarios", net_lossy_update_quorum),
    ("net_scenarios", net_leader_crash_mid_append),
    ("net_scenarios", net_partition_then_heal),
    ("net_scenarios", net_dense_tracing_stitch),
    ("net_scenarios", net_live_stats_polls),
    ("net_scenarios", net_seeds_differ),
    ("restart_scenarios", kill_span_mid_churn),
    ("restart_scenarios", snapshot_mid_churn_storm),
    ("restart_scenarios", stale_snapshot_log_replay),
];
