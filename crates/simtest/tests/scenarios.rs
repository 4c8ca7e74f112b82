//! The seeded fault-scenario suite: the real `IndexServer` under nine
//! hostile (and one clean) schedules plus two group-commit and two
//! fast-path scenarios, all forming batches by the shipped group
//! commit, on deterministic virtual time.
//!
//! Every scenario runs across the seed matrix (`DINI_SIMTEST_SEEDS`,
//! default 3, CI 8) and **twice per seed** via
//! [`run_reproducibly`], which asserts the two runs agree on
//! every counter *and* on the scheduler's event-trace digest — the
//! reproducibility contract that makes any failure replayable from its
//! seed. Wall-clock cost stays in seconds because idle waits
//! fast-forward in virtual time.

mod catalog;

use dini_serve::{Clock, IndexServer, ServeConfig, SimClock, TraceConfig};
use dini_simtest::{run_reproducibly, seeds_from_env};
use dini_workload::gen_sorted_unique_keys;
use std::time::Duration;

/// Clean quiesce: churn + lookups + a mid-run quiesce, no faults. The
/// post-quiesce sweep must match the churn mirror exactly, and snapshot
/// publication must be live.
#[test]
fn clean_quiesce() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::clean_quiesce(), seed);
        assert_eq!(report.issued, report.ok, "no faults: every lookup must answer (seed {seed})");
        assert_eq!(report.shutdown, 0);
        assert_eq!(report.shed, 0);
        assert!(report.snapshots >= 2, "quiesce + churn must publish snapshots");
        assert!(report.updates_applied > 0);
        assert!(report.oracle_checks > 0, "post-quiesce sweep must check ranks");
    }
}

/// Group commit, idle half: under the shipped defaults a lone request on
/// an idle dispatcher departs at its open instant. Sparse arrivals from
/// one client — every request is lone — and in virtual time service is
/// instantaneous, so the worst coalescing wait *and* the worst served
/// latency are exactly zero: there is no timer on the path.
#[test]
fn group_commit_lone_request_departs_at_open() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::group_commit_lone(), seed);
        assert_eq!(report.issued, report.ok, "seed {seed}");
        assert!(report.trace_records > 0, "seed {seed}: dense tracing must see the requests");
        assert_eq!(report.max_wait_ns, 0, "seed {seed}: a lone request waited on something");
        assert_eq!(report.max_latency_ns, 0, "seed {seed}");
    }
}

/// Group commit, busy half: batches form by themselves while the
/// previous one is in service. The only shard pays an injected `D` per
/// batch; everything that arrives during one batch's `D` leaves together
/// as the next batch, the moment the dispatcher frees up. So no request
/// waits longer than `D` to be collected — not `2 D`, which is what a
/// backlog split over two batches would cost its second half.
#[test]
fn group_commit_backlog_leaves_as_one_batch() {
    for seed in seeds_from_env() {
        let d = catalog::BACKLOG_D;
        let report = run_reproducibly(&catalog::group_commit_backlog(), seed);
        assert_eq!(report.issued, report.ok, "a straggler is slow, not wrong (seed {seed})");
        assert!(
            report.max_wait_ns <= d.as_nanos() as u64,
            "seed {seed}: a request waited {} ns to be collected behind a {} ns batch",
            report.max_wait_ns,
            d.as_nanos()
        );
        assert!(
            report.max_wait_ns > d.as_nanos() as u64 / 2,
            "seed {seed}: the load must actually queue behind the straggler (worst wait {} ns)",
            report.max_wait_ns
        );
    }
}

/// A shard dispatcher crashes mid-batch while traffic is in flight: its
/// collected batch is dropped and every waiter gets `ShuttingDown` — no
/// reply is ever lost — while the surviving shards keep answering
/// exactly.
#[test]
fn shard_crash_mid_batch() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::shard_crash_mid_batch(), seed);
        assert!(report.shutdown > 0, "seed {seed}: the crash window must catch in-flight lookups");
        assert!(report.ok > 0, "surviving shards keep serving");
        assert_eq!(report.issued, report.ok + report.shed + report.shutdown);
    }
}

/// Regression: a crash with a *deep backlog* behind it. With one slow
/// single-request-batch shard, requests pile up in the admission queue;
/// when the crash fires, everything queued (not just the collected
/// batch) must resolve as `ShuttingDown` — the crashed dispatcher
/// drains its queue rather than stranding waiters whose own
/// `ServerHandle`s keep the channel alive. Before the drain existed,
/// this scenario deadlocked (caught by the sim's detector).
#[test]
fn shard_crash_with_queued_backlog() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::shard_crash_with_queued_backlog(), seed);
        assert!(report.shutdown > 0, "seed {seed}: the backlog must be shut down, not lost");
        assert_eq!(report.issued, report.ok + report.shed + report.shutdown);
    }
}

/// The failover tentpole: one replica of a shard crashes **mid-batch**
/// while traffic is in flight, and — unlike the single-dispatcher crash
/// above — not a single request may resolve to `ShuttingDown`: the
/// crashed replica's collected batch and queued backlog are re-routed
/// to its surviving sibling, and (the key set being static) every
/// re-routed reply is still verified exact on the spot. The request
/// stream sees degraded capacity, never errors.
#[test]
fn replica_crash_mid_batch() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::replica_crash_mid_batch(), seed);
        assert_eq!(
            report.shutdown, 0,
            "seed {seed}: a crash with a surviving replica must never surface ShuttingDown"
        );
        assert_eq!(report.shed, 0);
        assert_eq!(
            report.issued, report.ok,
            "seed {seed}: every issued lookup must be answered (re-routed, not dropped)"
        );
        assert!(
            report.rerouted > 0,
            "seed {seed}: the mid-batch crash must actually re-route its backlog"
        );
        // The dead replica of shard 1 stops serving; its sibling keeps
        // the shard alive.
        let dead = report.per_replica_served[2]; // shard 1, replica 0
        let survivor = report.per_replica_served[3]; // shard 1, replica 1
        assert!(survivor > dead, "failover must shift shard 1's load to the survivor");
    }
}

/// A straggler **replica**: one replica of shard 0 pays +2 ms per batch
/// while its sibling stays fast. Power-of-two-choices routing sees the
/// straggler's queue depth and steers around it, so (a) the healthy
/// replica serves the bulk of the shard's traffic and (b) the worst
/// served latency stays a small multiple of the injected delay — the
/// straggler delays the few requests that tie-break onto it, but its
/// backlog can never compound the way a load-blind router's would.
#[test]
fn straggler_replica_with_bounded_tail() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::straggler_replica(), seed);
        assert_eq!(report.issued, report.ok, "a straggler is slow, not wrong (seed {seed})");
        assert_eq!(report.rerouted, 0, "nothing crashes here");
        let straggler = report.per_replica_served[0]; // shard 0, replica 0
        let healthy = report.per_replica_served[1]; // shard 0, replica 1
        assert!(
            healthy > straggler,
            "seed {seed}: depth-aware routing must steer shard 0's load to the healthy \
             replica (straggler {straggler}, healthy {healthy})"
        );
    }
}

/// Every replica of a shard goes down (staggered): the first crash
/// fails over to the second replica, and only when the *last* replica
/// dies does the shard report `ShuttingDown` — degraded capacity first,
/// errors only at total loss. Surviving shards never miss a beat.
#[test]
fn all_replicas_down_is_shutdown() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::all_replicas_down(), seed);
        assert!(
            report.rerouted > 0,
            "seed {seed}: the first crash must fail over while its sibling lives"
        );
        assert!(
            report.shutdown > 0,
            "seed {seed}: after the last replica dies the shard must say so"
        );
        assert!(report.ok > 0, "surviving shards keep serving");
        assert_eq!(report.issued, report.ok + report.shed + report.shutdown);
    }
}

/// Seeded uniform jitter on every dispatch: answers stay exact, and the
/// worst served latency stays below `2 × dispatch_jitter` — a
/// bound that only holds because delays are virtual and scripted.
#[test]
fn dispatch_jitter() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::dispatch_jitter(), seed);
        assert_eq!(report.issued, report.ok, "jitter delays, never drops (seed {seed})");
        assert!(report.max_latency_ns > 0);
    }
}

/// One shard is a straggler (+2 ms per batch): its traffic is slow but
/// exact, the other shards stay fast, and nothing sheds because the
/// queue absorbs the straggler's backlog.
#[test]
fn slow_shard_straggler() {
    for seed in seeds_from_env() {
        let extra = catalog::STRAGGLER_EXTRA;
        let report = run_reproducibly(&catalog::slow_shard_straggler(), seed);
        assert_eq!(report.issued, report.ok, "straggler is slow, not wrong (seed {seed})");
        assert!(
            report.max_latency_ns > extra.as_nanos() as u64,
            "the straggler's delay must actually be visible in served latency"
        );
    }
}

/// A churn storm with an aggressive merge threshold and per-op snapshot
/// publication: epoch swaps and index rebuilds race live lookups, and
/// the post-quiesce sweep must still match the mirror exactly.
#[test]
fn churn_storm_during_snapshot_publish() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::churn_storm(), seed);
        assert!(report.merges > 0, "seed {seed}: the storm must cross the merge threshold");
        assert!(report.snapshots > 20, "publication storm must publish constantly");
        assert_eq!(report.issued, report.ok);
        assert!(report.oracle_checks > 0);
    }
}

/// Stage-timing observability on virtual time: dense tracing (every
/// served request sampled) under a clean schedule. The stage-timing oracle
/// inside the runner already asserts each record advances monotonically through
/// admitted → collected → dispatched → answered → filled and honours
/// the latency bound; here we pin that dense sampling actually retains
/// records, that the count reproduces bit-for-bit across the digest
/// contract, and that sparser sampling considers the same traffic while
/// recording less.
#[test]
fn stage_traces_on_virtual_time() {
    for seed in seeds_from_env() {
        let dense = run_reproducibly(&catalog::stage_traces_dense(), seed);
        assert_eq!(dense.issued, dense.ok, "tracing must not perturb correctness (seed {seed})");
        assert!(
            dense.trace_records > 0,
            "seed {seed}: dense sampling over {} served queries recorded nothing",
            dense.served
        );

        let sparse = run_reproducibly(&catalog::stage_traces_sparse(), seed);
        assert!(
            sparse.trace_records < dense.trace_records,
            "seed {seed}: 1-in-64 sampling must retain fewer records than dense \
             ({} vs {})",
            sparse.trace_records,
            dense.trace_records
        );

        let off = run_reproducibly(&catalog::stage_traces_disabled(), seed);
        assert_eq!(off.trace_records, 0, "seed {seed}: disabled tracing must record nothing");
        assert_eq!(off.issued, off.ok);
    }
}

/// Sustained overload into shed: dispatch is artificially slow (virtual
/// service time) and the queues are tiny, so open-loop arrivals overrun
/// admission and the server sheds — deterministically, the same requests
/// every run.
#[test]
fn overload_to_shed() {
    for seed in seeds_from_env() {
        let report = run_reproducibly(&catalog::overload_to_shed(), seed);
        assert!(report.shed > 0, "seed {seed}: overload must shed");
        assert!(report.ok > 0, "admitted traffic is still served");
        assert_eq!(report.issued, report.ok + report.shed + report.shutdown);
    }
}

/// The shipped defaults (dense tracing aside) on `sim`'s virtual time,
/// for the fast-path scenarios below. They drive a server directly:
/// what a *single* lookup does to the scheduler is not something the
/// scenario runner's totals can show.
fn fast_path_cfg(sim: &std::sync::Arc<SimClock>, shards: usize, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(shards);
    cfg.clock = Clock::sim(sim);
    cfg.trace = TraceConfig { capacity: 256, sample_period: 1, seed };
    cfg
}

/// The idle fast path, seen from the scheduler: a lone request on an
/// idle replica is ranked by its caller, so answering it involves no
/// other thread at all — not a block, not a wake, not even a
/// satisfied-at-once wait: the sim's event count does not move across
/// the call. (The queued path costs a reply wait and a dispatcher wake
/// at the least.) Wait and latency are exactly zero and the accounting
/// reads one batch of one per lookup.
#[test]
fn fast_path_lone_request_makes_no_scheduler_handoff() {
    for seed in seeds_from_env() {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let keys = gen_sorted_unique_keys(8_192, seed);
        let server = IndexServer::build(&keys, fast_path_cfg(&sim, 2, seed));
        let h = server.handle();
        let clock = h.clock().clone();
        let mut key = seed as u32;
        for i in 0..64u64 {
            clock.sleep(Duration::from_micros(100 + i)); // lone: nothing else is in flight
            key = key.wrapping_mul(2_654_435_761).wrapping_add(12_345);
            let before = sim.digest();
            let rank = h.lookup(key).expect("fault-free");
            assert_eq!(sim.digest(), before, "seed {seed}: a lone lookup reached the scheduler");
            assert_eq!(rank, keys.partition_point(|&k| k <= key) as u32, "seed {seed}");
        }
        let stats = server.stats();
        assert_eq!((stats.served, stats.admitted, stats.batches), (64, 64, 64), "seed {seed}");
        assert_eq!(stats.latency_ns.max(), 0.0, "seed {seed}: latency − service must be zero");
        let traces = server.stage_traces();
        assert_eq!(traces.len(), 64, "seed {seed}: dense tracing sees the caller-ranked lookups");
        assert!(traces.iter().all(|t| t.wait_ns() == 0 && t.total_ns() == 0), "seed {seed}");
    }
}

/// Two callers due at the same virtual instant on a one-replica shard,
/// no fault scripted anywhere. The first takes the claim; the claim
/// window is a scheduling point, so the second arrives *inside* it,
/// finds depth 1, queues, and is answered by the dispatcher — while the
/// first is still in service. Both answers are exact, each path served
/// exactly one of them, nobody waited (virtual service is instant), and
/// the whole interleaving reproduces.
#[test]
fn fast_path_second_caller_is_queued_for_the_dispatcher() {
    fn run(seed: u64) -> (u64, u64) {
        let sim = SimClock::new();
        let _main = sim.register_main();
        let keys = gen_sorted_unique_keys(8_192, seed);
        let server = IndexServer::build(&keys, fast_path_cfg(&sim, 1, seed));
        let clock = server.clock().clone();
        let callers: Vec<_> = (0..2u32)
            .map(|c| {
                let h = server.handle();
                let key = (seed as u32 ^ c).wrapping_mul(2_654_435_761);
                clock.spawn(&format!("fast-path-caller-{c}"), move || {
                    h.clock().sleep(Duration::from_millis(1));
                    let pending = h.begin_lookup(key).expect("fault-free");
                    let ranked_by_caller = pending.poll().is_some();
                    (key, ranked_by_caller, pending.wait().expect("fault-free"))
                })
            })
            .collect();
        let outcomes: Vec<_> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        for &(key, _, rank) in &outcomes {
            assert_eq!(rank, keys.partition_point(|&k| k <= key) as u32, "seed {seed}");
        }
        assert!(outcomes[0].1, "seed {seed}: the first caller found the replica idle");
        assert!(!outcomes[1].1, "seed {seed}: the second arrived mid-claim and must queue");
        let stats = server.stats();
        assert_eq!((stats.served, stats.admitted, stats.batches), (2, 2, 2), "seed {seed}");
        assert_eq!(stats.latency_ns.max(), 0.0, "seed {seed}");
        assert_eq!(server.metrics_snapshot().sum("dini_serve_queue_depth"), 0, "seed {seed}");
        // One record per path; the dispatcher's is stamped on its own
        // time, after the reply that let the caller (and us) go on.
        clock.sleep(Duration::from_millis(1));
        let traces = server.stage_traces();
        assert_eq!(traces.len(), 2, "seed {seed}");
        assert!(traces.iter().all(|t| t.batch_len == 1 && t.wait_ns() == 0), "seed {seed}");
        drop(server);
        sim.digest()
    }
    for seed in seeds_from_env() {
        assert_eq!(run(seed), run(seed), "seed {seed}: the claim-window hand-off must reproduce");
    }
}
