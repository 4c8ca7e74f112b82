//! Seeded network-fault scenarios over the simulated transport: whole
//! multi-process deployments (NetServers × spans × replica endpoints, a
//! RemoteClient, lossy/jittered/severable links) on deterministic
//! virtual time, swept across the `DINI_SIMTEST_SEEDS` matrix with
//! every run executed twice to pin the event-trace digest.

mod catalog;

use dini_cluster::FaultSchedule;
use dini_net::transport::ChanNet;
use dini_net::{ClientConfig, NetServer, NetServerConfig, RemoteClient, Topology};
use dini_serve::{Clock, ServeConfig, SimClock};
use dini_simtest::{run, run_reproducibly, seeds_from_env};
use dini_workload::Op;
use std::time::Duration;

#[test]
fn clean_two_span_deployment_is_exact_and_bounded() {
    // Baseline: two server processes, no faults, fixed 50 µs links.
    // Every rank is verified at reap time, and the end-to-end tail is
    // bounded by two link crossings + the probe's 100 µs reap cadence:
    // no frame or batch waits on a timer.
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_clean_two_spans(), seed);
        assert_eq!(r.issued, 2 * 300);
        assert_eq!(r.ok, r.issued, "fault-free: every lookup answers");
        assert_eq!((r.shed, r.shutdown, r.retries, r.rerouted), (0, 0, 0, 0));
        assert_eq!(r.oracle_checks, r.ok, "every rank verified");
        assert!(r.served_per_server.iter().all(|&s| s > 0), "both spans served traffic");
        // Default 1-in-64 sampling: the stage-timing oracle runs on both
        // server processes, and had records to hold.
        assert!(r.trace_records > 0, "seed {seed}: no stage record sampled over the wire");
        assert!(r.virtual_ns > 0);
    }
}

#[test]
fn frame_drops_with_retry_lose_and_duplicate_nothing() {
    // 5 % of frames vanish and 5 % are delivered twice, in both
    // directions. The client's retry (same request id) recovers the
    // losses; the in-flight map and generation-tagged reply cells drop
    // the duplicates. Exactly one resolution per lookup, every rank
    // exact.
    let mut total_retries = 0u64;
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_frame_drop_retry(), seed);
        assert_eq!(r.ok, r.issued, "drops must be repaired, not surfaced: {r:?}");
        assert_eq!((r.shed, r.shutdown), (0, 0));
        assert_eq!(r.oracle_checks, r.ok, "every recovered rank verified exact");
        total_retries += r.retries;
    }
    assert!(total_retries > 0, "a 5% drop rate must force at least one retry across the matrix");
}

#[test]
fn endpoint_crash_fails_over_to_replica_endpoint() {
    // One span, two replica endpoints. Endpoint 0's link is severed
    // mid-run (the network view of a server crash): the client re-homes
    // everything in flight and keeps answering through endpoint 1 —
    // degraded capacity, never errors, never a wrong rank.
    let mut total_rerouted = 0u64;
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_endpoint_crash_failover(), seed);
        assert_eq!(r.ok, r.issued, "failover must hide the crash: {r:?}");
        assert_eq!((r.shed, r.shutdown), (0, 0), "a surviving replica means no errors");
        assert_eq!(r.oracle_checks, r.ok);
        assert!(
            r.served_per_server[1] > 0,
            "the surviving endpoint must carry traffic: {:?}",
            r.served_per_server
        );
        total_rerouted += r.rerouted;
    }
    assert!(
        total_rerouted > 0,
        "a mid-run link severance must re-home in-flight lookups somewhere in the matrix"
    );
}

#[test]
fn jittered_links_keep_virtual_time_tails_bounded() {
    // Per-frame jitter up to 300 µs (which also reorders frames on the
    // wire). Request-id matching absorbs the reordering, and the worst
    // client-observed latency stays under two worst-case link crossings
    // + the reap cadence.
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_jittered_links(), seed);
        assert_eq!(r.ok, r.issued, "jitter delays, it must not lose: {r:?}");
        assert_eq!((r.shed, r.shutdown, r.retries), (0, 0, 0));
        assert_eq!(r.oracle_checks, r.ok);
    }
}

#[test]
fn churn_stays_epoch_consistent_across_processes() {
    // Two server processes, churn streamed through the wire to the span
    // owning each key. After a quiesce round trip the client's
    // cross-span base ranks must recompose exactly: a post-quiesce
    // sweep against the BTreeSet mirror, plus live-key accounting.
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_epoch_consistency(), seed);
        assert_eq!(r.issued, r.ok + r.shed + r.shutdown);
        assert_eq!((r.shed, r.shutdown), (0, 0));
        assert!(r.updates_applied > 0, "churn must mutate the indexes");
        assert!(r.oracle_checks >= 200, "the post-quiesce sweep must actually probe");
    }
}

#[test]
fn lossy_links_cannot_diverge_replicas_thanks_to_the_quorum_log() {
    // One span, two replica endpoints, 5 % frame drops and 5 %
    // duplicates in both directions, churn streamed through the wire.
    // Every update is a sequence-numbered churn-log record: a dropped
    // Update frame is repaired by suffix resend, a duplicated one is
    // ignored by the replica's in-order cursor, and the client's Ok
    // only fires once both endpoints acked. The runner's convergence
    // oracle then checks both replicas against the BTreeSet mirror —
    // the check the old fire-and-forget broadcast failed.
    let mut total_resends = 0u64;
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_lossy_update_quorum(), seed);
        assert_eq!(r.ok, r.issued, "drops must be repaired, not surfaced: {r:?}");
        assert_eq!((r.shed, r.shutdown), (0, 0));
        assert!(r.updates_applied > 0, "churn must mutate the indexes");
        assert_eq!(r.elections, 0, "nobody died; the log epoch must not move: {r:?}");
        total_resends += r.update_resends;
    }
    assert!(
        total_resends > 0,
        "a 5% drop rate over 300 quorum-acked updates must force a suffix resend somewhere"
    );
}

#[test]
fn append_target_crash_mid_churn_elects_and_replays() {
    // The acceptance scenario: one span, two replica endpoints, 5 %
    // frame drops, churn in flight — and endpoint 0 (the bootstrap and
    // an append target) has its link severed mid-batch. The dead
    // endpoint's worker must bump the epoch (election), rewind the
    // survivor's send cursor
    // to its ack point, and replay the missing suffix; afterwards the
    // surviving replica's applied-op set must equal the mirror exactly
    // (the runner's convergence + post-quiesce sweep oracles).
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_leader_crash_mid_append(), seed);
        assert_eq!(r.ok, r.issued, "failover must hide the crash: {r:?}");
        assert_eq!((r.shed, r.shutdown), (0, 0), "a surviving replica means no errors");
        assert!(
            r.elections >= 1,
            "seed {seed}: the crash must have bumped the churn-log epoch ({r:?})"
        );
        assert!(
            r.flight_events >= r.elections,
            "seed {seed}: the election must have reached the flight journal ({r:?})"
        );
        assert!(r.updates_applied > 0, "churn must mutate the surviving index");
        assert!(
            r.served_per_server[1] > 0,
            "the surviving endpoint must carry traffic: {:?}",
            r.served_per_server
        );
    }
}

#[test]
fn partition_heals_and_the_lagging_replica_reconverges() {
    // A partition that *ends*: endpoint 1's link blacks out over
    // [2ms, 10ms) while churn streams through the span. Records
    // appended during the window reach only endpoint 0; the quorum of
    // two holds every Ok until the window heals and endpoint 1's
    // worker's repair resends the suffix it missed. The convergence
    // oracle then checks the *healed* replica against the mirror — it
    // lagged, it must not have diverged.
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_partition_then_heal(), seed);
        assert_eq!(r.ok, r.issued, "a healed partition must cost time, not answers: {r:?}");
        assert_eq!((r.shed, r.shutdown), (0, 0));
        assert!(r.update_resends >= 1, "seed {seed}: healing must have replayed a suffix ({r:?})");
        assert!(
            r.flight_events >= r.update_resends,
            "seed {seed}: every resend must have reached the flight journal ({r:?})"
        );
        assert_eq!(
            r.elections, 0,
            "seed {seed}: a partition that heals inside the retry budget kills nobody ({r:?})"
        );
        assert!(r.updates_applied > 0, "churn must mutate the indexes");
    }
}

#[test]
fn dense_tracing_stitches_monotone_timelines_across_the_wire() {
    // The causal-tracing acceptance scenario: every frame traced on
    // both sides over clean links, with churn streaming alongside the
    // lookups. The runner stitches the client's wire records to the
    // servers' stage records on the shared trace id and asserts every
    // timeline is monotone on the one virtual clock (encoded ≤ admitted
    // ≤ … ≤ filled ≤ acked). Clean links only by design: a retry
    // re-encodes, which would legitimately reorder stages across
    // attempts. The flight journal rides along and must stay silent —
    // a fault-free run records no elections and no resends.
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_dense_tracing_stitch(), seed);
        assert_eq!(r.ok, r.issued, "clean links: every lookup answers: {r:?}");
        assert!(
            r.stitched_timelines > 0,
            "seed {seed}: dense tracing must stitch at least one client↔server timeline ({r:?})"
        );
        assert_eq!(
            (r.retries, r.elections, r.update_resends),
            (0, 0, 0),
            "seed {seed}: nothing failed, so the journal's story must be empty ({r:?})"
        );
    }
}

#[test]
fn live_stats_polls_mid_load_agree_with_the_processes() {
    // Wire introspection under load, on virtual time: a dedicated poller
    // thread fires StatsRequest frames at both spans every 500 µs while
    // the probe clients saturate the same sockets. The runner's oracles
    // assert each poll sees monotone, never-ahead-of-admission counters,
    // and after the load drains a final poll per span must agree
    // *exactly* with the in-process server's own accounting — the
    // observability plane and the data plane describing one truth.
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::net_live_stats_polls(), seed);
        assert_eq!(r.ok, r.issued, "polling must not perturb the load: {r:?}");
        assert_eq!((r.shed, r.shutdown, r.retries), (0, 0, 0));
        assert!(
            r.stats_polls_ok > 0,
            "seed {seed}: mid-load polls must actually come back ({r:?})"
        );
    }
}

#[test]
fn lone_update_resolves_in_exactly_its_quorum_round_trip() {
    // No timer on an update's path: with the shipped client and server
    // configs over fault-free links, a lone quorum-acked `update()`
    // costs its link latencies and nothing else. One span, three
    // replica endpoints with one-way latencies 20 / 50 / 90 µs: the
    // record is durable when the second ack lands (quorum 2 of 3), so
    // the call returns exactly 2 × 50 µs after it was made — out and
    // back on the median link. Every hop in between (caller → endpoint
    // workers → socket → server reader → socket → client reader → quorum
    // fold → caller) is a wake-up, which costs no virtual time;
    // a poll anywhere on the path would show up as a residue of its
    // period, which is why the calls are issued at instants that share
    // no factor with a millisecond tick.
    let sim = SimClock::new();
    let _main = sim.register_main();
    let clock = Clock::sim(&sim);
    let net = ChanNet::new(clock.clone());

    let one_way_ns = [20_000u64, 50_000, 90_000];
    let addrs: Vec<String> = (0..one_way_ns.len()).map(|e| format!("s0e{e}")).collect();
    let topology = Topology::single(addrs.clone());
    let keys: Vec<u32> = (0..2_000u32).map(|i| i * 4).collect();
    let servers: Vec<NetServer> = addrs
        .iter()
        .zip(one_way_ns)
        .map(|(addr, ns)| {
            let link = FaultSchedule { latency: Duration::from_nanos(ns), ..Default::default() };
            net.set_link(addr, link.link(0));
            let mut serve = ServeConfig::new(2);
            serve.clock = clock.clone();
            NetServer::start(
                Box::new(net.listen(addr)),
                &keys,
                NetServerConfig::new(serve, topology.clone(), 0),
            )
        })
        .collect();
    let ccfg = ClientConfig { clock: clock.clone(), ..ClientConfig::default() };
    let client = RemoteClient::connect(net.dialer(), &addrs[0], ccfg).expect("connect");

    for i in 0..16u32 {
        clock.sleep(Duration::from_nanos(137_111 + 311_003 * u64::from(i)));
        let issued = clock.now();
        client.update(Op::Insert(4 * i + 1)).expect("fault-free quorum append");
        assert_eq!(
            clock.now() - issued,
            2 * one_way_ns[1],
            "update {i}, issued at {issued} ns: the ack path added a wait that is not a link"
        );
    }
    let stats = client.stats();
    assert_eq!((stats.update_resends, stats.elections, stats.retries), (0, 0, 0));

    client.quiesce().expect("barrier");
    for srv in &servers {
        assert_eq!(srv.server().len(), keys.len() + 16, "every replica applied every record");
    }
    drop(client);
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn distinct_seeds_produce_distinct_schedules() {
    let a = run(&catalog::net_seeds_differ(), 1);
    let b = run(&catalog::net_seeds_differ(), 2);
    assert_ne!(a.digest, b.digest, "different seeds must interleave the cluster differently");
}
