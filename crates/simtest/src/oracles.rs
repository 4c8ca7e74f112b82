//! The oracles: plain functions over one [`Outcome`], each switched on
//! by what the deployment is (see the crate docs for the numbered
//! list). They panic, naming the deployment, on a violation.

use crate::run::{sweep, Cluster};
use crate::{Deployment, Report, Step};
use dini_net::NetClientStats;
use dini_obs::{stitch, StageRecord};
use dini_serve::clock::dur_ns;
use dini_serve::{EventKind, FlightEvent, ServeStats};
use std::collections::BTreeSet;

/// A finished run, before teardown: what was described, what ran, and
/// what the load and the lifecycle observed.
pub(crate) struct Outcome<'a> {
    pub(crate) d: &'a Deployment,
    pub(crate) cluster: &'a Cluster<'a>,
    /// What the probes, the lifecycle and the servers' counters say.
    pub(crate) report: &'a Report,
    /// What the churn stream fed, folded over the initial keys.
    pub(crate) mirror: &'a BTreeSet<u32>,
}

fn count(events: &[FlightEvent], kind: EventKind) -> u64 {
    events.iter().filter(|e| e.event() == Some(kind)).count() as u64
}

/// Oracle 1: every issued lookup resolved exactly once — drops,
/// duplicates, retries and failover notwithstanding. (That none hung is
/// the scheduler's deadlock detector: a lost reply cannot terminate the
/// run.)
pub(crate) fn reply_completeness(o: &Outcome) {
    let (name, Report { issued, ok, shed, shutdown, .. }) = (o.d.name, o.report);
    assert_eq!(
        *issued,
        ok + shed + shutdown,
        "[{name}] lookups unaccounted for: issued {issued}, ok {ok}, shed {shed}, \
         shutdown {shutdown}"
    );
}

/// Oracle 3, after the barrier and the front's own sweep: live-key
/// accounting matches the mirror, and every server process that is up
/// and kept its link (blackouts heal; severed links do not) holds
/// exactly its span's slice of the mirror — set sizes match and local
/// ranks agree on a sweep. This is the oracle a fire-and-forget update
/// path fails: one dropped `Update` frame diverges a replica forever.
/// Returns the exact-rank checks made.
pub(crate) fn replicas_converged(o: &Outcome) -> u64 {
    let name = o.d.name;
    assert_eq!(
        o.cluster.live_keys(),
        o.mirror.len() as u64,
        "[{name}] live-key accounting diverged from the mirror"
    );
    let mut checks = 0;
    for (endpoint, server) in o.cluster.hosted.iter().enumerate() {
        let Some(server) = server.as_ref().filter(|_| !o.d.severed(endpoint)) else { continue };
        let span = endpoint / o.d.endpoints_per_span;
        let slice: BTreeSet<u32> = o
            .mirror
            .iter()
            .copied()
            .filter(|&k| o.cluster.front.wire().span_of(k) == span)
            .collect();
        assert_eq!(
            server.server().len(),
            slice.len(),
            "[{name}] endpoint {endpoint} (span {span}) did not converge to the mirror's op set"
        );
        let (what, local) =
            (format!("[{name}] endpoint {endpoint} local"), server.server().handle());
        checks += sweep(&what, 0x00C0_FFEE, 128, &slice, |_| false, |k| local.lookup(k));
    }
    checks
}

/// Oracles 4, 5 and 6 over every server process that is up (the report
/// holds their worst latency and summed counters): the latency bound on
/// served latency and traced spans, accounting against what the probes
/// saw, and stage timing on every sampled record.
pub(crate) fn servers_hold(o: &Outcome, traces: &[StageRecord]) {
    let (d, name, t) = (o.d, o.d.name, o.report);
    let bound = d.latency_bound.map(dur_ns);
    assert!(
        t.served == 0 || bound.is_none_or(|b| t.max_latency_ns <= b),
        "[{name}] worst served latency {} ns exceeds the virtual-time bound {bound:?} \
         (max_delay + injected delays)",
        t.max_latency_ns
    );
    if d.spans > 0 {
        assert!(
            bound.is_none_or(|b| t.max_client_latency_ns <= b),
            "[{name}] worst client-observed latency {} ns exceeds the virtual-time bound \
             {bound:?}",
            t.max_client_latency_ns
        );
    } else {
        // The probes are the only way in, one hop from the queues.
        let shed: u64 = o.cluster.servers().into_iter().flatten().map(|s| s.stats().shed).sum();
        assert_eq!(t.shed, shed, "[{name}] shed counts disagree");
    }
    // (A killed process takes its counters with it.)
    assert!(d.has_step(Step::Kill(0)) || t.ok <= t.admitted, "[{name}] more oks than admissions");

    for r in traces {
        assert!(r.stages_monotonic(), "[{name}] stage trace not monotonic: {r:?}");
        assert!(
            (1..=d.max_batch).contains(&(r.batch_len as usize)),
            "[{name}] traced batch outside 1..={}: {r:?}",
            d.max_batch
        );
        assert!(
            (r.shard as usize) < d.shards && (r.replica as usize) < d.replicas_per_shard,
            "[{name}] trace record from an unknown replica: {r:?}"
        );
        // The bound covers admitted → answered, which is exactly the
        // per-query latency the histogram above already pins.
        assert!(
            bound.is_none_or(
                |b| r.wait_ns() <= b && r.answered_ns.saturating_sub(r.admitted_ns) <= b
            ),
            "[{name}] traced stage span exceeds the virtual-time bound {bound:?}: {r:?}"
        );
    }
    // Dense sampling with no crashes: every served query was considered,
    // so a busy run must have retained records.
    assert!(
        d.trace_sample_period != 1 || !d.faults.is_noop() || t.served == 0 || !traces.is_empty(),
        "[{name}] dense tracing recorded nothing across {} served",
        t.served
    );
}

/// Oracle 5, over the wire: with load drained, a final `StatsRequest`
/// to each reachable single-endpoint span must report exactly what that
/// server's own registry says — every serving count and both
/// histograms, read through the same [`ServeStats`] view, plus the live
/// keys (they settle once every reply is reaped). One endpoint per span
/// means the endpoint index is the span, so each poll names its process
/// unambiguously.
pub(crate) fn final_stats_polls(o: &Outcome) {
    if o.d.stats_polls == 0 || o.d.endpoints_per_span != 1 {
        return;
    }
    let (name, dark) = (o.d.name, o.d.dark_owners());
    for (span, server) in o.cluster.servers().into_iter().enumerate() {
        let Some(server) = server.filter(|_| !dark.contains(&span)) else { continue };
        let wire = o
            .cluster
            .front
            .wire()
            .span_stats(span)
            .unwrap_or_else(|e| panic!("[{name}] final stats poll failed: {e:?}"));
        assert_eq!(
            ServeStats::from(&wire),
            server.stats(),
            "[{name}] span {span}: wire-polled stats disagree with the process"
        );
        assert_eq!(
            wire.sum("dini_serve_live_keys"),
            server.len() as u64,
            "[{name}] span {span}: wire-polled live_keys disagrees with the process"
        );
    }
}

/// Oracle 7: the cross-process story. Every frame carried a trace id,
/// so the client's wire records and the servers' stage records must
/// stitch into causal timelines, each monotone on virtual time —
/// encoded before admitted, admitted before answered, answered before
/// acked. One shared virtual clock makes this an exact ordering check,
/// not a tolerance. Returns the timelines stitched.
pub(crate) fn causal_stitching(o: &Outcome, server_recs: &[StageRecord]) -> u64 {
    if o.d.trace_sample_period != 1 || o.d.spans == 0 {
        return 0;
    }
    let name = o.d.name;
    let client_recs = o.cluster.front.wire().wire_traces();
    let timelines = stitch(&client_recs, server_recs);
    assert!(
        !timelines.is_empty(),
        "[{name}] dense tracing stitched no client↔server timeline ({} client wire records, \
         {} server stage records)",
        client_recs.len(),
        server_recs.len()
    );
    for t in &timelines {
        assert!(
            t.monotone(),
            "[{name}] stitched timeline for trace {:#x} is not monotone on virtual time",
            t.trace
        );
    }
    timelines.len() as u64
}

/// Oracle 8, at a kill: read cold off disk — the postmortem path — the
/// victim's journal must hold exactly one `CheckpointOk` per counted
/// checkpoint and one `CheckpointFail` per counted failure, and its
/// checkpoint records must read Begin, completion, Begin, completion, …
/// — one `Begin` per attempt, each closed before the next opens (one
/// writer, so sequence order is program order).
pub(crate) fn checkpoint_story(name: &str, story: &[FlightEvent], checkpoints: u64, failures: u64) {
    use EventKind::{CheckpointBegin as Begin, CheckpointFail as Fail, CheckpointOk as Done};
    assert_eq!(
        (count(story, Done), count(story, Fail)),
        (checkpoints, failures),
        "[{name}] journal CheckpointOk/Fail records disagree with the victim's counters"
    );
    let records: Vec<EventKind> = story
        .iter()
        .filter_map(FlightEvent::event)
        .filter(|k| matches!(k, Begin | Done | Fail))
        .collect();
    assert!(
        records.chunks(2).all(|pair| matches!(pair, [Begin, Done | Fail])),
        "[{name}] checkpoint records must pair each Begin with one completion: {records:?}"
    );
}

/// Oracle 8, at the end: the client's journal agrees with its counters
/// — exactly `elections` epoch bumps and `update_resends` suffix
/// resends, every kill visible as an endpoint death and every rejoin as
/// a revival — and a restarted server, having reopened its journal,
/// kept the whole pre-kill story and appended past it. Returns the
/// events in the client's journal.
pub(crate) fn journals_agree(o: &Outcome, stats: &NetClientStats) -> u64 {
    let name = o.d.name;
    let Some(journal) = &o.cluster.client_journal else { return 0 };
    let events = journal.events();
    assert_eq!(
        count(&events, EventKind::Election),
        stats.elections,
        "[{name}] client journal election records disagree with the elections counter"
    );
    assert_eq!(
        count(&events, EventKind::UpdateResend),
        stats.update_resends,
        "[{name}] client journal resend records disagree with the update_resends counter"
    );
    assert!(
        !o.d.has_step(Step::Kill(0)) || count(&events, EventKind::EndpointDead) >= 1,
        "[{name}] the kill never reached the client journal as an EndpointDead record"
    );
    assert!(
        !o.d.has_step(Step::Rejoin(0)) || count(&events, EventKind::EndpointRejoin) >= 1,
        "[{name}] the rejoin never reached the client journal as an EndpointRejoin record"
    );
    let scratch = o.cluster.site.scratch.as_ref().expect("a journal lives in a scratch directory");
    for &(endpoint, at_kill) in &o.cluster.stories {
        if o.cluster.hosted[endpoint].is_some() {
            let now = scratch.read(&o.cluster.site.addr(endpoint)).len();
            assert!(
                now > at_kill,
                "[{name}] the revived journal must recover the {at_kill} pre-kill events and \
                 append new ones (found {now})"
            );
        }
    }
    events.len() as u64
}
