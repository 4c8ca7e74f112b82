//! Crash-recovery scenarios on deterministic virtual time: kill one
//! endpoint of a replicated span mid-churn, restart it from its
//! `dini-store` snapshot, replay the client-retained churn-log suffix
//! past the recovered watermark, and rejoin serving exact ranks.
//!
//! Every scenario runs digest-pinned (twice per seed, reports must be
//! identical) across the `DINI_SIMTEST_SEEDS` seed sweep, and every run
//! enforces the full oracle set inside `run`: all
//! churn ops quorum-acked `Ok` through the kill and recovery, wire
//! ranks against a runner-side `BTreeSet` mirror mid-dead-window and
//! post-rejoin, both server *processes* converged to the mirror
//! (set sizes and local rank sweeps), and live-key accounting exact.
//!
//! Every endpoint (and the client) also keeps a `dini-flight` journal:
//! after the kill the victim's is read cold off disk and its recorded
//! checkpoint story must match the victim's live counters exactly (one
//! `Begin` per attempt, `Ok`/`Fail` pairing each `Begin` in sequence
//! order); the restart reopens — recovers — the same journal and must
//! append past the pre-kill story; and the client's journal must agree
//! with its election/resend counters and show the death and rejoin.

mod catalog;

use dini_simtest::{run_reproducibly, seeds_from_env};

/// The headline recovery path: a checkpoint exists (the pre-kill
/// quiesce barrier guarantees one on both endpoints), the victim is
/// killed mid-churn, 300 ops land while it is down, and the restart
/// must map the snapshot — no sort-rebuild — then replay exactly the
/// suffix past its watermark and mirror the survivor key-for-key.
#[test]
fn kill_span_mid_churn_restart_mirrors_exactly() {
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::kill_span_mid_churn(seed), seed);
        let (_, recovered_seq) = r.recovered_watermark.expect("restart must map, not rebuild");
        assert!(
            r.elections >= 1,
            "seed {seed}: the kill must bump the churn-log epoch, got {}",
            r.elections
        );
        // The quiesce before the kill checkpointed at the acked head,
        // so the recovered watermark is exactly the kill-time seq: the
        // replay suffix is precisely the dead-window ops.
        assert_eq!(
            recovered_seq, r.seq_at_kill,
            "seed {seed}: a post-quiesce checkpoint must carry the kill-time watermark"
        );
        assert!(r.oracle_checks >= 512, "seed {seed}: sweeps must have run");
        // The pre-kill quiesce checkpointed, so the journal the restart
        // recovered must already have held that story at the kill.
        assert!(
            r.flight_events_at_kill >= 2,
            "seed {seed}: the pre-kill checkpoint must have left Begin+Ok in the journal ({r:?})"
        );
    }
}

/// Crash mid-storm with *no* quiesce before the kill: the only
/// checkpoints are the ones the merge cycle itself wrote (threshold 16,
/// checkpoint every merge), so the snapshot the restart maps was taken
/// mid-churn at some batch boundary — the watermark is conservative and
/// the replay suffix overlaps ops already folded into the mapped state.
/// Idempotent replay must absorb the overlap without double-applying.
/// (The churn generator deletes keys it inserted, so pending deltas
/// mostly cancel: net delta growth is ~0.1 ops/shard, and 500 ops at
/// threshold 16 crosses the merge trigger with wide margin.)
#[test]
fn snapshot_mid_churn_storm_recovers_from_merge_checkpoint() {
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::snapshot_mid_churn_storm(seed), seed);
        let (_, recovered_seq) = r.recovered_watermark.expect(
            "500 pre-kill ops across 2 shards at threshold 16 must have merge-checkpointed; \
             the restart must map that snapshot",
        );
        assert!(
            recovered_seq > 0,
            "seed {seed}: a mid-storm checkpoint folds a nonempty log prefix"
        );
        assert!(r.elections >= 1, "seed {seed}: the kill must bump the epoch");
    }
}

/// Deliberately stale snapshot, long replay: the merge threshold is
/// unreachable, so the *only* checkpoint is the early quiesce barrier —
/// taken before most of the churn. The dead window then piles 600 more
/// ops on top (well inside the client's 16 384-record retention). The
/// restart maps a snapshot far behind the log head and recovery is
/// carried almost entirely by the suffix replay.
#[test]
fn stale_snapshot_recovers_via_long_log_replay() {
    for seed in seeds_from_env() {
        let r = run_reproducibly(&catalog::stale_snapshot_log_replay(seed), seed);
        let (_, recovered_seq) = r.recovered_watermark.expect("the stale snapshot must still map");
        // The watermark sits at the early barrier; everything after —
        // the 600-op dead window — must have come back as log replay.
        assert_eq!(
            recovered_seq, r.seq_at_kill,
            "seed {seed}: the quiesce checkpoint carries the pre-kill head"
        );
        assert!(
            r.live_keys > 0,
            "seed {seed}: the span must be serving a nonempty key set after recovery"
        );
    }
}
