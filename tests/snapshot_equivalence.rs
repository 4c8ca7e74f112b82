//! Snapshot/rebuild equivalence, pinned at the serving boundary: a
//! server recovered by *mapping* a `dini-store` checkpoint must be
//! observationally identical to a server built by sorting the same key
//! set — key for key, shard count for shard count, edge case for edge
//! case. `build_recovered` seeds `SharedKeys::Mapped` main arrays and a
//! recovered pending overlay into the very same dispatcher/replica
//! machinery `build` uses, so any divergence here means the mapped
//! backing or the recovered overlay took a different code path than the
//! owned one.
//!
//! The probe sweep is exhaustive where it matters: every stored key,
//! both its neighbours (rank boundaries), the extremes, and a batched
//! `lookup_many` pass that drives the workers' `lookup_batch_into`
//! scatter/gather path rather than the single-key fast path.

use dini::serve::{open_snapshot, IndexServer, ServeConfig, ServerHandle, StorePlan};
use dini::workload::Op;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dini-snap-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot scratch dir");
    dir.join(format!("{tag}.snap"))
}

fn cfg(shards: usize) -> ServeConfig {
    ServeConfig::new(shards)
}

/// Every stored key, its two neighbours, and the extremes — the points
/// where a rank can change.
fn probes(keys: &BTreeSet<u32>) -> Vec<u32> {
    let mut p = vec![0u32, 1, u32::MAX - 1, u32::MAX];
    for &k in keys {
        p.push(k.saturating_sub(1));
        p.push(k);
        p.push(k.saturating_add(1));
    }
    p
}

/// Checkpoint `sorted` through a live server, reopen the snapshot, and
/// assert the mapped recovery answers exactly like a fresh sorted
/// build on every probe — single-key path and batched path both.
fn assert_equivalent(tag: &str, shards: usize, sorted: &[u32]) {
    let path = scratch(tag);
    let mut c = cfg(shards);
    c.store = Some(StorePlan::new(path.clone()));
    let origin = IndexServer::build(sorted, c.clone());
    origin.quiesce();
    drop(origin);

    let snap = open_snapshot(&path).expect("checkpoint must reopen");
    let mirror: BTreeSet<u32> = sorted.iter().copied().collect();
    assert_eq!(snap.live_keys(), mirror.len() as u64, "[{tag}] snapshot key accounting");

    let rebuilt = IndexServer::build(sorted, cfg(shards));
    c.store = None;
    let recovered = IndexServer::build_recovered(&snap, c);
    assert_eq!(recovered.len(), rebuilt.len(), "[{tag}] recovered key count");
    assert_eq!(recovered.n_shards(), shards, "[{tag}] recovered shard count");

    let (hr, hb): (ServerHandle, ServerHandle) = (recovered.handle(), rebuilt.handle());
    let probes = probes(&mirror);
    for &q in &probes {
        let want = mirror.range(..=q).count() as u32;
        assert_eq!(hb.lookup(q), Ok(want), "[{tag}] sorted-build rank({q})");
        assert_eq!(hr.lookup(q), Ok(want), "[{tag}] mapped-recovery rank({q})");
    }
    // The batched path: one lookup_many per chunk drives the workers'
    // lookup_batch_into scatter; answers must agree element-wise.
    for chunk in probes.chunks(257) {
        let a = hb.lookup_many(chunk).expect("sorted-build batch");
        let b = hr.lookup_many(chunk).expect("mapped-recovery batch");
        assert_eq!(a, b, "[{tag}] batched ranks diverged between backings");
    }
    std::fs::remove_file(&path).ok();
}

/// The main sweep: the same key set behind 1, 2, 3, and 7 shards.
/// Shard delimiters move, per-shard base ranks move, the mapped
/// segments move — the answers must not.
#[test]
fn mapped_recovery_agrees_with_sorted_build_across_shard_counts() {
    let keys: Vec<u32> = (0..3_000u32).map(|i| i.wrapping_mul(977) * 4 + 2).collect();
    let mut sorted = keys;
    sorted.sort_unstable();
    sorted.dedup();
    for shards in [1usize, 2, 3, 7] {
        assert_equivalent(&format!("shards-{shards}"), shards, &sorted);
    }
}

/// The smallest builds the router's one-key-per-shard precondition
/// admits: shard populations of exactly one, and a lone-key index.
/// Zero-length-adjacent mapped segments must still serve like their
/// sorted-build twins.
#[test]
fn minimal_one_key_shards_round_trip_equivalently() {
    assert_equivalent("one-key-one-shard", 1, &[7]);
    assert_equivalent("three-keys-three-shards", 3, &[5, 70_000, 4_000_000_000]);
    assert_equivalent("dense-low-one-shard", 1, &[0, 1, 2, 3]);
}

/// Empty shards cannot exist at *build* time (the router wants a key
/// per shard) — but churn deletes its way there, and a checkpoint then
/// stores a zero-length shard record with fixed delimiters. Mapping
/// such a snapshot must recover empty (even fully empty) shards and
/// serve exact ranks around them; this is the edge a fresh sorted
/// build can never even express.
#[test]
fn churned_empty_shards_recover_and_serve_exactly() {
    // 3 shards × 4 keys; delete the whole middle shard, then all keys.
    let sorted: Vec<u32> = (0..12u32).map(|i| i * 100 + 50).collect();
    for (tag, delete_upto) in [("middle-shard-emptied", 8usize), ("whole-index-emptied", 12)] {
        let path = scratch(tag);
        let mut c = cfg(3);
        c.store = Some(StorePlan::new(path.clone()));
        let origin = IndexServer::build(&sorted, c.clone());
        let mut mirror: BTreeSet<u32> = sorted.iter().copied().collect();
        // Shard delimiters split 12 keys as [0..4), [4..8), [8..12);
        // deleting indices 4..8 empties the middle shard, 0..12 all.
        let doomed: Vec<u32> =
            if delete_upto == 12 { sorted.clone() } else { sorted[4..8].to_vec() };
        for k in doomed {
            origin.update(Op::Delete(k)).expect("delete");
            mirror.remove(&k);
        }
        origin.quiesce();
        drop(origin);

        let snap = open_snapshot(&path).expect("checkpoint must reopen");
        assert_eq!(snap.live_keys(), mirror.len() as u64, "[{tag}] snapshot accounting");
        c.store = None;
        let recovered = IndexServer::build_recovered(&snap, c);
        assert_eq!(recovered.len(), mirror.len(), "[{tag}] recovered key count");
        let h = recovered.handle();
        for q in probes(&sorted.iter().copied().collect()) {
            let want = mirror.range(..=q).count() as u32;
            assert_eq!(h.lookup(q), Ok(want), "[{tag}] rank({q}) around an emptied shard");
        }
        // And the emptied shard is not dead weight: keys insert back
        // into its range and rank correctly.
        recovered.update(Op::Insert(555)).expect("re-insert into the emptied range");
        mirror.insert(555);
        recovered.quiesce();
        assert_eq!(h.lookup(555), Ok(mirror.range(..=555).count() as u32), "[{tag}] re-insert");
        std::fs::remove_file(&path).ok();
    }
}

/// Equivalence is not a frozen-at-recovery property: after identical
/// post-recovery churn (inserts, deletes, delete-of-absent no-ops) the
/// two servers must still agree everywhere — the recovered pending
/// overlay and the mapped mains keep folding new ops exactly like the
/// owned build does.
#[test]
fn recovered_server_stays_equivalent_under_further_churn() {
    let sorted: Vec<u32> = (0..2_000u32).map(|i| i * 6 + 3).collect();
    let path = scratch("churn-after");
    let mut c = cfg(3);
    c.store = Some(StorePlan::new(path.clone()));
    let origin = IndexServer::build(&sorted, c.clone());
    origin.quiesce();
    drop(origin);

    let snap = open_snapshot(&path).expect("checkpoint must reopen");
    let rebuilt = IndexServer::build(&sorted, cfg(3));
    c.store = None;
    let recovered = IndexServer::build_recovered(&snap, c);

    let mut mirror: BTreeSet<u32> = sorted.iter().copied().collect();
    let mut k = 99u32;
    let mut ops = Vec::new();
    for i in 0..600u32 {
        k = k.wrapping_mul(2_654_435_761).wrapping_add(12_345);
        if i % 3 == 0 {
            mirror.remove(&k);
            ops.push(Op::Delete(k)); // usually absent: the no-op path
        } else {
            mirror.insert(k);
            ops.push(Op::Insert(k));
        }
    }
    rebuilt.update_batch(ops.clone()).expect("churn the sorted build");
    recovered.update_batch(ops).expect("churn the mapped recovery");
    rebuilt.quiesce();
    recovered.quiesce();

    let (hr, hb) = (recovered.handle(), rebuilt.handle());
    let mut q = 0x00C0_FFEEu32;
    for _ in 0..2_000 {
        q = q.wrapping_mul(2_654_435_761).wrapping_add(12_345);
        let want = mirror.range(..=q).count() as u32;
        assert_eq!(hb.lookup(q), Ok(want), "post-churn sorted-build rank({q})");
        assert_eq!(hr.lookup(q), Ok(want), "post-churn mapped-recovery rank({q})");
    }
    assert_eq!(recovered.len(), mirror.len());
    assert_eq!(rebuilt.len(), mirror.len());
    std::fs::remove_file(&path).ok();
}
