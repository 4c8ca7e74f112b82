//! A slice whose keys all route to one shard is ranked in place, without
//! the per-key shard table and the scatter a shard-mixed slice takes.
//! The two routes must not be told apart: the same ranks, checked
//! against a `BTreeSet`, through every entry point that ranks a slice
//! (`begin_lookup_many`, `lookup_many`, and a pipelined caller's groups),
//! and the same accounting — `served`, `batches`, `claimed`, `rerouted`,
//! each replica's share and every heat cell — as the same keys sent as
//! shard-mixed slices. One case kills a shard's every replica, so its
//! keys are refused on both routes and counted in its heat row alone.

use dini_cluster::Fault;
use dini_serve::{IndexServer, LookupScratch, ServeConfig, ServeError, ServerHandle, ShardRouter};
use dini_workload::gen_sorted_unique_keys;
use std::collections::BTreeSet;
use std::time::Duration;

const SHARDS: usize = 4;

/// Four shards of two replicas, heat on; every replica of `dead` (if
/// any) crashed from the start.
fn server(keys: &[u32], dead: Option<usize>) -> IndexServer {
    let mut cfg = ServeConfig::new(SHARDS);
    cfg.replicas_per_shard = 2;
    cfg.heat = true;
    if let Some(shard) = dead {
        cfg.faults.events.push(Fault::Crash { shard, replica: None, at: Duration::ZERO });
    }
    IndexServer::build(keys, cfg)
}

/// What a lookup of `q` must answer.
fn oracle(set: &BTreeSet<u32>, router: &ShardRouter, dead: Option<usize>, q: u32) -> Reply {
    if dead == Some(router.route(q)) {
        return Err(ServeError::ShuttingDown);
    }
    Ok(set.range(..=q).count() as u32)
}

type Reply = Result<u32, ServeError>;

/// For each shard, `rounds` slices wholly inside it: its first key (a
/// delimiter), the one after, keys of the index and keys between them,
/// its last possible key, and 0 or `u32::MAX` at the ends of the key
/// space.
fn one_shard_slices(keys: &[u32], router: &ShardRouter, rounds: usize) -> Vec<Vec<Vec<u32>>> {
    (0..SHARDS)
        .map(|s| {
            let (lo, hi) = router.shard_range(s);
            let last = hi.map_or(u32::MAX, |hi| hi - 1);
            let inside: Vec<u32> = keys.iter().copied().filter(|&k| router.route(k) == s).collect();
            (0..rounds)
                .map(|j| {
                    let mut slice = vec![lo, lo.saturating_add(1), last];
                    let step = inside.len() / 37 + 1;
                    for &k in inside.iter().skip(j).step_by(step).take(40) {
                        slice.extend([
                            k,
                            k.saturating_add(1).min(last),
                            k.saturating_sub(1).max(lo),
                        ]);
                    }
                    slice.truncate(3 + 17 * (j + 1));
                    slice
                })
                .collect()
        })
        .collect()
}

/// Round-robin the shards' `j`-th slices into one: a shard-mixed slice
/// whose shards come in order 0, 1, 2, 3, each with the same keys as
/// its one-shard slice.
fn mixed(one_shard: &[Vec<Vec<u32>>], j: usize) -> Vec<u32> {
    let longest = one_shard.iter().map(|slices| slices[j].len()).max().unwrap_or(0);
    let mut slice = Vec::new();
    for i in 0..longest {
        slice.extend(one_shard.iter().filter_map(|slices| slices[j].get(i)));
    }
    slice
}

/// Slices that straddle a delimiter: each shard's last keys and the
/// next shard's first, and the whole key space's two ends.
fn straddling(router: &ShardRouter) -> Vec<Vec<u32>> {
    let mut slices: Vec<Vec<u32>> =
        router.delimiters().iter().map(|&d| vec![d - 2, d - 1, d, d + 1, d - 1, d]).collect();
    slices.push(vec![0, u32::MAX, 0, 1, u32::MAX - 1]);
    slices.push(router.delimiters().iter().rev().copied().collect());
    slices
}

/// What a run leaves: `(served, batches, claimed, rerouted)`, each
/// replica's `served`, and every heat cell.
type Accounting = ((u64, u64, u64, u64), Vec<u64>, Vec<(String, u64)>);

fn accounting(server: &IndexServer) -> Accounting {
    let s = server.stats();
    let replicas = server.replica_stats().iter().map(|r| r.served).collect();
    let heat = server
        .metrics_snapshot()
        .series("dini_serve_heat")
        .map(|(labels, v)| (labels.to_owned(), v))
        .collect();
    ((s.served, s.batches, s.claimed, s.rerouted), replicas, heat)
}

/// Rank every slice through `begin_lookup_many` and check each answer.
fn rank_slices(h: &ServerHandle, slices: &[Vec<u32>], expect: impl Fn(u32) -> Reply) {
    let (mut scratch, mut out) = (LookupScratch::default(), Vec::new());
    for slice in slices {
        h.begin_lookup_many(slice, 0, &mut scratch, &mut out);
        assert_eq!(out.len(), slice.len());
        for (&q, pending) in slice.iter().zip(out.drain(..)) {
            assert_eq!(pending.poll(), Some(expect(q)), "key {q}: a slice comes back resolved");
        }
    }
}

fn check(dead: Option<usize>) {
    let keys = gen_sorted_unique_keys(20_000, 42);
    let set: BTreeSet<u32> = keys.iter().copied().collect();
    let router = ShardRouter::from_keys(&keys, SHARDS);
    let expect = |q| oracle(&set, &router, dead, q);
    let one_shard = one_shard_slices(&keys, &router, 4);

    // In place: each one-shard slice alone, shard by shard.
    let in_place = server(&keys, dead);
    let h = in_place.handle();
    for probe in router.delimiters().iter().copied().chain([0, u32::MAX]) {
        assert_eq!(router.route(probe), h.shard_of(probe), "the server routes as the router");
    }
    for j in 0..4 {
        let round: Vec<Vec<u32>> = one_shard.iter().map(|slices| slices[j].clone()).collect();
        for slice in &round {
            assert!(slice.iter().all(|&k| router.route(k) == router.route(slice[0])));
        }
        rank_slices(&h, &round, expect);
    }
    let placed = accounting(&in_place);

    // Scattered: the same keys, one shard-mixed slice a round.
    let scattered = server(&keys, dead);
    let h = scattered.handle();
    let rounds: Vec<Vec<u32>> = (0..4).map(|j| mixed(&one_shard, j)).collect();
    rank_slices(&h, &rounds, expect);
    assert_eq!(accounting(&scattered), placed, "the in-place route counts as the scatter");

    let ((served, batches, claimed, _), ref replicas, ref heat) = placed;
    let sent: usize = one_shard.iter().flatten().map(Vec::len).sum();
    let live = SHARDS - usize::from(dead.is_some());
    assert_eq!(batches, 4 * live as u64, "one batch per live shard a round");
    assert_eq!(claimed, served, "one caller wins every claim");
    assert_eq!(replicas.iter().sum::<u64>(), served);
    let heat_total: u64 = heat.iter().map(|(_, v)| v).sum();
    assert_eq!(heat_total, sent as u64, "every key counted once, served or refused");
    if let Some(d) = dead {
        let refused: usize = one_shard[d].iter().map(Vec::len).sum();
        assert_eq!(served, (sent - refused) as u64);
        assert_eq!(replicas[2 * d..2 * d + 2], [0, 0], "a dead shard ranked nothing");
        let shard = format!("shard=\"{d}\"");
        let dead_heat: u64 = heat.iter().filter(|(l, _)| l.contains(&shard)).map(|(_, v)| v).sum();
        assert_eq!(dead_heat, refused as u64, "refused keys are counted in their shard's row");
    } else {
        assert_eq!(served, sent as u64);
    }

    // Straddling slices and the edge keys, through all three entry points.
    let straddle = straddling(&router);
    rank_slices(&h, &straddle, expect);
    for slice in straddle.iter().chain(one_shard.iter().flatten()) {
        let want: Vec<Reply> = slice.iter().map(|&q| expect(q)).collect();
        match h.lookup_many(slice) {
            Ok(ranks) => {
                let got: Vec<Reply> = ranks.into_iter().map(Ok).collect();
                assert_eq!(got, want, "lookup_many({slice:?})");
            }
            Err(e) => assert!(want.contains(&Err(e)), "lookup_many({slice:?}) refused: {e}"),
        }
    }
    // Pipelined: the one-shard slices end to end, then the straddling
    // ones, all in flight at once, so most groups of 32 fall in one
    // shard and some cross a delimiter.
    let stream: Vec<u32> =
        one_shard.iter().flatten().chain(&straddle).flat_map(|s| s.iter().copied()).collect();
    let pending: Vec<_> = stream.iter().map(|&q| (q, h.begin_lookup(q))).collect();
    for (q, p) in pending {
        // A lone lookup (the first) is ranked inside `begin_lookup`.
        assert_eq!(p.and_then(|p| p.wait()), expect(q), "pipelined key {q}");
    }
}

#[test]
fn a_one_shard_slice_ranks_and_counts_as_the_scatter() {
    check(None);
}

#[test]
fn a_dead_shard_refuses_on_both_routes_and_counts_its_heat() {
    check(Some(2));
}
