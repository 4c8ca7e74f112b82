//! Property tests pinning the rank-composition edges of key-space
//! sharding: `ShardRouter::route`, `split`, and `shard_range` must agree
//! with each other on *arbitrary* key sets — including the boundary keys
//! where the global-rank composition `base_rank(s) + local_rank` would
//! silently go wrong if routing and splitting ever disagreed by one —
//! and the replica-selection layer on top: `ReplicaSelector` must stay
//! inside the keyed shard's replica group, never pick a dead replica,
//! and be a *pure function* of `(tick, depths)` (the property
//! `dini-simtest`'s bit-reproducibility stands on).

use dini_serve::{ReplicaSelector, ShardRouter};
use proptest::collection::{btree_set, vec as prop_vec};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Sorted unique keys plus a shard count that's always buildable
/// (`n_shards ≤ keys.len()`).
fn keys_and_shards() -> impl Strategy<Value = (Vec<u32>, usize)> {
    (btree_set(0u32..100_000, 1..250usize), 1usize..9).prop_map(
        |(set, shards): (BTreeSet<u32>, usize)| {
            let keys: Vec<u32> = set.iter().copied().collect();
            let n = shards.min(keys.len()).max(1);
            (keys, n)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn split_and_route_agree_on_every_key(input in keys_and_shards()) {
        let (keys, n_shards) = input;
        let r = ShardRouter::from_keys(&keys, n_shards);
        prop_assert_eq!(r.n_shards(), n_shards);
        let parts = r.split(&keys);
        prop_assert_eq!(parts.len(), n_shards);

        // split() covers the key set exactly, in order.
        let glued: Vec<u32> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        prop_assert_eq!(&glued, &keys);

        // Every key routes to the part split() put it in.
        for (s, part) in parts.iter().enumerate() {
            for &k in *part {
                prop_assert_eq!(r.route(k), s, "key {} split into shard {}", k, s);
            }
        }
    }

    #[test]
    fn shard_ranges_tile_and_contain_routed_keys(input in keys_and_shards()) {
        let (keys, n_shards) = input;
        let r = ShardRouter::from_keys(&keys, n_shards);

        // Ranges tile [0, ∞): each shard starts where the previous ended.
        let mut expect_lo = 0u32;
        for s in 0..r.n_shards() {
            let (lo, hi) = r.shard_range(s);
            prop_assert_eq!(lo, expect_lo, "shard {} range not contiguous", s);
            match hi {
                Some(h) => {
                    prop_assert!(lo < h, "shard {} range empty: {}..{}", s, lo, h);
                    expect_lo = h;
                }
                None => prop_assert_eq!(s, r.n_shards() - 1, "only the last shard is unbounded"),
            }
        }

        // route() lands inside shard_range() for keys *anywhere* in the
        // u32 space, indexed or not — below the global minimum, above the
        // maximum, and dead on every boundary.
        let mut probes = vec![0u32, u32::MAX];
        for &k in &keys {
            probes.push(k);
            probes.push(k.saturating_sub(1));
            probes.push(k.saturating_add(1));
        }
        for q in probes {
            let s = r.route(q);
            let (lo, hi) = r.shard_range(s);
            prop_assert!(q >= lo, "key {} routed to shard {} starting at {}", q, s, lo);
            if let Some(h) = hi {
                prop_assert!(q < h, "key {} routed past shard {} ending at {}", q, s, h);
            }
        }
    }

    #[test]
    fn owns_is_route_without_the_search(input in keys_and_shards(), probe in any::<u32>()) {
        let (keys, n_shards) = input;
        let r = ShardRouter::from_keys(&keys, n_shards);
        let mut probes = vec![0u32, u32::MAX, probe];
        for &d in r.delimiters() {
            probes.extend([d - 1, d, d.saturating_add(1)]);
        }
        for q in probes {
            for s in 0..r.n_shards() {
                prop_assert_eq!(r.owns(s, q), r.route(q) == s, "key {} shard {}", q, s);
            }
        }
    }

    #[test]
    fn boundary_keys_route_to_the_upper_shard(input in keys_and_shards()) {
        let (keys, n_shards) = input;
        let r = ShardRouter::from_keys(&keys, n_shards);
        for s in 1..r.n_shards() {
            let (lo, _) = r.shard_range(s);
            // The first key of shard s belongs to s; its predecessor to s−1.
            prop_assert_eq!(r.route(lo), s);
            prop_assert_eq!(r.route(lo - 1), s - 1);
        }
    }
}

/// A delimiter at `u32::MAX` gives the last shard the one key `u32::MAX`;
/// `owns` must route it there too, not to the shard below.
#[test]
fn owns_agrees_with_route_at_a_max_delimiter() {
    let r = ShardRouter::from_delimiters(vec![0, 10, u32::MAX]);
    for q in [0, 1, 9, 10, 11, u32::MAX - 1, u32::MAX] {
        for s in 0..r.n_shards() {
            assert_eq!(r.owns(s, q), r.route(q) == s, "key {q} shard {s}");
        }
    }
    assert!(r.owns(3, u32::MAX) && !r.owns(2, u32::MAX));
}

/// Per-shard replica state for the selection properties: every shard
/// gets `MAX_REPLICAS` `(alive, depth)` pairs; tests truncate each
/// group to the drawn replica count and read a dead replica as `None`.
const MAX_REPLICAS: usize = 4;

fn replica_groups() -> impl Strategy<Value = (usize, Vec<Vec<(bool, u64)>>)> {
    (1usize..=MAX_REPLICAS, prop_vec(prop_vec((any::<bool>(), 0u64..1000), MAX_REPLICAS), 1..6))
}

fn probe(group: &[(bool, u64)], r: usize) -> Option<u64> {
    let (alive, depth) = group[r];
    alive.then_some(depth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The composed routing decision: the shard comes from the key
    /// alone, and the replica chosen for it always indexes into *that
    /// shard's* replica group — replica choice can never cross a shard
    /// boundary, whatever the depths, liveness, or tick.
    #[test]
    fn replica_choice_never_crosses_shard_boundaries(
        input in keys_and_shards(),
        groups in replica_groups(),
        tick in 0u64..1_000,
    ) {
        let (keys, n_shards) = input;
        let (n_replicas, depths) = groups;
        let router = ShardRouter::from_keys(&keys, n_shards);
        let sel = ReplicaSelector::new(n_replicas);
        for &key in keys.iter().chain([0, u32::MAX].iter()) {
            let shard = router.route(key);
            let group = &depths[shard % depths.len()][..n_replicas];
            let chosen = sel.select(tick, |r| probe(group, r));
            // The shard is a pure function of the key…
            prop_assert_eq!(shard, router.route(key));
            match chosen {
                // …and the replica stays inside that shard's group and
                // is alive.
                Some(r) => {
                    prop_assert!(r < n_replicas, "replica {} outside the group", r);
                    prop_assert!(probe(group, r).is_some(), "picked a dead replica");
                }
                None => prop_assert!(
                    (0..n_replicas).all(|r| probe(group, r).is_none()),
                    "None is only allowed when every replica is dead"
                ),
            }
        }
    }

    /// Selection is deterministic given fixed queue depths: the same
    /// `(tick, depths)` always picks the same replica, and among two
    /// live candidates the deeper queue never wins.
    #[test]
    fn replica_selection_is_deterministic_and_load_aware(
        group in prop_vec((any::<bool>(), 0u64..1000), 1..8),
        tick in 0u64..1_000,
    ) {
        let sel = ReplicaSelector::new(group.len());
        let a = sel.select(tick, |r| probe(&group, r));
        let b = sel.select(tick, |r| probe(&group, r));
        prop_assert_eq!(a, b, "same (tick, depths) must select the same replica");

        if let Some(chosen) = a {
            prop_assert!(probe(&group, chosen).is_some());
            // Power-of-two choices: when both sampled candidates are
            // alive, the shallower of the two wins (ties go low).
            let (c1, c2) = sel.candidates(tick);
            if let (Some(d1), Some(d2)) = (probe(&group, c1), probe(&group, c2)) {
                let want = if d2 < d1 || (d2 == d1 && c2 < c1) { c2 } else { c1 };
                prop_assert_eq!(chosen, want, "candidates ({}, {})", c1, c2);
                prop_assert!(probe(&group, chosen).unwrap() <= d1.max(d2));
            }
        } else {
            prop_assert!(group.iter().all(|&(alive, _)| !alive));
        }
    }
}
