//! A pub/sub subscription table that *churns* — the dynamic workload the
//! paper's motivating applications actually have.
//!
//! Subscriptions come and go; the routing index must keep answering rank
//! queries while absorbing updates. This example drives a [`DeltaArray`]
//! (static cache-resident main array + small sorted delta, merged on
//! threshold) with a read-mostly churn stream, checks every answer
//! against a `BTreeSet` oracle, and rebuilds the distributed router's
//! partition delimiters whenever enough churn has accumulated —
//! re-balancing broker load online.
//!
//! ```text
//! cargo run --release --example dynamic_subscriptions
//! ```

use dini::cache_sim::NullMemory;
use dini::index::{DeltaArray, RankIndex};
use dini::workload::{ChurnGen, KeyDistribution, Op, OpMix};
use dini::{DistributedIndex, NativeConfig};
use std::collections::BTreeSet;

const N_BROKERS: usize = 5;
const OPS: usize = 200_000;
const MERGE_THRESHOLD: usize = 1024;
const REBALANCE_EVERY: usize = 4_000;

fn sorted_keys(keys: &BTreeSet<u32>) -> Vec<u32> {
    keys.iter().copied().collect()
}

fn main() {
    // Bootstrap: 100 k initial subscriptions (topic hashes).
    let mut gen = ChurnGen::new(42, KeyDistribution::Uniform, OpMix::read_mostly());
    let mut oracle: BTreeSet<u32> = BTreeSet::new();
    let mut boot: Vec<u32> = Vec::with_capacity(100_000);
    while boot.len() < 100_000 {
        let k = match gen.next_op() {
            Op::Query(k) | Op::Insert(k) | Op::Delete(k) => k,
        };
        if oracle.insert(k) {
            boot.push(k);
        }
    }
    boot.sort_unstable();

    let mut index = DeltaArray::new(boot.clone(), 1 << 20, 1.0, MERGE_THRESHOLD);
    let mut mem = NullMemory;
    let cfg = NativeConfig { n_slaves: N_BROKERS, pin_cores: false };
    let mut router = DistributedIndex::build(&boot, cfg);
    assert_eq!(router.len(), boot.len(), "bootstrap router must cover all subscriptions");

    let mut merges = 0usize;
    let mut rebalances = 0usize;
    let (mut queries, mut inserts, mut deletes, mut expiries) = (0u64, 0u64, 0u64, 0u64);
    let mut churn_since_rebuild = 0usize;
    // Old subscriptions expire on a TTL sweep: every 16 ops, the oldest
    // surviving bootstrap subscription lapses. These hit the *main* array
    // (tombstones in the delta), unlike churn deletes which mostly cancel
    // recent pending inserts — it is expiry that drives merge pressure.
    let mut expiry_cursor = 0usize;

    for i in 0..OPS {
        if i % 16 == 0 && expiry_cursor < boot.len() {
            let k = boot[expiry_cursor];
            expiry_cursor += 1;
            let (ok, _) = index.delete(k, &mut mem);
            if ok {
                assert!(oracle.remove(&k), "expired key {k} missing from oracle");
                expiries += 1;
                churn_since_rebuild += 1;
            }
        }
        match gen.next_op() {
            Op::Query(k) => {
                queries += 1;
                let (rank, _) = index.rank(k, &mut mem);
                let want = oracle.iter().take_while(|&&x| x <= k).count() as u32;
                assert_eq!(rank, want, "query {k} at op {i}");
            }
            Op::Insert(k) => {
                let (ok, _) = index.insert(k, &mut mem);
                assert_eq!(ok, oracle.insert(k), "insert {k} disagreed with oracle");
                if ok {
                    inserts += 1;
                    churn_since_rebuild += 1;
                }
            }
            Op::Delete(k) => {
                let (ok, _) = index.delete(k, &mut mem);
                assert_eq!(ok, oracle.remove(&k), "delete {k} disagreed with oracle");
                if ok {
                    deletes += 1;
                    churn_since_rebuild += 1;
                }
            }
        }
        if index.needs_merge() {
            index.merge(&mut mem);
            merges += 1;
        }
        // Periodically rebuild the distributed router over the merged
        // key set so broker ranges track the churned population.
        if churn_since_rebuild >= REBALANCE_EVERY {
            let keys = sorted_keys(&oracle);
            router = DistributedIndex::build(
                &keys,
                NativeConfig { n_slaves: N_BROKERS, pin_cores: false },
            );
            // The fresh router serves traffic immediately: spot-check it
            // against the delta index on the last key we touched.
            let probe = keys[keys.len() / 2];
            let (want, _) = index.rank(probe, &mut mem);
            assert_eq!(router.lookup(probe), want, "rebuilt router out of sync");
            churn_since_rebuild = 0;
            rebalances += 1;
        }
    }

    // Final cross-check: the router (rebuilt over the oracle set) and the
    // delta index agree on a fresh query batch.
    let final_keys = sorted_keys(&oracle);
    router = DistributedIndex::build(
        &final_keys,
        NativeConfig { n_slaves: N_BROKERS, pin_cores: false },
    );
    index.merge(&mut mem);
    let probes: Vec<u32> = (0..10_000u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let router_ranks = router.lookup_batch(&probes);
    for (i, &q) in probes.iter().enumerate() {
        let (r, _) = index.rank(q, &mut mem);
        assert_eq!(r, router_ranks[i], "router and delta index disagree on {q}");
    }

    println!("dynamic subscription table over {OPS} operations:");
    println!("  queries:     {queries:>8}   (all checked against the BTreeSet oracle)");
    println!("  inserts:     {inserts:>8}");
    println!("  deletes:     {deletes:>8}");
    println!("  expiries:    {expiries:>8}   (TTL sweep over bootstrap subscriptions)");
    println!("  delta merges:     {merges:>3}   (threshold {MERGE_THRESHOLD} pending updates)");
    println!("  router rebuilds:  {rebalances:>3}   (every {REBALANCE_EVERY} net updates)");
    println!("  live subscriptions: {}", oracle.len());
    println!("router and delta index agree on all {} probe queries ✓", probes.len());
}
