//! Publish–subscribe middleware routing — one of the paper's motivating
//! applications ("request processing in publish-subscribe middleware").
//!
//! Topics are hashed into a 32-bit space; each broker owns a contiguous
//! range of that space. The distributed in-cache index maps a published
//! event's topic hash to the broker responsible for matching it against
//! subscriptions. We route a stream of one million events and verify that
//! every event lands on the broker whose range covers it.
//!
//! ```text
//! cargo run --release --example pubsub_routing
//! ```

use dini::{DistributedIndex, NativeConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const N_BROKERS: usize = 6;

fn topic_hash(topic: &str) -> u32 {
    let mut h = DefaultHasher::new();
    topic.hash(&mut h);
    h.finish() as u32
}

fn main() {
    // The broker ring: range delimiters learned from a bootstrap sample of
    // the topic population (in production these come from load balancing).
    let mut sample: Vec<u32> =
        (0..60_000u32).map(|i| topic_hash(&format!("sensor/{}/reading/{}", i % 300, i))).collect();
    sample.sort_unstable();
    sample.dedup();

    let cfg = NativeConfig { n_slaves: N_BROKERS, pin_cores: false, ..NativeConfig::new(1) };
    let mut router = DistributedIndex::build(&sample, cfg);
    println!(
        "pub/sub router: {} sampled topics, {} brokers, ~{} topics each",
        sample.len(),
        N_BROKERS,
        sample.len() / N_BROKERS
    );

    // Publish a stream of events; each event's rank falls inside the rank
    // range of the broker that owns its hash.
    let events: Vec<String> =
        (0..1_000_000u32).map(|i| format!("sensor/{}/reading/{}", i % 300, i % 60_000)).collect();
    let hashes: Vec<u32> = events.iter().map(|e| topic_hash(e)).collect();

    let ranks = router.lookup_batch(&hashes);

    // Verify against the router's own dispatch function and count load.
    let mut load = [0u64; N_BROKERS];
    for (i, &h) in hashes.iter().enumerate() {
        let broker = router.dispatch(h);
        load[broker] += 1;
        // The rank must fall inside the broker's partition (or at its
        // boundary where the next partition starts).
        let range = router.partition_ranks(broker);
        assert!(
            ranks[i] >= range.start && ranks[i] <= range.end,
            "event {i} rank {} outside broker {broker} range {range:?}",
            ranks[i]
        );
    }

    println!("routed {} events; per-broker load:", events.len());
    for (b, l) in load.iter().enumerate() {
        let pct = *l as f64 / events.len() as f64 * 100.0;
        println!("  broker {b}: {l:>8} events ({pct:.1} %)");
    }
    let max = *load.iter().max().unwrap() as f64;
    let min = *load.iter().min().unwrap() as f64;
    println!("load imbalance (max/min): {:.2}", max / min);
}
