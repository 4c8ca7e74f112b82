//! Instant restart in numbers: build a server the slow way (sort the
//! key set, build every shard index), checkpoint it, then cold-start a
//! second server straight off the memory-mapped snapshot and compare
//! the two startup paths — same answers, and the mapped path skips the
//! sort entirely, so it costs file-open + header/checksum validation
//! instead of O(n log n) over the key set.
//!
//! ```text
//! cargo run --release --example store_restart [n_keys]
//! ```

use dini::serve::{open_snapshot, IndexServer, ServeConfig, StorePlan};
use dini::workload::gen_sorted_unique_keys;
use std::time::Instant;

fn cfg(shards: usize) -> ServeConfig {
    let mut c = ServeConfig::new(shards);
    c.max_batch = 64;
    c
}

fn main() {
    let n_keys: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4_000_000);
    let shards = 4;
    let dir = std::env::temp_dir().join(format!("dini-store-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("snapshot scratch dir");
    let path = dir.join("example.snap");

    println!("index: {n_keys} keys, {shards} shards\n");
    let keys = gen_sorted_unique_keys(n_keys, 42);

    // A restart's raw material is never conveniently sorted: shuffle
    // the set (seeded Fisher–Yates over an LCG) so path 1 pays what a
    // real sort-rebuild cold start pays.
    let mut raw = keys.clone();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..raw.len()).rev() {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        raw.swap(i, (state >> 33) as usize % (i + 1));
    }

    // Path 1: the classic cold start — sort the raw keys, then build
    // every shard index from the sorted array.
    let mut c = cfg(shards);
    c.store = Some(StorePlan::new(path.clone()));
    let t = Instant::now();
    let mut sorted = raw;
    sorted.sort_unstable();
    sorted.dedup();
    let origin = IndexServer::build(&sorted, c.clone());
    let build_time = t.elapsed();
    println!("sort-rebuild start : {build_time:>12.2?}");

    // Checkpoint (quiesce is the durability barrier) and shut down.
    let t = Instant::now();
    origin.quiesce();
    let checkpoint_time = t.elapsed();
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "checkpoint write   : {checkpoint_time:>12.2?}  ({:.1} MiB)",
        bytes as f64 / (1 << 20) as f64
    );
    drop(origin);

    // Path 2: instant restart — map the snapshot, validate checksums,
    // serve. No sort, no per-shard array copies.
    let t = Instant::now();
    let snap = open_snapshot(&path).expect("snapshot must reopen");
    let map_time = t.elapsed();
    let t = Instant::now();
    let recovered = IndexServer::build_recovered(&snap, cfg(shards));
    let recover_time = t.elapsed();
    println!(
        "snapshot map+check : {map_time:>12.2?}  (mapped: {})",
        snap.shards.iter().all(|s| s.main.is_mapped())
    );
    println!("recovered serve up : {recover_time:>12.2?}");
    let total_restart = map_time + recover_time;
    let speedup = build_time.as_secs_f64() / total_restart.as_secs_f64().max(1e-9);
    println!("\nrestart vs rebuild : {total_restart:.2?} vs {build_time:.2?}  ({speedup:.1}x)");

    // Same answers either way.
    let h = recovered.handle();
    let mut q = 0x9E37u32;
    for _ in 0..10_000 {
        q = q.wrapping_mul(2_654_435_761).wrapping_add(12_345);
        let want = keys.partition_point(|&k| k <= q) as u32;
        assert_eq!(h.lookup(q), Ok(want), "mapped recovery must answer exactly");
    }
    println!("verified           : 10000 probe ranks exact over the mapped backing");

    drop(h);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}
