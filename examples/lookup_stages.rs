//! `lookup_stages` — what a served lookup costs beside the rank it buys.
//!
//! One sorted key set, one query stream, five ways to rank it, in
//! ns/key:
//!
//! | stage | what runs |
//! |---|---|
//! | `rank_batch/32` | a bare [`ShardSnapshot::rank_batch`] of 32-key chunks: the kernel alone |
//! | `begin_lookup_many/32` | `begin_lookup_many` of the same chunks, then `wait` on each |
//! | `pipelined/256` | a closed loop keeping 256 `begin_lookup`s in flight, reaping the oldest (the benchmark's shape) |
//! | `lookup_many/256` | `lookup_many` in 256-key slices |
//! | `lookup` | a lone `lookup` per key |
//!
//! Every stage runs once per round, in this order, on the same queries,
//! and the rounds repeat; the table reports each stage's median over the
//! rounds and its spread (min–max). Each stage's ranks are summed and
//! the sums must agree, which also keeps the work from being optimised
//! away.
//!
//! ```text
//! taskset -c 0 cargo run --release --example lookup_stages                       # 2^22 keys, 9 rounds
//! taskset -c 0 cargo run --release --example lookup_stages -- --keys-log2 20 --rounds 5
//! DINI_LOOKUP_STAGES_SMOKE=1 cargo run --release --example lookup_stages          # small CI smoke
//! ```
//!
//! Run it pinned to one core (`taskset -c 0`): the server's one thread,
//! its writer, sleeps throughout, and every lookup is ranked by the
//! calling thread. The server is the benchmark's: one shard, one
//! replica, default tracing. In smoke mode the key set is 2^14 keys and
//! the query stream 2^14, two rounds, and the run ends
//! `lookup_stages smoke ✓`.

use dini::index::LineDirectory;
use dini::serve::{
    IndexServer, LookupScratch, PendingLookup, ServeConfig, ServerHandle, ShardSnapshot, SharedKeys,
};
use dini::workload::{gen_sorted_unique_keys, KeyDistribution, KeyGen};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("DINI_LOOKUP_STAGES_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// `--name value` or `--name=value`, parsed; unknown flags are ignored.
fn flag(name: &str, default: usize) -> usize {
    let (long, eq) = (format!("--{name}"), format!("--{name}="));
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        let value =
            if arg == long { args.next() } else { arg.strip_prefix(&eq).map(str::to_owned) };
        if let Some(v) = value {
            return v.parse().unwrap_or_else(|_| panic!("{long} takes a number, got {v:?}"));
        }
    }
    default
}

/// One stage: its name, and a run over every query that returns the
/// sum of the ranks it read.
type Stage<'a> = (&'static str, Box<dyn FnMut(&[u32]) -> u64 + 'a>);

fn stages<'a>(snap: &'a ShardSnapshot, h: &'a ServerHandle) -> Vec<Stage<'a>> {
    let mut ranks = Vec::new();
    let (mut scratch, mut out) = (LookupScratch::default(), Vec::<PendingLookup>::new());
    let mut in_flight = VecDeque::with_capacity(256);
    vec![
        (
            "rank_batch/32",
            Box::new(move |qs: &[u32]| {
                let mut sum = 0u64;
                for chunk in qs.chunks(32) {
                    snap.rank_batch(chunk, &mut ranks);
                    sum += ranks.iter().map(|&r| u64::from(r)).sum::<u64>();
                }
                sum
            }),
        ),
        (
            "begin_lookup_many/32",
            Box::new(move |qs: &[u32]| {
                let mut sum = 0u64;
                for chunk in qs.chunks(32) {
                    h.begin_lookup_many(chunk, 0, &mut scratch, &mut out);
                    for p in out.drain(..) {
                        sum += u64::from(p.wait().expect("a live shard answers"));
                    }
                }
                sum
            }),
        ),
        (
            "pipelined/256",
            Box::new(move |qs: &[u32]| {
                let mut sum = 0u64;
                let reap = |p: PendingLookup| u64::from(p.wait().expect("a live shard answers"));
                for &q in qs {
                    if in_flight.len() == 256 {
                        sum += reap(in_flight.pop_front().expect("full"));
                    }
                    in_flight.push_back(h.begin_lookup(q).expect("a live shard answers"));
                }
                sum + in_flight.drain(..).map(reap).sum::<u64>()
            }),
        ),
        (
            "lookup_many/256",
            Box::new(move |qs: &[u32]| {
                let mut sum = 0u64;
                for chunk in qs.chunks(256) {
                    let ranks = h.lookup_many(chunk).expect("a live shard answers");
                    sum += ranks.iter().map(|&r| u64::from(r)).sum::<u64>();
                }
                sum
            }),
        ),
        (
            "lookup",
            Box::new(move |qs: &[u32]| {
                qs.iter().map(|&q| u64::from(h.lookup(q).expect("a live shard answers"))).sum()
            }),
        ),
    ]
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let smoke = smoke();
    let (keys_log2, queries_log2, rounds) = if smoke {
        (14, 14, 2)
    } else {
        (flag("keys-log2", 22), flag("queries-log2", 20), flag("rounds", 9))
    };
    assert!((4..=28).contains(&keys_log2), "--keys-log2 must lie in 4..=28");
    assert!((5..=26).contains(&queries_log2), "--queries-log2 must lie in 5..=26");
    assert!(rounds >= 1, "--rounds must be at least 1");
    let keys = gen_sorted_unique_keys(1 << keys_log2, 1);
    let mut gen = KeyGen::new(2, KeyDistribution::Uniform);
    let queries: Vec<u32> = (0..1usize << queries_log2).map(|_| gen.next_key()).collect();

    let server = IndexServer::build(&keys, ServeConfig::new(1));
    let h = server.handle();
    let n = keys.len();
    let main = Arc::new(LineDirectory::new(SharedKeys::owned(keys), 0..n, 0, 0.0));
    let snap = ShardSnapshot::new(0, 0, Some(main), &[], &[]);

    let mut stages = stages(&snap, &h);
    // One untimed pass of each stage warms the caches, the pools and the
    // scratch.
    let expect = (stages[0].1)(&queries);
    for (name, run) in &mut stages[1..] {
        assert_eq!(run(&queries), expect, "{name} read different ranks from the bare kernel");
    }
    let mut samples = vec![Vec::with_capacity(rounds); stages.len()];
    for _ in 0..rounds {
        for (i, (name, run)) in stages.iter_mut().enumerate() {
            let t0 = Instant::now();
            let sum = black_box(run(black_box(&queries)));
            let ns = t0.elapsed().as_nanos() as f64 / queries.len() as f64;
            assert_eq!(sum, expect, "{name} read different ranks from the bare kernel");
            samples[i].push(ns);
        }
    }

    println!(
        "lookup_stages: 2^{keys_log2} keys, 2^{queries_log2} uniform queries, {rounds} rounds \
         (ns/key: median, min–max)"
    );
    let bare = median(&mut samples[0].clone());
    for ((name, _), xs) in stages.iter().zip(&mut samples) {
        let med = median(xs);
        let (lo, hi) = (xs[0], xs[xs.len() - 1]);
        println!("  {name:<22} {med:>7.1}   {lo:>6.1}–{hi:<6.1}  ×{:.2}", med / bare);
    }
    if smoke {
        // Four stages go through the server, each once a round and once
        // to warm up.
        let stats = server.stats();
        assert_eq!(stats.served, (queries.len() * 4 * (rounds + 1)) as u64, "a lookup lost");
        assert_eq!(stats.claimed, stats.served, "one caller wins every claim");
        println!("lookup_stages smoke ✓");
    }
}
