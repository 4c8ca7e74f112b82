//! Criterion microbenchmarks of the index substrates running *natively*
//! (NullMemory, real wall-clock): sorted-array binary search, the
//! cache-line directory (single walks and lockstep groups), CSB+ tree
//! descent, pointer n-ary tree (the CSB+ ablation baseline), and the
//! Zhou–Ross buffered batch lookup.
//!
//! These measure the structures themselves on the host CPU — the modern
//! counterpart of the paper's per-structure cost measurements — while the
//! figure/table binaries measure simulated Pentium III time.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use dini_cache_sim::{AddressSpace, NullMemory};
use dini_index::{
    BufferedLookup, CsbTree, DeltaArray, HashIndex, LineDirectory, PtrNaryTree, RankIndex,
    SharedKeys, SortedArray,
};
use dini_workload::{gen_search_keys, gen_sorted_unique_keys};
use std::hint::black_box;

const N_KEYS: usize = 327_680; // the paper's index size
const N_QUERIES: usize = 8_192;

fn inputs() -> (Vec<u32>, Vec<u32>) {
    (gen_sorted_unique_keys(N_KEYS, 0xDEC0DE), gen_search_keys(N_QUERIES, 0xFACADE))
}

fn bench_single_lookup(c: &mut Criterion) {
    let (keys, queries) = inputs();
    let arr = SortedArray::new(keys.clone(), 4096, 0.0);
    let csb = CsbTree::with_leaf_entries(&keys, 7, 4, 32, 1 << 20, 0.0);
    let ptr = PtrNaryTree::new(&keys, 32, 1 << 24, 0.0);
    let dir = LineDirectory::new(arr.shared_keys().clone(), 0..keys.len(), 0, 0.0);

    let mut g = c.benchmark_group("single_lookup");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("line_directory", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &queries {
                acc = acc.wrapping_add(dir.rank(black_box(q), &mut NullMemory).0 as u64);
            }
            acc
        })
    });
    g.bench_function("sorted_array", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &queries {
                acc = acc.wrapping_add(arr.rank(black_box(q), &mut NullMemory).0 as u64);
            }
            acc
        })
    });
    g.bench_function("csb_tree", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &queries {
                acc = acc.wrapping_add(csb.rank(black_box(q), &mut NullMemory).0 as u64);
            }
            acc
        })
    });
    g.bench_function("ptr_nary_tree", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &queries {
                acc = acc.wrapping_add(ptr.rank(black_box(q), &mut NullMemory).0 as u64);
            }
            acc
        })
    });
    g.bench_function("std_partition_point", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &queries {
                acc = acc.wrapping_add(keys.partition_point(|&k| k <= black_box(q)) as u64);
            }
            acc
        })
    });
    g.finish();
}

fn bench_extended_structures(c: &mut Criterion) {
    let (keys, queries) = inputs();
    // Present-key workload: hash indices can only answer these.
    let present: Vec<u32> =
        (0..N_QUERIES).map(|i| keys[i.wrapping_mul(2_654_435_761) % keys.len()]).collect();
    let hash = HashIndex::new(&keys, 1 << 30, 0.0);
    let arr = SortedArray::new(keys.clone(), 4096, 0.0);
    let delta = {
        let mut d = DeltaArray::new(keys.clone(), 1 << 20, 0.0, 4096);
        // A realistic half-full delta so the three-way rank is exercised.
        for i in 0..2048u32 {
            d.insert(i.wrapping_mul(2_654_435_761) | 1, &mut NullMemory);
        }
        d
    };

    let mut g = c.benchmark_group("extended_structures");
    g.throughput(Throughput::Elements(present.len() as u64));
    g.bench_function("hash_exact_match", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &present {
                acc =
                    acc.wrapping_add(hash.get(black_box(q), &mut NullMemory).0.unwrap_or(0) as u64);
            }
            acc
        })
    });
    g.bench_function("sorted_array_present_keys", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &present {
                acc = acc.wrapping_add(arr.rank(black_box(q), &mut NullMemory).0 as u64);
            }
            acc
        })
    });
    g.bench_function("delta_array_rank", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &q in &queries {
                acc = acc.wrapping_add(delta.rank(black_box(q), &mut NullMemory).0 as u64);
            }
            acc
        })
    });
    g.finish();
}

fn bench_batched_lookup(c: &mut Criterion) {
    let (keys, queries) = inputs();
    let csb = CsbTree::with_leaf_entries(&keys, 7, 4, 32, 1 << 20, 0.0);

    let dir = LineDirectory::new(SharedKeys::owned(keys.clone()), 0..keys.len(), 0, 0.0);

    let mut g = c.benchmark_group("batched_lookup");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("line_directory", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            dir.rank_batch(black_box(&queries), &mut out, &mut NullMemory);
            out.last().copied()
        })
    });
    for cache_kb in [16u64, 512] {
        g.bench_with_input(
            BenchmarkId::new("buffered", format!("{cache_kb}KB_target")),
            &cache_kb,
            |b, &kb| {
                let mut space = AddressSpace::new();
                let mut bl =
                    BufferedLookup::for_cache(&csb, kb * 1024, 0.5, &mut space, queries.len());
                let mut out = Vec::new();
                b.iter(|| {
                    bl.rank_batch(&csb, black_box(&queries), &mut out, &mut NullMemory);
                    out.last().copied()
                })
            },
        );
    }
    g.finish();
}

fn bench_build(c: &mut Criterion) {
    let (keys, _) = inputs();
    let mut g = c.benchmark_group("build");
    g.throughput(Throughput::Elements(keys.len() as u64));
    g.bench_function("csb_tree", |b| {
        b.iter_batched(
            || keys.clone(),
            |k| CsbTree::with_leaf_entries(&k, 7, 4, 32, 0, 0.0),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("sorted_array", |b| {
        b.iter_batched(|| keys.clone(), |k| SortedArray::new(k, 0, 0.0), BatchSize::LargeInput)
    });
    g.bench_function("line_directory", |b| {
        b.iter_batched(
            || SharedKeys::owned(keys.clone()),
            |k| LineDirectory::new(k, 0..N_KEYS, 0, 0.0),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_single_lookup,
    bench_batched_lookup,
    bench_build,
    bench_extended_structures
);
criterion_main!(benches);
