//! Cross-crate correctness: all five methods — plus the native
//! thread-backed index and the raw structures — compute the same rank
//! function on shared workloads.

use dini::core::{run_method, ExperimentSetup, MethodId};
use dini::index::traits::oracle_rank;
use dini::workload::{gen_search_keys, gen_sorted_unique_keys, KeyDistribution, KeyGen};
use dini::{DistributedIndex, NativeConfig};

fn setup(n_index: usize, batch: usize) -> ExperimentSetup {
    ExperimentSetup { n_index_keys: n_index, batch_bytes: batch, ..ExperimentSetup::paper() }
}

#[test]
fn five_methods_agree_across_seeds() {
    for seed in [1u64, 2, 3] {
        let s = setup(40_000, 16 * 1024);
        let idx = gen_sorted_unique_keys(s.n_index_keys, seed);
        let q = gen_search_keys(15_000, seed + 100);
        let want: u64 = q.iter().map(|&k| oracle_rank(&idx, k) as u64).sum();
        for m in MethodId::ALL {
            let stats = run_method(m, &s, &idx, &q);
            assert_eq!(stats.rank_checksum, want, "{m} seed {seed}");
        }
    }
}

#[test]
fn methods_agree_on_skewed_queries() {
    // The paper assumes uniform keys; correctness must not depend on it.
    let s = setup(30_000, 8 * 1024);
    let idx = gen_sorted_unique_keys(s.n_index_keys, 7);
    for dist in [
        KeyDistribution::Zipf { n_buckets: 256, s: 1.0 },
        KeyDistribution::Clustered { lo: 1 << 20, hi: 1 << 24 },
    ] {
        let q = KeyGen::new(99, dist).take(10_000);
        let want: u64 = q.iter().map(|&k| oracle_rank(&idx, k) as u64).sum();
        for m in MethodId::ALL {
            let stats = run_method(m, &s, &idx, &q);
            assert_eq!(stats.rank_checksum, want, "{m} under {dist:?}");
        }
    }
}

#[test]
fn native_backend_agrees_with_simulated_methods() {
    let s = setup(50_000, 16 * 1024);
    let idx = gen_sorted_unique_keys(s.n_index_keys, 11);
    let q = gen_search_keys(20_000, 12);

    let sim = run_method(MethodId::C3, &s, &idx, &q);

    let cfg = NativeConfig { n_slaves: s.n_slaves, pin_cores: false, ..NativeConfig::new(1) };
    let mut native = DistributedIndex::build(&idx, cfg);
    let ranks = native.lookup_batch(&q);
    let native_sum: u64 = ranks.iter().map(|&r| r as u64).sum();

    assert_eq!(sim.rank_checksum, native_sum);
}

#[test]
fn extreme_key_values_route_correctly() {
    let s = setup(10_000, 8 * 1024);
    let idx = gen_sorted_unique_keys(s.n_index_keys, 21);
    let q = vec![0u32, 1, idx[0], *idx.last().unwrap(), u32::MAX, u32::MAX - 1];
    let want: u64 = q.iter().map(|&k| oracle_rank(&idx, k) as u64).sum();
    for m in MethodId::ALL {
        let stats = run_method(m, &s, &idx, &q);
        assert_eq!(stats.rank_checksum, want, "{m}");
    }
}

#[test]
fn duplicate_queries_count_independently() {
    let s = setup(5_000, 8 * 1024);
    let idx = gen_sorted_unique_keys(s.n_index_keys, 31);
    let q = vec![idx[100]; 2_000];
    let want = (oracle_rank(&idx, idx[100]) as u64) * 2_000;
    for m in MethodId::ALL {
        assert_eq!(run_method(m, &s, &idx, &q).rank_checksum, want, "{m}");
    }
}

#[test]
fn agreement_holds_for_odd_cluster_shapes() {
    // 3, 7, 13 slaves; 2 masters; partitions of uneven size.
    let idx = gen_sorted_unique_keys(29_001, 41);
    let q = gen_search_keys(9_999, 42);
    let want: u64 = q.iter().map(|&k| oracle_rank(&idx, k) as u64).sum();
    for n_slaves in [3usize, 7, 13] {
        for n_masters in [1usize, 2] {
            let s = ExperimentSetup {
                n_index_keys: idx.len(),
                n_slaves,
                n_masters,
                batch_bytes: 8 * 1024,
                ..ExperimentSetup::paper()
            };
            for m in [MethodId::C1, MethodId::C2, MethodId::C3] {
                let stats = run_method(m, &s, &idx, &q);
                assert_eq!(stats.rank_checksum, want, "{m} {n_masters}m/{n_slaves}s");
            }
        }
    }
}
