//! Host measurements.
//!
//! Methodology mirrors the paper's: "the measured random memory bandwidth
//! for a series of 4-byte word accesses at random locations" vs "the
//! sequential memory bandwidth (accessing words in sequence)". Random
//! access is implemented as a dependent pointer chase (each load's address
//! depends on the previous load), which defeats prefetching and reorder
//! buffers the same way the paper's random walk defeated the Pentium III's.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Measured host parameters (the present-day column of Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostParams {
    /// Sequential read bandwidth, MB/s (paper: 647).
    pub seq_bw_mb_s: f64,
    /// Random 8-byte dependent-load bandwidth, MB/s (paper: 48).
    pub rand_bw_mb_s: f64,
    /// Approximate out-of-cache load-to-use latency, ns (paper B2: 110).
    pub miss_penalty_ns: f64,
    /// Approximate in-cache (small working set) load-to-use latency, ns.
    pub hit_latency_ns: f64,
    /// Cost of searching one 7-key node, ns (paper: 30).
    pub comp_cost_node_ns: f64,
}

impl HostParams {
    /// Ratio of sequential to random bandwidth — the asymmetry the paper
    /// exploits (13.5× on its cluster).
    pub fn seq_rand_ratio(&self) -> f64 {
        self.seq_bw_mb_s / self.rand_bw_mb_s
    }
}

/// Sequential read bandwidth over a buffer of `bytes`.
pub fn measure_seq_bandwidth(bytes: usize) -> f64 {
    let words = bytes / 8;
    let buf: Vec<u64> = (0..words as u64).collect();
    // Warm once.
    let mut acc = 0u64;
    for &w in &buf {
        acc = acc.wrapping_add(w);
    }
    let reps = 4;
    // lint: wall-clock-ok: hardware microbenchmark; real elapsed time is the measurement.
    let t = Instant::now();
    for _ in 0..reps {
        let mut a = 0u64;
        for &w in &buf {
            a = a.wrapping_add(w);
        }
        acc = acc.wrapping_add(a);
    }
    let dt = t.elapsed().as_secs_f64();
    black_box(acc);
    (reps * bytes) as f64 / dt / 1e6
}

/// Build a random Hamiltonian cycle over `n` slots for pointer chasing.
fn chase_cycle(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (1..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut next = vec![0usize; n];
    let mut cur = 0usize;
    for &s in &order {
        next[cur] = s;
        cur = s;
    }
    next[cur] = 0;
    next
}

/// Dependent-load latency over a working set of `bytes`; returns
/// (ns per load, MB/s effective for 8-byte loads).
pub fn measure_chase(bytes: usize, loads: usize) -> (f64, f64) {
    let n = (bytes / 64).max(16); // one slot per cache line
                                  // Slots are 64-byte spaced: store indices in a padded array.
    let next = chase_cycle(n, 0xC0FFEE);
    let mut padded = vec![0usize; n * 8]; // 8 usize = 64 bytes per slot
    for i in 0..n {
        padded[i * 8] = next[i] * 8;
    }
    // Warm.
    let mut p = 0usize;
    for _ in 0..n {
        p = padded[p];
    }
    // lint: wall-clock-ok: hardware microbenchmark; real elapsed time is the measurement.
    let t = Instant::now();
    for _ in 0..loads {
        p = padded[p];
    }
    let dt = t.elapsed().as_secs_f64();
    black_box(p);
    let ns = dt * 1e9 / loads as f64;
    let mb_s = (loads * 8) as f64 / dt / 1e6;
    (ns, mb_s)
}

/// Cost of one 7-key in-node linear search, ns (the paper's
/// `Comp Cost Node`).
pub fn measure_comp_cost_node() -> f64 {
    let node = [10u32, 20, 30, 40, 50, 60, 70];
    let reps = 2_000_000u32;
    // lint: wall-clock-ok: hardware microbenchmark; real elapsed time is the measurement.
    let t = Instant::now();
    let mut acc = 0u32;
    for i in 0..reps {
        let key = (i.wrapping_mul(2_654_435_761)) % 80;
        acc = acc.wrapping_add(black_box(&node).partition_point(|&s| s <= key) as u32);
    }
    let dt = t.elapsed().as_secs_f64();
    black_box(acc);
    dt * 1e9 / reps as f64
}

/// One point of a latency-vs-working-set curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Working-set size in bytes.
    pub bytes: u64,
    /// Dependent-load latency at that size, ns.
    pub ns_per_load: f64,
}

/// Chase-latency curve over power-of-two working sets in
/// `[min_bytes, max_bytes]` — the classic cache-size staircase.
pub fn measure_latency_curve(
    min_bytes: usize,
    max_bytes: usize,
    loads: usize,
) -> Vec<LatencyPoint> {
    let mut out = Vec::new();
    let mut size = min_bytes.next_power_of_two();
    while size <= max_bytes {
        let (ns, _) = measure_chase(size, loads);
        out.push(LatencyPoint { bytes: size as u64, ns_per_load: ns });
        size *= 2;
    }
    out
}

/// Detect capacity knees in a latency curve: working-set sizes where the
/// per-load latency jumps by more than `factor` over the running minimum
/// of the plateau before it. Each knee approximates one cache level's
/// capacity (the *previous* size — the last one that still fit).
///
/// Pure function so it is testable without timing noise.
pub fn detect_knees(curve: &[LatencyPoint], factor: f64) -> Vec<u64> {
    assert!(factor > 1.0, "a knee must be a rise");
    let mut knees = Vec::new();
    let mut plateau_min = f64::INFINITY;
    for w in curve.windows(2) {
        plateau_min = plateau_min.min(w[0].ns_per_load);
        if w[1].ns_per_load > plateau_min * factor {
            knees.push(w[0].bytes);
            plateau_min = w[1].ns_per_load; // start the next plateau
        }
    }
    knees
}

/// Run every probe with sizes scaled to the host. `big_bytes` should
/// exceed the last-level cache (default experiment binaries use 256 MB).
pub fn measure_all(big_bytes: usize) -> HostParams {
    let seq = measure_seq_bandwidth(big_bytes.min(64 << 20));
    let (miss_ns, rand_bw) = measure_chase(big_bytes, 2_000_000);
    let (hit_ns, _) = measure_chase(8 * 1024, 2_000_000);
    HostParams {
        seq_bw_mb_s: seq,
        rand_bw_mb_s: rand_bw,
        miss_penalty_ns: miss_ns,
        hit_latency_ns: hit_ns,
        comp_cost_node_ns: measure_comp_cost_node(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_cycle_is_hamiltonian() {
        let n = 257;
        let next = chase_cycle(n, 42);
        let mut seen = vec![false; n];
        let mut p = 0;
        for _ in 0..n {
            assert!(!seen[p], "revisited slot {p} early");
            seen[p] = true;
            p = next[p];
        }
        assert_eq!(p, 0, "must return to start after n hops");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sequential_beats_random_on_large_sets() {
        // The paper's core asymmetry must hold on any real machine: a
        // cache-defeating dependent chase is slower per byte than a
        // sequential scan. Small sizes keep CI fast.
        let seq = measure_seq_bandwidth(16 << 20);
        let (_, rand_bw) = measure_chase(64 << 20, 300_000);
        assert!(
            seq > 2.0 * rand_bw,
            "sequential {seq:.0} MB/s should far exceed random {rand_bw:.0} MB/s"
        );
    }

    #[test]
    fn small_working_set_is_faster_than_large() {
        let (hit, _) = measure_chase(8 * 1024, 300_000);
        let (miss, _) = measure_chase(64 << 20, 300_000);
        assert!(miss > 2.0 * hit, "out-of-cache chase {miss:.1} ns vs in-cache {hit:.1} ns");
    }

    #[test]
    fn comp_cost_is_nanoseconds_scale() {
        let c = measure_comp_cost_node();
        assert!(c > 0.1 && c < 1000.0, "comp cost {c} ns");
    }

    fn curve_of(points: &[(u64, f64)]) -> Vec<LatencyPoint> {
        points.iter().map(|&(bytes, ns)| LatencyPoint { bytes, ns_per_load: ns }).collect()
    }

    #[test]
    fn knees_found_on_synthetic_staircase() {
        // A textbook 32 KB L1 / 1 MB L2 / 8 MB L3 staircase.
        let curve = curve_of(&[
            (16 << 10, 1.0),
            (32 << 10, 1.1),
            (64 << 10, 4.0), // L1 knee at 32 KB
            (256 << 10, 4.2),
            (1 << 20, 4.1),
            (2 << 20, 14.0), // L2 knee at 1 MB
            (4 << 20, 14.5),
            (8 << 20, 15.0),
            (16 << 20, 80.0), // L3 knee at 8 MB
            (32 << 20, 85.0),
        ]);
        assert_eq!(detect_knees(&curve, 1.8), vec![32 << 10, 1 << 20, 8 << 20]);
    }

    #[test]
    fn flat_curve_has_no_knees() {
        let curve = curve_of(&[(1 << 10, 2.0), (2 << 10, 2.1), (4 << 10, 1.9), (8 << 10, 2.05)]);
        assert!(detect_knees(&curve, 1.5).is_empty());
    }

    #[test]
    fn gradual_rise_below_factor_is_not_a_knee() {
        let curve = curve_of(&[(1 << 10, 2.0), (2 << 10, 2.5), (4 << 10, 3.1), (8 << 10, 3.8)]);
        assert!(detect_knees(&curve, 2.0).is_empty(), "compounding gentle rises must not trip");
    }

    #[test]
    fn real_curve_shows_at_least_one_capacity_knee() {
        // On any real machine, 4 KB chases are much faster than 64 MB ones.
        let curve = measure_latency_curve(4 << 10, 64 << 20, 200_000);
        let knees = detect_knees(&curve, 2.0);
        assert!(!knees.is_empty(), "no cache knee found in {curve:?}");
    }

    #[test]
    #[should_panic(expected = "rise")]
    fn knee_factor_must_exceed_one() {
        detect_knees(&[], 0.9);
    }
}
