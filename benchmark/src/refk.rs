//! The reference kernels: the yardstick host speed is measured with.
//!
//! Two single-thread `partition_point` loops owned by the benchmark, fed
//! from the workload's query stream, never calling into the repo's
//! crates — so no change to the repo can move them; what moves them is
//! the host. They differ in what they are sensitive to:
//!
//! * `mem` searches the benchmark's own copy of the workload's sorted
//!   keys (16–64 MiB): every probe past the first few levels misses the
//!   core's caches, so it tracks memory latency — the thing a noisy
//!   neighbour changes by 30 % within a minute on a shared host.
//! * `cpu` searches a 16 Ki-key sample of the same keys (64 KiB, cache
//!   resident): it tracks core speed.
//!
//! A measurement's host speed is `(mem / nominal)^a · (cpu / nominal)^b`
//! with constant exponents per workload: how strongly that workload's
//! rate follows each kernel, fitted once on the naming host (README,
//! "Noise method").

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How many ranks run between clock reads.
const CHUNK: usize = 1024;
/// Keys in the cache-resident kernel.
const CPU_KEYS: usize = 1 << 14;
/// Nominal `cpu` rate on the naming host, ranks per second.
pub const CPU_NOMINAL: f64 = 4.4e7;

/// One adjacent measurement of both kernels, ranks per second.
#[derive(Debug, Clone, Copy)]
pub struct RefSample {
    /// Memory-latency-bound kernel.
    pub mem: f64,
    /// Cache-resident kernel.
    pub cpu: f64,
}

/// Which blend of the two kernels calibrates a measurement.
#[derive(Debug, Clone, Copy)]
pub struct Blend {
    /// How strongly the measured rate follows the `mem` kernel.
    pub mem_exp: f64,
    /// How strongly it follows the `cpu` kernel.
    pub cpu_exp: f64,
    /// Nominal `mem` rate for this key count on the naming host.
    pub mem_nominal: f64,
}

impl Blend {
    /// Host speed relative to the naming host (1.0 = nominal).
    pub fn speed(&self, s: RefSample) -> f64 {
        (s.mem / self.mem_nominal).powf(self.mem_exp) * (s.cpu / CPU_NOMINAL).powf(self.cpu_exp)
    }
}

struct Kernel {
    keys: Vec<u32>,
    cursor: usize,
    rates: Vec<f64>,
}

impl Kernel {
    fn run(&mut self, queries: &[u32], dur: Duration) -> f64 {
        let start = Instant::now();
        let mut done = 0u64;
        let mut sink = 0u32;
        loop {
            if self.cursor + CHUNK > queries.len() {
                self.cursor = 0;
            }
            for &q in &queries[self.cursor..self.cursor + CHUNK] {
                sink = sink.wrapping_add(self.keys.partition_point(|&k| k <= q) as u32);
            }
            self.cursor += CHUNK;
            done += CHUNK as u64;
            if start.elapsed() >= dur {
                break;
            }
        }
        black_box(sink);
        let rate = done as f64 / start.elapsed().as_secs_f64();
        self.rates.push(rate);
        rate
    }
}

/// Both kernels and their private data.
pub struct Reference {
    mem: Kernel,
    cpu: Kernel,
    queries: Vec<u32>,
}

impl Reference {
    /// Copy `sorted_keys` and `queries`: the kernels must not share cache
    /// lines or pages with the program they calibrate.
    pub fn new(sorted_keys: &[u32], queries: &[u32]) -> Self {
        assert!(!sorted_keys.is_empty() && queries.len() >= CHUNK);
        let stride = (sorted_keys.len() / CPU_KEYS).max(1);
        Self {
            mem: Kernel { keys: sorted_keys.to_vec(), cursor: 0, rates: Vec::new() },
            cpu: Kernel {
                keys: sorted_keys.iter().step_by(stride).copied().collect(),
                cursor: 0,
                rates: Vec::new(),
            },
            queries: queries.to_vec(),
        }
    }

    /// Run each kernel for half of `dur` on the calling thread.
    fn sample(&mut self, dur: Duration) -> RefSample {
        let mem = self.mem.run(&self.queries, dur / 2);
        let cpu = self.cpu.run(&self.queries, dur / 2);
        RefSample { mem, cpu }
    }

    /// One reference slice of `dur`; returns the sample and, under
    /// `blend`, the host speed it stands for.
    pub fn measure(&mut self, dur: Duration, blend: Blend) -> (RefSample, f64) {
        let s = self.sample(dur);
        (s, blend.speed(s))
    }

    /// Median `mem` rate over every sample so far.
    pub fn mem_median(&self) -> f64 {
        median(&self.mem.rates)
    }

    /// Median `cpu` rate over every sample so far.
    pub fn cpu_median(&self) -> f64 {
        median(&self.cpu.rates)
    }

    /// Widest relative departure of any `mem` slice from the median: how
    /// much the host moved during the run.
    pub fn drift(&self) -> f64 {
        let m = self.mem_median();
        self.mem.rates.iter().map(|r| (r / m - 1.0).abs()).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_reports_positive_rates_and_their_drift() {
        let keys: Vec<u32> = (0..100_000).map(|i| i * 3).collect();
        let queries: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let mut r = Reference::new(&keys, &queries);
        assert!(r.cpu.keys.len() >= CPU_KEYS && r.cpu.keys.len() < 2 * CPU_KEYS);
        for _ in 0..3 {
            let s = r.sample(Duration::from_millis(4));
            assert!(s.mem > 0.0 && s.cpu > 0.0);
        }
        assert!(r.mem_median() > 0.0 && r.cpu_median() > 0.0 && r.drift() >= 0.0);
    }

    #[test]
    fn blend_is_one_at_nominal_and_scales_by_share() {
        let b = Blend { mem_exp: 0.25, cpu_exp: 0.75, mem_nominal: 4.0e6 };
        assert!((b.speed(RefSample { mem: 4.0e6, cpu: CPU_NOMINAL }) - 1.0).abs() < 1e-12);
        // Memory twice as fast, core unchanged: 2^0.25.
        let s = b.speed(RefSample { mem: 8.0e6, cpu: CPU_NOMINAL });
        assert!((s - 2f64.powf(0.25)).abs() < 1e-12);
        // Exponents that sum to 1 make a uniformly half-speed host half speed.
        let s = b.speed(RefSample { mem: 2.0e6, cpu: CPU_NOMINAL / 2.0 });
        assert!((s - 0.5).abs() < 1e-12);
        // Exponents are independent: a measurement may follow `cpu` weakly.
        let weak = Blend { mem_exp: 0.0, cpu_exp: 0.5, mem_nominal: 4.0e6 };
        let s = weak.speed(RefSample { mem: 1.0, cpu: CPU_NOMINAL / 4.0 });
        assert!((s - 0.5).abs() < 1e-12);
    }
}
