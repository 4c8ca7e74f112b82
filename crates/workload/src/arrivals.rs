//! Arrival processes for open-loop load generation.
//!
//! A closed-loop client (issue, wait, repeat) can never overload a
//! server: its offered load collapses as latency grows. Serving-layer
//! questions — shed rates under overload, queueing-delay percentiles near
//! saturation — need an *open-loop* generator that decides arrival times
//! independently of completions. [`ArrivalGen`] produces deterministic,
//! seeded inter-arrival gaps: exponential (Poisson process, the classic
//! open-loop model) or uniform (a paced, jitter-free probe stream).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of the inter-arrival distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential gaps with the given mean. Bursty in
    /// exactly the way independent user traffic is.
    Poisson {
        /// Mean inter-arrival gap in nanoseconds.
        mean_gap_ns: f64,
    },
    /// Evenly paced arrivals with a constant gap.
    Uniform {
        /// Constant inter-arrival gap in nanoseconds.
        gap_ns: f64,
    },
}

impl ArrivalProcess {
    /// A Poisson process offering `rate_per_sec` arrivals per second.
    pub fn poisson_rate(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        ArrivalProcess::Poisson { mean_gap_ns: 1e9 / rate_per_sec }
    }

    /// A paced process offering `rate_per_sec` arrivals per second.
    pub fn uniform_rate(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        ArrivalProcess::Uniform { gap_ns: 1e9 / rate_per_sec }
    }
}

/// Deterministic generator of inter-arrival gaps.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    rng: StdRng,
    process: ArrivalProcess,
}

impl ArrivalGen {
    /// A new generator; same seed + process → same gap stream.
    pub fn new(seed: u64, process: ArrivalProcess) -> Self {
        match process {
            ArrivalProcess::Poisson { mean_gap_ns } => {
                assert!(mean_gap_ns > 0.0, "mean gap must be positive")
            }
            ArrivalProcess::Uniform { gap_ns } => {
                assert!(gap_ns > 0.0, "gap must be positive")
            }
        }
        Self { rng: StdRng::seed_from_u64(seed), process }
    }

    /// Nanoseconds until the next arrival.
    pub fn next_gap_ns(&mut self) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { mean_gap_ns } => {
                // Inverse-CDF: gap = -mean · ln(1 − u), u ∈ [0, 1).
                let u: f64 = self.rng.gen();
                -mean_gap_ns * (1.0 - u).ln()
            }
            ArrivalProcess::Uniform { gap_ns } => gap_ns,
        }
    }

    /// Generate `n` gaps.
    pub fn take(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_gap_ns()).collect()
    }

    /// Absolute time of the next arrival, given the previous arrival at
    /// `prev_ns` (integer nanoseconds on whatever clock the caller runs —
    /// wall or virtual; the generator itself never looks at a clock,
    /// which is what lets the same arrival schedule drive native load
    /// and `dini-simtest`'s virtual time identically).
    pub fn next_at_ns(&mut self, prev_ns: u64) -> u64 {
        prev_ns.saturating_add(self.next_gap_ns() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_converges() {
        let mut g = ArrivalGen::new(1, ArrivalProcess::poisson_rate(1_000_000.0));
        let n = 100_000;
        let mean = g.take(n).iter().sum::<f64>() / n as f64;
        // Rate 1M/s → mean gap 1000 ns; CLT gives ±1 % at n = 100k.
        assert!((mean - 1000.0).abs() < 30.0, "mean gap {mean}");
    }

    #[test]
    fn poisson_gaps_are_bursty() {
        let mut g = ArrivalGen::new(2, ArrivalProcess::poisson_rate(1000.0));
        let gaps = g.take(10_000);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        // Exponential gaps have coefficient of variation 1.
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn uniform_gaps_are_constant() {
        let mut g = ArrivalGen::new(3, ArrivalProcess::uniform_rate(2000.0));
        for gap in g.take(100) {
            assert_eq!(gap, 500_000.0);
        }
    }

    #[test]
    fn absolute_schedule_accumulates_gaps() {
        let mut a = ArrivalGen::new(11, ArrivalProcess::uniform_rate(1_000_000.0));
        let mut at = 0u64;
        for i in 1..=5u64 {
            at = a.next_at_ns(at);
            assert_eq!(at, i * 1000);
        }
        // Poisson schedules are strictly increasing and deterministic.
        let sched = |seed| {
            let mut g = ArrivalGen::new(seed, ArrivalProcess::poisson_rate(10_000.0));
            let mut at = 0u64;
            (0..100)
                .map(|_| {
                    at = g.next_at_ns(at);
                    at
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sched(3), sched(3));
        assert!(sched(3).windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn generator_is_deterministic() {
        let a = ArrivalGen::new(7, ArrivalProcess::poisson_rate(500.0)).take(1000);
        let b = ArrivalGen::new(7, ArrivalProcess::poisson_rate(500.0)).take(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn gaps_are_non_negative_and_finite() {
        let mut g = ArrivalGen::new(9, ArrivalProcess::poisson_rate(1e9));
        for gap in g.take(10_000) {
            assert!(gap.is_finite() && gap >= 0.0, "gap {gap}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::poisson_rate(0.0);
    }
}
