//! Key distributions.
//!
//! The paper assumes uniformly distributed keys ("We assume uniformly
//! distributed search key values"). The skewed distributions here drive
//! the serving layer's load generators and tests: skew concentrates load
//! on one shard and erodes Method C's balance assumption.

use rand::Rng;

/// How search keys are drawn from the `u32` space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over all of `u32` (the paper's workload).
    Uniform,
    /// Zipf over `n_buckets` equal-width buckets with exponent `s`;
    /// bucket ranks are shuffled deterministically so popularity is not
    /// correlated with key order.
    Zipf {
        /// Number of equal-width key-space buckets.
        n_buckets: u32,
        /// Zipf exponent (1.0 = classic).
        s: f64,
    },
    /// All keys fall inside `[lo, hi)` — a hotspot hammering one partition.
    Clustered {
        /// Inclusive lower bound of the hotspot.
        lo: u32,
        /// Exclusive upper bound of the hotspot.
        hi: u32,
    },
}

impl KeyDistribution {
    /// Draw one key.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        match *self {
            KeyDistribution::Uniform => rng.gen(),
            KeyDistribution::Zipf { n_buckets, s } => {
                let bucket = zipf_sample(rng, n_buckets, s);
                // Scramble bucket order with a fixed bijection so the hot
                // bucket is not simply the lowest key range.
                let scrambled = scramble(bucket, n_buckets);
                let width = (u32::MAX / n_buckets).max(1);
                let base = scrambled.saturating_mul(width);
                base + rng.gen_range(0..width)
            }
            KeyDistribution::Clustered { lo, hi } => {
                assert!(lo < hi, "clustered range must be non-empty");
                rng.gen_range(lo..hi)
            }
        }
    }
}

/// Draw a Zipf(s) rank in `[0, n)` by inverse-CDF over precomputed weights.
/// O(log n) via binary search on the cumulative table would need state; for
/// workload generation simplicity we use the rejection-free inversion
/// approximation of Gray et al. (the standard "quick Zipf").
fn zipf_sample<R: Rng>(rng: &mut R, n: u32, s: f64) -> u32 {
    debug_assert!(n >= 1);
    // Approximate inverse CDF: for Zipf with exponent s over ranks 1..n,
    // P(rank ≤ k) ≈ H(k)/H(n) with H the generalized harmonic number,
    // which for s ≈ 1 behaves like ln. We use the standard approximation
    // rank ≈ exp(u * ln(n^(1-s) - ...)); for robustness across s we fall
    // back to a small cumulative walk for n ≤ 1024 and the power-law
    // inversion otherwise.
    if n <= 1024 {
        // Exact inversion over a cumulative walk (cheap at this size).
        let u: f64 = rng.gen::<f64>();
        let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let target = u * h;
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            if acc >= target {
                return k - 1;
            }
        }
        n - 1
    } else {
        // Power-law inversion: valid for s > 0, s != 1 uses the closed
        // form; s == 1 uses the exponential form.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let nf = n as f64;
        let k = if (s - 1.0).abs() < 1e-9 {
            nf.powf(u) // exp(u ln n)
        } else {
            let a = 1.0 - s;
            ((u * (nf.powf(a) - 1.0)) + 1.0).powf(1.0 / a)
        };
        (k.floor() as u32).clamp(1, n) - 1
    }
}

/// A fixed bijective scramble of `[0, n)` (multiplicative hash then mod).
fn scramble(x: u32, n: u32) -> u32 {
    if n <= 1 {
        return 0;
    }
    // Not a true bijection mod arbitrary n, but collision-free enough for
    // workload shaping; determinism is what matters.
    ((x as u64).wrapping_mul(2654435761) % n as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_spreads_over_halves() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = KeyDistribution::Uniform;
        let n = 10_000;
        let low = (0..n).filter(|_| d.sample(&mut rng) < u32::MAX / 2).count();
        assert!((low as f64 / n as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn zipf_is_skewed() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = KeyDistribution::Zipf { n_buckets: 64, s: 1.0 };
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            let k = d.sample(&mut rng);
            counts[(k / (u32::MAX / 64)).min(63) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let mean = 20_000.0 / 64.0;
        assert!(max > 3.0 * mean, "zipf(1.0) hottest bucket should far exceed the mean");
    }

    #[test]
    fn clustered_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = KeyDistribution::Clustered { lo: 1000, hi: 2000 };
        for _ in 0..1000 {
            let k = d.sample(&mut rng);
            assert!((1000..2000).contains(&k));
        }
    }

    #[test]
    fn zipf_large_n_path() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = KeyDistribution::Zipf { n_buckets: 4096, s: 1.0 };
        for _ in 0..1000 {
            let _ = d.sample(&mut rng); // must not panic / go out of range
        }
    }
}
