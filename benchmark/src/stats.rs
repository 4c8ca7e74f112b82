//! Robust statistics over exact samples. No end-to-end metric is a
//! mean, a maximum or a histogram bin: everything reported is an order
//! statistic of samples the benchmark kept itself.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, which the result checker rejects.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` (exclusive
/// method) computes them — the driver judges spread with that function,
/// so `compare` and the self-agreement table use the same one.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let at = |i: usize| {
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile range as a share of the median.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2.abs()
}

/// The `q`-quantile (nearest rank, 0 ≤ q ≤ 1) of latency samples kept
/// exactly in nanoseconds. Sorts in place.
pub fn quantile_ns(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// The `q`-quantile of each kept window of `window` samples, then the
/// lower quartile over those windows. Samples are in time order, so a
/// window is a stretch of the run; `keep[w]` says whether window `w`
/// counts (all do when `keep` is empty) and samples equal to `skip` are
/// no samples. Interference from the host only ever adds latency, and on
/// a shared host it comes in storms that last seconds: a storm spoils the
/// windows it touches, and the lower quartile of the windows stays where
/// it was until three quarters of them are spoilt — where one quantile
/// over all samples moves with every storm. What the program itself does
/// to latency it does in every window. (The tail over all samples is
/// still reported, per layer.)
pub fn windowed_quantile_ns(
    samples: &[u32],
    window: usize,
    keep: &[bool],
    skip: u32,
    q: f64,
) -> f64 {
    let mut scratch = Vec::with_capacity(window);
    let mut per_window: Vec<f64> = samples
        .chunks(window.max(1))
        .enumerate()
        // A short last window would be a noisier estimate than the rest.
        .filter(|(w, c)| {
            (c.len() == window || samples.len() < window)
                && keep.get(*w).copied().unwrap_or(keep.is_empty())
        })
        .filter_map(|(_, c)| {
            scratch.clear();
            scratch.extend(c.iter().copied().filter(|&x| x != skip));
            (!scratch.is_empty()).then(|| quantile_ns(&mut scratch, q))
        })
        .collect();
    lower_quartile(&mut per_window)
}

/// Nearest-rank 25th percentile (`NaN` when empty). Sorts in place.
pub fn lower_quartile(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    xs[(xs.len().div_ceil(4)).max(1) - 1]
}

/// One measured slice next to its reference slice.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Operations per second the program completed in the slice.
    pub rate: f64,
    /// Host speed measured right after it, relative to the naming host
    /// (see [`Blend::speed`](crate::refk::Blend::speed)).
    pub speed: f64,
}

/// Drift division: the median over slices of `rate / speed` — operations
/// per second "at reference host speed". The first pair is discarded (it
/// carries the phase's warm-up) when there is more than one.
pub fn calibrated_rate(pairs: &[Pair]) -> f64 {
    median(&ratios(pairs))
}

/// The per-slice `rate / speed` values behind [`calibrated_rate`].
pub fn ratios(pairs: &[Pair]) -> Vec<f64> {
    let body = if pairs.len() > 1 { &pairs[1..] } else { pairs };
    body.iter().map(|p| p.rate / p.speed).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert!((rel_iqr(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_ns_is_nearest_rank() {
        let mut odd = vec![50, 10, 40, 20, 30];
        assert_eq!(quantile_ns(&mut odd, 0.5), 30.0);
        assert_eq!(quantile_ns(&mut odd, 0.9), 50.0);
        let mut even = vec![4, 1, 3, 2];
        assert_eq!(quantile_ns(&mut even, 0.5), 2.0);
        let mut one = vec![9];
        assert_eq!(quantile_ns(&mut one, 0.9), 9.0);
        assert!(quantile_ns(&mut [], 0.5).is_nan());
    }

    #[test]
    fn windowed_quantile_ignores_storms_that_spoil_half_the_windows() {
        // Five calm windows of 100 samples at 100..199 ns and five hit by
        // a storm (everything 1 ms late).
        let mut samples: Vec<u32> = Vec::new();
        for w in 0..10 {
            let extra = if w % 2 == 1 { 1_000_000 } else { 0 };
            samples.extend((0..100).map(|i| 100 + i + extra));
        }
        samples.extend([5, 6, 7]); // a short tail window is left out
        let all_windows = |s: &[u32], q: f64| windowed_quantile_ns(s, 100, &[], u32::MAX, q);
        assert_eq!(all_windows(&samples, 0.5), 149.0);
        assert_eq!(all_windows(&samples, 0.9), 189.0);
        // One quantile over everything moves with the storm.
        let mut all = samples.clone();
        assert!(quantile_ns(&mut all, 0.9) > 1_000_000.0);
        // A change in the program moves every window, and so the result.
        let slower: Vec<u32> = samples.iter().map(|x| x + 50).collect();
        assert_eq!(all_windows(&slower, 0.5), 199.0);
        // Only kept windows count: keep the stormy ones and the storm shows.
        let stormy: Vec<bool> = (0..10).map(|w| w % 2 == 1).collect();
        assert_eq!(windowed_quantile_ns(&samples, 100, &stormy, u32::MAX, 0.5), 1_000_149.0);
        // Samples equal to `skip` are no samples.
        assert_eq!(windowed_quantile_ns(&[30, u32::MAX, 10, 20], 4, &[], u32::MAX, 0.5), 20.0);
        // Fewer samples than one window: that window is used as is.
        assert_eq!(all_windows(&[30, 10, 20], 0.5), 20.0);
        assert!(all_windows(&[], 0.5).is_nan());
        assert!(windowed_quantile_ns(&samples, 100, &[false; 10], u32::MAX, 0.5).is_nan());
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        assert_eq!(lower_quartile(&mut [4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&mut [5.0, 1.0, 3.0, 2.0, 4.0]), 2.0);
        assert_eq!(lower_quartile(&mut [7.0]), 7.0);
        assert!(lower_quartile(&mut []).is_nan());
    }

    #[test]
    fn drift_division_cancels_host_speed() {
        // The same program on a host that runs at 1.0×, 0.8× and 1.25×
        // speed from slice to slice: raw rates move ±25 %, the
        // calibrated rate does not. The first (warm-up) pair is dropped.
        let speeds = [9.0, 1.0, 0.8, 1.25, 1.0];
        let pairs: Vec<Pair> =
            speeds.iter().map(|s| Pair { rate: 1000.0 * s, speed: *s }).collect();
        assert!((calibrated_rate(&pairs) - 1000.0).abs() < 1e-9);
        assert_eq!(ratios(&pairs).len(), 4);
        // One pair is used as is.
        assert!((calibrated_rate(&pairs[..1]) - 1000.0).abs() < 1e-9);
    }
}
