//! Lightweight latency/size histograms for simulator accounting.
//!
//! The paper reports throughput (total search time) and argues about
//! *response time* qualitatively ("Method C is capable of simultaneously
//! satisfying severe constraints in both throughput and response time").
//! To make response time a first-class measured quantity we accumulate
//! per-query and per-message latencies into a log-spaced histogram —
//! fixed memory, O(1) insert, quantile queries good to one bin width —
//! rather than storing 8 M samples.

/// Number of log2 bins: covers [1 ns, ~18 s) with 32 sub-bins per
/// octave — adjacent reportable values are 2.2 % apart (8.5 KiB of
/// counters per histogram), fine enough to read a 19 µs median off.
const OCTAVES: usize = 34;
const SUBBINS: usize = 32;
const NBINS: usize = OCTAVES * SUBBINS;

/// A log2-spaced histogram of non-negative `f64` samples (nanoseconds by
/// convention, but unit-agnostic).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { bins: vec![0; NBINS], count: 0, sum: 0.0, min: f64::INFINITY, max: 0.0 }
    }

    #[inline]
    fn bin_of(v: f64) -> usize {
        if v < 1.0 {
            return 0;
        }
        // log2(v) * SUBBINS, clamped into range.
        let b = (v.log2() * SUBBINS as f64) as usize;
        b.min(NBINS - 1)
    }

    /// Lower edge of bin `i` (value such that `bin_of(edge) == i`).
    fn bin_lo(i: usize) -> f64 {
        (2.0f64).powf(i as f64 / SUBBINS as f64)
    }

    /// Record one sample. Negative samples are clamped to zero (they can
    /// only arise from floating-point cancellation in callers).
    #[inline]
    pub fn record(&mut self, v: f64) {
        let v = v.max(0.0);
        self.bins[Self::bin_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bin sample counts (length [`LogHistogram::nbins`]) — with
    /// [`sum`](Self::sum), [`min`](Self::min) and [`max`](Self::max),
    /// everything [`LogHistogram::from_parts`] rebuilds the histogram
    /// from.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Approximate quantile `q ∈ [0, 1]`: the lower edge of the bin
    /// containing the q-th sample. Accurate to one bin (≈ 2.2 % width).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { self.min.min(1.0) } else { Self::bin_lo(i) };
            }
        }
        self.max
    }

    /// Median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Number of bins in every `LogHistogram` — the size an external
    /// accumulator (e.g. `dini-obs`'s lock-free atomic histogram) must
    /// allocate to mirror the bin layout for [`LogHistogram::from_parts`].
    pub const fn nbins() -> usize {
        NBINS
    }

    /// The bin a sample falls into — exposed so external accumulators
    /// bin identically to [`LogHistogram::record`].
    pub fn bin_index(v: f64) -> usize {
        Self::bin_of(v.max(0.0))
    }

    /// Reassemble a histogram from externally accumulated parts: per-bin
    /// counts (length [`LogHistogram::nbins`], binned by
    /// [`LogHistogram::bin_index`]) plus the accumulator's exact
    /// `sum`/`min`/`max` tallies. The sample count is derived from the
    /// bins; an all-zero accumulator yields an empty histogram.
    ///
    /// This is the merge point for lock-free metrics: atomics are folded
    /// into a plain `LogHistogram` only at snapshot time, so quantile
    /// queries and [`LogHistogram::merge`] keep working unchanged.
    pub fn from_parts(bins: &[u64], sum: f64, min: f64, max: f64) -> Self {
        assert_eq!(bins.len(), NBINS, "from_parts: bin layout mismatch");
        let count: u64 = bins.iter().sum();
        if count == 0 {
            return Self::new();
        }
        Self { bins: bins.to_vec(), count, sum, min, max }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.median(), 0.0);
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = LogHistogram::new();
        for v in [10.0, 20.0, 30.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-12);
        assert_eq!(h.min(), 10.0);
        assert_eq!(h.max(), 30.0);
    }

    #[test]
    fn quantile_within_bin_width() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        // True median 5000; a log2/32 bin is ~2.2 % wide, and a quantile
        // reads its bin's lower edge.
        let med = h.median();
        assert!(med > 5000.0 * 0.975 && med <= 5000.0, "median {med}");
        let p99 = h.p99();
        assert!(p99 > 9900.0 * 0.975 && p99 <= 9900.0, "p99 {p99}");
    }

    #[test]
    fn negative_samples_clamped() {
        let mut h = LogHistogram::new();
        h.record(-1e-9);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn extreme_values_stay_in_range() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(1e300);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 1e300);
        // p100 falls into the clamped top bin; must not panic.
        let _ = h.quantile(1.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(5.0);
        b.record(500.0);
        b.record(50.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 5.0);
        assert_eq!(a.max(), 500.0);
        assert!((a.mean() - 185.0).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_keeps_extremes() {
        let mut a = LogHistogram::new();
        a.record(7.0);
        a.merge(&LogHistogram::new());
        assert_eq!(a.min(), 7.0);
        assert_eq!(a.max(), 7.0);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        let _ = LogHistogram::new().quantile(1.5);
    }

    #[test]
    fn from_parts_round_trips_record() {
        // An external accumulator using bin_index + exact tallies must
        // reconstruct the same histogram record() would have built.
        let mut direct = LogHistogram::new();
        let mut bins = vec![0u64; LogHistogram::nbins()];
        let (mut sum, mut min, mut max) = (0.0f64, f64::INFINITY, 0.0f64);
        for v in [3.0, 47.0, 1_000.0, 1_000_000.0, 0.0] {
            direct.record(v);
            bins[LogHistogram::bin_index(v)] += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        let rebuilt = LogHistogram::from_parts(&bins, sum, min, max);
        assert_eq!(rebuilt, direct);
        assert_eq!(rebuilt.count(), 5);
        assert_eq!(rebuilt.median(), direct.median());
    }

    #[test]
    fn from_parts_empty_is_empty() {
        let h =
            LogHistogram::from_parts(&vec![0u64; LogHistogram::nbins()], 0.0, f64::INFINITY, 0.0);
        assert_eq!(h, LogHistogram::new());
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bin layout mismatch")]
    fn from_parts_rejects_wrong_layout() {
        let _ = LogHistogram::from_parts(&[0u64; 3], 0.0, f64::INFINITY, 0.0);
    }
}
