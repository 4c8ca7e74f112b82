//! Optional prefetchers (ablations).
//!
//! The Pentium III had no automatic hardware prefetcher for the L2; the
//! paper's streaming costs already assume software/sequential prefetch
//! efficiency by billing streams at W1. This module lets benchmarks ask
//! "what if the machine prefetched?" — a design-space probe for the
//! Method A curve (whose misses are random, so neither next-line nor
//! stride prefetch should help) versus Method B's buffer writes (stride-1
//! streams a stride prefetcher eats for breakfast).

/// Prefetch configuration for a [`crate::memory::SimMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefetcher {
    /// No prefetching (the paper's machine).
    None,
    /// On a memory miss for line `X`, also install line `X+1`.
    NextLine,
    /// On a memory miss, install the next `n` sequential lines.
    Stream {
        /// Number of lines fetched ahead.
        depth: u8,
    },
    /// Detect a repeated address stride and fetch `depth` lines ahead
    /// along it once confident (two consecutive confirmations). The
    /// classic reference-prediction-table design, collapsed to a single
    /// global stream (adequate for single-actor simulations).
    AdaptiveStride {
        /// Number of strides fetched ahead once confident.
        depth: u8,
    },
}

impl Prefetcher {
    /// Lines to additionally install after a miss at `addr`, for the
    /// stateless variants. The adaptive variant prefetches via
    /// [`StrideState`] instead and returns nothing here.
    pub fn lines_after_miss(&self, addr: u64, line_bytes: u64) -> impl Iterator<Item = u64> {
        let depth = match self {
            Prefetcher::None | Prefetcher::AdaptiveStride { .. } => 0u8,
            Prefetcher::NextLine => 1,
            Prefetcher::Stream { depth } => *depth,
        };
        let base = (addr / line_bytes) * line_bytes;
        (1..=depth as u64).map(move |i| base + i * line_bytes)
    }

    /// The adaptive depth, if this is the adaptive variant.
    pub fn adaptive_depth(&self) -> Option<u8> {
        match self {
            Prefetcher::AdaptiveStride { depth } => Some(*depth),
            _ => None,
        }
    }
}

/// Stride-detector state for [`Prefetcher::AdaptiveStride`].
///
/// Tracks the last observed address and the last delta; two consecutive
/// equal deltas make the stride *confident*, after which predictions are
/// emitted until the pattern breaks.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrideState {
    last_addr: Option<u64>,
    stride: i64,
    confident: bool,
}

impl StrideState {
    /// Observe one access; returns the confirmed stride (in bytes) when
    /// the detector is confident, else `None`.
    pub fn observe(&mut self, addr: u64) -> Option<i64> {
        let prev = self.last_addr.replace(addr)?;
        let delta = addr as i64 - prev as i64;
        if delta == 0 {
            // Same line re-touch: no information either way.
            return self.confident.then_some(self.stride);
        }
        if delta == self.stride {
            self.confident = true;
        } else {
            self.stride = delta;
            self.confident = false;
        }
        self.confident.then_some(self.stride)
    }

    /// Forget everything (context switch, new phase).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_prefetches_nothing() {
        assert_eq!(Prefetcher::None.lines_after_miss(100, 32).count(), 0);
    }

    #[test]
    fn next_line_prefetches_one() {
        let v: Vec<u64> = Prefetcher::NextLine.lines_after_miss(100, 32).collect();
        assert_eq!(v, vec![128]);
    }

    #[test]
    fn stream_prefetches_depth() {
        let v: Vec<u64> = Prefetcher::Stream { depth: 3 }.lines_after_miss(64, 32).collect();
        assert_eq!(v, vec![96, 128, 160]);
    }

    #[test]
    fn adaptive_emits_nothing_statelessly() {
        assert_eq!(Prefetcher::AdaptiveStride { depth: 4 }.lines_after_miss(64, 32).count(), 0);
        assert_eq!(Prefetcher::AdaptiveStride { depth: 4 }.adaptive_depth(), Some(4));
        assert_eq!(Prefetcher::NextLine.adaptive_depth(), None);
    }

    #[test]
    fn stride_confirms_after_two_equal_deltas() {
        let mut s = StrideState::default();
        assert_eq!(s.observe(1000), None); // first address: no delta yet
        assert_eq!(s.observe(1064), None); // first delta observed
        assert_eq!(s.observe(1128), Some(64)); // delta repeats → confident
        assert_eq!(s.observe(1192), Some(64));
    }

    #[test]
    fn stride_breaks_on_pattern_change() {
        let mut s = StrideState::default();
        s.observe(0);
        s.observe(64);
        assert_eq!(s.observe(128), Some(64));
        assert_eq!(s.observe(1_000_000), None, "wild jump must kill confidence");
        assert_eq!(s.observe(1_000_064), None, "one delta is not enough");
        assert_eq!(s.observe(1_000_128), Some(64));
    }

    #[test]
    fn negative_strides_detected() {
        let mut s = StrideState::default();
        s.observe(10_000);
        s.observe(9_936);
        assert_eq!(s.observe(9_872), Some(-64));
    }

    #[test]
    fn zero_delta_keeps_state() {
        let mut s = StrideState::default();
        s.observe(0);
        s.observe(64);
        assert_eq!(s.observe(128), Some(64));
        assert_eq!(s.observe(128), Some(64), "re-touch must not reset confidence");
        assert_eq!(s.observe(192), Some(64));
    }

    #[test]
    fn reset_forgets() {
        let mut s = StrideState::default();
        s.observe(0);
        s.observe(64);
        assert_eq!(s.observe(128), Some(64));
        s.reset();
        assert_eq!(s.observe(192), None);
    }
}
