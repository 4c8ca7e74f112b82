//! Run statistics shared by every method driver.

use crate::setup::MethodId;
use dini_cache_sim::AccessStats;

/// What one experiment run produced. All times are *simulated*.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Which method ran.
    pub method: MethodId,
    /// Message/batch size in bytes.
    pub batch_bytes: usize,
    /// Number of search keys processed.
    pub n_keys: u64,
    /// Normalized search time in seconds: for replicated methods (A, B)
    /// the single-node time divided by the node count (the paper's
    /// normalization); for Method C the cluster makespan.
    pub search_time_s: f64,
    /// `search_time_s / n_keys` in nanoseconds.
    pub per_key_ns: f64,
    /// Mean idle fraction across the slave nodes (Method C; 0 for A/B).
    pub slave_idle: f64,
    /// Idle fraction of the master node(s) (Method C; 0 for A/B).
    pub master_idle: f64,
    /// Total messages delivered (Method C; 0 for A/B).
    pub msgs: u64,
    /// Total payload bytes moved over the network.
    pub net_bytes: u64,
    /// Cache/memory statistics summed over every node that did lookups.
    pub mem: AccessStats,
    /// Mean per-batch response time in ns: dispatch at the master →
    /// results delivered at the target (Method C), or the per-batch
    /// processing time for the local methods. The quantity behind the
    /// paper's "throughput *and* response time" claim.
    pub batch_rtt_mean_ns: f64,
    /// 99th-percentile per-batch response time in ns (0 when only a mean
    /// is available).
    pub batch_rtt_p99_ns: f64,
    /// Verification checksum: sum of all produced ranks (compare across
    /// methods to prove they computed the same answers).
    pub rank_checksum: u64,
}

impl RunStats {
    /// Throughput in million lookups per simulated second.
    pub fn mlookups_per_s(&self) -> f64 {
        if self.search_time_s <= 0.0 {
            0.0
        } else {
            self.n_keys as f64 / self.search_time_s / 1e6
        }
    }

    /// L2 misses per lookup — the quantity the paper's whole argument
    /// turns on.
    pub fn l2_misses_per_key(&self) -> f64 {
        if self.n_keys == 0 {
            0.0
        } else {
            self.mem.memory_accesses as f64 / self.n_keys as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RunStats {
        RunStats {
            method: MethodId::C3,
            batch_bytes: 128 * 1024,
            n_keys: 1 << 23,
            search_time_s: 0.32,
            per_key_ns: 0.32e9 / (1u64 << 23) as f64,
            slave_idle: 0.2,
            master_idle: 0.0,
            msgs: 640,
            net_bytes: 64 << 20,
            mem: AccessStats::default(),
            batch_rtt_mean_ns: 500_000.0,
            batch_rtt_p99_ns: 900_000.0,
            rank_checksum: 42,
        }
    }

    #[test]
    fn throughput_math() {
        let s = stats();
        let expect = (1u64 << 23) as f64 / 0.32 / 1e6;
        assert!((s.mlookups_per_s() - expect).abs() < 1e-9);
    }

    #[test]
    fn zero_keys_degenerate() {
        let mut s = stats();
        s.n_keys = 0;
        s.search_time_s = 0.0;
        assert_eq!(s.mlookups_per_s(), 0.0);
        assert_eq!(s.l2_misses_per_key(), 0.0);
    }
}
