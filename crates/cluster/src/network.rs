//! Network models: bandwidth, latency, and per-message software overhead.
//!
//! The paper's §2.2 design discussion is entirely about these three
//! numbers: Myrinet's 7 µs latency is amortised once the transmission time
//! (`bytes / 138 MB/s`) dominates, which happens around 10 KB messages;
//! Gigabit Ethernet needs ~200 KB. The per-message overhead models the
//! MPI + OS software path the paper blames for slave idle time ("We
//! attribute this overhead both to the overhead of MPI and the operating
//! system").

/// A point-to-point network model. Times in ns, bandwidth in bytes/ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Human-readable name.
    pub name: &'static str,
    /// One-way payload bandwidth (bytes per ns). The paper measured
    /// 1.1 Gb/s = 138 MB/s for its 2 Gb/s-rated Myrinet.
    pub bandwidth: f64,
    /// One-way wire+switch latency in ns (7 µs Myrinet, ~100 µs GigE in
    /// the paper's framing).
    pub latency_ns: f64,
    /// Per-message CPU cost on the sender (MPI_Isend software path).
    pub send_overhead_ns: f64,
    /// Per-message CPU cost on the receiver (matching receive + copy).
    pub recv_overhead_ns: f64,
}

impl NetworkModel {
    /// The paper's measured Myrinet: 138 MB/s, 7 µs latency. Overheads are
    /// calibrated so the Figure 3 small-batch regime reproduces the
    /// paper's observation of ~50 % slave idle time at 8 KB batches (see
    /// EXPERIMENTS.md for the calibration).
    pub fn myrinet() -> Self {
        Self {
            name: "Myrinet (GM, measured 1.1 Gb/s)",
            bandwidth: 0.1375, // 138 MB/s in bytes/ns
            latency_ns: 7_000.0,
            send_overhead_ns: 20_000.0,
            recv_overhead_ns: 10_000.0,
        }
    }

    /// Gigabit Ethernet as the paper frames it: ~125 MB/s raw but ~100 µs
    /// application-visible latency through the OS stack.
    pub fn gigabit_ethernet() -> Self {
        Self {
            name: "Gigabit Ethernet",
            bandwidth: 0.125,
            latency_ns: 100_000.0,
            send_overhead_ns: 30_000.0,
            recv_overhead_ns: 20_000.0,
        }
    }

    /// The cluster's fallback 100 Mb/s Ethernet.
    pub fn fast_ethernet() -> Self {
        Self {
            name: "Fast Ethernet (100 Mb/s)",
            bandwidth: 0.0125,
            latency_ns: 100_000.0,
            send_overhead_ns: 30_000.0,
            recv_overhead_ns: 20_000.0,
        }
    }

    /// Wire transfer time for a message of `bytes`.
    #[inline]
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth
    }

    /// Message size at which transmission time equals latency — the
    /// paper's break-even for latency amortisation (~10 KB on Myrinet,
    /// ~200 KB framing for GigE once overheads are included).
    pub fn latency_breakeven_bytes(&self) -> u64 {
        (self.latency_ns * self.bandwidth) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn myrinet_matches_paper_measurements() {
        let m = NetworkModel::myrinet();
        // 10 KB message: 10_240 B / 0.1375 B/ns ≈ 74 µs ≫ 7 µs latency —
        // the paper's amortisation example.
        let t = m.transfer_ns(10 * 1024);
        assert!(t > 70_000.0 && t < 80_000.0);
        assert!(t > 10.0 * m.latency_ns * 0.99);
    }

    #[test]
    fn breakeven_is_about_1kb_on_myrinet() {
        // 7 µs × 138 MB/s ≈ 0.96 KB: transmission dominates well below the
        // paper's 10 KB example.
        let m = NetworkModel::myrinet();
        let b = m.latency_breakeven_bytes();
        assert!(b > 800 && b < 1100, "{b}");
    }

    #[test]
    fn gige_needs_larger_batches() {
        let g = NetworkModel::gigabit_ethernet();
        assert!(
            g.latency_breakeven_bytes() > 10 * NetworkModel::myrinet().latency_breakeven_bytes()
        );
    }
}
