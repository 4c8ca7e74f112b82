//! Shared-switch (backplane) capacity model.
//!
//! The paper's analytical model assumes "aggregate network bandwidth is
//! unlimited" (Appendix A, assumption 1): every node pair gets the full
//! point-to-point bandwidth simultaneously. Real Myrinet switches come
//! close, but cheaper interconnects do not — and Method C funnels *all*
//! query traffic through the master's links and the switch fabric, so a
//! capacity-limited backplane is exactly where the paper's assumption
//! would first break. This module bounds it (the `paper` binary's
//! `table3` backplane rows): a
//! [`SwitchModel`] serialises every transfer on a shared fabric with a
//! finite aggregate bandwidth, on top of the per-node TX/ingress links.

/// A shared switching fabric with finite aggregate bandwidth.
///
/// Each message occupies the fabric for `bytes / backplane_bandwidth`; the
/// fabric serves messages one at a time in issue order (a conservative
/// store-and-forward bound — real crossbars do better, the paper's
/// unlimited assumption is the other extreme).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchModel {
    /// Aggregate fabric bandwidth in bytes/ns.
    pub backplane_bandwidth: f64,
    /// Fixed per-message forwarding delay in ns (head-of-line processing).
    pub forward_delay_ns: f64,
}

impl SwitchModel {
    /// A fabric with `factor` times the point-to-point link bandwidth
    /// `link_bw` (bytes/ns). `factor = n_nodes` approximates a
    /// full-bisection crossbar; `factor = 1` a single shared segment.
    pub fn with_capacity_factor(link_bw: f64, factor: f64) -> Self {
        assert!(factor > 0.0 && link_bw > 0.0);
        Self { backplane_bandwidth: link_bw * factor, forward_delay_ns: 0.0 }
    }

    /// Fabric occupancy time for one message.
    #[inline]
    pub fn occupancy_ns(&self, bytes: u64) -> f64 {
        self.forward_delay_ns
            + if self.backplane_bandwidth.is_infinite() {
                0.0
            } else {
                bytes as f64 / self.backplane_bandwidth
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_factor_scales_link() {
        let s = SwitchModel::with_capacity_factor(0.1375, 10.0);
        assert!((s.backplane_bandwidth - 1.375).abs() < 1e-12);
        // 1375 bytes at 1.375 B/ns = 1000 ns.
        assert!((s.occupancy_ns(1375) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn forward_delay_added_per_message() {
        let s = SwitchModel { backplane_bandwidth: 1.0, forward_delay_ns: 50.0 };
        assert!((s.occupancy_ns(100) - 150.0).abs() < 1e-12);
        assert!((s.occupancy_ns(0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_backplane_costs_only_forward_delay() {
        let s = SwitchModel { backplane_bandwidth: f64::INFINITY, forward_delay_ns: 5.0 };
        assert_eq!(s.occupancy_ns(1 << 40), 5.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_capacity() {
        let _ = SwitchModel::with_capacity_factor(0.1, 0.0);
    }
}
