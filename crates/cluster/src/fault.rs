//! Deterministic fault injection for the cluster simulator.
//!
//! The paper's cluster (and MPI itself) assumes a reliable network; the
//! simulator therefore defaults to zero faults. Real deployments of a
//! distributed in-cache index — the sensor-network and pub/sub routers of
//! the paper's introduction — do see message loss and node failure, so the
//! simulator can inject them deterministically: every decision is drawn
//! from a seeded [`rand::rngs::SmallRng`], making faulty runs exactly
//! reproducible.
//!
//! Faults are applied at the network layer ([`crate::sim::SimCluster`]
//! consults the plan once per message) and at delivery (crashed nodes
//! silently discard). Recovery logic — retransmission, failover to a
//! replica slave — belongs to the actors; see the failure-injection
//! integration tests for a retransmitting master built on
//! [`crate::sim::Ctx::schedule`] timers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fault-injection plan. All probabilities are per-message and drawn
/// deterministically from the seed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// RNG seed; two plans with the same seed and parameters produce the
    /// same fault schedule for the same message sequence.
    pub seed: u64,
    /// Probability a message is silently dropped in flight.
    pub drop_prob: f64,
    /// Probability a message is delivered twice (the duplicate arrives
    /// after an extra `jitter_max_ns` delay).
    pub duplicate_prob: f64,
    /// Uniform extra delivery delay in `[0, jitter_max_ns)` added to every
    /// message (0 disables).
    pub jitter_max_ns: f64,
    /// Per-node crash times: `crash_at_ns[i] = Some(t)` means node `i`
    /// stops processing anything that would begin at or after `t`.
    pub crash_at_ns: Vec<Option<f64>>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default for all paper runs).
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            jitter_max_ns: 0.0,
            crash_at_ns: Vec::new(),
        }
    }

    /// Message loss only.
    pub fn with_drops(seed: u64, drop_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&drop_prob), "drop_prob out of range");
        Self { seed, drop_prob, ..Self::none() }
    }

    /// Delivery jitter only.
    pub fn with_jitter(seed: u64, jitter_max_ns: f64) -> Self {
        assert!(jitter_max_ns >= 0.0);
        Self { seed, jitter_max_ns, ..Self::none() }
    }

    /// Crash node `node` at time `t_ns` (builder style; chainable).
    pub fn crash(mut self, node: usize, t_ns: f64) -> Self {
        if self.crash_at_ns.len() <= node {
            self.crash_at_ns.resize(node + 1, None);
        }
        self.crash_at_ns[node] = Some(t_ns);
        self
    }

    /// True when the plan can never perturb a run — lets the simulator
    /// skip RNG work entirely on the (common) fault-free path.
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.jitter_max_ns == 0.0
            && self.crash_at_ns.iter().all(Option::is_none)
    }

    /// Crash time for `node`, if any.
    #[inline]
    pub fn crash_time(&self, node: usize) -> Option<f64> {
        self.crash_at_ns.get(node).copied().flatten()
    }

    /// Instantiate the plan's per-run mutable state (RNG position).
    /// Public so other layers — e.g. `dini-serve`'s dispatch-path fault
    /// injection — can draw from the same seeded fate machinery.
    pub fn state(&self) -> FaultState {
        FaultState { rng: SmallRng::seed_from_u64(self.seed), plan: self.clone() }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-run mutable fault state (RNG position).
#[derive(Debug, Clone)]
pub struct FaultState {
    rng: SmallRng,
    plan: FaultPlan,
}

/// The network-layer fate of one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgFate {
    /// Dropped in flight: no delivery at all.
    pub dropped: bool,
    /// Extra delay added to the (first) delivery.
    pub jitter_ns: f64,
    /// A duplicate delivery follows after an additional `jitter_max_ns`.
    pub duplicated: bool,
}

impl MsgFate {
    pub(crate) const CLEAN: MsgFate = MsgFate { dropped: false, jitter_ns: 0.0, duplicated: false };
}

impl FaultState {
    /// Decide the fate of the next message. Consumes a fixed number of RNG
    /// draws per call so the schedule is stable under parameter tweaks of
    /// *other* messages.
    pub fn next_fate(&mut self) -> MsgFate {
        let u_drop: f64 = self.rng.gen();
        let u_dup: f64 = self.rng.gen();
        let u_jit: f64 = self.rng.gen();
        MsgFate {
            dropped: u_drop < self.plan.drop_prob,
            duplicated: u_dup < self.plan.duplicate_prob,
            jitter_ns: u_jit * self.plan.jitter_max_ns,
        }
    }

    /// The plan's jitter window (public so frame-level transports built
    /// on [`crate::schedule`] can bound duplicate-delivery offsets with
    /// the same constant the simulator uses).
    pub fn jitter_max_ns(&self) -> f64 {
        self.plan.jitter_max_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_noop() {
        assert!(FaultPlan::none().is_noop());
        assert!(FaultPlan::default().is_noop());
    }

    #[test]
    fn drops_only_is_not_noop() {
        assert!(!FaultPlan::with_drops(1, 0.5).is_noop());
        assert!(FaultPlan::with_drops(1, 0.0).is_noop());
    }

    #[test]
    fn crash_builder_extends_table() {
        let p = FaultPlan::none().crash(3, 1000.0);
        assert_eq!(p.crash_time(3), Some(1000.0));
        assert_eq!(p.crash_time(0), None);
        assert_eq!(p.crash_time(7), None);
        assert!(!p.is_noop());
    }

    #[test]
    fn fate_sequence_is_deterministic() {
        let mk = || {
            let mut s = FaultPlan::with_drops(42, 0.3).state();
            (0..64).map(|_| s.next_fate()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn drop_rate_approximates_probability() {
        let mut s = FaultPlan::with_drops(7, 0.25).state();
        let n = 20_000;
        let dropped = (0..n).filter(|_| s.next_fate().dropped).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn jitter_bounded() {
        let mut s = FaultPlan::with_jitter(9, 500.0).state();
        for _ in 0..1000 {
            let f = s.next_fate();
            assert!(f.jitter_ns >= 0.0 && f.jitter_ns < 500.0);
            assert!(!f.dropped && !f.duplicated);
        }
    }

    #[test]
    #[should_panic(expected = "drop_prob out of range")]
    fn rejects_bad_probability() {
        let _ = FaultPlan::with_drops(0, 1.5);
    }
}
