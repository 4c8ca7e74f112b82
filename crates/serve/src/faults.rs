//! Dispatch-path fault injection for `dini-simtest` scenarios.
//!
//! `dini-cluster`'s [`FaultPlan`] perturbs a
//! message-passing simulation at the network layer. The serving layer
//! has no network, but its dispatch path has the same failure surface:
//! a replica's dispatcher can die mid-batch, dispatch can be delayed by
//! scheduling jitter, and one replica can be persistently slower than
//! its peers (the straggler every scatter-gather system eventually
//! meets). [`ServeFaultPlan`] injects exactly those, deterministically:
//! jitter draws come from the cluster crate's seeded
//! [`FaultState`] (one fate per batch), and
//! crash/slowdown points are fixed virtual-time constants, so a
//! scenario replays bit-for-bit from its seed.
//!
//! Faults address either a whole shard (every replica of it — with
//! `replicas_per_shard == 1` that is the classic single-dispatcher
//! crash) or one `(shard, replica)` pair, which is what failover
//! scenarios script: kill replica 0 of a shard mid-batch and require
//! every one of its requests to be re-routed to the survivors rather
//! than answered `ShuttingDown`.
//!
//! The plan defaults to [`none`](ServeFaultPlan::none), and every hook
//! is a branch on a pre-resolved `Option` — the production dispatch
//! path pays no RNG draw, no allocation, and no sleep for the seam.

use crate::clock::{Clock, Nanos};
use dini_cluster::{FaultPlan, FaultState};
use std::time::Duration;

/// A deterministic fault schedule for an [`IndexServer`](crate::IndexServer).
///
/// All delays and crash points are in the server's [`Clock`]
/// time — virtual under `dini-simtest`, wall-clock if you inject faults
/// into a natively clocked server (useful for soak tests).
#[derive(Debug, Clone, Default)]
pub struct ServeFaultPlan {
    /// Seed for the per-batch jitter draws (shard and replica ids are
    /// folded in, so every dispatcher sees an independent but
    /// reproducible stream).
    pub seed: u64,
    /// Uniform extra dispatch delay in `[0, max)` added to every batch
    /// of every replica (`ZERO` disables; drawn per batch).
    pub dispatch_jitter_max: Duration,
    /// Per-shard fixed extra delay per batch: `(shard, extra)` — every
    /// replica of the shard becomes a straggler.
    pub slow_shards: Vec<(usize, Duration)>,
    /// Per-replica fixed extra delay per batch:
    /// `(shard, replica, extra)` — one straggler inside an otherwise
    /// healthy replica group (the scenario load-aware routing exists
    /// for).
    pub slow_replicas: Vec<(usize, usize, Duration)>,
    /// Per-shard crash points: `(shard, at_ns)` — every replica of the
    /// shard crashes at the first batch boundary at or after `at_ns`,
    /// so the whole shard is gone and its traffic resolves to
    /// `ShuttingDown`.
    pub crash_at: Vec<(usize, Nanos)>,
    /// Per-replica crash points: `(shard, replica, at_ns)` — one
    /// replica dies; its collected batch and queued backlog are
    /// re-routed to surviving replicas of the shard, and callers keep
    /// getting answers as long as any replica survives.
    pub crash_replica_at: Vec<(usize, usize, Nanos)>,
}

impl ServeFaultPlan {
    /// No faults (the default for every production server).
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan can never perturb a run.
    pub fn is_noop(&self) -> bool {
        self.dispatch_jitter_max.is_zero()
            && self.slow_shards.iter().all(|(_, d)| d.is_zero())
            && self.slow_replicas.iter().all(|(_, _, d)| d.is_zero())
            && self.crash_at.is_empty()
            && self.crash_replica_at.is_empty()
    }

    /// Builder: uniform dispatch jitter in `[0, max)` per batch.
    pub fn with_jitter(mut self, seed: u64, max: Duration) -> Self {
        self.seed = seed;
        self.dispatch_jitter_max = max;
        self
    }

    /// Builder: make every replica of `shard` a straggler (`extra` per
    /// batch).
    pub fn slow_shard(mut self, shard: usize, extra: Duration) -> Self {
        self.slow_shards.push((shard, extra));
        self
    }

    /// Builder: make one `replica` of `shard` a straggler (`extra` per
    /// batch) while its siblings stay fast.
    pub fn slow_replica(mut self, shard: usize, replica: usize, extra: Duration) -> Self {
        self.slow_replicas.push((shard, replica, extra));
        self
    }

    /// Builder: crash every replica of `shard` at virtual time `at_ns`.
    pub fn crash_shard(mut self, shard: usize, at_ns: Nanos) -> Self {
        self.crash_at.push((shard, at_ns));
        self
    }

    /// Builder: crash one `replica` of `shard` at virtual time `at_ns`
    /// (its backlog fails over to the surviving replicas).
    pub fn crash_replica(mut self, shard: usize, replica: usize, at_ns: Nanos) -> Self {
        self.crash_replica_at.push((shard, replica, at_ns));
        self
    }

    /// Resolve the plan into one replica dispatcher's runtime fault
    /// state.
    pub(crate) fn for_replica(&self, shard: usize, replica: usize) -> ReplicaFaults {
        let jitter = (!self.dispatch_jitter_max.is_zero()).then(|| {
            // Reuse the cluster simulator's seeded fate machinery; the
            // shard and replica ids perturb the seed so every
            // dispatcher draws independently.
            FaultPlan::with_jitter(
                self.seed
                    ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (replica as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
                self.dispatch_jitter_max.as_nanos() as f64,
            )
            .state()
        });
        let slow_ns: Nanos = self
            .slow_shards
            .iter()
            .filter(|(s, _)| *s == shard)
            .map(|(_, d)| d.as_nanos() as u64)
            .chain(
                self.slow_replicas
                    .iter()
                    .filter(|(s, r, _)| *s == shard && *r == replica)
                    .map(|(_, _, d)| d.as_nanos() as u64),
            )
            .sum();
        let crash_at = self
            .crash_at
            .iter()
            .filter(|(s, _)| *s == shard)
            .map(|&(_, t)| t)
            .chain(
                self.crash_replica_at
                    .iter()
                    .filter(|(s, r, _)| *s == shard && *r == replica)
                    .map(|&(_, _, t)| t),
            )
            .min();
        ReplicaFaults { jitter, slow_ns, crash_at }
    }
}

/// One replica dispatcher's resolved fault state.
#[derive(Debug)]
pub(crate) struct ReplicaFaults {
    jitter: Option<FaultState>,
    slow_ns: Nanos,
    crash_at: Option<Nanos>,
}

impl ReplicaFaults {
    /// True when nothing is scripted for this replica — the condition
    /// under which a caller may rank in its dispatcher's place.
    pub(crate) fn is_noop(&self) -> bool {
        self.jitter.is_none() && self.slow_ns == 0 && self.crash_at.is_none()
    }

    /// Has this replica's crash point passed? Reads the clock only when
    /// a crash is actually scheduled, so the (universal) fault-free path
    /// pays one branch, not a timestamp.
    #[inline]
    pub(crate) fn crashed(&self, clock: &Clock) -> bool {
        match self.crash_at {
            None => false,
            Some(t) => clock.now() >= t,
        }
    }

    /// Extra dispatch delay for the next batch (`None` = dispatch
    /// immediately, the fault-free fast path).
    #[inline]
    pub(crate) fn batch_delay(&mut self) -> Option<Duration> {
        let jitter = match &mut self.jitter {
            Some(state) => state.next_fate().jitter_ns as u64,
            None => 0,
        };
        let total = self.slow_ns + jitter;
        (total > 0).then(|| Duration::from_nanos(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_noop_and_free() {
        let plan = ServeFaultPlan::none();
        assert!(plan.is_noop());
        let mut sf = plan.for_replica(0, 0);
        assert!(!sf.crashed(&Clock::system()));
        assert_eq!(sf.batch_delay(), None);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let plan = ServeFaultPlan::none().with_jitter(7, Duration::from_micros(500));
        assert!(!plan.is_noop());
        let draw = |shard, replica| {
            let mut sf = plan.for_replica(shard, replica);
            (0..64).map(|_| sf.batch_delay().unwrap_or_default()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0), "same seed+dispatcher, same stream");
        assert_ne!(draw(1, 0), draw(2, 0), "shards draw independently");
        assert_ne!(draw(1, 0), draw(1, 1), "replicas draw independently");
        assert!(draw(1, 0).iter().all(|d| *d < Duration::from_micros(500)));
    }

    #[test]
    fn slow_shard_hits_all_its_replicas() {
        let plan = ServeFaultPlan::none().slow_shard(2, Duration::from_millis(3));
        assert_eq!(plan.for_replica(0, 0).batch_delay(), None);
        assert_eq!(plan.for_replica(2, 0).batch_delay(), Some(Duration::from_millis(3)));
        assert_eq!(plan.for_replica(2, 1).batch_delay(), Some(Duration::from_millis(3)));
    }

    #[test]
    fn slow_replica_hits_only_its_replica() {
        let plan = ServeFaultPlan::none().slow_replica(1, 1, Duration::from_millis(2));
        assert!(!plan.is_noop());
        assert_eq!(plan.for_replica(1, 0).batch_delay(), None);
        assert_eq!(plan.for_replica(1, 1).batch_delay(), Some(Duration::from_millis(2)));
        assert_eq!(plan.for_replica(0, 1).batch_delay(), None);
    }

    #[test]
    fn crash_point_is_a_threshold() {
        let sim = crate::SimClock::new();
        let _main = sim.register_main();
        let clock = Clock::sim(&sim);
        let plan = ServeFaultPlan::none().crash_shard(1, 5_000);
        let sf = plan.for_replica(1, 0);
        assert!(!sf.crashed(&clock), "virtual t = 0 is before the crash");
        clock.sleep(Duration::from_nanos(4_999));
        assert!(!sf.crashed(&clock));
        clock.sleep(Duration::from_nanos(1));
        assert!(sf.crashed(&clock));
        assert!(sf.crashed(&clock));
        assert!(!plan.for_replica(0, 0).crashed(&clock), "other shards never crash");
        // A shard-wide crash fells every replica of the shard…
        assert!(plan.for_replica(1, 3).crashed(&clock));
        // …while a replica crash fells exactly one.
        let plan = ServeFaultPlan::none().crash_replica(1, 1, 5_000);
        assert!(plan.for_replica(1, 1).crashed(&clock));
        assert!(!plan.for_replica(1, 0).crashed(&clock), "sibling replicas survive");
    }
}
