//! Dispatch-path fault injection for `dini-simtest` scenarios: the
//! serving layer's interpreter of a [`FaultSchedule`].
//!
//! `dini-cluster`'s schedule perturbs links at the network layer. The
//! serving layer has no network, but its ranking path has the same
//! failure surface: a replica can die mid-batch, a batch can be delayed
//! by scheduling jitter, and one replica can be persistently slower
//! than its peers (the straggler every scatter-gather system eventually
//! meets). A replica owns no thread, so its faults are met by every
//! caller that ranks on it, before each batch. [`ReplicaFaults`] resolves
//! exactly those for one `(shard, replica)` — its
//! [`Crash`](Fault::Crash) point, its [`Straggle`](Fault::Straggle)
//! delay, and its seeded jitter stream (one fate per batch) — so a
//! scenario replays bit-for-bit from its seed. An event with
//! `replica: None` hits every replica of its shard: with
//! `replicas_per_shard == 1` that is the classic single-server
//! crash, while failover scenarios kill one replica mid-batch and
//! require every caller that meets the crash to rank on a survivor
//! rather than be answered `ShuttingDown`.
//!
//! The schedule defaults to empty, and every hook is a branch on a
//! pre-resolved `Option` — the production dispatch path pays no RNG
//! draw, no allocation, and no sleep for the seam.

use crate::clock::{dur_ns, Clock, Nanos};
use dini_cluster::{Fault, FaultSchedule, FaultState};
use std::time::Duration;

/// One replica's resolved fault state.
#[derive(Debug)]
pub(crate) struct ReplicaFaults {
    jitter: Option<FaultState>,
    slow_ns: Nanos,
    crash_at: Option<Nanos>,
}

impl ReplicaFaults {
    /// Resolve what `schedule` scripts for `replica` of `shard`: its
    /// straggles add up, its earliest crash counts. Times are read on
    /// the server's [`Clock`].
    pub(crate) fn resolve(schedule: &FaultSchedule, shard: usize, replica: usize) -> Self {
        let hits = |s: usize, r: Option<usize>| s == shard && r.is_none_or(|r| r == replica);
        let (mut slow_ns, mut crash_at) = (0, None::<Nanos>);
        for event in &schedule.events {
            match *event {
                Fault::Straggle { shard, replica, extra } if hits(shard, replica) => {
                    slow_ns += dur_ns(extra);
                }
                Fault::Crash { shard, replica, at } if hits(shard, replica) => {
                    crash_at = Some(crash_at.map_or(dur_ns(at), |t| t.min(dur_ns(at))));
                }
                _ => {}
            }
        }
        Self { jitter: schedule.dispatch_fates(shard, replica), slow_ns, crash_at }
    }

    /// True when nothing is scripted for this replica: its callers need
    /// not meet faults before its own keys.
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

    const MS: Duration = Duration::from_millis(1);

    fn with(events: Vec<Fault>) -> FaultSchedule {
        FaultSchedule { events, ..FaultSchedule::default() }
    }

    #[test]
    fn none_is_noop_and_free() {
        let schedule = FaultSchedule::default();
        assert!(!schedule.has_dispatch_faults());
        let mut sf = ReplicaFaults::resolve(&schedule, 0, 0);
        assert!(sf.is_noop());
        assert!(!sf.crashed(&Clock::system()));
        assert_eq!(sf.batch_delay(), None);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let bound = Duration::from_micros(500);
        let schedule =
            FaultSchedule { seed: 7, dispatch_jitter: bound, ..FaultSchedule::default() };
        assert!(schedule.has_dispatch_faults());
        let draw = |shard, replica| {
            let mut sf = ReplicaFaults::resolve(&schedule, shard, replica);
            (0..64).map(|_| sf.batch_delay().unwrap_or_default()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0), "same seed and replica, same stream");
        assert_ne!(draw(1, 0), draw(2, 0), "shards draw independently");
        assert_ne!(draw(1, 0), draw(1, 1), "replicas draw independently");
        assert!(draw(1, 0).iter().all(|d| *d < bound));
    }

    #[test]
    fn slow_shard_hits_all_its_replicas() {
        let schedule = with(vec![Fault::Straggle { shard: 2, replica: None, extra: 3 * MS }]);
        assert_eq!(ReplicaFaults::resolve(&schedule, 0, 0).batch_delay(), None);
        assert_eq!(ReplicaFaults::resolve(&schedule, 2, 0).batch_delay(), Some(3 * MS));
        assert_eq!(ReplicaFaults::resolve(&schedule, 2, 1).batch_delay(), Some(3 * MS));
    }

    #[test]
    fn slow_replica_hits_only_its_replica() {
        let schedule = with(vec![Fault::Straggle { shard: 1, replica: Some(1), extra: 2 * MS }]);
        assert!(schedule.has_dispatch_faults());
        assert_eq!(ReplicaFaults::resolve(&schedule, 1, 0).batch_delay(), None);
        assert_eq!(ReplicaFaults::resolve(&schedule, 1, 1).batch_delay(), Some(2 * MS));
        assert_eq!(ReplicaFaults::resolve(&schedule, 0, 1).batch_delay(), None);
    }

    #[test]
    fn crash_point_is_a_threshold() {
        let sim = crate::SimClock::new();
        let _main = sim.register_main();
        let clock = Clock::sim(&sim);
        let at = Duration::from_nanos(5_000);
        let schedule = with(vec![Fault::Crash { shard: 1, replica: None, at }]);
        let sf = ReplicaFaults::resolve(&schedule, 1, 0);
        assert!(!sf.crashed(&clock), "virtual t = 0 is before the crash");
        clock.sleep(Duration::from_nanos(4_999));
        assert!(!sf.crashed(&clock));
        clock.sleep(Duration::from_nanos(1));
        assert!(sf.crashed(&clock));
        assert!(sf.crashed(&clock));
        let other = ReplicaFaults::resolve(&schedule, 0, 0);
        assert!(!other.crashed(&clock), "other shards never crash");
        // A shard-wide crash fells every replica of the shard…
        assert!(ReplicaFaults::resolve(&schedule, 1, 3).crashed(&clock));
        // …while a replica crash fells exactly one.
        let schedule = with(vec![Fault::Crash { shard: 1, replica: Some(1), at }]);
        assert!(ReplicaFaults::resolve(&schedule, 1, 1).crashed(&clock));
        let sibling = ReplicaFaults::resolve(&schedule, 1, 0);
        assert!(!sibling.crashed(&clock), "sibling replicas survive");
    }
}
