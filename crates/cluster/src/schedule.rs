//! One run's faults: a [`FaultSchedule`] holds a seed, the rates every
//! link shares, a dispatch-jitter bound and one flat list of timed
//! [`Fault`]s. Each layer reads it through one interpreter. A transport
//! resolves one endpoint's [`LinkFaults`] ([`FaultSchedule::link`]),
//! and each connection's [`LinkState::next`] turns every outgoing frame
//! into a [`FrameFate`]: deliver at `now + offset`, duplicate, drop, or
//! report the link dead (a TCP RST). `dini-serve` resolves one
//! dispatcher's crash point, straggle and
//! [`dispatch_fates`](FaultSchedule::dispatch_fates).
//!
//! Determinism: every stream is a [`FaultState`] (three RNG draws per
//! fate) seeded from the one seed by the derivations below, which a unit
//! test pins: `dini-simtest`'s golden digests depend on every draw.

use crate::fault::{FaultPlan, FaultState};
use std::time::Duration;

/// 2^64 / φ: spreads shard ids and connection salts over the seed.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
/// A second odd multiplier: spreads endpoint and replica ids.
const MIX: u64 = 0xD1B5_4A32_D192_ED03;
/// Separates the dispatch streams from the link streams of one seed.
const DISPATCH_SALT: u64 = 0x4A17_7E55;

/// Everything one deterministic run injects. The default injects
/// nothing: perfect links, no dispatch jitter, no events.
///
/// Instants (`at`, `from`, `until`) are read on the clock of whoever
/// interprets them — virtual time under `dini-simtest`, where a run
/// starts at zero.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    /// Seed of every fate stream (links and dispatchers).
    pub seed: u64,
    /// Fixed one-way latency of every link (jitter comes on top).
    pub latency: Duration,
    /// Per-frame drop probability, every link.
    pub drop_prob: f64,
    /// Per-frame duplicate probability, every link (the copy trails its
    /// original by up to a full jitter window).
    pub duplicate_prob: f64,
    /// Uniform per-frame delivery jitter in `[0, jitter)`, every link
    /// (it reorders frames).
    pub jitter: Duration,
    /// Uniform extra delay in `[0, dispatch_jitter)`, drawn per batch by
    /// every replica dispatcher.
    pub dispatch_jitter: Duration,
    /// The timed events, in no particular order.
    pub events: Vec<Fault>,
}

/// One scheduled fault. `replica: None` addresses every replica of the
/// shard; `endpoint` numbers a link by the endpoint it dials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The dispatcher dies at its first batch boundary at or after
    /// `at`; its backlog fails over to live siblings, if any.
    Crash {
        /// Shard whose dispatchers crash.
        shard: usize,
        /// One replica, or (`None`) all of them.
        replica: Option<usize>,
        /// Instant of the crash.
        at: Duration,
    },
    /// The dispatcher pays `extra` per batch: a straggler.
    Straggle {
        /// Shard whose dispatchers straggle.
        shard: usize,
        /// One replica, or (`None`) all of them.
        replica: Option<usize>,
        /// Fixed extra delay per batch.
        extra: Duration,
    },
    /// The link is severed at `at`: sends fail and the receiving side
    /// reports closed, for good.
    Sever {
        /// Endpoint whose link is severed.
        endpoint: usize,
        /// Instant of the severance.
        at: Duration,
    },
    /// Frames sent inside `[from, until)` vanish while the connection
    /// stays up: a partition that heals.
    Partition {
        /// Endpoint whose link is blacked out.
        endpoint: usize,
        /// First instant of the window.
        from: Duration,
        /// First instant after it.
        until: Duration,
    },
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl FaultSchedule {
    /// Does the schedule disturb a dispatcher — dispatch jitter, a
    /// crash, or a straggle that costs time? Link rates and link events
    /// do not count.
    pub fn has_dispatch_faults(&self) -> bool {
        !self.dispatch_jitter.is_zero()
            || self.events.iter().any(|e| match e {
                Fault::Crash { .. } => true,
                Fault::Straggle { extra, .. } => !extra.is_zero(),
                Fault::Sever { .. } | Fault::Partition { .. } => false,
            })
    }

    /// Resolve the link to `endpoint`: the shared rates, seeded
    /// `seed ^ endpoint·MIX`, its earliest severance and its partition.
    /// Panics on an empty partition window or a second partition of the
    /// link: neither could fire as written.
    pub fn link(&self, endpoint: usize) -> LinkFaults {
        let mut link = LinkFaults {
            fault: FaultPlan {
                seed: self.seed ^ (endpoint as u64).wrapping_mul(MIX),
                drop_prob: self.drop_prob,
                duplicate_prob: self.duplicate_prob,
                jitter_max_ns: ns(self.jitter) as f64,
                crash_at_ns: Vec::new(),
            },
            latency_ns: ns(self.latency),
            down_at_ns: None,
            blackout_ns: None,
        };
        for event in &self.events {
            match *event {
                Fault::Sever { endpoint: e, at } if e == endpoint => {
                    link.down_at_ns = Some(link.down_at_ns.map_or(ns(at), |t| t.min(ns(at))));
                }
                Fault::Partition { endpoint: e, from, until } if e == endpoint => {
                    assert!(from < until, "{event:?}: a partition needs a non-empty window");
                    assert!(link.blackout_ns.is_none(), "{event:?}: one partition per link");
                    link.blackout_ns = Some((ns(from), ns(until)));
                }
                _ => {}
            }
        }
        link
    }

    /// The per-batch jitter stream of one replica dispatcher, seeded
    /// `seed ^ DISPATCH_SALT ^ shard·PHI ^ replica·MIX`;
    /// `None` without dispatch jitter.
    pub fn dispatch_fates(&self, shard: usize, replica: usize) -> Option<FaultState> {
        (!self.dispatch_jitter.is_zero()).then(|| {
            let seed = self.seed
                ^ DISPATCH_SALT
                ^ (shard as u64).wrapping_mul(PHI)
                ^ (replica as u64).wrapping_mul(MIX);
            FaultPlan::with_jitter(seed, ns(self.dispatch_jitter) as f64).state()
        })
    }
}

/// One link's resolved faults ([`FaultSchedule::link`]): what a
/// transport instantiates per connection. The default is a perfect
/// link: no latency, no faults, never down.
#[derive(Debug, Clone, Default)]
pub struct LinkFaults {
    fault: FaultPlan,
    latency_ns: u64,
    down_at_ns: Option<u64>,
    blackout_ns: Option<(u64, u64)>,
}

impl LinkFaults {
    /// Instantiate per-connection runtime state. `salt` decorrelates
    /// the two directions of one connection (and parallel connections
    /// over the same link) while keeping each stream reproducible.
    pub fn state(&self, salt: u64) -> LinkState {
        let fate = (!self.fault.is_noop()).then(|| {
            let mut fault = self.fault.clone();
            fault.seed ^= salt.wrapping_mul(PHI);
            fault.state()
        });
        LinkState {
            fate,
            latency_ns: self.latency_ns,
            down_at_ns: self.down_at_ns,
            blackout_ns: self.blackout_ns,
        }
    }
}

/// Runtime state of one directed link (RNG position + severance point).
#[derive(Debug)]
pub struct LinkState {
    fate: Option<FaultState>,
    latency_ns: u64,
    down_at_ns: Option<u64>,
    blackout_ns: Option<(u64, u64)>,
}

/// What a transport should do with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameFate {
    /// The link is severed: fail the send and surface a closed
    /// connection to both halves.
    Down,
    /// Silently drop the frame (the sender believes it went out).
    Drop,
    /// Deliver the frame `offset_ns` after the send; when
    /// `duplicate_offset_ns` is set, deliver a second copy at that
    /// (always later) offset.
    Deliver {
        /// Delay from send to (first) delivery.
        offset_ns: u64,
        /// Delay from send to the duplicate delivery, if any.
        duplicate_offset_ns: Option<u64>,
    },
}

impl LinkState {
    /// When this link goes down, if ever (transports poll this so the
    /// *receive* side can report closed even with no frame in flight).
    #[inline]
    pub fn down_at_ns(&self) -> Option<u64> {
        self.down_at_ns
    }

    /// Is the link severed at `now_ns`?
    #[inline]
    pub fn is_down(&self, now_ns: u64) -> bool {
        self.down_at_ns.is_some_and(|t| now_ns >= t)
    }

    /// Is the link inside its blackout window at `now_ns`?
    #[inline]
    pub fn in_blackout(&self, now_ns: u64) -> bool {
        self.blackout_ns.is_some_and(|(start, end)| now_ns >= start && now_ns < end)
    }

    /// Decide the fate of the next frame sent at `now_ns`. Clean links
    /// (no drop, duplicate or jitter) never touch an RNG.
    pub fn next(&mut self, now_ns: u64) -> FrameFate {
        if self.is_down(now_ns) {
            return FrameFate::Down;
        }
        let dark = self.in_blackout(now_ns);
        let Some(state) = self.fate.as_mut() else {
            if dark {
                return FrameFate::Drop;
            }
            return FrameFate::Deliver { offset_ns: self.latency_ns, duplicate_offset_ns: None };
        };
        // Drawn even inside a blackout: the window overrides the fate
        // but never advances or skips the RNG, so the stream outside it
        // is byte-identical to the same plan without a blackout.
        let fate = state.next_fate();
        if dark || fate.dropped {
            return FrameFate::Drop;
        }
        let offset_ns = self.latency_ns + fate.jitter_ns as u64;
        // The duplicate trails the original by up to a full jitter
        // window, mirroring the discrete-event simulator's convention.
        let duplicate_offset_ns =
            fate.duplicated.then(|| offset_ns + state.jitter_max_ns().max(1.0) as u64);
        FrameFate::Deliver { offset_ns, duplicate_offset_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Duration = Duration::from_micros(1);

    fn at_ns(t: u64) -> Duration {
        Duration::from_nanos(t)
    }

    #[test]
    fn reliable_link_delivers_everything_immediately() {
        let mut s = FaultSchedule::default().link(0).state(0);
        for t in [0u64, 1_000, u64::MAX] {
            assert_eq!(s.next(t), FrameFate::Deliver { offset_ns: 0, duplicate_offset_ns: None });
        }
        assert!(s.fate.is_none(), "a clean link never draws");
    }

    #[test]
    fn latency_only_shifts_delivery() {
        let schedule = FaultSchedule { latency: 7 * US, ..FaultSchedule::default() };
        let mut s = schedule.link(0).state(0);
        assert_eq!(s.next(0), FrameFate::Deliver { offset_ns: 7_000, duplicate_offset_ns: None });
    }

    #[test]
    fn fates_are_deterministic_per_salt() {
        let link = FaultSchedule { seed: 3, drop_prob: 0.4, ..FaultSchedule::default() }.link(0);
        let draw = |salt| {
            let mut s = link.state(salt);
            (0..64).map(|i| s.next(i)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1), "same salt, same fate stream");
        assert_ne!(draw(1), draw(2), "directions draw independently");
        assert!(draw(1).contains(&FrameFate::Drop), "drops at p=0.4 must appear");
    }

    #[test]
    fn severed_link_is_down_for_good() {
        let sever = |endpoint, t| Fault::Sever { endpoint, at: at_ns(t) };
        let schedule = FaultSchedule {
            events: vec![sever(0, 5_000), sever(0, 1_000), sever(1, 10)],
            ..FaultSchedule::default()
        };
        let mut s = schedule.link(0).state(0);
        assert!(!s.is_down(999));
        assert_ne!(s.next(999), FrameFate::Down);
        assert!(s.is_down(1_000), "the earliest severance of the link counts");
        assert_eq!(s.next(1_000), FrameFate::Down);
        assert_eq!(s.next(u64::MAX), FrameFate::Down);
        assert_eq!(s.down_at_ns(), Some(1_000));
        assert_eq!(schedule.link(2).state(0).down_at_ns(), None, "other links stay up");
    }

    #[test]
    fn blackout_drops_inside_the_window_and_heals_after() {
        let schedule = FaultSchedule {
            latency: at_ns(10),
            events: vec![Fault::Partition { endpoint: 0, from: at_ns(1_000), until: at_ns(2_000) }],
            ..FaultSchedule::default()
        };
        let mut s = schedule.link(0).state(0);
        assert_eq!(s.next(999), FrameFate::Deliver { offset_ns: 10, duplicate_offset_ns: None });
        assert!(s.in_blackout(1_000));
        assert_eq!(s.next(1_000), FrameFate::Drop);
        assert_eq!(s.next(1_999), FrameFate::Drop);
        assert!(!s.in_blackout(2_000), "the window is half-open");
        assert_eq!(s.next(2_000), FrameFate::Deliver { offset_ns: 10, duplicate_offset_ns: None });
        let mut other = schedule.link(1).state(0);
        assert!(!other.in_blackout(1_500), "a partition cuts only its own link");
        assert_eq!(
            other.next(1_500),
            FrameFate::Deliver { offset_ns: 10, duplicate_offset_ns: None }
        );
    }

    #[test]
    fn blackout_does_not_perturb_the_fate_stream_outside_its_window() {
        // Same seed, with and without a blackout: every fate drawn
        // outside the window must be identical (the blackout never
        // advances the RNG).
        let plain = FaultSchedule { seed: 7, drop_prob: 0.3, ..FaultSchedule::default() };
        let partition = Fault::Partition { endpoint: 0, from: at_ns(10), until: at_ns(20) };
        let dark = FaultSchedule { events: vec![partition], ..plain.clone() };
        let (mut plain, mut dark) = (plain.link(0).state(3), dark.link(0).state(3));
        for t in 0..40u64 {
            let (a, b) = (plain.next(t), dark.next(t));
            if (10..20).contains(&t) {
                assert_eq!(b, FrameFate::Drop);
            } else {
                assert_eq!(a, b, "fate diverged at t={t}");
            }
        }
    }

    #[test]
    fn duplicates_trail_their_original() {
        let schedule = FaultSchedule {
            seed: 11,
            latency: at_ns(100),
            duplicate_prob: 1.0,
            jitter: at_ns(500),
            ..FaultSchedule::default()
        };
        let mut s = schedule.link(0).state(0);
        for t in 0..32 {
            match s.next(t) {
                FrameFate::Deliver { offset_ns, duplicate_offset_ns: Some(dup) } => {
                    assert!(dup > offset_ns, "duplicate must arrive after the original");
                    assert!(offset_ns >= 100, "latency is a floor");
                }
                other => panic!("p=1 duplication must duplicate, got {other:?}"),
            }
        }
    }

    /// The derivations `golden.txt` depends on, checked in milliseconds:
    /// every resolved stream draws what an explicit [`FaultPlan`] seeded
    /// the pinned way draws.
    #[test]
    fn resolved_streams_draw_what_the_pinned_derivations_draw() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let schedule = FaultSchedule {
                seed,
                drop_prob: 0.05,
                duplicate_prob: 0.05,
                jitter: 300 * US,
                dispatch_jitter: 400 * US,
                ..FaultSchedule::default()
            };
            for (ep, salt) in [(0u64, 0u64), (1, 2), (3, 7)] {
                let mut pinned = FaultPlan {
                    seed: seed
                        ^ ep.wrapping_mul(0xD1B5_4A32_D192_ED03)
                        ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    drop_prob: 0.05,
                    duplicate_prob: 0.05,
                    jitter_max_ns: 300_000.0,
                    crash_at_ns: Vec::new(),
                }
                .state();
                let mut link = schedule.link(ep as usize).state(salt);
                let fates = link.fate.as_mut().expect("a lossy link draws");
                for i in 0..64 {
                    assert_eq!(fates.next_fate(), pinned.next_fate(), "link {ep}/{salt}, fate {i}");
                }
            }
            for (shard, replica) in [(0u64, 0u64), (1, 0), (2, 3)] {
                let mut pinned = FaultPlan::with_jitter(
                    seed ^ 0x4A17_7E55
                        ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ replica.wrapping_mul(0xD1B5_4A32_D192_ED03),
                    400_000.0,
                )
                .state();
                let mut fates =
                    schedule.dispatch_fates(shard as usize, replica as usize).expect("jittered");
                for i in 0..64 {
                    let what = format!("dispatcher {shard}/{replica}, fate {i}");
                    assert_eq!(fates.next_fate(), pinned.next_fate(), "{what}");
                }
            }
        }
        assert!(FaultSchedule::default().dispatch_fates(0, 0).is_none());
    }

    #[test]
    fn dispatch_faults_are_told_apart_from_link_faults() {
        let links = FaultSchedule {
            latency: 50 * US,
            drop_prob: 0.5,
            events: vec![Fault::Sever { endpoint: 0, at: US }],
            ..FaultSchedule::default()
        };
        assert!(!links.has_dispatch_faults(), "link faults are not dispatch faults");
        let idle = Fault::Straggle { shard: 0, replica: None, extra: Duration::ZERO };
        assert!(!FaultSchedule { events: vec![idle], ..links.clone() }.has_dispatch_faults());
        let crash = Fault::Crash { shard: 0, replica: Some(1), at: Duration::ZERO };
        assert!(FaultSchedule { events: vec![crash], ..links.clone() }.has_dispatch_faults());
        assert!(FaultSchedule { dispatch_jitter: US, ..links }.has_dispatch_faults());
    }

    #[test]
    #[should_panic(expected = "a partition needs a non-empty window")]
    fn an_empty_partition_window_is_refused() {
        let partition = Fault::Partition { endpoint: 0, from: 5 * US, until: 5 * US };
        FaultSchedule { events: vec![partition], ..FaultSchedule::default() }.link(0);
    }
}
