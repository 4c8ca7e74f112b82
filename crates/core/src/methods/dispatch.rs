//! Distributed Methods A and B with *real* load balancing.
//!
//! The paper gives Methods A and B "the benefit of the doubt": their
//! 11-node deployment needs a dispatcher that load-balances incoming
//! queries across the replicas, and the paper charges that dispatcher
//! nothing ("the overhead of load balancing is assumed to be zero"),
//! normalising the one-node time by 11 instead. This module implements
//! the deployment the paper waves away — a dispatcher node that actually
//! routes batches to replica nodes over the simulated network — so the
//! assumption can be tested rather than granted: compare
//! [`run_replicated_distributed`] against the normalised
//! [`crate::methods::run_method_a`]/[`crate::methods::run_method_b`] ideal
//! (the `paper` binary's `table3` dispatch rows).
//!
//! Unlike Method C's master, the dispatcher does *not* inspect keys — any
//! replica can answer any query — so its per-key CPU work is lower (no
//! delimiter search), but every query still crosses the network once and
//! the replicas still pay the out-of-cache tree-walk that motivates the
//! whole paper.

use crate::setup::{node_memory, stream, ExperimentSetup, MethodId};
use crate::stats::RunStats;
use dini_cache_sim::{AccessKind, AddressSpace, MemoryModel, SimMemory};
use dini_cluster::sim::{Actor, Ctx, NodeId, SimCluster};
use dini_index::{BufferedLookup, CsbTree, RankIndex};

/// How the dispatcher spreads batches over the replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalance {
    /// Batch `i` goes to replica `i mod n` — the static policy the
    /// paper's zero-overhead assumption best matches.
    RoundRobin,
    /// Uniform random replica per batch (seeded, deterministic). With
    /// uniform batch costs this is strictly worse than round-robin:
    /// binomial imbalance leaves some replicas idle while others queue.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// Credit-based work pulling: each replica holds at most `credits`
    /// unacknowledged batches; the dispatcher sends the next batch to
    /// whichever replica acknowledges first. Adapts to stragglers at the
    /// cost of one tiny ack message per batch.
    WorkPull {
        /// Maximum unacknowledged batches per replica (≥ 1; 2 =
        /// double-buffering).
        credits: usize,
    },
}

/// Protocol for the dispatcher/replica cluster.
#[derive(Debug, Clone)]
enum DMsg {
    /// A batch of queries, dispatcher → replica (stamped for RTT).
    Batch { sent_ns: f64, keys: Vec<u32> },
    /// Ranks, replica → its sink.
    Results { sent_ns: f64, ranks: Vec<u32> },
    /// Completion ack, replica → dispatcher (WorkPull only).
    Ack,
}

/// Which local method each replica runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaEngine {
    /// Per-key tree walk (Method A's replica).
    Naive,
    /// Zhou–Ross L2-buffered batch lookup (Method B's replica).
    Buffered,
}

struct ReplicaActor {
    tree: CsbTree,
    buffered: Option<BufferedLookup>,
    mem: SimMemory,
    sink: NodeId,
    dispatcher: NodeId,
    ack_dispatcher: bool,
    model_receive_pollution: bool,
    msg_regions: [u64; 2],
    result_region: u64,
    which: usize,
    ranks: Vec<u32>,
}

impl ReplicaActor {
    fn build(
        setup: &ExperimentSetup,
        engine: ReplicaEngine,
        index_keys: &[u32],
        sink: NodeId,
        ack_dispatcher: bool,
    ) -> Self {
        let m = &setup.machine;
        let mut space = AddressSpace::new();
        let tree_base = space.alloc_lines(0);
        let tree = CsbTree::with_leaf_entries(
            index_keys,
            m.keys_per_node(),
            m.leaf_entries_per_line(),
            m.l2.line_bytes,
            tree_base,
            m.comp_cost_node_ns,
        );
        space.alloc_lines(tree.footprint_bytes());
        let buffered = match engine {
            ReplicaEngine::Naive => None,
            ReplicaEngine::Buffered => Some(BufferedLookup::for_cache(
                &tree,
                m.l2.size_bytes,
                setup.fill_factor,
                &mut space,
                setup.batch_keys(),
            )),
        };
        let msg_bytes = setup.batch_bytes as u64;
        let msg_regions = [space.alloc_pages(msg_bytes), space.alloc_pages(msg_bytes)];
        let result_region = space.alloc_pages(msg_bytes);
        Self {
            tree,
            buffered,
            mem: node_memory(setup),
            sink,
            dispatcher: 0,
            ack_dispatcher,
            model_receive_pollution: setup.model_receive_pollution,
            msg_regions,
            result_region,
            which: 0,
            ranks: Vec::with_capacity(setup.batch_keys()),
        }
    }
}

impl Actor<DMsg> for ReplicaActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, DMsg>, _from: NodeId, bytes: u64, payload: DMsg) {
        let DMsg::Batch { sent_ns, keys } = payload else {
            unreachable!("replicas only receive batches");
        };
        let region = self.msg_regions[self.which];
        if self.model_receive_pollution && ctx.pending_messages() > 0 {
            let next = self.msg_regions[1 - self.which];
            self.mem.touch(next, bytes as u32, AccessKind::Pollute);
        }
        let mut ns = stream(&mut self.mem, region, (keys.len() * 4) as u32, false);
        match &mut self.buffered {
            None => {
                self.ranks.clear();
                self.ranks.reserve(keys.len());
                for &k in &keys {
                    let (r, c) = self.tree.rank(k, &mut self.mem);
                    self.ranks.push(r);
                    ns += c;
                }
            }
            Some(b) => {
                ns += b.rank_batch(&self.tree, &keys, &mut self.ranks, &mut self.mem);
            }
        }
        ns += stream(&mut self.mem, self.result_region, (self.ranks.len() * 4) as u32, true);
        ctx.busy(ns);
        ctx.send(
            self.sink,
            (self.ranks.len() * 4) as u64,
            DMsg::Results { sent_ns, ranks: std::mem::take(&mut self.ranks) },
        );
        if self.ack_dispatcher {
            ctx.send(self.dispatcher, 8, DMsg::Ack);
        }
        self.which = 1 - self.which;
    }
}

#[derive(Default)]
struct SinkActor {
    results_in: u64,
    checksum: u64,
    rtt: dini_cluster::LogHistogram,
}

impl Actor<DMsg> for SinkActor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, DMsg>, _from: NodeId, _bytes: u64, payload: DMsg) {
        let DMsg::Results { sent_ns, ranks } = payload else {
            unreachable!("the sink only receives results");
        };
        self.rtt.record(ctx.now() - sent_ns);
        self.results_in += ranks.len() as u64;
        for r in ranks {
            self.checksum = self.checksum.wrapping_add(r as u64);
        }
    }
}

struct DispatcherActor<'a> {
    setup: &'a ExperimentSetup,
    keys: &'a [u32],
    policy: LoadBalance,
    mem: SimMemory,
    in_base: u64,
    out_base: u64,
    /// WorkPull state: batches not yet sent (as index ranges).
    pending: std::collections::VecDeque<(usize, usize)>,
    rng: u64,
}

impl<'a> DispatcherActor<'a> {
    fn build(setup: &'a ExperimentSetup, policy: LoadBalance, keys: &'a [u32]) -> Self {
        let mut space = AddressSpace::new();
        let in_base = space.alloc_pages(keys.len() as u64 * 4);
        let out_base = space.alloc_pages(setup.batch_bytes as u64);
        Self {
            setup,
            keys,
            policy,
            mem: node_memory(setup),
            in_base,
            out_base,
            pending: std::collections::VecDeque::new(),
            rng: match policy {
                LoadBalance::Random { seed } => seed | 1,
                _ => 1,
            },
        }
    }

    #[inline]
    fn next_random(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32
    }

    /// Bill the batch's buffer traffic and send it to `replica`.
    fn send_batch(&mut self, lo: usize, hi: usize, replica: usize, ctx: &mut Ctx<'_, DMsg>) {
        let batch = self.keys[lo..hi].to_vec();
        let bytes = (batch.len() * 4) as u64;
        let mut ns = stream(&mut self.mem, self.in_base + lo as u64 * 4, bytes as u32, false);
        ns += stream(&mut self.mem, self.out_base, bytes as u32, true);
        ctx.busy(ns);
        ctx.send(1 + replica, bytes, DMsg::Batch { sent_ns: ctx.now(), keys: batch });
    }
}

impl Actor<DMsg> for DispatcherActor<'_> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, DMsg>) {
        let batch_keys = self.setup.batch_keys();
        let n = self.setup.n_slaves;
        let mut batches: Vec<(usize, usize)> = Vec::new();
        let mut lo = 0usize;
        while lo < self.keys.len() {
            let hi = (lo + batch_keys).min(self.keys.len());
            batches.push((lo, hi));
            lo = hi;
        }
        match self.policy {
            LoadBalance::RoundRobin => {
                for (i, (lo, hi)) in batches.into_iter().enumerate() {
                    self.send_batch(lo, hi, i % n, ctx);
                }
            }
            LoadBalance::Random { .. } => {
                for (lo, hi) in batches {
                    let r = (self.next_random() as usize) % n;
                    self.send_batch(lo, hi, r, ctx);
                }
            }
            LoadBalance::WorkPull { credits } => {
                assert!(credits >= 1, "WorkPull needs at least one credit");
                self.pending = batches.into();
                'seed: for _ in 0..credits {
                    for r in 0..n {
                        let Some((lo, hi)) = self.pending.pop_front() else {
                            break 'seed;
                        };
                        self.send_batch(lo, hi, r, ctx);
                    }
                }
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DMsg>, from: NodeId, _bytes: u64, payload: DMsg) {
        debug_assert!(matches!(payload, DMsg::Ack), "dispatcher only receives acks");
        if let Some((lo, hi)) = self.pending.pop_front() {
            self.send_batch(lo, hi, from - 1, ctx);
        }
    }
}

/// Run Method A or B as an *actually distributed* replicated deployment:
/// one dispatcher, `setup.n_slaves` replicas (each holding the full
/// tree), per-replica unmeasured sinks. Returns honest cluster makespan —
/// no free-normalisation — so the gap to `run_method_a`/`b` is exactly
/// the load-balancing + networking cost the paper assumes away.
pub fn run_replicated_distributed(
    setup: &ExperimentSetup,
    engine: ReplicaEngine,
    policy: LoadBalance,
    index_keys: &[u32],
    search_keys: &[u32],
) -> RunStats {
    setup.validate();
    let n = setup.n_slaves;
    let ack = matches!(policy, LoadBalance::WorkPull { .. });

    let mut replicas: Vec<ReplicaActor> =
        (0..n).map(|j| ReplicaActor::build(setup, engine, index_keys, 1 + n + j, ack)).collect();
    let mut dispatcher = DispatcherActor::build(setup, policy, search_keys);
    let mut sinks: Vec<SinkActor> = (0..n).map(|_| SinkActor::default()).collect();

    let mut sim = SimCluster::new(setup.network);
    if let Some(sw) = setup.switch {
        sim = sim.with_switch(sw);
    }
    let mut actors: Vec<&mut dyn Actor<DMsg>> = Vec::with_capacity(1 + 2 * n);
    actors.push(&mut dispatcher);
    for r in &mut replicas {
        actors.push(r);
    }
    for s in &mut sinks {
        actors.push(s);
    }
    let report = sim.run(&mut actors);

    let n_keys = search_keys.len() as u64;
    let results_in: u64 = sinks.iter().map(|s| s.results_in).sum();
    debug_assert_eq!(results_in, n_keys, "every query must produce a result");
    let checksum = sinks.iter().fold(0u64, |acc, s| acc.wrapping_add(s.checksum));
    let mut rtt = dini_cluster::LogHistogram::new();
    for s in &sinks {
        rtt.merge(&s.rtt);
    }
    let mut mem_stats = dini_cache_sim::AccessStats::default();
    mem_stats.merge(dispatcher.mem.stats());
    for r in &replicas {
        mem_stats.merge(r.mem.stats());
    }

    RunStats {
        method: match engine {
            ReplicaEngine::Naive => MethodId::A,
            ReplicaEngine::Buffered => MethodId::B,
        },
        batch_bytes: setup.batch_bytes,
        n_keys,
        search_time_s: report.makespan_ns * 1e-9,
        per_key_ns: if n_keys == 0 { 0.0 } else { report.makespan_ns / n_keys as f64 },
        slave_idle: report.mean_idle(1..1 + n),
        master_idle: report.mean_idle(0..1),
        msgs: report.total_msgs,
        net_bytes: report.total_bytes,
        mem: mem_stats,
        batch_rtt_mean_ns: rtt.mean(),
        batch_rtt_p99_ns: rtt.p99(),
        rank_checksum: checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::run_method_a;
    use dini_index::traits::oracle_rank;
    use dini_workload::{gen_search_keys, gen_sorted_unique_keys};

    fn setup(batch: usize) -> ExperimentSetup {
        ExperimentSetup { n_index_keys: 100_000, batch_bytes: batch, ..ExperimentSetup::paper() }
    }

    fn workload(s: &ExperimentSetup, n: usize) -> (Vec<u32>, Vec<u32>) {
        (gen_sorted_unique_keys(s.n_index_keys, 21), gen_search_keys(n, 22))
    }

    #[test]
    fn all_policies_compute_the_oracle_checksum() {
        let s = setup(16 * 1024);
        let (idx, q) = workload(&s, 50_000);
        let want: u64 = q.iter().map(|&k| oracle_rank(&idx, k) as u64).sum();
        for policy in [
            LoadBalance::RoundRobin,
            LoadBalance::Random { seed: 7 },
            LoadBalance::WorkPull { credits: 2 },
        ] {
            let r = run_replicated_distributed(&s, ReplicaEngine::Naive, policy, &idx, &q);
            assert_eq!(r.rank_checksum, want, "{policy:?}");
            assert_eq!(r.n_keys, 50_000);
        }
    }

    #[test]
    fn buffered_replicas_match_naive_answers() {
        let s = setup(64 * 1024);
        let (idx, q) = workload(&s, 100_000);
        let a =
            run_replicated_distributed(&s, ReplicaEngine::Naive, LoadBalance::RoundRobin, &idx, &q);
        let b = run_replicated_distributed(
            &s,
            ReplicaEngine::Buffered,
            LoadBalance::RoundRobin,
            &idx,
            &q,
        );
        assert_eq!(a.rank_checksum, b.rank_checksum);
    }

    #[test]
    fn real_dispatch_is_slower_than_the_papers_free_ideal() {
        // The paper's normalization assumes load balancing costs nothing.
        // An actual dispatcher adds network transfer + per-message
        // overhead, so the honest deployment can't beat the ideal.
        let s = setup(32 * 1024);
        let (idx, q) = workload(&s, 1 << 18);
        let ideal = run_method_a(&s, &idx, &q);
        let real =
            run_replicated_distributed(&s, ReplicaEngine::Naive, LoadBalance::RoundRobin, &idx, &q);
        assert!(
            real.search_time_s > ideal.search_time_s,
            "real {} vs ideal {}",
            real.search_time_s,
            ideal.search_time_s
        );
    }

    #[test]
    fn round_robin_beats_random_on_uniform_batches() {
        let s = setup(16 * 1024);
        let (idx, q) = workload(&s, 1 << 18);
        let rr =
            run_replicated_distributed(&s, ReplicaEngine::Naive, LoadBalance::RoundRobin, &idx, &q);
        let rnd = run_replicated_distributed(
            &s,
            ReplicaEngine::Naive,
            LoadBalance::Random { seed: 3 },
            &idx,
            &q,
        );
        assert!(
            rr.search_time_s <= rnd.search_time_s,
            "RR {} vs random {}",
            rr.search_time_s,
            rnd.search_time_s
        );
    }

    #[test]
    fn work_pull_is_competitive_with_round_robin() {
        let s = setup(16 * 1024);
        let (idx, q) = workload(&s, 1 << 18);
        let rr =
            run_replicated_distributed(&s, ReplicaEngine::Naive, LoadBalance::RoundRobin, &idx, &q);
        let wp = run_replicated_distributed(
            &s,
            ReplicaEngine::Naive,
            LoadBalance::WorkPull { credits: 2 },
            &idx,
            &q,
        );
        // Homogeneous replicas: pull ≈ round-robin, within 20 % either way
        // (acks cost a little; adaptivity buys nothing here).
        let ratio = wp.search_time_s / rr.search_time_s;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn work_pull_drains_everything() {
        // More batches than credits × replicas: the ack path must keep
        // feeding until the queue empties.
        let s = setup(8 * 1024);
        let (idx, q) = workload(&s, 200_000);
        let r = run_replicated_distributed(
            &s,
            ReplicaEngine::Naive,
            LoadBalance::WorkPull { credits: 1 },
            &idx,
            &q,
        );
        assert_eq!(r.n_keys, 200_000);
        // 8 KB batches → 98 batches; each also acks.
        assert!(r.msgs > 150, "{} msgs", r.msgs);
    }

    #[test]
    fn rtt_is_measured() {
        let s = setup(32 * 1024);
        let (idx, q) = workload(&s, 1 << 17);
        let r =
            run_replicated_distributed(&s, ReplicaEngine::Naive, LoadBalance::RoundRobin, &idx, &q);
        assert!(r.batch_rtt_mean_ns > 0.0);
        assert!(r.batch_rtt_p99_ns >= r.batch_rtt_mean_ns * 0.5);
    }
}
