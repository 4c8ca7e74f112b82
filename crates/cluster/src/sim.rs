//! Deterministic discrete-event cluster simulator.
//!
//! Nodes are [`Actor`]s. Each node processes one message at a time
//! (single CPU per node, like the paper's per-processor MPI ranks);
//! messages queue while the node is busy. Sends are **non-blocking**
//! (MPI_Isend with DMA, as the paper uses): the sender's CPU pays only the
//! per-message software overhead, while the transfer itself is serialised
//! on the sender's NIC/link and the receiver's ingress link — so
//! communication overlaps computation exactly as the paper assumes
//! ("communication can overlap with computation").
//!
//! Time is `f64` nanoseconds. Event ordering is deterministic: ties break
//! on an insertion sequence number, so identical runs produce identical
//! schedules bit-for-bit.
//!
//! Beyond the paper's needs the simulator supports:
//!
//! * **timers** — [`Ctx::schedule`] delivers a payload back to the same
//!   node via [`Actor::on_timer`]; the building block for retransmission
//!   and failover protocols;
//! * **fault injection** — a seeded [`FaultPlan`] can drop, duplicate,
//!   and jitter messages and crash nodes ([`SimCluster::with_faults`]);
//! * **a capacity-limited switch** — [`SwitchModel`] serialises all
//!   traffic on a shared backplane, ablating the paper's
//!   "aggregate network bandwidth is unlimited" assumption
//!   ([`SimCluster::with_switch`]);
//! * **message tracing** — [`SimCluster::run_traced`] returns the full
//!   per-message schedule for latency analysis and debugging.

use crate::fault::{FaultPlan, FaultState, MsgFate};
use crate::network::NetworkModel;
use crate::switch::SwitchModel;
use std::collections::{BinaryHeap, VecDeque};

/// Index of a node in the cluster.
pub type NodeId = usize;

/// A node behaviour. `P` is the protocol payload type.
pub trait Actor<P> {
    /// Called once at t = 0. Long-running source actors (the master) do
    /// all their work here, issuing sends at the correct simulated
    /// offsets.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, P>) {}

    /// Called when a message is processed (after queueing + receive
    /// overhead).
    fn on_message(&mut self, ctx: &mut Ctx<'_, P>, from: NodeId, bytes: u64, payload: P);

    /// Called when a timer scheduled via [`Ctx::schedule`] fires. Default:
    /// ignore.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, P>, _payload: P) {}
}

/// Handler-side context: charge CPU time, send messages, set timers,
/// observe the clock.
pub struct Ctx<'a, P> {
    node: NodeId,
    handler_start: f64,
    elapsed: f64,
    pending: usize,
    send_overhead: f64,
    outbox: &'a mut Vec<OutMsg<P>>,
    timerbox: &'a mut Vec<TimerReq<P>>,
}

struct OutMsg<P> {
    issue_offset: f64,
    to: NodeId,
    bytes: u64,
    payload: P,
}

struct TimerReq<P> {
    fire_offset: f64,
    payload: P,
}

impl<'a, P> Ctx<'a, P> {
    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time (handler start + CPU consumed so far).
    pub fn now(&self) -> f64 {
        self.handler_start + self.elapsed
    }

    /// Consume `ns` of CPU time.
    pub fn busy(&mut self, ns: f64) {
        debug_assert!(ns >= 0.0 && ns.is_finite(), "bad busy charge: {ns}");
        self.elapsed += ns;
    }

    /// Non-blocking send: charges the per-message send overhead to this
    /// CPU and hands the message to the NIC at the current offset.
    pub fn send(&mut self, to: NodeId, bytes: u64, payload: P) {
        self.elapsed += self.send_overhead;
        self.outbox.push(OutMsg { issue_offset: self.elapsed, to, bytes, payload });
    }

    /// Schedule `payload` to be delivered to this node's
    /// [`Actor::on_timer`] after `delay_ns` of simulated time (measured
    /// from the current instant). Timers cost no CPU to set and are not
    /// subject to network faults, but a crashed node never fires them.
    pub fn schedule(&mut self, delay_ns: f64, payload: P) {
        debug_assert!(delay_ns >= 0.0 && delay_ns.is_finite(), "bad delay: {delay_ns}");
        self.timerbox.push(TimerReq { fire_offset: self.elapsed + delay_ns, payload });
    }

    /// Messages already queued behind the one being processed — lets
    /// actors model overlapped-receive cache pollution only when a next
    /// message is actually in flight.
    pub fn pending_messages(&self) -> usize {
        self.pending
    }
}

/// Per-node accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeReport {
    /// CPU time consumed (handler work + per-message overheads).
    pub busy_ns: f64,
    /// Messages received and processed.
    pub msgs_in: u64,
    /// Messages sent.
    pub msgs_out: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Time the node finished its last handler.
    pub last_active_ns: f64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Messages/timers discarded because this node had crashed.
    pub discarded: u64,
}

impl NodeReport {
    /// Idle fraction relative to the run makespan.
    pub fn idle_fraction(&self, makespan_ns: f64) -> f64 {
        if makespan_ns <= 0.0 {
            0.0
        } else {
            (1.0 - self.busy_ns / makespan_ns).max(0.0)
        }
    }
}

/// Result of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Time of the last event in the system.
    pub makespan_ns: f64,
    /// Per-node accounting.
    pub nodes: Vec<NodeReport>,
    /// Total messages delivered.
    pub total_msgs: u64,
    /// Total payload bytes moved.
    pub total_bytes: u64,
    /// Messages lost to fault injection (network drops + crashed-node
    /// discards). Always 0 without a [`FaultPlan`].
    pub total_dropped: u64,
}

impl SimReport {
    /// Mean idle fraction over a set of nodes (e.g. the slaves).
    pub fn mean_idle(&self, ids: impl IntoIterator<Item = NodeId>) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for id in ids {
            sum += self.nodes[id].idle_fraction(self.makespan_ns);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// One message's life in a traced run ([`SimCluster::run_traced`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgRecord {
    /// Sender node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Payload size.
    pub bytes: u64,
    /// Time the sender's CPU issued the send.
    pub issued_ns: f64,
    /// Delivery time at the receiver's queue; `None` if dropped in flight.
    pub delivered_ns: Option<f64>,
    /// True for the duplicate copy of a duplicated message.
    pub duplicate: bool,
}

impl MsgRecord {
    /// Network latency experienced (delivery − issue), if delivered.
    pub fn flight_ns(&self) -> Option<f64> {
        self.delivered_ns.map(|d| d - self.issued_ns)
    }
}

/// Heap event. Ordering: earliest time first, then insertion order.
struct Event<P> {
    time: f64,
    seq: u64,
    kind: EventKind<P>,
}

enum EventKind<P> {
    Deliver { to: NodeId, from: NodeId, bytes: u64, payload: P },
    TimerFire { node: NodeId, payload: P },
    BeginHandler { node: NodeId },
}

impl<P> PartialEq for Event<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<P> Eq for Event<P> {}
impl<P> PartialOrd for Event<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Event<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed for a min-heap via BinaryHeap (max-heap).
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What a node has queued for processing.
enum QueueItem<P> {
    Msg { arrival: f64, from: NodeId, bytes: u64, payload: P },
    Timer { payload: P },
}

struct NodeState<P> {
    free_at: f64,
    queue: VecDeque<QueueItem<P>>,
    handler_scheduled: bool,
    tx_link_free: f64,
    rx_link_free: f64,
    crash_at: Option<f64>,
    report: NodeReport,
}

impl<P> NodeState<P> {
    fn with_crash(crash_at: Option<f64>) -> Self {
        Self {
            free_at: 0.0,
            queue: VecDeque::new(),
            handler_scheduled: false,
            tx_link_free: 0.0,
            rx_link_free: 0.0,
            crash_at,
            report: NodeReport::default(),
        }
    }

    #[inline]
    fn crashed_at(&self, t: f64) -> bool {
        self.crash_at.is_some_and(|c| t >= c)
    }
}

/// The simulator. Owns network parameters; actors are supplied per run.
pub struct SimCluster {
    network: NetworkModel,
    faults: FaultPlan,
    switch: Option<SwitchModel>,
}

/// Internal per-run mutable shared state for `flush_outbox`.
struct RunShared<P> {
    heap: BinaryHeap<Event<P>>,
    seq: u64,
    fabric_free: f64,
    faults: Option<FaultState>,
    trace: Option<Vec<MsgRecord>>,
    dropped: u64,
}

impl SimCluster {
    /// A cluster over the given network, fault-free, unlimited backplane.
    pub fn new(network: NetworkModel) -> Self {
        Self { network, faults: FaultPlan::none(), switch: None }
    }

    /// Inject faults per `plan` (seeded, deterministic).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Serialise all traffic on a shared switch backplane.
    pub fn with_switch(mut self, switch: SwitchModel) -> Self {
        self.switch = Some(switch);
        self
    }

    /// The network in force.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Run to quiescence. `actors[i]` is node `i`.
    ///
    /// `P: Clone` is required only so fault injection can deliver
    /// duplicates; protocol payloads are never cloned on the fault-free
    /// path.
    pub fn run<P: Clone>(&self, actors: &mut [&mut dyn Actor<P>]) -> SimReport {
        self.run_inner(actors, false).0
    }

    /// Run to quiescence, recording every message's issue/delivery times.
    pub fn run_traced<P: Clone>(
        &self,
        actors: &mut [&mut dyn Actor<P>],
    ) -> (SimReport, Vec<MsgRecord>) {
        let (report, trace) = self.run_inner(actors, true);
        (report, trace.expect("tracing was enabled"))
    }

    fn run_inner<P: Clone>(
        &self,
        actors: &mut [&mut dyn Actor<P>],
        traced: bool,
    ) -> (SimReport, Option<Vec<MsgRecord>>) {
        let n = actors.len();
        let mut nodes: Vec<NodeState<P>> =
            (0..n).map(|i| NodeState::with_crash(self.faults.crash_time(i))).collect();
        let mut shared = RunShared {
            heap: BinaryHeap::new(),
            seq: 0,
            fabric_free: 0.0,
            faults: if self.faults.is_noop() { None } else { Some(self.faults.state()) },
            trace: traced.then(Vec::new),
            dropped: 0,
        };
        let mut makespan = 0.0f64;
        let mut total_msgs = 0u64;
        let mut total_bytes = 0u64;
        let mut outbox: Vec<OutMsg<P>> = Vec::new();
        let mut timerbox: Vec<TimerReq<P>> = Vec::new();

        // t = 0: every node's on_start, in id order (deterministic).
        for (id, actor) in actors.iter_mut().enumerate() {
            let mut ctx = Ctx {
                node: id,
                handler_start: 0.0,
                elapsed: 0.0,
                pending: 0,
                send_overhead: self.network.send_overhead_ns,
                outbox: &mut outbox,
                timerbox: &mut timerbox,
            };
            actor.on_start(&mut ctx);
            let elapsed = ctx.elapsed;
            nodes[id].free_at = elapsed;
            nodes[id].report.busy_ns += elapsed;
            nodes[id].report.last_active_ns = elapsed;
            makespan = makespan.max(elapsed);
            self.flush_outbox(0.0, id, &mut outbox, &mut nodes, &mut shared);
            Self::flush_timers(0.0, id, &mut timerbox, &mut shared);
        }

        // Event loop.
        while let Some(ev) = shared.heap.pop() {
            makespan = makespan.max(ev.time);
            match ev.kind {
                EventKind::Deliver { to, from, bytes, payload } => {
                    nodes[to].queue.push_back(QueueItem::Msg {
                        arrival: ev.time,
                        from,
                        bytes,
                        payload,
                    });
                    Self::ensure_handler(&mut nodes[to], to, ev.time, &mut shared);
                }
                EventKind::TimerFire { node, payload } => {
                    nodes[node].queue.push_back(QueueItem::Timer { payload });
                    Self::ensure_handler(&mut nodes[node], node, ev.time, &mut shared);
                }
                EventKind::BeginHandler { node } => {
                    let item = nodes[node]
                        .queue
                        .pop_front()
                        .expect("scheduled handler without queued work");
                    let start = ev.time;

                    // A crashed node silently discards everything.
                    if nodes[node].crashed_at(start) {
                        nodes[node].report.discarded += 1;
                        shared.dropped += 1;
                        Self::chain_or_clear(&mut nodes[node], node, start, &mut shared);
                        continue;
                    }

                    let pending = nodes[node].queue.len();
                    let (handler_start, elapsed, msg_meta) = match item {
                        QueueItem::Msg { arrival, from, bytes, payload } => {
                            debug_assert!(arrival <= start + 1e-6);
                            let hs = start + self.network.recv_overhead_ns;
                            let mut ctx = Ctx {
                                node,
                                handler_start: hs,
                                elapsed: 0.0,
                                pending,
                                send_overhead: self.network.send_overhead_ns,
                                outbox: &mut outbox,
                                timerbox: &mut timerbox,
                            };
                            actors[node].on_message(&mut ctx, from, bytes, payload);
                            (hs, ctx.elapsed, Some(bytes))
                        }
                        QueueItem::Timer { payload } => {
                            let hs = start; // timers skip the receive path
                            let mut ctx = Ctx {
                                node,
                                handler_start: hs,
                                elapsed: 0.0,
                                pending,
                                send_overhead: self.network.send_overhead_ns,
                                outbox: &mut outbox,
                                timerbox: &mut timerbox,
                            };
                            actors[node].on_timer(&mut ctx, payload);
                            (hs, ctx.elapsed, None)
                        }
                    };

                    let end = handler_start + elapsed;
                    {
                        let st = &mut nodes[node];
                        st.free_at = end;
                        st.report.busy_ns += (handler_start - start) + elapsed;
                        st.report.last_active_ns = end;
                        match msg_meta {
                            Some(bytes) => {
                                st.report.msgs_in += 1;
                                st.report.bytes_in += bytes;
                                total_msgs += 1;
                                total_bytes += bytes;
                            }
                            None => st.report.timers_fired += 1,
                        }
                    }
                    makespan = makespan.max(end);
                    self.flush_outbox(handler_start, node, &mut outbox, &mut nodes, &mut shared);
                    Self::flush_timers(handler_start, node, &mut timerbox, &mut shared);
                    Self::chain_or_clear(&mut nodes[node], node, end, &mut shared);
                }
            }
        }

        (
            SimReport {
                makespan_ns: makespan,
                nodes: nodes.into_iter().map(|s| s.report).collect(),
                total_msgs,
                total_bytes,
                total_dropped: shared.dropped,
            },
            shared.trace,
        )
    }

    /// Schedule the node's next handler if work is queued, else clear the
    /// scheduled flag.
    fn chain_or_clear<P>(st: &mut NodeState<P>, node: NodeId, now: f64, shared: &mut RunShared<P>) {
        if st.queue.front().is_some() {
            let t = now.max(st.free_at);
            shared.seq += 1;
            shared.heap.push(Event {
                time: t,
                seq: shared.seq,
                kind: EventKind::BeginHandler { node },
            });
        } else {
            st.handler_scheduled = false;
        }
    }

    fn ensure_handler<P>(st: &mut NodeState<P>, node: NodeId, now: f64, shared: &mut RunShared<P>) {
        if !st.handler_scheduled {
            st.handler_scheduled = true;
            let t = now.max(st.free_at);
            shared.seq += 1;
            shared.heap.push(Event {
                time: t,
                seq: shared.seq,
                kind: EventKind::BeginHandler { node },
            });
        }
    }

    /// Turn queued sends into Deliver events: serialise on the sender's
    /// TX link, (optionally) the shared switch backplane, add latency,
    /// then serialise on the receiver's ingress.
    fn flush_outbox<P: Clone>(
        &self,
        handler_start: f64,
        sender: NodeId,
        outbox: &mut Vec<OutMsg<P>>,
        nodes: &mut [NodeState<P>],
        shared: &mut RunShared<P>,
    ) {
        let net = &self.network;
        for m in outbox.drain(..) {
            let fate = match &mut shared.faults {
                Some(f) => f.next_fate(),
                None => MsgFate::CLEAN,
            };

            let transfer = net.transfer_ns(m.bytes);
            let issue = handler_start + m.issue_offset;
            let tx_start = issue.max(nodes[sender].tx_link_free);
            let tx_end = tx_start + transfer;
            nodes[sender].tx_link_free = tx_end;
            nodes[sender].report.msgs_out += 1;
            nodes[sender].report.bytes_out += m.bytes;

            if fate.dropped {
                shared.dropped += 1;
                if let Some(tr) = &mut shared.trace {
                    tr.push(MsgRecord {
                        from: sender,
                        to: m.to,
                        bytes: m.bytes,
                        issued_ns: issue,
                        delivered_ns: None,
                        duplicate: false,
                    });
                }
                continue;
            }

            // Switch fabric: store-and-forward serialisation on the shared
            // backplane (conservative). Without a switch the message cuts
            // through: first byte reaches the receiver after latency.
            let fabric_end = match &self.switch {
                Some(sw) => {
                    let fs = tx_end.max(shared.fabric_free);
                    let fe = fs + sw.occupancy_ns(m.bytes);
                    shared.fabric_free = fe;
                    fe - transfer // align with the cut-through convention below
                }
                None => tx_start,
            };

            let base_ingress = fabric_end + net.latency_ns + fate.jitter_ns;
            let ingress_start = base_ingress.max(nodes[m.to].rx_link_free);
            let arrival = ingress_start + transfer;
            nodes[m.to].rx_link_free = arrival;
            shared.seq += 1;
            if let Some(tr) = &mut shared.trace {
                tr.push(MsgRecord {
                    from: sender,
                    to: m.to,
                    bytes: m.bytes,
                    issued_ns: issue,
                    delivered_ns: Some(arrival),
                    duplicate: false,
                });
            }
            let payload_dup = fate.duplicated.then(|| m.payload.clone());
            shared.heap.push(Event {
                time: arrival,
                seq: shared.seq,
                kind: EventKind::Deliver {
                    to: m.to,
                    from: sender,
                    bytes: m.bytes,
                    payload: m.payload,
                },
            });

            if let Some(payload) = payload_dup {
                // The duplicate trails the original by one extra jitter
                // window (or immediately on a jitter-free plan).
                let extra = shared.faults.as_ref().map(|f| f.jitter_max_ns()).unwrap_or(0.0);
                let dup_ingress = (arrival + extra).max(nodes[m.to].rx_link_free);
                let dup_arrival = dup_ingress + transfer;
                nodes[m.to].rx_link_free = dup_arrival;
                shared.seq += 1;
                if let Some(tr) = &mut shared.trace {
                    tr.push(MsgRecord {
                        from: sender,
                        to: m.to,
                        bytes: m.bytes,
                        issued_ns: issue,
                        delivered_ns: Some(dup_arrival),
                        duplicate: true,
                    });
                }
                shared.heap.push(Event {
                    time: dup_arrival,
                    seq: shared.seq,
                    kind: EventKind::Deliver { to: m.to, from: sender, bytes: m.bytes, payload },
                });
            }
        }
    }

    fn flush_timers<P>(
        handler_start: f64,
        node: NodeId,
        timerbox: &mut Vec<TimerReq<P>>,
        shared: &mut RunShared<P>,
    ) {
        for t in timerbox.drain(..) {
            shared.seq += 1;
            shared.heap.push(Event {
                time: handler_start + t.fire_offset,
                seq: shared.seq,
                kind: EventKind::TimerFire { node, payload: t.payload },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Master sends `n` equal messages to one slave; slave burns fixed CPU
    /// per message.
    struct Src {
        to: NodeId,
        n: usize,
        bytes: u64,
        cpu_per_msg: f64,
    }
    impl Actor<u64> for Src {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for i in 0..self.n {
                ctx.busy(self.cpu_per_msg);
                ctx.send(self.to, self.bytes, i as u64);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64, _: u64) {}
    }

    struct Sink {
        cpu_per_msg: f64,
        got: Vec<u64>,
        max_pending: usize,
    }
    impl Actor<u64> for Sink {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _: NodeId, _: u64, p: u64) {
            self.max_pending = self.max_pending.max(ctx.pending_messages());
            ctx.busy(self.cpu_per_msg);
            self.got.push(p);
        }
    }

    fn net_zero_overhead() -> NetworkModel {
        NetworkModel {
            name: "test",
            bandwidth: 1.0, // 1 byte/ns
            latency_ns: 100.0,
            send_overhead_ns: 0.0,
            recv_overhead_ns: 0.0,
        }
    }

    #[test]
    fn messages_arrive_in_order_and_all() {
        let mut src = Src { to: 1, n: 10, bytes: 1000, cpu_per_msg: 50.0 };
        let mut sink = Sink { cpu_per_msg: 10.0, got: Vec::new(), max_pending: 0 };
        let sim = SimCluster::new(net_zero_overhead());
        let report = sim.run::<u64>(&mut [&mut src, &mut sink]);
        assert_eq!(sink.got, (0..10).collect::<Vec<u64>>());
        assert_eq!(report.total_msgs, 10);
        assert_eq!(report.total_bytes, 10_000);
        assert_eq!(report.nodes[1].msgs_in, 10);
        assert_eq!(report.nodes[0].msgs_out, 10);
        assert_eq!(report.total_dropped, 0);
    }

    #[test]
    fn tx_link_serialises_sends() {
        // 10 × 1000-byte messages at 1 B/ns issued instantly: the wire
        // alone takes 10 × 1000 ns; last arrival ≥ 10 000 + latency.
        let mut src = Src { to: 1, n: 10, bytes: 1000, cpu_per_msg: 0.0 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let sim = SimCluster::new(net_zero_overhead());
        let report = sim.run::<u64>(&mut [&mut src, &mut sink]);
        assert!(report.makespan_ns >= 10_000.0 + 100.0 - 1e-6, "{}", report.makespan_ns);
    }

    #[test]
    fn slow_consumer_accumulates_queue() {
        // CPU-bound sink (10 000 ns/msg) behind a fast wire: messages pile
        // up, pending > 0 observed, and makespan is consumer-bound.
        let mut src = Src { to: 1, n: 20, bytes: 100, cpu_per_msg: 0.0 };
        let mut sink = Sink { cpu_per_msg: 10_000.0, got: Vec::new(), max_pending: 0 };
        let sim = SimCluster::new(net_zero_overhead());
        let report = sim.run::<u64>(&mut [&mut src, &mut sink]);
        assert!(sink.max_pending > 0);
        assert!(report.makespan_ns >= 20.0 * 10_000.0);
        // Sink busy the whole tail: idle fraction small.
        assert!(report.nodes[1].idle_fraction(report.makespan_ns) < 0.05);
    }

    #[test]
    fn fast_consumer_idles_between_messages() {
        // Source CPU-bound at 10 000 ns/msg; sink needs 100 ns/msg → sink
        // idles ~99 % — the shape behind the paper's small-batch idle
        // observation.
        let mut src = Src { to: 1, n: 20, bytes: 100, cpu_per_msg: 10_000.0 };
        let mut sink = Sink { cpu_per_msg: 100.0, got: Vec::new(), max_pending: 0 };
        let sim = SimCluster::new(net_zero_overhead());
        let report = sim.run::<u64>(&mut [&mut src, &mut sink]);
        let idle = report.nodes[1].idle_fraction(report.makespan_ns);
        assert!(idle > 0.9, "idle {idle}");
    }

    #[test]
    fn send_and_recv_overheads_are_charged() {
        let mut net = net_zero_overhead();
        net.send_overhead_ns = 500.0;
        net.recv_overhead_ns = 300.0;
        let mut src = Src { to: 1, n: 4, bytes: 10, cpu_per_msg: 0.0 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let sim = SimCluster::new(net);
        let report = sim.run::<u64>(&mut [&mut src, &mut sink]);
        assert!((report.nodes[0].busy_ns - 4.0 * 500.0).abs() < 1e-6);
        assert!((report.nodes[1].busy_ns - 4.0 * 300.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic_schedule() {
        let run = || {
            let mut src = Src { to: 1, n: 50, bytes: 777, cpu_per_msg: 13.0 };
            let mut sink = Sink { cpu_per_msg: 29.0, got: Vec::new(), max_pending: 0 };
            let sim = SimCluster::new(NetworkModel::myrinet());
            sim.run::<u64>(&mut [&mut src, &mut sink]).makespan_ns
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn ingress_serialises_two_senders() {
        // Two sources each send one 10_000-byte message at t=0 to the same
        // sink over a 1 B/ns wire: the second arrival must wait for the
        // first to drain the ingress link.
        struct One {
            to: NodeId,
        }
        impl Actor<u64> for One {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.send(self.to, 10_000, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64, _: u64) {}
        }
        let mut a = One { to: 2 };
        let mut b = One { to: 2 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let sim = SimCluster::new(net_zero_overhead());
        let report = sim.run::<u64>(&mut [&mut a, &mut b, &mut sink]);
        // One transfer = 10 000 ns; two serialised = 20 000 + latency.
        assert!(report.makespan_ns >= 20_000.0, "{}", report.makespan_ns);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Schedules a chain of `n` timers, each 1000 ns apart, recording fire
    /// times.
    struct TimerChain {
        n: u64,
        fired_at: Vec<f64>,
    }
    impl Actor<u64> for TimerChain {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.schedule(1000.0, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64, _: u64) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, k: u64) {
            self.fired_at.push(ctx.now());
            if k + 1 < self.n {
                ctx.schedule(1000.0, k + 1);
            }
        }
    }

    #[test]
    fn timer_chain_fires_at_expected_times() {
        let mut t = TimerChain { n: 5, fired_at: Vec::new() };
        let sim = SimCluster::new(net_zero_overhead());
        let report = sim.run::<u64>(&mut [&mut t]);
        assert_eq!(t.fired_at.len(), 5);
        for (i, &at) in t.fired_at.iter().enumerate() {
            assert!((at - 1000.0 * (i as f64 + 1.0)).abs() < 1e-6, "timer {i} at {at}");
        }
        assert_eq!(report.nodes[0].timers_fired, 5);
        assert_eq!(report.total_msgs, 0, "timers are not messages");
    }

    #[test]
    fn timer_defers_to_busy_node() {
        // A 10 000-ns handler is running when the 1000-ns timer fires: the
        // timer must wait for the CPU.
        struct Busy {
            fired_at: f64,
        }
        impl Actor<u64> for Busy {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.schedule(1000.0, 0);
                ctx.busy(10_000.0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64, _: u64) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _: u64) {
                self.fired_at = ctx.now();
            }
        }
        let mut b = Busy { fired_at: 0.0 };
        let sim = SimCluster::new(net_zero_overhead());
        sim.run::<u64>(&mut [&mut b]);
        assert!(b.fired_at >= 10_000.0, "fired at {}", b.fired_at);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use crate::fault::FaultPlan;

    #[test]
    fn drops_reduce_deliveries_and_are_counted() {
        let mut src = Src { to: 1, n: 1000, bytes: 10, cpu_per_msg: 0.0 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let sim = SimCluster::new(net_zero_overhead()).with_faults(FaultPlan::with_drops(11, 0.5));
        let report = sim.run::<u64>(&mut [&mut src, &mut sink]);
        assert_eq!(report.total_msgs + report.total_dropped, 1000);
        assert!(
            report.total_dropped > 300 && report.total_dropped < 700,
            "dropped {}",
            report.total_dropped
        );
        assert_eq!(sink.got.len() as u64, report.total_msgs);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let mut src = Src { to: 1, n: 500, bytes: 10, cpu_per_msg: 0.0 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let plan = FaultPlan { duplicate_prob: 0.5, seed: 3, ..FaultPlan::none() };
        let sim = SimCluster::new(net_zero_overhead()).with_faults(plan);
        let report = sim.run::<u64>(&mut [&mut src, &mut sink]);
        assert!(
            report.total_msgs > 600 && report.total_msgs < 900,
            "delivered {}",
            report.total_msgs
        );
        assert_eq!(sink.got.len() as u64, report.total_msgs);
    }

    #[test]
    fn crashed_node_discards_after_crash_time() {
        // Source is CPU-paced at 1000 ns/msg; sink crashes at t = 5 µs, so
        // roughly the first five messages process and the rest discard.
        let mut src = Src { to: 1, n: 50, bytes: 10, cpu_per_msg: 1000.0 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let sim =
            SimCluster::new(net_zero_overhead()).with_faults(FaultPlan::none().crash(1, 5_000.0));
        let report = sim.run::<u64>(&mut [&mut src, &mut sink]);
        assert!(sink.got.len() < 10, "processed {}", sink.got.len());
        assert!(report.nodes[1].discarded > 40);
        assert_eq!(sink.got.len() as u64 + report.nodes[1].discarded, 50);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run = || {
            let mut src = Src { to: 1, n: 200, bytes: 64, cpu_per_msg: 5.0 };
            let mut sink = Sink { cpu_per_msg: 7.0, got: Vec::new(), max_pending: 0 };
            let plan = FaultPlan {
                seed: 99,
                drop_prob: 0.1,
                duplicate_prob: 0.1,
                jitter_max_ns: 300.0,
                crash_at_ns: Vec::new(),
            };
            let sim = SimCluster::new(NetworkModel::myrinet()).with_faults(plan);
            let r = sim.run::<u64>(&mut [&mut src, &mut sink]);
            (r.makespan_ns.to_bits(), r.total_msgs, r.total_dropped, sink.got)
        };
        assert_eq!(run(), run());
    }

    // ------------------------------------------------------------------
    // Switch backplane
    // ------------------------------------------------------------------

    #[test]
    fn narrow_backplane_serialises_disjoint_pairs() {
        // Two disjoint sender→receiver pairs. With per-node links only
        // they run fully in parallel; a backplane as slow as one link
        // must roughly double the makespan.
        struct One {
            to: NodeId,
        }
        impl Actor<u64> for One {
            fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
                ctx.send(self.to, 100_000, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64, _: u64) {}
        }
        let base = {
            let mut a = One { to: 2 };
            let mut b = One { to: 3 };
            let mut s1 = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
            let mut s2 = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
            SimCluster::new(net_zero_overhead())
                .run::<u64>(&mut [&mut a, &mut b, &mut s1, &mut s2])
                .makespan_ns
        };
        let switched = {
            let mut a = One { to: 2 };
            let mut b = One { to: 3 };
            let mut s1 = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
            let mut s2 = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
            SimCluster::new(net_zero_overhead())
                .with_switch(SwitchModel { backplane_bandwidth: 1.0, forward_delay_ns: 0.0 })
                .run::<u64>(&mut [&mut a, &mut b, &mut s1, &mut s2])
                .makespan_ns
        };
        assert!(switched > base * 1.4, "base {base}, switched {switched}");
    }

    #[test]
    fn wide_backplane_changes_little() {
        let mut src = Src { to: 1, n: 20, bytes: 1000, cpu_per_msg: 0.0 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let base =
            SimCluster::new(net_zero_overhead()).run::<u64>(&mut [&mut src, &mut sink]).makespan_ns;
        let mut src2 = Src { to: 1, n: 20, bytes: 1000, cpu_per_msg: 0.0 };
        let mut sink2 = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let wide = SimCluster::new(net_zero_overhead())
            .with_switch(SwitchModel { backplane_bandwidth: 1000.0, forward_delay_ns: 0.0 })
            .run::<u64>(&mut [&mut src2, &mut sink2])
            .makespan_ns;
        // A 1000× backplane adds at most a few percent (store-and-forward
        // nudge), never dominates.
        assert!(wide < base * 1.15, "base {base}, wide {wide}");
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    #[test]
    fn trace_records_every_message() {
        let mut src = Src { to: 1, n: 25, bytes: 512, cpu_per_msg: 10.0 };
        let mut sink = Sink { cpu_per_msg: 5.0, got: Vec::new(), max_pending: 0 };
        let sim = SimCluster::new(net_zero_overhead());
        let (report, trace) = sim.run_traced::<u64>(&mut [&mut src, &mut sink]);
        assert_eq!(trace.len(), 25);
        assert_eq!(report.total_msgs, 25);
        for rec in &trace {
            assert_eq!(rec.from, 0);
            assert_eq!(rec.to, 1);
            assert_eq!(rec.bytes, 512);
            let flight = rec.flight_ns().expect("delivered");
            // ≥ transfer (512 ns) + latency (100 ns).
            assert!(flight >= 612.0 - 1e-6, "flight {flight}");
        }
        // Issue times strictly increase (single sender, CPU-paced).
        for w in trace.windows(2) {
            assert!(w[0].issued_ns <= w[1].issued_ns);
        }
    }

    #[test]
    fn trace_marks_drops_and_duplicates() {
        let mut src = Src { to: 1, n: 400, bytes: 16, cpu_per_msg: 0.0 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let plan = FaultPlan {
            seed: 21,
            drop_prob: 0.25,
            duplicate_prob: 0.25,
            jitter_max_ns: 0.0,
            crash_at_ns: Vec::new(),
        };
        let sim = SimCluster::new(net_zero_overhead()).with_faults(plan);
        let (report, trace) = sim.run_traced::<u64>(&mut [&mut src, &mut sink]);
        let drops = trace.iter().filter(|r| r.delivered_ns.is_none()).count();
        let dups = trace.iter().filter(|r| r.duplicate).count();
        assert_eq!(drops as u64, report.total_dropped);
        assert!(drops > 50, "drops {drops}");
        assert!(dups > 50, "dups {dups}");
        // Delivered = originals-not-dropped + duplicates.
        assert_eq!(report.total_msgs as usize, (400 - drops) + dups);
    }

    #[test]
    fn jitter_reorders_nothing_on_single_link_but_delays() {
        // Ingress serialisation preserves order even under jitter; flight
        // times grow by up to the jitter bound.
        let mut src = Src { to: 1, n: 100, bytes: 8, cpu_per_msg: 50.0 };
        let mut sink = Sink { cpu_per_msg: 0.0, got: Vec::new(), max_pending: 0 };
        let sim =
            SimCluster::new(net_zero_overhead()).with_faults(FaultPlan::with_jitter(5, 2_000.0));
        let (_, trace) = sim.run_traced::<u64>(&mut [&mut src, &mut sink]);
        let max_flight = trace.iter().filter_map(MsgRecord::flight_ns).fold(0.0f64, f64::max);
        assert!(max_flight > 108.0, "jitter visible: {max_flight}");
        assert_eq!(sink.got.len(), 100);
    }
}
