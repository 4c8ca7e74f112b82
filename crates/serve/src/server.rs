//! The multi-tenant index server: shards, replica groups, dispatchers,
//! and the writer.
//!
//! Thread topology for an `n`-shard server with `R` replicas per shard —
//! `n·R` dispatchers and one writer, nothing else:
//!
//! ```text
//!  pipelined callers: [open group ≤ GROUP keys] ─┐ (full, or a member reaped)
//!                                                ▼
//!                                    ┌─ depth 0 → n: claimed ─► the caller pins the shard's snapshot,
//!                                    │                          ranks its own key(s), returns
//!  callers ──route(key) → p2c(depth)─┤                                          │ load()
//!    │                               └─ depth > 0 ─► [admission queue s·r] ─► dispatcher s·r ─► replies
//!    │                                                  (bounded,            (coalesces a batch, pins
//!    │                                                   shed-on-full)        the snapshot, ranks it)
//!    │                                                                              ▲ load()
//!    └──update(Op)──► writer ──DeltaArray per shard──► EpochCell s ─────────────────┘
//!                                                      (main array + overlay + base rank,
//!                                                       one publish, shared by replicas)
//! ```
//!
//! * **The shard is the paper's partition and its dispatcher the paper's
//!   slave**: the router's delimiter search is the master's dispatch,
//!   and a dispatcher answers its coalesced batch over one sorted piece
//!   with [`LineDirectory::rank_batch`](dini_index::LineDirectory) —
//!   in place, on its own thread. Parallelism inside a key range is
//!   expressed the one way there is: more shards (size `n_shards` so a
//!   shard's keys fit a core's L2).
//! * **The thread that has the keys ranks them, when it can**: the paper
//!   ships a key to another node because the search it buys there is
//!   cheaper than the hop, and a batch of one buys nothing — waking a
//!   parked dispatcher costs a hundred times the rank it then performs.
//!   "Idle" is read off the gauge the router already trusts: the chosen
//!   replica's depth. A caller that takes it 0 → n
//!   ([`AdmissionQueue::claim`]) found nothing queued and nothing in
//!   service; it pins the shard's snapshot, ranks on its own thread,
//!   folds the same accounting the dispatcher would have (served,
//!   admitted, batch size, heat, stage records with a wait of exactly
//!   zero), releases the claim and returns a resolved
//!   [`PendingLookup`] — no reply cell, no channel, no wake. A caller that
//!   finds depth > 0 queues as ever, which is where batches keep forming
//!   by themselves under concurrent load: the dispatcher keeps exactly
//!   the regime the paper argues for. No threshold, option or spin
//!   decides between the two. A slice of keys
//!   ([`ServerHandle::lookup_many`], a wire frame) is admitted shard by
//!   shard as a unit, so an idle replica's share of it is *one* batch
//!   through the kernel's lockstep groups. A replica with any fault
//!   scripted is never claimed: stragglers and crashes are dispatcher
//!   faults.
//! * **A pipelined caller ranks its own group**: a caller that still
//!   holds a lookup it began has a batch in hand, one key at a time.
//!   [`ServerHandle::begin_lookup`] then adds the key to the handle's
//!   open group ([`crate::group`]) of up to [`GROUP`] keys — the
//!   kernel's lockstep group, so no knob — which is ranked like a slice
//!   (one claim and one pinned rank per shard) when it fills or when one
//!   of its lookups is reaped. A lone lookup (nothing held) is ranked
//!   inside `begin_lookup`, as before: a paced caller's latency keeps
//!   the rank. The group's answers live in one pooled reply cell.
//! * **Replica groups**: each keyspace shard is served by
//!   `replicas_per_shard` replicated dispatchers. Replicas share one
//!   [`EpochCell`] — the shard's whole read state (main array behind
//!   its directory, overlay, base rank) is published once per shard —
//!   so a replica costs one dispatcher thread and **nothing else**.
//!   Routing picks the shard from the key
//!   (ranks must compose), then a replica by **power-of-two choices**
//!   on live queue depth ([`ReplicaSelector`]) — a straggling replica's
//!   depth grows and traffic flows around it.
//! * **Failover**: a replica whose fault schedule crashes it marks itself
//!   dead, then **re-routes** its collected batch and queued backlog to
//!   surviving replicas of the same shard — callers see degraded
//!   capacity, not errors. Only when a shard's *last* replica dies does
//!   its traffic resolve to [`ShuttingDown`](crate::ServeError::ShuttingDown).
//! * **Dispatchers** (one per replica) hold no index state between
//!   batches: each batch is answered from one [`EpochCell::load`] taken
//!   at service time, so the `(main, overlay)` pair it sees is
//!   consistent by construction; see [`crate::snapshot`]. The same
//!   holds for a claimant, which is why it can stand in: a shard's read
//!   state is one immutable value any thread may pin. A dispatcher is
//!   woken only by a request that lost a claim, and may serve it while
//!   the winner is still ranking — the two share the replica's sampler
//!   and nothing else (each writes its own stage-trace ring and its own
//!   set of counters and histograms, merged when stats are read).
//! * **The writer** (single thread) owns every shard's
//!   [`DeltaArray`], folds churn through it,
//!   publishes snapshots every `publish_every` ops (once per shard — the
//!   shared `EpochCell` *is* the fan-out), and on crossing
//!   `merge_threshold` merges and builds the merged array's directory on
//!   its own thread (readers keep serving the old epoch), then
//!   publishes the new main array like any other snapshot. Lookups
//!   therefore never block on writers. A merge copies the old main
//!   array in runs between delta entries
//!   ([`DeltaArray::merge_into`]) into the array the merge before it
//!   replaced, reclaimed by [`Arc::try_unwrap`] only when no reader
//!   still pins that epoch — so a steady merge is a memcpy into warm
//!   memory plus the directory pass, and a reader that lingers costs
//!   the writer one fresh allocation, never a wait.
//! * **Global ranks** compose across shards: the writer republishes every
//!   shard's `base_rank` (live keys in lower shards) with each snapshot
//!   wave, so a lookup in shard `s` returns
//!   `base_rank(s) + main_rank + overlay_adjust` — the paper's
//!   master/slave rank composition.

use crate::admission::AdmissionQueue;
use crate::batcher::{collect_batch_into, Request};
use crate::clock::{Clock, ClockJoinHandle};
use crate::config::{ServeConfig, ServeError};
use crate::faults::ReplicaFaults;
use crate::group::{Answers, Member, OpenGroup, Ranker, Shared, GROUP};
use crate::oneshot::{CellPool, Unanswered, Waiter};
use crate::router::{ReplicaSelector, ShardRouter};
use crate::snapshot::{EpochCell, ShardSnapshot};
use crate::stats::{replica_labels, ReplicaMetrics, ServeStats};
use dini_cache_sim::NullMemory;
use dini_flight::EventKind;
use dini_index::{DeltaArray, LineDirectory, RankIndex};
use dini_obs::{Counter, HeatMap, MetricsRegistry, MetricsSnapshot, StageRecord, HEAT_BUCKETS};
use dini_store::{write_snapshot, ShardRecord, SharedKeys, Snapshot, SpanRecord};
use dini_workload::Op;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// An idle dispatcher's housekeeping tick: shutdown flag, scripted crash
/// point, the `rebuilds` gauge. No request waits it out — a submit wakes
/// the dispatcher through its admission queue.
const IDLE_POLL: Duration = Duration::from_millis(10);

enum WriterMsg {
    Apply(Op),
    /// A coalesced churn-log batch, applied strictly in order (the
    /// transport layer's replicated-log apply path). `mark` is the
    /// churn-log watermark `(log_epoch, last_seq)` this batch advances
    /// the writer to — `None` for local, un-logged churn. The watermark
    /// is what checkpoints persist; replaying a log suffix past it is
    /// idempotent (membership ops: the last op per key wins), so a
    /// checkpoint taken mid-batch is still exactly recoverable.
    ApplyBatch {
        ops: Vec<Op>,
        mark: Option<(u64, u64)>,
    },
    Quiesce(SyncSender<()>),
}

/// The writer's accounting: one handle per series, registered once in
/// the server's registry and bumped by the single writer thread. The
/// server reads a few directly ([`IndexServer::len`],
/// [`IndexServer::snapshots_published`], the checkpoint counts).
#[derive(Clone)]
struct WriterMetrics {
    /// Mutations that changed the index (insert of an absent key, delete
    /// of a present one).
    updates: Counter,
    /// No-op mutations (duplicate insert, delete of an absent key):
    /// accepted, probed, but changed nothing — counted separately so
    /// `updates_applied` means what it says.
    nops: Counter,
    /// Coalesced churn-log batches received via `update_batch`.
    update_batches: Counter,
    snapshots: Counter,
    merges: Counter,
    /// Live keys as of the last publish: a level, not a count.
    live_keys: Counter,
    /// `dini-store` snapshot files written by the checkpointer.
    checkpoints: Counter,
    /// Checkpoint attempts that failed (I/O): serving continues — a
    /// full disk must never take the read path down — but the failure
    /// is counted, never swallowed silently.
    checkpoint_failures: Counter,
}

impl WriterMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        Self {
            updates: reg.counter("dini_serve_updates_applied", ""),
            nops: reg.counter("dini_serve_update_nops", ""),
            update_batches: reg.counter("dini_serve_update_batches", ""),
            snapshots: reg.counter("dini_serve_snapshots", ""),
            merges: reg.counter("dini_serve_merges", ""),
            live_keys: reg.gauge("dini_serve_live_keys", ""),
            checkpoints: reg.counter("dini_serve_checkpoints", ""),
            checkpoint_failures: reg.counter("dini_serve_checkpoint_failures", ""),
        }
    }
}

/// One shard's initial state: the shared (owned or mapped) main array
/// plus whatever pending deltas and epoch a recovered snapshot carried.
struct ShardSeed {
    main: SharedKeys,
    inserts: Vec<u32>,
    deletes: Vec<u32>,
    main_epoch: u64,
}

impl ShardSeed {
    fn live_len(&self) -> usize {
        self.main.len() + self.inserts.len() - self.deletes.len()
    }

    /// First and last key the shard starts with, main and inserts
    /// together — what its heat row is cut from. An empty shard spans
    /// the whole key space.
    fn span(&self) -> (u32, u32) {
        let main = self.main.as_slice();
        let keys = || main.first().into_iter().chain(main.last()).chain(&self.inserts);
        match (keys().min(), keys().max()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0, u32::MAX),
        }
    }
}

/// A sharded, replicated, batch-coalescing, online-updatable rank-query
/// server.
///
/// Build one over an initial sorted key set, take cheap cloneable
/// [`ServerHandle`]s for concurrent callers, feed churn through
/// [`update`](Self::update), and read accounting from
/// [`stats`](Self::stats). Dropping the server joins every thread.
///
/// ```
/// use dini_serve::{IndexServer, ServeConfig};
///
/// let keys: Vec<u32> = (0..10_000).map(|i| i * 4).collect();
/// let mut cfg = ServeConfig::new(2);
/// cfg.replicas_per_shard = 2; // two dispatchers per shard, shared index memory
/// let server = IndexServer::build(&keys, cfg);
/// let handle = server.handle();
/// assert_eq!(handle.lookup(100).unwrap(), 26); // 0,4,…,100 → 26 keys ≤ 100
///
/// server.update(dini_serve::Op::Insert(101)).unwrap();
/// server.quiesce();
/// assert_eq!(handle.lookup(101).unwrap(), 27);
/// ```
pub struct IndexServer {
    router: Arc<ShardRouter>,
    selector: ReplicaSelector,
    /// `queues[shard][replica]`.
    queues: Vec<Vec<AdmissionQueue>>,
    pools: Vec<CellPool<Reply>>,
    /// Reply cells of the handles' open groups, one cell a group.
    groups: CellPool<Answers<PendingLookup>>,
    /// `cells[shard]`, shared with the writer, the shard's dispatchers
    /// and every handle.
    cells: Vec<Arc<EpochCell>>,
    /// Replica-major: `shard * replicas_per_shard + replica`. Live
    /// lock-free accumulators (whoever answers a batch writes them in
    /// place); [`stats`](Self::stats) folds them at read time.
    replica_metrics: Vec<Arc<ReplicaMetrics>>,
    /// Every instrument above plus queue/writer gauges, behind named
    /// handles — what [`metrics_snapshot`](Self::metrics_snapshot)
    /// serializes and [`stats`](Self::stats) reads.
    metrics: MetricsRegistry,
    writer_metrics: WriterMetrics,
    /// Key-range heat grid shared with every handle; `None` when
    /// [`ServeConfig::heat`] is off.
    heat: Option<Arc<HeatMap>>,
    // ordering: SeqCst on every access — cold teardown flag; one fence at
    // exit buys an obviously-correct drain/join handshake.
    shutdown: Arc<AtomicBool>,
    clock: Clock,
    dispatchers: Vec<ClockJoinHandle<()>>,
    /// The server's own way in to the writer; `None` once `drop` has
    /// hung it up.
    updates: Option<UpdateHandle>,
    writer: Option<ClockJoinHandle<()>>,
}

/// A cheap, cloneable caller-side handle: routes lookups to the shard
/// owning the key, then to a live replica by power-of-two-choices on
/// queue depth — and, when that replica is idle, ranks them right here
/// on the calling thread against the shard's pinned snapshot.
///
/// For lookups that queue, handles share one [`CellPool`] of reusable
/// reply cells *per shard*, so a warmed-up lookup allocates nothing on
/// either path (the cell cycles take → submit → fill → return for the
/// server's whole lifetime) and pool traffic serializes only within a
/// shard, never across the server.
/// Each clone carries its own routing tick, so clones never contend on
/// a shared counter (a fresh clone restarts its candidate rotation —
/// load awareness, not the rotation phase, is what balances replicas),
/// and its own open group (see [`begin_lookup`](Self::begin_lookup)),
/// whose cells come from one pool the server's handles share.
pub struct ServerHandle {
    /// This clone's open group, over everything a lookup reaches. Every
    /// lookup [`begin_lookup`](Self::begin_lookup) hands out holds a
    /// clone of it until reaped, which is how the handle knows whether
    /// its caller is pipelining.
    group: Shared<HandleCore>,
}

/// What a handle clone reaches — routing, admission, reply pools, the
/// shards' read state and accounting — and what ranks its open group.
struct HandleCore {
    router: Arc<ShardRouter>,
    selector: ReplicaSelector,
    queues: Vec<Vec<AdmissionQueue>>,
    pools: Vec<CellPool<Reply>>,
    /// `cells[shard]`: the shard's read state, which any thread may pin —
    /// what lets a caller that claimed an idle replica rank its own keys.
    cells: Vec<Arc<EpochCell>>,
    /// Replica-major, as in [`IndexServer`]: a claimant folds its batch
    /// into the replica's accounting exactly as the dispatcher would.
    replica_metrics: Vec<Arc<ReplicaMetrics>>,
    heat: Option<Arc<HeatMap>>,
    clock: Clock,
    /// Per-clone power-of-two-choices rotation tick.
    tick: AtomicU64,
}

impl Clone for ServerHandle {
    /// A handle with its own routing tick and its own, empty, open group.
    fn clone(&self) -> Self {
        Self { group: self.group.sibling() }
    }
}

impl Clone for HandleCore {
    fn clone(&self) -> Self {
        Self {
            router: self.router.clone(),
            selector: self.selector,
            queues: self.queues.clone(),
            pools: self.pools.clone(),
            cells: self.cells.clone(),
            replica_metrics: self.replica_metrics.clone(),
            heat: self.heat.clone(),
            clock: self.clock.clone(),
            tick: AtomicU64::new(0),
        }
    }
}

/// The directory a shard's snapshots carry over `keys` (one strided
/// pass, no copy of the keys); `None` for an emptied main array.
fn directory(keys: &SharedKeys) -> Option<Arc<LineDirectory>> {
    (!keys.is_empty()).then(|| Arc::new(LineDirectory::new(keys.clone(), 0..keys.len(), 0, 0.0)))
}

/// The writer's state for one shard.
struct WriterShard {
    delta: DeltaArray,
    main_epoch: u64,
    /// Directory over `delta`'s current main array: rebuilt on merge,
    /// shared by every snapshot published until the next one.
    main: Option<Arc<LineDirectory>>,
    /// The heap-owned main array the last merge replaced. The next merge
    /// builds into it if no reader still pins it (see [`Self::merge`]).
    retired: Option<Arc<Vec<u32>>>,
    cell: Arc<EpochCell>,
}

impl WriterShard {
    /// Merge the delta into a new main array and rebuild its directory.
    /// The array is built in the one the previous merge retired when
    /// [`Arc::try_unwrap`] finds nothing else holding it: a warm buffer,
    /// so the merge is a copy, not an allocation plus a page fault per
    /// 4 KiB. A reader still on that epoch keeps it, and a mapped
    /// snapshot was never ours to write: either way the merge allocates
    /// afresh and the writer never waits on readers.
    fn merge(&mut self) {
        let buf = self.retired.take().and_then(|keys| Arc::try_unwrap(keys).ok());
        let replaced = self.delta.main_shared().clone();
        self.delta.merge_into(buf.unwrap_or_default(), &mut NullMemory);
        self.main = directory(self.delta.main_shared());
        self.main_epoch += 1;
        self.retired = match replaced {
            SharedKeys::Owned(keys) => Some(keys),
            SharedKeys::Mapped(_) => None,
        };
    }
}

impl IndexServer {
    /// Build a server over `keys` (sorted ascending, unique). Spawns
    /// `n_shards × replicas_per_shard` dispatcher threads (replicas of a
    /// shard share its key storage and directory) and one writer thread.
    pub fn build(keys: &[u32], cfg: ServeConfig) -> Self {
        cfg.validate();
        let router = Arc::new(ShardRouter::from_keys(keys, cfg.n_shards));
        let seeds = router
            .split(keys)
            .into_iter()
            .map(|part| ShardSeed {
                main: SharedKeys::owned(part.to_vec()),
                inserts: Vec::new(),
                deletes: Vec::new(),
                main_epoch: 0,
            })
            .collect();
        Self::build_seeded(router, seeds, (0, 0), cfg)
    }

    /// Restart from a validated `dini-store` [`Snapshot`]: shard mains
    /// are served straight out of the mapping (no sort, no copy — the
    /// instant-restart path), pending deltas resume un-merged, routing
    /// delimiters and overlay epochs are reconstructed exactly, and the
    /// writer's churn-log watermark starts at the snapshot's
    /// `(log_epoch, log_seq)` so a transport layer can replay just the
    /// log suffix. `cfg.n_shards` must match the snapshot.
    pub fn build_recovered(snap: &Snapshot, cfg: ServeConfig) -> Self {
        cfg.validate();
        assert_eq!(cfg.n_shards, snap.shards.len(), "config shard count must match the snapshot");
        let router = Arc::new(ShardRouter::from_delimiters(snap.delims.clone()));
        let seeds = snap
            .shards
            .iter()
            .map(|s| ShardSeed {
                main: s.main.clone(),
                inserts: s.inserts.clone(),
                deletes: s.deletes.clone(),
                main_epoch: s.main_epoch,
            })
            .collect();
        Self::build_seeded(router, seeds, (snap.log_epoch, snap.log_seq), cfg)
    }

    fn build_seeded(
        router: Arc<ShardRouter>,
        seeds: Vec<ShardSeed>,
        watermark: (u64, u64),
        cfg: ServeConfig,
    ) -> Self {
        let selector = ReplicaSelector::new(cfg.replicas_per_shard);
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = MetricsRegistry::new();
        let writer_metrics = WriterMetrics::new(&metrics);
        writer_metrics.live_keys.set(seeds.iter().map(|s| s.live_len() as u64).sum());
        let heat = cfg.heat.then(|| {
            Arc::new(HeatMap::new(&seeds.iter().map(ShardSeed::span).collect::<Vec<_>>()))
        });
        if let Some(h) = &heat {
            // One gauge per grid cell: each reads a single relaxed
            // atomic, so a metrics snapshot costs O(cells), not
            // O(cells²) whole-grid copies.
            for s in 0..cfg.n_shards {
                for b in 0..HEAT_BUCKETS {
                    let h = h.clone();
                    let labels = format!("shard=\"{s}\",bucket=\"{b}\"");
                    metrics.gauge_fn("dini_serve_heat", &labels, move || h.count(s, b));
                }
            }
        }

        let n_replicas = cfg.replicas_per_shard;
        let mut queues = Vec::with_capacity(cfg.n_shards);
        let mut cells = Vec::with_capacity(cfg.n_shards);
        let mut replica_metrics = Vec::with_capacity(cfg.n_shards * n_replicas);
        let mut dispatchers = Vec::with_capacity(cfg.n_shards * n_replicas);
        let mut shards = Vec::with_capacity(cfg.n_shards);

        let mut base_rank = 0u32;
        for (s, seed) in seeds.into_iter().enumerate() {
            // One read state for the whole replica group (owned-sorted
            // or mapped-snapshot backing, transparently): replicas add
            // threads, not copies of the keys or the directory. The
            // initial snapshot must carry the seed's pending deltas: a
            // recovered shard serves exact ranks from its very first
            // batch, before any fresh churn triggers a publish.
            let main = directory(&seed.main);
            let cell = Arc::new(EpochCell::new(ShardSnapshot {
                main_epoch: seed.main_epoch,
                base_rank,
                main: main.clone(),
                inserts: seed.inserts.clone(),
                deletes: seed.deletes.clone(),
            }));
            base_rank += seed.live_len() as u32;
            let main_epoch = seed.main_epoch;
            shards.push(WriterShard {
                delta: DeltaArray::from_parts(
                    seed.main,
                    seed.inserts,
                    seed.deletes,
                    0,
                    0.0,
                    cfg.merge_threshold,
                ),
                main_epoch,
                main,
                retired: None,
                cell: cell.clone(),
            });

            // The whole group's admission queues must exist before any
            // dispatcher spawns: a crashing replica re-routes through
            // its siblings' queues.
            let mut group = Vec::with_capacity(n_replicas);
            let mut wiring = Vec::with_capacity(n_replicas);
            for r in 0..n_replicas {
                let (req_tx, req_rx) = sync_channel::<Request>(cfg.queue_capacity);
                let q = AdmissionQueue::new(s, r, req_tx, cfg.clock.clone());
                // Stragglers and crashes are dispatcher faults: a replica
                // scripted to have any never lets a caller rank in its place.
                let faults = ReplicaFaults::resolve(&cfg.faults, s, r);
                group.push(if faults.is_noop() { q } else { q.dispatcher_only() });
                wiring.push((req_rx, faults));
            }
            for (r, (req_rx, faults)) in wiring.into_iter().enumerate() {
                let stats = Arc::new(ReplicaMetrics::new(&metrics, s, r, &cfg.trace));
                dispatchers.push(spawn_dispatcher(Dispatcher {
                    shard: s,
                    replica: r,
                    req_rx,
                    cell: cell.clone(),
                    group: group.clone(),
                    stats: stats.clone(),
                    shutdown: shutdown.clone(),
                    main_epoch,
                    max_batch: cfg.max_batch,
                    clock: cfg.clock.clone(),
                    faults,
                }));
                replica_metrics.push(stats);
            }
            queues.push(group);
            cells.push(cell);
        }

        // Queue gauges poll the admission atomics at snapshot time — live
        // depth is already load-bearing state (the p2c router reads it),
        // so exposing it costs nothing. They come after every replica's
        // `served` series: a snapshot reads in registration order, so a
        // lookup admitted and served between the two reads cannot show
        // as served but not admitted. The writes still count `served`
        // first on the claimed path (`count_claimed`, then `release`) and
        // may on the queued path (the dispatcher can serve before
        // `try_submit` counts), so only a snapshot that no thread switch
        // can split — simtest's — is guaranteed `served ≤ admitted`.
        for (i, q) in queues.iter().flatten().enumerate() {
            let labels = replica_labels(i / n_replicas, i % n_replicas);
            let q2 = q.clone();
            metrics.gauge_fn("dini_serve_queue_depth", &labels, move || q2.depth());
            let q2 = q.clone();
            metrics.gauge_fn("dini_serve_admitted", &labels, move || q2.admitted());
            let q2 = q.clone();
            metrics.gauge_fn("dini_serve_shed", &labels, move || q2.shed());
        }
        // The sampled stage sums over every replica's retained records, in
        // one walk per snapshot: reading `trace_records` walks the rings
        // and sets the three sums registered after it, which the same
        // snapshot reads next (registration order, under the registry's
        // lock) — so all four describe one set of records.
        let stages = [
            ("dini_serve_stage_wait_ns", StageRecord::wait_ns as fn(&StageRecord) -> u64),
            ("dini_serve_stage_service_ns", StageRecord::service_ns),
            ("dini_serve_stage_fill_ns", StageRecord::fill_ns),
        ];
        let sums = stages.map(|_| Counter::new());
        let (replicas, walked) = (replica_metrics.clone(), sums.clone());
        metrics.gauge_fn("dini_serve_trace_records", "", move || {
            let records: Vec<StageRecord> = replicas
                .iter()
                .flat_map(|m| m.trace().snapshot().into_iter().chain(m.claim_trace().snapshot()))
                .collect();
            for (sum, (_, stage)) in walked.iter().zip(&stages) {
                sum.set(records.iter().map(stage).sum());
            }
            records.len() as u64
        });
        for ((name, _), sum) in stages.into_iter().zip(sums) {
            metrics.gauge_fn(name, "", move || sum.get());
        }

        let (writer_tx, writer_rx) = sync_channel::<WriterMsg>(4096);
        let writer = spawn_writer(
            shards,
            watermark,
            router.clone(),
            writer_metrics.clone(),
            writer_rx,
            cfg.clone(),
        );

        // One pool per shard (contention splits along the same lines as
        // the admission queues), shared by the shard's replicas, with
        // room for every replica's full queue plus an in-flight batch;
        // returns beyond that are dropped, bounding memory under
        // pathological in-flight spikes.
        let shard_cells = (cfg.queue_capacity + cfg.max_batch) * n_replicas;
        let pools =
            (0..cfg.n_shards).map(|_| CellPool::new(shard_cells, cfg.clock.clone())).collect();
        // Group cells, one per up to `GROUP` lookups: as many as the
        // shard pools' cells would fill.
        let groups = CellPool::new((shard_cells * cfg.n_shards).div_ceil(GROUP), cfg.clock.clone());

        Self {
            router,
            selector,
            queues,
            pools,
            groups,
            cells,
            replica_metrics,
            metrics,
            writer_metrics,
            heat,
            shutdown,
            updates: Some(UpdateHandle { tx: writer_tx, clock: cfg.clock.clone() }),
            clock: cfg.clock,
            dispatchers,
            writer: Some(writer),
        }
    }

    /// A cloneable caller handle.
    pub fn handle(&self) -> ServerHandle {
        let core = HandleCore {
            router: self.router.clone(),
            selector: self.selector,
            queues: self.queues.clone(),
            pools: self.pools.clone(),
            cells: self.cells.clone(),
            replica_metrics: self.replica_metrics.clone(),
            heat: self.heat.clone(),
            clock: self.clock.clone(),
            tick: AtomicU64::new(0),
        };
        ServerHandle { group: OpenGroup::shared(core, self.groups.clone()) }
    }

    /// A cloneable churn-feeding handle (e.g. for a dedicated updater
    /// thread in a simtest scenario). Drop every `UpdateHandle` before
    /// dropping the server: the writer thread only shuts down once the
    /// last update sender hangs up.
    pub fn updater(&self) -> UpdateHandle {
        self.updates().clone()
    }

    fn updates(&self) -> &UpdateHandle {
        self.updates.as_ref().expect("writer alive until drop")
    }

    /// Apply one churn operation (applied asynchronously by the writer;
    /// visible to lookups after the next snapshot publication, or after
    /// [`quiesce`](Self::quiesce)). `Op::Query` is accepted and ignored,
    /// so whole [`ChurnGen`](dini_workload::ChurnGen) streams can be fed
    /// through unfiltered.
    pub fn update(&self, op: Op) -> Result<(), ServeError> {
        self.updates().update(op)
    }

    /// Apply a coalesced churn batch strictly in order — semantically
    /// identical to calling [`update`](Self::update) once per op, but
    /// one writer-channel hop for the whole batch. This is the apply
    /// path the transport layer's replicated churn log rides.
    pub fn update_batch(&self, ops: Vec<Op>) -> Result<(), ServeError> {
        self.updates().update_batch(ops)
    }

    /// [`update_batch`](Self::update_batch), stamped with the churn-log
    /// position it advances the writer to: `epoch` is the log's election
    /// epoch, `seq` the sequence number of the batch's *last* record.
    /// Checkpoints persist this watermark, so a restarted process knows
    /// exactly which log suffix to replay.
    pub fn update_batch_at(&self, ops: Vec<Op>, epoch: u64, seq: u64) -> Result<(), ServeError> {
        self.updates().update_batch_at(ops, epoch, seq)
    }

    /// Number of `dini-store` checkpoint files successfully written
    /// (0 unless [`ServeConfig::store`] is set).
    pub fn checkpoints(&self) -> u64 {
        self.writer_metrics.checkpoints.get()
    }

    /// Number of checkpoint attempts that failed with an I/O error.
    pub fn checkpoint_failures(&self) -> u64 {
        self.writer_metrics.checkpoint_failures.get()
    }

    /// Block until every previously submitted update is applied *and*
    /// published. Lookups submitted after `quiesce` returns observe all
    /// of them. With a [`ServeConfig::store`] plan this is also a
    /// durability barrier: a checkpoint lands before `quiesce` returns.
    pub fn quiesce(&self) {
        let (ack_tx, ack_rx) = sync_channel(1);
        if self.clock.send(&self.updates().tx, WriterMsg::Quiesce(ack_tx)).is_ok() {
            let _ = self.clock.recv(&ack_rx);
        }
    }

    /// Number of live keys as of the last snapshot publication.
    pub fn len(&self) -> usize {
        self.writer_metrics.live_keys.get() as usize
    }

    /// Whether the index currently holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots the writer has published so far — the one counter a
    /// control frame reports, read directly: [`stats`](Self::stats)
    /// returns the same number but snapshots the whole registry to get
    /// there.
    pub fn snapshots_published(&self) -> u64 {
        self.writer_metrics.snapshots.get()
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.router.n_shards()
    }

    /// The clock every server thread waits on (virtual under
    /// `dini-simtest`). Transport layers hosting this server spawn their
    /// acceptor/connection threads on the same clock so one scheduler
    /// sees every wait.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Number of replicas serving each shard.
    pub fn replicas_per_shard(&self) -> usize {
        self.selector.n_replicas()
    }

    /// Point-in-time aggregate statistics, read off a registry
    /// snapshot (no dispatcher is ever blocked by this).
    pub fn stats(&self) -> ServeStats {
        ServeStats::from(&self.metrics_snapshot())
    }

    /// Per-replica statistics, replica-major: entry
    /// `shard * replicas_per_shard + replica` is the same view as
    /// [`stats`](Self::stats) over that replica's series alone (the
    /// writer's counters read 0). This is the breakdown load-balance
    /// assertions (and the simtest straggler oracle) read.
    pub fn replica_stats(&self) -> Vec<ServeStats> {
        let snap = self.metrics_snapshot();
        let per_shard = self.replicas_per_shard();
        (0..self.replica_metrics.len())
            .map(|i| ServeStats::within(&snap, &replica_labels(i / per_shard, i % per_shard)))
            .collect()
    }

    /// Every replica's sampled stage records, replica-major then
    /// oldest-first within a replica. Each record carries its
    /// shard/replica coordinates. Allocates — a reader-side operation.
    pub fn stage_traces(&self) -> Vec<StageRecord> {
        self.replica_metrics.iter().flat_map(|m| m.stage_records()).collect()
    }

    /// Snapshot the whole metrics registry: per-replica
    /// counters/histograms, queue gauges, writer counters and stage-trace
    /// sums, ready for [`ServeStats::from`],
    /// [`MetricsSnapshot::to_json`] or
    /// [`MetricsSnapshot::to_prometheus`] — and what a `StatsReply`
    /// carries.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The metrics registry itself. A layer hosting this server registers
    /// its own series here, and they appear in every snapshot from then
    /// on — in a `StatsReply` too — with no other change.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl Drop for IndexServer {
    fn drop(&mut self) {
        // Writer first: it exits once the last update sender hangs up.
        self.updates.take(); // hang up
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        // Dispatchers: the flag covers caller handles that still hold
        // admission senders (a plain channel-disconnect protocol would
        // block this join on them).
        self.shutdown.store(true, Ordering::SeqCst);
        // No replica is alive any more: a handle that outlives the server
        // must not rank on its own against a state nobody publishes to.
        for q in self.queues.drain(..).flatten() {
            q.mark_dead();
        }
        for d in self.dispatchers.drain(..) {
            let _ = d.join();
        }
    }
}

/// A lookup submitted but not yet reaped. Redeem with
/// [`wait`](Self::wait) (blocking) or reap with [`poll`](Self::poll) —
/// the primitive a genuinely open-loop caller needs: the caller's
/// arrival schedule never stretches on slow replies.
///
/// A lookup ranked when it was submitted — by the submitting thread, on
/// an idle replica — is born resolved. One that was queued holds a
/// pooled reply cell rather than a per-lookup channel; the cell goes
/// back to the server's pool once the dispatcher has answered, and is
/// reused once this `PendingLookup` (reaped, or abandoned) has let go of
/// it. One that joined its handle's open group (a pipelined
/// [`ServerHandle::begin_lookup`]) holds its slot in the group's one
/// pooled cell: the first `poll` or `wait` on any member ranks a group
/// still open, and dropping it before then takes its key out unranked.
#[derive(Debug)]
pub struct PendingLookup {
    pending: Pending,
    /// [`ServerHandle::begin_lookup`]'s lookups answered alone: counts
    /// the lookup as held against its handle until it is reaped.
    held: Option<Shared<HandleCore>>,
}

/// What a lookup's caller reads: its global rank, or why there is none.
type Reply = Result<u32, ServeError>;

#[derive(Debug)]
enum Pending {
    Ready(Reply),
    Queued(Waiter<Reply>),
    /// A slot of an open group's cell; the slot itself is `Ready` or
    /// `Queued`.
    Grouped(Member<HandleCore>),
}

impl PendingLookup {
    fn ready(reply: Result<u32, ServeError>) -> Self {
        Self { pending: Pending::Ready(reply), held: None }
    }

    /// Block for the rank.
    pub fn wait(self) -> Result<u32, ServeError> {
        self.get()
    }

    fn get(&self) -> Reply {
        match &self.pending {
            Pending::Ready(reply) => *reply,
            Pending::Queued(cell) => *cell.wait(),
            Pending::Grouped(member) => member.wait().get(),
        }
    }

    /// The rank if it has arrived, `None` if still in flight.
    pub fn poll(&self) -> Option<Result<u32, ServeError>> {
        match &self.pending {
            Pending::Ready(reply) => Some(*reply),
            Pending::Queued(cell) => cell.poll().copied(),
            Pending::Grouped(member) => member.poll().and_then(Self::poll),
        }
    }
}

/// An unfilled group slot: a hole, or past the group's end.
impl Unanswered for PendingLookup {
    fn unanswered() -> Self {
        Self::ready(Err(ServeError::ShuttingDown))
    }
}

/// Reusable scratch for [`ServerHandle::begin_lookup_many`]: per-key
/// shard assignments and one shard's keys, positions and ranks. Keep one
/// per submitting thread and a warmed call allocates nothing.
#[derive(Debug, Default)]
pub struct LookupScratch {
    shards: Vec<usize>,
    keys: Vec<u32>,
    positions: Vec<usize>,
    ranks: Vec<u32>,
}

/// A cloneable churn-feeding handle: routes [`Op`]s to the writer from
/// any thread (see [`IndexServer::updater`]). Updates are applied
/// asynchronously, exactly as via [`IndexServer::update`].
#[derive(Clone)]
pub struct UpdateHandle {
    tx: SyncSender<WriterMsg>,
    clock: Clock,
}

impl UpdateHandle {
    /// Apply one churn operation (`Op::Query` is accepted and ignored).
    pub fn update(&self, op: Op) -> Result<(), ServeError> {
        self.clock.send(&self.tx, WriterMsg::Apply(op)).map_err(|_| ServeError::ShuttingDown)
    }

    /// Apply a coalesced churn batch strictly in order (see
    /// [`IndexServer::update_batch`]).
    pub fn update_batch(&self, ops: Vec<Op>) -> Result<(), ServeError> {
        if ops.is_empty() {
            return Ok(());
        }
        self.clock
            .send(&self.tx, WriterMsg::ApplyBatch { ops, mark: None })
            .map_err(|_| ServeError::ShuttingDown)
    }

    /// Apply a watermark-stamped churn batch (see
    /// [`IndexServer::update_batch_at`]).
    pub fn update_batch_at(&self, ops: Vec<Op>, epoch: u64, seq: u64) -> Result<(), ServeError> {
        if ops.is_empty() {
            return Ok(());
        }
        self.clock
            .send(&self.tx, WriterMsg::ApplyBatch { ops, mark: Some((epoch, seq)) })
            .map_err(|_| ServeError::ShuttingDown)
    }
}

impl HandleCore {
    /// Pick a live replica of `shard`: power-of-two choices on live
    /// queue depth, skipping crashed replicas. `None` means the whole
    /// group is gone — the shard is shutting down, and saying so here
    /// beats queueing into a channel nobody drains.
    fn select(&self, shard: usize) -> Option<usize> {
        let group = &self.queues[shard];
        // ordering: relaxed-ok: per-clone rotation phase; only atomicity
        // matters, and clones never share the counter. A lone replica
        // needs no rotation, so it skips the RMW.
        let tick = if group.len() == 1 { 0 } else { self.tick.fetch_add(1, Ordering::Relaxed) };
        self.selector.select(tick, |r| group[r].probe())
    }

    /// Answer `n` requests on the caller's own thread, under the claim
    /// the caller holds on `replica` of `shard`: run `rank` on the
    /// snapshot while its slot is pinned ([`EpochCell::with`]), fold the
    /// batch into the replica's claim-side accounting, release the claim.
    /// Admission, collection and dispatch are one instant, so a recorded
    /// wait is exactly zero.
    ///
    /// Two clock reads and a histogram record cost more than ranking a
    /// key, so a batch is timed only when someone will read the result:
    /// the replica's seeded sampler — consulted first, once per request,
    /// as the dispatcher does — picked one of its requests, or it
    /// carries a trace id. An untimed batch is counted (`served`,
    /// `batches`, `batch_size`) and touches neither the clock nor
    /// `latency_ns`; a timed one records its latency once, weighted by
    /// the requests each pick stands for.
    ///
    /// Atomic read-modify-writes, untimed: the sampler's add, the pin and
    /// unpin, and the release's `complete` — with the caller's heat record
    /// and claim, six a lookup. The counts are plain stores: the claim
    /// makes this thread their only writer.
    fn serve_claimed<T>(
        &self,
        shard: usize,
        replica: usize,
        n: usize,
        trace: u64,
        rank: impl FnOnce(&ShardSnapshot) -> T,
    ) -> T {
        let q = &self.queues[shard][replica];
        let stats = &self.replica_metrics[shard * self.selector.n_replicas() + replica];
        let sampler = stats.trace();
        let picked = sampler.sample_n(n as u64);
        // A request carrying a trace id is always recorded.
        let records = if trace != 0 { n as u64 } else { picked };
        let admitted = (records > 0).then(|| self.clock.now());
        // Outside the pin: under a virtual clock this may hand off to the
        // writer, whose publish would wait out a pin held across it.
        self.clock.yield_now();
        let answer = self.cells[shard].with(rank);
        if let Some(admitted) = admitted {
            let done = self.clock.now();
            stats.record_claimed_latency(done.saturating_sub(admitted), picked * sampler.period());
            let record = StageRecord {
                shard: shard as u16,
                replica: replica as u16,
                batch_len: n as u32,
                trace,
                admitted_ns: admitted,
                collected_ns: admitted,
                dispatched_ns: admitted,
                answered_ns: done,
                filled_ns: done,
                encoded_ns: 0,
                acked_ns: 0,
            };
            for _ in 0..records {
                stats.claim_trace().push(&record);
            }
        }
        stats.count_claimed(n as u64);
        // Last: the claim is what makes this thread the only writer of
        // the claim ring and the claim-side counts.
        q.release(n);
        answer
    }

    /// Queue one request for `replica`'s dispatcher.
    fn queue(
        &self,
        shard: usize,
        replica: usize,
        key: u32,
        blocking: bool,
        trace: u64,
    ) -> Result<PendingLookup, ServeError> {
        let reply = self.pools[shard].take();
        let cell = reply.waiter();
        let req = Request { key, enqueued: self.clock.now(), trace, reply };
        let q = &self.queues[shard][replica];
        if blocking {
            q.submit(req)?;
        } else {
            q.try_submit(req)?;
        }
        // On the error paths above the un-submitted request is dropped
        // inside the admission queue, which answers the cell and returns
        // it to the pool; `cell` lets go of it on return. No leak, no
        // alloc.
        Ok(PendingLookup { pending: Pending::Queued(cell), held: None })
    }

    fn enqueue(&self, key: u32, blocking: bool, trace: u64) -> Result<PendingLookup, ServeError> {
        let shard = self.router.route(key);
        // Heat is counted at admission — shed requests were still
        // demand on this key range, which is what a split/cache
        // decision wants to see.
        if let Some(h) = &self.heat {
            h.record(shard, key);
        }
        let replica = self.select(shard).ok_or(ServeError::ShuttingDown)?;
        // Claim before anything else: the caller that takes the depth
        // gauge 0 → 1 ranks its own key.
        if self.queues[shard][replica].claim(1) {
            let rank = self.serve_claimed(shard, replica, 1, trace, |state| state.rank(key));
            return Ok(PendingLookup::ready(Ok(rank)));
        }
        self.queue(shard, replica, key, blocking, trace)
    }

    /// [`enqueue`](Self::enqueue) for a slice: `out[i]` answers
    /// `keys[i]`. The keys of one shard travel together — one replica
    /// choice, one claim, and if it wins one pinned snapshot and one
    /// [`rank_batch`](ShardSnapshot::rank_batch), counted as one batch.
    fn enqueue_many(
        &self,
        keys: &[u32],
        blocking: bool,
        trace: u64,
        scratch: &mut LookupScratch,
        out: &mut Vec<PendingLookup>,
    ) {
        /// Marks a key whose shard has been handled.
        const DONE: usize = usize::MAX;
        out.clear();
        out.extend(keys.iter().map(|_| PendingLookup::ready(Err(ServeError::ShuttingDown))));
        scratch.shards.clear();
        scratch.shards.extend(keys.iter().map(|&k| self.router.route(k)));
        if let Some(h) = &self.heat {
            for (&shard, &key) in scratch.shards.iter().zip(keys) {
                h.record(shard, key);
            }
        }
        for first in 0..keys.len() {
            let shard = scratch.shards[first];
            if shard == DONE {
                continue;
            }
            scratch.keys.clear();
            scratch.positions.clear();
            for (i, (mark, &key)) in scratch.shards.iter_mut().zip(keys).enumerate().skip(first) {
                if *mark == shard {
                    *mark = DONE;
                    scratch.keys.push(key);
                    scratch.positions.push(i);
                }
            }
            // A shard with no live replica keeps its `ShuttingDown`s.
            let Some(replica) = self.select(shard) else { continue };
            let n = scratch.keys.len();
            if self.queues[shard][replica].claim(n) {
                self.serve_claimed(shard, replica, n, trace, |state| {
                    state.rank_batch(&scratch.keys, &mut scratch.ranks)
                });
                for (&i, &rank) in scratch.positions.iter().zip(&scratch.ranks) {
                    out[i] = PendingLookup::ready(Ok(rank));
                }
            } else {
                for (&i, &key) in scratch.positions.iter().zip(&scratch.keys) {
                    out[i] = self
                        .queue(shard, replica, key, blocking, trace)
                        .unwrap_or_else(|e| PendingLookup::ready(Err(e)));
                }
            }
        }
    }

    /// Whether a caller may rank `shard`'s keys: some replica of it has
    /// no fault scripted. A shard without one is the dispatchers' alone.
    fn claimable(&self, shard: usize) -> bool {
        self.queues[shard].iter().any(AdmissionQueue::claimable)
    }
}

/// A pipelined caller's open group is ranked the way a slice is: one
/// replica choice and one claim per shard, and, for the claim's winner,
/// one pinned [`rank_batch`](ShardSnapshot::rank_batch). Its keys are
/// admitted — or shed — here, at its rank, not at `begin_lookup`.
impl Ranker for HandleCore {
    type Answer = PendingLookup;
    type Scratch = LookupScratch;

    fn rank(&self, keys: &[u32], scratch: &mut LookupScratch, answers: &mut Vec<PendingLookup>) {
        self.enqueue_many(keys, false, 0, scratch, answers);
    }
}

impl ServerHandle {
    fn core(&self) -> &HandleCore {
        self.group.ranker()
    }

    /// Rank of `key` (number of live index keys ≤ `key`), blocking while
    /// the chosen replica's queue is full (closed-loop semantics).
    pub fn lookup(&self, key: u32) -> Result<u32, ServeError> {
        self.core().enqueue(key, true, 0)?.wait()
    }

    /// Submit without waiting, and return a [`PendingLookup`] to redeem
    /// later. One rule decides when `key` is ranked — Nagle's, turned
    /// round:
    ///
    /// * **Alone, at once.** If the caller holds no lookup it began on
    ///   this handle and has not reaped, `key` is admitted now: ranked on
    ///   this thread if its replica is idle (the lookup is born
    ///   resolved, and counted as served before this returns), queued
    ///   for the dispatcher otherwise, or shed when that queue is full.
    /// * **Pipelined, in a group.** If the caller still holds one, `key`
    ///   joins this handle's open group of up to [`GROUP`] keys, the
    ///   kernel's lockstep group. The group is ranked when it is full or
    ///   as soon as any of its lookups is polled or waited on, as a
    ///   slice is: one claim and one pinned rank per shard. A grouped
    ///   lookup is admitted, and may be shed, then — its `poll` or
    ///   `wait` reports the shed — and one dropped before its group is
    ///   ranked is never admitted. A sampled group's stage records start
    ///   at its rank: the caller's time in its own open group is
    ///   client-side, like a `dini-net` frame's before it is encoded.
    ///
    /// A key whose shard no caller may rank (every replica has a fault
    /// scripted) gains nothing from a group and is admitted at once.
    /// [`begin_lookup_traced`](Self::begin_lookup_traced) and the slice
    /// calls never group.
    pub fn begin_lookup(&self, key: u32) -> Result<PendingLookup, ServeError> {
        let core = self.core();
        if !OpenGroup::is_idle(&self.group) && core.claimable(core.router.route(key)) {
            let member = OpenGroup::join(&self.group, key);
            return Ok(PendingLookup { pending: Pending::Grouped(member), held: None });
        }
        let mut lookup = core.enqueue(key, false, 0)?;
        lookup.held = Some(self.group.clone());
        Ok(lookup)
    }

    /// [`begin_lookup`](Self::begin_lookup) carrying a causal trace id
    /// (0 = untraced), so the stage records of whoever answers share the
    /// originating client's timeline. Never grouped: admitted at once.
    pub fn begin_lookup_traced(&self, key: u32, trace: u64) -> Result<PendingLookup, ServeError> {
        self.core().enqueue(key, false, trace)
    }

    /// [`begin_lookup_traced`](Self::begin_lookup_traced) for a whole
    /// slice — what a `Lookup` wire frame is: `out` is cleared and
    /// `out[i]` answers `keys[i]`, refusals included (an already-resolved
    /// error). Each shard's keys are admitted as one unit: ranked as one
    /// batch by this thread when their replica is idle, queued for its
    /// dispatcher otherwise.
    pub fn begin_lookup_many(
        &self,
        keys: &[u32],
        trace: u64,
        scratch: &mut LookupScratch,
        out: &mut Vec<PendingLookup>,
    ) {
        self.core().enqueue_many(keys, false, trace, scratch, out);
    }

    /// Rank every key, preserving order. Submits everything before
    /// collecting, so whatever this thread does not rank itself
    /// coalesces into few batches.
    pub fn lookup_many(&self, keys: &[u32]) -> Result<Vec<u32>, ServeError> {
        let mut replies = Vec::with_capacity(keys.len());
        self.core().enqueue_many(keys, true, 0, &mut LookupScratch::default(), &mut replies);
        replies.into_iter().map(PendingLookup::wait).collect()
    }

    /// Number of shards behind this handle.
    pub fn n_shards(&self) -> usize {
        self.core().router.n_shards()
    }

    /// Number of replicas serving each shard.
    pub fn replicas_per_shard(&self) -> usize {
        self.core().selector.n_replicas()
    }

    /// The clock this server waits on (virtual under `dini-simtest`).
    pub fn clock(&self) -> &Clock {
        &self.core().clock
    }

    /// Which shard serves `key` — the server's own routing, exposed so
    /// callers (e.g. the simtest sweep avoiding crashed shards) never
    /// have to reconstruct it and risk divergence.
    pub fn shard_of(&self, key: u32) -> usize {
        self.core().router.route(key)
    }
}

/// Re-home one request from a crashed replica to a surviving sibling.
/// Tries every survivor without blocking first (rotation order from the
/// crashed replica, deterministic), then blocks on the least-loaded
/// survivor (one may crash while we wait, hence the rescan loop).
/// Returns `false` — after dropping the request, which drop-fills its
/// waiter with `ShuttingDown` — only when no survivor remains.
fn reroute_one(group: &[AdmissionQueue], me: usize, mut req: Request) -> bool {
    let n = group.len();
    for off in 1..n {
        let q = &group[(me + off) % n];
        if !q.is_alive() {
            continue;
        }
        match q.resubmit(req, false) {
            Ok(()) => return true,
            Err(bounced) => req = bounced,
        }
    }
    // Every survivor's queue is full (or a survivor died between the
    // probe and the send): block on the least-loaded live sibling.
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (r, q) in group.iter().enumerate() {
            if r == me || !q.is_alive() {
                continue;
            }
            let d = q.depth();
            if best.is_none_or(|(bd, br)| d < bd || (d == bd && r < br)) {
                best = Some((d, r));
            }
        }
        let Some((_, r)) = best else {
            // Last replica standing was us: the request's drop fills
            // `ShuttingDown` — the shard really is gone.
            drop(req);
            return false;
        };
        match group[r].resubmit(req, true) {
            Ok(()) => return true,
            // Disconnected (that sibling is fully gone): rescan.
            Err(bounced) => req = bounced,
        }
    }
}

/// A crashed replica's afterlife: re-route the collected batch, then
/// keep draining the admission queue, re-routing every queued and
/// future request to surviving siblings — the request stream sees
/// degraded capacity, not errors. Requests resolve to `ShuttingDown`
/// (via the drop-fill protocol) only when no sibling survives. Runs
/// until the server shuts down or every sender hangs up; exiting
/// earlier would strand whatever sits in the admission queue — the
/// buffered requests only drop with the channel, and the channel
/// lives as long as any `ServerHandle` clone holds its sender (often
/// the very caller blocked on the reply).
fn crashed_failover(
    clock: &Clock,
    req_rx: &Receiver<Request>,
    shutdown: &AtomicBool,
    group: &[AdmissionQueue],
    me: usize,
    stats: &ReplicaMetrics,
    batch: &mut Vec<Request>,
) {
    // The flag goes down before any re-route so no sibling can bounce a
    // request back here believing this replica alive.
    group[me].mark_dead();
    let rehome = |req: Request| {
        group[me].complete(1);
        if reroute_one(group, me, req) {
            stats.inc_rerouted();
        }
    };
    for req in batch.drain(..) {
        rehome(req);
    }
    loop {
        match clock.recv_timeout(req_rx, IDLE_POLL) {
            Ok(req) => rehome(req),
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Everything one replica dispatcher owns.
struct Dispatcher {
    shard: usize,
    replica: usize,
    req_rx: Receiver<Request>,
    cell: Arc<EpochCell>,
    /// The whole replica group's admission queues (including this
    /// replica's own, at index `replica`): the failover path re-routes
    /// through the siblings, and the depth gauge lives here.
    group: Vec<AdmissionQueue>,
    stats: Arc<ReplicaMetrics>,
    shutdown: Arc<AtomicBool>,
    /// Main epoch the shard was built on — 0 for a fresh build, the
    /// recovered epoch after a snapshot restart; `rebuilds` counts the
    /// epochs this replica has crossed since.
    main_epoch: u64,
    max_batch: usize,
    clock: Clock,
    faults: ReplicaFaults,
}

/// Per-replica dispatcher: coalesce → pin the snapshot → rank → reply.
fn spawn_dispatcher(d: Dispatcher) -> ClockJoinHandle<()> {
    let Dispatcher {
        shard,
        replica,
        req_rx,
        cell,
        group,
        stats,
        shutdown,
        main_epoch,
        max_batch,
        clock,
        mut faults,
    } = d;
    clock.clone().spawn(&format!("dini-serve-shard-{shard}-r{replica}"), move || {
        // Scratch reused across every batch this dispatcher ever
        // serves: after warmup the dispatch loop never allocates.
        let mut batch: Vec<Request> = Vec::new();
        let mut keys: Vec<u32> = Vec::new();
        let mut ranks: Vec<u32> = Vec::new();
        // Admission timestamp + trace id of this batch's *sampled*
        // requests — decided before replies go out (a reaped caller may
        // tear the server down), stamped after, so tracing never delays
        // a reply.
        let mut sampled: Vec<(u64, u64)> = Vec::with_capacity(max_batch);
        loop {
            let first = match clock.recv_timeout(&req_rx, IDLE_POLL) {
                Ok(req) => req,
                Err(RecvTimeoutError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // An idle replica still honours its crash point, so
                    // submits racing the crash are failed over too.
                    if faults.crashed(&clock) {
                        crashed_failover(
                            &clock, &req_rx, &shutdown, &group, replica, &stats, &mut batch,
                        );
                        break;
                    }
                    // Load-aware routing can legitimately starve a
                    // replica for a while (ties pin single-stream
                    // traffic to one sibling); it still reports the
                    // epochs the shard has crossed.
                    stats.set_rebuilds(cell.load().main_epoch - main_epoch);
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };

            let disconnected = collect_batch_into(&req_rx, first, &mut batch, max_batch);
            let collected = clock.now();

            // Injected faults, in virtual (or wall) time: a crash here
            // is the "mid-batch" case — the batch is collected but never
            // answered by *this* replica. Failover re-homes the batch
            // and the queued backlog onto surviving siblings (whose
            // dispatchers answer normally); only with no survivor left
            // do waiters see `ShuttingDown` via the drop protocol.
            // Jitter/straggler delays stretch the dispatch without
            // reordering it.
            if faults.crashed(&clock) {
                crashed_failover(&clock, &req_rx, &shutdown, &group, replica, &stats, &mut batch);
                break;
            }
            if let Some(extra) = faults.batch_delay() {
                clock.sleep(extra);
                if faults.crashed(&clock) {
                    crashed_failover(
                        &clock, &req_rx, &shutdown, &group, replica, &stats, &mut batch,
                    );
                    break;
                }
            }

            // Pin the read state at *service* time, after collection:
            // a request admitted after a writer quiesce() returned may
            // join this still-open batch, so the snapshot must be at
            // least as fresh as the youngest batch member. The pin is
            // dropped with the batch, so an idle replica never keeps a
            // superseded main array alive.
            let state = cell.load();
            let dispatched = clock.now();

            keys.clear();
            keys.extend(batch.iter().map(|r| r.key));
            state.rank_batch(&keys, &mut ranks);

            let done = clock.now();
            let served = batch.len();
            // Record the batch *before* releasing any reply: the first
            // respond() below wakes its caller, and a caller that has
            // reaped every reply must be able to read fully settled
            // counters (stats().served includes its lookups). The adds
            // are Relaxed but sequenced before the reply cell's SeqCst
            // fill, and the caller's reap is at least an Acquire — so a reaped
            // reply implies visible counters, mutex or no mutex.
            stats.record_batch(batch.iter().map(|req| done.saturating_sub(req.enqueued)));
            stats.set_rebuilds(state.main_epoch - main_epoch);
            // Stage tracing: pick the sampled requests now (the seeded
            // counter must advance once per request, served or not),
            // stamp records after replies are released. Sampling is
            // head-based: a request that arrives carrying a trace id
            // was already chosen by its client, so it is always
            // recorded — the client's wire record then always finds its
            // server half — and the seeded sampler decides only for
            // untraced (in-process) traffic.
            sampled.clear();
            let ring = stats.trace();
            for req in batch.iter() {
                if ring.sample() || req.trace != 0 {
                    sampled.push((req.enqueued, req.trace));
                }
            }
            for (req, &rank) in batch.drain(..).zip(ranks.iter()) {
                // A gone caller is fine: nobody reads the cell, and the
                // pool reuses it once no one holds it.
                req.respond(Ok(rank));
            }
            // Replies are out: release the batch from the depth gauge
            // (in-flight requests count as load, which is what lets
            // power-of-two-choices steer around a straggling replica).
            group[replica].complete(served);
            // Stamp sampled stage records only now, off every caller's
            // critical path (`filled` = all replies released).
            if !sampled.is_empty() {
                let filled = clock.now();
                for &(admitted, trace) in &sampled {
                    ring.push(&StageRecord {
                        shard: shard as u16,
                        replica: replica as u16,
                        batch_len: served as u32,
                        trace,
                        admitted_ns: admitted,
                        collected_ns: collected,
                        dispatched_ns: dispatched,
                        answered_ns: done,
                        filled_ns: filled,
                        encoded_ns: 0,
                        acked_ns: 0,
                    });
                }
            }
            if disconnected {
                break;
            }
        }
    })
}

/// The single writer: fold churn → publish snapshots → merge (a new
/// main array and directory) → (optionally) checkpoint a `dini-store`
/// snapshot.
fn spawn_writer(
    mut shards: Vec<WriterShard>,
    watermark: (u64, u64),
    router: Arc<ShardRouter>,
    counters: WriterMetrics,
    rx: Receiver<WriterMsg>,
    cfg: ServeConfig,
) -> ClockJoinHandle<()> {
    let clock = cfg.clock.clone();
    clock.clone().spawn("dini-serve-writer", move || {
        // Churn-log position the current in-memory state folds exactly:
        // the persisted half of every checkpoint. Advanced only by
        // watermark-stamped batches (`update_batch_at`).
        let mut watermark = watermark;
        let mut merges_since_checkpoint = 0u32;
        let mut since_publish = 0usize;

        // Atomically persist the whole span — merged mains, pending
        // deltas, epochs, router delimiters, log watermark — as one
        // mmap-able snapshot file. Failures are counted, never fatal:
        // a full disk must not take the read path down.
        let checkpoint = |shards: &[WriterShard], watermark: (u64, u64)| {
            let Some(plan) = &cfg.store else { return };
            // Flight-record the attempt *before* touching the disk: if
            // the process dies mid-write, the journal still shows a
            // Begin with no matching Ok/Fail — exactly the truth.
            if let Some(j) = &cfg.flight {
                j.record(EventKind::CheckpointBegin, 0, 0, watermark.1, 0, clock.now());
            }
            let rec = SpanRecord {
                delims: router.delimiters(),
                shards: shards
                    .iter()
                    .map(|sh| ShardRecord {
                        main: sh.delta.main_keys(),
                        inserts: sh.delta.pending_inserts(),
                        deletes: sh.delta.pending_deletes(),
                        main_epoch: sh.main_epoch,
                    })
                    .collect(),
                log_epoch: watermark.0,
                log_seq: watermark.1,
            };
            match write_snapshot(&plan.path, &rec) {
                Ok(()) => {
                    counters.checkpoints.inc();
                    if let Some(j) = &cfg.flight {
                        j.record(EventKind::CheckpointOk, 0, 0, watermark.1, 0, clock.now());
                    }
                }
                Err(_) => {
                    counters.checkpoint_failures.inc();
                    if let Some(j) = &cfg.flight {
                        j.record(EventKind::CheckpointFail, 0, 0, watermark.1, 0, clock.now());
                    }
                }
            }
        };

        let publish_all = |shards: &[WriterShard]| {
            let mut base_rank = 0u32;
            for sh in shards {
                // One publish per shard: the shard's replicas share
                // the cell, so publication fan-out is free.
                sh.cell.publish(ShardSnapshot {
                    main_epoch: sh.main_epoch,
                    base_rank,
                    main: sh.main.clone(),
                    inserts: sh.delta.pending_inserts().to_vec(),
                    deletes: sh.delta.pending_deletes().to_vec(),
                });
                base_rank += sh.delta.len() as u32;
            }
            counters.live_keys.set(u64::from(base_rank));
            counters.snapshots.inc();
        };

        // The sim-visible analogue of `for msg in rx.iter()`: the
        // writer parks in the scheduler between messages and exits
        // when the last update sender hangs up.
        while let Ok(msg) = clock.recv(&rx) {
            // One op or a coalesced log batch: both run the same per-op
            // body below, so batching changes channel traffic, never
            // semantics.
            let (one, many, mark) = match msg {
                WriterMsg::Apply(op) => (Some(op), Vec::new(), None),
                WriterMsg::ApplyBatch { ops, mark } => {
                    counters.update_batches.inc();
                    (None, ops, mark)
                }
                WriterMsg::Quiesce(ack) => {
                    publish_all(&shards);
                    since_publish = 0;
                    // Durability barrier: whatever a caller saw applied
                    // before `quiesce` returned is on disk.
                    checkpoint(&shards, watermark);
                    merges_since_checkpoint = 0;
                    let _ = ack.send(());
                    continue;
                }
            };
            for op in one.into_iter().chain(many) {
                let s = router.route(op.key());
                let sh = &mut shards[s];
                let mut mem = NullMemory;
                let applied = match op {
                    Op::Query(_) => continue, // lookups go via handles
                    Op::Insert(k) => sh.delta.insert(k, &mut mem).0,
                    Op::Delete(k) => sh.delta.delete(k, &mut mem).0,
                };
                // Only mutations that changed the index count as
                // applied; duplicate inserts and deletes of
                // absent keys are no-ops, tallied separately.
                if applied {
                    counters.updates.inc();
                } else {
                    counters.nops.inc();
                }

                if sh.delta.needs_merge() {
                    // Merge and directory build off the read path:
                    // readers keep serving the old epoch until the
                    // publish below; its main array is kept for the
                    // next merge to build into.
                    sh.merge();
                    counters.merges.inc();
                    if let Some(j) = &cfg.flight {
                        j.record(EventKind::EpochSwap, s as u16, 0, sh.main_epoch, 0, clock.now());
                    }
                    publish_all(&shards);
                    since_publish = 0;
                    // The merge already produced the flat array a
                    // snapshot stores — checkpointing here is one
                    // encode+write, no extra sort. (The watermark may
                    // trail mid-batch; replay past it is idempotent.)
                    merges_since_checkpoint += 1;
                    if cfg.store.as_ref().is_some_and(|p| merges_since_checkpoint >= p.every_merges)
                    {
                        checkpoint(&shards, watermark);
                        merges_since_checkpoint = 0;
                    }
                    continue;
                }

                since_publish += 1;
                if since_publish >= cfg.publish_every {
                    publish_all(&shards);
                    since_publish = 0;
                }
            }
            // The batch is fully folded; the in-memory state now covers
            // the log prefix ending at `mark`.
            if let Some(m) = mark {
                watermark = m;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dini_cluster::{Fault, FaultSchedule};
    use dini_store::StorePlan;
    use dini_workload::gen_sorted_unique_keys;
    use std::collections::BTreeSet;

    fn cfg(shards: usize) -> ServeConfig {
        let mut c = ServeConfig::new(shards);
        c.max_batch = 64;
        c
    }

    fn oracle(set: &BTreeSet<u32>, q: u32) -> u32 {
        set.range(..=q).count() as u32
    }

    #[test]
    fn static_lookups_match_oracle() {
        let keys = gen_sorted_unique_keys(20_000, 11);
        let set: BTreeSet<u32> = keys.iter().copied().collect();
        let server = IndexServer::build(&keys, cfg(4));
        let h = server.handle();
        for i in 0..500u32 {
            let q = i.wrapping_mul(2_654_435_761);
            assert_eq!(h.lookup(q).unwrap(), oracle(&set, q), "query {q}");
        }
        assert_eq!(server.len(), 20_000);
        assert_eq!(server.n_shards(), 4);
        assert_eq!(server.replicas_per_shard(), 1);
    }

    #[test]
    fn replicated_lookups_match_oracle() {
        let keys = gen_sorted_unique_keys(20_000, 12);
        let set: BTreeSet<u32> = keys.iter().copied().collect();
        let mut c = cfg(2);
        c.replicas_per_shard = 3;
        let server = IndexServer::build(&keys, c);
        assert_eq!(server.replicas_per_shard(), 3);
        let h = server.handle();
        assert_eq!(h.replicas_per_shard(), 3);
        for i in 0..500u32 {
            let q = i.wrapping_mul(2_654_435_761);
            assert_eq!(h.lookup(q).unwrap(), oracle(&set, q), "query {q}");
        }
        assert_eq!(server.stats().served, 500);
        assert_eq!(server.replica_stats().len(), 2 * 3);
    }

    #[test]
    fn p2c_spreads_concurrent_backlog_across_replicas() {
        // Submit a burst without reaping: depths grow, so power-of-two
        // choices must alternate replicas instead of piling everything
        // on one. Both replicas are stragglers, which keeps the burst
        // queued (and in service) while it is being issued — idle
        // replicas would be ranked on by the caller and never back up.
        let keys: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        let mut c = ServeConfig::new(1);
        c.replicas_per_shard = 2;
        c.max_batch = 1024;
        let extra = Duration::from_millis(40);
        c.faults.events.push(Fault::Straggle { shard: 0, replica: None, extra });
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        let pending: Vec<_> =
            (0..64u32).map(|i| h.begin_lookup(i * 311).expect("queue is deep")).collect();
        for p in pending {
            p.wait().unwrap();
        }
        let per_replica = server.replica_stats();
        assert_eq!(per_replica.len(), 2);
        assert!(
            per_replica.iter().all(|s| s.served >= 16),
            "load-aware routing must spread a backlog over both replicas: {:?}",
            per_replica.iter().map(|s| s.served).collect::<Vec<_>>()
        );
        assert_eq!(per_replica.iter().map(|s| s.served).sum::<u64>(), 64);
    }

    #[test]
    fn replica_crash_fails_over_without_errors() {
        // Replica 0 of the only shard crashes at t = 0: every lookup
        // must still answer correctly via replica 1 — failover re-homes
        // anything that lands in the dead replica's queue.
        let keys: Vec<u32> = (0..5_000).map(|i| i * 3).collect();
        let mut c = cfg(1);
        c.replicas_per_shard = 2;
        c.faults.events.push(Fault::Crash { shard: 0, replica: Some(0), at: Duration::ZERO });
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for i in 0..300u32 {
            let q = i.wrapping_mul(747_796_405) % 20_000;
            let expect = keys.partition_point(|&k| k <= q) as u32;
            assert_eq!(h.lookup(q), Ok(expect), "query {q} after replica crash");
        }
        let stats = server.stats();
        assert_eq!(stats.served, 300, "no lookup may be lost to the crash");
        // Everything was served by the survivor.
        let per_replica = server.replica_stats();
        assert_eq!(per_replica[0].served, 0);
        assert_eq!(per_replica[1].served, 300);
    }

    #[test]
    fn last_replica_crash_is_shutdown() {
        // Both replicas crash at t = 0: the shard is gone, and the
        // handle reports ShuttingDown instead of hanging.
        let keys: Vec<u32> = (0..1_000).map(|i| i * 2).collect();
        let mut c = cfg(1);
        c.replicas_per_shard = 2;
        for replica in [0, 1] {
            c.faults.events.push(Fault::Crash {
                shard: 0,
                replica: Some(replica),
                at: Duration::ZERO,
            });
        }
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        let outcomes: Vec<Result<u32, ServeError>> = (0..50u32).map(|i| h.lookup(i * 17)).collect();
        // Early lookups may still be answered (the crash needs a batch
        // boundary to be noticed), but the steady state is shutdown.
        assert!(
            outcomes.contains(&Err(ServeError::ShuttingDown)),
            "a fully crashed shard must surface ShuttingDown, got {outcomes:?}"
        );
        assert_eq!(h.lookup(1), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn lookup_many_preserves_order() {
        let keys: Vec<u32> = (1..=1000).map(|i| i * 10).collect();
        let server = IndexServer::build(&keys, cfg(3));
        let h = server.handle();
        let queries = vec![0u32, 10, 9_999, 10_000, u32::MAX, 5];
        assert_eq!(h.lookup_many(&queries).unwrap(), vec![0, 1, 999, 1000, 1000, 0]);
    }

    #[test]
    fn updates_become_visible_after_quiesce() {
        let keys: Vec<u32> = (0..1000).map(|i| i * 4).collect();
        let server = IndexServer::build(&keys, cfg(2));
        let h = server.handle();
        assert_eq!(h.lookup(1).unwrap(), 1); // only key 0 ≤ 1

        server.update(Op::Insert(1)).unwrap();
        server.update(Op::Delete(0)).unwrap();
        server.quiesce();
        assert_eq!(h.lookup(1).unwrap(), 1); // {1} ≤ 1
        assert_eq!(h.lookup(0).unwrap(), 0); // 0 deleted
        assert_eq!(server.len(), 1000);
        // The direct counter and the folded one are the same number.
        let published = server.snapshots_published();
        assert!(published >= 1, "quiesce publishes what it applied");
        assert_eq!(published, server.stats().snapshots_published);
    }

    #[test]
    fn cross_shard_base_ranks_track_churn() {
        // Insert a pile of keys into shard 0's range; ranks of keys in
        // the highest shard must shift by exactly that pile.
        let keys: Vec<u32> = (0..4000).map(|i| i * 1000).collect();
        let server = IndexServer::build(&keys, cfg(4));
        let h = server.handle();
        let before = h.lookup(u32::MAX).unwrap();
        for k in 0..100u32 {
            server.update(Op::Insert(k * 1000 + 1)).unwrap();
        }
        server.quiesce();
        assert_eq!(h.lookup(u32::MAX).unwrap(), before + 100);
    }

    #[test]
    fn merges_rebuild_indexes_without_wrong_answers() {
        let keys: Vec<u32> = (0..2000).map(|i| i * 8).collect();
        let mut set: BTreeSet<u32> = keys.iter().copied().collect();
        let mut c = cfg(2);
        c.merge_threshold = 32; // force frequent merges
        c.publish_every = 8;
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for i in 0..500u32 {
            let k = i.wrapping_mul(2_654_435_761) % 20_000;
            if i % 3 == 0 {
                server.update(Op::Delete(k)).unwrap();
                set.remove(&k);
            } else {
                server.update(Op::Insert(k)).unwrap();
                set.insert(k);
            }
        }
        server.quiesce();
        let stats = server.stats();
        assert!(stats.merges > 0, "merge_threshold 32 must trigger merges");
        for q in (0..20_100u32).step_by(97) {
            assert_eq!(h.lookup(q).unwrap(), oracle(&set, q), "rank({q})");
        }
    }

    #[test]
    fn merges_reach_every_replica() {
        let keys: Vec<u32> = (0..2000).map(|i| i * 8).collect();
        let mut set: BTreeSet<u32> = keys.iter().copied().collect();
        let mut c = cfg(2);
        c.replicas_per_shard = 2;
        c.merge_threshold = 32;
        c.publish_every = 8;
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for i in 0..500u32 {
            let k = i.wrapping_mul(2_654_435_761) % 20_000;
            if i % 3 == 0 {
                server.update(Op::Delete(k)).unwrap();
                set.remove(&k);
            } else {
                server.update(Op::Insert(k)).unwrap();
                set.insert(k);
            }
        }
        server.quiesce();
        let merges = server.stats().merges;
        assert!(merges > 0, "merge_threshold 32 must trigger merges");
        // Every replica must answer from the post-merge epoch: sweep
        // enough queries that both replicas of each shard serve some.
        for q in (0..20_100u32).step_by(53) {
            assert_eq!(h.lookup(q).unwrap(), oracle(&set, q), "rank({q})");
        }
        // Every replica reports the main epochs its shard has crossed —
        // the shard's merge count — whether it learnt them serving a
        // batch or, starved by load-aware routing (ties pin
        // single-stream traffic to its sibling), on its idle poll: give
        // it a few polls' worth of time before judging.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            // Replica-major: [s0r0, s0r1, s1r0, s1r1].
            let rebuilds: Vec<u64> = server.replica_stats().iter().map(|s| s.rebuilds).collect();
            if rebuilds[0] == rebuilds[1]
                && rebuilds[2] == rebuilds[3]
                && rebuilds[0] + rebuilds[2] == merges
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "every replica must report its shard's share of the {merges} merges \
                 (idle polls included): {rebuilds:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn deleting_everything_then_reinserting_works() {
        let keys: Vec<u32> = (1..=64).collect();
        let mut c = cfg(2);
        c.merge_threshold = 8;
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for k in 1..=64u32 {
            server.update(Op::Delete(k)).unwrap();
        }
        server.quiesce();
        assert_eq!(h.lookup(u32::MAX).unwrap(), 0);
        assert_eq!(server.len(), 0);
        assert!(server.is_empty());
        for k in (2..=40u32).step_by(2) {
            server.update(Op::Insert(k)).unwrap();
        }
        server.quiesce();
        assert_eq!(h.lookup(u32::MAX).unwrap(), 20);
        assert_eq!(h.lookup(10).unwrap(), 5);
    }

    #[test]
    fn updates_applied_counts_only_real_mutations() {
        // A churn stream heavy with duplicates: inserts of present keys
        // and deletes of absent keys must land in `update_nops`, never in
        // `updates_applied`.
        let keys: Vec<u32> = (0..100).map(|i| i * 10).collect();
        let server = IndexServer::build(&keys, cfg(2));

        let mut expect_applied = 0u64;
        let mut expect_nops = 0u64;
        let mut live: BTreeSet<u32> = keys.iter().copied().collect();
        for i in 0..400u32 {
            let k = (i % 40) * 5; // collides with initial keys half the time
            let op = if i % 3 == 0 { Op::Delete(k) } else { Op::Insert(k) };
            let applied = match op {
                Op::Delete(k) => live.remove(&k),
                Op::Insert(k) => live.insert(k),
                Op::Query(_) => unreachable!(),
            };
            if applied {
                expect_applied += 1;
            } else {
                expect_nops += 1;
            }
            server.update(op).unwrap();
        }
        server.quiesce();

        let stats = server.stats();
        assert!(expect_nops > 0, "the stream must contain duplicate churn");
        assert_eq!(stats.updates_applied, expect_applied);
        assert_eq!(stats.update_nops, expect_nops);
        assert_eq!(server.len(), live.len());
        assert!(stats.summary().contains("nops"));
    }

    #[test]
    fn steady_state_lookups_reuse_pooled_slots() {
        let keys = gen_sorted_unique_keys(5_000, 77);
        // Cells are the queued path's: a (barely) slow plan sends every
        // lookup through the dispatchers.
        let mut c = cfg(2);
        let extra = Duration::from_micros(20);
        c.faults.events =
            (0..2).map(|shard| Fault::Straggle { shard, replica: None, extra }).collect();
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for _ in 0..50 {
            h.lookup(12345).unwrap();
        }
        // A single closed-loop caller alternates between its shard pool's
        // two spare cells: the dispatcher gives one back before it
        // answers the lookup that holds the other, so neither is ever
        // found held and no cell is allocated.
        let mut cells = BTreeSet::new();
        for _ in 0..100 {
            let pending = h.begin_lookup(54321).unwrap();
            let Pending::Queued(cell) = &pending.pending else {
                panic!("a slow replica was claimed")
            };
            cells.insert(Arc::as_ptr(cell) as usize);
            pending.wait().unwrap();
        }
        assert_eq!(cells.len(), 2, "steady state must cycle the spares, not grow the pool");
    }

    #[test]
    fn idle_lookups_are_ranked_by_the_caller() {
        let keys = gen_sorted_unique_keys(5_000, 78);
        let set: BTreeSet<u32> = keys.iter().copied().collect();
        let mut c = cfg(2);
        c.trace = dini_obs::TraceConfig::dense();
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for i in 0..200u32 {
            let q = i.wrapping_mul(2_654_435_761);
            assert_eq!(h.lookup(q).unwrap(), oracle(&set, q), "query {q}");
        }
        // Nothing ever queued …
        let snap = server.metrics_snapshot();
        assert_eq!(
            snap.series("dini_serve_queue_depth").map(|(_, d)| d).collect::<Vec<_>>(),
            [0, 0]
        );
        // … and the accounting reads as if a dispatcher had served 200
        // batches of one that never waited.
        let stats = server.stats();
        let counts = (stats.served, stats.claimed, stats.admitted, stats.batches);
        assert_eq!(counts, (200, 200, 200, 200));
        let traces = server.stage_traces();
        assert_eq!(traces.len(), 200);
        assert!(traces
            .iter()
            .all(|t| t.wait_ns() == 0 && t.stages_monotonic() && t.batch_len == 1));
    }

    #[test]
    fn a_slice_bound_for_idle_replicas_is_one_batch_per_shard() {
        let keys = gen_sorted_unique_keys(20_000, 79);
        let set: BTreeSet<u32> = keys.iter().copied().collect();
        let server = IndexServer::build(&keys, cfg(2));
        let h = server.handle();
        let queries: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let want: Vec<u32> = queries.iter().map(|&q| oracle(&set, q)).collect();
        assert_eq!(h.lookup_many(&queries).unwrap(), want, "order survives the per-shard grouping");
        let stats = server.stats();
        assert_eq!((stats.served, stats.admitted, stats.batches), (256, 256, 2));
        assert_eq!(stats.mean_batch(), 128.0);
    }

    #[test]
    fn both_paths_leave_the_same_accounting() {
        // The same 300 lone lookups (every third one traced), once ranked
        // by the caller and once — a replica with any fault scripted
        // never lets a caller rank for it — by the dispatchers.
        let keys = gen_sorted_unique_keys(10_000, 80);
        let run = |faults: FaultSchedule, expect_traces: u64| {
            let mut c = cfg(2);
            c.heat = true;
            c.trace = dini_obs::TraceConfig { sample_period: 7, ..Default::default() };
            c.faults = faults;
            let server = IndexServer::build(&keys, c);
            let h = server.handle();
            for i in 0..300u32 {
                let trace = if i % 3 == 0 { u64::from(i) + 1 } else { 0 };
                let q = i.wrapping_mul(747_796_405);
                h.begin_lookup_traced(q, trace).unwrap().wait().unwrap();
            }
            let stats = server.stats();
            // A dispatcher stamps its records after releasing the
            // replies: give the last batch's a moment to land.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while (server.stage_traces().len() as u64) < expect_traces
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut traces: Vec<(u16, u16, u32, u64)> = server
                .stage_traces()
                .iter()
                .map(|t| (t.shard, t.replica, t.batch_len, t.trace))
                .collect();
            traces.sort_unstable();
            let counts = (stats.served, stats.admitted, stats.batches, stats.shed);
            let replicas = server.replica_stats();
            // Latencies are exhaustive on the dispatcher path and sampled
            // on the claimed one, each pick weighted by the period: a
            // replica's count is never more than a period off its served.
            for r in &replicas {
                let off = r.latency_ns.count().abs_diff(r.served);
                assert!(off < 7, "latency count {} vs served {}", r.latency_ns.count(), r.served);
            }
            let batch_sizes = (stats.batch_size.count(), stats.batch_size.max());
            let served: Vec<u64> = replicas.iter().map(|r| r.served).collect();
            // The registry carries each path's series (`path="claim"` for
            // the callers'); summed, they are what `stats()` merged.
            let snap = server.metrics_snapshot();
            assert_eq!(snap.series("dini_serve_served").count(), 4, "2 replicas × 2 paths");
            assert_eq!(snap.sum("dini_serve_served"), stats.served);
            let heat: Vec<u64> = snap.series("dini_serve_heat").map(|(_, v)| v).collect();
            let by_path = (stats.claimed, stats.served - stats.claimed);
            (counts, served, heat, traces, batch_sizes, by_path)
        };
        let nudge = Duration::from_nanos(1);
        let claimed = run(FaultSchedule::default(), 0);
        let events = (0..2).map(|shard| Fault::Straggle { shard, replica: None, extra: nudge });
        let queued = run(
            FaultSchedule { events: events.collect(), ..FaultSchedule::default() },
            claimed.3.len() as u64,
        );
        assert_eq!(claimed.0, queued.0, "served/admitted/batches/shed");
        assert_eq!(claimed.1, queued.1, "per-replica split");
        assert_eq!(claimed.2, queued.2, "heat");
        assert_eq!(claimed.3, queued.3, "stage records: same requests sampled, same shapes");
        assert_eq!(claimed.4, queued.4, "batch sizes: count and max");
        assert_eq!(claimed.5, (300, 0), "(claimed, dispatched): callers answered all");
        assert_eq!(queued.5, (0, 300), "(claimed, dispatched): dispatchers answered all");
        assert!(claimed.3.len() > 100, "every traced request and a seventh of the rest");
    }

    #[test]
    fn claimed_lookup_reads_the_clock_only_when_timed() {
        use crate::clock::SYS_NOW_READS;
        use dini_obs::TraceConfig;
        let keys = gen_sorted_unique_keys(5_000, 81);
        // System-clock reads this thread makes over `lookups` lone
        // lookups of a warmed one-replica server, each ranked under its
        // own claim.
        let reads = |trace: TraceConfig, lookups: u32, id: u64| {
            let mut c = cfg(1);
            c.trace = trace;
            let server = IndexServer::build(&keys, c);
            let h = server.handle();
            for q in 0..10u32 {
                h.lookup(q * 7919).unwrap();
            }
            let before = SYS_NOW_READS.get();
            for i in 0..lookups {
                let q = i.wrapping_mul(2_654_435_761);
                h.begin_lookup_traced(q, id).unwrap().wait().unwrap();
            }
            let reads = SYS_NOW_READS.get() - before;
            let stats = server.stats();
            let n = 10 + u64::from(lookups);
            assert_eq!((stats.served, stats.batches), (n, n));
            assert_eq!(stats.claimed, n, "some lookup queued");
            reads
        };
        // Any 6 400 consecutive offers hold exactly 100 picks of one in 64.
        let sampled = TraceConfig { sample_period: 64, ..TraceConfig::default() };
        assert_eq!(
            reads(sampled.clone(), 6_400, 0),
            2 * 100,
            "two reads per picked lookup, none otherwise"
        );
        assert_eq!(reads(TraceConfig::disabled(), 6_400, 0), 0, "counts only");
        assert_eq!(reads(TraceConfig::dense(), 6_400, 0), 2 * 6_400, "every lookup timed");
        // A sampler that never picks, and one request carrying a trace id.
        let never = TraceConfig { sample_period: 1 << 40, ..TraceConfig::default() };
        assert_eq!(reads(never.clone(), 100, 0), 0);
        assert_eq!(reads(never, 1, 7), 2);

        // The same for a pipelined caller: one lookup held, then `groups`
        // full groups, each ranked under one claim by the begin that
        // fills it. A group is timed once, if any of its lookups is
        // picked.
        let group_reads = |trace: TraceConfig, groups: u32| {
            let mut c = cfg(1);
            c.trace = trace;
            let server = IndexServer::build(&keys, c);
            let h = server.handle();
            for q in 0..10u32 {
                h.lookup(q * 7919).unwrap();
            }
            let held = h.begin_lookup(1).unwrap();
            let mut group = Vec::with_capacity(GROUP);
            let before = SYS_NOW_READS.get();
            for g in 0..groups {
                for i in 0..GROUP as u32 {
                    group.push(h.begin_lookup((g * 64 + i).wrapping_mul(2_654_435_761)).unwrap());
                }
                for p in group.drain(..) {
                    p.wait().unwrap();
                }
            }
            let reads = SYS_NOW_READS.get() - before;
            drop(held);
            let stats = server.stats();
            let n = 11 + u64::from(groups) * GROUP as u64;
            assert_eq!((stats.served, stats.claimed), (n, n), "some lookup queued");
            assert_eq!(stats.batches, 11 + u64::from(groups), "one batch a group");
            reads
        };
        // 200 groups are 6 400 offers: 100 picks, none two in one group.
        assert_eq!(group_reads(sampled, 200), 2 * 100, "two reads per picked group");
        assert_eq!(group_reads(TraceConfig::disabled(), 200), 0, "an unsampled group reads none");
        assert_eq!(group_reads(TraceConfig::dense(), 200), 2 * 200, "every group timed once");
    }

    #[test]
    fn a_lone_begin_lookup_is_answered_before_it_returns() {
        let keys = gen_sorted_unique_keys(5_000, 82);
        let set: BTreeSet<u32> = keys.iter().copied().collect();
        let server = IndexServer::build(&keys, cfg(1));
        let h = server.handle();
        let counts = || {
            let s = server.stats();
            (s.served, s.batches)
        };
        let query = |i: u32| i.wrapping_mul(2_654_435_761);
        // begin → poll and begin → wait: nothing else held, so each key
        // is ranked, and counted, before `begin_lookup` returns, and the
        // reap ranks nothing. (A paced caller reads its clock before it
        // reaps: a rank moved into the reap would fall out of its
        // latency.)
        for i in 0..100u32 {
            let (before, q) = (counts(), query(i));
            let pending = h.begin_lookup(q).unwrap();
            let begun = counts();
            assert_eq!(begun, (before.0 + 1, before.1 + 1), "lookup {i} not ranked at begin");
            if i % 2 == 0 {
                assert_eq!(pending.poll(), Some(Ok(oracle(&set, q))));
            } else {
                assert_eq!(pending.wait(), Ok(oracle(&set, q)));
            }
            assert_eq!(counts(), begun, "the reap of lookup {i} ranked something");
        }
        // Pipelined: with one earlier lookup still held, the next 31
        // begins only join the open group, and the first reap ranks all
        // 31 as one batch.
        let held = h.begin_lookup(query(1000)).unwrap();
        let before = counts();
        let group: Vec<_> =
            (0..31u32).map(|i| (query(i), h.begin_lookup(query(i)).unwrap())).collect();
        assert_eq!(counts(), before, "a pipelined begin ranked its key alone");
        assert_eq!(group[30].1.poll(), Some(Ok(oracle(&set, group[30].0))));
        assert_eq!(counts(), (before.0 + 31, before.1 + 1), "31 keys, one batch");
        for (q, p) in group {
            assert_eq!(p.poll(), Some(Ok(oracle(&set, q))));
        }
        // A 32nd key fills a group: the begin that adds it ranks it.
        let before = counts();
        let group: Vec<_> = (0..GROUP as u32).map(|i| h.begin_lookup(query(i)).unwrap()).collect();
        assert_eq!(counts(), (before.0 + GROUP as u64, before.1 + 1), "a full group is ranked");
        assert!(group.iter().all(|p| p.poll().is_some()));
        assert_eq!(server.stats().batch_size.max(), GROUP as f64);
        drop((held, group));
        // Nothing held again: the next lookup is lone.
        let before = counts();
        let lone = h.begin_lookup(query(7)).unwrap();
        assert_eq!(counts(), (before.0 + 1, before.1 + 1));
        assert_eq!(lone.wait(), Ok(oracle(&set, query(7))));
    }

    #[test]
    fn a_grouped_lookup_dropped_unranked_is_never_admitted() {
        let keys = gen_sorted_unique_keys(5_000, 83);
        let server = IndexServer::build(&keys, cfg(2));
        let h = server.handle();
        let held = h.begin_lookup(1).unwrap();
        let dropped: Vec<_> = (0..5u32).map(|i| h.begin_lookup(i * 977).unwrap()).collect();
        drop(dropped);
        let kept = h.begin_lookup(12_345).unwrap();
        let gone = h.begin_lookup(54_321).unwrap();
        drop(gone);
        assert_eq!(kept.wait(), Ok(keys.partition_point(|&k| k <= 12_345) as u32));
        drop(held);
        let stats = server.stats();
        assert_eq!((stats.served, stats.admitted), (2, 2), "the held lookup and the kept one");
    }

    #[test]
    fn stats_count_served_queries() {
        let keys = gen_sorted_unique_keys(5_000, 21);
        let server = IndexServer::build(&keys, cfg(2));
        let h = server.handle();
        let queries: Vec<u32> = (0..256u32).map(|i| i * 7919).collect();
        h.lookup_many(&queries).unwrap();
        let stats = server.stats();
        assert_eq!(stats.served, 256);
        assert_eq!(stats.admitted, 256);
        assert!(stats.batches > 0 && stats.batches <= 256);
        assert!(stats.mean_batch() >= 1.0);
        assert!(stats.latency_quantile_ns(0.5) > 0.0);
    }

    #[test]
    fn handles_survive_server_drop() {
        let keys = gen_sorted_unique_keys(1_000, 31);
        let server = IndexServer::build(&keys, cfg(2));
        let h = server.handle();
        assert!(h.lookup(5).is_ok());
        drop(server);
        assert_eq!(h.lookup(5), Err(ServeError::ShuttingDown));
        assert_eq!(h.begin_lookup(5).and_then(PendingLookup::wait), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn concurrent_handles_all_get_correct_answers() {
        let keys = gen_sorted_unique_keys(50_000, 41);
        let keys_arc = Arc::new(keys.clone());
        let mut c = cfg(4);
        c.replicas_per_shard = 2;
        let server = IndexServer::build(&keys, c);
        let workers: Vec<_> = (0..8)
            .map(|w| {
                let h = server.handle();
                let keys = keys_arc.clone();
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let q = (i * 8 + w).wrapping_mul(747_796_405);
                        let expect = keys.partition_point(|&k| k <= q) as u32;
                        assert_eq!(h.lookup(q).unwrap(), expect, "query {q}");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(server.stats().served, 8 * 500);
    }

    #[test]
    fn stage_traces_sample_and_stay_monotonic() {
        let keys = gen_sorted_unique_keys(10_000, 51);
        let mut c = cfg(2);
        c.trace = dini_obs::TraceConfig::dense(); // sample every request
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for q in 0..200u32 {
            h.lookup(q * 37).unwrap();
        }
        let traces = server.stage_traces();
        assert!(!traces.is_empty(), "dense sampling must record traces");
        for t in &traces {
            assert!(t.stages_monotonic(), "stage clock went backwards: {t:?}");
            assert!((t.shard as usize) < 2);
            assert!(t.batch_len >= 1 && t.batch_len as usize <= 64);
        }
        // One depth gauge per replica; the registry snapshot renders
        // both formats without panicking and carries the per-replica
        // served counters.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.series("dini_serve_queue_depth").count(), 2);
        assert!(snap.to_prometheus().contains("dini_serve_served"));
        assert!(snap.to_json().contains("dini_serve_latency_ns"));
    }

    #[test]
    fn traced_requests_are_always_stage_recorded() {
        // Head-based sampling: a request carrying a trace id was chosen
        // by its client, so the dispatcher records it whatever its own
        // sampler says — here a sampler whose first hit is request
        // 24 301, i.e. never.
        let keys = gen_sorted_unique_keys(2_000, 53);
        let mut c = cfg(1);
        c.trace = dini_obs::TraceConfig { sample_period: 1 << 40, ..Default::default() };
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for id in 1..=50u64 {
            h.begin_lookup_traced(id as u32 * 7, id).unwrap().wait().unwrap();
            h.lookup(id as u32 * 11).unwrap();
        }
        let mut ids: Vec<u64> = server.stage_traces().iter().map(|t| t.trace).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=50).collect::<Vec<u64>>(), "every traced request, nothing else");
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let keys = gen_sorted_unique_keys(2_000, 52);
        let mut c = cfg(1);
        c.trace = dini_obs::TraceConfig::disabled();
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for q in 0..100u32 {
            h.lookup(q).unwrap();
        }
        assert!(server.stage_traces().is_empty());
    }

    fn scratch_snapshot(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dini-serve-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.snap"))
    }

    #[test]
    fn quiesce_checkpoints_and_recovery_serves_identically() {
        let path = scratch_snapshot("quiesce");
        let keys = gen_sorted_unique_keys(6_000, 61);
        let mut c = cfg(3);
        c.store = Some(StorePlan::new(path.clone()));

        // Churn through the watermark-stamped path, then quiesce: the
        // durability barrier must leave a snapshot at the plan's path.
        let mut expect: BTreeSet<u32> = keys.iter().copied().collect();
        let server = IndexServer::build(&keys, c.clone());
        let ops: Vec<Op> = (0..500u32)
            .map(|i| {
                let k = i.wrapping_mul(2_654_435_761) >> 8;
                if i % 3 == 0 {
                    expect.remove(&k);
                    Op::Delete(k)
                } else {
                    expect.insert(k);
                    Op::Insert(k)
                }
            })
            .collect();
        server.update_batch_at(ops, 7, 500).unwrap();
        server.quiesce();
        assert!(server.checkpoints() >= 1, "quiesce is a durability barrier");
        assert_eq!(server.checkpoint_failures(), 0);
        // Every writer counter is a registry series, read by name.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.sum("dini_serve_checkpoints"), server.checkpoints());
        assert_eq!(snap.sum("dini_serve_checkpoint_failures"), 0);
        assert_eq!(snap.sum("dini_serve_update_batches"), 1);
        assert_eq!(snap.sum("dini_serve_live_keys"), expect.len() as u64);
        drop(server);

        // Restart by mapping: no sort, same answers, same watermark.
        let snap = dini_store::open_snapshot(&path).unwrap();
        assert_eq!((snap.log_epoch, snap.log_seq), (7, 500));
        assert_eq!(snap.live_keys(), expect.len() as u64);
        let recovered = IndexServer::build_recovered(&snap, c);
        let h = recovered.handle();
        let sorted: Vec<u32> = expect.iter().copied().collect();
        for i in 0..400u32 {
            let q = i.wrapping_mul(747_796_405);
            let want = sorted.partition_point(|&k| k <= q) as u32;
            assert_eq!(h.lookup(q), Ok(want), "query {q} after recovery");
        }
        assert_eq!(recovered.len(), expect.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_cycle_doubles_as_checkpointer() {
        let path = scratch_snapshot("merge");
        let keys: Vec<u32> = (0..4_000).map(|i| i * 8).collect();
        let mut c = cfg(2);
        c.merge_threshold = 64; // force merges
        c.store = Some(StorePlan::new(path.clone()));
        let server = IndexServer::build(&keys, c);
        for i in 0..1_000u32 {
            server.update(Op::Insert(i * 8 + 3)).unwrap();
        }
        server.quiesce();
        let from_merges = server.checkpoints();
        assert!(from_merges >= 2, "merges must checkpoint, got {from_merges}");
        drop(server);
        let snap = dini_store::open_snapshot(&path).unwrap();
        assert_eq!(snap.live_keys(), 5_000);
        std::fs::remove_file(&path).ok();
    }

    /// Odd, so a [`Churn`] merge's `THRESHOLD + 1` updates split evenly
    /// into inserts and deletes and a shard keeps its size: a recycled
    /// array always fits, and where it lands is a pure function of who
    /// still holds what.
    const THRESHOLD: usize = 15;

    /// Where shard 0's published main array lives. An address seen
    /// again could in principle be the allocator handing a freed array
    /// back; `tests/zero_alloc.rs` pins that recycled merges allocate
    /// nothing.
    fn main_at(server: &IndexServer) -> *const u32 {
        server.cells[0].load().main.as_ref().expect("a non-empty main").keys().as_ptr()
    }

    /// Drives a one-shard server built with `merge_threshold =
    /// THRESHOLD` over keys below 16 000, one merge at a time.
    struct Churn {
        /// The keys the server holds.
        set: BTreeSet<u32>,
        /// The last key inserted.
        next: u32,
    }

    impl Churn {
        fn new(keys: &[u32]) -> Self {
            Churn { set: keys.iter().copied().collect(), next: 16_000 }
        }

        /// Exactly one merge: fresh inserts above every key so far and
        /// deletes of the smallest key (always in main), then quiesce.
        fn merge(&mut self, server: &IndexServer) {
            let merges = server.stats().merges;
            for i in 0..=THRESHOLD {
                if i % 2 == 0 {
                    self.next += 1;
                    server.update(Op::Insert(self.next)).unwrap();
                    self.set.insert(self.next);
                } else {
                    let k = self.set.pop_first().expect("keys left to delete");
                    server.update(Op::Delete(k)).unwrap();
                }
            }
            server.quiesce();
            assert_eq!(server.stats().merges, merges + 1, "THRESHOLD + 1 updates merge once");
        }

        fn assert_exact(&self, server: &IndexServer) {
            let h = server.handle();
            for q in (0..20_000u32).step_by(61) {
                assert_eq!(h.lookup(q).unwrap(), oracle(&self.set, q), "rank({q})");
            }
        }
    }

    fn one_shard_cfg() -> ServeConfig {
        let mut c = cfg(1);
        c.merge_threshold = THRESHOLD;
        c
    }

    #[test]
    fn a_merge_builds_into_the_array_the_merge_before_it_retired() {
        let keys: Vec<u32> = (0..2_000).map(|i| i * 8).collect();
        let mut churn = Churn::new(&keys);
        let server = IndexServer::build(&keys, one_shard_cfg());
        // `at[k]`: main array after merge k (`at[0]`: the build's).
        let mut at = vec![main_at(&server)];
        for _ in 0..5 {
            churn.merge(&server);
            churn.assert_exact(&server);
            at.push(main_at(&server));
        }
        for k in 2..at.len() {
            assert_eq!(at[k], at[k - 2], "merge {k} must build into merge {}'s array", k - 2);
            assert_ne!(at[k], at[k - 1], "a merge never writes the array readers are on");
        }
    }

    #[test]
    fn a_pinned_epoch_keeps_its_array_until_released() {
        let keys: Vec<u32> = (0..2_000).map(|i| i * 8).collect();
        let mut churn = Churn::new(&keys);
        let server = IndexServer::build(&keys, one_shard_cfg());
        let mut at = vec![main_at(&server)];
        churn.merge(&server);
        at.push(main_at(&server));

        // A reader pins epoch 1 across the two merges that would reuse
        // its array: the second of them must allocate instead.
        let pinned = server.cells[0].load();
        let pinned_set = churn.set.clone();
        for _ in 0..2 {
            churn.merge(&server);
            at.push(main_at(&server));
        }
        assert_eq!(at[2], at[0], "merge 2 reuses the build's array: nobody pins it");
        assert!(at[3] != at[1] && at[3] != at[2], "merge 3 must not touch the pinned array");
        let queries: Vec<u32> = (0..20_000).step_by(61).collect();
        let mut ranks = Vec::new();
        pinned.rank_batch(&queries, &mut ranks);
        for (&q, &r) in queries.iter().zip(&ranks) {
            assert_eq!(r, oracle(&pinned_set, q), "pinned epoch 1's rank({q})");
        }
        churn.assert_exact(&server);

        // Released, the arrays cycle again.
        drop(pinned);
        churn.merge(&server);
        at.push(main_at(&server));
        assert_eq!(at[4], at[2], "merge 4 reuses the array merge 3 retired");
        churn.assert_exact(&server);
    }

    #[test]
    fn a_recovered_shard_merges_off_the_map_then_recycles() {
        let path = scratch_snapshot("recycle");
        let keys: Vec<u32> = (0..2_000).map(|i| i * 8).collect();
        let mut churn = Churn::new(&keys);
        let mut c = one_shard_cfg();
        c.store = Some(StorePlan::new(path.clone()));
        IndexServer::build(&keys, c.clone()).quiesce();
        let snap = dini_store::open_snapshot(&path).unwrap();
        c.store = None;
        let server = IndexServer::build_recovered(&snap, c);

        let mut at = vec![main_at(&server)];
        assert_eq!(at[0], snap.shards[0].main.as_slice().as_ptr(), "served off the snapshot");
        for _ in 0..3 {
            churn.merge(&server);
            churn.assert_exact(&server);
            at.push(main_at(&server));
        }
        assert_ne!(at[1], at[0], "merge 1 leaves the map for a fresh owned array");
        assert!(at[2] != at[0] && at[2] != at[1], "a mapped main retires nothing to reuse");
        assert_eq!(at[3], at[1], "merge 3 reuses merge 1's owned array");
        drop(server);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovered_pending_deltas_serve_exact_ranks_before_any_publish() {
        let path = scratch_snapshot("pending");
        let keys: Vec<u32> = (0..2_000).map(|i| i * 10).collect();
        let mut c = cfg(2);
        c.merge_threshold = 1_000_000; // churn stays in the overlay
        c.store = Some(StorePlan::new(path.clone()));
        let server = IndexServer::build(&keys, c.clone());
        server.update(Op::Insert(5)).unwrap();
        server.update(Op::Insert(15)).unwrap();
        server.update(Op::Delete(0)).unwrap();
        server.quiesce();
        drop(server);

        let snap = dini_store::open_snapshot(&path).unwrap();
        assert!(
            snap.shards.iter().any(|s| !s.inserts.is_empty() || !s.deletes.is_empty()),
            "scenario must recover un-merged pendings"
        );
        let recovered = IndexServer::build_recovered(&snap, c);
        // First lookups, before any fresh churn or publish, must already
        // fold the recovered pendings: {5, 10, 15} ≤ 15, key 0 deleted.
        let h = recovered.handle();
        assert_eq!(h.lookup(15).unwrap(), 3);
        assert_eq!(h.lookup(0).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_failures_are_counted_not_fatal() {
        let path =
            std::env::temp_dir().join("dini-serve-no-such-dir").join("nested").join("x.snap");
        let keys: Vec<u32> = (0..1_000).map(|i| i * 2).collect();
        let mut c = cfg(1);
        c.store = Some(StorePlan::new(path));
        let server = IndexServer::build(&keys, c);
        server.update(Op::Insert(1)).unwrap();
        server.quiesce();
        assert_eq!(server.checkpoints(), 0);
        assert!(server.checkpoint_failures() >= 1, "failed checkpoint must be counted");
        // Serving survives the full-disk analogue.
        assert_eq!(server.handle().lookup(1).unwrap(), 2);
    }
}
