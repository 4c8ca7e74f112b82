//! The multi-tenant index server: shards, replica groups, the callers
//! that rank for them, and the writer.
//!
//! Thread topology for an `n`-shard server with `R` replicas per shard:
//! one writer thread, nothing else. Every lookup is ranked by the thread
//! that issued it:
//!
//! ```text
//!  pipelined callers: [open group ≤ GROUP keys] ─┐ (full, or a member reaped)
//!                                                ▼
//!                                    ┌─ depth 0 → n: claims ─► meets the replica's faults, pins the
//!  callers ──route(key) → p2c(depth)─┤                         shard's snapshot, ranks its keys, counts
//!    │                               │                         them in the claim row; subtracts n
//!    │                               └─ depth > 0: adds n ───► the same, counted in the shared row;
//!    │                                                         subtracts n
//!    └──update(Op)──► writer ──DeltaArray per shard──► EpochCell s  (pinned by both, above)
//!                                                      (main array + overlay + base rank,
//!                                                       one publish, shared by replicas)
//! ```
//!
//! * **The shard is the paper's partition, and its slave is the
//!   caller**: the router's delimiter search is the master's dispatch,
//!   and the caller answers its batch over one sorted piece with
//!   [`LineDirectory::rank_batch`](dini_index::LineDirectory) — in
//!   place, on its own thread. Parallelism inside a key range is
//!   expressed the one way there is: more shards (size `n_shards` so a
//!   shard's keys fit a core's L2).
//! * **A key never travels to be ranked**: the paper ships a key to
//!   another node because the search it buys there is cheaper than the
//!   hop, and in process it never is — waking a parked thread costs a
//!   hundred times the rank it then performs, and a shard's read state is
//!   one immutable snapshot any thread may pin. So every caller ranks
//!   its own keys, and nothing on the read path parks. The batch is the
//!   one the caller already holds: a lone key, a pipelined caller's open
//!   group, a slice ([`ServerHandle::lookup_many`], a wire frame), whose
//!   keys of one shard are ranked as *one* batch through the kernel's
//!   lockstep groups. No threshold, option or spin is involved.
//! * **The claim keeps the books cheap**: the chosen replica's depth
//!   gauge is the router's load signal, and a caller that takes it
//!   0 → n ([`ReplicaGauge::claim`]) holds the replica while it ranks.
//!   Holding buys only accounting: the replica's claim row (counts,
//!   latency, the heat grid's claim row) is written with plain loads
//!   and stores, the hold making its holder their only writer. A caller
//!   that finds depth > 0 adds its `n`, ranks just the same, and counts
//!   in the shared row with read-modify-writes (see [`crate::admission`]
//!   and [`crate::stats`]). Neither waits for the other.
//! * **A pipelined caller ranks its own group**: a caller that still
//!   holds a lookup it began has a batch in hand, one key at a time.
//!   [`ServerHandle::begin_lookup`] then adds the key to the handle's
//!   open group ([`crate::group`]) of up to [`GROUP`](crate::group::GROUP) keys — the
//!   kernel's lockstep group, so no knob — which is ranked like a slice
//!   (one replica choice and one pinned rank per shard) when it fills or
//!   when one of its lookups is reaped. A lone lookup (nothing held) is
//!   ranked inside `begin_lookup`: a paced caller's latency keeps the
//!   rank. The group's answers live in one pooled reply cell, which its
//!   lookups hold through one ticket each (see [`crate::group`]).
//! * **Replica groups**: each keyspace shard is served by
//!   `replicas_per_shard` replicas over one [`EpochCell`] — the shard's
//!   whole read state (main array behind its directory, overlay, base
//!   rank) is published once per shard — so a replica costs a gauge,
//!   its accounting and its fault script, and **nothing else**. Routing
//!   picks the shard from the key (ranks must compose), then a replica
//!   by **power-of-two choices** on live depth ([`ReplicaSelector`]) —
//!   a straggling replica's depth stays up and traffic flows around it.
//! * **Faults are the replica's, met by every caller**: a replica's
//!   scripted straggle and dispatch jitter are slept out by whoever
//!   ranks on it, before each batch, claim or not — the fate is drawn
//!   under a lock that is never held across the sleep. Past the
//!   replica's crash point a caller marks it dead and selects again,
//!   among the survivors of the same shard — callers see degraded
//!   capacity, not errors. Only when a shard's *last* replica dies does
//!   its traffic resolve to [`ShuttingDown`](crate::ServeError::ShuttingDown).
//! * **No caller keeps index state**: each batch is answered from the
//!   shard's snapshot pinned at rank time, so the `(main, overlay)` pair
//!   it sees is consistent by construction; see [`crate::snapshot`].
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

use crate::admission::ReplicaGauge;
use crate::clock::{Clock, ClockJoinHandle};
use crate::config::{ServeConfig, ServeError};
use crate::faults::ReplicaFaults;
use crate::group::{Answers, Member, OpenGroup, Ranker, Shared};
use crate::oneshot::{CellPool, Unanswered};
use crate::router::{ReplicaSelector, ShardRouter};
use crate::snapshot::{EpochCell, ShardSnapshot};
use crate::stats::{replica_labels, ReplicaMetrics, ServeStats};
use dini_cache_sim::NullMemory;
use dini_flight::EventKind;
use dini_index::{DeltaArray, LineDirectory, RankIndex};
use dini_obs::{Counter, HeatMap, MetricsRegistry, MetricsSnapshot, StageRecord, HEAT_BUCKETS};
use dini_store::{write_snapshot, ShardRecord, SharedKeys, Snapshot, SpanRecord};
use dini_workload::Op;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};

/// Idle reply cells the handles' open groups keep pooled: room for
/// 32 768 grouped lookups in flight at once before a group's cell is
/// freed rather than kept.
const GROUP_CELLS: usize = 1024;

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

/// A sharded, replicated, online-updatable rank-query server whose
/// callers rank their own keys.
///
/// Build one over an initial sorted key set, take cheap cloneable
/// [`ServerHandle`]s for concurrent callers, feed churn through
/// [`update`](Self::update), and read accounting from
/// [`stats`](Self::stats). The server owns one thread, its writer;
/// dropping the server joins it.
///
/// ```
/// use dini_serve::{IndexServer, ServeConfig};
///
/// let keys: Vec<u32> = (0..10_000).map(|i| i * 4).collect();
/// let mut cfg = ServeConfig::new(2);
/// cfg.replicas_per_shard = 2; // two claims per shard, shared index memory
/// let server = IndexServer::build(&keys, cfg);
/// let handle = server.handle();
/// assert_eq!(handle.lookup(100).unwrap(), 26); // 0,4,…,100 → 26 keys ≤ 100
///
/// server.update(dini_serve::Op::Insert(101)).unwrap();
/// server.quiesce();
/// assert_eq!(handle.lookup(101).unwrap(), 27);
/// ```
pub struct IndexServer {
    /// What every handle reaches; each handle clones it.
    core: HandleCore,
    /// Reply cells of the handles' open groups, one cell a group.
    groups: CellPool<Answers<Pending>>,
    /// Every replica's instruments plus depth/writer gauges, behind named
    /// handles — what [`metrics_snapshot`](Self::metrics_snapshot)
    /// serializes and [`stats`](Self::stats) reads.
    metrics: MetricsRegistry,
    writer_metrics: WriterMetrics,
    /// The server's own way in to the writer; `None` once `drop` has
    /// hung it up.
    updates: Option<UpdateHandle>,
    writer: Option<ClockJoinHandle<()>>,
}

/// A cheap, cloneable caller-side handle: routes lookups to the shard
/// owning the key, then to a live replica by power-of-two-choices on
/// depth — and ranks them right here on the calling thread.
///
/// Each clone carries its own routing tick, so clones never contend on
/// a shared counter (a fresh clone restarts its candidate rotation —
/// load awareness, not the rotation phase, is what balances replicas),
/// and its own open group (see [`begin_lookup`](Self::begin_lookup)),
/// whose cells come from one pool the server's handles share.
pub struct ServerHandle {
    /// This clone's open group, over everything a lookup reaches. Every
    /// lookup [`begin_lookup`](Self::begin_lookup) hands out holds a
    /// clone of it until reaped — a lone one directly, a grouped one
    /// through its group's ticket — which is how the handle knows
    /// whether its caller is pipelining.
    group: Shared<HandleCore>,
}

/// What a handle clone reaches — routing, the shards and heat — and
/// what ranks its open group.
struct HandleCore {
    router: Arc<ShardRouter>,
    selector: ReplicaSelector,
    shards: Arc<[Shard]>,
    heat: Option<Arc<HeatMap>>,
    clock: Clock,
    /// Per-clone power-of-two-choices rotation tick.
    tick: AtomicU64,
}

/// One shard: its read state, which any thread may pin, and its
/// replica group.
struct Shard {
    cell: Arc<EpochCell>,
    replicas: Vec<Replica>,
}

/// One replica of a shard. It owns no thread and no queue: every
/// caller routed to it ranks on it, the one holding its claim (see
/// [`crate::admission`]) or not.
struct Replica {
    gauge: ReplicaGauge,
    metrics: ReplicaMetrics,
    /// Its scripted faults, if any: every caller meets them before each
    /// batch it ranks. Locked only to draw a fate or read the crash
    /// point — never across a clock call, since several callers may
    /// rank on the replica at once.
    faults: Option<Mutex<ReplicaFaults>>,
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
            shards: self.shards.clone(),
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
    /// Build a server over `keys` (sorted ascending, unique). Spawns one
    /// thread, the writer; the `n_shards × replicas_per_shard` replicas
    /// (those of a shard share its key storage and directory) are ranked
    /// for by their callers.
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
        let metrics = MetricsRegistry::new();
        let writer_metrics = WriterMetrics::new(&metrics);
        writer_metrics.live_keys.set(seeds.iter().map(|s| s.live_len() as u64).sum());
        let heat = cfg.heat.then(|| {
            let spans: Vec<_> = seeds.iter().map(ShardSeed::span).collect();
            Arc::new(HeatMap::new(&spans, cfg.replicas_per_shard))
        });
        if let Some(h) = &heat {
            // One gauge per grid cell: each sums one shared cell and
            // `replicas_per_shard` claim cells, so a metrics snapshot
            // costs O(cells × replicas), not O(cells²) whole-grid copies.
            for s in 0..cfg.n_shards {
                for b in 0..HEAT_BUCKETS {
                    let h = h.clone();
                    let labels = format!("shard=\"{s}\",bucket=\"{b}\"");
                    metrics.gauge_fn("dini_serve_heat", &labels, move || h.count(s, b));
                }
            }
        }

        let n_replicas = cfg.replicas_per_shard;
        let mut shards = Vec::with_capacity(cfg.n_shards);
        let mut writer_shards = Vec::with_capacity(cfg.n_shards);
        let mut base_epochs = Vec::with_capacity(cfg.n_shards);
        let mut base_rank = 0u32;
        for (s, seed) in seeds.into_iter().enumerate() {
            // One read state for the whole replica group (owned-sorted
            // or mapped-snapshot backing, transparently): replicas add
            // claims, not copies of the keys or the directory. The
            // initial snapshot must carry the seed's pending deltas: a
            // recovered shard serves exact ranks from its very first
            // batch, before any fresh churn triggers a publish.
            let main = directory(&seed.main);
            let cell = Arc::new(EpochCell::new(ShardSnapshot::new(
                seed.main_epoch,
                base_rank,
                main.clone(),
                &seed.inserts,
                &seed.deletes,
            )));
            base_rank += seed.live_len() as u32;
            base_epochs.push(seed.main_epoch);
            writer_shards.push(WriterShard {
                delta: DeltaArray::from_parts(
                    seed.main,
                    seed.inserts,
                    seed.deletes,
                    0,
                    0.0,
                    cfg.merge_threshold,
                ),
                main_epoch: seed.main_epoch,
                main,
                retired: None,
                cell: cell.clone(),
            });
            let replicas = (0..n_replicas)
                .map(|r| {
                    let faults = ReplicaFaults::resolve(&cfg.faults, s, r);
                    Replica {
                        gauge: ReplicaGauge::new(),
                        metrics: ReplicaMetrics::new(&metrics, s, r, &cfg.trace),
                        faults: (!faults.is_noop()).then(|| Mutex::new(faults)),
                    }
                })
                .collect();
            shards.push(Shard { cell, replicas });
        }
        let shards: Arc<[Shard]> = shards.into();

        // Depth gauges poll the replicas' atomics at snapshot time — live
        // depth is already load-bearing state (the p2c router reads it),
        // so exposing it costs nothing. `rebuilds` is the epochs the
        // shard's snapshot has crossed since the build, read off it here.
        for s in 0..cfg.n_shards {
            for r in 0..n_replicas {
                let labels = replica_labels(s, r);
                let depth = shards.clone();
                metrics.gauge_fn("dini_serve_queue_depth", &labels, move || {
                    depth[s].replicas[r].gauge.depth()
                });
                let (cell, base) = (shards[s].cell.clone(), base_epochs[s]);
                metrics.gauge_fn("dini_serve_rebuilds", &labels, move || {
                    cell.load().main_epoch - base
                });
            }
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
        let (walk, walked) = (shards.clone(), sums.clone());
        metrics.gauge_fn("dini_serve_trace_records", "", move || {
            let records: Vec<StageRecord> = walk
                .iter()
                .flat_map(|s| &s.replicas)
                .flat_map(|r| r.metrics.trace().snapshot())
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
            writer_shards,
            watermark,
            router.clone(),
            writer_metrics.clone(),
            writer_rx,
            cfg.clone(),
        );

        // Group cells, one per up to `GROUP` lookups; returns beyond
        // `GROUP_CELLS` are dropped, bounding memory under pathological
        // in-flight spikes.
        let groups = CellPool::new(GROUP_CELLS, cfg.clock.clone());

        Self {
            core: HandleCore {
                router,
                selector: ReplicaSelector::new(n_replicas),
                shards,
                heat,
                clock: cfg.clock.clone(),
                tick: AtomicU64::new(0),
            },
            groups,
            metrics,
            writer_metrics,
            updates: Some(UpdateHandle { tx: writer_tx, clock: cfg.clock }),
            writer: Some(writer),
        }
    }

    /// A cloneable caller handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { group: OpenGroup::shared(self.core.clone(), self.groups.clone()) }
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
        let clock = &self.core.clock;
        if clock.send(&self.updates().tx, WriterMsg::Quiesce(ack_tx)).is_ok() {
            let _ = clock.recv(&ack_rx);
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
        self.core.router.n_shards()
    }

    /// The clock every server thread waits on (virtual under
    /// `dini-simtest`). Transport layers hosting this server spawn their
    /// acceptor/connection threads on the same clock so one scheduler
    /// sees every wait.
    pub fn clock(&self) -> &Clock {
        &self.core.clock
    }

    /// Number of replicas serving each shard.
    pub fn replicas_per_shard(&self) -> usize {
        self.core.selector.n_replicas()
    }

    /// Point-in-time aggregate statistics, read off a registry
    /// snapshot (no caller is ever blocked by this).
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
        (0..self.core.shards.len() * per_shard)
            .map(|i| ServeStats::within(&snap, &replica_labels(i / per_shard, i % per_shard)))
            .collect()
    }

    /// Every replica's sampled stage records, replica-major then
    /// oldest-first within a replica. Each record carries its
    /// shard/replica coordinates. Allocates — a reader-side operation.
    pub fn stage_traces(&self) -> Vec<StageRecord> {
        let replicas = self.core.shards.iter().flat_map(|s| &s.replicas);
        replicas.flat_map(|r| r.metrics.trace().snapshot()).collect()
    }

    /// Snapshot the whole metrics registry: per-replica
    /// counters/histograms, depth gauges, writer counters and stage-trace
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
        // The writer exits once the last update sender hangs up.
        self.updates.take();
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        // No replica is alive any more: a handle that outlives the server
        // must not rank on its own against a state nobody publishes to.
        for r in self.core.shards.iter().flat_map(|s| &s.replicas) {
            r.gauge.mark_dead();
        }
    }
}

/// A lookup submitted but not yet reaped. Redeem with
/// [`wait`](Self::wait) (blocking) or reap with [`poll`](Self::poll) —
/// the primitive a genuinely open-loop caller needs: the caller's
/// arrival schedule never stretches on slow replies.
///
/// A lookup ranked when it was submitted — by the submitting thread,
/// which is every lookup but a grouped one — is born resolved. One that
/// joined its handle's open group (a pipelined
/// [`ServerHandle::begin_lookup`]) holds its group's ticket — one
/// reference, counted from the group's close, that carries the group's
/// pooled reply cell (see [`crate::group`]): the first `poll` or `wait`
/// on any member ranks a group still open, and dropping it before then
/// takes its key out unranked.
#[derive(Debug)]
pub struct PendingLookup {
    pending: Pending,
    /// [`ServerHandle::begin_lookup`]'s lookups answered alone: counts
    /// the lookup as held against its handle until it is reaped.
    _held: Option<Shared<HandleCore>>,
}

/// What a lookup's caller reads: its global rank, or why there is none.
type Reply = Result<u32, ServeError>;

/// One key's answer, as ranking leaves it — and, ranked, what a slot
/// of an open group's reply cell holds.
#[derive(Debug)]
enum Pending {
    Ready(Reply),
    /// A slot of an open group's cell; the slot itself is `Ready`.
    Grouped(Member<HandleCore>),
}

impl Pending {
    fn wait(&self) -> Reply {
        match self {
            Pending::Ready(reply) => *reply,
            Pending::Grouped(member) => member.wait().wait(),
        }
    }

    fn poll(&self) -> Option<Reply> {
        match self {
            Pending::Ready(reply) => Some(*reply),
            Pending::Grouped(member) => member.poll().and_then(Self::poll),
        }
    }
}

/// An unfilled group slot: a hole, or past the group's end.
impl Unanswered for Pending {
    fn unanswered() -> Self {
        Pending::Ready(Err(ServeError::ShuttingDown))
    }
}

/// Admitted alone or in a slice: held against no handle.
impl From<Pending> for PendingLookup {
    fn from(pending: Pending) -> Self {
        Self { pending, _held: None }
    }
}

impl PendingLookup {
    /// Block for the rank.
    pub fn wait(self) -> Result<u32, ServeError> {
        self.pending.wait()
    }

    /// The rank if it has arrived, `None` if still in flight.
    pub fn poll(&self) -> Option<Result<u32, ServeError>> {
        self.pending.poll()
    }
}

/// Reusable scratch for [`ServerHandle::begin_lookup_many`]: per-key
/// shard assignments and ranks, and one shard's keys and ranks. Keep
/// one per submitting thread and a warmed call allocates nothing.
#[derive(Debug, Default)]
pub struct LookupScratch {
    /// `shards[i]`: the shard `keys[i]` routes to.
    shards: Vec<usize>,
    /// `ranked[shard]`: whether the shard's keys were ranked (`Some(true)`),
    /// refused for want of a live replica (`Some(false)`), or not yet
    /// reached (`None`).
    ranked: Vec<Option<bool>>,
    /// `slots[i]`: the rank of `keys[i]`, once its shard is ranked.
    slots: Vec<u32>,
    /// One shard's keys, and their ranks — or, for a slice ranked in
    /// place, the whole slice's ranks.
    keys: Vec<u32>,
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
    fn replica(&self, shard: usize, replica: usize) -> &Replica {
        &self.shards[shard].replicas[replica]
    }

    /// Pick a live replica of `shard`: power-of-two choices on live
    /// depth, skipping crashed replicas. `None` means the whole group is
    /// gone — the shard is shutting down.
    fn select(&self, shard: usize) -> Option<usize> {
        let group = &self.shards[shard].replicas;
        // ordering: relaxed-ok: per-clone rotation phase; only atomicity
        // matters, and clones never share the counter. A lone replica
        // needs no rotation, so it skips the RMW.
        let tick = if group.len() == 1 { 0 } else { self.tick.fetch_add(1, Ordering::Relaxed) };
        self.selector.select(tick, |r| group[r].gauge.probe())
    }

    /// Meet `replica`'s scripted faults before ranking a batch on it:
    /// draw the batch's fate under the lock, sleep out its straggle and
    /// jitter with the lock released, and report whether the replica is
    /// still alive. Past its crash point the replica is marked dead here,
    /// before the caller selects again, so it cannot be picked twice.
    fn meet_faults(&self, r: &Replica, faults: &Mutex<ReplicaFaults>) -> bool {
        let faults = || faults.lock().unwrap_or_else(PoisonError::into_inner);
        let delay = {
            let mut f = faults();
            (!f.crashed(&self.clock)).then(|| f.batch_delay())
        };
        match delay {
            Some(None) => return true,
            Some(Some(extra)) => {
                self.clock.sleep(extra);
                if !faults().crashed(&self.clock) {
                    return true;
                }
            }
            None => {}
        }
        r.gauge.mark_dead();
        false
    }

    /// Rank `keys` of `shard` on this thread, on a live replica: claim it
    /// if it is idle, add to its depth otherwise, meet its faults, pin
    /// the shard's snapshot, run `rank` on it, and fold the batch into
    /// the replica's accounting — the claim row's plain stores under a
    /// claim, the shared row's read-modify-writes without one. A replica
    /// met past its crash point is dead, and the keys go to the next
    /// selection. `None`: no replica of the shard is alive.
    ///
    /// The batch is timed only when someone will read the result — two
    /// clock reads and a histogram record cost more than ranking a key:
    /// the replica's seeded sampler, consulted once for all its keys,
    /// picked one of them, or they carry a trace id. An untimed batch
    /// touches neither the clock nor `latency_ns`; a timed one records
    /// its latency once, weighted by the requests each pick stands for,
    /// and one stage record per pick (per key, when traced).
    ///
    /// Atomic read-modify-writes for an untimed batch under a claim: the
    /// sampler's add, the pin and unpin, the claim and its subtract —
    /// five a batch, however many keys it holds.
    fn rank_here<T>(
        &self,
        shard: usize,
        keys: &[u32],
        trace: u64,
        mut rank: impl FnMut(&ShardSnapshot) -> T,
    ) -> Option<T> {
        let n = keys.len();
        while let Some(replica) = self.select(shard) {
            let r = self.replica(shard, replica);
            let claimed = r.gauge.claim(n);
            if !claimed {
                r.gauge.add(n);
            }
            let answer = self.rank_on(shard, replica, keys, claimed, trace, &mut rank);
            if claimed {
                r.gauge.release(n);
            } else {
                r.gauge.complete(n);
            }
            if answer.is_some() {
                return answer;
            }
            if self.shards[shard].replicas.iter().any(|s| s.gauge.is_alive()) {
                r.metrics.count_rerouted(n as u64);
            }
        }
        None
    }

    /// The body of [`rank_here`](Self::rank_here) on one replica, with
    /// its gauge already counting the batch. `None`: the replica met its
    /// crash point, and nothing was ranked.
    fn rank_on<T>(
        &self,
        shard: usize,
        replica: usize,
        keys: &[u32],
        claimed: bool,
        trace: u64,
        rank: impl FnOnce(&ShardSnapshot) -> T,
    ) -> Option<T> {
        let r = self.replica(shard, replica);
        let n = keys.len() as u64;
        let ring = r.metrics.trace();
        let picked = ring.sample_n(n);
        let collected = (picked > 0 || trace != 0).then(|| self.clock.now());
        let dispatched = match &r.faults {
            Some(faults) => {
                if !self.meet_faults(r, faults) {
                    return None;
                }
                collected.map(|_| self.clock.now())
            }
            None => collected,
        };
        // Outside the pin: under a virtual clock this may hand off to the
        // writer, whose publish would wait out a pin held across it.
        self.clock.yield_now();
        let answer = self.shards[shard].cell.with(rank);
        r.metrics.count_batch(n, claimed);
        if let Some(h) = &self.heat {
            for &key in keys {
                if claimed {
                    h.record_unshared(shard, replica, key);
                } else {
                    h.record(shard, key);
                }
            }
        }
        let (Some(collected), Some(dispatched)) = (collected, dispatched) else {
            return Some(answer);
        };
        let answered = self.clock.now();
        r.metrics.record_latency(answered - collected, picked * ring.period(), claimed);
        // A request carrying a trace id is always recorded (head-based
        // sampling: its client chose it, so its wire record always finds
        // its server half). Its answer is the return value: filled as it
        // is answered.
        let record = StageRecord {
            shard: shard as u16,
            replica: replica as u16,
            batch_len: n as u32,
            trace,
            admitted_ns: collected,
            collected_ns: collected,
            dispatched_ns: dispatched,
            answered_ns: answered,
            filled_ns: answered,
            encoded_ns: 0,
            acked_ns: 0,
        };
        let records = if trace != 0 { n } else { picked };
        (0..records).for_each(|_| ring.push(&record));
        Some(answer)
    }

    /// Rank one key, here. Refused — no replica of its shard alive — it
    /// still counts in the shard's shared heat row: it was demand on its
    /// key range, which is what a split/cache decision wants to see.
    fn enqueue(&self, key: u32, trace: u64) -> Reply {
        let shard = self.router.route(key);
        let keys = std::slice::from_ref(&key);
        match self.rank_here(shard, keys, trace, |s| s.rank(key)) {
            Some(rank) => Ok(rank),
            None => {
                self.heat_refused(shard, key);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    fn heat_refused(&self, shard: usize, key: u32) {
        if let Some(h) = &self.heat {
            h.record(shard, key);
        }
    }

    /// [`enqueue`](Self::enqueue) for a slice: `out[i]` answers
    /// `keys[i]`. The keys of one shard travel together — one replica
    /// choice, one pinned snapshot and one
    /// [`rank_batch`](ShardSnapshot::rank_batch), counted as one batch —
    /// in the order each shard's first key comes. Each key's answer is
    /// built once, in its place.
    ///
    /// A slice whose keys all route to its first key's shard — every
    /// slice of a one-shard server — is ranked in place, straight into
    /// `scratch.ranks`, and answered from there: the same batch, claim,
    /// clock calls and counts, without the per-key shard table and the
    /// scatter through key slots that a mixed slice needs.
    fn enqueue_many<T: From<Pending>>(
        &self,
        keys: &[u32],
        trace: u64,
        scratch: &mut LookupScratch,
        out: &mut Vec<T>,
    ) {
        out.clear();
        out.reserve(keys.len());
        let Some(&first) = keys.first() else { return };
        let shard = self.router.route(first);
        if keys.iter().all(|&k| self.router.owns(shard, k)) {
            let ranks = &mut scratch.ranks;
            let rank = |state: &ShardSnapshot| state.rank_batch(keys, ranks);
            if self.rank_here(shard, keys, trace, rank).is_some() {
                out.extend(scratch.ranks.iter().map(|&rank| T::from(Pending::Ready(Ok(rank)))));
            } else {
                for &key in keys {
                    self.heat_refused(shard, key);
                    out.push(T::from(Pending::Ready(Err(ServeError::ShuttingDown))));
                }
            }
            return;
        }
        scratch.shards.clear();
        scratch.shards.extend(keys.iter().map(|&k| self.router.route(k)));
        scratch.ranked.clear();
        scratch.ranked.resize(self.router.n_shards(), None);
        scratch.slots.clear();
        scratch.slots.resize(keys.len(), 0);
        for (i, &key) in keys.iter().enumerate() {
            let shard = scratch.shards[i];
            let ranked = match scratch.ranked[shard] {
                Some(ranked) => ranked,
                None => {
                    let ranked = self.rank_shard(shard, i, keys, trace, scratch);
                    scratch.ranked[shard] = Some(ranked);
                    ranked
                }
            };
            let reply = if ranked {
                Ok(scratch.slots[i])
            } else {
                self.heat_refused(shard, key);
                Err(ServeError::ShuttingDown)
            };
            out.push(T::from(Pending::Ready(reply)));
        }
    }

    /// Rank the keys of `keys` from `first` on that route to `shard`, as
    /// one batch, leaving each one's rank in its slot. `false`: no
    /// replica of the shard is alive.
    fn rank_shard(
        &self,
        shard: usize,
        first: usize,
        keys: &[u32],
        trace: u64,
        scratch: &mut LookupScratch,
    ) -> bool {
        let mine = |i: &usize| scratch.shards[*i] == shard;
        scratch.keys.clear();
        scratch.keys.extend((first..keys.len()).filter(mine).map(|i| keys[i]));
        let (batch, ranks) = (&scratch.keys, &mut scratch.ranks);
        let rank = |state: &ShardSnapshot| state.rank_batch(batch, ranks);
        if self.rank_here(shard, batch, trace, rank).is_none() {
            return false;
        }
        let positions = (first..keys.len()).filter(mine);
        for (i, &rank) in positions.zip(&scratch.ranks) {
            scratch.slots[i] = rank;
        }
        true
    }
}

/// A pipelined caller's open group is ranked the way a slice is: one
/// replica choice and one pinned
/// [`rank_batch`](ShardSnapshot::rank_batch) per shard. Its keys are
/// admitted here, at its rank, not at `begin_lookup`.
impl Ranker for HandleCore {
    type Answer = Pending;
    type Scratch = LookupScratch;

    fn rank(&self, keys: &[u32], scratch: &mut LookupScratch, answers: &mut Vec<Pending>) {
        self.enqueue_many(keys, 0, scratch, answers);
    }
}

impl ServerHandle {
    fn core(&self) -> &HandleCore {
        self.group.ranker()
    }

    /// Rank of `key` (number of live index keys ≤ `key`), ranked on this
    /// thread.
    pub fn lookup(&self, key: u32) -> Result<u32, ServeError> {
        self.core().enqueue(key, 0)
    }

    /// Submit without waiting, and return a [`PendingLookup`] to redeem
    /// later. One rule decides when `key` is ranked — Nagle's, turned
    /// round:
    ///
    /// * **Alone, at once.** If the caller holds no lookup it began on
    ///   this handle and has not reaped, `key` is ranked now, on this
    ///   thread: the lookup is born resolved, and counted as served
    ///   before this returns.
    /// * **Pipelined, in a group.** If the caller still holds one, `key`
    ///   joins this handle's open group of up to [`GROUP`](crate::group::GROUP) keys, the
    ///   kernel's lockstep group. The group is ranked when it is full or
    ///   as soon as any of its lookups is polled or waited on, as a
    ///   slice is: one replica choice and one pinned rank per shard. A
    ///   grouped lookup is admitted then, and one dropped before its
    ///   group is ranked is never admitted. A sampled group's stage
    ///   records start at its rank: the caller's time in its own open
    ///   group is client-side, like a `dini-net` frame's before it is
    ///   encoded.
    ///
    /// The slice call [`begin_lookup_many`](Self::begin_lookup_many)
    /// never groups.
    pub fn begin_lookup(&self, key: u32) -> Result<PendingLookup, ServeError> {
        if !OpenGroup::is_idle(&self.group) {
            let member = OpenGroup::join(&self.group, key);
            return Ok(Pending::Grouped(member).into());
        }
        let rank = self.core().enqueue(key, 0)?;
        Ok(PendingLookup { pending: Pending::Ready(Ok(rank)), _held: Some(self.group.clone()) })
    }

    /// Submit a whole slice at once — what a `Lookup` wire frame is —
    /// carrying a causal trace id (0 = untraced), so the stage records of
    /// whoever answers share the originating client's timeline: `out` is
    /// cleared and `out[i]` answers `keys[i]`, refusals included (an
    /// already-resolved error). Each shard's keys are ranked as one batch
    /// by this thread, so every lookup comes back resolved. Never
    /// grouped.
    pub fn begin_lookup_many(
        &self,
        keys: &[u32],
        trace: u64,
        scratch: &mut LookupScratch,
        out: &mut Vec<PendingLookup>,
    ) {
        self.core().enqueue_many(keys, trace, scratch, out);
    }

    /// Rank every key, preserving order: each shard's keys as one batch.
    pub fn lookup_many(&self, keys: &[u32]) -> Result<Vec<u32>, ServeError> {
        let mut replies: Vec<Pending> = Vec::with_capacity(keys.len());
        self.core().enqueue_many(keys, 0, &mut LookupScratch::default(), &mut replies);
        replies.iter().map(Pending::wait).collect()
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
                sh.cell.publish(ShardSnapshot::new(
                    sh.main_epoch,
                    base_rank,
                    sh.main.clone(),
                    sh.delta.pending_inserts(),
                    sh.delta.pending_deletes(),
                ));
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
    use crate::group::GROUP;
    use dini_cluster::Fault;
    use dini_store::StorePlan;
    use dini_workload::gen_sorted_unique_keys;
    use std::collections::BTreeSet;
    use std::time::Duration;

    fn oracle(set: &BTreeSet<u32>, q: u32) -> u32 {
        set.range(..=q).count() as u32
    }

    #[test]
    fn static_lookups_match_oracle() {
        let keys = gen_sorted_unique_keys(20_000, 11);
        let set: BTreeSet<u32> = keys.iter().copied().collect();
        let server = IndexServer::build(&keys, ServeConfig::new(4));
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
        let mut c = ServeConfig::new(2);
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
        // Eight callers at once on one shard whose replicas both straggle:
        // a caller sleeps out the straggle with its keys on the replica's
        // depth, so the depth stays up while the others arrive, and
        // power-of-two choices must send them to the other replica
        // instead of piling every one on the first.
        let keys: Vec<u32> = (0..10_000).map(|i| i * 2).collect();
        let mut c = ServeConfig::new(1);
        c.replicas_per_shard = 2;
        let extra = Duration::from_millis(2);
        c.faults.events.push(Fault::Straggle { shard: 0, replica: None, extra });
        let server = IndexServer::build(&keys, c);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let h = server.handle();
                s.spawn(move || {
                    (0..8u32).for_each(|i| assert!(h.lookup((t * 8 + i) * 311).is_ok()))
                });
            }
        });
        let served: Vec<u64> = server.replica_stats().iter().map(|s| s.served).collect();
        assert_eq!(served.iter().sum::<u64>(), 64);
        assert!(
            served.iter().all(|&s| s >= 16),
            "load-aware routing must spread concurrent callers over both replicas: {served:?}"
        );
    }

    #[test]
    fn replica_crash_fails_over_without_errors() {
        // Replica 0 of the only shard crashes at t = 0: every lookup
        // must still answer correctly via replica 1 — a caller that meets
        // the crash selects the survivor and ranks there.
        let keys: Vec<u32> = (0..5_000).map(|i| i * 3).collect();
        let mut c = ServeConfig::new(1);
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
        let mut c = ServeConfig::new(1);
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
        let server = IndexServer::build(&keys, ServeConfig::new(3));
        let h = server.handle();
        let queries = vec![0u32, 10, 9_999, 10_000, u32::MAX, 5];
        assert_eq!(h.lookup_many(&queries).unwrap(), vec![0, 1, 999, 1000, 1000, 0]);
    }

    #[test]
    fn updates_become_visible_after_quiesce() {
        let keys: Vec<u32> = (0..1000).map(|i| i * 4).collect();
        let server = IndexServer::build(&keys, ServeConfig::new(2));
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
        let server = IndexServer::build(&keys, ServeConfig::new(4));
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
        let mut c = ServeConfig::new(2);
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
        let mut c = ServeConfig::new(2);
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
        // the shard's merge count — read off the shard's snapshot, served
        // or not.
        let rebuilds: Vec<u64> = server.replica_stats().iter().map(|s| s.rebuilds).collect();
        // Replica-major: [s0r0, s0r1, s1r0, s1r1].
        assert_eq!((rebuilds[0], rebuilds[2]), (rebuilds[1], rebuilds[3]), "{rebuilds:?}");
        assert_eq!(rebuilds[0] + rebuilds[2], merges, "{rebuilds:?}");
    }

    #[test]
    fn deleting_everything_then_reinserting_works() {
        let keys: Vec<u32> = (1..=64).collect();
        let mut c = ServeConfig::new(2);
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
        let server = IndexServer::build(&keys, ServeConfig::new(2));

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
    fn a_lookup_that_lost_the_claim_is_ranked_by_its_caller() {
        // On virtual time: A claims the one replica and reaches the
        // scheduling point before its pin, where it stays parked while
        // any other thread is due. B arrives then, loses the claim, ranks
        // its own key and returns while A is still parked: a lost claim
        // hands nothing to the claimant and waits for nothing.
        use crate::clock::SimClock;
        use std::sync::atomic::AtomicBool;
        let keys = gen_sorted_unique_keys(5_000, 85);
        let rank = |q: u32| Ok(keys.partition_point(|&k| k <= q) as u32);
        let sim = SimClock::new();
        let _main = sim.register_main();
        let mut c = ServeConfig::new(1);
        c.clock = Clock::sim(&sim);
        let server = IndexServer::build(&keys, c);
        let clock = server.clock().clone();
        let a_returned = Arc::new(AtomicBool::new(false));
        let (h, done) = (server.handle(), a_returned.clone());
        let a = clock.spawn("claimant", move || {
            let answer = h.lookup(1_000);
            done.store(true, Ordering::SeqCst);
            answer
        });
        let (h, done) = (server.handle(), a_returned.clone());
        let b = clock.spawn("loser", move || {
            let answer = h.lookup(2_000);
            (answer, done.load(Ordering::SeqCst))
        });
        let (b_answer, a_had_returned) = b.join().unwrap();
        assert_eq!(b_answer, rank(2_000));
        assert!(!a_had_returned, "the loser's lookup waited for the claimant to return");
        assert_eq!(a.join().unwrap(), rank(1_000));
        let stats = server.stats();
        assert_eq!((stats.served, stats.claimed, stats.batches), (2, 1, 2), "B lost the claim");
        assert_eq!(server.core.shards[0].replicas[0].gauge.depth(), 0);
        drop(server);
    }

    #[test]
    fn idle_lookups_are_ranked_by_the_caller() {
        let keys = gen_sorted_unique_keys(5_000, 78);
        let set: BTreeSet<u32> = keys.iter().copied().collect();
        let mut c = ServeConfig::new(2);
        c.trace = dini_obs::TraceConfig::dense();
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        for i in 0..200u32 {
            let q = i.wrapping_mul(2_654_435_761);
            assert_eq!(h.lookup(q).unwrap(), oracle(&set, q), "query {q}");
        }
        // Nothing is ranking now …
        let snap = server.metrics_snapshot();
        assert_eq!(
            snap.series("dini_serve_queue_depth").map(|(_, d)| d).collect::<Vec<_>>(),
            [0, 0]
        );
        // … and the accounting reads 200 claimed batches of one that
        // never waited.
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
        let server = IndexServer::build(&keys, ServeConfig::new(2));
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
        // The same 300 lookups (every third one traced), once ranked
        // under the replicas' claims and once by callers that lost them —
        // every gauge held up by a phantom key for the whole run — leave
        // the same counts, the claim row's in the one and the shared
        // row's in the other.
        let keys = gen_sorted_unique_keys(10_000, 80);
        let run = |claim: bool| {
            let mut c = ServeConfig::new(2);
            c.heat = true;
            c.trace = dini_obs::TraceConfig { sample_period: 7, ..Default::default() };
            let server = IndexServer::build(&keys, c);
            let replicas = || server.core.shards.iter().flat_map(|s| &s.replicas);
            if !claim {
                replicas().for_each(|r| r.gauge.add(1));
            }
            let h = server.handle();
            let (mut scratch, mut out) = (LookupScratch::default(), Vec::new());
            for i in 0..300u32 {
                let trace = if i % 3 == 0 { u64::from(i) + 1 } else { 0 };
                let q = i.wrapping_mul(747_796_405);
                h.begin_lookup_many(&[q], trace, &mut scratch, &mut out);
                out.pop().unwrap().wait().unwrap();
            }
            if !claim {
                replicas().for_each(|r| r.gauge.complete(1));
            }
            assert!(replicas().all(|r| r.gauge.depth() == 0), "a batch left its count behind");
            let stats = server.stats();
            let records = server.stage_traces();
            for t in &records {
                assert!(t.stages_monotonic() && t.wait_ns() == 0 && t.fill_ns() == 0, "{t:?}");
            }
            let mut traces: Vec<(u16, u16, u32, u64)> =
                records.iter().map(|t| (t.shard, t.replica, t.batch_len, t.trace)).collect();
            traces.sort_unstable();
            let counts = (stats.served, stats.admitted, stats.batches, stats.shed);
            let replicas = server.replica_stats();
            let latencies: Vec<u64> = replicas.iter().map(|r| r.latency_ns.count()).collect();
            let batch_sizes = (stats.batch_size.count(), stats.batch_size.max());
            let served: Vec<u64> = replicas.iter().map(|r| r.served).collect();
            // The registry carries both rows' `served` series
            // (`path="claim"` for the claim row); summed, they are what
            // `stats()` merged.
            let snap = server.metrics_snapshot();
            assert_eq!(snap.series("dini_serve_served").count(), 4, "2 replicas × 2 rows");
            assert_eq!(snap.sum("dini_serve_served"), stats.served);
            let heat: Vec<u64> = snap.series("dini_serve_heat").map(|(_, v)| v).collect();
            let by_path = (stats.claimed, stats.served - stats.claimed);
            (counts, served, heat, traces, batch_sizes, latencies, by_path)
        };
        let (claimed, lost) = (run(true), run(false));
        assert_eq!(claimed.0, lost.0, "served/admitted/batches/shed");
        assert_eq!(claimed.1, lost.1, "per-replica split");
        assert_eq!(claimed.2, lost.2, "heat");
        assert_eq!(claimed.3, lost.3, "stage records: same requests sampled, same shapes");
        assert_eq!(claimed.4, lost.4, "batch sizes: count and max");
        assert_eq!(claimed.5, lost.5, "latency samples per replica");
        assert_eq!(claimed.6, (300, 0), "(claimed, shared): every claim won");
        assert_eq!(lost.6, (0, 300), "(claimed, shared): every claim lost");
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
            let mut c = ServeConfig::new(1);
            c.trace = trace;
            let server = IndexServer::build(&keys, c);
            let h = server.handle();
            for q in 0..10u32 {
                h.lookup(q * 7919).unwrap();
            }
            let (mut scratch, mut out) = (LookupScratch::default(), Vec::with_capacity(1));
            let before = SYS_NOW_READS.get();
            for i in 0..lookups {
                let q = i.wrapping_mul(2_654_435_761);
                h.begin_lookup_many(&[q], id, &mut scratch, &mut out);
                out.pop().unwrap().wait().unwrap();
            }
            let reads = SYS_NOW_READS.get() - before;
            let stats = server.stats();
            let n = 10 + u64::from(lookups);
            assert_eq!((stats.served, stats.batches), (n, n));
            assert_eq!(stats.claimed, n, "some lookup lost the claim");
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
            let mut c = ServeConfig::new(1);
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
            assert_eq!((stats.served, stats.claimed), (n, n), "some lookup lost the claim");
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
        let server = IndexServer::build(&keys, ServeConfig::new(1));
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
    fn four_threads_share_one_pipelined_handle() {
        use std::collections::VecDeque;
        use std::sync::mpsc::channel;
        const THREADS: u32 = 4;
        const WINDOW: usize = 256;
        const PER_THREAD: u32 = 20_000;
        let keys = gen_sorted_unique_keys(50_000, 84);
        let rank = |q: u32| Ok(keys.partition_point(|&k| k <= q) as u32);
        let mut c = ServeConfig::new(2);
        c.replicas_per_shard = 2;
        c.heat = true;
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        let begun = AtomicU64::new(0);
        // Thread t hands every fifth lookup it begins to thread t + 1,
        // which waits on half of them and drops the rest once a poll
        // has seen them answered: reaped and dropped away from the
        // thread that began them, while that thread keeps joining the
        // same open groups.
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..THREADS).map(|_| channel::<(u32, PendingLookup)>()).unzip();
        let reap = |(q, p): (u32, PendingLookup)| {
            if q % 2 == 0 {
                assert_eq!(p.wait(), rank(q), "handed-off query {q}");
            } else {
                // A poll finds its group mid-rank on another thread now
                // and then; that thread answers it within the deadline.
                let deadline = std::time::Instant::now() + Duration::from_secs(60);
                while p.poll().is_none() {
                    assert!(std::time::Instant::now() < deadline, "query {q}: poll never answered");
                    std::thread::yield_now();
                }
                drop(p);
            }
        };
        std::thread::scope(|s| {
            for (t, handed) in receivers.into_iter().enumerate() {
                let next = senders[(t + 1) % THREADS as usize].clone();
                let (h, begun, rank, reap) = (&h, &begun, &rank, &reap);
                s.spawn(move || {
                    let mut flight = VecDeque::with_capacity(WINDOW);
                    for i in 0..PER_THREAD {
                        if flight.len() == WINDOW {
                            let (q, p): (u32, PendingLookup) = flight.pop_front().unwrap();
                            assert_eq!(p.wait(), rank(q), "query {q}");
                        }
                        let q = (i * THREADS + t as u32).wrapping_mul(2_654_435_761);
                        let p = h.begin_lookup(q).expect("fault-free");
                        begun.fetch_add(1, Ordering::Relaxed);
                        if i % 5 == 0 {
                            next.send((q, p)).unwrap();
                        } else {
                            flight.push_back((q, p));
                        }
                        while let Ok(lookup) = handed.try_recv() {
                            reap(lookup);
                        }
                    }
                    drop(next);
                    for (q, p) in flight {
                        assert_eq!(p.wait(), rank(q), "query {q}");
                    }
                    handed.into_iter().for_each(reap);
                });
            }
            drop(senders);
        });
        // Nothing held: one lone lookup, then five that join a group and
        // are dropped, unranked, on another thread.
        let held = h.begin_lookup(1).unwrap();
        let unranked: Vec<_> = (0..5u32).map(|i| h.begin_lookup(i * 977).unwrap()).collect();
        std::thread::scope(|s| s.spawn(move || drop(unranked)).join().unwrap());
        assert_eq!(held.wait(), rank(1));
        let begun = begun.into_inner() + 6;
        let stats = server.stats();
        assert_eq!(stats.served, begun - 5, "served = begun - dropped unranked");
        assert_eq!(stats.shed, 0);
        let heat: u64 = server.metrics_snapshot().series("dini_serve_heat").map(|(_, v)| v).sum();
        assert_eq!(heat, stats.served, "every served key counted in heat once");
    }

    #[test]
    fn a_grouped_lookup_dropped_unranked_is_never_admitted() {
        let keys = gen_sorted_unique_keys(5_000, 83);
        let server = IndexServer::build(&keys, ServeConfig::new(2));
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
        let server = IndexServer::build(&keys, ServeConfig::new(2));
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
        let server = IndexServer::build(&keys, ServeConfig::new(2));
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
        let mut c = ServeConfig::new(4);
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
        let mut c = ServeConfig::new(2);
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
        // by its client, so its caller records it whatever its own
        // sampler says — here a sampler whose first hit is request
        // 24 301, i.e. never.
        let keys = gen_sorted_unique_keys(2_000, 53);
        let mut c = ServeConfig::new(1);
        c.trace = dini_obs::TraceConfig { sample_period: 1 << 40, ..Default::default() };
        let server = IndexServer::build(&keys, c);
        let h = server.handle();
        let (mut scratch, mut out) = (LookupScratch::default(), Vec::new());
        for id in 1..=50u64 {
            h.begin_lookup_many(&[id as u32 * 7], id, &mut scratch, &mut out);
            out.pop().unwrap().wait().unwrap();
            h.lookup(id as u32 * 11).unwrap();
        }
        let mut ids: Vec<u64> = server.stage_traces().iter().map(|t| t.trace).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=50).collect::<Vec<u64>>(), "every traced request, nothing else");
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let keys = gen_sorted_unique_keys(2_000, 52);
        let mut c = ServeConfig::new(1);
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
        let mut c = ServeConfig::new(3);
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
        let mut c = ServeConfig::new(2);
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
        server.core.shards[0].cell.load().main.as_ref().expect("a non-empty main").keys().as_ptr()
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
        let mut c = ServeConfig::new(1);
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
        let pinned = server.core.shards[0].cell.load();
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
        let mut c = ServeConfig::new(2);
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
        let mut c = ServeConfig::new(1);
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
