//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame travels as
//!
//! ```text
//!   [ len: u32 LE ][ version: u8 ][ kind: u8 ][ body… ]
//!   '---- 4 B ----''------------- len bytes ----------'
//! ```
//!
//! with all integers little-endian. `len` counts the bytes *after* the
//! prefix and is bounded by [`MAX_FRAME_LEN`], so a corrupt length can
//! never drive an allocation. Decoding is total: any truncated,
//! oversized, trailing-garbage, unknown-version, or unknown-tag input
//! returns a [`WireError`] — never a panic — which `prop_wire.rs` pins
//! with randomized corruption.
//!
//! The frame set is the server↔caller boundary, serialized:
//!
//! | frame | direction | carries |
//! |---|---|---|
//! | [`Frame::Hello`] | client → server | protocol version |
//! | [`Frame::ShardMap`] | server → client | span delimiters + replica endpoints + the server's span, live-key count, and churn-log watermark |
//! | [`Frame::Lookup`] | client → server | one coalesced key batch under a request id |
//! | [`Frame::Reply`] | server → client | per-key rank / shed / shutdown |
//! | [`Frame::Update`] | client → server | an epoch-stamped, sequence-numbered churn-log suffix |
//! | [`Frame::UpdateAck`] | server → client | highest contiguously applied log sequence (when requested) |
//! | [`Frame::Quiesce`] / [`Frame::QuiesceAck`] | round trip | update-visibility barrier + fresh live count |
//! | [`Frame::EpochPing`] / [`Frame::EpochPong`] | round trip | snapshot-epoch / live-count refresh |
//! | [`Frame::Status`] | server → client | shed/shutdown notice for the whole connection |
//! | [`Frame::StatsRequest`] / [`Frame::StatsReply`] | round trip | the span process's whole metrics registry, snapshotted: every named counter, gauge and histogram |
//!
//! A [`Frame::StatsReply`] body is the request id, then three sections —
//! counters, gauges, histograms — each a `u32` series count followed by
//! its series in registration order:
//!
//! ```text
//!   series    = name: str, labels: str, value
//!   str       = [ len: u32 ][ UTF-8 bytes ]
//!   scalar    = value: u64
//!   histogram = sum: f64, min: f64, max: f64, pairs: u32, pairs × (bin: u16, count: u64)
//! ```
//!
//! Histograms carry only their non-empty bins, ascending, and a frame
//! carries at most [`MAX_HISTOGRAMS`] of them (each decodes dense). The frame
//! names every number it carries, so a new counter crosses the wire
//! without a new frame field or a new [`WIRE_VERSION`].

use dini_cluster::LogHistogram;
use dini_obs::MetricsSnapshot;

/// Protocol version carried by every frame; decoders reject all others.
/// Version 2 restamped [`Frame::Update`] / [`Frame::UpdateAck`] with the
/// replicated churn log's epoch and sequence fields. Version 3 added the
/// server's recovered churn-log watermark to [`Frame::ShardMap`], so a
/// client (re)joining a snapshot-restarted span knows which log suffix
/// to replay. Version 4 added the causal trace context (`trace` +
/// `parent`) to [`Frame::Lookup`] / [`Frame::Update`] / [`Frame::Reply`]
/// and the key-range heat counters to the stats reply. Version 5 made
/// [`Frame::StatsReply`] carry the server's [`MetricsSnapshot`], series
/// by name, in place of a fixed list of fields, and made every count and
/// string length in every frame a checked `u32` (the shard map's were
/// `u16`).
pub const WIRE_VERSION: u8 = 5;

/// Upper bound on the post-prefix length of one frame (16 MiB): a
/// corrupt or hostile length prefix is rejected before any allocation.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Upper bound on the histogram series one [`Frame::StatsReply`] may
/// carry. A histogram decodes to its dense bin array
/// ([`LogHistogram::nbins`] counters, 8.5 KiB) from as little as 36
/// bytes on the wire, so the frame length alone would let one frame
/// demand gigabytes; this cap holds a decode to 4 096 × 8.5 KiB = 34 MiB,
/// about twice [`MAX_FRAME_LEN`]. A server registers four per replica.
pub const MAX_HISTOGRAMS: usize = 4096;

const KIND_HELLO: u8 = 1;
const KIND_SHARD_MAP: u8 = 2;
const KIND_LOOKUP: u8 = 3;
const KIND_REPLY: u8 = 4;
const KIND_UPDATE: u8 = 5;
const KIND_UPDATE_ACK: u8 = 6;
const KIND_QUIESCE: u8 = 7;
const KIND_QUIESCE_ACK: u8 = 8;
const KIND_EPOCH_PING: u8 = 9;
const KIND_EPOCH_PONG: u8 = 10;
const KIND_STATUS: u8 = 11;
const KIND_STATS_REQUEST: u8 = 12;
const KIND_STATS_REPLY: u8 = 13;

/// Why a byte sequence is not a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the frame did.
    Truncated,
    /// Length prefix exceeds [`MAX_FRAME_LEN`] (or is too short to hold
    /// the version and kind bytes).
    BadLength(u32),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Unknown enum tag inside a body.
    BadTag(u8),
    /// The body decoded but left unconsumed bytes behind.
    Trailing(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A histogram's bins were out of range or out of order, or its
    /// counts overflowed.
    BadHistogram,
    /// A stats reply carried more histogram series than
    /// [`MAX_HISTOGRAMS`].
    TooMany(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadLength(n) => write!(f, "frame length {n} out of bounds"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after frame body"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadHistogram => write!(f, "histogram bins out of range or order"),
            WireError::TooMany(n) => write!(f, "{n} histogram series, past {MAX_HISTOGRAMS}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Outcome of one key's lookup, as carried by [`Frame::Reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupStatus {
    /// The key's rank within the answering server's key space.
    Rank(u32),
    /// Admission control shed the key (payload: the server-local shard
    /// whose queue was full).
    Shed(u32),
    /// The server is shutting down (or the key's last replica is gone).
    Shutdown,
}

/// One churn operation on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOp {
    /// Insert a key.
    Insert(u32),
    /// Delete a key.
    Delete(u32),
}

/// One span of the shard map: a contiguous slice of the key space and
/// the replica endpoints serving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanMsg {
    /// Smallest key the span owns (span 0 must start at 0).
    pub lo_key: u32,
    /// Addresses of the servers replicating this span.
    pub endpoints: Vec<String>,
}

/// One protocol frame. See the module docs for the layout and the
/// direction each frame travels.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake: announces the protocol version it speaks.
    Hello {
        /// Highest protocol version the client understands.
        proto: u16,
    },
    /// Server handshake reply: the cluster topology plus this server's
    /// own span, live-key count, and churn-log watermark.
    ShardMap {
        /// Every span of the key space, in key order.
        spans: Vec<SpanMsg>,
        /// Which span the answering server hosts.
        my_span: u16,
        /// Live keys the answering server holds right now.
        live_keys: u64,
        /// Churn-log epoch the server's state already folds — non-zero
        /// after a snapshot restart, where the mapped state covers a
        /// log prefix. A fresh (empty-state) server reports `(0, 0)`.
        log_epoch: u64,
        /// Highest churn-log sequence the server's state already folds
        /// (0 = none): the client replays its log strictly after this.
        log_seq: u64,
    },
    /// A coalesced lookup batch.
    Lookup {
        /// Request id replies (and retries) are matched on.
        req: u64,
        /// Causal trace id stamped by the originating client; 0 when the
        /// request was not sampled. Retries reuse the original id, so
        /// one logical request is one timeline across failovers.
        trace: u64,
        /// The client-side span that emitted this frame (its slot in the
        /// client's wire trace ring), so a stitcher can parent the
        /// server's stage records under the exact client hop.
        parent: u32,
        /// The batch, in submission order.
        keys: Vec<u32>,
    },
    /// The answer to one [`Frame::Lookup`], positionally aligned.
    Reply {
        /// The request id being answered.
        req: u64,
        /// The lookup's trace id, echoed verbatim (0 = untraced).
        trace: u64,
        /// The lookup's parent span, echoed verbatim.
        parent: u32,
        /// One status per key, in the batch's order.
        results: Vec<LookupStatus>,
    },
    /// A suffix of the client's replicated churn log: `ops[i]` is log
    /// record `seq + i`. Replicas apply strictly in sequence order from
    /// a per-connection cursor; a frame opening past the cursor (a gap)
    /// is held off until the writer replays the missing prefix.
    Update {
        /// Request id for the ack; 0 = fire-and-forget (no ack).
        req: u64,
        /// The writer's election epoch (bumped per failover).
        epoch: u64,
        /// Log sequence number of `ops[0]`; sequences start at 1. An
        /// empty `ops` is a pure log-position probe.
        seq: u64,
        /// Causal trace id stamped by the client (0 = unsampled);
        /// resends reuse the original id.
        trace: u64,
        /// The client-side parent span for the stitcher.
        parent: u32,
        /// The log records, applied in order.
        ops: Vec<WireOp>,
    },
    /// Receipt for an acked [`Frame::Update`], reporting how far the
    /// replica's log has contiguously applied.
    UpdateAck {
        /// The request id being acknowledged.
        req: u64,
        /// The epoch the replica has adopted.
        epoch: u64,
        /// Highest log sequence applied with no gaps below it (0 = none).
        seq: u64,
    },
    /// Update-visibility barrier: block until every previously received
    /// update is applied and published.
    Quiesce {
        /// Request id for the ack.
        req: u64,
    },
    /// Barrier receipt, carrying fresh accounting.
    QuiesceAck {
        /// The request id being acknowledged.
        req: u64,
        /// Live keys after the barrier.
        live_keys: u64,
        /// Snapshot epochs published so far.
        snapshots: u64,
    },
    /// Snapshot-epoch / live-count probe (cheap; no barrier).
    EpochPing {
        /// Request id for the pong.
        req: u64,
    },
    /// Probe reply.
    EpochPong {
        /// The request id being answered.
        req: u64,
        /// Live keys as of the last snapshot publication.
        live_keys: u64,
        /// Snapshot epochs published so far.
        snapshots: u64,
    },
    /// Connection-level status notice.
    Status {
        /// What the peer should know.
        code: StatusCode,
    },
    /// Ask the span process for its live stats (cheap; no barrier).
    StatsRequest {
        /// Request id for the reply.
        req: u64,
    },
    /// The span process's live accounting: its hosted server's metrics
    /// registry, snapshotted.
    StatsReply {
        /// The request id being answered.
        req: u64,
        /// Every series the registry holds, by name and labels.
        metrics: MetricsSnapshot,
    },
}

/// Connection-level status codes for [`Frame::Status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// The server is going away; the client should fail over.
    ShuttingDown,
}

// ---------------------------------------------------------------- encode

#[inline]
fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

#[inline]
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A count or byte length as its `u32` prefix. No count in a frame can
/// pass `u32` — the frame would be far past [`MAX_FRAME_LEN`] first — so
/// this never truncates.
fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u32(buf, u32::try_from(n).expect("a frame's counts fit in u32"));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::ShardMap { .. } => KIND_SHARD_MAP,
            Frame::Lookup { .. } => KIND_LOOKUP,
            Frame::Reply { .. } => KIND_REPLY,
            Frame::Update { .. } => KIND_UPDATE,
            Frame::UpdateAck { .. } => KIND_UPDATE_ACK,
            Frame::Quiesce { .. } => KIND_QUIESCE,
            Frame::QuiesceAck { .. } => KIND_QUIESCE_ACK,
            Frame::EpochPing { .. } => KIND_EPOCH_PING,
            Frame::EpochPong { .. } => KIND_EPOCH_PONG,
            Frame::Status { .. } => KIND_STATUS,
            Frame::StatsRequest { .. } => KIND_STATS_REQUEST,
            Frame::StatsReply { .. } => KIND_STATS_REPLY,
        }
    }

    /// Append this frame — length prefix included — to `buf`. The buffer
    /// is the caller's to reuse across frames.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        put_u32(buf, 0); // length backpatched below
        buf.push(WIRE_VERSION);
        buf.push(self.kind());
        match self {
            Frame::Hello { proto } => put_u16(buf, *proto),
            Frame::ShardMap { spans, my_span, live_keys, log_epoch, log_seq } => {
                put_u16(buf, *my_span);
                put_u64(buf, *live_keys);
                put_u64(buf, *log_epoch);
                put_u64(buf, *log_seq);
                put_len(buf, spans.len());
                for s in spans {
                    put_u32(buf, s.lo_key);
                    put_len(buf, s.endpoints.len());
                    for e in &s.endpoints {
                        put_str(buf, e);
                    }
                }
            }
            Frame::Lookup { req, trace, parent, keys } => {
                put_u64(buf, *req);
                put_u64(buf, *trace);
                put_u32(buf, *parent);
                put_len(buf, keys.len());
                for &k in keys {
                    put_u32(buf, k);
                }
            }
            Frame::Reply { req, trace, parent, results } => {
                put_u64(buf, *req);
                put_u64(buf, *trace);
                put_u32(buf, *parent);
                put_len(buf, results.len());
                for r in results {
                    match r {
                        LookupStatus::Rank(v) => {
                            buf.push(0);
                            put_u32(buf, *v);
                        }
                        LookupStatus::Shed(shard) => {
                            buf.push(1);
                            put_u32(buf, *shard);
                        }
                        LookupStatus::Shutdown => {
                            buf.push(2);
                            put_u32(buf, 0);
                        }
                    }
                }
            }
            Frame::Update { req, epoch, seq, trace, parent, ops } => {
                put_u64(buf, *req);
                put_u64(buf, *epoch);
                put_u64(buf, *seq);
                put_u64(buf, *trace);
                put_u32(buf, *parent);
                put_len(buf, ops.len());
                for op in ops {
                    match op {
                        WireOp::Insert(k) => {
                            buf.push(0);
                            put_u32(buf, *k);
                        }
                        WireOp::Delete(k) => {
                            buf.push(1);
                            put_u32(buf, *k);
                        }
                    }
                }
            }
            Frame::UpdateAck { req, epoch, seq } => {
                put_u64(buf, *req);
                put_u64(buf, *epoch);
                put_u64(buf, *seq);
            }
            Frame::Quiesce { req } | Frame::EpochPing { req } => put_u64(buf, *req),
            Frame::QuiesceAck { req, live_keys, snapshots }
            | Frame::EpochPong { req, live_keys, snapshots } => {
                put_u64(buf, *req);
                put_u64(buf, *live_keys);
                put_u64(buf, *snapshots);
            }
            Frame::Status { code } => buf.push(match code {
                StatusCode::ShuttingDown => 0,
            }),
            Frame::StatsRequest { req } => put_u64(buf, *req),
            Frame::StatsReply { req, metrics } => {
                put_u64(buf, *req);
                for section in [&metrics.counters, &metrics.gauges] {
                    put_len(buf, section.len());
                    for (name, labels, v) in section {
                        put_str(buf, name);
                        put_str(buf, labels);
                        put_u64(buf, *v);
                    }
                }
                debug_assert!(metrics.histograms.len() <= MAX_HISTOGRAMS, "too many histograms");
                put_len(buf, metrics.histograms.len());
                for (name, labels, h) in &metrics.histograms {
                    put_str(buf, name);
                    put_str(buf, labels);
                    for v in [h.sum(), h.min(), h.max()] {
                        put_u64(buf, v.to_bits());
                    }
                    let filled = || h.bins().iter().enumerate().filter(|(_, &n)| n > 0);
                    put_len(buf, filled().count());
                    for (bin, &n) in filled() {
                        put_u16(buf, u16::try_from(bin).expect("NBINS fits a u16"));
                        put_u64(buf, n);
                    }
                }
            }
        }
        let len = (buf.len() - start - 4) as u32;
        debug_assert!(len <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Encode into a fresh buffer (tests and one-off frames; hot paths
    /// reuse a buffer via [`encode_into`](Self::encode_into)).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Decode one frame **body** (the bytes after the 4-byte length
    /// prefix). Rejects — without panicking — truncation, trailing
    /// bytes, unknown versions/kinds/tags, and counts that overrun the
    /// input.
    pub fn decode(payload: &[u8]) -> Result<Frame, WireError> {
        let mut c = Cur { b: payload, off: 0 };
        let version = c.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = c.u8()?;
        let frame = match kind {
            KIND_HELLO => Frame::Hello { proto: c.u16()? },
            KIND_SHARD_MAP => {
                let my_span = c.u16()?;
                let live_keys = c.u64()?;
                let log_epoch = c.u64()?;
                let log_seq = c.u64()?;
                // A span is its key and an endpoint count; an endpoint
                // its length prefix.
                let n = c.count(4 + 4)?;
                let mut spans = Vec::with_capacity(n);
                for _ in 0..n {
                    let lo_key = c.u32()?;
                    let n_eps = c.count(4)?;
                    let endpoints = (0..n_eps).map(|_| c.str()).collect::<Result<_, _>>()?;
                    spans.push(SpanMsg { lo_key, endpoints });
                }
                Frame::ShardMap { spans, my_span, live_keys, log_epoch, log_seq }
            }
            KIND_LOOKUP => {
                let req = c.u64()?;
                let trace = c.u64()?;
                let parent = c.u32()?;
                let n = c.count(4)?;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(c.u32()?);
                }
                Frame::Lookup { req, trace, parent, keys }
            }
            KIND_REPLY => {
                let req = c.u64()?;
                let trace = c.u64()?;
                let parent = c.u32()?;
                let n = c.count(5)?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = c.u8()?;
                    let val = c.u32()?;
                    results.push(match tag {
                        0 => LookupStatus::Rank(val),
                        1 => LookupStatus::Shed(val),
                        2 => LookupStatus::Shutdown,
                        t => return Err(WireError::BadTag(t)),
                    });
                }
                Frame::Reply { req, trace, parent, results }
            }
            KIND_UPDATE => {
                let req = c.u64()?;
                let epoch = c.u64()?;
                let seq = c.u64()?;
                let trace = c.u64()?;
                let parent = c.u32()?;
                let n = c.count(5)?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = c.u8()?;
                    let key = c.u32()?;
                    ops.push(match tag {
                        0 => WireOp::Insert(key),
                        1 => WireOp::Delete(key),
                        t => return Err(WireError::BadTag(t)),
                    });
                }
                Frame::Update { req, epoch, seq, trace, parent, ops }
            }
            KIND_UPDATE_ACK => Frame::UpdateAck { req: c.u64()?, epoch: c.u64()?, seq: c.u64()? },
            KIND_QUIESCE => Frame::Quiesce { req: c.u64()? },
            KIND_QUIESCE_ACK => {
                Frame::QuiesceAck { req: c.u64()?, live_keys: c.u64()?, snapshots: c.u64()? }
            }
            KIND_EPOCH_PING => Frame::EpochPing { req: c.u64()? },
            KIND_EPOCH_PONG => {
                Frame::EpochPong { req: c.u64()?, live_keys: c.u64()?, snapshots: c.u64()? }
            }
            KIND_STATUS => Frame::Status {
                code: match c.u8()? {
                    0 => StatusCode::ShuttingDown,
                    t => return Err(WireError::BadTag(t)),
                },
            },
            KIND_STATS_REQUEST => Frame::StatsRequest { req: c.u64()? },
            KIND_STATS_REPLY => Frame::StatsReply { req: c.u64()?, metrics: c.metrics()? },
            k => return Err(WireError::BadKind(k)),
        };
        if c.remaining() != 0 {
            return Err(WireError::Trailing(c.remaining()));
        }
        Ok(frame)
    }
}

/// Validate a frame's 4-byte length prefix, returning the body length.
pub fn frame_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix);
    if !(2..=MAX_FRAME_LEN).contains(&len) {
        return Err(WireError::BadLength(len));
    }
    Ok(len as usize)
}

/// Bounds-checked little-endian cursor.
struct Cur<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cur<'a> {
    fn remaining(&self) -> usize {
        self.b.len() - self.off
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.b[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// A `u32` count of items at least `min_bytes` long each, rejected
    /// before anything is allocated for them if the rest of the input
    /// cannot hold that many.
    fn count(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.checked_mul(min_bytes).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let s = std::str::from_utf8(self.bytes(n)?).map_err(|_| WireError::BadUtf8)?;
        Ok(s.to_owned())
    }

    /// One section of a snapshot: at most `max` `(name, labels, value)`
    /// series, each at least `min_bytes` long on the wire.
    fn series<T>(
        &mut self,
        min_bytes: usize,
        max: usize,
        mut value: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<(String, String, T)>, WireError> {
        let n = self.count(min_bytes)?;
        if n > max {
            return Err(WireError::TooMany(n));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((self.str()?, self.str()?, value(self)?));
        }
        Ok(out)
    }

    /// A histogram: exact sum/min/max plus its non-empty bins, strictly
    /// ascending. It decodes to its dense bin array, which is why a frame
    /// may carry at most [`MAX_HISTOGRAMS`] of them.
    fn histogram(&mut self) -> Result<LogHistogram, WireError> {
        let [sum, min, max] = [self.u64()?, self.u64()?, self.u64()?].map(f64::from_bits);
        let pairs = self.count(2 + 8)?;
        let mut bins = vec![0u64; LogHistogram::nbins()];
        let (mut next, mut total) = (0usize, 0u64);
        for _ in 0..pairs {
            let bin = usize::from(self.u16()?);
            let n = self.u64()?;
            // Ascending and in range keeps one encoding per histogram; a
            // bounded total keeps `from_parts`'s count exact.
            if bin < next || bin >= bins.len() {
                return Err(WireError::BadHistogram);
            }
            total = total.checked_add(n).ok_or(WireError::BadHistogram)?;
            bins[bin] = n;
            next = bin + 1;
        }
        Ok(LogHistogram::from_parts(&bins, sum, min, max))
    }

    /// A [`Frame::StatsReply`]'s snapshot (layout in the module docs).
    fn metrics(&mut self) -> Result<MetricsSnapshot, WireError> {
        // A series is two length prefixes plus its value.
        Ok(MetricsSnapshot {
            counters: self.series(4 + 4 + 8, usize::MAX, Self::u64)?,
            gauges: self.series(4 + 4 + 8, usize::MAX, Self::u64)?,
            histograms: self.series(4 + 4 + 3 * 8 + 4, MAX_HISTOGRAMS, Self::histogram)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        let len = frame_len(bytes[..4].try_into().unwrap()).expect("valid prefix");
        assert_eq!(len, bytes.len() - 4);
        assert_eq!(Frame::decode(&bytes[4..]).expect("decodes"), frame);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Hello { proto: 1 });
        round_trip(Frame::ShardMap {
            spans: vec![
                SpanMsg { lo_key: 0, endpoints: vec!["a:1".into(), "b:2".into()] },
                SpanMsg { lo_key: 5000, endpoints: vec!["c:3".into()] },
            ],
            my_span: 1,
            live_keys: 123_456,
            log_epoch: 5,
            log_seq: 9_001,
        });
        round_trip(Frame::Lookup {
            req: 7,
            trace: u64::MAX,
            parent: 3,
            keys: vec![1, 2, u32::MAX],
        });
        round_trip(Frame::Lookup { req: 7, trace: 0, parent: 0, keys: vec![] });
        round_trip(Frame::Reply {
            req: 7,
            trace: 0xDEAD_BEEF,
            parent: u32::MAX,
            results: vec![LookupStatus::Rank(9), LookupStatus::Shed(3), LookupStatus::Shutdown],
        });
        round_trip(Frame::Update {
            req: 0,
            epoch: 1,
            seq: 42,
            trace: 11,
            parent: 2,
            ops: vec![WireOp::Insert(4), WireOp::Delete(9)],
        });
        round_trip(Frame::Update { req: 3, epoch: 2, seq: 7, trace: 0, parent: 0, ops: vec![] });
        round_trip(Frame::UpdateAck { req: 8, epoch: 2, seq: u64::MAX });
        round_trip(Frame::Quiesce { req: 9 });
        round_trip(Frame::QuiesceAck { req: 9, live_keys: 10, snapshots: 11 });
        round_trip(Frame::EpochPing { req: 12 });
        round_trip(Frame::EpochPong { req: 12, live_keys: 13, snapshots: 14 });
        round_trip(Frame::Status { code: StatusCode::ShuttingDown });
        round_trip(Frame::StatsRequest { req: 15 });
        round_trip(Frame::StatsReply { req: 15, metrics: sample_metrics() });
        round_trip(Frame::StatsReply { req: 0, metrics: MetricsSnapshot::default() });
    }

    /// A snapshot with every section filled: labelled and bare series, a
    /// non-ASCII label, an empty histogram and one with a sample in the
    /// last bin.
    fn sample_metrics() -> MetricsSnapshot {
        let mut lat = LogHistogram::new();
        for v in [0.0, 1.0, 267.0, 45_000.0, 1e30] {
            lat.record(v);
        }
        MetricsSnapshot {
            counters: vec![
                ("dini_serve_served".into(), "shard=\"0\",replica=\"1\"".into(), 100),
                ("dini_serve_merges".into(), String::new(), u64::MAX),
            ],
            gauges: vec![("dini_net_log_seq".into(), "span=\"é\"".into(), 9)],
            histograms: vec![
                ("dini_serve_latency_ns".into(), "shard=\"0\"".into(), lat),
                ("dini_serve_batch_size".into(), String::new(), LogHistogram::new()),
            ],
        }
    }

    /// The body of a `StatsReply` carrying one histogram series named
    /// `h` with these raw `(bin, count)` pairs.
    fn histogram_body(pairs: &[(u16, u64)]) -> Vec<u8> {
        let mut bytes = vec![WIRE_VERSION, KIND_STATS_REPLY];
        put_u64(&mut bytes, 1);
        put_len(&mut bytes, 0);
        put_len(&mut bytes, 0);
        put_len(&mut bytes, 1);
        put_str(&mut bytes, "h");
        put_str(&mut bytes, "");
        for v in [3.0f64, 1.0, 2.0] {
            put_u64(&mut bytes, v.to_bits());
        }
        put_len(&mut bytes, pairs.len());
        for &(bin, n) in pairs {
            put_u16(&mut bytes, bin);
            put_u64(&mut bytes, n);
        }
        bytes
    }

    #[test]
    fn a_snapshot_past_u16_series_round_trips() {
        // 4 096 shards × 16 heat buckets = 65 536 series, one past
        // `u16::MAX`: a `u16` count would wrap to 0 here.
        let gauges = (0..=u16::MAX as usize)
            .map(|i| {
                (
                    "dini_serve_heat".to_owned(),
                    format!("shard=\"{}\",bucket=\"{}\"", i / 16, i % 16),
                    i as u64,
                )
            })
            .collect();
        let metrics = MetricsSnapshot { gauges, ..sample_metrics() };
        assert_eq!(metrics.gauges.len(), 65_536);
        round_trip(Frame::StatsReply { req: 3, metrics });
    }

    #[test]
    fn histogram_bins_are_checked() {
        let ok = histogram_body(&[(1, 2), (5, 1)]);
        match Frame::decode(&ok) {
            Ok(Frame::StatsReply { metrics, .. }) => assert_eq!(metrics.histograms[0].2.count(), 3),
            other => panic!("expected a StatsReply, got {other:?}"),
        }
        let last = (LogHistogram::nbins() - 1) as u16;
        assert!(Frame::decode(&histogram_body(&[(last, 1)])).is_ok());
        let bad = [
            vec![(last + 1, 1)],         // past the last bin
            vec![(5, 1), (1, 2)],        // descending
            vec![(5, 1), (5, 1)],        // repeated
            vec![(0, u64::MAX), (1, 1)], // the count overflows
        ];
        for pairs in bad {
            assert_eq!(
                Frame::decode(&histogram_body(&pairs)),
                Err(WireError::BadHistogram),
                "{pairs:?}"
            );
        }
    }

    #[test]
    fn snapshot_strings_must_be_utf8() {
        let mut bytes = histogram_body(&[]);
        // The name "h" sits after version, kind, req, three counts and
        // its own length.
        let at = 2 + 8 + 3 * 4 + 4;
        assert_eq!(bytes[at], b'h');
        bytes[at] = 0xFF;
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadUtf8));
    }

    #[test]
    fn snapshot_counts_cannot_drive_allocation() {
        // A series count of u32::MAX with nothing behind it, in each
        // section, and a name length past the input: each guard rejects
        // before anything is allocated.
        for section in 0..3 {
            let mut bytes = vec![WIRE_VERSION, KIND_STATS_REPLY];
            put_u64(&mut bytes, 1);
            for _ in 0..section {
                put_len(&mut bytes, 0);
            }
            put_u32(&mut bytes, u32::MAX);
            assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated), "section {section}");
        }
        let mut bytes = histogram_body(&[]);
        let name_len = 2 + 8 + 3 * 4;
        bytes[name_len..name_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
        let mut bytes = histogram_body(&[]);
        let pairs = bytes.len() - 4;
        bytes[pairs..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    /// A `StatsReply` body carrying `n` empty, unnamed histograms — 36
    /// bytes each on the wire, 8.5 KiB each decoded.
    fn empty_histograms_body(n: usize) -> Vec<u8> {
        let mut bytes = vec![WIRE_VERSION, KIND_STATS_REPLY];
        put_u64(&mut bytes, 1);
        put_len(&mut bytes, 0);
        put_len(&mut bytes, 0);
        put_len(&mut bytes, n);
        for _ in 0..n {
            bytes.extend_from_slice(&[0; 4 + 4 + 3 * 8 + 4]);
        }
        bytes
    }

    #[test]
    fn histogram_count_cannot_drive_allocation() {
        // A frame of empty histograms filling MAX_FRAME_LEN would decode
        // to ~4 GB of bins; the cap rejects it before decoding any.
        let most = (MAX_FRAME_LEN as usize - 2 - 8 - 3 * 4) / 36;
        let body = empty_histograms_body(most);
        assert!(body.len() <= MAX_FRAME_LEN as usize);
        assert_eq!(Frame::decode(&body), Err(WireError::TooMany(most)));
        assert_eq!(
            Frame::decode(&empty_histograms_body(MAX_HISTOGRAMS + 1)),
            Err(WireError::TooMany(MAX_HISTOGRAMS + 1))
        );
        match Frame::decode(&empty_histograms_body(MAX_HISTOGRAMS)) {
            Ok(Frame::StatsReply { metrics, .. }) => {
                assert_eq!(metrics.histograms.len(), MAX_HISTOGRAMS)
            }
            other => panic!("expected a StatsReply, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = Frame::Lookup { req: 1, trace: 5, parent: 1, keys: vec![1, 2, 3, 4] }.encode();
        for cut in 4..bytes.len() {
            assert!(Frame::decode(&bytes[4..cut]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn oversized_count_cannot_drive_allocation() {
        // A Lookup claiming u32::MAX keys with a 4-byte body: the count
        // guard must reject it before any Vec::with_capacity.
        let mut bytes = vec![WIRE_VERSION, KIND_LOOKUP];
        bytes.extend_from_slice(&77u64.to_le_bytes()); // req
        bytes.extend_from_slice(&0u64.to_le_bytes()); // trace
        bytes.extend_from_slice(&0u32.to_le_bytes()); // parent
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn wrong_version_and_kind_rejected() {
        let mut bytes = Frame::Hello { proto: 1 }.encode();
        bytes[4] = 99;
        assert_eq!(Frame::decode(&bytes[4..]), Err(WireError::BadVersion(99)));
        let mut bytes = Frame::Hello { proto: 1 }.encode();
        bytes[5] = 200;
        assert_eq!(Frame::decode(&bytes[4..]), Err(WireError::BadKind(200)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Frame::EpochPing { req: 3 }.encode();
        bytes.push(0xFF);
        assert_eq!(Frame::decode(&bytes[4..]), Err(WireError::Trailing(1)));
    }

    #[test]
    fn length_prefix_bounds() {
        assert!(frame_len(1u32.to_le_bytes()).is_err(), "too short for version+kind");
        assert!(frame_len((MAX_FRAME_LEN + 1).to_le_bytes()).is_err());
        assert_eq!(frame_len(2u32.to_le_bytes()), Ok(2));
    }
}
