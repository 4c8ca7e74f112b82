//! Cross-process causal timelines: stitch one request's client-side
//! wire record and server-side stage record into a single story.
//!
//! The network client stamps a compact trace context (trace id +
//! parent span) onto every `Lookup` frame; the server threads the id
//! through admission to whoever ranks it, so the sampled
//! [`StageRecord`]s on *both* sides of the wire carry the same
//! [`StageRecord::trace`]. This module joins them:
//!
//! ```text
//!   client:  encoded ─────────────────────────────────────► acked
//!   server:          admitted → collected → dispatched → answered → filled
//!            '─wire─''──wait──''─adopt──''──service──''─fill─''─wire─'
//!              out                                              back
//! ```
//!
//! Both sides stamp timestamps from the same clock timeline — virtual
//! time under `dini-simtest` (one `SimClock` drives every process) or
//! the process-wide monotonic anchor over real TCP (client and server
//! in one process share it) — so the stitched stages are directly
//! comparable and every timeline must be monotone. The simtest oracles
//! assert exactly that, per stitched record, under the digest-pinned
//! scheduler.

use crate::trace::StageRecord;
use std::collections::HashMap;

/// One request's stitched client↔server story: the wire record the
/// client's reader sampled and a stage record the serving replica's
/// holder sampled, joined on their shared trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalTimeline {
    /// The shared trace id (never 0 — untraced records cannot stitch).
    pub trace: u64,
    /// The client-side record: `encoded_ns` / `acked_ns` set, serving
    /// stages 0. `shard` is the span, `replica` the endpoint.
    pub client: StageRecord,
    /// The server-side record: `admitted_ns` … `filled_ns` set, wire
    /// stages 0. `shard` / `replica` are server-local.
    pub server: StageRecord,
}

impl CausalTimeline {
    /// Outbound wire + server queueing: frame encode to admission.
    pub fn wire_out_ns(&self) -> u64 {
        self.server.admitted_ns.saturating_sub(self.client.encoded_ns)
    }

    /// Server-side coalescing wait (admission to batch close).
    pub fn wait_ns(&self) -> u64 {
        self.server.wait_ns()
    }

    /// Server-side index service (batch close to answer).
    pub fn service_ns(&self) -> u64 {
        self.server.service_ns()
    }

    /// Server-side reply fill (answer to reply-slot fill).
    pub fn fill_ns(&self) -> u64 {
        self.server.fill_ns()
    }

    /// Return wire + client reader mux: reply fill to reply-frame
    /// arrival at the client. Saturating: `filled` is stamped after the
    /// reply is already released, so on real hardware it can race a
    /// fast return wire (see [`CausalTimeline::monotone`]).
    pub fn wire_back_ns(&self) -> u64 {
        self.client.acked_ns.saturating_sub(self.server.filled_ns)
    }

    /// End to end as the client saw it: encode to ack.
    pub fn total_ns(&self) -> u64 {
        self.client.acked_ns.saturating_sub(self.client.encoded_ns)
    }

    /// Whether the whole stitched timeline is in causal order:
    /// `encoded ≤ admitted ≤ … ≤ answered ≤ acked`. On one timeline
    /// (virtual time, or one process's monotonic clock) this must hold
    /// for every stitched record — it is the cross-process analogue of
    /// [`StageRecord::stages_monotonic`].
    ///
    /// The cross-process bound on the ack is `answered`, not `filled`:
    /// `answered` is stamped *before* the serving side releases any
    /// reply, so it causally precedes the client's ack, while a writer
    /// may stamp `filled` after the replies are out (off every caller's
    /// critical path), where on real hardware it can race a fast return
    /// wire by a few microseconds. Server-internally the stages
    /// are still required monotone through `filled`.
    pub fn monotone(&self) -> bool {
        self.client.encoded_ns <= self.server.admitted_ns
            && self.server.stages_monotonic()
            && self.server.answered_ns <= self.client.acked_ns
    }
}

/// Join sampled records from the two sides of a wire into causal
/// timelines, matching on [`StageRecord::trace`].
///
/// `client` records index by trace id (one lookup frame leaves at most
/// one wire record); each `server` record with a matching, nonzero id
/// yields one timeline — a frame whose keys split across shards (or
/// whose batch sampled several keys) stitches into several timelines,
/// all sharing the client record. Records only one side sampled are
/// left out: stitching needs both halves.
///
/// Reader-side only (allocates); order follows the `server` slice.
pub fn stitch(client: &[StageRecord], server: &[StageRecord]) -> Vec<CausalTimeline> {
    let by_trace: HashMap<u64, &StageRecord> =
        client.iter().filter(|r| r.trace != 0).map(|r| (r.trace, r)).collect();
    server
        .iter()
        .filter(|s| s.trace != 0)
        .filter_map(|s| {
            by_trace.get(&s.trace).map(|c| CausalTimeline {
                trace: s.trace,
                client: **c,
                server: *s,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_rec(trace: u64, encoded: u64, acked: u64) -> StageRecord {
        StageRecord {
            shard: 0,
            replica: 0,
            batch_len: 4,
            trace,
            encoded_ns: encoded,
            acked_ns: acked,
            ..Default::default()
        }
    }

    fn server_rec(trace: u64, admitted: u64) -> StageRecord {
        StageRecord {
            shard: 1,
            replica: 0,
            batch_len: 4,
            trace,
            admitted_ns: admitted,
            collected_ns: admitted + 10,
            dispatched_ns: admitted + 12,
            answered_ns: admitted + 30,
            filled_ns: admitted + 35,
            ..Default::default()
        }
    }

    #[test]
    fn stitches_matching_traces_and_skips_the_rest() {
        let client = vec![client_rec(7, 100, 200), client_rec(9, 300, 400)];
        let server = vec![
            server_rec(7, 120),
            server_rec(7, 130), // same frame, second sampled key
            server_rec(5, 10),  // server-only: no client half
            server_rec(0, 50),  // untraced local caller
        ];
        let stitched = stitch(&client, &server);
        assert_eq!(stitched.len(), 2);
        assert!(stitched.iter().all(|t| t.trace == 7));
        assert!(stitched.iter().all(|t| t.monotone()));
        assert_eq!(stitched[0].wire_out_ns(), 20);
        assert_eq!(stitched[0].wait_ns(), 10);
        assert_eq!(stitched[0].service_ns(), 20);
        assert_eq!(stitched[0].fill_ns(), 5);
        assert_eq!(stitched[0].wire_back_ns(), 200 - 155);
        assert_eq!(stitched[0].total_ns(), 100);
    }

    #[test]
    fn non_monotone_timelines_are_detected() {
        // A server record stamped *after* the client's ack cannot be
        // causal on one timeline.
        let client = vec![client_rec(3, 100, 150)];
        let server = vec![server_rec(3, 200)];
        let stitched = stitch(&client, &server);
        assert_eq!(stitched.len(), 1);
        assert!(!stitched[0].monotone());
    }

    #[test]
    fn zero_trace_never_stitches() {
        let client = vec![client_rec(0, 1, 2)];
        let server = vec![server_rec(0, 1)];
        assert!(stitch(&client, &server).is_empty());
    }
}
