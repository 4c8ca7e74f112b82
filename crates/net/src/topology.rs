//! Cluster topology: which servers host which slice of the key space.
//!
//! The key space is carved into contiguous **spans** (the network-level
//! analogue of `dini-serve`'s shards — each span's server shards its
//! slice further internally). Every span is served by one or more
//! **replica endpoints**: independent server processes holding a full
//! copy of the span, which is what the client fails over between when a
//! connection dies. Range partitioning — not hashing — is what keeps
//! global ranks composable across processes:
//! `global_rank = Σ live_keys(lower spans) + span_local_rank`, the
//! paper's master/slave rank composition lifted to the process level.

use crate::wire::SpanMsg;
use dini_serve::ShardRouter;

/// One span: a contiguous key slice and the endpoints replicating it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Smallest key this span owns (span 0 must own from 0).
    pub lo_key: u32,
    /// Addresses of the replica servers hosting this span.
    pub endpoints: Vec<String>,
}

/// The whole cluster's span layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Spans in ascending `lo_key` order; together they tile `u32`.
    pub spans: Vec<Span>,
}

impl Topology {
    /// A single-span topology: one replica group of `endpoints` hosting
    /// the entire key space.
    pub fn single(endpoints: Vec<String>) -> Self {
        Self { spans: vec![Span { lo_key: 0, endpoints }] }
    }

    /// Is the layout serviceable? At least one span, span 0 starting at
    /// key 0, strictly increasing `lo_key`s, and at least one endpoint
    /// per span. Returns the violation instead of panicking, so a
    /// client can reject a nonsensical wire-received map gracefully.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.spans.is_empty() {
            return Err("topology needs at least one span");
        }
        if self.spans[0].lo_key != 0 {
            return Err("span 0 must own the key space from 0");
        }
        if !self.spans.windows(2).all(|w| w[0].lo_key < w[1].lo_key) {
            return Err("span lo_keys must be strictly increasing");
        }
        if !self.spans.iter().all(|s| !s.endpoints.is_empty()) {
            return Err("every span needs at least one endpoint");
        }
        Ok(())
    }

    /// Panic unless [`check`](Self::check) passes (builder-time use).
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }

    /// A key→span router (the same delimiter binary search
    /// `dini-serve`'s [`ShardRouter`] runs one level down).
    pub fn router(&self) -> ShardRouter {
        ShardRouter::from_delimiters(self.spans[1..].iter().map(|s| s.lo_key).collect())
    }

    /// Number of spans.
    pub fn n_spans(&self) -> usize {
        self.spans.len()
    }

    /// The wire representation ([`crate::wire::Frame::ShardMap`]).
    pub fn to_wire(&self) -> Vec<SpanMsg> {
        self.spans
            .iter()
            .map(|s| SpanMsg { lo_key: s.lo_key, endpoints: s.endpoints.clone() })
            .collect()
    }

    /// Rebuild from the wire representation.
    pub fn from_wire(spans: &[SpanMsg]) -> Self {
        Self {
            spans: spans
                .iter()
                .map(|s| Span { lo_key: s.lo_key, endpoints: s.endpoints.clone() })
                .collect(),
        }
    }

    /// Split a sorted-unique global key set into per-span slices along
    /// the span boundaries (what each span's server is built over).
    pub fn split<'a>(&self, keys: &'a [u32]) -> Vec<&'a [u32]> {
        self.router().split(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_span_owns_everything() {
        let t = Topology::single(vec!["a".into(), "b".into()]);
        t.validate();
        assert_eq!(t.n_spans(), 1);
        let r = t.router();
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(u32::MAX), 0);
    }

    #[test]
    fn split_and_router_agree() {
        let t = Topology {
            spans: vec![
                Span { lo_key: 0, endpoints: vec!["a".into()] },
                Span { lo_key: 100, endpoints: vec!["b".into()] },
                Span { lo_key: 1_000, endpoints: vec!["c".into()] },
            ],
        };
        t.validate();
        let keys: Vec<u32> = (0..200).map(|i| i * 10).collect();
        let parts = t.split(&keys);
        assert_eq!(parts.len(), 3);
        let r = t.router();
        for (s, part) in parts.iter().enumerate() {
            for &k in *part {
                assert_eq!(r.route(k), s, "key {k}");
            }
        }
        let glued: Vec<u32> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(glued, keys);
    }

    #[test]
    fn wire_round_trip() {
        let t = Topology {
            spans: vec![
                Span { lo_key: 0, endpoints: vec!["a:1".into()] },
                Span { lo_key: 7, endpoints: vec!["b:2".into(), "c:3".into()] },
            ],
        };
        assert_eq!(Topology::from_wire(&t.to_wire()), t);
    }

    #[test]
    #[should_panic(expected = "span 0 must own")]
    fn nonzero_first_span_rejected() {
        Topology { spans: vec![Span { lo_key: 5, endpoints: vec!["a".into()] }] }.validate();
    }
}
