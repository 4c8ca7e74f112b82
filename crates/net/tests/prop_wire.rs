//! Property tests for the wire protocol: every frame kind round-trips
//! through encode/decode bit-exactly, and *no* byte-level corruption —
//! truncation, mutation, garbage — can make the decoder panic or
//! allocate unboundedly. The decoder is the one part of the system that
//! reads bytes written by somebody else; it must be total.
//!
//! The flight-journal entry codec lives under the same contract — its
//! bytes are read back by a *different process* after a crash — so its
//! properties ride along here.

use dini_cluster::LogHistogram;
use dini_flight::{decode_entry, encode_entry, FlightEvent, ENTRY_BYTES};
use dini_net::wire::{frame_len, Frame, LookupStatus, SpanMsg, StatusCode, WireOp, MAX_FRAME_LEN};
use dini_obs::MetricsSnapshot;
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// Short printable strings for endpoint addresses.
fn addr() -> impl Strategy<Value = String> {
    prop_vec(0u8..26, 1..12)
        .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect::<String>())
}

fn span_msg() -> impl Strategy<Value = SpanMsg> {
    (any::<u32>(), prop_vec(addr(), 1..4))
        .prop_map(|(lo_key, endpoints)| SpanMsg { lo_key, endpoints })
}

fn lookup_status() -> impl Strategy<Value = LookupStatus> {
    prop_oneof![
        any::<u32>().prop_map(LookupStatus::Rank),
        any::<u32>().prop_map(LookupStatus::Shed),
        Just(LookupStatus::Shutdown),
    ]
}

fn wire_op() -> impl Strategy<Value = WireOp> {
    prop_oneof![any::<u32>().prop_map(WireOp::Insert), any::<u32>().prop_map(WireOp::Delete)]
}

/// Any journal entry a writer could produce (seq 0 means "empty slot",
/// so valid entries start at 1).
fn flight_event() -> impl Strategy<Value = FlightEvent> {
    (
        (1u64..=u64::MAX, any::<u64>()),
        (any::<u16>(), any::<u16>(), any::<u32>()),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(|((seq, time_ns), (kind, a, b), (c, d))| FlightEvent {
            seq,
            time_ns,
            kind,
            a,
            b,
            c,
            d,
        })
}

/// Series names and label lists: short, from an alphabet with a
/// two-byte UTF-8 letter in it, possibly empty.
fn series_name() -> impl Strategy<Value = String> {
    prop_vec(0u8..29, 0..10).prop_map(|letters| {
        letters
            .into_iter()
            .map(|b| match b {
                26 => '_',
                27 => '"',
                28 => 'é',
                b => (b'a' + b) as char,
            })
            .collect()
    })
}

fn scalar_series() -> impl Strategy<Value = (String, String, u64)> {
    (series_name(), series_name(), any::<u64>())
}

/// A histogram of up to 20 samples spread over every octave.
fn histogram_series() -> impl Strategy<Value = (String, String, LogHistogram)> {
    (series_name(), series_name(), prop_vec((any::<u64>(), 0u32..64), 0..20)).prop_map(
        |(name, labels, samples)| {
            let mut h = LogHistogram::new();
            for (v, shift) in samples {
                h.record((v >> shift) as f64);
            }
            (name, labels, h)
        },
    )
}

fn metrics_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        prop_vec(scalar_series(), 0..6),
        prop_vec(scalar_series(), 0..6),
        prop_vec(histogram_series(), 0..3),
    )
        .prop_map(|(counters, gauges, histograms)| MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
}

/// Every frame kind, with arbitrary payloads.
fn frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        any::<u16>().prop_map(|proto| Frame::Hello { proto }),
        (prop_vec(span_msg(), 1..5), any::<u16>(), (any::<u64>(), any::<u64>(), any::<u64>()))
            .prop_map(|(spans, my_span, (live_keys, log_epoch, log_seq))| Frame::ShardMap {
                spans,
                my_span,
                live_keys,
                log_epoch,
                log_seq,
            }),
        (any::<u64>(), any::<u64>(), any::<u32>(), prop_vec(any::<u32>(), 0..300))
            .prop_map(|(req, trace, parent, keys)| Frame::Lookup { req, trace, parent, keys }),
        (any::<u64>(), any::<u64>(), any::<u32>(), prop_vec(lookup_status(), 0..300))
            .prop_map(|(req, trace, parent, results)| Frame::Reply { req, trace, parent, results }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u32>()),
            prop_vec(wire_op(), 0..100)
        )
            .prop_map(|((req, epoch, seq), (trace, parent), ops)| Frame::Update {
                req,
                epoch,
                seq,
                trace,
                parent,
                ops
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(req, epoch, seq)| Frame::UpdateAck {
            req,
            epoch,
            seq
        }),
        any::<u64>().prop_map(|req| Frame::Quiesce { req }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(req, live_keys, snapshots)| {
            Frame::QuiesceAck { req, live_keys, snapshots }
        }),
        any::<u64>().prop_map(|req| Frame::EpochPing { req }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(req, live_keys, snapshots)| {
            Frame::EpochPong { req, live_keys, snapshots }
        }),
        Just(Frame::Status { code: StatusCode::ShuttingDown }),
        any::<u64>().prop_map(|req| Frame::StatsRequest { req }),
        (any::<u64>(), metrics_snapshot())
            .prop_map(|(req, metrics)| Frame::StatsReply { req, metrics }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_frame_round_trips_bit_exactly(f in frame()) {
        let bytes = f.encode();
        let len = frame_len(bytes[..4].try_into().unwrap()).expect("emitted prefix is valid");
        prop_assert_eq!(len, bytes.len() - 4, "length prefix covers the body exactly");
        prop_assert!(len as u32 <= MAX_FRAME_LEN);
        let decoded = Frame::decode(&bytes[4..]).expect("own encoding must decode");
        prop_assert_eq!(decoded, f);
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking(f in frame(), frac in 0u32..1000) {
        let bytes = f.encode();
        let body = &bytes[4..];
        // Cut strictly inside the body (an empty prefix is also covered).
        let cut = (frac as usize * body.len()) / 1000;
        prop_assume!(cut < body.len());
        prop_assert!(
            Frame::decode(&body[..cut]).is_err(),
            "a proper prefix of a frame body must never decode"
        );
    }

    #[test]
    fn single_byte_corruption_never_panics(f in frame(), pos in any::<u32>(), bit in 0u32..8) {
        let bytes = f.encode();
        let mut body = bytes[4..].to_vec();
        let pos = pos as usize % body.len();
        body[pos] ^= 1 << bit;
        // Either it still decodes (the flipped bit landed in a payload)
        // or it errors; the call returning at all is the property.
        let _ = Frame::decode(&body);
    }

    #[test]
    fn random_garbage_never_panics(bytes in prop_vec(any::<u8>(), 0..600)) {
        let _ = Frame::decode(&bytes);
        if bytes.len() >= 4 {
            let _ = frame_len(bytes[..4].try_into().unwrap());
        }
    }

    #[test]
    fn reply_statuses_preserve_order_and_payloads(statuses in prop_vec(lookup_status(), 0..600)) {
        let f = Frame::Reply { req: 7, trace: 9, parent: 2, results: statuses.clone() };
        let bytes = f.encode();
        match Frame::decode(&bytes[4..]).expect("round trip") {
            Frame::Reply { req, trace, parent, results } => {
                prop_assert_eq!((req, trace, parent), (7, 9, 2));
                prop_assert_eq!(results, statuses);
            }
            other => prop_assert!(false, "wrong kind back: {:?}", other),
        }
    }

    #[test]
    fn journal_entries_round_trip_bit_exactly(ev in flight_event()) {
        let bytes = encode_entry(&ev);
        prop_assert_eq!(decode_entry(&bytes), Some(ev));
    }

    #[test]
    fn corrupted_journal_entries_are_rejected_not_misread(
        ev in flight_event(),
        pos in 0usize..ENTRY_BYTES,
        bit in 0u32..8,
    ) {
        let mut bytes = encode_entry(&ev);
        bytes[pos] ^= 1 << bit;
        prop_assert_eq!(
            decode_entry(&bytes),
            None,
            "a single flipped bit anywhere in the slot must fail the checksum"
        );
    }

    #[test]
    fn random_journal_slots_never_panic(bytes in prop_vec(any::<u8>(), 0..128)) {
        // Wrong lengths and garbage alike: the call returning is the
        // property (an accidental checksum match is a 2^-64 event).
        let _ = decode_entry(&bytes);
    }
}

proptest! {
    // Every cut and every byte of a whole snapshot, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_payloads_round_trip_and_never_panic(
        metrics in metrics_snapshot(),
        req in any::<u64>(),
    ) {
        let f = Frame::StatsReply { req, metrics };
        let bytes = f.encode();
        let body = &bytes[4..];
        prop_assert_eq!(Frame::decode(body).expect("own encoding must decode"), f);
        // Under Miri, a sample of the positions.
        let step = if cfg!(miri) { 37 } else { 1 };
        for cut in (0..body.len()).step_by(step) {
            prop_assert!(Frame::decode(&body[..cut]).is_err(), "a prefix of {cut} bytes decoded");
        }
        let mut corrupt = body.to_vec();
        for pos in (0..body.len()).step_by(step) {
            corrupt[pos] ^= 0xFF;
            let _ = Frame::decode(&corrupt);
            corrupt[pos] ^= 0xFF;
        }
    }
}
