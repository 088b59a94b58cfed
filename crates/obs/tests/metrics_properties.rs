//! Property suite for the metrics/export layer: snapshot and histogram
//! merges must be associative (so partial aggregations from any number
//! of workers fold to the same totals regardless of grouping), merging
//! the empty snapshot must be a no-op, and every JSON trace line must
//! round-trip through its own checksum — with any single-byte
//! corruption of the payload detected.

use proptest::prelude::*;
use smx_obs::{
    encode_span_json, trace_line_is_valid, AttrValue, HistogramData, MetricsSnapshot, SpanRecord,
};

/// Small shared key pool so merges actually collide on names.
const KEYS: &[&str] = &["alpha", "beta", "gamma", "delta"];
const SPAN_NAMES: &[&str] = &["store.score_rows", "certified.run", "candidates.generate"];

fn histogram() -> impl Strategy<Value = HistogramData> {
    (
        proptest::collection::vec(0..1_000_000u64, 0..10),
        0..1_000_000u64,
        0..u64::MAX / 8,
    )
        .prop_map(|(buckets, count, sum_ns)| HistogramData {
            buckets,
            count,
            sum_ns,
        })
}

fn snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        proptest::collection::vec((0..KEYS.len(), 0..u64::MAX / 8), 0..5),
        proptest::collection::vec((0..KEYS.len(), -1.0e12..1.0e12f64), 0..5),
        proptest::collection::vec((0..KEYS.len(), histogram()), 0..5),
    )
        .prop_map(|(counters, gauges, histograms)| {
            let mut snap = MetricsSnapshot::default();
            for (k, v) in counters {
                snap.counters.insert(KEYS[k].to_owned(), v);
            }
            for (k, v) in gauges {
                snap.gauges.insert(KEYS[k].to_owned(), v);
            }
            for (k, v) in histograms {
                snap.histograms.insert(KEYS[k].to_owned(), v);
            }
            snap
        })
}

fn attr_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (0..u64::MAX / 2).prop_map(AttrValue::U64),
        (-1_000_000i64..1_000_000).prop_map(AttrValue::I64),
        (-1.0e9..1.0e9f64).prop_map(AttrValue::F64),
        any::<bool>().prop_map(AttrValue::Bool),
        (0..KEYS.len()).prop_map(|k| AttrValue::Str(KEYS[k].to_owned())),
    ]
}

fn span_record() -> impl Strategy<Value = SpanRecord> {
    (
        1..u64::MAX / 2,
        proptest::option::of(1..u64::MAX / 2),
        0..SPAN_NAMES.len(),
        0..u64::MAX / 4,
        0..u64::MAX / 4,
        proptest::collection::vec((0..KEYS.len(), attr_value()), 0..5),
    )
        .prop_map(
            |(id, parent, name, start_ns, elapsed_ns, attrs)| SpanRecord {
                id,
                parent,
                name: SPAN_NAMES[name],
                start_ns,
                elapsed_ns,
                attrs: attrs.into_iter().map(|(k, v)| (KEYS[k], v)).collect(),
            },
        )
}

proptest! {
    #[test]
    fn snapshot_merge_is_associative(a in snapshot(), b in snapshot(), c in snapshot()) {
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histogram_merge_is_associative(a in histogram(), b in histogram(), c in histogram()) {
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn empty_snapshot_is_the_merge_identity(a in snapshot()) {
        let mut right_identity = a.clone();
        right_identity.merge(&MetricsSnapshot::default());
        prop_assert_eq!(&right_identity, &a);

        let mut left_identity = MetricsSnapshot::default();
        left_identity.merge(&a);
        prop_assert_eq!(&left_identity, &a);
    }

    #[test]
    fn encoded_trace_lines_validate_and_reject_corruption(
        span in span_record(),
        corrupt_at in any::<proptest::sample::Index>(),
    ) {
        let line = encode_span_json(&span);
        prop_assert!(trace_line_is_valid(&line), "freshly encoded line failed: {}", line);

        // Flip one payload byte (strictly before the checksum suffix).
        // FNV-1a folds each byte through an injective state update, so a
        // single substituted byte always changes the digest and must be
        // caught. All encoder output is ASCII, so byte surgery is safe.
        let payload_end = line.rfind(",\"fnv\":\"").expect("encoder always appends a checksum");
        let idx = corrupt_at.index(payload_end);
        let mut bytes = line.clone().into_bytes();
        bytes[idx] = if bytes[idx] == b'x' { b'y' } else { b'x' };
        let corrupted = String::from_utf8(bytes).expect("ASCII in, ASCII out");
        prop_assert!(
            !trace_line_is_valid(&corrupted),
            "single-byte corruption at {} went undetected: {}",
            idx,
            corrupted
        );
    }
}
