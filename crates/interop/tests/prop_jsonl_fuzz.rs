//! Fuzz/property tests for the lossy JSONL import path: whatever garbage
//! surrounds the valid records — truncated final lines, interleaved
//! malformed and blank lines, unknown anomaly labels — the accounting in
//! [`ImportStats`] is exact and the sink only ever sees measurements that
//! round-trip cleanly.

use churnlab_interop::{read_jsonl, write_jsonl, ImportStats, NativeRecord};
use churnlab_platform::{AnomalySet, AnomalyType, Measurement, Traceroutes};
use churnlab_topology::Asn;
use proptest::prelude::*;

fn arb_anomalies() -> impl Strategy<Value = AnomalySet> {
    proptest::collection::vec(0usize..5, 0..5)
        .prop_map(|idx| idx.into_iter().map(|i| AnomalyType::ALL[i]).collect())
}

fn arb_traceroutes() -> impl Strategy<Value = Traceroutes> {
    let run = (
        proptest::collection::vec(proptest::option::of(any::<u32>()), 0..8),
        proptest::option::of(prop_oneof![
            Just(churnlab_net::TracerouteError::Failed),
            Just(churnlab_net::TracerouteError::Truncated),
        ]),
    );
    proptest::collection::vec(run, 0..4).prop_map(|runs| Traceroutes::from_runs(runs).unwrap())
}

fn arb_measurement() -> impl Strategy<Value = Measurement> {
    (
        any::<u32>(),
        1u32..4_000_000_000,
        any::<u16>(),
        1u32..4_000_000_000,
        0u32..365,
        0u32..4096,
        arb_anomalies(),
        arb_traceroutes(),
        any::<bool>(),
    )
        .prop_map(
            |(vp_id, vp_asn, url_id, dest_asn, day, epoch, detected, traceroutes, failed)| {
                Measurement {
                    vp_id,
                    vp_asn: Asn(vp_asn),
                    url_id: u32::from(url_id),
                    dest_asn: Asn(dest_asn),
                    day,
                    epoch,
                    detected,
                    traceroutes,
                    failed,
                }
            },
        )
}

/// One line of a hostile dump.
#[derive(Debug, Clone)]
enum Line {
    Valid(Measurement),
    /// Guaranteed-unparseable text (an unterminated JSON object).
    Malformed(String),
    /// Whitespace only.
    Blank(String),
}

fn arb_line() -> impl Strategy<Value = Line> {
    // Uniform choice; the valid arm is listed twice to bias the mix
    // toward real records.
    prop_oneof![
        arb_measurement().prop_map(Line::Valid),
        arb_measurement().prop_map(Line::Valid),
        // `{` + text that never closes the object is malformed whatever
        // the suffix; `[1,2]` is valid JSON of the wrong shape.
        "[a-z ,:0-9]{0,16}".prop_map(|s| Line::Malformed(format!("{{{s}"))),
        Just(Line::Malformed("[1,2]".to_string())),
        // Nesting far past the parser's depth cap: one malformed line,
        // not a stack overflow in whichever thread parses it.
        Just(Line::Malformed("[".repeat(200_000))),
        "[ \t]{0,4}".prop_map(Line::Blank),
    ]
}

proptest! {
    /// A dump whose final line was cut mid-record (the classic torn-write
    /// tail): every whole record imports, the stub counts as exactly one
    /// malformed line, and the sink sees no corrupt measurement.
    #[test]
    fn truncated_final_line_is_one_malformed_record(
        ms in proptest::collection::vec(arb_measurement(), 1..6),
        cut in 1usize..10_000,
    ) {
        let records: Vec<NativeRecord> =
            ms.iter().map(|m| NativeRecord::from_measurement(m, "torn.example")).collect();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &records).unwrap();
        let last_line_len = serde_json::to_string(records.last().unwrap()).unwrap().len();
        // Drop the trailing newline plus 1..last_line_len-1 bytes, so the
        // final line is present but strictly incomplete (a record line is
        // always an object, so any strict prefix fails to parse).
        let drop = 1 + (cut % (last_line_len - 1));
        let truncated = &buf[..buf.len() - 1 - drop];

        let mut seen = Vec::new();
        let stats = read_jsonl(truncated, |m, _| seen.push(m)).unwrap();
        prop_assert_eq!(stats.ok as usize, ms.len() - 1);
        prop_assert_eq!(stats.malformed, 1);
        prop_assert_eq!(stats.blank, 0);
        prop_assert_eq!(&seen[..], &ms[..ms.len() - 1], "sink saw a corrupt measurement");
    }

    /// Arbitrary interleavings of valid, malformed, and blank lines:
    /// exact counts, and the sink sees exactly the valid measurements in
    /// order.
    #[test]
    fn interleaved_garbage_accounted_exactly(lines in proptest::collection::vec(arb_line(), 0..24)) {
        let mut buf = String::new();
        let mut expected = ImportStats::default();
        let mut valid = Vec::new();
        for line in &lines {
            match line {
                Line::Valid(m) => {
                    let rec = NativeRecord::from_measurement(m, "mix.example");
                    buf.push_str(&serde_json::to_string(&rec).unwrap());
                    expected.ok += 1;
                    valid.push(m.clone());
                }
                Line::Malformed(s) => {
                    buf.push_str(s);
                    expected.malformed += 1;
                }
                Line::Blank(s) => {
                    buf.push_str(s);
                    expected.blank += 1;
                }
            }
            buf.push('\n');
        }
        let mut seen = Vec::new();
        let stats = read_jsonl(buf.as_bytes(), |m, _| seen.push(m)).unwrap();
        prop_assert_eq!(stats, expected);
        prop_assert_eq!(seen, valid, "sink must see exactly the valid measurements, in order");
    }

    /// Records carrying several unknown anomaly labels: each label counts
    /// once, the known labels still import, and the measurement is
    /// otherwise intact.
    #[test]
    fn multiple_unknown_labels_counted_per_label(
        ms in proptest::collection::vec((arb_measurement(), 0usize..4), 1..5),
    ) {
        let mut buf = Vec::new();
        let mut expected_unknown = 0u64;
        for (i, (m, n_unknown)) in ms.iter().enumerate() {
            let mut rec = NativeRecord::from_measurement(m, "labels.example");
            for k in 0..*n_unknown {
                rec.anomalies.push(format!("future-label-{i}-{k}"));
            }
            expected_unknown += *n_unknown as u64;
            write_jsonl(&mut buf, [&rec]).unwrap();
        }
        let mut seen = Vec::new();
        let stats = read_jsonl(&buf[..], |m, _| seen.push(m)).unwrap();
        prop_assert_eq!(stats.ok as usize, ms.len());
        prop_assert_eq!(stats.unknown_anomalies, expected_unknown);
        prop_assert_eq!(stats.malformed, 0);
        for (got, (want, _)) in seen.iter().zip(&ms) {
            prop_assert_eq!(got, want, "unknown labels must not perturb the measurement");
        }
    }
}
