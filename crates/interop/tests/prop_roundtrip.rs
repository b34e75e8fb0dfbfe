//! Property tests: interchange encodings must be lossless for every
//! representable record, not just the fixtures.

use churnlab_interop::{parse_prefix2as, read_jsonl, render_prefix2as, write_jsonl, NativeRecord};
use churnlab_interop::record::WireTraceroute;
use churnlab_platform::{AnomalySet, AnomalyType, Measurement, TracerouteError, Traceroutes};
use churnlab_topology::{Asn, Ip2AsDb, Ipv4Prefix};
use proptest::prelude::*;

fn arb_anomalies() -> impl Strategy<Value = AnomalySet> {
    proptest::collection::vec(0usize..5, 0..5).prop_map(|idx| {
        idx.into_iter().map(|i| AnomalyType::ALL[i]).collect()
    })
}

/// A record's runs as hop vectors.
type Runs = Vec<(Vec<Option<u32>>, Option<TracerouteError>)>;

/// 0–4 runs of 0–300 hops each: `*` hops, `0.0.0.0` and
/// `255.255.255.255` among them, and every error.
fn arb_runs() -> impl Strategy<Value = Runs> {
    let hop = prop_oneof![
        Just(None),
        Just(Some(0)),
        Just(Some(u32::MAX)),
        any::<u32>().prop_map(Some),
    ];
    let error = prop_oneof![
        Just(None),
        Just(Some(TracerouteError::Failed)),
        Just(Some(TracerouteError::Truncated)),
    ];
    proptest::collection::vec((proptest::collection::vec(hop, 0..301), error), 0..5)
}

fn unpack(t: &Traceroutes) -> Runs {
    t.iter().map(|run| (run.hops().collect(), run.error())).collect()
}

fn arb_measurement() -> impl Strategy<Value = (Measurement, Runs)> {
    (
        any::<u32>(),
        1u32..4_000_000_000,
        any::<u16>(),
        1u32..4_000_000_000,
        0u32..365,
        0u32..4096,
        arb_anomalies(),
        arb_runs(),
        any::<bool>(),
    )
        .prop_map(|(vp_id, vp_asn, url_id, dest_asn, day, epoch, detected, runs, failed)| {
            let m = Measurement {
                vp_id,
                vp_asn: Asn(vp_asn),
                url_id: u32::from(url_id),
                dest_asn: Asn(dest_asn),
                day,
                epoch,
                detected,
                traceroutes: Traceroutes::from_runs(runs.clone()).unwrap(),
                failed,
            };
            (m, runs)
        })
}

proptest! {
    #[test]
    fn native_record_roundtrips_every_measurement(case in arb_measurement()) {
        let (m, runs) = case;
        let rec = NativeRecord::from_measurement(&m, "prop.example");
        let line = serde_json::to_string(&rec).unwrap();
        let value = serde_json::to_value(&rec).unwrap();
        prop_assert_eq!(&serde_json::to_string(&value).unwrap(), &line);
        let parsed: NativeRecord = serde_json::from_str(&line).unwrap();
        let (back, unknown) = parsed.into_measurement().unwrap();
        prop_assert_eq!(unknown, 0);
        prop_assert_eq!(&unpack(&back.traceroutes), &runs);
        prop_assert_eq!(back, m);
    }

    #[test]
    fn jsonl_roundtrips_batches(cases in proptest::collection::vec(arb_measurement(), 0..8)) {
        let ms: Vec<Measurement> = cases.into_iter().map(|(m, _)| m).collect();
        let records: Vec<NativeRecord> =
            ms.iter().map(|m| NativeRecord::from_measurement(m, "batch.example")).collect();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &records).unwrap();
        let mut back = Vec::new();
        let stats = read_jsonl(&buf[..], |m, _| back.push(m)).unwrap();
        prop_assert_eq!(stats.ok as usize, ms.len());
        prop_assert_eq!(stats.malformed, 0);
        prop_assert_eq!(back, ms);
    }

    #[test]
    fn wire_traceroute_roundtrips(runs in arb_runs()) {
        let t = Traceroutes::from_runs(runs.clone()).unwrap();
        let wire: Vec<WireTraceroute> = t.iter().map(WireTraceroute::from_run).collect();
        let back = WireTraceroute::pack(&wire).unwrap();
        prop_assert_eq!(&unpack(&back), &runs);
        prop_assert_eq!(back, t);
    }

    #[test]
    fn prefix2as_roundtrips_databases(
        entries in proptest::collection::btree_map(
            (any::<u32>(), 8u8..30).prop_map(|(net, len)| Ipv4Prefix::new(net, len).unwrap()),
            (1u32..100_000).prop_map(Asn),
            0..40,
        )
    ) {
        let db = Ip2AsDb::from_entries(entries.clone()).unwrap();
        let text = render_prefix2as(&db);
        let (db2, stats) = parse_prefix2as(text.as_bytes()).unwrap();
        prop_assert_eq!(stats.ok as usize, entries.len());
        prop_assert_eq!(stats.malformed, 0);
        prop_assert_eq!(stats.conflicts, 0);
        // Lookups agree on every prefix's representative host.
        for p in entries.keys() {
            prop_assert_eq!(db.lookup(p.nth_host(3)), db2.lookup(p.nth_host(3)));
        }
    }
}
