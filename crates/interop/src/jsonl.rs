//! Streaming JSON-lines export/import.
//!
//! One record per line; import skips malformed lines and counts them
//! instead of failing the whole file — external measurement dumps are
//! never fully clean, and the tomography pipeline's own discard rules
//! (§3.1) already assume lossy inputs.
//!
//! Two record dialects share the same line-level accounting:
//! [`NativeRecord`] (churnlab's own interchange form) and
//! [`crate::ooni::OoniRecord`] (OONI `web_connectivity` with a traceroute
//! annotation). The per-line functions here are the single source of
//! truth for what counts as ok/malformed/rejected — the sequential
//! readers and the multi-feeder [`crate::ingest`] bridge both call them,
//! so their [`ImportStats`] agree exactly.

use crate::ooni::OoniRecord;
use crate::record::NativeRecord;
use churnlab_platform::Measurement;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// Import accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImportStats {
    /// Records parsed successfully.
    pub ok: u64,
    /// Lines that failed to parse (skipped).
    pub malformed: u64,
    /// Blank lines (ignored, not counted as malformed).
    pub blank: u64,
    /// Anomaly labels that were not recognized (dropped from otherwise
    /// valid records).
    pub unknown_anomalies: u64,
    /// OONI blocking verdicts that were not recognized (the record is
    /// kept for accounting but marked failed — an unknown verdict can
    /// neither accuse nor exonerate, so the conversion rules discard it).
    #[serde(default)]
    pub unknown_verdicts: u64,
    /// Well-formed records that could not be converted (OONI records
    /// missing the traceroute/dest-AS annotations tomography requires).
    #[serde(default)]
    pub rejected: u64,
}

impl ImportStats {
    /// Fold another accounting into this one (merging per-feeder stats).
    pub fn merge(&mut self, other: ImportStats) {
        self.ok += other.ok;
        self.malformed += other.malformed;
        self.blank += other.blank;
        self.unknown_anomalies += other.unknown_anomalies;
        self.unknown_verdicts += other.unknown_verdicts;
        self.rejected += other.rejected;
    }
}

/// Write records as JSON lines.
pub fn write_jsonl<'a, W: Write>(
    mut w: W,
    records: impl IntoIterator<Item = &'a NativeRecord>,
) -> std::io::Result<u64> {
    let mut n = 0;
    for r in records {
        let line = serde_json::to_string(r).expect("NativeRecord always serializes");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        n += 1;
    }
    Ok(n)
}

/// Import one native-record line: blank and malformed lines are counted
/// and yield `None`; a parsed record yields the measurement plus its
/// domain, with unrecognized anomaly labels counted.
pub fn import_native_line(line: &str, stats: &mut ImportStats) -> Option<(Measurement, String)> {
    if line.trim().is_empty() {
        stats.blank += 1;
        return None;
    }
    match serde_json::from_str::<NativeRecord>(line) {
        Ok(rec) => {
            let domain = rec.domain.clone();
            let (m, unknown) = rec.into_measurement();
            stats.unknown_anomalies += unknown as u64;
            stats.ok += 1;
            Some((m, domain))
        }
        Err(_) => {
            stats.malformed += 1;
            None
        }
    }
}

/// Import one OONI-record line. Parse failures count as `malformed`;
/// well-formed records missing the annotations tomography needs count as
/// `rejected`; unrecognized blocking verdicts count as `unknown_verdicts`
/// while the record is kept (marked failed, so it is inert downstream).
pub fn import_ooni_line(line: &str, stats: &mut ImportStats) -> Option<(Measurement, String)> {
    if line.trim().is_empty() {
        stats.blank += 1;
        return None;
    }
    match serde_json::from_str::<OoniRecord>(line) {
        Ok(rec) => match rec.into_measurement() {
            Ok(converted) => {
                stats.unknown_verdicts += converted.unknown_verdict as u64;
                stats.ok += 1;
                Some((converted.measurement, converted.domain))
            }
            Err(_) => {
                stats.rejected += 1;
                None
            }
        },
        Err(_) => {
            stats.malformed += 1;
            None
        }
    }
}

/// Read records from JSON lines, feeding each parsed measurement to
/// `sink` together with its domain. Malformed lines are skipped and
/// counted. I/O errors abort.
pub fn read_jsonl<R: BufRead>(
    r: R,
    mut sink: impl FnMut(churnlab_platform::Measurement, &str),
) -> std::io::Result<ImportStats> {
    let mut stats = ImportStats::default();
    for line in r.lines() {
        if let Some((m, domain)) = import_native_line(&line?, &mut stats) {
            sink(m, &domain);
        }
    }
    Ok(stats)
}

/// Read OONI-style records from JSON lines (same contract as
/// [`read_jsonl`], with the OONI rejection/verdict accounting).
pub fn read_ooni_jsonl<R: BufRead>(
    r: R,
    mut sink: impl FnMut(churnlab_platform::Measurement, &str),
) -> std::io::Result<ImportStats> {
    let mut stats = ImportStats::default();
    for line in r.lines() {
        if let Some((m, domain)) = import_ooni_line(&line?, &mut stats) {
            sink(m, &domain);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WireTraceroute;

    fn rec(url_id: u32) -> NativeRecord {
        NativeRecord {
            vp_id: 1,
            vp_asn: 64512,
            url_id,
            domain: format!("d{url_id}.example"),
            dest_asn: 64513,
            day: 5,
            epoch: 40,
            anomalies: vec!["dns".into()],
            traceroutes: vec![WireTraceroute {
                hops: vec![Some("1.2.3.4".into()), None],
                error: None,
            }],
            failed: false,
        }
    }

    #[test]
    fn roundtrip_preserves_records() {
        let records = vec![rec(0), rec(1), rec(2)];
        let mut buf = Vec::new();
        assert_eq!(write_jsonl(&mut buf, &records).unwrap(), 3);
        let mut seen = Vec::new();
        let stats = read_jsonl(&buf[..], |m, d| seen.push((m, d.to_string()))).unwrap();
        assert_eq!(stats.ok, 3);
        assert_eq!(stats.malformed, 0);
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[1].1, "d1.example");
        assert_eq!(seen[2].0.url_id, 2);
    }

    #[test]
    fn malformed_lines_skipped_and_counted() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[rec(0)]).unwrap();
        buf.extend_from_slice(b"{not json\n\n");
        write_jsonl(&mut buf, &[rec(1)]).unwrap();
        buf.extend_from_slice(b"[1,2,3]\n"); // valid JSON, wrong shape
        let mut n = 0;
        let stats = read_jsonl(&buf[..], |_, _| n += 1).unwrap();
        assert_eq!(stats.ok, 2);
        assert_eq!(stats.malformed, 2);
        assert_eq!(stats.blank, 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn unknown_anomalies_accumulate() {
        let mut r = rec(0);
        r.anomalies.push("esni-block".into());
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[r]).unwrap();
        let stats = read_jsonl(&buf[..], |_, _| {}).unwrap();
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.unknown_anomalies, 1);
    }

    fn ooni_line(blocking: &str, with_annotations: bool) -> String {
        let annotations = if with_annotations {
            r#","annotations":{"traceroutes":[{"hops":["9.0.0.1","9.0.1.1"]}],"dest_asn":64999}"#
        } else {
            ""
        };
        format!(
            r#"{{"probe_asn":"AS64512","input":"http://x.example/","day":3,"test_keys":{{"blocking":{blocking}}}{annotations}}}"#
        )
    }

    #[test]
    fn ooni_unknown_verdicts_counted_record_kept() {
        let mut buf = String::new();
        buf.push_str(&ooni_line("\"dns\"", true));
        buf.push('\n');
        buf.push_str(&ooni_line("\"quantum\"", true)); // unknown verdict
        buf.push('\n');
        buf.push_str(&ooni_line("null", false)); // no traceroute annotation
        buf.push('\n');
        buf.push_str("{\"probe_asn\":12}\n"); // wrong shape
        let mut seen = Vec::new();
        let stats = read_ooni_jsonl(buf.as_bytes(), |m, d| seen.push((m, d.to_string()))).unwrap();
        assert_eq!(stats.ok, 2, "the unknown-verdict record is kept");
        assert_eq!(stats.unknown_verdicts, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.malformed, 1);
        assert_eq!(seen.len(), 2);
        assert!(seen[1].0.detected.is_empty(), "unknown verdict maps to no anomaly");
        assert!(seen[1].0.failed, "unknown verdict must be inert, not clean");
        assert!(!seen[0].0.failed);
        assert_eq!(seen[0].1, "x.example");
    }

    #[test]
    fn import_stats_merge_is_fieldwise() {
        let a = ImportStats { ok: 1, malformed: 2, blank: 3, unknown_anomalies: 4, unknown_verdicts: 5, rejected: 6 };
        let mut b = ImportStats { ok: 10, malformed: 20, blank: 30, unknown_anomalies: 40, unknown_verdicts: 50, rejected: 60 };
        b.merge(a);
        assert_eq!(
            b,
            ImportStats { ok: 11, malformed: 22, blank: 33, unknown_anomalies: 44, unknown_verdicts: 55, rejected: 66 }
        );
    }
}
