//! The native interchange record.
//!
//! [`NativeRecord`] is a self-contained, line-serializable form of the
//! paper's §3.1 measurement tuple. Unlike
//! [`churnlab_platform::Measurement`] it carries the tested domain inline
//! (so a record file can be interpreted without the generating corpus) and
//! spells anomaly verdicts as labels rather than a bitmask (so foreign
//! tooling can produce it without knowing churnlab's encoding).

use churnlab_net::TracerouteError;
use churnlab_platform::{
    AnomalySet, AnomalyType, Measurement, TracerouteRun, Traceroutes, TraceroutesTooWide,
};
use churnlab_topology::Asn;
use serde::{Deserialize, Serialize};

/// One traceroute in interchange form: dotted-quad hops, `null` for a
/// non-responsive hop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireTraceroute {
    /// Responding hops as dotted quads (`None` = `*`).
    pub hops: Vec<Option<String>>,
    /// Error label if the run failed (`"failed"` / `"truncated"`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

fn dotted(ip: u32) -> String {
    let b = ip.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

fn parse_dotted(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut out = [0u8; 4];
    for slot in &mut out {
        *slot = parts.next()?.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(u32::from_be_bytes(out))
}

fn error_label(e: TracerouteError) -> &'static str {
    match e {
        TracerouteError::Failed => "failed",
        TracerouteError::Truncated => "truncated",
    }
}

fn parse_error_label(s: &str) -> Option<TracerouteError> {
    match s {
        "failed" => Some(TracerouteError::Failed),
        "truncated" => Some(TracerouteError::Truncated),
        _ => None,
    }
}

impl WireTraceroute {
    /// Convert one run of the platform's record.
    pub fn from_run(run: TracerouteRun<'_>) -> Self {
        WireTraceroute {
            hops: run.hops().map(|h| h.map(dotted)).collect(),
            error: run.error().map(|e| error_label(e).to_string()),
        }
    }

    /// Pack runs into the platform's record. Unparseable hop addresses
    /// become non-responsive hops (the conversion rules already treat an
    /// unmappable hop like a `*`); unknown error labels become `Failed`.
    /// More runs or hops than the record holds are an error, which an
    /// import counts as a malformed record.
    pub fn pack(runs: &[WireTraceroute]) -> Result<Traceroutes, TraceroutesTooWide> {
        Traceroutes::from_runs(runs.iter().map(|run| {
            let hops = run.hops.iter().map(|h| h.as_deref().and_then(parse_dotted));
            let error = run.error.as_deref().map(|e| {
                parse_error_label(e).unwrap_or(TracerouteError::Failed)
            });
            (hops, error)
        }))
    }
}

/// A self-contained measurement record (the paper's §3.1 tuple).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NativeRecord {
    /// Vantage point identifier within its platform.
    pub vp_id: u32,
    /// Vantage AS number (as registered — whois of the vantage address).
    pub vp_asn: u32,
    /// Tested URL's stable id in the source dataset.
    pub url_id: u32,
    /// Tested domain (self-contained; no corpus needed to read the file).
    pub domain: String,
    /// The URL's hosting AS, as known to the platform operator.
    pub dest_asn: u32,
    /// Day index of the test within the measurement period.
    pub day: u32,
    /// Sub-day routing epoch of the test.
    pub epoch: u32,
    /// Detected anomaly labels (`"dns"`, `"seq"`, `"ttl"`, `"rst"`,
    /// `"block"`); absent labels mean "tested, not detected".
    pub anomalies: Vec<String>,
    /// The three traceroutes run alongside the test.
    pub traceroutes: Vec<WireTraceroute>,
    /// True if the test could not run at all.
    #[serde(default)]
    pub failed: bool,
}

/// Parse an anomaly label. Unknown labels yield `None` (the import layer
/// counts them instead of guessing).
pub fn parse_anomaly_label(s: &str) -> Option<AnomalyType> {
    AnomalyType::ALL.into_iter().find(|t| t.label() == s)
}

impl NativeRecord {
    /// Build an interchange record from a platform measurement plus the
    /// tested domain.
    pub fn from_measurement(m: &Measurement, domain: &str) -> Self {
        NativeRecord {
            vp_id: m.vp_id,
            vp_asn: m.vp_asn.0,
            url_id: m.url_id,
            domain: domain.to_string(),
            dest_asn: m.dest_asn.0,
            day: m.day,
            epoch: m.epoch,
            anomalies: m.detected.iter().map(|t| t.label().to_string()).collect(),
            traceroutes: m.traceroutes.iter().map(WireTraceroute::from_run).collect(),
            failed: m.failed,
        }
    }

    /// Convert into a platform measurement. Returns the measurement plus
    /// the number of anomaly labels that were not recognized (dropped),
    /// or why its traceroutes do not fit a [`Traceroutes`].
    pub fn into_measurement(self) -> Result<(Measurement, usize), TraceroutesTooWide> {
        let mut detected = AnomalySet::empty();
        let mut unknown = 0;
        for label in &self.anomalies {
            match parse_anomaly_label(label) {
                Some(t) => detected.insert(t),
                None => unknown += 1,
            }
        }
        let m = Measurement {
            vp_id: self.vp_id,
            vp_asn: Asn(self.vp_asn),
            url_id: self.url_id,
            dest_asn: Asn(self.dest_asn),
            day: self.day,
            epoch: self.epoch,
            detected,
            traceroutes: WireTraceroute::pack(&self.traceroutes)?,
            failed: self.failed,
        };
        Ok((m, unknown))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_measurement() -> Measurement {
        let mut detected = AnomalySet::empty();
        detected.insert(AnomalyType::Dns);
        detected.insert(AnomalyType::Block);
        Measurement {
            vp_id: 7,
            vp_asn: Asn(64512),
            url_id: 3,
            dest_asn: Asn(64513),
            day: 120,
            epoch: 961,
            detected,
            traceroutes: Traceroutes::from_runs([
                (vec![Some(0x01020304), None, Some(0x05060708)], None),
                (vec![Some(0x01020304)], Some(TracerouteError::Truncated)),
                (vec![], Some(TracerouteError::Failed)),
            ])
            .unwrap(),
            failed: false,
        }
    }

    #[test]
    fn measurement_roundtrip() {
        let m = sample_measurement();
        let rec = NativeRecord::from_measurement(&m, "shop-x.example");
        assert_eq!(rec.domain, "shop-x.example");
        assert_eq!(rec.anomalies, vec!["dns", "block"]);
        let (back, unknown) = rec.into_measurement().unwrap();
        assert_eq!(unknown, 0);
        assert_eq!(back, m);
    }

    #[test]
    fn json_roundtrip() {
        let m = sample_measurement();
        let rec = NativeRecord::from_measurement(&m, "d.example");
        let line = serde_json::to_string(&rec).unwrap();
        let parsed: NativeRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed, rec);
    }

    #[test]
    fn dotted_quad_roundtrip() {
        for ip in [0u32, 0x01020304, 0xffffffff, 0x7f000001] {
            assert_eq!(parse_dotted(&dotted(ip)), Some(ip));
        }
        assert_eq!(parse_dotted("1.2.3"), None);
        assert_eq!(parse_dotted("1.2.3.4.5"), None);
        assert_eq!(parse_dotted("1.2.3.999"), None);
        assert_eq!(parse_dotted("not-an-ip"), None);
    }

    #[test]
    fn unknown_anomaly_labels_counted_not_guessed() {
        let m = sample_measurement();
        let mut rec = NativeRecord::from_measurement(&m, "d.example");
        rec.anomalies.push("quic-tamper".to_string()); // future label
        let (back, unknown) = rec.into_measurement().unwrap();
        assert_eq!(unknown, 1);
        assert!(back.detected.contains(AnomalyType::Dns));
        assert_eq!(back.detected.len(), 2);
    }

    #[test]
    fn unparseable_hops_become_nonresponsive() {
        let wt = WireTraceroute {
            hops: vec![Some("1.2.3.4".into()), Some("garbage".into()), None],
            error: None,
        };
        let packed = WireTraceroute::pack(&[wt]).unwrap();
        let hops: Vec<_> = packed.iter().next().unwrap().hops().collect();
        assert_eq!(hops, vec![Some(0x01020304), None, None]);
    }

    #[test]
    fn error_labels_roundtrip() {
        for e in [TracerouteError::Failed, TracerouteError::Truncated] {
            assert_eq!(parse_error_label(error_label(e)), Some(e));
        }
        assert_eq!(parse_error_label("melted"), None);
        // Unknown labels degrade to Failed on import.
        let wt = WireTraceroute { hops: vec![], error: Some("melted".into()) };
        let packed = WireTraceroute::pack(&[wt]).unwrap();
        assert_eq!(packed.iter().next().unwrap().error(), Some(TracerouteError::Failed));
    }
}
