//! OONI-style record import.
//!
//! The paper: *"Conceptually, our techniques could be applied to other
//! platforms such as OONI as well."* OONI's `web_connectivity` test
//! reports, per (probe, URL, time): a probe ASN string (`"AS30722"`), the
//! tested input URL, and a `blocking` verdict (`"dns"`, `"tcp_ip"`,
//! `"http-failure"`, `"http-diff"`, or absent/false). OONI does not ship
//! traceroutes with web_connectivity, so applying boolean tomography to
//! OONI data requires joining a path measurement; [`OoniRecord`] carries
//! one in an `annotations` side channel, which is where a deployment
//! pairing OONI probes with RIPE-Atlas-style traceroutes would put it.
//!
//! The mapping onto churnlab anomaly types is intentionally lossy in the
//! same way the underlying data is: OONI's `blocking` is a single verdict,
//! not five independent detectors.

use crate::record::WireTraceroute;
use churnlab_platform::{AnomalySet, AnomalyType, Measurement, TraceroutesTooWide};
use churnlab_topology::Asn;
use serde::{Deserialize, Serialize};

/// The subset of OONI `web_connectivity` fields the import consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OoniRecord {
    /// Probe network, e.g. `"AS30722"`.
    pub probe_asn: String,
    /// Tested input, e.g. `"http://shop-x.example/"`.
    pub input: String,
    /// Day index within the analysis period (a real importer would parse
    /// `measurement_start_time`; the interchange form keeps the bucketed
    /// day to stay timezone-agnostic).
    pub day: u32,
    /// Test verdicts.
    pub test_keys: OoniTestKeys,
    /// Side-channel annotations (the traceroute join).
    #[serde(default)]
    pub annotations: OoniAnnotations,
}

/// OONI `test_keys` subset.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OoniTestKeys {
    /// Blocking verdict: `"dns"`, `"tcp_ip"`, `"http-failure"`,
    /// `"http-diff"`, or `None`/absent for no blocking.
    #[serde(default)]
    pub blocking: Option<String>,
}

/// Annotations joined onto the OONI record by the operator.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OoniAnnotations {
    /// Traceroutes toward the input's server, if a path measurement was
    /// joined.
    #[serde(default)]
    pub traceroutes: Vec<WireTraceroute>,
    /// The destination AS, if known to the operator.
    #[serde(default)]
    pub dest_asn: Option<u32>,
    /// Stable URL id assigned by the importer's corpus.
    #[serde(default)]
    pub url_id: Option<u32>,
    /// Stable probe id.
    #[serde(default)]
    pub probe_id: Option<u32>,
}

/// Why an OONI record could not be converted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OoniImportError {
    /// `probe_asn` was not of the form `AS<number>`.
    BadProbeAsn(String),
    /// No traceroute annotation — tomography needs a path measurement.
    NoTraceroute,
    /// No destination AS annotation.
    NoDestAsn,
    /// More traceroute runs or hops than a measurement holds: a malformed
    /// record, not a missing annotation.
    TooWide(TraceroutesTooWide),
}

impl std::fmt::Display for OoniImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OoniImportError::BadProbeAsn(s) => write!(f, "bad probe_asn {s:?}"),
            OoniImportError::NoTraceroute => write!(f, "no traceroute annotation"),
            OoniImportError::NoDestAsn => write!(f, "no dest_asn annotation"),
            OoniImportError::TooWide(e) => write!(f, "traceroute annotation too wide: {e}"),
        }
    }
}

impl std::error::Error for OoniImportError {}

/// Map an OONI blocking verdict onto churnlab anomaly types.
///
/// `dns` → DNS injection; `tcp_ip` → spurious RST; `http-diff` → blockpage
/// content; `http-failure` → stream tampering (sequence anomalies). The
/// verdicts `false`/absent map to the empty set.
///
/// An *unrecognized* verdict also maps to the empty set, with the second
/// component `true` so the import layer can count it — the same
/// skip-and-count policy [`crate::jsonl`] applies to unknown anomaly
/// labels. The caller must treat such a record as *inert*, not clean: an
/// unknown verdict probably means blocking OONI detected in a way this
/// mapping postdates, so importing it as "nothing detected" would
/// falsely exonerate every AS on the path
/// ([`OoniRecord::into_measurement`] marks the measurement `failed`,
/// which the conversion rules discard).
pub fn map_blocking(verdict: Option<&str>) -> (AnomalySet, bool) {
    let mut set = AnomalySet::empty();
    match verdict {
        None | Some("false") => {}
        Some("dns") => set.insert(AnomalyType::Dns),
        Some("tcp_ip") => set.insert(AnomalyType::Reset),
        Some("http-diff") => set.insert(AnomalyType::Block),
        Some("http-failure") => set.insert(AnomalyType::Seqno),
        Some(_) => return (set, true),
    }
    (set, false)
}

/// Extract the domain from an OONI input URL: scheme, userinfo, port,
/// path, query, and fragment stripped; bracketed IPv6 literals yield the
/// bare address.
pub fn input_domain(input: &str) -> &str {
    let rest = input.split_once("://").map(|(_, r)| r).unwrap_or(input);
    // The authority ends at the first path/query/fragment delimiter.
    let authority = rest.split(['/', '?', '#']).next().unwrap_or(rest);
    // RFC 3986: userinfo is everything before the last `@` in the
    // authority (userinfo itself may contain `@` when percent-unescaped).
    let host_port = authority.rsplit_once('@').map(|(_, h)| h).unwrap_or(authority);
    if let Some(literal) = host_port.strip_prefix('[') {
        // Bracketed IPv6 literal: the host is everything up to `]`; the
        // colons inside are part of the address, not a port delimiter.
        return literal.split(']').next().unwrap_or(literal);
    }
    host_port.split(':').next().unwrap_or(host_port)
}

/// A converted OONI record: the measurement, the tested domain, and
/// whether the blocking verdict was unrecognized (mapped to "no anomaly"
/// and counted by the import layer).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertedOoni {
    /// The churnlab measurement.
    pub measurement: Measurement,
    /// Domain extracted from the tested input URL.
    pub domain: String,
    /// True when `test_keys.blocking` held a verdict this importer does
    /// not recognize. The measurement is then marked `failed` so the
    /// conversion rules discard it: the verdict's meaning is unknown, so
    /// the record can neither accuse nor exonerate the ASes on its path.
    pub unknown_verdict: bool,
}

impl OoniRecord {
    /// Convert into a churnlab measurement (plus the tested domain and
    /// the unknown-verdict marker).
    pub fn into_measurement(self) -> Result<ConvertedOoni, OoniImportError> {
        let asn_text = self.probe_asn.strip_prefix("AS").unwrap_or(&self.probe_asn);
        let vp_asn: u32 = asn_text
            .parse()
            .map_err(|_| OoniImportError::BadProbeAsn(self.probe_asn.clone()))?;
        if self.annotations.traceroutes.is_empty() {
            return Err(OoniImportError::NoTraceroute);
        }
        let dest_asn = self.annotations.dest_asn.ok_or(OoniImportError::NoDestAsn)?;
        let (detected, unknown_verdict) = map_blocking(self.test_keys.blocking.as_deref());
        let domain = input_domain(&self.input).to_string();
        let measurement = Measurement {
            vp_id: self.annotations.probe_id.unwrap_or(0),
            vp_asn: Asn(vp_asn),
            url_id: self.annotations.url_id.unwrap_or(0),
            dest_asn: Asn(dest_asn),
            day: self.day,
            epoch: self.day, // OONI has no sub-day routing epochs
            detected,
            traceroutes: WireTraceroute::pack(&self.annotations.traceroutes)
                .map_err(OoniImportError::TooWide)?,
            // An unknown verdict makes the record inert (rule-2 discard),
            // not clean — see `ConvertedOoni::unknown_verdict`.
            failed: unknown_verdict,
        };
        Ok(ConvertedOoni { measurement, domain, unknown_verdict })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(blocking: Option<&str>) -> OoniRecord {
        OoniRecord {
            probe_asn: "AS64512".into(),
            input: "http://forum-q.example/thread/7".into(),
            day: 40,
            test_keys: OoniTestKeys { blocking: blocking.map(str::to_string) },
            annotations: OoniAnnotations {
                traceroutes: vec![WireTraceroute {
                    hops: vec![Some("9.0.0.1".into()), Some("9.0.1.1".into())],
                    error: None,
                }],
                dest_asn: Some(64999),
                url_id: Some(3),
                probe_id: Some(11),
            },
        }
    }

    #[test]
    fn blocking_verdict_mapping() {
        assert!(map_blocking(None).0.is_empty());
        assert!(map_blocking(Some("false")).0.is_empty());
        assert!(map_blocking(Some("dns")).0.contains(AnomalyType::Dns));
        assert!(map_blocking(Some("tcp_ip")).0.contains(AnomalyType::Reset));
        assert!(map_blocking(Some("http-diff")).0.contains(AnomalyType::Block));
        assert!(map_blocking(Some("http-failure")).0.contains(AnomalyType::Seqno));
        for known in [None, Some("false"), Some("dns"), Some("tcp_ip"), Some("http-diff"), Some("http-failure")] {
            assert!(!map_blocking(known).1, "{known:?} flagged unknown");
        }
    }

    #[test]
    fn unknown_verdict_is_counted_not_fatal() {
        // The documented lossy-import policy: an unrecognized verdict must
        // not reject the record — it is kept and flagged for accounting.
        let (set, unknown) = map_blocking(Some("quantum"));
        assert!(set.is_empty());
        assert!(unknown);
        let converted = record(Some("quantum")).into_measurement().unwrap();
        assert!(converted.unknown_verdict);
        assert!(converted.measurement.detected.is_empty());
        // But the measurement must be *inert*, not clean: an unknown
        // verdict likely means blocking was detected in a form this
        // mapping postdates, so a `failed: false` import would falsely
        // exonerate every AS on the path. `failed: true` makes the
        // conversion rules discard it.
        assert!(converted.measurement.failed);
        // Known verdicts convert as live measurements.
        let known = record(Some("dns")).into_measurement().unwrap();
        assert!(!known.unknown_verdict);
        assert!(!known.measurement.failed);
    }

    #[test]
    fn conversion_happy_path() {
        let ConvertedOoni { measurement: m, domain, unknown_verdict } =
            record(Some("dns")).into_measurement().unwrap();
        assert!(!unknown_verdict);
        assert_eq!(domain, "forum-q.example");
        assert_eq!(m.vp_asn, Asn(64512));
        assert_eq!(m.dest_asn, Asn(64999));
        assert_eq!(m.url_id, 3);
        assert_eq!(m.vp_id, 11);
        assert!(m.detected.contains(AnomalyType::Dns));
        assert_eq!(m.traceroutes.len(), 1);
    }

    #[test]
    fn missing_annotations_rejected() {
        let mut r = record(None);
        r.annotations.traceroutes.clear();
        assert_eq!(r.into_measurement().unwrap_err(), OoniImportError::NoTraceroute);
        let mut r = record(None);
        r.annotations.dest_asn = None;
        assert_eq!(r.into_measurement().unwrap_err(), OoniImportError::NoDestAsn);
        let mut r = record(None);
        r.probe_asn = "OONI".into();
        assert!(matches!(r.into_measurement(), Err(OoniImportError::BadProbeAsn(_))));
    }

    #[test]
    fn input_domain_extraction() {
        assert_eq!(input_domain("http://a.example/x/y"), "a.example");
        assert_eq!(input_domain("https://b.example:8443/"), "b.example");
        assert_eq!(input_domain("c.example"), "c.example");
        assert_eq!(input_domain("http://d.example?q=1"), "d.example");
        assert_eq!(input_domain("http://e.example#frag"), "e.example");
    }

    #[test]
    fn input_domain_ipv6_literals() {
        // Bracketed IPv6 literals: colons inside the brackets are part of
        // the address, not a port separator.
        assert_eq!(input_domain("http://[2001:db8::1]/path"), "2001:db8::1");
        assert_eq!(input_domain("https://[2001:db8::1]:8443/x"), "2001:db8::1");
        assert_eq!(input_domain("http://[::1]"), "::1");
    }

    #[test]
    fn input_domain_strips_userinfo() {
        assert_eq!(input_domain("http://user@host.example/"), "host.example");
        assert_eq!(input_domain("http://user:pw@host.example:8080/x"), "host.example");
        // `@` in the path must not be mistaken for userinfo.
        assert_eq!(input_domain("http://h.example/~user@lists"), "h.example");
        // Userinfo plus an IPv6 literal compose.
        assert_eq!(input_domain("ftp://op@[2001:db8::2]:21/"), "2001:db8::2");
    }

    #[test]
    fn json_shape_matches_ooni_style() {
        // An OONI-flavoured document parses directly.
        let doc = r#"{
            "probe_asn": "AS1299",
            "input": "http://news-site.example/",
            "day": 12,
            "test_keys": {"blocking": "tcp_ip"},
            "annotations": {
                "traceroutes": [{"hops": ["1.1.1.1", null, "2.2.2.2"]}],
                "dest_asn": 65000
            }
        }"#;
        let r: OoniRecord = serde_json::from_str(doc).unwrap();
        let m = r.into_measurement().unwrap().measurement;
        assert!(m.detected.contains(AnomalyType::Reset));
        let hops: Vec<_> = m.traceroutes.iter().next().unwrap().hops().collect();
        assert_eq!(hops, vec![Some(0x01010101), None, Some(0x02020202)]);
    }
}
