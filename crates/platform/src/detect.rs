//! The five anomaly detectors (§2.1 of the paper).
//!
//! Detectors consume packet captures and the reassembled HTTP outcome —
//! never simulator ground truth — so they have honest false-positive and
//! false-negative modes:
//!
//! * **DNS**: two response packets for the same query id within two
//!   seconds (the paper's exact rule).
//! * **TTL**: the IP TTL of the connection's SYNACK disagrees with a later
//!   packet of the same connection (relies on the censor being unable to
//!   act before the SYNACK, as the paper argues). Misses censors that
//!   mimic TTLs.
//! * **SEQNO**: overlapping sequence ranges with *different* payload
//!   bytes, an unfilled gap at stream end, or an RST whose sequence number
//!   aligns with no segment boundary. Exact duplicates (organic
//!   retransmissions) are deliberately not flagged.
//! * **RESET**: any mid-connection RST — which by construction cannot
//!   distinguish organic from injected resets; the resulting false
//!   positives are the paper's explanation for ~30% of RST CNFs being
//!   unsolvable.
//! * **Blockpage**: fingerprint-list substring match (OONI-style), with a
//!   Jones-et-al length-ratio fallback against the censor-free US control
//!   body — which catches unfingerprinted blockpages but misses nothing
//!   else in a noise-free world.
//!
//! The detectors run once per measurement, so each has one
//! implementation in the form the measurement loop wants:
//! [`detect_all_into`] takes the fingerprint list compiled
//! ([`FingerprintSet`], built once per platform), the assembled body as a
//! borrowed slice, and a [`DetectScratch`] it clears and refills; it reads
//! payloads in place (they are shared slices of the capture) and decodes
//! no message it only needs the id of. [`detect_all`], [`detect_block`]
//! and [`detect_seqno`] keep the signatures that take a phrase list, a
//! [`FlowOutcome`] and nothing else: they compile, borrow and delegate.

use crate::anomaly::{AnomalySet, AnomalyType};
use crate::fingerprint::FingerprintSet;
use churnlab_net::{Capture, Direction, DnsMessage, FlowOutcome, TcpFlags, STREAM_WINDOW};

/// DNS anomaly window from the paper: a second response within 2 s.
const DNS_WINDOW_US: u64 = 2_000_000;

/// Detect DNS injection: ≥2 responses for the same transaction id within
/// the 2-second window.
pub fn detect_dns(dns_capture: &Capture) -> bool {
    // (arrival time, transaction id) of every well-formed response.
    let responses = || {
        dns_capture.incoming().filter_map(|p| {
            let udp = p.pkt.as_udp().filter(|udp| udp.src_port == 53)?;
            let msg = DnsMessage::peek(&udp.payload, None).ok()?;
            msg.is_response.then_some((p.t_us, msg.id))
        })
    };
    responses().enumerate().any(|(i, (t1, id1))| {
        responses().skip(i + 1).any(|(t2, id2)| id1 == id2 && t2.saturating_sub(t1) <= DNS_WINDOW_US)
    })
}

/// Detect TTL anomalies: any incoming TCP packet whose TTL differs from
/// the SYNACK's. Returns false when no SYNACK was captured.
pub fn detect_ttl(http_capture: &Capture) -> bool {
    let synack_ttl = http_capture
        .incoming_tcp()
        .find(|(_, s)| s.flags.contains(TcpFlags::SYN | TcpFlags::ACK))
        .map(|(p, _)| p.pkt.ttl);
    let baseline = match synack_ttl {
        Some(t) => t,
        None => return false,
    };
    http_capture.incoming_tcp().any(|(p, s)| {
        !s.flags.contains(TcpFlags::SYN) && p.pkt.ttl != baseline
    })
}

/// Buffers the detectors fill per measurement, reused from one to the
/// next.
#[derive(Debug, Default)]
pub struct DetectScratch {
    /// Incoming data segments inside the stream window.
    segments: Vec<DataSegment>,
    /// Stream offsets of incoming RSTs.
    rsts: Vec<u32>,
}

/// One incoming data segment, as a range of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DataSegment {
    /// Offset of its first byte from the stream's first.
    off: u32,
    /// Offset one past its last byte.
    end: u32,
    /// Index of its packet in the capture (where its bytes are).
    at: u32,
}

/// Detect sequence-number anomalies.
pub fn detect_seqno(http_capture: &Capture) -> bool {
    detect_seqno_into(http_capture, &mut DetectScratch::default())
}

/// [`detect_seqno`] over caller-owned buffers.
pub fn detect_seqno_into(http_capture: &Capture, scratch: &mut DetectScratch) -> bool {
    // Establish the stream origin from the SYNACK.
    let stream_start = match http_capture
        .incoming_tcp()
        .find(|(_, s)| s.flags.contains(TcpFlags::SYN | TcpFlags::ACK))
        .map(|(_, s)| s.seq.wrapping_add(1))
    {
        Some(s) => s,
        None => return false,
    };
    let rel = |seq: u32| seq.wrapping_sub(stream_start);

    // Collect incoming data segments as relative ranges.
    let DetectScratch { segments, rsts } = scratch;
    segments.clear();
    rsts.clear();
    for (at, cp) in http_capture.packets.iter().enumerate() {
        let Some(seg) = cp.pkt.as_tcp().filter(|_| cp.dir == Direction::In) else { continue };
        if seg.flags.contains(TcpFlags::RST) {
            rsts.push(rel(seg.seq));
        } else if seg.has_data() {
            let off = rel(seg.seq);
            if off < STREAM_WINDOW {
                segments.push(DataSegment { off, end: off + seg.payload.len() as u32, at: at as u32 });
            }
        }
    }
    let bytes = |s: &DataSegment| -> &[u8] {
        &http_capture.packets[s.at as usize].pkt.as_tcp().expect("collected from TCP packets").payload
    };

    // Rule 1: overlapping ranges with differing content.
    for (i, a) in segments.iter().enumerate() {
        for b in segments.iter().skip(i + 1) {
            let lo = a.off.max(b.off);
            let hi = a.end.min(b.end);
            if lo >= hi {
                continue; // disjoint
            }
            let a_slice = &bytes(a)[(lo - a.off) as usize..(hi - a.off) as usize];
            let b_slice = &bytes(b)[(lo - b.off) as usize..(hi - b.off) as usize];
            if a_slice != b_slice {
                return true;
            }
        }
    }

    // Rule 2: a gap in the stream that never fills. (Capture order has
    // served its purpose; rule 3 asks only which boundaries exist.)
    segments.sort_unstable();
    let mut covered_end = 0u32;
    for s in segments.iter() {
        if s.off > covered_end {
            return true;
        }
        covered_end = covered_end.max(s.end);
    }

    // Rule 3: an RST whose sequence number aligns with no segment boundary.
    rsts.iter().any(|&r| {
        // Plausible positions: within the stream (small positive
        // offsets) or just before it (small negative offsets — sloppy
        // injectors undershoot too).
        let plausible = !(STREAM_WINDOW..=u32::MAX - 4096).contains(&r);
        plausible && r != 0 && !segments.iter().any(|s| s.off == r || s.end == r)
    })
}

/// Detect RESET anomalies: any incoming RST on the measured connection.
pub fn detect_reset(http_capture: &Capture) -> bool {
    http_capture
        .incoming_tcp()
        .any(|(_, s)| s.flags.contains(TcpFlags::RST))
}

/// Detect blockpages: fingerprint scan over every received TCP payload
/// (ICLab analyses raw captures, so a blockpage that lost the reassembly
/// race — or arrived after an injected RST — is still visible), plus the
/// Jones-et-al length heuristic against the censor-free US control body
/// for pages the fingerprint list does not know.
///
/// The adapter over [`detect_block_compiled`].
pub fn detect_block(
    http_capture: &Capture,
    outcome: &FlowOutcome,
    fingerprints: &[&str],
    control_body: Option<&[u8]>,
) -> bool {
    detect_block_compiled(
        http_capture,
        assembled_body(outcome),
        &FingerprintSet::compile(fingerprints),
        control_body,
    )
}

/// The body the browser assembled, if the fetch completed.
fn assembled_body(outcome: &FlowOutcome) -> Option<&[u8]> {
    match outcome {
        FlowOutcome::HttpOk(r) => Some(&r.body),
        _ => None,
    }
}

/// [`detect_block`] over a compiled fingerprint list and the assembled
/// body (`None` when the fetch did not complete).
pub fn detect_block_compiled(
    http_capture: &Capture,
    body: Option<&[u8]>,
    fingerprints: &FingerprintSet,
    control_body: Option<&[u8]>,
) -> bool {
    // Raw-capture fingerprint scan.
    if http_capture.incoming_tcp().any(|(_, seg)| seg.has_data() && fingerprints.is_match(&seg.payload)) {
        return true;
    }
    // Length heuristic on what the browser actually assembled.
    let (Some(body), Some(control)) = (body, control_body) else { return false };
    // Jones et al.: blockpages differ starkly in length from the real
    // page. Flag HTML bodies under 30% / over 333% of the control size.
    let got = body.len() as f64;
    let want = control.len().max(1) as f64;
    let ratio = got / want;
    !(0.30..=3.33).contains(&ratio)
        && String::from_utf8_lossy(body).to_ascii_lowercase().contains("<html")
}

/// Run all five detectors over one measurement's artifacts.
///
/// The adapter over [`detect_all_into`].
pub fn detect_all(
    dns_capture: &Capture,
    http_capture: &Capture,
    http_outcome: &FlowOutcome,
    fingerprints: &[&str],
    control_body: Option<&[u8]>,
) -> AnomalySet {
    detect_all_into(
        dns_capture,
        http_capture,
        assembled_body(http_outcome),
        &FingerprintSet::compile(fingerprints),
        control_body,
        &mut DetectScratch::default(),
    )
}

/// [`detect_all`] over a compiled fingerprint list, the assembled body
/// (`None` when the fetch did not complete) and caller-owned buffers.
pub fn detect_all_into(
    dns_capture: &Capture,
    http_capture: &Capture,
    body: Option<&[u8]>,
    fingerprints: &FingerprintSet,
    control_body: Option<&[u8]>,
    scratch: &mut DetectScratch,
) -> AnomalySet {
    let mut set = AnomalySet::empty();
    if detect_dns(dns_capture) {
        set.insert(AnomalyType::Dns);
    }
    if detect_ttl(http_capture) {
        set.insert(AnomalyType::Ttl);
    }
    if detect_seqno_into(http_capture, scratch) {
        set.insert(AnomalyType::Seqno);
    }
    if detect_reset(http_capture) {
        set.insert(AnomalyType::Reset);
    }
    if detect_block_compiled(http_capture, body, fingerprints, control_body) {
        set.insert(AnomalyType::Block);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_censor::{
        ActiveCensor, CensorPolicy, Mechanism, MechanismProfile, TestContext, UrlCategory,
    };
    use churnlab_net::{
        DnsMessage, FlowConfig, FlowSimulator, HopPath, HttpRequest, HttpResponse,
        OnPathObserver,
    };
    use churnlab_topology::{Asn, Ipv4Prefix, PrefixTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path() -> HopPath {
        let asns = [Asn(10), Asn(20), Asn(30), Asn(40)];
        let prefixes: PrefixTable = asns
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()]))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let server = prefixes.of_asn(Asn(40))[0].nth_host(1);
        let client = prefixes.of_asn(Asn(10))[0].nth_host(1);
        HopPath::expand(&asns, &prefixes, client, server, (1, 2), &mut rng)
    }

    fn censor(mechs: Vec<Mechanism>, profile: MechanismProfile) -> churnlab_censor::CompiledCensor {
        CensorPolicy::steady(Asn(20), mechs, profile, [UrlCategory::News], 365)
            .compile(&[("bad.example".into(), UrlCategory::News)])
    }

    fn run_http(
        compiled: Option<&churnlab_censor::CompiledCensor>,
        domain: &str,
        cfg: &FlowConfig,
    ) -> (churnlab_net::Capture, FlowOutcome, HttpResponse) {
        let p = path();
        let real = HttpResponse::ok(&format!(
            "<html><body>{}</body></html>",
            "real content ".repeat(200)
        ));
        let req = HttpRequest::get(domain, "/");
        let mimic = cfg
            .server_init_ttl
            .saturating_sub(p.len() as u8 - 1)
            .saturating_add(p.first_hop_of_as(1).unwrap() as u8);
        let mut armed;
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![];
        if let Some(c) = compiled {
            armed = ActiveCensor::new(c, TestContext { day: 5, mimic_init_ttl: mimic });
            observers.push((1, &mut armed));
        }
        let (cap, outcome) = FlowSimulator::http_get(&p, cfg, &req, &real, &mut observers);
        (cap, outcome, real)
    }

    #[test]
    fn clean_flow_detects_nothing() {
        let cfg = FlowConfig::default();
        let (cap, outcome, real) = run_http(None, "bad.example", &cfg);
        let set = detect_all(
            &Capture::new(),
            &cap,
            &outcome,
            &churnlab_censor::blockpage::fingerprint_list(),
            Some(&real.serialize()),
        );
        assert!(set.is_empty(), "clean flow flagged: {set}");
    }

    #[test]
    fn organic_loss_not_flagged_as_seqno() {
        let cfg = FlowConfig { organic_loss: true, mss: 500, ..FlowConfig::default() };
        let (cap, _, _) = run_http(None, "bad.example", &cfg);
        assert!(!detect_seqno(&cap), "retransmission must not look like censorship");
    }

    #[test]
    fn organic_rst_flags_reset_only() {
        let cfg = FlowConfig { organic_rst: true, ..FlowConfig::default() };
        let (cap, outcome, real) = run_http(None, "bad.example", &cfg);
        assert!(detect_reset(&cap));
        assert!(!detect_ttl(&cap), "server's own RST has the right TTL");
        assert!(!detect_seqno(&cap), "server's own RST has the right seq");
        assert!(!detect_block(&cap, &outcome, &[], Some(&real.serialize())));
    }

    #[test]
    fn rst_injection_flags_reset_and_ttl() {
        let c = censor(vec![Mechanism::RstInjection], MechanismProfile::default());
        let (cap, _, _) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        assert!(detect_reset(&cap), "injected RST missed");
        assert!(detect_ttl(&cap), "injector TTL fingerprint missed");
    }

    #[test]
    fn mimicking_injector_evades_ttl_detector() {
        let profile = MechanismProfile { mimic_ttl: true, ..Default::default() };
        let c = censor(vec![Mechanism::RstInjection], profile);
        let (cap, _, _) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        assert!(detect_reset(&cap));
        assert!(!detect_ttl(&cap), "mimicked TTL should evade the detector");
    }

    #[test]
    fn sloppy_rst_flags_seqno() {
        let profile = MechanismProfile { seq_fuzz: 700, ..Default::default() };
        let c = censor(vec![Mechanism::RstInjection], profile);
        let (cap, _, _) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        assert!(detect_seqno(&cap), "fuzzed RST seq must trip the SEQNO detector");
    }

    #[test]
    fn blockpage_detected_by_fingerprint() {
        let profile = MechanismProfile { blockpage_id: 0, ..Default::default() };
        let c = censor(vec![Mechanism::Blockpage], profile);
        let (cap, outcome, real) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        let fps = churnlab_censor::blockpage::fingerprint_list();
        assert!(detect_block(&cap, &outcome, &fps, Some(&real.serialize())));
        // The page arrives from the censor's position: TTL anomaly too
        // (matching the paper's UK "Block, TTL" pattern).
        assert!(detect_ttl(&cap));
    }

    #[test]
    fn unfingerprinted_blockpage_caught_by_length_heuristic() {
        // Template 4 ("generic-denied") is not in the fingerprint list.
        let profile = MechanismProfile { blockpage_id: 4, ..Default::default() };
        let c = censor(vec![Mechanism::Blockpage], profile);
        let (cap, outcome, real) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        let fps = churnlab_censor::blockpage::fingerprint_list();
        assert!(
            detect_block(&cap, &outcome, &fps, Some(&real.body)),
            "length heuristic should catch the stealth blockpage"
        );
        assert!(
            !detect_block(&cap, &outcome, &fps, None),
            "without a control body the stealth page evades"
        );
    }

    #[test]
    fn seq_manipulation_flags_seqno() {
        let c = censor(vec![Mechanism::SeqManipulation], MechanismProfile::default());
        let (cap, _, _) = run_http(Some(&c), "bad.example", &FlowConfig::default());
        assert!(detect_seqno(&cap), "poisoned stream must trip SEQNO");
    }

    #[test]
    fn untargeted_domain_is_clean() {
        let c = censor(Mechanism::ALL.to_vec(), MechanismProfile::default());
        let (cap, outcome, real) = run_http(Some(&c), "innocent.example", &FlowConfig::default());
        let set = detect_all(
            &Capture::new(),
            &cap,
            &outcome,
            &churnlab_censor::blockpage::fingerprint_list(),
            Some(&real.serialize()),
        );
        assert!(set.is_empty(), "uncensored domain flagged: {set}");
    }

    #[test]
    fn dns_injection_detected_via_double_response() {
        let p = path();
        let c = censor(vec![Mechanism::DnsInjection], MechanismProfile::default());
        let q = DnsMessage::query(9, "bad.example");
        let honest = DnsMessage::answer(&q, p.server_ip, 300);
        let mut armed = ActiveCensor::new(&c, TestContext { day: 5, mimic_init_ttl: 64 });
        let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = vec![(1, &mut armed)];
        let (cap, responses) =
            FlowSimulator::dns_lookup(&p, &FlowConfig::default(), &q, Some(&honest), &mut observers);
        assert_eq!(responses.len(), 2, "injected + honest");
        assert!(detect_dns(&cap));
        // The injected response arrives first (closer).
        assert_ne!(responses[0].answers[0].addr, p.server_ip);
    }

    /// A SYNACK, then whatever `then` holds, as `(stream offset, flags,
    /// payload)` arrivals.
    fn stream_capture(then: &[(u32, TcpFlags, &[u8])]) -> Capture {
        let isn = 77u32;
        let mut cap = Capture::new();
        let mut push = |t: u64, seq: u32, flags: TcpFlags, payload: &[u8]| {
            let seg = churnlab_net::TcpSegment {
                src_port: 80,
                dst_port: 4000,
                seq,
                ack: 0,
                flags,
                window: 0,
                payload: payload.into(),
            };
            cap.push(t, Direction::In, churnlab_net::Ipv4Packet::tcp(2, 1, 60, 0, seg));
        };
        push(0, isn, TcpFlags::SYN | TcpFlags::ACK, b"");
        for (i, &(off, flags, payload)) in then.iter().enumerate() {
            push(10 + i as u64, isn.wrapping_add(1).wrapping_add(off), flags, payload);
        }
        cap
    }

    /// Reassembly and both SEQNO rules draw the plausible-stream window
    /// at the same offset: `STREAM_WINDOW - 1` is inside, `STREAM_WINDOW`
    /// is not (`flow.rs` holds reassembly to the same boundary).
    #[test]
    fn seqno_rules_share_the_stream_window_boundary() {
        let data = TcpFlags::PSH | TcpFlags::ACK;
        const X: &[u8] = b"x";
        const NONE: &[u8] = b"";
        let head: (u32, TcpFlags, &[u8]) = (0, data, b"in order");
        assert!(!detect_seqno(&stream_capture(&[head])));
        // Data just inside the window is a segment the stream never
        // reaches — an unfilled gap; at the window it is not collected.
        assert!(detect_seqno(&stream_capture(&[head, (STREAM_WINDOW - 1, data, X)])));
        assert!(!detect_seqno(&stream_capture(&[head, (STREAM_WINDOW, data, X)])));
        // An RST just inside the window aligns with no boundary; at the
        // window it is not judged; on a boundary it is fine.
        assert!(detect_seqno(&stream_capture(&[head, (STREAM_WINDOW - 1, TcpFlags::RST, NONE)])));
        assert!(!detect_seqno(&stream_capture(&[head, (STREAM_WINDOW, TcpFlags::RST, NONE)])));
        assert!(!detect_seqno(&stream_capture(&[head, (8, TcpFlags::RST, NONE)])));
        // Just before the stream is judged too (sloppy injectors undershoot).
        assert!(detect_seqno(&stream_capture(&[head, (0u32.wrapping_sub(4096), TcpFlags::RST, NONE)])));
        assert!(!detect_seqno(&stream_capture(&[head, (0u32.wrapping_sub(4097), TcpFlags::RST, NONE)])));
    }

    #[test]
    fn single_dns_response_is_clean() {
        let p = path();
        let q = DnsMessage::query(9, "bad.example");
        let honest = DnsMessage::answer(&q, p.server_ip, 300);
        let (cap, _) =
            FlowSimulator::dns_lookup(&p, &FlowConfig::default(), &q, Some(&honest), &mut []);
        assert!(!detect_dns(&cap));
    }

    proptest::proptest! {
        /// A flow no censor touches and no organic noise disturbs gives
        /// the five detectors nothing — the premise of a quiet test's empty
        /// verdict — over any hop path and flow parameters.
        #[test]
        fn prop_detectors_are_silent_on_clean_flows(
            n_ases in 1usize..8,
            routers in (1usize..4, 0usize..3),
            path_seed in proptest::prelude::any::<u64>(),
            client_port in proptest::prelude::any::<u16>(),
            isn_client in proptest::prelude::any::<u32>(),
            isn_server in proptest::prelude::any::<u32>(),
            client_init_ttl in 1u8..=255,
            server_init_ttl in 1u8..=255,
            mss in 1usize..3000,
            body_len in 0usize..9000,
            id in proptest::prelude::any::<u16>(),
        ) {
            let asns: Vec<Asn> = (1..=n_ases as u32).map(|i| Asn(i * 10)).collect();
            let prefixes: PrefixTable = asns
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()]))
                .collect();
            let client = prefixes.of_asn(asns[0])[0].nth_host(1);
            let server = prefixes.of_asn(asns[n_ases - 1])[0].nth_host(2);
            let (lo, extra) = routers;
            let mut rng = StdRng::seed_from_u64(path_seed);
            let p = HopPath::expand(&asns, &prefixes, client, server, (lo, lo + extra), &mut rng);
            let cfg = FlowConfig {
                client_init_ttl,
                server_init_ttl,
                client_port,
                isn_client,
                isn_server,
                mss,
                organic_rst: false,
                organic_loss: false,
            };
            let body = "<html>".chars().chain("clean page ".chars().cycle()).take(body_len).collect::<String>();
            let page = churnlab_net::SharedBytes::from(HttpResponse::ok(&body).serialize());
            let get = churnlab_net::SharedBytes::from(HttpRequest::get("quiet.example", "/").serialize());
            let query = DnsMessage::query(id, "quiet.example");
            let answer = DnsMessage::answer(&query, server, 300);
            let none: &mut [(usize, &mut dyn OnPathObserver)] = &mut [];
            let mut dns_cap = churnlab_net::Capture::new();
            FlowSimulator::dns_lookup_into(
                &p,
                &cfg,
                query.encode().unwrap().into(),
                Some(answer.encode().unwrap().into()),
                none,
                &mut dns_cap,
            );
            let (mut http_cap, mut reassembly) =
                (churnlab_net::Capture::new(), churnlab_net::Reassembly::default());
            let fetched =
                FlowSimulator::http_get_into(&p, &cfg, &get, &page, none, &mut http_cap, &mut reassembly);
            let fingerprints =
                FingerprintSet::compile(&churnlab_censor::blockpage::fingerprint_list());
            let detected = detect_all_into(
                &dns_cap,
                &http_cap,
                fetched.body(),
                &fingerprints,
                Some(body.as_bytes()),
                &mut DetectScratch::default(),
            );
            proptest::prop_assert_eq!(detected, AnomalySet::empty());
        }
    }
}
