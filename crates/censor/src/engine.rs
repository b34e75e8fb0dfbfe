//! The packet-level censor: an on-path observer that parses forward
//! traffic and injects forged responses.
//!
//! [`ActiveCensor`] is constructed per measurement flow (one censor AS at
//! one position on one path) and implements
//! [`churnlab_net::OnPathObserver`]. It is *honest middlebox hardware*: it
//! learns the DNS qname and the HTTP Host header by decoding the wire
//! bytes of packets it forwards — never from simulator ground truth — in
//! place ([`DnsMessage::peek`], [`HttpRequest::parse_borrowed`]): it
//! builds a message only when it forges one. Its forged packets carry the
//! artifacts the ICLab detectors key on:
//!
//! * forged DNS responses race the resolver's (two responses at the
//!   client ⇒ DNS anomaly);
//! * forged RSTs/data derive their sequence numbers from the client's ACK
//!   field, with per-censor fuzz (wrong seq ⇒ SEQNO anomaly);
//! * forged packets' remaining TTL reflects the injector's on-path
//!   position, not the server's (mismatch vs the SYNACK ⇒ TTL anomaly),
//!   unless the censor's profile mimics TTLs.
//!
//! A censor with several TCP mechanisms applies one per domain (stable
//! choice, hashed from ASN and domain), so a heavy censor shows up across
//! many anomaly types over a URL list — matching Table 2's "All" rows.
//!
//! Since a censor acts only on a name it blocks, [`FlowNames`] answers
//! before any packet is built whether arming one on a flow can change
//! that flow.

use crate::mechanism::Mechanism;
use crate::policy::CompiledCensor;
use churnlab_net::{
    DnsMessage, HttpRequest, InjectedPacket, Ipv4Packet, ObserverVerdict, OnPathObserver,
    Payload, SharedBytes, TcpFlags, TcpSegment, UdpDatagram,
};
use churnlab_topology::{fnv1a, mix64};

/// Per-flow context the platform provides when arming a censor on a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestContext {
    /// Simulation day (consults the policy schedule).
    pub day: u32,
    /// The initial TTL that would make this censor's packets arrive at the
    /// client with the same remaining TTL as the genuine server's packets
    /// (the platform computes this from the path; used when the censor's
    /// profile has `mimic_ttl`).
    pub mimic_init_ttl: u8,
}

/// The two names a flow puts on the wire, read back by the decoders an
/// [`ActiveCensor`] reads them with: the DNS query's question name
/// ([`DnsMessage::peek`]) and the GET's Host header
/// ([`HttpRequest::parse_borrowed`]). `None` where the censor reads no
/// name (the bytes are not a query, or not a GET).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowNames {
    /// The question name `on_dns` matches.
    pub qname: Option<String>,
    /// The Host `on_tcp` matches.
    pub host: Option<String>,
}

impl FlowNames {
    /// Decode both names off the bytes a flow sends: `dns_query`, an
    /// encoded query under any transaction id, and `get`, a serialised
    /// request.
    pub fn read(dns_query: &[u8], get: &[u8]) -> Self {
        let mut qname = String::new();
        let qname = match DnsMessage::peek(dns_query, Some(&mut qname)) {
            Ok(q) if !q.is_response => Some(qname),
            _ => None,
        };
        let host = HttpRequest::parse_borrowed(get).map(|(host, _)| host.to_owned());
        FlowNames { qname, host }
    }

    /// Whether `censor`, armed for `day`, acts on a flow that sends these
    /// names: whether it blocks either of them that day.
    ///
    /// Exact, not an estimate. An [`ActiveCensor`] changes a flow only
    /// through the verdicts it returns, and both of its hooks return
    /// [`ObserverVerdict::pass`] — having forged nothing — unless
    /// [`CompiledCensor::blocks_domain`] holds for the name just decoded:
    /// `on_dns` for a DNS query's question, `on_tcp` for a data segment's
    /// Host. A flow's forward packets carry one DNS query and one request
    /// payload (the GET, resent unchanged when dropped), so these are the
    /// only names the censor is ever asked about. When it blocks neither,
    /// it passes every packet, and the flow it observes is the flow no
    /// censor observes.
    pub fn acted_on_by(&self, censor: &CompiledCensor, day: u32) -> bool {
        self.qname.iter().chain(&self.host).any(|name| censor.blocks_domain(name, day))
    }
}

/// A censor armed on one path for one measurement flow.
pub struct ActiveCensor<'c> {
    censor: &'c CompiledCensor,
    ctx: TestContext,
    /// The question name of the DNS query being inspected.
    qname: String,
}

impl<'c> ActiveCensor<'c> {
    /// Arm `censor` for a flow measured under `ctx`.
    pub fn new(censor: &'c CompiledCensor, ctx: TestContext) -> Self {
        ActiveCensor { censor, ctx, qname: String::new() }
    }

    fn init_ttl(&self) -> u8 {
        if self.censor.profile.mimic_ttl {
            self.ctx.mimic_init_ttl
        } else {
            self.censor.profile.init_ttl
        }
    }

    /// Deterministic sequence-number fuzz for this (censor, domain) pair:
    /// zero for precise injectors, otherwise a stable offset in
    /// `[-seq_fuzz, +seq_fuzz] \ {0}`.
    fn seq_fuzz_for(&self, domain: &str) -> i64 {
        let fuzz = i64::from(self.censor.profile.seq_fuzz);
        if fuzz == 0 {
            return 0;
        }
        let h = mix64(self.censor.blocklist_key ^ fnv1a(domain.bytes()));
        let span = 2 * fuzz;
        let off = (h % span as u64) as i64 - fuzz; // in [-fuzz, fuzz)
        if off == 0 {
            fuzz // avoid accidentally-precise sloppy injectors
        } else {
            off
        }
    }

    /// The stable blackhole address this censor answers DNS with
    /// (100.64/10 CGNAT space keyed by ASN, like real sinkhole deployments).
    pub fn bogus_addr(&self) -> u32 {
        0x6440_0000 | (self.censor.asn.0 & 0x003f_ffff)
    }

    /// Which of the censor's mechanisms handles `domain` (stable per
    /// censor+domain). Real deployments feed different blocklists to
    /// different subsystems, so each blocked domain is handled by exactly
    /// one mechanism, chosen by a weighted deterministic hash. Weights
    /// mirror observed prevalence: RST injection and stream poisoning are
    /// common, DNS injection and full blockpage serving rarer.
    fn mechanism_for(&self, domain: &str) -> Option<Mechanism> {
        let weight = |m: Mechanism| -> u64 {
            match m {
                Mechanism::RstInjection => 35,
                Mechanism::SeqManipulation => 30,
                Mechanism::DnsInjection => 20,
                Mechanism::Blockpage => 15,
            }
        };
        let mechs = &self.censor.mechanisms;
        if mechs.is_empty() {
            return None;
        }
        let total: u64 = mechs.iter().map(|m| weight(*m)).sum();
        let h = mix64(self.censor.blocklist_key.wrapping_mul(31) ^ fnv1a(domain.bytes()));
        let mut roll = h % total;
        for m in mechs {
            let w = weight(*m);
            if roll < w {
                return Some(*m);
            }
            roll -= w;
        }
        unreachable!("roll < total by construction")
    }

    fn on_dns(&mut self, pkt: &Ipv4Packet, udp: &UdpDatagram) -> ObserverVerdict {
        match DnsMessage::peek(&udp.payload, Some(&mut self.qname)) {
            Ok(q) if !q.is_response => {}
            _ => return ObserverVerdict::pass(),
        }
        if !self.censor.blocks_domain(&self.qname, self.ctx.day) {
            return ObserverVerdict::pass();
        }
        if self.mechanism_for(&self.qname) != Some(Mechanism::DnsInjection) {
            return ObserverVerdict::pass();
        }
        let query = DnsMessage::decode(&udp.payload).expect("peeked as a valid query");
        let forged = DnsMessage::answer(&query, self.bogus_addr(), 300);
        let wire = forged.encode().expect("forged answers are well-formed");
        ObserverVerdict {
            drop_forward: false, // GFW-style: inject, don't block the query
            inject: vec![InjectedPacket {
                delay_us: self.censor.profile.delay_us,
                initial_ttl: self.init_ttl(),
                pkt: Ipv4Packet::udp(
                    pkt.dst, // spoof the resolver
                    pkt.src,
                    self.init_ttl(),
                    0xdead,
                    UdpDatagram::new(53, udp.src_port, wire),
                ),
            }],
        }
    }

    fn on_tcp(&self, pkt: &Ipv4Packet, seg: &TcpSegment) -> ObserverVerdict {
        let Some((host, _path)) = HttpRequest::parse_borrowed(&seg.payload) else {
            return ObserverVerdict::pass();
        };
        if !self.censor.blocks_domain(host, self.ctx.day) {
            return ObserverVerdict::pass();
        }
        let mech = match self.mechanism_for(host) {
            Some(m) if m != Mechanism::DnsInjection => m,
            _ => return ObserverVerdict::pass(),
        };
        let fuzz = self.seq_fuzz_for(host);
        let forged_seq = (i64::from(seg.ack) + fuzz) as u32;
        match mech {
            Mechanism::RstInjection => {
                let mut inject = Vec::new();
                for i in 0..self.censor.profile.rst_burst {
                    inject.push(InjectedPacket {
                        delay_us: self.censor.profile.delay_us + u64::from(i) * 80,
                        initial_ttl: self.init_ttl(),
                        pkt: Ipv4Packet::tcp(pkt.dst, pkt.src, self.init_ttl(), 0xbad0 + u16::from(i), TcpSegment {
                            src_port: seg.dst_port,
                            dst_port: seg.src_port,
                            seq: forged_seq,
                            ack: seg.seq_end(),
                            flags: TcpFlags::RST | TcpFlags::ACK,
                            window: 0,
                            payload: SharedBytes::new(),
                        }),
                    });
                }
                ObserverVerdict { drop_forward: false, inject }
            }
            Mechanism::Blockpage => {
                let template = &crate::blockpage::corpus()
                    [self.censor.profile.blockpage_id % crate::blockpage::corpus().len()];
                let body = SharedBytes::from(template.render(host).serialize());
                let mut inject = vec![InjectedPacket {
                    delay_us: self.censor.profile.delay_us,
                    initial_ttl: self.init_ttl(),
                    pkt: Ipv4Packet::tcp(pkt.dst, pkt.src, self.init_ttl(), 0xb10c, TcpSegment {
                        src_port: seg.dst_port,
                        dst_port: seg.src_port,
                        seq: forged_seq,
                        ack: seg.seq_end(),
                        flags: TcpFlags::PSH | TcpFlags::ACK,
                        window: 65535,
                        payload: body.clone(),
                    }),
                }];
                inject.push(InjectedPacket {
                    delay_us: self.censor.profile.delay_us + 120,
                    initial_ttl: self.init_ttl(),
                    pkt: Ipv4Packet::tcp(pkt.dst, pkt.src, self.init_ttl(), 0xb10d, TcpSegment {
                        src_port: seg.dst_port,
                        dst_port: seg.src_port,
                        seq: forged_seq.wrapping_add(body.len() as u32),
                        ack: seg.seq_end(),
                        flags: TcpFlags::FIN | TcpFlags::ACK,
                        window: 65535,
                        payload: SharedBytes::new(),
                    }),
                });
                // Race-based injection (GFW-style): the request still
                // reaches the server, but the forged page arrives first and
                // wins stream reassembly. Not dropping the request also
                // means a censor further down the path still sees it —
                // censors do not shadow each other.
                ObserverVerdict { drop_forward: false, inject }
            }
            Mechanism::SeqManipulation => {
                // Poison the stream with garbage at (or near) the expected
                // sequence number; the real response still arrives and
                // overlaps with different content.
                let garbage: Vec<u8> = (0..600u32)
                    .map(|i| (mix64(u64::from(self.censor.asn.0) ^ u64::from(i)) & 0xff) as u8)
                    .collect();
                ObserverVerdict {
                    drop_forward: false,
                    inject: vec![InjectedPacket {
                        delay_us: self.censor.profile.delay_us,
                        initial_ttl: self.init_ttl(),
                        pkt: Ipv4Packet::tcp(pkt.dst, pkt.src, self.init_ttl(), 0x5e90, TcpSegment {
                            src_port: seg.dst_port,
                            dst_port: seg.src_port,
                            seq: (i64::from(seg.ack) + fuzz.max(0)) as u32,
                            ack: seg.seq_end(),
                            flags: TcpFlags::PSH | TcpFlags::ACK,
                            window: 65535,
                            payload: garbage.into(),
                        }),
                    }],
                }
            }
            Mechanism::DnsInjection => unreachable!("DNS handled on the DNS path"),
        }
    }
}

impl OnPathObserver for ActiveCensor<'_> {
    fn observe(&mut self, pkt: &Ipv4Packet, _t_us: u64) -> ObserverVerdict {
        match &pkt.payload {
            Payload::Udp(udp) if udp.dst_port == 53 => self.on_dns(pkt, udp),
            Payload::Tcp(seg) if seg.has_data() => self.on_tcp(pkt, seg),
            _ => ObserverVerdict::pass(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::MechanismProfile;
    use crate::policy::{CensorPolicy, PolicyPhase};
    use crate::urlcat::UrlCategory;
    use churnlab_topology::Asn;

    fn compiled(mechs: Vec<Mechanism>, profile: MechanismProfile) -> CompiledCensor {
        let policy = CensorPolicy {
            asn: Asn(4134),
            mechanisms: mechs,
            profile,
            phases: vec![PolicyPhase {
                from_day: 0,
                to_day: 100,
                categories: [UrlCategory::News].into_iter().collect(),
            }],
            blocklist_key: 4134,
        };
        policy.compile(&[
            ("banned.example".to_string(), UrlCategory::News),
            ("fine.example".to_string(), UrlCategory::Streaming),
        ])
    }

    fn ctx() -> TestContext {
        TestContext { day: 5, mimic_init_ttl: 77 }
    }

    fn get_packet(host: &str) -> Ipv4Packet {
        Ipv4Packet::tcp(
            0x0a00_0001,
            0x0a00_0002,
            60,
            1,
            TcpSegment {
                src_port: 40000,
                dst_port: 80,
                seq: 1001,
                ack: 5_000_001,
                flags: TcpFlags::PSH | TcpFlags::ACK,
                window: 65535,
                payload: HttpRequest::get(host, "/").serialize().into(),
            },
        )
    }

    fn dns_packet(qname: &str) -> Ipv4Packet {
        Ipv4Packet::udp(
            0x0a00_0001,
            0x0808_0808,
            60,
            1,
            UdpDatagram::new(5555, 53, DnsMessage::query(77, qname).encode().unwrap()),
        )
    }

    #[test]
    fn dns_injection_forges_matching_response() {
        let c = compiled(vec![Mechanism::DnsInjection], MechanismProfile::default());
        let mut a = ActiveCensor::new(&c, ctx());
        let v = a.observe(&dns_packet("banned.example"), 0);
        assert!(!v.drop_forward, "GFW-style injectors let the query through");
        assert_eq!(v.inject.len(), 1);
        let inj = &v.inject[0].pkt;
        assert_eq!(inj.src, 0x0808_0808, "must spoof the resolver");
        let udp = inj.as_udp().unwrap();
        assert_eq!(udp.src_port, 53);
        let msg = DnsMessage::decode(&udp.payload).unwrap();
        assert!(msg.is_response);
        assert_eq!(msg.id, 77, "must echo the query id to be believed");
        assert_eq!(msg.qname, "banned.example");
        assert_eq!(msg.answers[0].addr & 0xffc0_0000, 0x6440_0000, "bogus addr in 100.64/10");
    }

    #[test]
    fn per_domain_choices_are_pinned() {
        // Both ride on FNV-1a of the domain mixed with the blocklist key:
        // a different string hash reshuffles every censor's behaviour.
        let profile = MechanismProfile { seq_fuzz: 500, ..Default::default() };
        let c = compiled(Mechanism::ALL.to_vec(), profile);
        let a = ActiveCensor::new(&c, ctx());
        let picks: Vec<_> = ["banned.example", "a.example", "foobar"]
            .map(|d| (a.mechanism_for(d).unwrap(), a.seq_fuzz_for(d)))
            .into();
        let (rst, dns) = (Mechanism::RstInjection, Mechanism::DnsInjection);
        assert_eq!(picks, [(rst, 27), (dns, 151), (dns, -136)]);
    }

    #[test]
    fn unmatched_domain_passes() {
        let c = compiled(Mechanism::ALL.to_vec(), MechanismProfile::default());
        let mut a = ActiveCensor::new(&c, ctx());
        assert_eq!(a.observe(&dns_packet("fine.example"), 0), ObserverVerdict::pass());
        assert_eq!(a.observe(&get_packet("fine.example"), 0), ObserverVerdict::pass());
    }

    #[test]
    fn dormant_schedule_passes() {
        let c = compiled(Mechanism::ALL.to_vec(), MechanismProfile::default());
        let mut a = ActiveCensor::new(&c, TestContext { day: 200, mimic_init_ttl: 77 });
        assert_eq!(a.observe(&get_packet("banned.example"), 0), ObserverVerdict::pass());
    }

    #[test]
    fn rst_injection_bursts_with_derived_seq() {
        let profile = MechanismProfile { rst_burst: 3, seq_fuzz: 0, ..Default::default() };
        let c = compiled(vec![Mechanism::RstInjection], profile);
        let mut a = ActiveCensor::new(&c, ctx());
        let v = a.observe(&get_packet("banned.example"), 0);
        assert!(!v.drop_forward);
        assert_eq!(v.inject.len(), 3);
        for inj in &v.inject {
            let seg = inj.pkt.as_tcp().unwrap();
            assert!(seg.flags.contains(TcpFlags::RST));
            assert_eq!(seg.seq, 5_000_001, "precise injector uses the client's ACK");
            assert_eq!(seg.src_port, 80);
        }
    }

    #[test]
    fn sloppy_injector_fuzzes_seq() {
        let profile = MechanismProfile { seq_fuzz: 500, ..Default::default() };
        let c = compiled(vec![Mechanism::RstInjection], profile);
        let mut a = ActiveCensor::new(&c, ctx());
        let v = a.observe(&get_packet("banned.example"), 0);
        let seg = v.inject[0].pkt.as_tcp().unwrap();
        assert_ne!(seg.seq, 5_000_001, "sloppy injector must miss the exact seq");
        let err = (i64::from(seg.seq) - 5_000_001).unsigned_abs();
        assert!(err <= 500, "fuzz {err} beyond profile bound");
    }

    #[test]
    fn blockpage_races_without_dropping() {
        let profile = MechanismProfile { blockpage_id: 0, seq_fuzz: 0, ..Default::default() };
        let c = compiled(vec![Mechanism::Blockpage], profile);
        let mut a = ActiveCensor::new(&c, ctx());
        let v = a.observe(&get_packet("banned.example"), 0);
        assert!(!v.drop_forward, "race-based injection lets the request through");
        assert_eq!(v.inject.len(), 2, "data + FIN");
        let data = v.inject[0].pkt.as_tcp().unwrap();
        assert_eq!(data.seq, 5_000_001);
        let text = String::from_utf8_lossy(&data.payload).into_owned();
        assert!(text.contains(crate::blockpage::corpus()[0].signature));
        assert!(text.contains("banned.example"));
        let fin = v.inject[1].pkt.as_tcp().unwrap();
        assert!(fin.flags.contains(TcpFlags::FIN));
        assert_eq!(fin.seq, data.seq.wrapping_add(data.payload.len() as u32));
    }

    #[test]
    fn seq_manipulation_poisons_without_drop() {
        let c = compiled(vec![Mechanism::SeqManipulation], MechanismProfile::default());
        let mut a = ActiveCensor::new(&c, ctx());
        let v = a.observe(&get_packet("banned.example"), 0);
        assert!(!v.drop_forward);
        assert_eq!(v.inject.len(), 1);
        let seg = v.inject[0].pkt.as_tcp().unwrap();
        assert!(seg.has_data());
        assert_eq!(seg.seq, 5_000_001);
    }

    #[test]
    fn mimic_ttl_uses_context() {
        let profile = MechanismProfile { mimic_ttl: true, ..Default::default() };
        let c = compiled(vec![Mechanism::RstInjection], profile);
        let mut a = ActiveCensor::new(&c, ctx());
        let v = a.observe(&get_packet("banned.example"), 0);
        assert_eq!(v.inject[0].initial_ttl, 77);
    }

    #[test]
    fn mechanism_choice_stable_per_domain() {
        let c = compiled(
            vec![Mechanism::RstInjection, Mechanism::Blockpage, Mechanism::SeqManipulation],
            MechanismProfile::default(),
        );
        let a = ActiveCensor::new(&c, ctx());
        let m1 = a.mechanism_for("banned.example");
        let m2 = a.mechanism_for("banned.example");
        assert_eq!(m1, m2);
    }

    /// An armed censor that must pass every packet it is shown.
    struct MustPass<'c>(ActiveCensor<'c>);

    impl OnPathObserver for MustPass<'_> {
        fn observe(&mut self, pkt: &Ipv4Packet, t_us: u64) -> ObserverVerdict {
            let verdict = self.0.observe(pkt, t_us);
            assert_eq!(verdict, ObserverVerdict::pass(), "a censor the predicate rules out acted");
            verdict
        }
    }

    #[test]
    fn a_censor_the_predicate_rules_out_passes_both_flows() {
        use churnlab_net::{Capture, FlowConfig, FlowSimulator, HopPath, HttpResponse, Reassembly};
        use churnlab_topology::{Ipv4Prefix, PrefixTable};
        use rand::{rngs::StdRng, SeedableRng};

        let asns = [Asn(10), Asn(4134), Asn(30), Asn(40)];
        let prefixes: PrefixTable = asns
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()]))
            .collect();
        let path = HopPath::expand(
            &asns,
            &prefixes,
            prefixes.of_asn(Asn(10))[0].nth_host(1),
            prefixes.of_asn(Asn(40))[0].nth_host(1),
            (1, 3),
            &mut StdRng::seed_from_u64(9),
        );
        let mut mechanism_sets: Vec<Vec<Mechanism>> = Mechanism::ALL.map(|m| vec![m]).into();
        mechanism_sets.push(Mechanism::ALL.to_vec());
        let profiles = [
            MechanismProfile::default(),
            MechanismProfile { mimic_ttl: true, ..Default::default() },
            MechanismProfile { seq_fuzz: 500, rst_burst: 1, ..Default::default() },
            MechanismProfile { init_ttl: 255, delay_us: 0, blockpage_id: 3, ..Default::default() },
        ];
        let flows = [
            FlowConfig::default(),
            FlowConfig { organic_rst: true, ..FlowConfig::default() },
            FlowConfig { organic_loss: true, mss: 100, ..FlowConfig::default() },
        ];
        let page = SharedBytes::from(HttpResponse::ok(&"<html>page</html>".repeat(40)).serialize());
        let (mut want, mut got) = (Capture::new(), Capture::new());
        let (mut want_re, mut got_re) = (Reassembly::default(), Reassembly::default());
        for mechanisms in &mechanism_sets {
            for profile in &profiles {
                let c = compiled(mechanisms.clone(), profile.clone());
                // An unlisted domain, and a listed one on a dormant day.
                for (domain, day) in [("fine.example", 5), ("banned.example", 200)] {
                    let query = DnsMessage::query(0, domain).encode().unwrap();
                    let get = SharedBytes::from(HttpRequest::get(domain, "/").serialize());
                    let names = FlowNames::read(&query, &get);
                    assert_eq!(names.qname.as_deref(), Some(domain));
                    assert_eq!(names.host.as_deref(), Some(domain));
                    assert!(!names.acted_on_by(&c, day));
                    assert!(names.acted_on_by(&c, 5) == (domain == "banned.example"));
                    let ctx = TestContext { day, mimic_init_ttl: 77 };
                    for cfg in &flows {
                        let query = DnsMessage::stamp_id(&query, 0x4242);
                        let none: &mut [(usize, MustPass)] = &mut [];
                        FlowSimulator::dns_lookup_into(&path, cfg, query.clone(), None, none, &mut want);
                        let armed = &mut [(1, MustPass(ActiveCensor::new(&c, ctx)))];
                        FlowSimulator::dns_lookup_into(&path, cfg, query, None, armed, &mut got);
                        assert_eq!(got, want);
                        let want_fetch = FlowSimulator::http_get_into(
                            &path, cfg, &get, &page, none, &mut want, &mut want_re,
                        );
                        let got_fetch = FlowSimulator::http_get_into(
                            &path, cfg, &get, &page, armed, &mut got, &mut got_re,
                        );
                        assert_eq!(got_fetch, want_fetch);
                        assert_eq!(got, want);
                    }
                }
            }
        }
    }

    #[test]
    fn non_get_payload_passes() {
        let c = compiled(Mechanism::ALL.to_vec(), MechanismProfile::default());
        let mut a = ActiveCensor::new(&c, ctx());
        let mut pkt = get_packet("banned.example");
        if let Payload::Tcp(seg) = &mut pkt.payload {
            seg.payload = b"\x16\x03\x01 not http at all".to_vec().into();
        }
        assert_eq!(a.observe(&pkt, 0), ObserverVerdict::pass());
    }
}
