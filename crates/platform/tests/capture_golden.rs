//! Capture golden: what one measurement puts on the wire, and what the
//! detectors make of it, pinned as one hash.
//!
//! For every censor mechanism (and nobody on the path) × {plain,
//! `mimic_ttl`, sloppy sequence numbers} × {plain, `organic_rst`,
//! `organic_loss`} over several seeded paths and pages, the DNS and HTTP
//! captures are written with `write_pcap` and folded — together with the
//! assembled outcome and `detect_all`'s verdict — into an FNV-1a hash.
//! Every byte of every packet, every timestamp, the capture order and
//! every verdict is in it, so a change to how the flow simulator, the
//! censor or the detectors *compute* a measurement cannot keep the pin by
//! accident. The test drives the public signatures only.

use churnlab_censor::{
    blockpage, ActiveCensor, CensorPolicy, CompiledCensor, Mechanism, MechanismProfile,
    TestContext, UrlCategory,
};
use churnlab_net::{
    DnsMessage, FlowConfig, FlowOutcome, FlowSimulator, HopPath, HttpRequest, HttpResponse,
    OnPathObserver,
};
use churnlab_platform::{detect, AnomalyType};
use churnlab_topology::{Asn, Ipv4Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Hash of the whole grid, taken on the commit before payloads became
/// shared slices.
const GOLDEN: u64 = 0xc73a_8fe4_9439_64f9;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

const DOMAIN: &str = "bad.example";

fn censor(asn: Asn, mech: Mechanism, profile: MechanismProfile) -> CompiledCensor {
    CensorPolicy::steady(asn, vec![mech], profile, [UrlCategory::News], 365)
        .compile(&[(DOMAIN.to_string(), UrlCategory::News)])
}

/// One measurement's artifacts folded into `h`; returns whether any
/// detector fired.
fn measure(h: &mut Fnv, seed: u64, mech: Option<Mechanism>, profile: &MechanismProfile, noise: usize) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let asns: Vec<Asn> = (0..rng.gen_range(3..7u32)).map(|i| Asn(10 * (i + 1))).collect();
    let prefixes: HashMap<Asn, Vec<Ipv4Prefix>> = asns
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()]))
        .collect();
    let server = prefixes[asns.last().unwrap()][0].nth_host(1);
    let client = prefixes[&asns[0]][0].nth_host(1);
    let path = HopPath::expand(&asns, &prefixes, client, server, (1, 3), &mut rng);
    let cfg = FlowConfig {
        client_port: rng.gen_range(32768..61000),
        isn_client: rng.gen(),
        isn_server: rng.gen(),
        organic_rst: noise == 1,
        organic_loss: noise == 2,
        ..FlowConfig::default()
    };

    let censor_pos = rng.gen_range(1..asns.len() - 1);
    let compiled = mech.map(|m| censor(asns[censor_pos], m, profile.clone()));
    let mimic = cfg
        .server_init_ttl
        .saturating_sub(path.len() as u8 - 1)
        .saturating_add(path.first_hop_of_as(censor_pos).unwrap() as u8);
    let mut armed: Vec<(usize, ActiveCensor)> = compiled
        .iter()
        .map(|c| (censor_pos, ActiveCensor::new(c, TestContext { day: 5, mimic_init_ttl: mimic })))
        .collect();

    let query = DnsMessage::query(rng.gen(), DOMAIN);
    let honest = DnsMessage::answer(&query, server, 300);
    let mut observers: Vec<(usize, &mut dyn OnPathObserver)> =
        armed.iter_mut().map(|(p, c)| (*p, c as &mut dyn OnPathObserver)).collect();
    let (dns_cap, responses) =
        FlowSimulator::dns_lookup(&path, &cfg, &query, Some(&honest), &mut observers);

    let body = format!(
        "<html><head><title>{DOMAIN}</title></head><body>{}</body></html>",
        "<p>lorem ipsum dolor sit amet consectetur</p>".repeat(rng.gen_range(1..160))
    );
    let genuine = HttpResponse::ok(&body);
    let mut observers: Vec<(usize, &mut dyn OnPathObserver)> =
        armed.iter_mut().map(|(p, c)| (*p, c as &mut dyn OnPathObserver)).collect();
    let (http_cap, outcome) = FlowSimulator::http_get(
        &path,
        &cfg,
        &HttpRequest::get(DOMAIN, "/index.html"),
        &genuine,
        &mut observers,
    );

    let mut pcap = Vec::new();
    dns_cap.write_pcap(&mut pcap).unwrap();
    http_cap.write_pcap(&mut pcap).unwrap();
    h.bytes(&pcap);
    h.bytes(&(responses.len() as u32).to_le_bytes());
    for r in &responses {
        h.bytes(&r.encode().unwrap());
    }
    match &outcome {
        FlowOutcome::HttpOk(r) => {
            h.bytes(b"ok");
            h.bytes(&r.serialize());
        }
        FlowOutcome::HttpReset => h.bytes(b"reset"),
        FlowOutcome::HttpTimeout => h.bytes(b"timeout"),
    }
    let verdict = detect::detect_all(
        &dns_cap,
        &http_cap,
        &outcome,
        &blockpage::fingerprint_list(),
        Some(body.as_bytes()),
    );
    let bits = AnomalyType::ALL.iter().enumerate().fold(0u8, |bits, (i, &t)| {
        bits | (u8::from(verdict.contains(t)) << i)
    });
    h.bytes(&[bits]);
    bits != 0
}

#[test]
fn captures_and_verdicts_match_the_pinned_hash() {
    let profiles = [
        MechanismProfile::default(),
        MechanismProfile { mimic_ttl: true, ..MechanismProfile::default() },
        MechanismProfile { seq_fuzz: 700, rst_burst: 2, ..MechanismProfile::default() },
        // Template 4 is the one the fingerprint list does not know.
        MechanismProfile { blockpage_id: 4, init_ttl: 128, delay_us: 650, ..MechanismProfile::default() },
    ];
    let mechanisms = std::iter::once(None).chain(Mechanism::ALL.into_iter().map(Some));
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut flows, mut flagged) = (0u32, 0u32);
    for (mi, mech) in mechanisms.enumerate() {
        for (pi, profile) in profiles.iter().enumerate() {
            for noise in 0..3 {
                for seed in 0..4u64 {
                    let seed = seed ^ (mi as u64) << 8 ^ (pi as u64) << 16 ^ (noise as u64) << 24;
                    flows += 1;
                    flagged += u32::from(measure(&mut h, seed, mech, profile, noise));
                }
            }
        }
    }
    // The grid exercises the detectors in both directions.
    assert_eq!(flows, 240);
    assert!(flagged > 60 && flagged < flows, "{flagged} of {flows} flows flagged");
    assert_eq!(h.0, GOLDEN, "capture golden moved: {:#018x}", h.0);
}
