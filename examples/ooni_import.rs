//! Importing OONI-style records into the tomography pipeline.
//!
//! The paper claims its reformulation "carries over to other measurement
//! databases such as those generated by the OONI and the M-Lab platforms".
//! This example shows the full path: OONI-flavoured JSON documents (with a
//! traceroute annotation) are parsed, mapped onto churnlab anomaly types,
//! fed to a context-only engine — no simulated platform object — and
//! localized against a CAIDA-style prefix2as database.
//!
//! Run: `cargo run --example ooni_import`

use churnlab::core::pipeline::PipelineConfig;
use churnlab::engine::{Engine, EngineConfig};
use churnlab::interop::{parse_prefix2as, OoniRecord};
use churnlab::topology::Topology;

fn main() {
    // A CAIDA-style IP-to-AS mapping: the vantage provider (AS64512),
    // a transit (AS64600), the censoring transit (AS64700), and the
    // destination host (AS64800).
    let prefix2as = "\
10.1.0.0\t16\t64512
10.2.0.0\t16\t64600
10.3.0.0\t16\t64700
10.9.0.0\t16\t64800
";
    let (db, stats) = parse_prefix2as(prefix2as.as_bytes()).expect("in-memory read");
    println!("prefix2as: {} entries ({} malformed)", stats.ok, stats.malformed);

    // A minimal topology for country attribution in the leakage analysis.
    let topo = demo_topology();

    // Eight days of OONI-style observations of one URL: the probe's path
    // flips between a clean transit (AS64600) and a censoring one
    // (AS64700) — blocking verdicts follow the path. That is the paper's
    // churn-makes-it-solvable story told with foreign records.
    let mut docs = Vec::new();
    for day in 0..8u32 {
        let via_censor = day % 2 == 1;
        let (mid_hop, blocking) = if via_censor {
            ("10.3.0.1", Some("tcp_ip"))
        } else {
            ("10.2.0.1", None)
        };
        docs.push(format!(
            r#"{{"probe_asn":"AS64512","input":"http://news-site.example/","day":{day},
                "test_keys":{{"blocking":{}}},
                "annotations":{{"traceroutes":[{{"hops":["10.1.0.1","{mid_hop}","10.9.0.1"]}}],
                                "dest_asn":64800,"url_id":0,"probe_id":0}}}}"#,
            match blocking {
                Some(b) => format!("\"{b}\""),
                None => "null".to_string(),
            }
        ));
    }

    let cfg = EngineConfig::new(PipelineConfig::paper(8)).with_shards(1);
    let engine = Engine::with_context(&db, &topo, cfg);
    let mut imported = 0;
    for doc in &docs {
        let rec: OoniRecord = serde_json::from_str(doc).expect("well-formed demo doc");
        match rec.into_measurement() {
            Ok(converted) => {
                let (m, domain) = (converted.measurement, converted.domain);
                imported += 1;
                println!(
                    "  day {} {}: blocking={}",
                    m.day,
                    domain,
                    if m.detected.is_empty() { "none" } else { "tcp_ip" }
                );
                engine.ingest_owned(m);
            }
            Err(e) => println!("  skipped: {e}"),
        }
    }
    let results = engine.finish();
    println!("imported {imported} records; {} CNFs analysed", results.outcomes.len());
    println!("identified censors: {:?}", results.identified_censors());
    assert_eq!(
        results.identified_censors(),
        vec![churnlab::topology::Asn(64700)],
        "the censoring transit must be exactly identified"
    );
    println!("OK — AS64700 localized from OONI-style records alone.");
}

/// Four ASes in three countries, enough for leakage country lookups.
fn demo_topology() -> Topology {
    use churnlab::topology::{
        asys::{AsClass, AsInfo, AsRole},
        geo, Asn, Link, LinkStability,
    };
    let mut t = Topology::new(geo::countries(8));
    let mk = |asn: u32, country: &str, class, role| AsInfo {
        asn: Asn(asn),
        name: format!("demo-{asn}"),
        country: churnlab::topology::CountryCode::new(country),
        class,
        role,
    };
    t.add_as(mk(64512, "US", AsClass::Content, AsRole::Stub)).unwrap();
    t.add_as(mk(64600, "US", AsClass::TransitAccess, AsRole::NationalTransit)).unwrap();
    t.add_as(mk(64700, "CN", AsClass::TransitAccess, AsRole::NationalTransit)).unwrap();
    t.add_as(mk(64800, "DE", AsClass::Content, AsRole::Stub)).unwrap();
    t.add_link(Link::transit(Asn(64512), Asn(64600), LinkStability::stable())).unwrap();
    t.add_link(Link::transit(Asn(64512), Asn(64700), LinkStability::stable())).unwrap();
    t.add_link(Link::transit(Asn(64800), Asn(64600), LinkStability::stable())).unwrap();
    t.add_link(Link::transit(Asn(64800), Asn(64700), LinkStability::stable())).unwrap();
    t.add_link(Link::peering(Asn(64600), Asn(64700), LinkStability::stable())).unwrap();
    t
}
