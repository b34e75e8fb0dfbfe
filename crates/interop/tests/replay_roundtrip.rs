//! The tentpole guarantee, end to end: simulate → export JSONL →
//! re-ingest the dump through the sharded engine at arbitrary
//! shard/feeder counts and in **shuffled line order** → the
//! [`churnlab_core::report::CanonicalReport`] is **byte-identical** to
//! the executable specification's (`churnlab_oracle::report`) over the
//! direct in-memory campaign. Disk round-trips must be invisible to the
//! tomography.

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_interop::{export_study, replay_jsonl, ReplayFormat};
use churnlab_platform::{Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, GeneratedWorld, WorldConfig, WorldScale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

struct Study {
    world: GeneratedWorld,
    scenario: CensorshipScenario,
    platform_cfg: PlatformConfig,
    churn_cfg: ChurnConfig,
}

fn study(seed: u64) -> Study {
    let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, seed));
    let mut censor_cfg = CensorConfig::scaled_for(world.topology.countries().len());
    censor_cfg.seed = seed.wrapping_add(2);
    let platform_cfg = PlatformConfig::preset(PlatformScale::Smoke, seed.wrapping_add(1));
    censor_cfg.total_days = platform_cfg.total_days;
    let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
    let churn_cfg = ChurnConfig {
        seed: seed.wrapping_add(3),
        total_days: platform_cfg.total_days,
        ..ChurnConfig::default()
    };
    Study { world, scenario, platform_cfg, churn_cfg }
}

fn shuffle_lines(dump: &[u8], seed: u64) -> Vec<u8> {
    let text = std::str::from_utf8(dump).expect("dump is UTF-8");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut out = Vec::with_capacity(dump.len());
    for l in lines {
        out.extend_from_slice(l.as_bytes());
        out.push(b'\n');
    }
    out
}

/// The acceptance property: ≥3 seeds × shard counts {1, 4} × shuffled
/// line order, multi-feeder re-ingest, byte-identical canonical reports.
#[test]
fn replayed_dump_matches_direct_run_byte_identically() {
    for seed in [5u64, 17, 29] {
        let s = study(seed);
        let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
        let cfg = PipelineConfig::paper(s.platform_cfg.total_days);

        // The spec over the direct in-memory campaign.
        let (ms, _) = platform.run_collect_parallel(&sim, 1);
        let expected =
            churnlab_oracle::report(&ms, platform.measured_ip2as(), &s.world.topology, &cfg).to_json();

        // Export the same study to JSONL.
        let mut dump = Vec::new();
        let (records, _) = export_study(&platform, &sim, &mut dump).unwrap();
        assert!(records > 0);

        for shards in [1usize, 4] {
            let shuffled = shuffle_lines(&dump, seed ^ (shards as u64) << 8);
            let engine = Engine::with_context(
                platform.measured_ip2as(),
                &s.world.topology,
                EngineConfig::new(cfg.clone()).with_shards(shards),
            );
            let report = replay_jsonl(&shuffled[..], &engine, 3, ReplayFormat::Native).unwrap();
            let got = engine.finish().canonical_report().to_json();
            assert_eq!(
                got, expected,
                "seed {seed}, {shards} shard(s): replayed report diverged from the spec"
            );
            assert_eq!(report.stats.ok, records, "every exported record must re-import");
            assert_eq!(report.lines, records);
            assert_eq!(report.stats.malformed, 0);
            assert_eq!(report.per_feeder.len(), 3);
            let ok_sum: u64 = report.per_feeder.iter().map(|s| s.ok).sum();
            assert_eq!(ok_sum, report.stats.ok, "per-feeder stats must sum to the merge");
        }
    }
}

/// The replay feeders drive the interned engine: every observation that
/// reaches a shard interns exactly once (distinct + hits = routed
/// observations), the stream is distinct-path sparse (the churn premise
/// the interner exploits), and the counters are feeder-count invariant.
#[test]
fn replay_feeders_account_for_interning_exactly() {
    let s = study(5);
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let cfg = PipelineConfig::paper(s.platform_cfg.total_days);
    let mut dump = Vec::new();
    export_study(&platform, &sim, &mut dump).unwrap();

    let mut seen: Option<(u64, u64)> = None;
    for feeders in [1usize, 4] {
        let engine = Engine::with_context(
            platform.measured_ip2as(),
            &s.world.topology,
            EngineConfig::new(cfg.clone()).with_shards(2),
        );
        replay_jsonl(&dump[..], &engine, feeders, ReplayFormat::Native).unwrap();
        let (_, stats) = engine.finish_with_stats();
        let intern = stats.interner;
        assert!(intern.distinct_paths > 0, "replay interned no paths");
        assert_eq!(
            intern.distinct_paths + intern.hits,
            stats.observations,
            "every routed observation interns exactly once"
        );
        assert!(
            intern.distinct_paths < stats.observations / 2,
            "smoke campaign must be distinct-path sparse: {} distinct of {}",
            intern.distinct_paths,
            stats.observations,
        );
        match seen {
            None => seen = Some((intern.distinct_paths, intern.hits)),
            Some(prev) => assert_eq!(
                prev,
                (intern.distinct_paths, intern.hits),
                "interner accounting must be feeder-count invariant"
            ),
        }
    }
}

/// Dirty dumps — malformed lines and blanks interleaved at arbitrary
/// positions — replay to the *same* report as the clean dump, with exact
/// skip accounting, and the multi-feeder accounting agrees with the
/// sequential reader's.
#[test]
fn dirty_dump_replays_identically_with_exact_accounting() {
    let s = study(11);
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let cfg = PipelineConfig::paper(s.platform_cfg.total_days);

    let mut dump = Vec::new();
    let (records, _) = export_study(&platform, &sim, &mut dump).unwrap();

    // Interleave garbage: after every 100th line, a malformed line and a
    // blank one.
    let text = String::from_utf8(dump.clone()).unwrap();
    let mut dirty = String::new();
    let mut injected = 0u64;
    for (i, line) in text.lines().enumerate() {
        dirty.push_str(line);
        dirty.push('\n');
        if i % 100 == 0 {
            dirty.push_str("{definitely not a record\n\n[1,2,3]\n");
            injected += 1;
        }
    }

    let clean_engine = Engine::with_context(
        platform.measured_ip2as(),
        &s.world.topology,
        EngineConfig::new(cfg.clone()).with_shards(2),
    );
    replay_jsonl(&dump[..], &clean_engine, 2, ReplayFormat::Native).unwrap();
    let clean = clean_engine.finish().canonical_report().to_json();

    let dirty_engine = Engine::with_context(
        platform.measured_ip2as(),
        &s.world.topology,
        EngineConfig::new(cfg.clone()).with_shards(2),
    );
    let report = replay_jsonl(dirty.as_bytes(), &dirty_engine, 4, ReplayFormat::Native).unwrap();
    assert_eq!(report.stats.ok, records);
    assert_eq!(report.stats.malformed, injected * 2, "two malformed lines per injection");
    assert_eq!(report.stats.blank, injected);
    assert_eq!(replay_jsonl(dirty.as_bytes(), // sequential baseline: same accounting
        &Engine::with_context(platform.measured_ip2as(), &s.world.topology, EngineConfig::new(cfg.clone()).with_shards(1)),
        1, ReplayFormat::Native).unwrap().stats, report.stats);
    let got = dirty_engine.finish().canonical_report().to_json();
    assert_eq!(got, clean, "garbage lines must not perturb the report");
}

/// The OONI dialect flows through the same multi-feeder bridge: records
/// with a joined traceroute localize, unknown verdicts are counted (not
/// fatal), and annotation-less records are rejected with accounting.
#[test]
fn ooni_dialect_replays_through_the_engine() {
    use churnlab_interop::parse_prefix2as;
    use churnlab_topology::{
        asys::{AsClass, AsInfo, AsRole},
        geo, Asn, CountryCode, Link, LinkStability, Topology,
    };

    let prefix2as = "10.1.0.0\t16\t64512\n10.2.0.0\t16\t64600\n10.3.0.0\t16\t64700\n10.9.0.0\t16\t64800\n";
    let (db, _) = parse_prefix2as(prefix2as.as_bytes()).unwrap();

    let mut topo = Topology::new(geo::countries(8));
    let mk = |asn: u32, country: &str, class, role| AsInfo {
        asn: Asn(asn),
        name: format!("demo-{asn}"),
        country: CountryCode::new(country),
        class,
        role,
    };
    topo.add_as(mk(64512, "US", AsClass::Content, AsRole::Stub)).unwrap();
    topo.add_as(mk(64600, "US", AsClass::TransitAccess, AsRole::NationalTransit)).unwrap();
    topo.add_as(mk(64700, "CN", AsClass::TransitAccess, AsRole::NationalTransit)).unwrap();
    topo.add_as(mk(64800, "DE", AsClass::Content, AsRole::Stub)).unwrap();
    topo.add_link(Link::transit(Asn(64512), Asn(64600), LinkStability::stable())).unwrap();
    topo.add_link(Link::transit(Asn(64512), Asn(64700), LinkStability::stable())).unwrap();
    topo.add_link(Link::transit(Asn(64800), Asn(64600), LinkStability::stable())).unwrap();
    topo.add_link(Link::transit(Asn(64800), Asn(64700), LinkStability::stable())).unwrap();

    // Eight days alternating clean transit / censoring transit, plus one
    // unknown-verdict record (kept, counted) and one annotation-less
    // record (rejected, counted).
    let mut dump = String::new();
    for day in 0..8u32 {
        let (mid, blocking) = if day % 2 == 1 {
            ("10.3.0.1", "\"tcp_ip\"")
        } else {
            ("10.2.0.1", "null")
        };
        dump.push_str(&format!(
            r#"{{"probe_asn":"AS64512","input":"http://news-site.example/","day":{day},"test_keys":{{"blocking":{blocking}}},"annotations":{{"traceroutes":[{{"hops":["10.1.0.1","{mid}","10.9.0.1"]}}],"dest_asn":64800,"url_id":0,"probe_id":0}}}}"#,
        ));
        dump.push('\n');
    }
    dump.push_str(
        r#"{"probe_asn":"AS64512","input":"http://news-site.example/","day":8,"test_keys":{"blocking":"quantum-filtering"},"annotations":{"traceroutes":[{"hops":["10.1.0.1","10.2.0.1","10.9.0.1"]}],"dest_asn":64800,"url_id":0,"probe_id":0}}"#,
    );
    dump.push('\n');
    dump.push_str(r#"{"probe_asn":"AS64512","input":"http://bare.example/","day":3,"test_keys":{}}"#);
    dump.push('\n');

    let engine = Engine::with_context(
        &db,
        &topo,
        EngineConfig::new(PipelineConfig::paper(9)).with_shards(2),
    );
    let report = replay_jsonl(dump.as_bytes(), &engine, 2, ReplayFormat::Ooni).unwrap();
    assert_eq!(report.stats.ok, 9, "unknown-verdict record is kept");
    assert_eq!(report.stats.unknown_verdicts, 1);
    assert_eq!(report.stats.rejected, 1, "annotation-less record rejected");
    assert_eq!(report.stats.malformed, 0);

    let results = engine.finish();
    assert_eq!(
        results.identified_censors(),
        vec![Asn(64700)],
        "the censoring transit must be localized from OONI records alone"
    );
}

/// The fused parallel campaign (N generator workers streaming straight
/// into engine feeders, no JSONL intermediate) must land on exactly the
/// report the export → replay path produces — the two deployment shapes
/// are interchangeable byte-for-byte.
#[test]
fn fused_parallel_run_matches_export_replay_path() {
    let s = study(41);
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let cfg = PipelineConfig::paper(s.platform_cfg.total_days);

    // Fused: 4 generator workers feeding a 4-shard engine in memory.
    let engine = Engine::new(&platform, EngineConfig::new(cfg.clone()).with_shards(4));
    let run = churnlab_engine::campaign::run_fused(&platform, &sim, &engine, 4);
    let fused = engine.finish().canonical_report().to_json();

    // Serial export to JSONL, then multi-feeder replay into a fresh
    // engine built from the analyst's context only.
    let mut dump = Vec::new();
    let (records, _) = export_study(&platform, &sim, &mut dump).unwrap();
    assert_eq!(records, run.stats.measurements, "export and fused run must see one stream");
    let engine = Engine::with_context(
        platform.measured_ip2as(),
        &s.world.topology,
        EngineConfig::new(cfg).with_shards(2),
    );
    let report = replay_jsonl(&dump[..], &engine, 2, ReplayFormat::Native).unwrap();
    assert_eq!(report.stats.ok, records);
    let replayed = engine.finish().canonical_report().to_json();
    assert_eq!(fused, replayed, "fused in-memory report diverged from export/replay");
}
