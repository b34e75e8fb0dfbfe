//! End-to-end interop: a simulated measurement campaign exported to JSONL
//! and re-imported must localize exactly the same censors as the direct
//! pipeline — the concrete form of the paper's claim that the technique
//! "carries over to other measurement databases".

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::{Pipeline, PipelineConfig};
use churnlab_interop::{parse_prefix2as, read_jsonl, render_prefix2as, write_jsonl, NativeRecord};
use churnlab_platform::{Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, WorldConfig, WorldScale};

#[test]
fn exported_records_localize_identically() {
    let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 77));
    let mut ccfg = CensorConfig::scaled_for(world.topology.countries().len());
    ccfg.total_days = 60;
    let scenario = CensorshipScenario::generate_for_world(&world, &ccfg);
    let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 77);
    let platform = Platform::new(&world, &scenario, pcfg.clone());
    let sim = RoutingSim::new(
        &world.topology,
        &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
    );

    // Direct run.
    let mut direct = Pipeline::new(&platform, PipelineConfig::paper(pcfg.total_days));
    let (measurements, _) = platform.run_collect_parallel(&sim, 1);
    for m in &measurements {
        direct.ingest(m);
    }
    let direct = direct.finish();

    // Export: measurement records to JSONL, IP-to-AS db to prefix2as text.
    let records: Vec<NativeRecord> = measurements
        .iter()
        .map(|m| NativeRecord::from_measurement(m, &platform.corpus().get(m.url_id).domain))
        .collect();
    let mut jsonl = Vec::new();
    let n = write_jsonl(&mut jsonl, &records).unwrap();
    assert_eq!(n as usize, measurements.len());
    let db_text = render_prefix2as(platform.measured_ip2as());

    // Import into a context-only pipeline (no Platform object at all).
    let (db, db_stats) = parse_prefix2as(db_text.as_bytes()).unwrap();
    assert_eq!(db_stats.malformed, 0);
    assert_eq!(db_stats.conflicts, 0);
    let mut imported =
        Pipeline::with_context(&db, &world.topology, PipelineConfig::paper(pcfg.total_days));
    let stats = read_jsonl(&jsonl[..], |m, _domain| imported.ingest(&m)).unwrap();
    assert_eq!(stats.ok as usize, measurements.len());
    assert_eq!(stats.malformed, 0);
    let imported = imported.finish();

    // Identical localization.
    assert_eq!(direct.identified_censors(), imported.identified_censors());
    assert_eq!(direct.outcomes.len(), imported.outcomes.len());
    assert_eq!(direct.conversion, imported.conversion);
    assert!(
        !imported.censor_findings.is_empty(),
        "roundtrip found no censors — vacuous test"
    );
}
