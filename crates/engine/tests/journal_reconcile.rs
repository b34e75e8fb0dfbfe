//! The journal's replayability guarantee, asserted end to end: the event
//! stream an instrumented engine emits reconciles *exactly* with the
//! final report — every opened window closes once, the closed windows'
//! per-cell tallies sum to the report's outcome and trivial-instance
//! counts, and the live `churnlab_windows_open` gauge returns to zero.

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig, EngineObs};
use churnlab_obs::{parse_jsonl, Journal, JournalEvent, MemorySink, Registry};
use churnlab_platform::{Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, WorldConfig, WorldScale};

fn events_named<'a>(events: &'a [JournalEvent], name: &str) -> Vec<&'a JournalEvent> {
    events.iter().filter(|e| e.event == name).collect()
}

#[test]
fn journal_reconciles_with_final_report() {
    let seed = 7;
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
    let platform = Platform::new(&world, &scenario, platform_cfg.clone());
    let sim = RoutingSim::new(&world.topology, &churn_cfg);
    let (measurements, _) = platform.run_collect_parallel(&sim, 1);

    let sink = MemorySink::new();
    let registry = Registry::new();
    let obs = EngineObs::new(registry.clone()).with_journal(Journal::to_writer(sink.clone()));
    let cfg = EngineConfig::new(PipelineConfig::paper(platform_cfg.total_days))
        .with_shards(3)
        .with_obs(obs);
    let engine = Engine::new(&platform, cfg);

    // A mid-stream snapshot must NOT close windows: only the final
    // report freezes per-cell tallies.
    let half = measurements.len() / 2;
    {
        let mut feeder = engine.feeder();
        for m in &measurements[..half] {
            feeder.ingest_owned(m.clone());
        }
    }
    let _ = engine.snapshot();
    {
        let mut feeder = engine.feeder();
        for m in &measurements[half..] {
            feeder.ingest_owned(m.clone());
        }
    }
    let (results, stats) = engine.finish_with_stats();

    let text = sink.contents();
    let events = parse_jsonl(&text).expect("journal parses back");
    assert!(!events.is_empty(), "instrumented run emitted no events");

    let opened = events_named(&events, "window_opened");
    let closed = events_named(&events, "window_closed");
    let solved = events_named(&events, "cell_solved");
    assert!(!opened.is_empty(), "no windows opened over a non-empty campaign");
    assert_eq!(
        opened.len(),
        closed.len(),
        "every opened window must close exactly once at the final report"
    );

    // Each close names a window some shard opened (same shard, url, index).
    let key = |e: &JournalEvent| {
        (e.field("shard").unwrap(), e.field("url_id").unwrap(), e.field("window_index").unwrap())
    };
    let mut open_keys: Vec<_> = opened.iter().map(|e| key(e)).collect();
    let mut close_keys: Vec<_> = closed.iter().map(|e| key(e)).collect();
    open_keys.sort_unstable();
    close_keys.sort_unstable();
    assert_eq!(open_keys, close_keys, "window_closed events must pair with window_opened");

    // The tallies the closes carry sum to exactly the report's counts.
    let cells_reported: u64 = closed.iter().map(|e| e.field("cells_reported").unwrap()).sum();
    let cells_trivial: u64 = closed.iter().map(|e| e.field("cells_trivial").unwrap()).sum();
    assert_eq!(cells_reported, results.outcomes.len() as u64);
    assert_eq!(cells_trivial, results.trivial_instances);
    assert_eq!(solved.len() as u64, cells_reported, "one cell_solved per reported outcome");

    // Metrics agree with both the stats counters and the journal.
    let snap = registry.scrape();
    assert_eq!(snap.counter_sum("churnlab_measurements_total"), measurements.len() as u64);
    assert_eq!(snap.counter_sum("churnlab_observations_total"), stats.observations);
    let windows_open: i64 = snap
        .samples
        .iter()
        .filter(|s| s.name == "churnlab_windows_open")
        .map(|s| match &s.value {
            churnlab_obs::SampleValue::Gauge(v) => *v,
            other => panic!("windows_open should be a gauge, got {other:?}"),
        })
        .sum();
    assert_eq!(windows_open, 0, "every window must be closed after finish");
}

/// Same reconciliation with a lateness horizon over a day-sorted stream:
/// windows now close **mid-stream** as the watermark passes them, not
/// only at the final report — and the journal must still pair every open
/// with exactly one close, carry exact tallies, and return the gauge to
/// zero.
#[test]
fn journal_reconciles_with_midstream_retirement() {
    reconcile_with_retirement(None);
}

/// And again with reads beside the writes: a snapshot every 150
/// measurements, and one more straight before `finish`, so retirements
/// hand over cells a snapshot already solved and the final report is
/// served entirely from cached cells. Cached or not, `cell_solved` and
/// `window_closed` must still fire exactly once per cell and window.
#[test]
fn journal_reconciles_when_reports_are_served_from_cached_cells() {
    reconcile_with_retirement(Some(150));
}

fn reconcile_with_retirement(snapshot_every: Option<usize>) {
    let seed = 13;
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
    let platform = Platform::new(&world, &scenario, platform_cfg.clone());
    let sim = RoutingSim::new(&world.topology, &churn_cfg);
    let (mut measurements, _) = platform.run_collect_parallel(&sim, 1);
    // Retirement needs an advancing watermark: feed in day order, the
    // shape a live deployment's stream has.
    measurements.sort_by_key(|m| m.day);

    let sink = MemorySink::new();
    let registry = Registry::new();
    let obs = EngineObs::new(registry.clone()).with_journal(Journal::to_writer(sink.clone()));
    let cfg = EngineConfig::new(PipelineConfig::paper(platform_cfg.total_days))
        .with_shards(3)
        .with_window_horizon(2)
        .with_obs(obs);
    let engine = Engine::new(&platform, cfg);
    for (i, m) in measurements.iter().enumerate() {
        engine.ingest_owned(m.clone());
        if snapshot_every.is_some_and(|n| (i + 1).is_multiple_of(n)) {
            let _ = engine.snapshot();
        }
    }
    if snapshot_every.is_some() {
        let _ = engine.snapshot();
    }
    let (results, stats) = engine.finish_with_stats();

    assert!(
        stats.retire.windows_retired > 0,
        "a 2-day horizon over a day-sorted Smoke stream must retire windows mid-stream"
    );
    assert!(stats.retire.cells_retired > 0);

    let text = sink.contents();
    let events = parse_jsonl(&text).expect("journal parses back");
    let opened = events_named(&events, "window_opened");
    let closed = events_named(&events, "window_closed");
    let solved = events_named(&events, "cell_solved");
    assert_eq!(opened.len(), closed.len(), "every opened window closes exactly once");

    let key = |e: &JournalEvent| {
        (e.field("shard").unwrap(), e.field("url_id").unwrap(), e.field("window_index").unwrap())
    };
    let mut open_keys: Vec<_> = opened.iter().map(|e| key(e)).collect();
    let mut close_keys: Vec<_> = closed.iter().map(|e| key(e)).collect();
    open_keys.sort_unstable();
    close_keys.sort_unstable();
    assert_eq!(open_keys, close_keys, "retirement closes must pair with opens");

    // Retired windows journal their closes *before* the stream ends; the
    // final report closes the rest. Tallies still reconcile exactly.
    let cells_reported: u64 = closed.iter().map(|e| e.field("cells_reported").unwrap()).sum();
    let cells_trivial: u64 = closed.iter().map(|e| e.field("cells_trivial").unwrap()).sum();
    assert_eq!(cells_reported, results.outcomes.len() as u64);
    assert_eq!(cells_trivial, results.trivial_instances);
    assert_eq!(solved.len() as u64, cells_reported);
    // Exactly once per cell, not merely the right total: no cell is
    // journalled twice (at a snapshot and again at retirement, say)
    // while another goes missing.
    let mut solved_keys: Vec<_> = solved
        .iter()
        .map(|e| {
            (
                e.field("url_id").unwrap(),
                e.field("window_index").unwrap(),
                e.tag("anomaly").unwrap().to_string(),
            )
        })
        .collect();
    let mut outcome_keys: Vec<_> = results
        .outcomes
        .iter()
        .map(|o| {
            (u64::from(o.key.url_id), u64::from(o.key.window.index), format!("{:?}", o.key.anomaly))
        })
        .collect();
    solved_keys.sort_unstable();
    outcome_keys.sort_unstable();
    assert_eq!(solved_keys, outcome_keys, "one cell_solved per reported outcome, no repeats");

    let snap = registry.scrape();
    // The cache counters tell the two runs apart: every report asks each
    // live group once, and only a run that reads more than once can
    // reuse anything.
    let groups = |result: &str| -> u64 {
        snap.samples
            .iter()
            .filter(|s| s.name == "churnlab_snapshot_groups_total")
            .filter(|s| s.labels.iter().any(|(k, v)| k == "result" && v == result))
            .map(|s| match &s.value {
                churnlab_obs::SampleValue::Counter(v) => *v,
                other => panic!("snapshot_groups should be a counter, got {other:?}"),
            })
            .sum()
    };
    assert!(groups("rebuilt") > 0, "the first report of a group has to solve it");
    assert_eq!(
        groups("reused") > 0,
        snapshot_every.is_some(),
        "only repeated reports can be served from cached cells"
    );
    let windows_open: i64 = snap
        .samples
        .iter()
        .filter(|s| s.name == "churnlab_windows_open")
        .map(|s| match &s.value {
            churnlab_obs::SampleValue::Gauge(v) => *v,
            other => panic!("windows_open should be a gauge, got {other:?}"),
        })
        .sum();
    assert_eq!(windows_open, 0, "retired + finished must drain the gauge to zero");
    assert_eq!(
        snap.counter_sum("churnlab_measurements_total"),
        measurements.len() as u64
    );
}
