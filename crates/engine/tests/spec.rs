//! The engine held against the executable specification of §3
//! (`churnlab-oracle`): for a study's measurement set, the engine's
//! canonical report must serialize to the spec's JSON byte for byte.
//! The spec shares no solver, tally, leakage rule or churn store with the
//! engine, so a fault in any of them fails here.

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::{ChurnMode, PipelineConfig};
use churnlab_core::report::CanonicalReport;
use churnlab_engine::campaign::run_fused;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{Measurement, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, GeneratedWorld, WorldConfig, WorldScale};

struct Study {
    world: GeneratedWorld,
    scenario: CensorshipScenario,
    platform_cfg: PlatformConfig,
    churn_cfg: ChurnConfig,
}

/// The study `run_study` assembles for a (scale, seed).
fn study(scale: WorldScale, platform_scale: PlatformScale, seed: u64) -> Study {
    let world = generator::generate(&WorldConfig::preset(scale, seed));
    let mut censor_cfg = CensorConfig::scaled_for(world.topology.countries().len());
    censor_cfg.seed = seed.wrapping_add(2);
    let platform_cfg = PlatformConfig::preset(platform_scale, seed.wrapping_add(1));
    censor_cfg.total_days = platform_cfg.total_days;
    let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
    let churn_cfg = ChurnConfig {
        seed: seed.wrapping_add(3),
        total_days: platform_cfg.total_days,
        ..ChurnConfig::default()
    };
    Study {
        world,
        scenario,
        platform_cfg,
        churn_cfg,
    }
}

fn config(platform: &Platform<'_>, mode: ChurnMode) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(platform.config().total_days);
    cfg.churn_mode = mode;
    cfg
}

/// The spec's canonical report over `ms`.
fn spec(platform: &Platform<'_>, ms: &[Measurement], cfg: &PipelineConfig) -> CanonicalReport {
    churnlab_oracle::report(
        ms,
        platform.measured_ip2as(),
        &platform.world().topology,
        cfg,
    )
}

/// `ms` through an engine of `shards` shards from `feeders` feeder
/// threads, URLs dealt to feeders by id: each (URL, vantage AS) pair
/// arrives in the runner's test order, as the ablation needs, while the
/// URLs' streams interleave however the threads run.
fn engine_json(
    platform: &Platform<'_>,
    ms: &[Measurement],
    cfg: &PipelineConfig,
    shards: usize,
    feeders: u32,
) -> String {
    let engine = Engine::new(platform, EngineConfig::new(cfg.clone()).with_shards(shards));
    std::thread::scope(|scope| {
        for lane in 0..feeders {
            let engine = &engine;
            scope.spawn(move || {
                let mut feeder = engine.feeder();
                for m in ms.iter().filter(|m| m.url_id % feeders == lane) {
                    feeder.ingest_owned(m.clone());
                }
            });
        }
    });
    engine.finish().canonical_report().to_json()
}

/// Smoke, seeds {42, 7, 1234} × both churn modes × shards {1, 4} ×
/// feeders {1, 4}: every engine report is the spec's, byte for byte.
#[test]
fn the_engine_is_the_spec_on_the_smoke_grid() {
    for seed in [42u64, 7, 1234] {
        let s = study(WorldScale::Smoke, PlatformScale::Smoke, seed);
        let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
        let (ms, _) = platform.run_collect_parallel(&sim, 1);
        for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
            let cfg = config(&platform, mode);
            let expected = spec(&platform, &ms, &cfg);
            assert!(
                !expected.censor_findings.is_empty(),
                "seed {seed}: the study names a censor"
            );
            let expected = expected.to_json();
            for shards in [1, 4] {
                for feeders in [1, 4] {
                    assert_eq!(
                        engine_json(&platform, &ms, &cfg, shards, feeders),
                        expected,
                        "seed {seed}, {mode:?}, {shards} shard(s), {feeders} feeder(s)"
                    );
                }
            }
        }
    }
}

/// The product path at Small, seed 42: a one-shard engine fed by the
/// fused campaign on one worker, as `run_study` runs it, in both churn
/// modes (`cargo test --release -p churnlab-engine --test spec --
/// --ignored`).
#[test]
#[ignore = "the Small study, run in release"]
fn a_one_shard_engine_is_the_spec_on_the_small_study() {
    let s = study(WorldScale::Small, PlatformScale::Small, 42);
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let (ms, _) = platform.run_collect_parallel(&sim, 1);
    for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
        let cfg = config(&platform, mode);
        let engine = Engine::new(&platform, EngineConfig::new(cfg.clone()).with_shards(1));
        let run = run_fused(&platform, &sim, &engine, 1);
        assert_eq!(run.stats.measurements, ms.len() as u64);
        let got = engine.finish().canonical_report().to_json();
        assert_eq!(got, spec(&platform, &ms, &cfg).to_json(), "{mode:?}");
    }
}
