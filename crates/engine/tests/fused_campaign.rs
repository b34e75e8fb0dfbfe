//! Fused sim→engine campaigns are byte-identical to the specification.
//!
//! The tentpole guarantee: `campaign::run_fused` (N generator workers,
//! each with its own `Engine::feeder`) produces a serialized
//! [`churnlab_core::report::CanonicalReport`] identical to the
//! executable specification's (`churnlab_oracle::report`) over the
//! serial campaign's measurements — across threads {1, 4} × shards
//! {1, 4} × 3 seeds, with and without the fleet-sampling schedule, and
//! with the serial run's platform-side stats.

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{campaign, Engine, EngineConfig};
use churnlab_platform::{DatasetStats, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, GeneratedWorld, WorldConfig, WorldScale};

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

/// The spec's report over the serial campaign, and the serial stats.
fn serial_reference(s: &Study) -> (String, DatasetStats) {
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let cfg = PipelineConfig::paper(platform.config().total_days);
    let mut ms = Vec::new();
    let stats = platform.run(&sim, |m| ms.push(m));
    let report = churnlab_oracle::report(&ms, platform.measured_ip2as(), &s.world.topology, &cfg);
    (report.to_json(), stats)
}

fn fused(s: &Study, threads: usize, shards: usize) -> (String, DatasetStats) {
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let cfg = PipelineConfig::paper(platform.config().total_days);
    let engine = Engine::new(&platform, EngineConfig::new(cfg).with_shards(shards));
    let run = campaign::run_fused(&platform, &sim, &engine, threads);
    let report = engine.finish().canonical_report();
    (serde_json::to_string(&report).expect("report serializes"), run.stats)
}

#[test]
fn fused_parallel_matches_serial_across_threads_shards_seeds() {
    for seed in [11u64, 12, 13] {
        let s = study(seed);
        let (serial_report, serial_stats) = serial_reference(&s);
        for threads in [1usize, 4] {
            for shards in [1usize, 4] {
                let (report, stats) = fused(&s, threads, shards);
                assert_eq!(
                    report, serial_report,
                    "seed={seed} threads={threads} shards={shards}: report diverged"
                );
                assert_eq!(
                    stats, serial_stats,
                    "seed={seed} threads={threads} shards={shards}: stats diverged"
                );
            }
        }
    }
}

#[test]
fn fused_parallel_matches_serial_under_fleet_sampling() {
    let mut s = study(21);
    s.platform_cfg.fleet_sample = 7;
    s.platform_cfg.tests_per_pair_floor = 2;
    let (serial_report, serial_stats) = serial_reference(&s);
    for threads in [1usize, 3] {
        let (report, stats) = fused(&s, threads, 4);
        assert_eq!(report, serial_report, "threads={threads}: sampled report diverged");
        assert_eq!(stats, serial_stats, "threads={threads}: sampled stats diverged");
    }
    // Sampling must actually have reduced the stream.
    let full = u64::from(s.platform_cfg.tests_per_pair)
        * (s.platform_cfg.n_vpn_vantage + s.platform_cfg.n_residential_vantage) as u64
        * s.platform_cfg.n_urls as u64;
    assert!(serial_stats.measurements < full, "sampling did not shrink the campaign");
}

#[test]
fn fused_busy_accounting_covers_every_worker() {
    let s = study(31);
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let cfg = PipelineConfig::paper(platform.config().total_days);
    let engine = Engine::new(&platform, EngineConfig::new(cfg).with_shards(2));
    let run = campaign::run_fused(&platform, &sim, &engine, 3);
    drop(engine.finish());
    assert_eq!(run.busy.per_worker_nanos.len(), 3);
    assert!(run.busy.total_nanos() > 0);
    assert!(run.busy.max_nanos() <= run.busy.total_nanos());
}
