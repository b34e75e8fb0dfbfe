//! Busy-time accounting when the per-thread CPU clock is unavailable:
//! with both on-CPU sources forced away, every timer in the stack
//! (shard workers' `BusyTimer`, the instrumented path's `Stopwatch`
//! laps, the merge accounting) must degrade to wall-interval accounting
//! and still produce sane, non-zero numbers.
//!
//! This lives in its own integration binary because the forcing switch
//! is process-global: sharing a process with other engine tests would
//! leak wall-clock fallback into their timing assertions.

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig, EngineObs};
use churnlab_obs::{force_wall_clock_for_tests, thread_cpu_nanos, Registry};
use churnlab_platform::{Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, WorldConfig, WorldScale};

#[test]
fn busy_accounting_survives_missing_cpu_clock() {
    force_wall_clock_for_tests(true);
    assert_eq!(thread_cpu_nanos(), None, "forcing must hide the on-CPU clock");

    let seed = 11;
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

    // A feeder's chunks and lone measurements take one arm through the
    // shard worker, so both ingest forms attribute all four passes.
    for chunked in [true, false] {
        let registry = Registry::new();
        let cfg = EngineConfig::new(PipelineConfig::paper(platform_cfg.total_days))
            .with_shards(2)
            .with_obs(EngineObs::new(registry.clone()));
        let engine = Engine::new(&platform, cfg);
        if chunked {
            let mut feeder = engine.feeder();
            measurements.iter().for_each(|m| feeder.ingest_owned(m.clone()));
        } else {
            measurements.iter().for_each(|m| engine.ingest_owned(m.clone()));
        }
        let (results, stats) = engine.finish_with_stats();
        assert!(!results.outcomes.is_empty(), "campaign produced no instances");

        // Wall-interval fallback still attributes real busy time, with the
        // same invariants the CPU clock provides.
        assert!(stats.busy.shard_total_nanos > 0, "fallback lost all shard busy time");
        assert!(stats.busy.shard_max_nanos > 0);
        assert!(
            stats.busy.shard_max_nanos <= stats.busy.shard_total_nanos,
            "max shard busy cannot exceed the sum over shards"
        );

        // Stopwatch-driven phase counters degrade to wall laps, not zero.
        let snap = registry.scrape();
        let phase_nanos = |phase: &str| -> u64 {
            ["0", "1"]
                .iter()
                .filter_map(|shard| {
                    let labels = [("phase", phase), ("shard", *shard)];
                    snap.counter("churnlab_phase_nanos_total", &labels)
                })
                .sum()
        };
        for phase in ["convert", "intern", "churn", "observe"] {
            let nanos = phase_nanos(phase);
            assert!(nanos > 0, "chunked {chunked}: no {phase} time under wall fallback");
        }
        assert_eq!(snap.counter_sum("churnlab_measurements_total"), measurements.len() as u64);

        // Phases sum to busy. On the forced wall clock both are intervals
        // around the same work — a block's four laps inside the busy
        // interval around the block, the snapshot lap inside the one
        // around the report — so what the sum misses is what runs between
        // a lap and its interval's edge. Per block that is nothing to
        // speak of; per lone measurement it is most of the message, so
        // the bound is held on the chunked arm.
        if chunked {
            let phases: u64 =
                ["convert", "intern", "churn", "observe", "snapshot"].map(phase_nanos).iter().sum();
            let busy = stats.busy.shard_total_nanos;
            assert!(
                phases <= busy && phases * 10 >= busy * 9,
                "phases sum to {phases} ns, shards were busy {busy} ns"
            );
        }
    }

    force_wall_clock_for_tests(false);
}
