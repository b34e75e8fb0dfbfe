//! A shard worker that dies must not surface as an unrelated `SendError`
//! unwrap on the feeder thread: the engine joins the dead worker and
//! re-raises its actual panic payload, tagged with the shard id.
//!
//! Needs the deterministic poison hook, which only exists under the
//! `test-instrumentation` feature:
//! `cargo test -p churnlab-engine --features test-instrumentation`.

#![cfg(feature = "test-instrumentation")]

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, WorldConfig, WorldScale};

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string payload>")
    }
}

/// A smoke study's platform pieces, built once per test.
fn with_study(run: impl FnOnce(&Platform<'_>, &[churnlab_platform::Measurement])) {
    let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 71));
    let mut censor_cfg = CensorConfig::scaled_for(world.topology.countries().len());
    censor_cfg.seed = 73;
    let platform_cfg = PlatformConfig::preset(PlatformScale::Smoke, 72);
    censor_cfg.total_days = platform_cfg.total_days;
    let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
    let platform = Platform::new(&world, &scenario, platform_cfg.clone());
    let sim = RoutingSim::new(
        &world.topology,
        &ChurnConfig { total_days: platform_cfg.total_days, ..ChurnConfig::default() },
    );
    let (ms, _) = platform.run_collect_parallel(&sim, 1);
    run(&platform, &ms);
}

fn assert_names_shard_0(payload: Box<dyn std::any::Any + Send>) {
    let text = panic_text(payload);
    assert!(
        text.contains("shard worker 0 panicked"),
        "panic lost its shard context: {text:?}"
    );
    assert!(
        text.contains("poisoned by test instrumentation"),
        "panic lost the worker's payload: {text:?}"
    );
}

#[test]
fn dead_worker_panic_propagates_with_shard_context() {
    with_study(|platform, ms| {
        let cfg = PipelineConfig::paper(platform.config().total_days);
        let engine = Engine::new(platform, EngineConfig::new(cfg).with_shards(2));
        engine.inject_worker_panic(0);

        // Keep ingesting until some send lands on the dead shard 0; the
        // engine must re-raise the worker's own panic, with shard context,
        // instead of a bare SendError unwrap.
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for m in ms {
                engine.ingest_owned(m.clone());
            }
            // Every send missed shard 0 (unlikely but possible): a report
            // request touches every shard.
            let _ = engine.snapshot();
        }))
        .expect_err("ingesting into a poisoned engine must panic");
        assert_names_shard_0(payload);

        // The engine is now unusable; dropping it must not double-panic or
        // hang even though a worker is already gone.
        drop(engine);
    });
}

/// The same through a feeder, with wire blocks everywhere a block can
/// be: spent ones in the engine's pool, full ones queued behind the
/// poison, a half-filled one in the feeder's hands when the send fails.
/// The feeder's drop runs while its thread unwinds and must neither
/// abort nor hang, and the queued and pooled blocks go down with the
/// engine.
#[test]
fn dead_worker_with_blocks_in_flight_and_in_the_pool() {
    with_study(|platform, ms| {
        let cfg = PipelineConfig::paper(platform.config().total_days);
        let engine = Engine::new(platform, EngineConfig::new(cfg).with_shards(2));
        let (warm, rest) = ms.split_at(ms.len() / 4);
        let mut feeder = engine.feeder().with_chunk(16);
        warm.iter().for_each(|m| feeder.ingest_owned(m.clone()));
        feeder.flush();
        let _ = engine.snapshot(); // every block so far is back in the pool
        engine.inject_worker_panic(0);

        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut feeder = feeder;
            for m in rest {
                feeder.ingest_owned(m.clone());
            }
            // Every send beat the worker's unwinding to the channel
            // (possible): a report request touches every shard, and the
            // feeder still holds its tails when that panics.
            let _ = engine.snapshot();
        }))
        .expect_err("feeding a poisoned engine must panic");
        assert_names_shard_0(payload);
        drop(engine);
    });
}
