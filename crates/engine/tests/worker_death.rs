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

#[test]
fn dead_worker_panic_propagates_with_shard_context() {
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

    let cfg = PipelineConfig::paper(platform_cfg.total_days);
    let engine = Engine::new(&platform, EngineConfig::new(cfg).with_shards(2));
    engine.inject_worker_panic(0);

    // Keep ingesting until some send lands on the dead shard 0; the
    // engine must re-raise the worker's own panic, with shard context,
    // instead of a bare SendError unwrap.
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for m in &ms {
            engine.ingest_owned(m.clone());
        }
        // Every send missed shard 0 (unlikely but possible): a report
        // request touches every shard.
        let _ = engine.snapshot();
    }))
    .expect_err("ingesting into a poisoned engine must panic");
    let text = panic_text(payload);
    assert!(
        text.contains("shard worker 0 panicked"),
        "panic lost its shard context: {text:?}"
    );
    assert!(
        text.contains("poisoned by test instrumentation"),
        "panic lost the worker's payload: {text:?}"
    );

    // The engine is now unusable; dropping it must not double-panic or
    // hang even though a worker is already gone.
    drop(engine);
}
