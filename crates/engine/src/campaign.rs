//! Fused simulate→tomography campaigns: the platform's parallel runner
//! streaming straight into the engine's shard channels.
//!
//! Before this module, a campaign at scale meant "run the platform,
//! write JSONL, replay the dump through the engine" — two passes over
//! millions of records with a serialization round trip between them.
//! Fused mode deletes the intermediate: each runner worker owns an
//! [`Engine::feeder`] handle (per-thread buffering, chunked sends), so
//! measurement generation and conversion/solving overlap on the same
//! machine and the stream as a whole is never materialized. What is
//! copied is one chunk at a time: the feeder lays each measurement flat
//! into a recycled block and frees it on the generator's own thread, the
//! block crosses to the shard, and the shard hands it back — a
//! generator thread never waits on memory another thread is freeing, so
//! it costs the same fused as it does feeding a dropping sink.
//!
//! Correctness rides on two already-proven properties: the runner's
//! per-(url, day) RNG reseeding makes the parallel measurement *set*
//! exactly the serial one, and the engine is order-independent under
//! multi-producer ingest — so the fused run's
//! [`churnlab_core::report::CanonicalReport`] is byte-identical to a
//! serial `Platform::run` feeding a single-threaded engine
//! (`crates/engine/tests/fused_campaign.rs` pins this across thread ×
//! shard × seed grids). The first-path ablation is not order-independent
//! — it needs each (URL, vantage AS) pair in test order, which only one
//! worker streams — so it runs with `threads = 1`.

use crate::Engine;
use churnlab_bgp::RoutingSim;
use churnlab_platform::{ParallelRun, Platform};

/// Run the full campaign across `threads` generator workers, each
/// feeding the engine through its own [`Engine::feeder`]. Returns the
/// platform-side stats and per-worker busy accounting; the engine is
/// left loaded — snapshot or finish it for results. A platform that was
/// [`Platform::instrument`]ed publishes its `churnlab_campaign_*`
/// counters here as in any other run.
///
/// `threads == 0` means one worker per available core.
pub fn run_fused(
    platform: &Platform<'_>,
    sim: &RoutingSim<'_>,
    engine: &Engine<'_>,
    threads: usize,
) -> ParallelRun {
    platform.run_parallel(sim, threads, |_worker| {
        let mut feeder = engine.feeder();
        move |m| feeder.ingest_owned(m)
    })
}
