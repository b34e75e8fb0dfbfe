//! # churnlab-engine
//!
//! A sharded, order-independent, **incremental** tomography engine over
//! measurement streams — the repo's one localizer: studies, the scenario
//! matrix, replays and the benches all run it, a one-shard engine where
//! a batch answer is wanted.
//!
//! A batch localizer holds the whole stream before it answers: it
//! buffers every (URL × window × anomaly) CNF and solves it from scratch
//! at the end, as the executable specification of §3
//! (`churnlab-oracle`, the repo's end-to-end oracle) does. That rules out
//! exactly the regime a deployed localization service lives in: many
//! vantage feeds arriving concurrently, interleaved across URLs, with
//! reports wanted *before* the stream ends. The engine is built for it:
//!
//! * **Any order** — [`Engine::ingest_owned`] accepts measurements in
//!   whatever order they arrive; instance state is keyed, not positional.
//!   (Figure 4's first-path ablation is the exception: "first" is in test
//!   order, so it needs each (URL, vantage AS) pair's measurements in that
//!   order, and a shard panics on one that breaks it.)
//! * **Sharded** — each *raw* measurement is routed by `hash(url_id)`
//!   to a shard worker over a bounded channel; shards own their
//!   instances outright (no locks on the hot path) and both **convert**
//!   (the §3.1 elimination rules — the most expensive per-measurement
//!   stage) and solve in parallel, so one ingesting thread drives N
//!   cores' worth of work. A [`Feeder`] sends flat, recycled blocks of
//!   measurements rather than the measurements themselves, so a feeding
//!   thread frees what it allocated and the wire allocates nothing in
//!   steady state.
//! * **Incremental** — every instance keeps a memoized
//!   unit-propagation/backbone state ([`IncrementalInstance`]), so a new
//!   observation is usually a constant-time state transition
//!   (early-unsat and already-decided instances short-circuit), and
//!   otherwise a closed-form re-solve — unit propagation, then a count
//!   of the monotone formula left — never a SAT solver pass.
//! * **Interned** — path churn means few distinct paths observed many
//!   times, so each shard interns every distinct AS path once into a
//!   [`PathTable`] (one hash per measurement) and the whole
//!   granularity×anomaly fan-out works on the dense
//!   [`churnlab_core::obs::PathId`]: dedup is an integer probe, clause
//!   literals live in one flat arena, and ids never leave the shard.
//! * **Reports cost what changed** — each (URL × window) group's solved
//!   cells and their findings/leakage fold are built on the shard, once
//!   per effective update, and shared by pointer with every report until
//!   the next one; [`Engine::snapshot`] only unions small accumulators.
//!
//! [`Engine::snapshot`] / [`Engine::finish`] produce a
//! [`churnlab_core::pipeline::PipelineResults`] for reports, validation
//! and the scenario-matrix harness — and the
//! [`churnlab_core::report::CanonicalReport`] serialization is
//! **byte-identical** to the specification's over the same measurement
//! set, whatever the arrival order or shard count, which the integration
//! tests assert over shuffled streams.
//!
//! ```
//! use churnlab_engine::{Engine, EngineConfig};
//! # use churnlab_bgp::{ChurnConfig, RoutingSim};
//! # use churnlab_censor::{CensorConfig, CensorshipScenario};
//! # use churnlab_core::pipeline::PipelineConfig;
//! # use churnlab_platform::{Platform, PlatformConfig, PlatformScale};
//! # use churnlab_topology::{generator, WorldConfig, WorldScale};
//! # let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 1));
//! # let ccfg = CensorConfig::scaled_for(world.topology.countries().len());
//! # let scenario = CensorshipScenario::generate_for_world(&world, &ccfg);
//! # let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 1);
//! # let platform = Platform::new(&world, &scenario, pcfg.clone());
//! # let sim = RoutingSim::new(
//! #     &world.topology,
//! #     &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
//! # );
//! let cfg = EngineConfig::new(PipelineConfig::paper(pcfg.total_days)).with_shards(2);
//! let engine = Engine::new(&platform, cfg);
//! platform.run(&sim, |m| engine.ingest_owned(m)); // any order would do
//! let results = engine.finish();
//! println!("identified {} censors", results.identified_censors().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod campaign;
mod ckpt;
mod engine;
pub mod incremental;
pub mod intern;
mod obs;
mod shard;

pub use ckpt::RestoreError;
pub use engine::{
    CompactReport, Engine, EngineBusy, EngineConfig, EngineStats, Feeder, Restored, RetireStats,
    SatCounters,
};
pub use incremental::{
    IncrementalInstance, IncrementalStats, InstanceGroup, SolveScratch, VarsByAsn,
};
pub use intern::{InternStats, PathTable};
pub use obs::EngineObs;
// The per-thread on-CPU clock moved into `churnlab-obs`; re-exported so
// engine consumers keep one import path.
pub use churnlab_obs::thread_cpu_nanos;
