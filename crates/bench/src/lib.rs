//! # churnlab-bench
//!
//! The experiment harness, as one library behind one binary:
//! `cargo run --release -p churnlab-bench --bin bench -- <subcommand>`.
//!
//! | subcommand | module | what it does |
//! |---|---|---|
//! | `experiments` | [`experiments`] | the paper's tables and figures, plus the two ablations |
//! | `matrix` | [`matrix`] | the scenario grid and its invariants |
//! | `engine` | [`enginebench`] | engine throughput; scaling, overhead and allocation gates |
//! | `campaign` | [`campaignbench`] | fused sim→engine thread sweep; serial-digest, allocation and scaling gates |
//! | `replay` | [`replaybench`] | JSONL export / replay, verify, checkpoint and resume |
//! | `longhaul` | [`longhaul`] | 100M-measurement streaming; RSS plateau gate |
//! | `route` | [`routebench`] | a campaign unit's path lookups vs full route trees; speedup and zero-alloc gates |
//!
//! Every subcommand declares its flags as a table over the one parser in
//! [`cli`]; the two sweeps share the scaling gate in [`gate`], and every
//! report goes through [`gate::write_report`]. End-to-end throughput
//! numbers live in the repo's `benchmark/` package, not here: the
//! `BENCH_*.json` files these subcommands write carry ratio, scaling,
//! allocation and plateau gates.
//!
//! The crate root holds the study-assembly helpers the subcommands share.

#![forbid(unsafe_code)]

pub mod campaignbench;
pub mod cli;
pub mod enginebench;
pub mod experiments;
pub mod gate;
pub mod longhaul;
pub mod matrix;
pub mod obsbench;
pub mod replaybench;
pub mod routebench;

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::{PipelineConfig, PipelineResults};
use churnlab_engine::campaign::run_fused;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{DatasetStats, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, GeneratedWorld, WorldConfig, WorldScale};

/// A world tier's label on the command line, in manifests and reports.
pub fn scale_label(scale: WorldScale) -> &'static str {
    match scale {
        WorldScale::Smoke => "smoke",
        WorldScale::Small => "small",
        WorldScale::Paper => "paper",
        WorldScale::Huge => "huge",
    }
}

/// The study scale a label names (`smoke`: seconds, `small`: under a
/// minute, `paper`: minutes, ~5M measurements). The Huge tier is not a
/// study scale: only `bench matrix --huge-smoke` and `bench route` build it.
pub fn parse_scale(label: &str) -> Option<WorldScale> {
    [WorldScale::Smoke, WorldScale::Small, WorldScale::Paper]
        .into_iter()
        .find(|scale| scale_label(*scale) == label)
}

/// The fastest of `repeats` (at least one) timed passes, in seconds.
pub fn best_of(repeats: usize, pass: impl FnMut() -> f64) -> f64 {
    std::iter::repeat_with(pass).take(repeats.max(1)).fold(f64::INFINITY, f64::min)
}

/// An assembled world + scenario, reusable across pipeline variants.
pub struct Bench {
    /// The world.
    pub world: GeneratedWorld,
    /// Censorship ground truth.
    pub scenario: CensorshipScenario,
    /// Platform config.
    pub platform_cfg: PlatformConfig,
    /// Churn config.
    pub churn_cfg: ChurnConfig,
}

impl Bench {
    /// Assemble for a scale and seed.
    pub fn assemble(scale: WorldScale, seed: u64) -> Bench {
        Bench::assemble_with(scale, seed, |_, _| {})
    }

    /// Assemble a world tier's study, letting `adjust` reshape the
    /// platform and censor presets first. Sub-seeds derive from `seed`
    /// the same way for every caller, so a matrix cell and a bench run
    /// over the same (tier, seed) see the same world.
    pub fn assemble_with(
        scale: WorldScale,
        seed: u64,
        adjust: impl FnOnce(&mut PlatformConfig, &mut CensorConfig),
    ) -> Bench {
        let world_cfg = WorldConfig::preset(scale, seed);
        let platform_scale = match scale {
            WorldScale::Smoke => PlatformScale::Smoke,
            WorldScale::Small => PlatformScale::Small,
            WorldScale::Paper => PlatformScale::Paper,
            // Huge worlds get the genuinely Huge campaign: thousands of
            // URLs, the ~12k-VP fleet, bounded by the rotating sampling
            // schedule.
            WorldScale::Huge => PlatformScale::Huge,
        };
        let mut platform_cfg = PlatformConfig::preset(platform_scale, seed.wrapping_add(1));
        let world = generator::generate(&world_cfg);
        let mut censor_cfg = CensorConfig::scaled_for(world_cfg.n_countries);
        censor_cfg.seed = seed.wrapping_add(2);
        adjust(&mut platform_cfg, &mut censor_cfg);
        censor_cfg.total_days = platform_cfg.total_days;
        let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
        let churn_cfg = ChurnConfig {
            seed: seed.wrapping_add(3),
            total_days: platform_cfg.total_days,
            ..ChurnConfig::default()
        };
        Bench { world, scenario, platform_cfg, churn_cfg }
    }

    /// A routing simulator over this bench's world, honoring the world
    /// config's `tree_cache_capacity` (0 = sized automatically from the
    /// world's footprint).
    pub fn sim(&self) -> RoutingSim<'_> {
        RoutingSim::with_cache_capacity(
            &self.world.topology,
            &self.churn_cfg,
            self.world.config.tree_cache_capacity,
        )
    }

    /// Run the measurement campaign into a one-shard engine under
    /// `pipeline_cfg`: one generator worker, so each (URL, vantage AS)
    /// pair arrives in test order, as the first-path ablation needs.
    pub fn run(&self, pipeline_cfg: PipelineConfig) -> (DatasetStats, PipelineResults) {
        let platform = Platform::new(&self.world, &self.scenario, self.platform_cfg.clone());
        let sim = self.sim();
        let engine = Engine::new(&platform, EngineConfig::new(pipeline_cfg).with_shards(1));
        let stats = run_fused(&platform, &sim, &engine, 1).stats;
        (stats, engine.finish())
    }
}
