//! # churnlab
//!
//! A reproduction of **"A Churn for the Better: Localizing Censorship
//! using Network-level Path Churn and Network Tomography"** (Cho,
//! Nithyanand, Razaghpanah, Gill — CoNExT 2017), as a complete simulated
//! stack: a synthetic Internet with Gao–Rexford routing and BGP-style path
//! churn, packet-level censors, an ICLab-style measurement platform with
//! honest anomaly detectors, a from-scratch SAT toolkit, and the boolean
//! network tomography pipeline that localizes censoring ASes and their
//! cross-border leakage.
//!
//! Quick start (see `examples/quickstart.rs`):
//!
//! ```
//! use churnlab::study::{run_study, StudyConfig, StudyScale};
//!
//! let out = run_study(&StudyConfig::preset(StudyScale::Smoke, 42));
//! println!("identified {} censoring ASes", out.report.n_censors);
//! assert!(out.validation.precision > 0.5);
//! ```
//!
//! The crates re-exported below are usable independently:
//!
//! * [`topology`] — AS graph, countries, prefixes, IP-to-AS mapping.
//! * [`bgp`] — valley-free routing + churn event process.
//! * [`net`] — IPv4/TCP/UDP/DNS wire formats, flows, traceroute.
//! * [`censor`] — censorship policies and injection mechanics.
//! * [`platform`] — the measurement platform (ICLab analogue).
//! * [`sat`] — the closed-form census, its DPLL/AllSAT oracle, DIMACS.
//! * [`core`] — the tomography pipeline (the paper's contribution).
//! * [`engine`] — the sharded, order-independent, incremental streaming
//!   engine that localizes: every study runs it.
//! * [`interop`] — record import/export (OONI-style JSONL, CAIDA
//!   prefix2as) feeding external datasets into the same pipeline.

pub use churnlab_bgp as bgp;
pub use churnlab_censor as censor;
pub use churnlab_core as core;
pub use churnlab_engine as engine;
pub use churnlab_interop as interop;
pub use churnlab_net as net;
pub use churnlab_platform as platform;
pub use churnlab_sat as sat;
pub use churnlab_topology as topology;

pub mod study {
    //! One-call end-to-end studies: world → censors → measurements →
    //! localization → validation.

    use crate::bgp::{ChurnConfig, RoutingSim};
    use crate::censor::{CensorConfig, CensorshipScenario};
    use crate::core::pipeline::{ChurnMode, PipelineConfig, PipelineResults};
    use crate::core::report::CensorshipReport;
    use crate::core::validate::{validate, ValidationReport};
    use crate::engine::campaign::run_fused;
    use crate::engine::{Engine, EngineConfig};
    use crate::platform::{DatasetStats, Platform, PlatformConfig, PlatformScale};
    use crate::topology::{generator, GeneratedWorld, WorldConfig, WorldScale};
    use serde::{Deserialize, Serialize};

    /// Study size presets.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub enum StudyScale {
        /// Seconds: unit-test sized.
        Smoke,
        /// Tens of seconds: integration/experiment sized.
        Small,
        /// Minutes: the paper-scale configuration (774 URLs, ~539 vantage
        /// ASes, ~5M measurements).
        Paper,
    }

    /// Full configuration of a study.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct StudyConfig {
        /// World generation.
        pub world: WorldConfig,
        /// Censorship layout.
        pub censor: CensorConfig,
        /// Measurement platform.
        pub platform: PlatformConfig,
        /// Churn process.
        pub churn: ChurnConfig,
        /// Tomography pipeline.
        pub pipeline: PipelineConfig,
    }

    impl StudyConfig {
        /// A coherent preset: all sub-configs share the measurement period
        /// and derive their seeds from `seed`.
        pub fn preset(scale: StudyScale, seed: u64) -> StudyConfig {
            let (wscale, pscale) = match scale {
                StudyScale::Smoke => (WorldScale::Smoke, PlatformScale::Smoke),
                StudyScale::Small => (WorldScale::Small, PlatformScale::Small),
                StudyScale::Paper => (WorldScale::Paper, PlatformScale::Paper),
            };
            let world = WorldConfig::preset(wscale, seed);
            let platform = PlatformConfig::preset(pscale, seed.wrapping_add(1));
            let mut censor = CensorConfig::scaled_for(world.n_countries);
            censor.seed = seed.wrapping_add(2);
            censor.total_days = platform.total_days;
            let churn = ChurnConfig {
                seed: seed.wrapping_add(3),
                total_days: platform.total_days,
                ..ChurnConfig::default()
            };
            let pipeline = PipelineConfig::paper(platform.total_days);
            StudyConfig { world, censor, platform, churn, pipeline }
        }

        /// Switch the pipeline into the Figure-4 no-churn ablation.
        pub fn without_churn(mut self) -> Self {
            self.pipeline.churn_mode = ChurnMode::FirstPathOnly;
            self
        }
    }

    /// Everything a study produces.
    pub struct StudyOutput {
        /// The generated world (topology, prefixes, ground-truth IP-to-AS).
        pub world: GeneratedWorld,
        /// The censorship ground truth.
        pub scenario: CensorshipScenario,
        /// Table-1-style dataset statistics.
        pub dataset: DatasetStats,
        /// Full pipeline results (per-CNF outcomes, churn, leakage…).
        pub results: PipelineResults,
        /// Assembled Table-2/3/Figure-5 report.
        pub report: CensorshipReport,
        /// Ground-truth scoring.
        pub validation: ValidationReport,
    }

    /// Run a complete study: generate the world and censors, run the
    /// measurement campaign, localize, validate. The campaign streams on
    /// one worker into a one-shard engine: each (URL, vantage AS) pair
    /// in test order, which the first-path ablation needs.
    pub fn run_study(cfg: &StudyConfig) -> StudyOutput {
        let world = generator::generate(&cfg.world);
        let scenario = CensorshipScenario::generate_for_world(&world, &cfg.censor);
        let dataset;
        let results;
        {
            let platform = Platform::new(&world, &scenario, cfg.platform.clone());
            let sim = RoutingSim::new(&world.topology, &cfg.churn);
            let engine_cfg = EngineConfig::new(cfg.pipeline.clone()).with_shards(1);
            let engine = Engine::new(&platform, engine_cfg);
            dataset = run_fused(&platform, &sim, &engine, 1).stats;
            results = engine.finish();
        }
        let report = CensorshipReport::assemble(&results, &world.topology);
        let identified = results.censor_findings.keys().copied().collect();
        let validation =
            validate(&identified, &scenario, &results.on_censored_path, |a| world.public_asn(a));
        StudyOutput { world, scenario, dataset, results, report, validation }
    }
}

#[cfg(test)]
mod tests {
    use super::study::*;
    use crate::core::pipeline::PipelineResults;
    use crate::platform::NoiseConfig;

    #[test]
    fn smoke_study_end_to_end() {
        let out = run_study(&StudyConfig::preset(StudyScale::Smoke, 7));
        assert!(out.dataset.measurements > 0);
        assert!(out.report.n_censors > 0, "no censors identified");
        assert!(
            out.validation.precision > 0.8,
            "precision {} too low",
            out.validation.precision
        );
    }

    /// A Smoke study with every noise knob at zero and no mid-period
    /// policy change.
    fn noise_free(seed: u64) -> StudyConfig {
        let mut cfg = StudyConfig::preset(StudyScale::Smoke, seed);
        cfg.platform.noise = NoiseConfig::none();
        cfg.censor.policy_change_prob = 0.0;
        cfg
    }

    /// Noise-free, every identified censor is a true one (ground truth
    /// projected to registered ASNs: naming a hosting org's public ASN is
    /// correct when any of its PoPs censor), and one is found.
    #[test]
    fn noise_free_identification_is_precise() {
        let out = run_study(&noise_free(31));
        assert!(out.dataset.total_anomalies() > 0, "scenario produced no anomalies");
        assert!(!out.results.outcomes.is_empty(), "no interesting CNFs despite anomalies");
        let truth: std::collections::HashSet<_> =
            out.scenario.censoring_asns().iter().map(|a| out.world.public_asn(*a)).collect();
        for asn in out.results.identified_censors() {
            assert!(truth.contains(&asn), "{asn} identified but innocent (noise-free run!)");
        }
        assert!(!out.results.censor_findings.is_empty(), "no censors identified");
    }

    /// Figure 4's shape, per seed: without churn fewer CNFs pin a
    /// definite censor. (Localization power is monotone in the
    /// observations; the raw unique-model fraction is not, since churn
    /// can bring in ASes no clean path has exonerated yet.)
    #[test]
    fn first_path_only_reduces_solvability() {
        let localized =
            |r: &PipelineResults| r.outcomes.iter().filter(|o| !o.censors.is_empty()).count();
        for seed in [31, 42, 7] {
            let cfg = noise_free(seed);
            let with_churn = localized(&run_study(&cfg).results);
            let without = localized(&run_study(&cfg.without_churn()).results);
            assert!(
                with_churn > without,
                "seed {seed}: churn must localize more CNFs: with={with_churn} without={without}"
            );
        }
    }

    /// Every measurement is converted or discarded by one rule, and with
    /// realistic noise some are discarded.
    #[test]
    fn conversion_stats_accumulate() {
        let out = run_study(&StudyConfig::preset(StudyScale::Smoke, 31));
        let conversion = out.results.conversion;
        assert_eq!(
            conversion.converted + conversion.total_discarded(),
            out.dataset.measurements,
            "every measurement must be converted or discarded"
        );
        assert!(conversion.total_discarded() > 0);
        assert!(conversion.conversion_rate() > 0.5);
    }
}
