//! The streaming tomography pipeline: measurements in, localization out.
//!
//! Consumes the platform's measurement stream (which arrives grouped by
//! URL — the runner's documented iteration order), converts traceroutes to
//! AS paths, splits observations into (URL × window × anomaly) CNFs at
//! every configured granularity, solves and analyses each, and accumulates
//! censor findings, leakage, churn statistics, and per-instance outcomes
//! for the figures.
//!
//! [`ChurnMode::FirstPathOnly`] reproduces Figure 4's counterfactual: only
//! measurements taken over the *first observed distinct path* of each
//! (vantage, URL) pair enter the CNFs, demonstrating how solvability
//! collapses without path churn.

use crate::accumulate::FindingsAccumulator;
use crate::analyze::{analyze_with, InstanceOutcome, SolveConfig};
use crate::batch::split_url_buffer;
use crate::churnstats::ChurnAccumulator;
use crate::convert::ConversionStats;
use crate::leakage::LeakageReport;
use crate::obs::ConvertedObs;
use churnlab_bgp::Granularity;
use churnlab_platform::{AnomalyType, Measurement, Platform};
use churnlab_sat::{Solvability, SolverCtx};
use churnlab_topology::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Whether to exploit path churn (the paper's approach) or suppress it
/// (Figure 4's ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnMode {
    /// Use every converted measurement.
    Normal,
    /// Keep only measurements whose path equals the first distinct path
    /// observed for that (vantage, URL) pair.
    FirstPathOnly,
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// CNF granularities to build (paper: day, week, month, year).
    pub granularities: Vec<Granularity>,
    /// Solver settings.
    pub solve: SolveConfig,
    /// Only analyse CNFs containing at least one censored observation
    /// (CNFs without one have the trivial all-False unique solution and
    /// are counted separately).
    pub require_positive: bool,
    /// Churn mode (Figure 4 ablation switch).
    pub churn_mode: ChurnMode,
    /// Days in the measurement period (window bucketing).
    pub total_days: u32,
}

impl PipelineConfig {
    /// Paper defaults over a period length.
    pub fn paper(total_days: u32) -> Self {
        PipelineConfig {
            granularities: Granularity::ALL.to_vec(),
            solve: SolveConfig::default(),
            require_positive: true,
            churn_mode: ChurnMode::Normal,
            total_days,
        }
    }
}

/// How one censoring AS was identified.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CensorFinding {
    /// The AS.
    pub asn: Asn,
    /// Anomaly types through which it was identified.
    pub anomalies: BTreeSet<AnomalyType>,
    /// URL categories it was seen censoring (via the instance's URL).
    pub url_ids: BTreeSet<u32>,
    /// Number of instances naming it as a definite (backbone) censor.
    pub n_instances: u64,
}

/// The full pipeline output.
#[derive(Debug)]
pub struct PipelineResults {
    /// Per-instance outcomes (interesting instances only). Shared, not
    /// owned: the engine hands every report the allocation its shard
    /// solved the cell into, so a report costs a pointer a cell.
    pub outcomes: Vec<Arc<InstanceOutcome>>,
    /// Traceroute-conversion statistics (elimination rules).
    pub conversion: ConversionStats,
    /// Identified censors: backbone-definite in at least one CNF (every
    /// unique-solution CNF qualifies, plus multi-solution CNFs whose
    /// models all agree on the censor).
    pub censor_findings: HashMap<Asn, CensorFinding>,
    /// Leakage analysis (CNFs with definite censors).
    pub leakage: LeakageReport,
    /// Path-churn accumulator (Figure 3 inputs), built over
    /// `config.granularities` and `config.total_days` — only those
    /// granularities can be queried.
    pub churn: ChurnAccumulator,
    /// CNFs skipped because they had no censored observation.
    pub trivial_instances: u64,
    /// ASes seen on at least one censored path (observability horizon).
    pub on_censored_path: HashSet<Asn>,
    /// The configuration used.
    pub config: PipelineConfig,
}

impl PipelineResults {
    /// Identified censoring ASNs, sorted.
    pub fn identified_censors(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.censor_findings.keys().copied().collect();
        v.sort();
        v
    }

    /// Fractions of CNFs with 0 / 1 / 2+ solutions at one granularity
    /// (Figure 1a's bars); `None` filters nothing.
    pub fn solvability_fractions(
        &self,
        granularity: Option<Granularity>,
        anomaly: Option<AnomalyType>,
    ) -> [f64; 3] {
        let mut counts = [0u64; 3];
        for o in &self.outcomes {
            if let Some(g) = granularity {
                if o.key.window.granularity != g {
                    continue;
                }
            }
            if let Some(a) = anomaly {
                if o.key.anomaly != a {
                    continue;
                }
            }
            let i = match o.solvability {
                Solvability::Unsat => 0,
                Solvability::Unique => 1,
                Solvability::Multiple => 2,
            };
            counts[i] += 1;
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return [0.0; 3];
        }
        [
            counts[0] as f64 / total as f64,
            counts[1] as f64 / total as f64,
            counts[2] as f64 / total as f64,
        ]
    }

    /// Solution-count bucket fractions (0,1,2,3,4,5+) at one granularity —
    /// Figure 4's histogram.
    pub fn bucket_fractions(&self, granularity: Option<Granularity>) -> [f64; 6] {
        let mut counts = [0u64; 6];
        for o in &self.outcomes {
            if let Some(g) = granularity {
                if o.key.window.granularity != g {
                    continue;
                }
            }
            counts[o.bucket.min(5) as usize] += 1;
        }
        let total: u64 = counts.iter().sum();
        let mut out = [0.0; 6];
        if total > 0 {
            for (i, c) in counts.iter().enumerate() {
                out[i] = *c as f64 / total as f64;
            }
        }
        out
    }

    /// Candidate-set reduction values for 2+-solution CNFs (Figure 2's
    /// CDF input), sorted ascending.
    pub fn reduction_values(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.solvability == Solvability::Multiple)
            .map(|o| o.eliminated_frac)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("fractions are finite"));
        v
    }

    /// Mean candidate-set reduction over 2+-solution CNFs (the paper's
    /// 95.2% headline).
    pub fn mean_reduction(&self) -> Option<f64> {
        let v = self.reduction_values();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }
}

/// The streaming pipeline.
pub struct Pipeline<'p> {
    db: &'p churnlab_topology::Ip2AsDb,
    topo: &'p churnlab_topology::Topology,
    cfg: PipelineConfig,
    conversion: ConversionStats,
    churn: ChurnAccumulator,
    current_url: Option<u32>,
    flushed: HashSet<u32>,
    buffer: Vec<ConvertedObs>,
    outcomes: Vec<Arc<InstanceOutcome>>,
    acc: FindingsAccumulator,
    trivial: u64,
    /// Reusable solver context: every flushed instance is analysed on the
    /// same warm watch lists and scratch buffers.
    ctx: SolverCtx,
}

impl<'p> Pipeline<'p> {
    /// New pipeline over a platform (the usual entry point: interpret the
    /// platform's measurements with the platform's own degraded IP-to-AS
    /// view).
    pub fn new(platform: &'p Platform<'p>, cfg: PipelineConfig) -> Self {
        Self::with_context(
            platform.measured_ip2as(),
            &platform.world().topology,
            cfg,
        )
    }

    /// New pipeline over externally supplied context: an IP-to-AS database
    /// to interpret traceroutes with, and a topology for country lookups
    /// in the leakage analysis. This is the entry point for measurement
    /// records imported from *other* platforms (the paper: "our approach
    /// carries over to other measurement databases such as those generated
    /// by the OONI and the M-Lab platforms") — see `churnlab-interop`.
    pub fn with_context(
        db: &'p churnlab_topology::Ip2AsDb,
        topo: &'p churnlab_topology::Topology,
        cfg: PipelineConfig,
    ) -> Self {
        Pipeline {
            db,
            topo,
            conversion: ConversionStats::default(),
            churn: ChurnAccumulator::windowed(&cfg.granularities, cfg.total_days, None),
            cfg,
            current_url: None,
            flushed: HashSet::new(),
            buffer: Vec::new(),
            outcomes: Vec::new(),
            acc: FindingsAccumulator::new(),
            trivial: 0,
            ctx: SolverCtx::new(),
        }
    }

    /// Ingest one measurement. Measurements must arrive grouped by URL
    /// (the platform runner's order).
    ///
    /// # Panics
    ///
    /// Panics when the grouping contract is violated — a URL whose buffer
    /// was already flushed appears again. Silently continuing would build
    /// duplicate [`crate::instance::InstanceKey`]s from a partial buffer
    /// and corrupt every downstream statistic; order-independent feeds
    /// belong on `churnlab_engine::Engine`, which has no such contract.
    pub fn ingest(&mut self, m: &Measurement) {
        if self.current_url != Some(m.url_id) {
            assert!(
                !self.flushed.contains(&m.url_id),
                "Pipeline::ingest: URL {} re-encountered after its buffer was flushed — \
                 the measurement stream is not grouped by URL. The batch Pipeline requires \
                 the platform runner's URL-grouped order; feed unordered or concurrent \
                 streams to churnlab_engine::Engine instead.",
                m.url_id,
            );
            self.flush_url();
            if let Some(done) = self.current_url.replace(m.url_id) {
                self.flushed.insert(done);
            }
        }
        if let Some(obs) = ConvertedObs::from_measurement(m, self.db, &mut self.conversion) {
            self.churn.add(obs.vp_asn, obs.dest_asn, obs.day, &obs.path);
            self.buffer.push(obs);
        }
    }

    /// Finish: flush the last URL and assemble results.
    pub fn finish(mut self) -> PipelineResults {
        self.flush_url();
        let FindingsAccumulator { censor_findings, leakage, on_censored_path } = self.acc;
        PipelineResults {
            outcomes: self.outcomes,
            conversion: self.conversion,
            censor_findings,
            leakage,
            churn: self.churn,
            trivial_instances: self.trivial,
            on_censored_path,
            config: self.cfg,
        }
    }

    fn flush_url(&mut self) {
        let url_id = match self.current_url {
            Some(u) if !self.buffer.is_empty() => u,
            _ => {
                self.buffer.clear();
                return;
            }
        };
        let buffer = std::mem::take(&mut self.buffer);
        // Disjoint field borrows: the instance loop below reads the config
        // while mutating the accumulators, so borrow fields individually
        // instead of cloning the granularity list per flush.
        let Pipeline { cfg, topo, outcomes, acc, trivial, ctx, .. } = self;
        split_url_buffer(url_id, buffer, cfg.churn_mode, &cfg.granularities, cfg.total_days, |builder| {
            if cfg.require_positive && !builder.has_positive() {
                *trivial += 1;
                return;
            }
            let inst = builder.build().expect("non-empty builder");
            let outcome = analyze_with(&inst, &cfg.solve, ctx);
            acc.record_instance(&inst, &outcome, topo);
            outcomes.push(Arc::new(outcome));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_bgp::{ChurnConfig, RoutingSim};
    use churnlab_censor::CensorConfig;
    use churnlab_platform::{NoiseConfig, PlatformConfig, PlatformScale};
    use churnlab_topology::{generator, WorldConfig, WorldScale};

    /// End-to-end noise-free smoke: every identified censor is real.
    #[test]
    fn noise_free_identification_is_precise() {
        let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 31));
        let mut ccfg = CensorConfig::scaled_for(world.topology.countries().len());
        ccfg.total_days = 60;
        ccfg.policy_change_prob = 0.0;
        let scenario = churnlab_censor::CensorshipScenario::generate_for_world(&world, &ccfg);
        let mut pcfg = PlatformConfig::preset(PlatformScale::Smoke, 8);
        pcfg.noise = NoiseConfig::none();
        let platform = Platform::new(&world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(
            &world.topology,
            &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
        );
        let mut pipeline = Pipeline::new(&platform, PipelineConfig::paper(pcfg.total_days));
        let stats = platform.run(&sim, |m| pipeline.ingest(&m));
        let results = pipeline.finish();

        assert!(stats.total_anomalies() > 0, "scenario produced no anomalies");
        assert!(
            !results.outcomes.is_empty(),
            "no interesting CNFs despite anomalies"
        );
        // Noise-free: every identified censor must be a true censor.
        // Ground truth is projected to registered ASNs: naming a hosting
        // org's public ASN is correct when any of its PoPs censor.
        let truth: std::collections::HashSet<churnlab_topology::Asn> = scenario
            .censoring_asns()
            .iter()
            .map(|a| world.public_asn(*a))
            .collect();
        for asn in results.identified_censors() {
            assert!(
                truth.contains(&asn),
                "{asn} identified but innocent (noise-free run!)"
            );
        }
        // And identification should find at least one censor.
        assert!(
            !results.censor_findings.is_empty(),
            "no censors identified in a noise-free world"
        );
    }

    #[test]
    fn first_path_only_reduces_solvability() {
        let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 31));
        let mut ccfg = CensorConfig::scaled_for(world.topology.countries().len());
        ccfg.total_days = 60;
        ccfg.policy_change_prob = 0.0;
        let scenario = churnlab_censor::CensorshipScenario::generate_for_world(&world, &ccfg);
        let mut pcfg = PlatformConfig::preset(PlatformScale::Smoke, 8);
        pcfg.noise = NoiseConfig::none();
        let platform = Platform::new(&world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(
            &world.topology,
            &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
        );

        let run = |mode: ChurnMode| {
            let mut cfg = PipelineConfig::paper(pcfg.total_days);
            cfg.churn_mode = mode;
            let mut pipeline = Pipeline::new(&platform, cfg);
            platform.run(&sim, |m| pipeline.ingest(&m));
            pipeline.finish()
        };
        let with_churn = run(ChurnMode::Normal);
        let without = run(ChurnMode::FirstPathOnly);
        // Compare localization power (CNFs pinning a definite censor),
        // which is monotone in observations, rather than the raw
        // unique-model fraction, which churn can legitimately lower by
        // introducing not-yet-exonerated ASes on alternate paths.
        let localized =
            |r: &PipelineResults| r.outcomes.iter().filter(|o| !o.censors.is_empty()).count();
        assert!(
            localized(&with_churn) > localized(&without),
            "churn must localize more CNFs: with={} without={}",
            localized(&with_churn),
            localized(&without)
        );
    }

    /// The latent ordering bug fails loudly now: re-encountering a
    /// flushed URL must abort instead of silently building duplicate
    /// instance keys from a partial buffer.
    #[test]
    #[should_panic(expected = "not grouped by URL")]
    fn ungrouped_stream_panics() {
        let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 31));
        let ccfg = CensorConfig::scaled_for(world.topology.countries().len());
        let scenario = churnlab_censor::CensorshipScenario::generate_for_world(&world, &ccfg);
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 8);
        let platform = Platform::new(&world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(
            &world.topology,
            &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
        );
        let (ms, _) = platform.run_collect_parallel(&sim, 1);
        let mut pipeline = Pipeline::new(&platform, PipelineConfig::paper(pcfg.total_days));
        // Interleave two URLs: A, B, A — the third ingest revisits a
        // flushed URL and must panic.
        let a = ms.iter().find(|m| m.url_id == 0).expect("url 0 measured");
        let b = ms.iter().find(|m| m.url_id == 1).expect("url 1 measured");
        pipeline.ingest(a);
        pipeline.ingest(b);
        pipeline.ingest(a);
    }

    #[test]
    fn conversion_stats_accumulate() {
        let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 31));
        let ccfg = CensorConfig::scaled_for(world.topology.countries().len());
        let scenario = churnlab_censor::CensorshipScenario::generate_for_world(&world, &ccfg);
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 8);
        let platform = Platform::new(&world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(
            &world.topology,
            &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
        );
        let mut pipeline = Pipeline::new(&platform, PipelineConfig::paper(pcfg.total_days));
        let stats = platform.run(&sim, |m| pipeline.ingest(&m));
        let results = pipeline.finish();
        assert_eq!(
            results.conversion.converted + results.conversion.total_discarded(),
            stats.measurements,
            "every measurement must be converted or discarded"
        );
        // With realistic noise, some discards happen.
        assert!(results.conversion.total_discarded() > 0);
        assert!(results.conversion.conversion_rate() > 0.5);
    }
}
