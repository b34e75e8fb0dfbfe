//! The localizer's configuration and results: what a tomography run is
//! asked to do ([`PipelineConfig`]) and what it found
//! ([`PipelineResults`]) — per-instance outcomes, conversion counters,
//! censor findings, leakage and churn statistics for the figures.
//! `churnlab-engine` computes them from a measurement stream.
//!
//! [`ChurnMode::FirstPathOnly`] reproduces Figure 4's counterfactual: only
//! measurements taken over the *first observed distinct path* of each
//! (vantage, URL) pair enter the CNFs, demonstrating how solvability
//! collapses without path churn.

use crate::analyze::{InstanceOutcome, SolveConfig};
use crate::churnstats::ChurnAccumulator;
use crate::convert::ConversionStats;
use crate::leakage::LeakageReport;
use churnlab_bgp::Granularity;
use churnlab_platform::AnomalyType;
use churnlab_sat::Solvability;
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
