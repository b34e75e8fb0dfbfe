//! What solving one CNF yields (§3.2): the solver settings and the
//! analysed outcome — Unsat / Unique / Multiple, the censors the
//! backbone pins, the potential censors and the eliminated ASes. The
//! engine's incremental re-solve (`churnlab-engine`) computes them.

use crate::instance::InstanceKey;
use churnlab_sat::Solvability;
use churnlab_topology::Asn;
use serde::{Deserialize, Serialize};

/// Solving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveConfig {
    /// Enumeration cap for solution counting (Figure 4's histogram only
    /// needs buckets up to 5+, so a small cap suffices; backbones are
    /// computed exactly regardless).
    pub count_cap: u64,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig { count_cap: 64 }
    }
}

/// The analysed outcome of one CNF.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceOutcome {
    /// Which CNF this is.
    pub key: InstanceKey,
    /// Distinct ASes in the CNF.
    pub n_vars: usize,
    /// Distinct observations (clauses before negative expansion).
    pub n_observations: usize,
    /// Positive (censored) observations.
    pub n_positive: usize,
    /// Solvability class (0 / 1 / 2+).
    pub solvability: Solvability,
    /// Solution-count bucket (0,1,2,3,4 exact; 5 = five or more).
    pub bucket: u8,
    /// Censoring ASes — True in *every* model (the whole model for unique
    /// solutions; the backbone's definite variables otherwise). Strictly
    /// ascending.
    pub censors: Vec<Asn>,
    /// Potential censors — True in some models but not all (multiple
    /// solutions only). Strictly ascending.
    pub potential_censors: Vec<Asn>,
    /// Definite non-censors — False in every model. Strictly ascending:
    /// [`crate::leakage::for_each_leak`] searches it.
    pub eliminated: Vec<Asn>,
    /// Fraction of the CNF's ASes eliminated as definite non-censors
    /// (Figure 2's statistic; meaningful for 2+-solution CNFs).
    pub eliminated_frac: f64,
}
