//! Solving and solution analysis (§3.2).

use crate::instance::{InstanceKey, TomographyInstance};
use churnlab_sat::{monotone, Solvability, Var};
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
    /// [`crate::leakage::LeakageReport::ingest_paths`] searches it.
    pub eliminated: Vec<Asn>,
    /// Fraction of the CNF's ASes eliminated as definite non-censors
    /// (Figure 2's statistic; meaningful for 2+-solution CNFs).
    pub eliminated_frac: f64,
}

/// Solve one instance and analyse its solutions per the paper's rules,
/// with one refinement: unique ⇒ True variables are *censors*; multiple ⇒
/// variables True in *every* model (backbone-definite) are still
/// *censors*, variables True in some models but not all are *potential
/// censors*, and variables False in all models are eliminated; unsat ⇒
/// noise or policy change. The census is [`monotone::census`]'s closed
/// form, which every instance [`crate::instance::InstanceBuilder`]
/// builds admits.
pub fn analyze(inst: &TomographyInstance, cfg: &SolveConfig) -> InstanceOutcome {
    let result = monotone::census(&inst.cnf, cfg.count_cap);
    let solvability = result.solvability();
    let mut censors = Vec::new();
    let mut potential = Vec::new();
    let mut eliminated = Vec::new();
    match (&result.backbone, solvability) {
        (Some(b), Solvability::Unique) => {
            for v in b.always_true() {
                censors.push(inst.asn(v));
            }
            for v in b.always_false() {
                eliminated.push(inst.asn(v));
            }
        }
        (Some(b), Solvability::Multiple) => {
            // Even with 2+ models, a variable True in *every* model is a
            // definite censor: the observations alone pin it down, and the
            // ambiguity is confined to other ASes (typically ones an
            // alternate churned path introduced without clean-path
            // coverage). Extracting these keeps identification monotone in
            // added observations — more churn can never un-identify a
            // censor — which raw unique-model counting does not guarantee.
            for v in b.always_true() {
                censors.push(inst.asn(v));
            }
            for (i, t) in b.ever_true.iter().enumerate() {
                let asn = inst.asn(Var(i as u32));
                if *t {
                    if b.ever_false[i] {
                        potential.push(asn);
                    }
                } else {
                    eliminated.push(asn);
                }
            }
        }
        _ => {}
    }
    censors.sort();
    potential.sort();
    eliminated.sort();
    let eliminated_frac = if inst.n_vars() == 0 {
        0.0
    } else {
        eliminated.len() as f64 / inst.n_vars() as f64
    };
    InstanceOutcome {
        key: inst.key,
        n_vars: inst.n_vars(),
        n_observations: inst.observations.len(),
        n_positive: inst.n_positive(),
        solvability,
        bucket: result.count.bucket(),
        censors,
        potential_censors: potential,
        eliminated,
        eliminated_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use churnlab_bgp::{Granularity, TimeWindow};
    use churnlab_platform::AnomalyType;

    fn key() -> InstanceKey {
        InstanceKey {
            url_id: 0,
            anomaly: AnomalyType::Reset,
            window: TimeWindow::of(0, Granularity::Day, 365),
        }
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|x| Asn(*x)).collect()
    }

    #[test]
    fn unique_solution_names_the_censor() {
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 2, 3]), true);
        b.observe(&asns(&[1, 2]), false);
        let out = analyze(&b.build().unwrap(), &SolveConfig::default());
        assert_eq!(out.solvability, Solvability::Unique);
        assert_eq!(out.censors, vec![Asn(3)]);
        assert_eq!(out.eliminated, vec![Asn(1), Asn(2)]);
        assert_eq!(out.bucket, 1);
        assert!(out.potential_censors.is_empty());
    }

    #[test]
    fn multiple_solutions_give_potential_censors_and_reduction() {
        // Censored [1,2,3,4]; clean [1,2] ⇒ 3 or 4 (or both) censor:
        // potential = {3,4}, eliminated = {1,2} (50%).
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 2, 3, 4]), true);
        b.observe(&asns(&[1, 2]), false);
        let out = analyze(&b.build().unwrap(), &SolveConfig::default());
        assert_eq!(out.solvability, Solvability::Multiple);
        assert_eq!(out.potential_censors, vec![Asn(3), Asn(4)]);
        assert_eq!(out.eliminated, vec![Asn(1), Asn(2)]);
        assert!((out.eliminated_frac - 0.5).abs() < 1e-9);
        assert_eq!(out.bucket, 3); // models: {3}, {4}, {3,4}
        assert!(out.censors.is_empty());
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[5, 6]), true);
        b.observe(&asns(&[5, 6]), false);
        let out = analyze(&b.build().unwrap(), &SolveConfig::default());
        assert_eq!(out.solvability, Solvability::Unsat);
        assert_eq!(out.bucket, 0);
        assert!(out.censors.is_empty());
        assert!(out.potential_censors.is_empty());
        assert_eq!(out.eliminated_frac, 0.0);
    }

    #[test]
    fn no_elimination_when_no_clean_paths() {
        // A lone censored path: every AS stays a potential censor — the
        // "20% of multi-solution CNFs eliminate nothing" case.
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 2, 3]), true);
        let out = analyze(&b.build().unwrap(), &SolveConfig::default());
        assert_eq!(out.solvability, Solvability::Multiple);
        assert_eq!(out.eliminated_frac, 0.0);
        assert_eq!(out.potential_censors.len(), 3);
        assert_eq!(out.bucket, 5); // 7 models
    }

    #[test]
    fn churn_pins_down_shared_censor() {
        // Two different censored paths share only AS 9; one clean path
        // clears everything else — the paper's core mechanism.
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 9, 3]), true);
        b.observe(&asns(&[2, 9, 4]), true);
        b.observe(&asns(&[1, 2, 3, 4]), false);
        let out = analyze(&b.build().unwrap(), &SolveConfig::default());
        assert_eq!(out.solvability, Solvability::Unique);
        assert_eq!(out.censors, vec![Asn(9)]);
    }
}
