//! §3.2's reading of one cell's models: a cell with no model is noise or
//! a policy change; an AS True in every model is a censor — also when
//! there are several models (the backbone refinement) — one True in some
//! models a potential censor, and one False in every model eliminated.

use crate::instance::{formulate, Formulation};
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::instance::InstanceKey;
use churnlab_sat::reference;
use churnlab_topology::Asn;
use std::collections::BTreeSet;

/// Solve one cell: the outcome of the CNF of `observations`, repeats
/// dropped, its models counted up to `cap` by the DPLL census.
pub fn cell(key: InstanceKey, observations: &[(Vec<Asn>, bool)], cap: u64) -> InstanceOutcome {
    let mut seen = BTreeSet::new();
    let distinct: Vec<(Vec<Asn>, bool)> = observations
        .iter()
        .filter(|o| seen.insert(*o))
        .cloned()
        .collect();
    let Formulation { asns, cnf } = formulate(&distinct);
    let census = reference::census(&cnf, cap);
    let (mut censors, mut potential_censors, mut eliminated) = (Vec::new(), Vec::new(), Vec::new());
    // No backbone: no model, so nobody is named or cleared.
    if let Some(backbone) = &census.backbone {
        for (i, &asn) in asns.iter().enumerate() {
            match (backbone.ever_true[i], backbone.ever_false[i]) {
                (true, false) => censors.push(asn),
                (true, true) => potential_censors.push(asn),
                (false, _) => eliminated.push(asn),
            }
        }
    }
    censors.sort();
    potential_censors.sort();
    eliminated.sort();
    let eliminated_frac = if asns.is_empty() {
        0.0
    } else {
        eliminated.len() as f64 / asns.len() as f64
    };
    InstanceOutcome {
        key,
        n_vars: asns.len(),
        n_observations: distinct.len(),
        n_positive: distinct.iter().filter(|(_, censored)| *censored).count(),
        solvability: census.solvability(),
        bucket: census.count.bucket(),
        censors,
        potential_censors,
        eliminated,
        eliminated_frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_bgp::{Granularity, TimeWindow};
    use churnlab_platform::AnomalyType;
    use churnlab_sat::Solvability;

    fn key() -> InstanceKey {
        InstanceKey {
            url_id: 0,
            anomaly: AnomalyType::Reset,
            window: TimeWindow::of(0, Granularity::Day, 365),
        }
    }

    fn obs(path: &[u32], censored: bool) -> (Vec<Asn>, bool) {
        (asns(path), censored)
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|&a| Asn(a)).collect()
    }

    #[test]
    fn unique_solution_names_the_censor() {
        let out = cell(key(), &[obs(&[1, 2, 3], true), obs(&[1, 2], false)], 64);
        assert_eq!(out.solvability, Solvability::Unique);
        assert_eq!((out.censors, out.eliminated), (asns(&[3]), asns(&[1, 2])));
        assert_eq!(out.bucket, 1);
        assert!(out.potential_censors.is_empty());
    }

    /// Censored [1, 2, 3, 4] and clean [1, 2]: 3 or 4 or both censor.
    #[test]
    fn multiple_solutions_give_potential_censors_and_reduction() {
        let out = cell(key(), &[obs(&[1, 2, 3, 4], true), obs(&[1, 2], false)], 64);
        assert_eq!(out.solvability, Solvability::Multiple);
        assert_eq!(
            (out.potential_censors, out.eliminated),
            (asns(&[3, 4]), asns(&[1, 2]))
        );
        assert_eq!((out.bucket, out.eliminated_frac), (3, 0.5));
        assert!(out.censors.is_empty());
    }

    #[test]
    fn contradiction_is_unsat() {
        let out = cell(key(), &[obs(&[5, 6], true), obs(&[5, 6], false)], 64);
        assert_eq!(
            (out.solvability, out.bucket, out.eliminated_frac),
            (Solvability::Unsat, 0, 0.0)
        );
        assert!(out.censors.is_empty() && out.potential_censors.is_empty());
    }

    /// A lone censored path: every AS stays a potential censor — the
    /// "20% of multi-solution CNFs eliminate nothing" case.
    #[test]
    fn no_elimination_when_no_clean_paths() {
        let out = cell(key(), &[obs(&[1, 2, 3], true)], 64);
        assert_eq!(
            (out.solvability, out.eliminated_frac),
            (Solvability::Multiple, 0.0)
        );
        assert_eq!(
            (out.potential_censors.len(), out.bucket),
            (3, 5),
            "7 models"
        );
    }

    /// Two censored paths share only AS 9, and one clean path clears the
    /// rest: the paper's mechanism.
    #[test]
    fn churn_pins_down_shared_censor() {
        let seen = [
            obs(&[1, 9, 3], true),
            obs(&[2, 9, 4], true),
            obs(&[1, 2, 3, 4], false),
        ];
        let out = cell(key(), &seen, 64);
        assert_eq!(
            (out.solvability, out.censors),
            (Solvability::Unique, asns(&[9]))
        );
    }
}
