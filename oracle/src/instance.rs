//! §3.1's clause formulation of one cell: every AS on an observed path
//! is a variable; a censored path asserts that someone on it censored (a
//! positive clause), a clean path that nobody on it did (one unit
//! negation per AS).

use churnlab_sat::{Cnf, Var};
use churnlab_topology::Asn;

/// One cell's CNF: variable `i` is AS `asns[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Formulation {
    /// The ASes of the cell, in order of first appearance.
    pub asns: Vec<Asn>,
    /// A positive clause per censored path, one unit negation per AS on
    /// each clean path.
    pub cnf: Cnf,
}

/// Formulate `observations` — (AS path, censored) — as they are given:
/// variables are numbered in order of first appearance and clauses are
/// written in observation order, a clean path's negations included when
/// they repeat.
pub fn formulate(observations: &[(Vec<Asn>, bool)]) -> Formulation {
    let mut asns: Vec<Asn> = Vec::new();
    for asn in observations.iter().flat_map(|(path, _)| path) {
        if !asns.contains(asn) {
            asns.push(*asn);
        }
    }
    let var = |asn: &Asn| Var(asns.iter().position(|a| a == asn).expect("numbered") as u32);
    let mut cnf = Cnf::new(asns.len());
    for (path, censored) in observations {
        if *censored {
            cnf.add_positive_clause(path.iter().map(var));
        } else {
            cnf.add_negative_facts(path.iter().map(var));
        }
    }
    Formulation { asns, cnf }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::cell;
    use churnlab_bgp::{Granularity, TimeWindow};
    use churnlab_core::instance::InstanceKey;
    use churnlab_platform::AnomalyType;
    use churnlab_sat::{census, Solvability};

    fn key() -> InstanceKey {
        InstanceKey {
            url_id: 7,
            anomaly: AnomalyType::Dns,
            window: TimeWindow::of(3, Granularity::Day, 365),
        }
    }

    fn obs(path: &[u32], censored: bool) -> (Vec<Asn>, bool) {
        (path.iter().map(|&a| Asn(a)).collect(), censored)
    }

    /// The paper's example: censored path [1, 2, 3] and clean path
    /// [1, 2, 4] leave AS 3 the one model's one censor.
    #[test]
    fn paper_example_exact_identification() {
        let f = formulate(&[obs(&[1, 2, 3], true), obs(&[1, 2, 4], false)]);
        assert_eq!(f.asns.len(), 4);
        let c = census(&f.cnf, 64);
        assert_eq!(c.solvability(), Solvability::Unique);
        let model = c.unique_model.unwrap();
        let censors: Vec<Asn> = f
            .asns
            .iter()
            .zip(model)
            .filter(|(_, t)| *t)
            .map(|(a, _)| *a)
            .collect();
        assert_eq!(censors, vec![Asn(3)]);
    }

    /// The same path censored and clean in one window (§3.1's policy
    /// change) has no model.
    #[test]
    fn policy_change_yields_unsat() {
        let f = formulate(&[obs(&[1, 2, 3], true), obs(&[1, 2, 3], false)]);
        assert_eq!(census(&f.cnf, 64).solvability(), Solvability::Unsat);
    }

    /// One censored path alone: any non-empty subset of its ASes.
    #[test]
    fn no_churn_yields_many_solutions() {
        let c = census(&formulate(&[obs(&[1, 2, 3], true)]).cnf, 64);
        assert_eq!(c.solvability(), Solvability::Multiple);
        assert_eq!(c.count.lower_bound(), 7);
    }

    /// A repeated observation adds nothing; the contradiction is kept.
    #[test]
    fn duplicates_deduplicated_contradictions_kept() {
        let seen = [obs(&[1, 2], true), obs(&[1, 2], true), obs(&[1, 2], false)];
        assert_eq!(cell(key(), &seen, 64).n_observations, 2);
    }

    /// No observation, no variable and no clause.
    #[test]
    fn empty_builder_builds_none() {
        let f = formulate(&[]);
        assert!(f.asns.is_empty() && f.cnf.n_clauses() == 0);
    }

    /// Variables number in order of first appearance, and every clean
    /// path writes each of its unit negations.
    #[test]
    fn var_mapping_roundtrips() {
        let f = formulate(&[obs(&[7, 3], true), obs(&[3, 5], false), obs(&[5], false)]);
        assert_eq!(f.asns, vec![Asn(7), Asn(3), Asn(5)]);
        assert_eq!(f.cnf.to_dimacs(), "p cnf 3 4\n1 2 0\n-2 0\n-3 0\n-3 0\n");
    }

    /// A cell counts its censored observations.
    #[test]
    fn has_positive_tracks() {
        assert_eq!(cell(key(), &[obs(&[1, 2], false)], 64).n_positive, 0);
        assert_eq!(
            cell(key(), &[obs(&[1, 2], false), obs(&[1, 3], true)], 64).n_positive,
            1
        );
    }
}
