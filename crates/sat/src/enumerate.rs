//! What a census reports (§3.2): the model count, bucketed as
//! 0 / 1 / 2 / … / 5+ (Figures 1 and 4); the unique model when there is
//! exactly one; and the backbone — the variables False in **every** model
//! are the "definite non-censors" that shrink the candidate set
//! (Figure 2). [`crate::monotone`] computes it in closed form and
//! [`crate::reference`] by search.

use crate::cnf::Var;
use crate::Solvability;
use serde::{Deserialize, Serialize};

/// A (possibly capped) count of satisfying assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolutionCount {
    /// The exact model count.
    Exact(u64),
    /// Enumeration stopped at the cap; the true count is `>` this.
    AtLeast(u64),
}

impl SolutionCount {
    /// Lower bound on the count.
    pub fn lower_bound(self) -> u64 {
        match self {
            SolutionCount::Exact(n) | SolutionCount::AtLeast(n) => n,
        }
    }

    /// The figure bucket: 0, 1, 2, 3, 4 map to themselves; ≥5 becomes 5.
    pub fn bucket(self) -> u8 {
        self.lower_bound().min(5) as u8
    }

    /// Solvability classification.
    pub fn solvability(self) -> Solvability {
        match self.lower_bound() {
            0 => Solvability::Unsat,
            1 => Solvability::Unique,
            _ => Solvability::Multiple,
        }
    }
}

/// Exact ever-true / ever-false sets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Backbone {
    /// `ever_true[v]`: some model assigns `v = true` (a *potential censor*).
    pub ever_true: Vec<bool>,
    /// `ever_false[v]`: some model assigns `v = false`.
    pub ever_false: Vec<bool>,
}

impl Backbone {
    /// Variables true in *every* model (censors, when the instance is
    /// satisfiable).
    pub fn always_true(&self) -> Vec<Var> {
        self.ever_true
            .iter()
            .zip(&self.ever_false)
            .enumerate()
            .filter(|(_, (t, f))| **t && !**f)
            .map(|(i, _)| Var(i as u32))
            .collect()
    }

    /// Variables false in *every* model (definite non-censors).
    pub fn always_false(&self) -> Vec<Var> {
        self.ever_true
            .iter()
            .zip(&self.ever_false)
            .enumerate()
            .filter(|(_, (t, f))| !**t && **f)
            .map(|(i, _)| Var(i as u32))
            .collect()
    }
}

/// The full census the tomography pipeline consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolutionCensus {
    /// Model count (possibly capped).
    pub count: SolutionCount,
    /// The unique model, when `count == Exact(1)`.
    pub unique_model: Option<Vec<bool>>,
    /// Exact backbone (`None` iff unsatisfiable).
    pub backbone: Option<Backbone>,
}

impl SolutionCensus {
    /// Solvability classification.
    pub fn solvability(&self) -> Solvability {
        self.count.solvability()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Cnf, Lit};
    use crate::{backbone, brute, census, count_solutions, monotone};
    use proptest::prelude::*;

    #[test]
    fn empty_formula_counts_all_assignments() {
        let f = Cnf::new(3);
        assert_eq!(count_solutions(&f, 100), SolutionCount::Exact(8));
        assert_eq!(monotone::census(&f, 100), census(&f, 100));
    }

    #[test]
    fn unsat_counts_zero() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![Lit::pos(Var(0))]);
        f.add_clause(vec![Lit::neg(Var(0))]);
        assert_eq!(count_solutions(&f, 10), SolutionCount::Exact(0));
        assert!(backbone(&f).is_none());
        let c = census(&f, 10);
        assert_eq!(c.solvability(), Solvability::Unsat);
        assert!(c.unique_model.is_none());
        assert_eq!(monotone::census(&f, 10), c);
    }

    #[test]
    fn forced_model_counts_one() {
        let mut f = Cnf::new(3);
        f.add_positive_clause([Var(0), Var(1), Var(2)]);
        f.add_negative_facts([Var(0), Var(1)]);
        let c = census(&f, 10);
        assert_eq!(monotone::census(&f, 10), c);
        assert_eq!(c.count, SolutionCount::Exact(1));
        assert_eq!(c.unique_model, Some(vec![false, false, true]));
        assert_eq!(c.solvability(), Solvability::Unique);
        let b = c.backbone.unwrap();
        assert_eq!(b.always_true(), vec![Var(2)]);
        assert_eq!(b.always_false(), vec![Var(0), Var(1)]);
    }

    #[test]
    fn single_positive_clause_counts_2n_minus_1() {
        let mut f = Cnf::new(3);
        f.add_positive_clause([Var(0), Var(1), Var(2)]);
        assert_eq!(count_solutions(&f, 100), SolutionCount::Exact(7));
        assert_eq!(monotone::census(&f, 100), census(&f, 100));
        let b = backbone(&f).unwrap();
        assert!(b.ever_true.iter().all(|t| *t), "every var can censor");
        assert!(b.always_false().is_empty());
        assert!(b.always_true().is_empty());
    }

    #[test]
    fn cap_reported_as_lower_bound() {
        let f = Cnf::new(20); // 2^20 models
        let c = count_solutions(&f, 64);
        assert_eq!(c, SolutionCount::AtLeast(64));
        assert_eq!(monotone::census(&f, 64), census(&f, 64));
        assert_eq!(c.bucket(), 5);
        assert_eq!(c.solvability(), Solvability::Multiple);
    }

    /// Regression for the cap-boundary bug: a model count of exactly
    /// `cap` used to be misreported as `AtLeast(cap)` because re-entering
    /// the enumerator with `count == cap` set the capped flag even though
    /// no model was ever dropped. The count is exact at the boundary and
    /// capped one past it.
    #[test]
    fn count_equal_to_cap_is_exact() {
        // Free formula over 3 vars: exactly 8 models.
        let f = Cnf::new(3);
        assert_eq!(count_solutions(&f, 8), SolutionCount::Exact(8));
        assert_eq!(count_solutions(&f, 7), SolutionCount::AtLeast(7));
        assert_eq!(count_solutions(&f, 9), SolutionCount::Exact(8));
        // Constrained instance: (v0∨v1∨v2) has exactly 7 models.
        let mut g = Cnf::new(3);
        g.add_positive_clause([Var(0), Var(1), Var(2)]);
        assert_eq!(count_solutions(&g, 7), SolutionCount::Exact(7));
        assert_eq!(count_solutions(&g, 6), SolutionCount::AtLeast(6));
        // The census agrees, and its solvability stays Multiple.
        let c = census(&g, 7);
        assert_eq!(monotone::census(&g, 7), c);
        assert_eq!(c.count, SolutionCount::Exact(7));
        assert_eq!(c.solvability(), Solvability::Multiple);
    }

    #[test]
    fn buckets() {
        assert_eq!(SolutionCount::Exact(0).bucket(), 0);
        assert_eq!(SolutionCount::Exact(1).bucket(), 1);
        assert_eq!(SolutionCount::Exact(4).bucket(), 4);
        assert_eq!(SolutionCount::Exact(9).bucket(), 5);
        assert_eq!(SolutionCount::AtLeast(64).bucket(), 5);
    }

    #[test]
    fn elimination_semantics_match_paper() {
        // Two censored paths sharing AS 1, plus a clean path over AS 0:
        // (0∨1) ∧ (1∨2) ∧ ¬0 ⇒ 1 is forced true, 2 free: models are
        // {1}, {1,2} → count 2, ever_true = {1, 2}, always_false = {0}.
        let mut f = Cnf::new(3);
        f.add_positive_clause([Var(0), Var(1)]);
        f.add_positive_clause([Var(1), Var(2)]);
        f.add_negative_facts([Var(0)]);
        let c = census(&f, 100);
        assert_eq!(monotone::census(&f, 100), c);
        assert_eq!(c.count, SolutionCount::Exact(2));
        let b = c.backbone.unwrap();
        assert_eq!(b.always_false(), vec![Var(0)]);
        assert_eq!(b.always_true(), vec![Var(1)]);
        assert!(b.ever_true[2]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_count_matches_brute_force(
            n in 1usize..10,
            clauses in proptest::collection::vec(
                proptest::collection::vec((0u32..10, any::<bool>()), 1..4),
                0..12,
            ),
        ) {
            let mut f = Cnf::new(n);
            for c in clauses {
                let lits: Vec<Lit> = c
                    .into_iter()
                    .map(|(v, p)| Lit { var: Var(v % n as u32), positive: p })
                    .collect();
                f.add_clause(lits);
            }
            let expected = brute::count(&f);
            prop_assert_eq!(count_solutions(&f, 1u64 << 12), SolutionCount::Exact(expected));
            // Backbone agreement.
            match (backbone(&f), brute::backbone(&f)) {
                (None, None) => {}
                (Some(b), Some(bb)) => {
                    prop_assert_eq!(b.ever_true, bb.ever_true);
                    prop_assert_eq!(b.ever_false, bb.ever_false);
                }
                (a, b) => prop_assert!(false, "backbone disagreement: {:?} vs {:?}", a.is_some(), b.is_some()),
            }
        }

        #[test]
        fn prop_unique_model_is_a_model(
            n in 1usize..8,
            clauses in proptest::collection::vec(
                proptest::collection::vec((0u32..8, any::<bool>()), 1..3),
                0..10,
            ),
        ) {
            let mut f = Cnf::new(n);
            for c in clauses {
                let lits: Vec<Lit> = c
                    .into_iter()
                    .map(|(v, p)| Lit { var: Var(v % n as u32), positive: p })
                    .collect();
                f.add_clause(lits);
            }
            let c = census(&f, 64);
            if let Some(m) = &c.unique_model {
                prop_assert!(f.eval(m));
                prop_assert_eq!(c.count, SolutionCount::Exact(1));
            }
        }
    }
}
