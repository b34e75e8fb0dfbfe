//! Differential tests: the closed form against the DPLL oracle, and the
//! oracle against exhaustive enumeration.
//!
//! * `brute` (exhaustive evaluation) pins the oracle's exact counts and
//!   backbones on general mixed-polarity formulas up to 14 variables;
//! * `reference` (the oracle's census, re-exported as `census`) pins
//!   [`monotone::census`] on tomography-shaped instances up to 20
//!   variables, with caps small enough to exercise the capped paths.

use churnlab_sat::{brute, census, monotone, reference, Cnf, Lit, Var};
use proptest::prelude::*;

/// Random CNF over `n` variables from proptest-generated raw clauses.
fn build_cnf(n: usize, clauses: Vec<Vec<(u32, bool)>>) -> Cnf {
    let mut f = Cnf::new(n);
    for c in clauses {
        let lits: Vec<Lit> =
            c.into_iter().map(|(v, p)| Lit { var: Var(v % n as u32), positive: p }).collect();
        f.add_clause(lits);
    }
    f
}

/// Tomography-shaped instance: positive path clauses plus unit negations,
/// the exact clause mix the pipeline emits.
fn build_tomography(n: usize, paths: Vec<(Vec<u32>, bool)>) -> Cnf {
    let mut f = Cnf::new(n);
    for (path, censored) in paths {
        let vars = path.into_iter().map(|v| Var(v % n as u32));
        if censored {
            f.add_positive_clause(vars);
        } else {
            f.add_negative_facts(vars);
        }
    }
    f
}

fn raw_clauses(
    max_var: u32,
    max_len: usize,
    max_clauses: usize,
) -> impl Strategy<Value = Vec<Vec<(u32, bool)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..max_var, any::<bool>()), 1..max_len),
        0..max_clauses,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Against brute force (exhaustive evaluation): counts and backbones
    /// on general mixed-polarity formulas up to 14 variables.
    #[test]
    fn prop_census_matches_brute(
        n in 1usize..14,
        clauses in raw_clauses(14, 5, 16),
    ) {
        let f = build_cnf(n, clauses);
        let expected_count = brute::count(&f);
        let c = census(&f, 1 << 15);
        prop_assert_eq!(c.count.lower_bound(), expected_count);
        match (c.backbone, brute::backbone(&f)) {
            (None, None) => {}
            (Some(b), Some(bb)) => {
                prop_assert_eq!(b.ever_true, bb.ever_true);
                prop_assert_eq!(b.ever_false, bb.ever_false);
            }
            (a, b) => prop_assert!(
                false,
                "backbone disagreement: got {:?}, brute {:?}",
                a.is_some(),
                b.is_some()
            ),
        }
    }

    /// The closed form against the oracle on larger tomography-shaped
    /// instances (the production clause mix: positive paths + unit
    /// negations), n up to 20, caps from 2 up.
    #[test]
    fn prop_tomography_census_matches_reference(
        n in 2usize..21,
        paths in proptest::collection::vec(
            (proptest::collection::vec(0u32..21, 1..7), any::<bool>()),
            1..14,
        ),
        cap in 2u64..65,
    ) {
        let f = build_tomography(n, paths);
        prop_assert_eq!(monotone::census(&f, cap), reference::census(&f, cap));
    }
}

/// Both keep the exact cap boundary, so the differential tests compare
/// like for like.
#[test]
fn reference_and_new_agree_at_cap_boundary() {
    let mut g = Cnf::new(3);
    g.add_positive_clause([Var(0), Var(1), Var(2)]); // exactly 7 models
    for cap in [2u64, 6, 7, 8, 64] {
        assert_eq!(monotone::census(&g, cap), reference::census(&g, cap), "cap {cap}");
    }
}
