//! A DPLL solver and AllSAT census for any CNF, kept as the oracle.
//!
//! Full-rescan and unoptimized on purpose: unit propagation re-evaluates
//! every clause per fixpoint pass, the enumerator clones the assignment
//! at every DFS node, and the branch heuristic builds a `HashMap` per
//! decision. It shares no code with [`crate::monotone`] and assumes
//! nothing about clause shape, which is what makes it the oracle the
//! closed form is held against; [`crate::brute`] holds it in turn. The
//! crate root re-exports its functions as the one-shot API.
//!
//! The enumeration cap is exact at the boundary: a formula with exactly
//! `cap` models reports `Exact(cap)`, and `AtLeast(cap)` only when a
//! `cap + 1`-th model exists.

use crate::cnf::{Cnf, Lit, Var};
use crate::enumerate::{Backbone, SolutionCensus, SolutionCount};

/// Propagate unit clauses until fixpoint by rescanning every clause.
/// Returns false when a clause has every literal false.
fn propagate(cnf: &Cnf, assignment: &mut [Option<bool>]) -> bool {
    loop {
        let mut changed = false;
        for clause in cnf.clauses() {
            let mut satisfied = false;
            let mut unassigned: Option<Lit> = None;
            let mut n_unassigned = 0;
            for l in clause {
                match l.eval(assignment) {
                    Some(true) => {
                        satisfied = true;
                        break;
                    }
                    Some(false) => {}
                    None => {
                        n_unassigned += 1;
                        unassigned = Some(*l);
                    }
                }
            }
            if satisfied {
                continue;
            }
            match n_unassigned {
                0 => return false,
                1 => {
                    let l = unassigned.expect("counted one unassigned literal");
                    assignment[l.var.usize()] = Some(l.positive);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return true;
        }
    }
}

/// The unassigned variable occurring in the most unsatisfied clauses,
/// built with a per-call `HashMap`.
fn pick_branch_var(cnf: &Cnf, assignment: &[Option<bool>]) -> Option<Var> {
    let mut counts: std::collections::HashMap<Var, usize> = std::collections::HashMap::new();
    for clause in cnf.clauses() {
        let satisfied = clause.iter().any(|l| l.eval(assignment) == Some(true));
        if satisfied {
            continue;
        }
        for l in clause {
            if l.eval(assignment).is_none() {
                *counts.entry(l.var).or_insert(0) += 1;
            }
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
        .map(|(v, _)| v)
}

/// Solve under assumptions (forced literals): a complete satisfying
/// assignment, unconstrained variables `false`, or `None`.
pub fn solve_with(cnf: &Cnf, assumptions: &[Lit]) -> Option<Vec<bool>> {
    let mut assignment: Vec<Option<bool>> = vec![None; cnf.n_vars()];
    for a in assumptions {
        match assignment[a.var.usize()] {
            Some(v) if v != a.positive => return None, // contradictory assumptions
            _ => assignment[a.var.usize()] = Some(a.positive),
        }
    }
    dpll(cnf, &mut assignment).then(|| {
        let out: Vec<bool> = assignment.iter().map(|v| v.unwrap_or(false)).collect();
        debug_assert!(cnf.eval(&out));
        out
    })
}

/// Recursive snapshot-cloning DPLL: propagate, then branch on
/// [`pick_branch_var`], True first. On success the assignment satisfies
/// every clause; on failure it is restored to what it was on entry.
fn dpll(cnf: &Cnf, assignment: &mut Vec<Option<bool>>) -> bool {
    let snapshot = assignment.clone();
    if propagate(cnf, assignment) {
        let Some(var) = pick_branch_var(cnf, assignment) else {
            return true;
        };
        for value in [true, false] {
            assignment[var.usize()] = Some(value);
            if dpll(cnf, assignment) {
                return true;
            }
        }
    }
    *assignment = snapshot;
    false
}

/// Solve without assumptions.
pub fn solve(cnf: &Cnf) -> Option<Vec<bool>> {
    solve_with(cnf, &[])
}

/// Recursive snapshot-cloning enumeration core (cap exact at the
/// boundary: exploration continues past `count == cap` until one more
/// model proves truncation).
fn enumerate_rec(
    cnf: &Cnf,
    assignment: &mut Vec<Option<bool>>,
    count: &mut u64,
    cap: u64,
    capped: &mut bool,
) {
    if *capped {
        return;
    }
    let snapshot = assignment.clone();
    if !propagate(cnf, assignment) {
        *assignment = snapshot;
        return; // conflict
    }

    let branch_var = {
        let mut v: Option<Var> = None;
        'outer: for clause in cnf.clauses() {
            if clause.iter().any(|l| l.eval(assignment) == Some(true)) {
                continue;
            }
            for l in clause {
                if l.eval(assignment).is_none() {
                    v = Some(l.var);
                    break 'outer;
                }
            }
        }
        v
    };

    match branch_var {
        None => {
            let free = assignment.iter().filter(|a| a.is_none()).count() as u32;
            let block = 1u64.checked_shl(free).unwrap_or(u64::MAX);
            *count = count.saturating_add(block);
            if *count > cap {
                *count = cap;
                *capped = true;
            }
        }
        Some(v) => {
            for value in [true, false] {
                assignment[v.usize()] = Some(value);
                enumerate_rec(cnf, assignment, count, cap, capped);
                if *capped {
                    break;
                }
            }
        }
    }
    *assignment = snapshot;
}

/// Count satisfying assignments up to `cap` (≥ 2): exact at or below the
/// cap, `AtLeast(cap)` when a `cap + 1`-th model exists.
pub fn count_solutions(cnf: &Cnf, cap: u64) -> SolutionCount {
    assert!(cap >= 2, "a cap below 2 cannot distinguish unique from multiple");
    let n = cnf.n_vars();
    let mut assignment: Vec<Option<bool>> = vec![None; n];
    let mut count: u64 = 0;
    let mut capped = false;
    enumerate_rec(cnf, &mut assignment, &mut count, cap, &mut capped);
    if capped {
        SolutionCount::AtLeast(count)
    } else {
        SolutionCount::Exact(count)
    }
}

/// Exact backbone via per-variable assumption probes; `None` when the
/// formula is unsatisfiable.
pub fn backbone(cnf: &Cnf) -> Option<Backbone> {
    let base = solve(cnf)?;
    let n = cnf.n_vars();
    let mut ever_true = vec![false; n];
    let mut ever_false = vec![false; n];
    for (i, v) in base.iter().enumerate() {
        if *v {
            ever_true[i] = true;
        } else {
            ever_false[i] = true;
        }
    }
    for i in 0..n {
        if !ever_true[i] && solve_with(cnf, &[Lit::pos(Var(i as u32))]).is_some() {
            ever_true[i] = true;
        }
        if !ever_false[i] && solve_with(cnf, &[Lit::neg(Var(i as u32))]).is_some() {
            ever_false[i] = true;
        }
    }
    Some(Backbone { ever_true, ever_false })
}

/// Census: capped count, unique model and exact probe-based backbone.
pub fn census(cnf: &Cnf, cap: u64) -> SolutionCensus {
    let count = count_solutions(cnf, cap);
    let backbone = backbone(cnf);
    let unique_model = if count == SolutionCount::Exact(1) {
        backbone.as_ref().map(|b| b.ever_true.clone())
    } else {
        None
    };
    SolutionCensus { count, unique_model, backbone }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solvability;

    #[test]
    fn reference_cap_boundary_is_exact() {
        let f = Cnf::new(2); // exactly 4 models
        assert_eq!(count_solutions(&f, 4), SolutionCount::Exact(4));
        assert_eq!(count_solutions(&f, 3), SolutionCount::AtLeast(3));
    }

    #[test]
    fn reference_census_smoke() {
        let mut f = Cnf::new(3);
        f.add_positive_clause([Var(0), Var(1), Var(2)]);
        f.add_negative_facts([Var(0), Var(1)]);
        let c = census(&f, 10);
        assert_eq!(c.solvability(), Solvability::Unique);
        assert_eq!(c.unique_model, Some(vec![false, false, true]));
    }

    #[test]
    fn empty_formula_sat() {
        let f = Cnf::new(3);
        let m = solve(&f).unwrap();
        assert_eq!(m, vec![false, false, false]);
    }

    #[test]
    fn unit_contradiction_unsat() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![Lit::pos(Var(0))]);
        f.add_clause(vec![Lit::neg(Var(0))]);
        assert!(solve(&f).is_none());
    }

    #[test]
    fn paper_style_instance() {
        // Path X→Y→Z censored, X→Y clean: (X∨Y∨Z) ∧ ¬X ∧ ¬Y ⇒ Z.
        let mut f = Cnf::new(3);
        f.add_positive_clause([Var(0), Var(1), Var(2)]);
        f.add_negative_facts([Var(0), Var(1)]);
        let m = solve(&f).unwrap();
        assert_eq!(m, vec![false, false, true]);
    }

    #[test]
    fn assumptions_respected() {
        let mut f = Cnf::new(2);
        f.add_positive_clause([Var(0), Var(1)]);
        let m = solve_with(&f, &[Lit::neg(Var(0))]).unwrap();
        assert!(!m[0]);
        assert!(m[1]);
        // Assume both false: unsat.
        assert!(solve_with(&f, &[Lit::neg(Var(0)), Lit::neg(Var(1))]).is_none());
        // Contradictory assumptions.
        assert!(solve_with(&f, &[Lit::pos(Var(0)), Lit::neg(Var(0))]).is_none());
    }

    #[test]
    fn needs_real_backtracking() {
        // (a∨b) ∧ (¬a∨c) ∧ (¬b∨c) ∧ (¬c∨a) ∧ (¬c∨¬b): forces a=c=true, b=false.
        let mut f = Cnf::new(3);
        let (a, b, c) = (Var(0), Var(1), Var(2));
        f.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        f.add_clause(vec![Lit::neg(a), Lit::pos(c)]);
        f.add_clause(vec![Lit::neg(b), Lit::pos(c)]);
        f.add_clause(vec![Lit::neg(c), Lit::pos(a)]);
        f.add_clause(vec![Lit::neg(c), Lit::neg(b)]);
        let m = solve(&f).unwrap();
        assert!(f.eval(&m));
        assert_eq!(m, vec![true, false, true]);
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // Two pigeons, one hole: p0h0 ∧ p1h0 both needed but mutually
        // exclusive. vars: x0 = pigeon0 in hole, x1 = pigeon1 in hole.
        let mut f = Cnf::new(2);
        f.add_clause(vec![Lit::pos(Var(0))]);
        f.add_clause(vec![Lit::pos(Var(1))]);
        f.add_clause(vec![Lit::neg(Var(0)), Lit::neg(Var(1))]);
        assert!(solve(&f).is_none());
    }

    #[test]
    fn larger_random_instances_agree_with_eval() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let n = rng.gen_range(1..12usize);
            let mut f = Cnf::new(n);
            for _ in 0..rng.gen_range(0..20usize) {
                let len = rng.gen_range(1..=3.min(n));
                let clause: Vec<Lit> = (0..len)
                    .map(|_| Lit {
                        var: Var(rng.gen_range(0..n as u32)),
                        positive: rng.gen_bool(0.5),
                    })
                    .collect();
                f.add_clause(clause);
            }
            if let Some(m) = solve(&f) {
                assert!(f.eval(&m), "solver returned a non-model");
            } else {
                // Cross-check with brute force.
                let mut found = false;
                for bits in 0..(1u32 << n) {
                    let a: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                    if f.eval(&a) {
                        found = true;
                        break;
                    }
                }
                assert!(!found, "solver claimed UNSAT on a satisfiable formula");
            }
        }
    }
}
