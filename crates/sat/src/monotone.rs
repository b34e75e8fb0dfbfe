//! The closed form every tomography CNF is solved with.
//!
//! Every CNF the paper builds (§3.1) is *monotone*: a positive clause
//! `(a ∨ b ∨ …)` per censored path and a negative unit fact `¬a` per AS
//! on a clean one. Such a formula answers §3.2's three questions without
//! a search:
//!
//! * **Propagation.** Unit propagation to fixpoint, seeded with the
//!   negative facts (and whatever else a caller already knows), either
//!   finds a clause whose variables are all False — no model — or leaves
//!   every clause no True variable hits with at least two free variables.
//! * **Backbone.** Then all-True-on-the-free-variables is a model, and so
//!   is all-True-minus-any-one: every free variable is True in some
//!   model and False in another. The backbone is exactly what propagation
//!   fixed, so the model is unique iff nothing is left free.
//! * **Count.** H × 2^k, where H counts the hitting sets of the unhit
//!   clauses over their m *open* variables and k is the number of free
//!   variables on none of them. H ≥ 1 + m, so past the cap that answers
//!   at once; below it a search exact up to the cap counts H, branching
//!   like an enumerator — the first open variable of the first unhit
//!   clause, True first — and counting a leaf's 2^open at once.
//!
//! [`Monotone`] is the reusable scratch: the per-variable state, one flat
//! clause arena and the count's branch stack, rewound per formula and
//! never freed. [`census`] runs it over a [`Cnf`] of that shape; the
//! engine's incremental re-solve seeds it from its memo instead.
//! [`crate::reference`]'s DPLL census and [`crate::brute`] are the
//! oracles the tests hold it against.

use crate::cnf::Cnf;
use crate::enumerate::{Backbone, SolutionCensus, SolutionCount};

/// Variable state: fixed False.
const FALSE: u8 = 0;
/// Variable state: fixed True.
const TRUE: u8 = 1;
/// Variable state: not fixed.
const FREE: u8 = 2;
/// Variable state: free and on an unhit clause, while counting.
const OPEN: u8 = 3;

/// Reusable scratch for one monotone formula at a time: fix what is
/// known ([`Monotone::fix`]), add the positive clauses
/// ([`Monotone::add_clause`]), [`Monotone::propagate`], read the
/// backbone ([`Monotone::values`]) and [`Monotone::count`] the models.
#[derive(Debug, Default)]
pub struct Monotone {
    /// Per variable: [`FALSE`], [`TRUE`], [`FREE`] or [`OPEN`].
    state: Vec<u8>,
    /// Every clause's variables, back to back.
    lits: Vec<u32>,
    /// Each clause's `(start, end)` in `lits`; after a count, only the
    /// unhit ones.
    clauses: Vec<(u32, u32)>,
    /// The count's branch stack: the variables it has set, in order.
    branch: Vec<u32>,
}

impl Monotone {
    /// Fresh scratch (buffers grow to steady-state sizes on first use).
    pub fn new() -> Self {
        Monotone::default()
    }

    /// Start a formula over `n_vars` variables, none fixed, no clauses.
    pub fn reset(&mut self, n_vars: usize) {
        self.state.clear();
        self.state.resize(n_vars, FREE);
        self.lits.clear();
        self.clauses.clear();
    }

    /// Fix `var` to `value` ahead of propagation. Returns false when it
    /// is already fixed the other way: the formula has no model.
    pub fn fix(&mut self, var: u32, value: bool) -> bool {
        let want = if value { TRUE } else { FALSE };
        let state = &mut self.state[var as usize];
        if *state == FREE {
            *state = want;
        }
        *state == want
    }

    /// Add the positive clause `(v1 ∨ v2 ∨ …)`. A variable may repeat.
    pub fn add_clause(&mut self, vars: impl IntoIterator<Item = u32>) {
        let start = self.lits.len() as u32;
        self.lits.extend(vars);
        self.clauses.push((start, self.lits.len() as u32));
    }

    /// Unit propagation to fixpoint: a clause no True variable hits and
    /// with one free variable sets it True. Returns false on a clause
    /// whose variables are all False — the formula has no model.
    pub fn propagate(&mut self) -> bool {
        let Monotone { state, lits, clauses, .. } = self;
        loop {
            let mut changed = false;
            for &(start, end) in clauses.iter() {
                let clause = &lits[start as usize..end as usize];
                if clause.iter().any(|&v| state[v as usize] == TRUE) {
                    continue;
                }
                let mut free = clause.iter().filter(|&&v| state[v as usize] == FREE);
                let Some(&v) = free.next() else {
                    return false;
                };
                if free.all(|&w| w == v) {
                    state[v as usize] = TRUE;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// After a successful [`Monotone::propagate`], per variable: the
    /// value every model gives it, or `None` when some model sets it True
    /// and another False.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Option<bool>> + '_ {
        self.state.iter().map(|&state| match state {
            TRUE => Some(true),
            FALSE => Some(false),
            _ => None,
        })
    }

    /// The model count, exact up to `cap` and `AtLeast(cap)` past it.
    /// Needs what [`Monotone::propagate`] leaves — every unhit clause
    /// with two distinct free variables — and searches in the state it
    /// fixed, so read the backbone first.
    pub fn count(&mut self, cap: u64) -> SolutionCount {
        let Monotone { state, lits, clauses, branch } = self;
        let clause = |&(start, end): &(u32, u32)| &lits[start as usize..end as usize];
        clauses.retain(|span| clause(span).iter().all(|&v| state[v as usize] != TRUE));
        let mut m = 0;
        for &v in clauses.iter().flat_map(clause) {
            if state[v as usize] == FREE {
                state[v as usize] = OPEN;
                m += 1;
            }
        }
        let k = state.iter().filter(|&&s| s == FREE).count();
        let (block, cap) = (pow2(k), u128::from(cap));
        if (m as u128 + 1).saturating_mul(block) > cap {
            return SolutionCount::AtLeast(cap as u64);
        }
        branch.clear();
        let (mut open, mut total) = (m, 0u128);
        loop {
            let mut next = None;
            let mut dead = false;
            for clause in clauses.iter().map(clause) {
                if clause.iter().any(|&v| state[v as usize] == TRUE) {
                    continue;
                }
                let Some(&v) = clause.iter().find(|&&v| state[v as usize] == OPEN) else {
                    dead = true;
                    break;
                };
                next.get_or_insert(v);
            }
            if let (false, Some(v)) = (dead, next) {
                state[v as usize] = TRUE;
                open -= 1;
                branch.push(v);
                continue;
            }
            if !dead {
                total = total.saturating_add(pow2(open).saturating_mul(block));
                if total > cap {
                    return SolutionCount::AtLeast(cap as u64);
                }
            }
            // Backtrack: the deepest variable still True flips to False;
            // those below it, both branches done, reopen.
            loop {
                let Some(&v) = branch.last() else {
                    return SolutionCount::Exact(total as u64);
                };
                if state[v as usize] == TRUE {
                    state[v as usize] = FALSE;
                    break;
                }
                state[v as usize] = OPEN;
                open += 1;
                branch.pop();
            }
        }
    }

    /// The census of a tomography CNF: count (capped), unique model and
    /// exact backbone, on this scratch.
    ///
    /// # Panics
    ///
    /// On a `cap` below 2, and on a clause that is neither all-positive
    /// nor a single negative literal — a formula that is not monotone.
    pub fn census(&mut self, cnf: &Cnf, cap: u64) -> SolutionCensus {
        assert!(cap >= 2, "a cap below 2 cannot distinguish unique from multiple");
        self.reset(cnf.n_vars());
        for clause in cnf.clauses() {
            match clause.as_slice() {
                // Only propagation fixes a variable True, so a negative
                // fact cannot conflict here.
                [l] if !l.positive => {
                    self.fix(l.var.0, false);
                }
                lits => {
                    assert!(
                        lits.iter().all(|l| l.positive),
                        "not a tomography CNF: clause {lits:?} is neither positive nor a negative unit"
                    );
                    self.add_clause(lits.iter().map(|l| l.var.0));
                }
            }
        }
        if !self.propagate() {
            return SolutionCensus { count: SolutionCount::Exact(0), unique_model: None, backbone: None };
        }
        let ever_true: Vec<bool> = self.values().map(|v| v != Some(false)).collect();
        let ever_false = self.values().map(|v| v != Some(true)).collect();
        let count = self.count(cap);
        let unique_model = (count == SolutionCount::Exact(1)).then(|| ever_true.clone());
        SolutionCensus { count, unique_model, backbone: Some(Backbone { ever_true, ever_false }) }
    }
}

/// [`Monotone::census`] on a fresh scratch.
///
/// The paper's §3.1 example: the AS path X→Y→Z saw DNS censorship —
/// clause (X ∨ Y ∨ Z) — while a test over X→Y came back clean, which
/// contributes the facts ¬X ∧ ¬Y:
///
/// ```
/// use churnlab_sat::{monotone, Cnf, Solvability, Var};
///
/// let (x, y, z) = (Var(0), Var(1), Var(2));
/// let mut cnf = Cnf::new(3);
/// cnf.add_positive_clause([x, y, z]); // censored path
/// cnf.add_negative_facts([x, y]);     // clean path
///
/// let result = monotone::census(&cnf, 64);
/// assert_eq!(result.solvability(), Solvability::Unique);
/// // The single model names Z — and only Z — as the censor.
/// assert_eq!(result.unique_model.unwrap(), vec![false, false, true]);
/// ```
pub fn census(cnf: &Cnf, cap: u64) -> SolutionCensus {
    Monotone::new().census(cnf, cap)
}

/// `2^n` clamped into `u128` range.
fn pow2(n: usize) -> u128 {
    if n >= 127 {
        u128::MAX
    } else {
        1u128 << n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Lit, Var};
    use crate::{brute, reference, Solvability};
    use proptest::prelude::*;

    #[test]
    fn zero_clause_formula_counts_every_assignment() {
        let c = census(&Cnf::new(3), 64);
        assert_eq!(c.count, SolutionCount::Exact(8));
        assert_eq!(c.backbone.unwrap().ever_false, vec![true; 3]);
        let none = census(&Cnf::new(0), 2);
        assert_eq!((none.count, none.unique_model), (SolutionCount::Exact(1), Some(Vec::new())));
    }

    #[test]
    fn unit_contradiction_unsat() {
        let mut f = Cnf::new(1);
        f.add_clause(vec![Lit::pos(Var(0))]);
        f.add_clause(vec![Lit::neg(Var(0))]);
        let c = census(&f, 4);
        assert_eq!((c.count, c.unique_model, c.backbone), (SolutionCount::Exact(0), None, None));
    }

    #[test]
    fn census_matches_paper_example() {
        let mut f = Cnf::new(3);
        f.add_positive_clause([Var(0), Var(1), Var(2)]);
        f.add_negative_facts([Var(0), Var(1)]);
        let c = census(&f, 10);
        assert_eq!(c.count, SolutionCount::Exact(1));
        assert_eq!(c.unique_model, Some(vec![false, false, true]));
        assert_eq!(c.solvability(), Solvability::Unique);
        let b = c.backbone.unwrap();
        assert_eq!(b.always_true(), vec![Var(2)]);
        assert_eq!(b.always_false(), vec![Var(0), Var(1)]);
    }

    #[test]
    fn cap_boundary_is_exact() {
        // Free 2-var formula: exactly 4 models.
        let f = Cnf::new(2);
        assert_eq!(census(&f, 4).count, SolutionCount::Exact(4));
        assert_eq!(census(&f, 3).count, SolutionCount::AtLeast(3));
        // 2^3 - 1 = 7 models at cap 7: exact; at cap 6: capped — both on
        // the search (H = 7 > 1 + m = 4) rather than the shortcut.
        let mut g = Cnf::new(3);
        g.add_positive_clause([Var(0), Var(1), Var(2)]);
        assert_eq!(census(&g, 7).count, SolutionCount::Exact(7));
        assert_eq!(census(&g, 6).count, SolutionCount::AtLeast(6));
    }

    #[test]
    fn scratch_reuse_across_many_instances() {
        let mut scratch = Monotone::new();
        for n in (1..8usize).chain((1..8).rev()) {
            let mut f = Cnf::new(n);
            f.add_positive_clause((0..n).map(|i| Var(i as u32)));
            let c = scratch.census(&f, 1 << 10);
            assert_eq!(c.count, SolutionCount::Exact((1u64 << n) - 1), "n = {n}");
            assert_eq!(c, reference::census(&f, 1 << 10), "n = {n}");
        }
    }

    /// A clause naming one free variable twice is a unit clause.
    #[test]
    fn a_repeated_variable_is_one_literal() {
        let mut m = Monotone::new();
        m.reset(2);
        m.add_clause([1, 1]);
        assert!(m.propagate());
        assert_eq!(m.values().collect::<Vec<_>>(), [None, Some(true)]);
        assert_eq!(m.count(64), SolutionCount::Exact(2));
    }

    #[test]
    #[should_panic(expected = "not a tomography CNF")]
    fn a_mixed_polarity_clause_is_rejected() {
        let mut f = Cnf::new(2);
        f.add_clause(vec![Lit::pos(Var(0)), Lit::neg(Var(1))]);
        census(&f, 64);
    }

    /// Caps from the smallest the census takes to the pipeline's default.
    fn caps() -> impl Strategy<Value = u64> {
        prop_oneof![Just(2u64), Just(3), Just(5), Just(8), Just(64)]
    }

    /// A tomography-shaped CNF over `n` variables: one positive clause
    /// per censored path (a one-AS path is a positive unit), the unit
    /// negations of every clean one (repeats kept, as a path revisiting
    /// an AS or two clean paths sharing one write them), and — with
    /// `trap` — one more censored path over every exonerated AS, which no
    /// model satisfies.
    fn tomography(n: usize, paths: Vec<(Vec<u32>, bool)>, trap: bool) -> Cnf {
        let mut f = Cnf::new(n);
        let mut exonerated = Vec::new();
        for (path, censored) in paths {
            let vars = path.into_iter().map(|v| Var(v % n as u32));
            if censored {
                f.add_positive_clause(vars);
            } else {
                let vars: Vec<Var> = vars.collect();
                exonerated.extend(&vars);
                f.add_negative_facts(vars);
            }
        }
        if trap && !exonerated.is_empty() {
            f.add_positive_clause(exonerated);
        }
        f
    }

    /// The closed form equals the DPLL oracle — count, unique model and
    /// backbone — and exhaustive enumeration.
    fn census_matches_the_oracles(f: &Cnf, cap: u64) {
        let c = census(f, cap);
        assert_eq!(c, reference::census(f, cap), "reference, cap {cap}: {f:?}");
        let count = brute::count(f);
        let capped = if count > cap { SolutionCount::AtLeast(cap) } else { SolutionCount::Exact(count) };
        assert_eq!((c.count, c.backbone), (capped, brute::backbone(f)), "brute, cap {cap}: {f:?}");
    }

    fn paths() -> impl Strategy<Value = Vec<(Vec<u32>, bool)>> {
        proptest::collection::vec((proptest::collection::vec(0u32..12, 1..7), any::<bool>()), 0..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// See [`census_matches_the_oracles`].
        #[test]
        fn prop_census_matches_the_oracles(n in 1usize..13, paths in paths(), trap in any::<bool>(), cap in caps()) {
            census_matches_the_oracles(&tomography(n, paths, trap), cap);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// [`prop_census_matches_the_oracles`] at 20,000 cases (`cargo
        /// test --release -p churnlab-sat --lib -- --ignored
        /// census_matches_the_oracles`).
        #[test]
        #[ignore = "20,000 cases, run in release"]
        fn prop_census_matches_the_oracles_20k(n in 1usize..13, paths in paths(), trap in any::<bool>(), cap in caps()) {
            census_matches_the_oracles(&tomography(n, paths, trap), cap);
        }
    }
}
