//! # churnlab-sat
//!
//! A from-scratch boolean satisfiability toolkit sized for the paper's
//! workload.
//!
//! The paper feeds each (URL × time-window × anomaly) CNF to "an
//! off-the-shelf SAT solver" and needs three things back (§3.2):
//!
//! 1. **Solvability class** — no solution (policy change / measurement
//!    noise), exactly one (censors exactly identified), or multiple;
//! 2. for multiple solutions, **which variables are False in every
//!    solution** (definite non-censors — how the candidate set shrinks by
//!    95.2% on average, Figure 2);
//! 3. **solution counts** (Figure 4 buckets 0,1,2,3,4,5+).
//!
//! Every CNF the paper builds is monotone — positive path clauses plus
//! negative unit facts — so all three have a closed form, and the crate
//! keeps one product solver and one oracle:
//!
//! * [`monotone`] — the closed form: unit propagation, then H × 2^k
//!   models (the module doc has the argument). `churnlab-core`'s
//!   `analyze` and the engine's incremental re-solve both run it.
//! * [`mod@reference`] — a DPLL solver, AllSAT counter and probe-based
//!   backbone for *any* CNF: the oracle the closed form is held against,
//!   re-exported at the crate root as [`solve`], [`solve_with`],
//!   [`count_solutions`], [`backbone`] and [`census`].
//! * [`brute`] — exhaustive evaluation, which holds the oracle itself.
//! * [`cnf`] — literals, clauses, formulas, and DIMACS import/export
//!   (interoperates with real off-the-shelf solvers; see the
//!   `dimacs_export` example).
//! * [`enumerate`] — the result types: [`SolutionCount`], [`Backbone`],
//!   [`SolutionCensus`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod cnf;
pub mod enumerate;
pub mod monotone;
pub mod reference;

pub use cnf::{Clause, Cnf, DimacsError, Lit, Var};
pub use enumerate::{Backbone, SolutionCensus, SolutionCount};
pub use reference::{backbone, census, count_solutions, solve, solve_with};

/// Solvability classes the tomography pipeline distinguishes (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Solvability {
    /// No satisfying assignment: noise or a policy change inside the
    /// window.
    Unsat,
    /// Exactly one satisfying assignment: censors exactly identified.
    Unique,
    /// Two or more satisfying assignments: a set of potential censors.
    Multiple,
}

impl Solvability {
    /// Label used in figures ("0", "1", "2+").
    pub fn label(self) -> &'static str {
        match self {
            Solvability::Unsat => "0",
            Solvability::Unique => "1",
            Solvability::Multiple => "2+",
        }
    }
}

impl std::fmt::Display for Solvability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
