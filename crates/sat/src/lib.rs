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
//! Modules:
//!
//! * [`cnf`] — literals, clauses, formulas, and DIMACS import/export
//!   (interoperates with real off-the-shelf solvers; see the
//!   `dimacs_export` example).
//! * [`compiled`] — [`CompiledCnf`]: flat CSR clause storage (one literal
//!   arena plus clause offsets), built once per instance and reusable as
//!   a builder without reallocating.
//! * [`ctx`] — [`SolverCtx`]: the reusable watched-literal solver
//!   context. Two-watched-literal unit propagation, trail-based undo,
//!   assumption push/pop, epoch-stamped branch scoring, and a census that
//!   harvests every enumerated model into the backbone. One context
//!   serves any number of instances with zero steady-state allocations.
//! * [`solver`] / [`enumerate`] — the historical one-shot API ([`solve`],
//!   [`census`], …), now thin cold-context wrappers over [`ctx`].
//! * [`mod@reference`] — the original full-rescan solver core, retained as a
//!   differential-testing oracle and in-run performance baseline.
//! * [`brute`] — an exhaustive reference implementation used by the
//!   property tests to cross-check everything above.
//!
//! Instances here are small (tens of variables, hundreds of clauses) but
//! solved millions of times — every localization result funnels through
//! [`census`] — so the hot path is engineered: no recursion, no
//! per-decision allocation, saturating counters, and explicit handling of
//! empty formulas and tautological inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute;
pub mod cnf;
pub mod compiled;
pub mod ctx;
pub mod enumerate;
pub mod reference;
pub mod solver;

pub use cnf::{Clause, Cnf, DimacsError, Lit, Var};
pub use compiled::CompiledCnf;
pub use ctx::{CtxStats, SolverCtx};
pub use enumerate::{backbone, census, count_solutions, Backbone, SolutionCensus, SolutionCount};
pub use solver::{solve, solve_with};

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
