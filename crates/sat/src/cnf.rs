//! CNF formulas: variables, literals, clauses, DIMACS interop.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A propositional variable, 0-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Var(pub u32);

impl Var {
    /// Index for array access.
    #[inline]
    pub fn usize(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Lit {
    /// The variable.
    pub var: Var,
    /// True for the positive literal `x`, false for `¬x`.
    pub positive: bool,
}

impl Lit {
    /// Positive literal of `var`.
    pub fn pos(var: Var) -> Lit {
        Lit { var, positive: true }
    }

    /// Negative literal of `var`.
    pub fn neg(var: Var) -> Lit {
        Lit { var, positive: false }
    }

    /// The opposite literal.
    pub fn negated(self) -> Lit {
        Lit { var: self.var, positive: !self.positive }
    }

    /// Evaluate under a (partial) assignment; `None` if unassigned.
    pub fn eval(self, assignment: &[Option<bool>]) -> Option<bool> {
        assignment[self.var.usize()].map(|v| v == self.positive)
    }
}

/// A disjunction of literals.
pub type Clause = Vec<Lit>;

/// A CNF formula: conjunction of clauses over `n_vars` variables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cnf {
    n_vars: usize,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Empty formula (trivially satisfiable) over `n_vars` variables.
    pub fn new(n_vars: usize) -> Self {
        Cnf { n_vars, clauses: Vec::new() }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of clauses.
    pub fn n_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Add a clause. Panics if a literal references a variable outside the
    /// formula; deduplicates repeated literals inside the clause.
    /// Tautological clauses (x ∨ ¬x ∨ …) are dropped.
    pub fn add_clause(&mut self, mut clause: Clause) {
        for l in &clause {
            assert!(l.var.usize() < self.n_vars, "literal {:?} out of range", l);
        }
        // Clauses of length ≤ 1 are canonical already: skip the
        // sort/dedup/tautology sweep (unit negations dominate tomography
        // instances, so this is the common case).
        if clause.len() > 1 {
            clause.sort();
            clause.dedup();
            if clause.windows(2).any(|w| w[0].var == w[1].var) {
                return; // tautology
            }
        }
        self.clauses.push(clause);
    }

    /// Add the positive clause `(v1 ∨ v2 ∨ …)` — a measurement that
    /// *observed* the anomaly on a path (§3.1).
    pub fn add_positive_clause(&mut self, vars: impl IntoIterator<Item = Var>) {
        self.add_clause(vars.into_iter().map(Lit::pos).collect());
    }

    /// Add unit negative clauses `¬v1, ¬v2, …` — a clean measurement
    /// asserts every AS on the path is not the censor. Unit clauses need
    /// no canonicalization, so this pushes them directly (reserving from
    /// the iterator's size hint) instead of paying [`Cnf::add_clause`]'s
    /// sort/dedup path per AS.
    pub fn add_negative_facts(&mut self, vars: impl IntoIterator<Item = Var>) {
        let vars = vars.into_iter();
        self.clauses.reserve(vars.size_hint().0);
        for v in vars {
            assert!(v.usize() < self.n_vars, "variable {:?} out of range", v);
            self.clauses.push(vec![Lit::neg(v)]);
        }
    }

    /// Evaluate the formula under a complete assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.n_vars);
        self.clauses.iter().all(|c| {
            c.iter().any(|l| assignment[l.var.usize()] == l.positive)
        })
    }

    /// Export in DIMACS CNF format (1-based, negatives as `-v`).
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.n_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                let v = l.var.0 as i64 + 1;
                let _ = write!(out, "{} ", if l.positive { v } else { -v });
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Parse DIMACS CNF (accepts `c` comment lines and whitespace).
    pub fn from_dimacs(text: &str) -> Result<Cnf, DimacsError> {
        let mut cnf: Option<Cnf> = None;
        let mut declared_clauses = 0usize;
        let mut current: Clause = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if line.starts_with('p') {
                if cnf.is_some() {
                    return Err(DimacsError::new(lineno, "duplicate problem line"));
                }
                let parts: Vec<&str> = line.split_whitespace().collect();
                if parts.len() != 4 || parts[1] != "cnf" {
                    return Err(DimacsError::new(lineno, "malformed problem line"));
                }
                let n_vars: usize =
                    parts[2].parse().map_err(|_| DimacsError::new(lineno, "bad var count"))?;
                // `Var` is a u32 index: variables 1..=2^32 are all it can
                // name, and a larger count would wrap literals onto them.
                if n_vars as u64 > 1 << 32 {
                    return Err(DimacsError::new(lineno, "more variables than a Var can name"));
                }
                declared_clauses =
                    parts[3].parse().map_err(|_| DimacsError::new(lineno, "bad clause count"))?;
                cnf = Some(Cnf::new(n_vars));
                continue;
            }
            let cnf_ref = cnf.as_mut().ok_or(DimacsError::new(lineno, "clause before p line"))?;
            for tok in line.split_whitespace() {
                let v: i64 = tok.parse().map_err(|_| DimacsError::new(lineno, "bad literal"))?;
                if v == 0 {
                    cnf_ref.add_clause(std::mem::take(&mut current));
                } else {
                    let var = v.unsigned_abs() as usize - 1;
                    if var >= cnf_ref.n_vars {
                        return Err(DimacsError::new(lineno, "literal out of range"));
                    }
                    current.push(Lit { var: Var(var as u32), positive: v > 0 });
                }
            }
        }
        let cnf = cnf.ok_or(DimacsError::new(0, "missing problem line"))?;
        if !current.is_empty() {
            return Err(DimacsError::new(0, "unterminated final clause"));
        }
        // Clause-count mismatches are tolerated (tautologies get dropped on
        // insert), but wildly missing clauses indicate truncation.
        if cnf.n_clauses() > declared_clauses {
            return Err(DimacsError::new(0, "more clauses than declared"));
        }
        Ok(cnf)
    }
}

/// DIMACS parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimacsError {
    /// 0-based line number (0 also used for end-of-input errors).
    pub line: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl DimacsError {
    fn new(line: usize, message: &'static str) -> Self {
        DimacsError { line, message }
    }
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dimacs parse error at line {}: {}", self.line + 1, self.message)
    }
}

impl std::error::Error for DimacsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval() {
        let mut f = Cnf::new(3);
        f.add_positive_clause([Var(0), Var(1), Var(2)]);
        f.add_negative_facts([Var(1)]);
        assert!(f.eval(&[true, false, false]));
        assert!(f.eval(&[false, false, true]));
        assert!(!f.eval(&[false, false, false]));
        assert!(!f.eval(&[true, true, false])); // violates ¬v1
    }

    #[test]
    fn tautologies_dropped_duplicates_merged() {
        let mut f = Cnf::new(2);
        f.add_clause(vec![Lit::pos(Var(0)), Lit::neg(Var(0))]);
        assert_eq!(f.n_clauses(), 0, "tautology must be dropped");
        f.add_clause(vec![Lit::pos(Var(1)), Lit::pos(Var(1))]);
        assert_eq!(f.clauses()[0].len(), 1, "duplicate literal must merge");
    }

    #[test]
    #[should_panic]
    fn out_of_range_literal_panics() {
        let mut f = Cnf::new(1);
        f.add_positive_clause([Var(5)]);
    }

    #[test]
    fn dimacs_roundtrip() {
        let mut f = Cnf::new(4);
        f.add_positive_clause([Var(0), Var(2)]);
        f.add_negative_facts([Var(1), Var(3)]);
        let text = f.to_dimacs();
        let back = Cnf::from_dimacs(&text).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn dimacs_parses_comments_and_whitespace() {
        let text = "c a comment\nc another\np cnf 2 2\n 1  2 0\n-1 0\n";
        let f = Cnf::from_dimacs(text).unwrap();
        assert_eq!(f.n_vars(), 2);
        assert_eq!(f.n_clauses(), 2);
    }

    #[test]
    fn dimacs_rejects_malformed() {
        assert!(Cnf::from_dimacs("").is_err());
        assert!(Cnf::from_dimacs("p cnf x 1\n1 0\n").is_err());
        assert!(Cnf::from_dimacs("1 0\np cnf 1 1\n").is_err());
        assert!(Cnf::from_dimacs("p cnf 1 1\n2 0\n").is_err());
        assert!(Cnf::from_dimacs("p cnf 1 1\n1\n").is_err());
        assert!(Cnf::from_dimacs("p cnf 2 1\n1 0\n2 0\n").is_err());
    }

    #[test]
    fn dimacs_rejects_variable_counts_past_u32() {
        let err = Cnf::from_dimacs("p cnf 4294967297 1\n4294967297 0\n").unwrap_err();
        assert_eq!(err, DimacsError { line: 0, message: "more variables than a Var can name" });
        // 2^32 variables is the most a `Var` names: the last is Var(u32::MAX).
        let f = Cnf::from_dimacs("p cnf 4294967296 1\n-4294967296 0\n").unwrap();
        assert_eq!(f.clauses(), [vec![Lit::neg(Var(u32::MAX))]]);
    }

    #[test]
    fn literal_negation() {
        let l = Lit::pos(Var(3));
        assert_eq!(l.negated(), Lit::neg(Var(3)));
        assert_eq!(l.negated().negated(), l);
    }

    #[test]
    fn literal_eval_partial() {
        let a = vec![Some(true), None];
        assert_eq!(Lit::pos(Var(0)).eval(&a), Some(true));
        assert_eq!(Lit::neg(Var(0)).eval(&a), Some(false));
        assert_eq!(Lit::pos(Var(1)).eval(&a), None);
    }
}
