//! Exhaustive evaluation, for cross-checking both solvers.
//!
//! Only usable for small variable counts (≤ 24); the property tests pit
//! [`crate::reference`] and [`crate::monotone`] against these.

use crate::cnf::Cnf;
use crate::enumerate::Backbone;

/// Exact model count by exhaustive evaluation. Panics above 24 variables.
pub fn count(cnf: &Cnf) -> u64 {
    let n = cnf.n_vars();
    assert!(n <= 24, "brute force limited to 24 vars, got {n}");
    let mut count = 0u64;
    let mut assignment = vec![false; n];
    for bits in 0..(1u64 << n) {
        for (i, a) in assignment.iter_mut().enumerate() {
            *a = bits >> i & 1 == 1;
        }
        if cnf.eval(&assignment) {
            count += 1;
        }
    }
    count
}

/// Exact backbone by exhaustive evaluation; `None` if unsatisfiable.
pub fn backbone(cnf: &Cnf) -> Option<Backbone> {
    let n = cnf.n_vars();
    assert!(n <= 24, "brute force limited to 24 vars, got {n}");
    let mut ever_true = vec![false; n];
    let mut ever_false = vec![false; n];
    let mut any = false;
    let mut assignment = vec![false; n];
    for bits in 0..(1u64 << n) {
        for (i, a) in assignment.iter_mut().enumerate() {
            *a = bits >> i & 1 == 1;
        }
        if cnf.eval(&assignment) {
            any = true;
            for (i, a) in assignment.iter().enumerate() {
                if *a {
                    ever_true[i] = true;
                } else {
                    ever_false[i] = true;
                }
            }
        }
    }
    any.then_some(Backbone { ever_true, ever_false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Cnf, Var};

    #[test]
    fn count_empty() {
        assert_eq!(count(&Cnf::new(4)), 16);
    }

    #[test]
    fn count_simple() {
        let mut f = Cnf::new(2);
        f.add_positive_clause([Var(0), Var(1)]);
        assert_eq!(count(&f), 3);
    }

    #[test]
    fn backbone_simple() {
        let mut f = Cnf::new(2);
        f.add_positive_clause([Var(0)]);
        let b = backbone(&f).unwrap();
        assert_eq!(b.always_true(), vec![Var(0)]);
        assert!(b.always_false().is_empty());
    }
}
