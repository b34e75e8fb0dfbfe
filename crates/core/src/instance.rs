//! Clause formulation and tomography instances (§3.1).
//!
//! One [`TomographyInstance`] corresponds to one CNF: a single URL, a
//! single anomaly type, a single time window. Every converted AS-level
//! path becomes a clause over per-AS boolean variables — asserted True
//! (the disjunction must hold: *someone* on the path censored) when the
//! anomaly was observed, or False (unit negations: nobody on the path
//! censored) when it wasn't.
//!
//! Repeated identical observations are deduplicated — they add no logical
//! content — but *contradictory* observations (the same path both True and
//! False inside one window) are kept, making the CNF unsatisfiable exactly
//! as the paper describes for policy changes and noise.

use churnlab_bgp::TimeWindow;
use churnlab_platform::AnomalyType;
use churnlab_sat::{Cnf, Var};
use churnlab_topology::Asn;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identity of one CNF. The derived ordering (URL, then anomaly, then
/// window) is the canonical report order shared by the batch pipeline and
/// the sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceKey {
    /// The URL under test.
    pub url_id: u32,
    /// The anomaly type this CNF localizes.
    pub anomaly: AnomalyType,
    /// The time window.
    pub window: TimeWindow,
}

/// One path observation: the ordered AS path and whether the anomaly was
/// observed on it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Observation {
    /// AS path from vantage point to destination.
    pub path: Vec<Asn>,
    /// True if the anomaly was detected.
    pub censored: bool,
}

/// Builder accumulating observations into an instance.
///
/// The paper's §3.1 formulation, runnable:
///
/// ```
/// use churnlab_bgp::{Granularity, TimeWindow};
/// use churnlab_core::instance::{InstanceBuilder, InstanceKey};
/// use churnlab_platform::AnomalyType;
/// use churnlab_sat::{census, Solvability};
/// use churnlab_topology::Asn;
///
/// let key = InstanceKey {
///     url_id: 0,
///     anomaly: AnomalyType::Dns,
///     window: TimeWindow::of(0, Granularity::Day, 365),
/// };
/// let mut b = InstanceBuilder::new(key);
/// // Censored path X→Y→Z, then churn moves the route: X→Y→W is clean.
/// b.observe(&[Asn(1), Asn(2), Asn(3)], true);
/// b.observe(&[Asn(1), Asn(2), Asn(4)], false);
/// let inst = b.build().unwrap();
/// let result = census(&inst.cnf, 64);
/// assert_eq!(result.solvability(), Solvability::Unique);
/// ```
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    key: InstanceKey,
    /// Dedup index: path → polarity bitmask (bit 0 = clean seen, bit 1 =
    /// censored seen). Keyed by owned path but probed by slice, so the
    /// frequent duplicate observation hashes once and allocates nothing.
    seen: HashMap<Vec<Asn>, u8>,
    observations: Vec<Observation>,
}

impl InstanceBuilder {
    /// Start an instance.
    pub fn new(key: InstanceKey) -> Self {
        InstanceBuilder { key, seen: HashMap::new(), observations: Vec::new() }
    }

    /// The instance identity being built.
    pub fn key(&self) -> InstanceKey {
        self.key
    }

    /// Add one observation (deduplicated on (path, truth)).
    pub fn observe(&mut self, path: &[Asn], censored: bool) {
        let bit = if censored { 2u8 } else { 1 };
        match self.seen.get_mut(path) {
            Some(mask) if *mask & bit != 0 => return,
            Some(mask) => *mask |= bit,
            None => {
                self.seen.insert(path.to_vec(), bit);
            }
        }
        self.observations.push(Observation { path: path.to_vec(), censored });
    }

    /// Number of distinct observations so far.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True if nothing observed.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// True if at least one censored (positive) observation exists.
    pub fn has_positive(&self) -> bool {
        self.observations.iter().any(|o| o.censored)
    }

    /// Finalise into a [`TomographyInstance`]. Returns `None` for an empty
    /// builder.
    pub fn build(self) -> Option<TomographyInstance> {
        if self.observations.is_empty() {
            return None;
        }
        // Stable variable numbering: first appearance order.
        let mut var_of: HashMap<Asn, Var> = HashMap::new();
        let mut asn_of: Vec<Asn> = Vec::new();
        for obs in &self.observations {
            for asn in &obs.path {
                var_of.entry(*asn).or_insert_with(|| {
                    let v = Var(asn_of.len() as u32);
                    asn_of.push(*asn);
                    v
                });
            }
        }
        let mut cnf = Cnf::new(asn_of.len());
        for obs in &self.observations {
            let vars = obs.path.iter().map(|a| var_of[a]);
            if obs.censored {
                cnf.add_positive_clause(vars);
            } else {
                // Dedup is at observation level, so two clean paths
                // sharing an AS (or one path revisiting it) write its
                // unit negation twice. Both are kept: the census reads
                // them as one fact, and DIMACS export writes each.
                cnf.add_negative_facts(vars);
            }
        }
        Some(TomographyInstance { key: self.key, asn_of, var_of, cnf, observations: self.observations })
    }
}

/// A finalised CNF instance with its AS↔variable mapping and the ordered
/// path observations (kept for leakage analysis, which needs *positions*).
#[derive(Debug, Clone)]
pub struct TomographyInstance {
    /// Instance identity.
    pub key: InstanceKey,
    /// Variable index → ASN.
    pub asn_of: Vec<Asn>,
    /// ASN → variable.
    pub var_of: HashMap<Asn, Var>,
    /// The CNF.
    pub cnf: Cnf,
    /// The distinct observations the CNF was built from.
    pub observations: Vec<Observation>,
}

impl TomographyInstance {
    /// Number of variables (distinct ASes observed).
    pub fn n_vars(&self) -> usize {
        self.asn_of.len()
    }

    /// Number of positive (censored) observations.
    pub fn n_positive(&self) -> usize {
        self.observations.iter().filter(|o| o.censored).count()
    }

    /// Number of negative (clean) observations.
    pub fn n_negative(&self) -> usize {
        self.observations.len() - self.n_positive()
    }

    /// The ASN for a variable.
    pub fn asn(&self, v: Var) -> Asn {
        self.asn_of[v.usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_bgp::Granularity;
    use churnlab_sat::{census, Solvability};

    fn key() -> InstanceKey {
        InstanceKey {
            url_id: 7,
            anomaly: AnomalyType::Dns,
            window: TimeWindow::of(3, Granularity::Day, 365),
        }
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|x| Asn(*x)).collect()
    }

    #[test]
    fn paper_example_exact_identification() {
        // (X∨Y∨Z)=T with clean observations of X→Y via another URL path…
        // here: censored path [1,2,3]; clean path [1,2,4] ⇒ 3 censors.
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 2, 3]), true);
        b.observe(&asns(&[1, 2, 4]), false);
        let inst = b.build().unwrap();
        assert_eq!(inst.n_vars(), 4);
        assert_eq!(inst.n_positive(), 1);
        assert_eq!(inst.n_negative(), 1);
        let c = census(&inst.cnf, 64);
        assert_eq!(c.solvability(), Solvability::Unique);
        let model = c.unique_model.unwrap();
        let censors: Vec<Asn> = model
            .iter()
            .enumerate()
            .filter(|(_, t)| **t)
            .map(|(i, _)| inst.asn(Var(i as u32)))
            .collect();
        assert_eq!(censors, vec![Asn(3)]);
    }

    #[test]
    fn policy_change_yields_unsat() {
        // Same path censored AND clean inside one window (§3.1's example).
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 2, 3]), true);
        b.observe(&asns(&[1, 2, 3]), false);
        let inst = b.build().unwrap();
        assert_eq!(census(&inst.cnf, 64).solvability(), Solvability::Unsat);
    }

    #[test]
    fn no_churn_yields_many_solutions() {
        // Only one (censored) path: any non-empty subset of its ASes works.
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 2, 3]), true);
        let inst = b.build().unwrap();
        let c = census(&inst.cnf, 64);
        assert_eq!(c.solvability(), Solvability::Multiple);
        assert_eq!(c.count.lower_bound(), 7); // 2^3 - 1
    }

    #[test]
    fn duplicates_deduplicated_contradictions_kept() {
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 2]), true);
        b.observe(&asns(&[1, 2]), true);
        b.observe(&asns(&[1, 2]), false);
        assert_eq!(b.len(), 2, "identical observations dedup; contradiction kept");
    }

    #[test]
    fn empty_builder_builds_none() {
        assert!(InstanceBuilder::new(key()).build().is_none());
    }

    #[test]
    fn var_mapping_roundtrips() {
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[10, 20, 30]), true);
        let inst = b.build().unwrap();
        for (asn, var) in &inst.var_of {
            assert_eq!(inst.asn(*var), *asn);
        }
    }

    #[test]
    fn has_positive_tracks() {
        let mut b = InstanceBuilder::new(key());
        b.observe(&asns(&[1, 2]), false);
        assert!(!b.has_positive());
        b.observe(&asns(&[1, 3]), true);
        assert!(b.has_positive());
    }
}
