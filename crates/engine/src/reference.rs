//! The pre-interning incremental instance, retained verbatim.
//!
//! [`UninternedInstance`] is the engine's original per-instance state:
//! every `observe` call probes a `HashMap<Vec<Asn>, u8>` dedup index —
//! hashing the **full path once per instance cell** — and stores owned
//! `Vec<Asn>` copies for observations and positive clauses. The live
//! engine replaced it with the [`crate::PathTable`]-interned
//! [`crate::incremental::InstanceGroup`]; this copy is kept as
//!
//! * the **before** contender in the `path_intern_bench` regression gate
//!   (the dedup-probe speedup is measured against it in-process, so the
//!   gate is machine-relative), and
//! * a **differential oracle**: the property tests assert the interned
//!   group produces the same [`InstanceOutcome`] for every observation
//!   sequence.
//!
//! Do not "optimize" this module — its cost model *is* the baseline.

use crate::incremental::IncrementalStats;
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::instance::{InstanceKey, Observation};
use churnlab_sat::monotone::Monotone;
use churnlab_sat::{SolutionCount, Solvability, Var};
use churnlab_topology::Asn;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Per-AS backbone knowledge (see `crate::incremental` for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    AlwaysTrue,
    AlwaysFalse,
    Both,
}

/// The memoized solve state.
#[derive(Debug, Clone)]
enum Memo {
    Trivial,
    Unsat,
    Solved { count: SolutionCount, fate: HashMap<Asn, Fate> },
}

/// Reusable solving scratch for the reference path: the old map-heavy
/// layout (`HashMap` AS↔var mappings), kept as-is so the baseline's cost
/// model is preserved, and the closed form's scratch for the residual
/// count.
#[derive(Debug, Default)]
pub struct ReferenceScratch {
    mono: Monotone,
    var_of: HashMap<Asn, Var>,
    fixed: HashMap<Asn, bool>,
    free_vars: Vec<Asn>,
}

impl ReferenceScratch {
    /// Fresh scratch.
    pub fn new() -> Self {
        ReferenceScratch::default()
    }
}

const SEEN_CLEAN: u8 = 1;
const SEEN_CENSORED: u8 = 2;

/// One (URL × window × anomaly) instance kept incrementally solved, path
/// keyed — the original un-interned implementation.
#[derive(Debug, Clone)]
pub struct UninternedInstance {
    key: InstanceKey,
    seen: HashMap<Vec<Asn>, u8>,
    observations: Vec<Observation>,
    n_positive: usize,
    vars: Vec<Asn>,
    var_set: HashSet<Asn>,
    pos_clauses: Vec<Vec<Asn>>,
    neg_forced: HashSet<Asn>,
    memo: Memo,
}

fn cap_count(value: u128, cap: u64) -> SolutionCount {
    if value > u128::from(cap) {
        SolutionCount::AtLeast(cap)
    } else {
        SolutionCount::Exact(value as u64)
    }
}

fn scale_count(count: SolutionCount, factor: u128, cap: u64) -> SolutionCount {
    debug_assert!(factor >= 1);
    match count {
        SolutionCount::Exact(n) => cap_count(u128::from(n) * factor, cap),
        SolutionCount::AtLeast(_) => SolutionCount::AtLeast(cap),
    }
}

fn pow2(n: usize) -> u128 {
    if n >= 127 {
        u128::MAX
    } else {
        1u128 << n
    }
}

impl UninternedInstance {
    /// Fresh instance.
    pub fn new(key: InstanceKey) -> Self {
        UninternedInstance {
            key,
            seen: HashMap::new(),
            observations: Vec::new(),
            n_positive: 0,
            vars: Vec::new(),
            var_set: HashSet::new(),
            pos_clauses: Vec::new(),
            neg_forced: HashSet::new(),
            memo: Memo::Trivial,
        }
    }

    /// The instance identity.
    pub fn key(&self) -> InstanceKey {
        self.key
    }

    /// Distinct observations so far.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True if nothing observed.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Fold in one observation (original path-keyed dedup: one full-path
    /// hash per call, `path.to_vec()` copies on update).
    pub fn observe(
        &mut self,
        path: &[Asn],
        censored: bool,
        cap: u64,
        stats: &mut IncrementalStats,
        scratch: &mut ReferenceScratch,
    ) {
        let bit = if censored { SEEN_CENSORED } else { SEEN_CLEAN };
        match self.seen.get_mut(path) {
            Some(mask) if *mask & bit != 0 => {
                stats.duplicates += 1;
                return;
            }
            Some(mask) => *mask |= bit,
            None => {
                self.seen.insert(path.to_vec(), bit);
            }
        }
        self.observations.push(Observation { path: path.to_vec(), censored });
        stats.updates += 1;
        for a in path {
            if self.var_set.insert(*a) {
                self.vars.push(*a);
            }
        }
        if censored {
            self.n_positive += 1;
            self.pos_clauses.push(path.to_vec());
        } else {
            self.neg_forced.extend(path.iter().copied());
        }

        if matches!(self.memo, Memo::Unsat) {
            stats.unsat_skips += 1;
            return;
        }
        if censored {
            self.apply_positive(path, cap, stats, scratch);
        } else {
            self.apply_negative(path, cap, stats, scratch);
        }
    }

    fn apply_positive(
        &mut self,
        path: &[Asn],
        cap: u64,
        stats: &mut IncrementalStats,
        scratch: &mut ReferenceScratch,
    ) {
        match &mut self.memo {
            Memo::Unsat => unreachable!("handled by caller"),
            Memo::Trivial => {
                let candidates: BTreeSet<Asn> =
                    path.iter().filter(|a| !self.neg_forced.contains(a)).copied().collect();
                stats.direct_updates += 1;
                if candidates.is_empty() {
                    self.memo = Memo::Unsat;
                    return;
                }
                let mut fate: HashMap<Asn, Fate> =
                    self.vars.iter().map(|a| (*a, Fate::AlwaysFalse)).collect();
                if candidates.len() == 1 {
                    fate.insert(*candidates.iter().next().expect("non-empty"), Fate::AlwaysTrue);
                    self.memo = Memo::Solved { count: SolutionCount::Exact(1), fate };
                } else {
                    for a in &candidates {
                        fate.insert(*a, Fate::Both);
                    }
                    let count = cap_count(pow2(candidates.len()) - 1, cap);
                    self.memo = Memo::Solved { count, fate };
                }
            }
            Memo::Solved { count, fate } => {
                let fresh: BTreeSet<Asn> =
                    path.iter().filter(|a| !fate.contains_key(a)).copied().collect();
                let satisfied = path.iter().any(|a| fate.get(a) == Some(&Fate::AlwaysTrue));
                if satisfied {
                    stats.direct_updates += 1;
                    if !fresh.is_empty() {
                        *count = scale_count(*count, pow2(fresh.len()), cap);
                        for a in &fresh {
                            fate.insert(*a, Fate::Both);
                        }
                    }
                    return;
                }
                let undecided = path.iter().any(|a| fate.get(a) == Some(&Fate::Both));
                if undecided {
                    stats.resolves += 1;
                    self.resolve(cap, scratch);
                    return;
                }
                stats.direct_updates += 1;
                match fresh.len() {
                    0 => self.memo = Memo::Unsat,
                    1 => {
                        fate.insert(*fresh.iter().next().expect("one"), Fate::AlwaysTrue);
                    }
                    n => {
                        *count = scale_count(*count, pow2(n) - 1, cap);
                        for a in &fresh {
                            fate.insert(*a, Fate::Both);
                        }
                    }
                }
            }
        }
    }

    fn apply_negative(
        &mut self,
        path: &[Asn],
        cap: u64,
        stats: &mut IncrementalStats,
        scratch: &mut ReferenceScratch,
    ) {
        match &mut self.memo {
            Memo::Unsat => unreachable!("handled by caller"),
            Memo::Trivial => {
                stats.direct_updates += 1;
            }
            Memo::Solved { fate, .. } => {
                if path.iter().any(|a| fate.get(a) == Some(&Fate::AlwaysTrue)) {
                    stats.direct_updates += 1;
                    self.memo = Memo::Unsat;
                    return;
                }
                if path.iter().all(|a| !matches!(fate.get(a), Some(Fate::Both))) {
                    stats.direct_updates += 1;
                    for a in path {
                        fate.entry(*a).or_insert(Fate::AlwaysFalse);
                    }
                    return;
                }
                stats.resolves += 1;
                self.resolve(cap, scratch);
            }
        }
    }

    fn resolve(&mut self, cap: u64, scratch: &mut ReferenceScratch) {
        let fixed = &mut scratch.fixed;
        fixed.clear();
        for a in &self.neg_forced {
            fixed.insert(*a, false);
        }
        let mut fate = match std::mem::replace(&mut self.memo, Memo::Unsat) {
            Memo::Solved { fate, .. } => {
                for (a, f) in &fate {
                    let v = match f {
                        Fate::AlwaysTrue => true,
                        Fate::AlwaysFalse => false,
                        Fate::Both => continue,
                    };
                    if fixed.insert(*a, v) == Some(!v) {
                        return;
                    }
                }
                let mut fate = fate;
                fate.clear();
                fate
            }
            _ => HashMap::with_capacity(self.vars.len()),
        };
        loop {
            let mut changed = false;
            for clause in &self.pos_clauses {
                if clause.iter().any(|a| fixed.get(a) == Some(&true)) {
                    continue;
                }
                let mut first_free: Option<Asn> = None;
                let mut multi = false;
                for a in clause {
                    if fixed.contains_key(a) {
                        continue;
                    }
                    match first_free {
                        None => first_free = Some(*a),
                        Some(f) if f != *a => {
                            multi = true;
                            break;
                        }
                        Some(_) => {}
                    }
                }
                match first_free {
                    None => return,
                    Some(a) if !multi => {
                        fixed.insert(a, true);
                        changed = true;
                    }
                    Some(_) => {}
                }
            }
            if !changed {
                break;
            }
        }
        let var_of = &mut scratch.var_of;
        let free_vars = &mut scratch.free_vars;
        var_of.clear();
        free_vars.clear();
        for a in &self.vars {
            if !fixed.contains_key(a) {
                var_of.insert(*a, Var(free_vars.len() as u32));
                free_vars.push(*a);
            }
        }
        // What propagation leaves is monotone with two free ASes on every
        // unhit clause: every free AS is `Both`, and the closed form
        // counts the models.
        let mono = &mut scratch.mono;
        mono.reset(free_vars.len());
        for clause in &self.pos_clauses {
            if clause.iter().any(|a| fixed.get(a) == Some(&true)) {
                continue;
            }
            mono.add_clause(clause.iter().filter_map(|a| var_of.get(a)).map(|v| v.0));
        }
        let count = mono.count(cap);
        for (a, v) in fixed.iter() {
            fate.insert(*a, if *v { Fate::AlwaysTrue } else { Fate::AlwaysFalse });
        }
        for a in free_vars.iter() {
            fate.insert(*a, Fate::Both);
        }
        self.memo = Memo::Solved { count, fate };
    }

    /// The analysed outcome (see `crate::incremental` for the contract).
    pub fn outcome(&self) -> InstanceOutcome {
        let n_vars = self.vars.len();
        let (solvability, bucket, censors, potential, eliminated) = match &self.memo {
            Memo::Trivial => {
                let mut elim = self.vars.clone();
                elim.sort();
                (Solvability::Unique, 1u8, Vec::new(), Vec::new(), elim)
            }
            Memo::Unsat => (Solvability::Unsat, 0, Vec::new(), Vec::new(), Vec::new()),
            Memo::Solved { count, fate } => {
                let solvability = count.solvability();
                let mut censors = Vec::new();
                let mut potential = Vec::new();
                let mut eliminated = Vec::new();
                for (a, f) in fate {
                    match f {
                        Fate::AlwaysTrue => censors.push(*a),
                        Fate::AlwaysFalse => eliminated.push(*a),
                        Fate::Both => potential.push(*a),
                    }
                }
                censors.sort();
                potential.sort();
                eliminated.sort();
                (solvability, count.bucket(), censors, potential, eliminated)
            }
        };
        let eliminated_frac =
            if n_vars == 0 { 0.0 } else { eliminated.len() as f64 / n_vars as f64 };
        InstanceOutcome {
            key: self.key,
            n_vars,
            n_observations: self.observations.len(),
            n_positive: self.n_positive,
            solvability,
            bucket,
            censors,
            potential_censors: potential,
            eliminated,
            eliminated_frac,
        }
    }
}
