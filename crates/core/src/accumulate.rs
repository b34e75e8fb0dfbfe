//! Censor-finding and leakage accumulation for the sharded
//! `churnlab-engine`.
//!
//! What is done with each analysed instance: fold backbone-definite
//! censors into per-AS findings and feed censor-bearing instances to
//! the §3.3 leakage analysis. [`FindingsAccumulator`] holds that union,
//! and the engine's observability horizon beside it.
//!
//! The engine serves the union of its findings over and over while its
//! instances change, so it keeps the union as counts:
//! [`FindingFacts`] is what one group of instances contributes, and
//! [`FindingsTally`] counts the facts of every contribution it holds —
//! one goes in when its group is solved and out when the group is
//! re-solved or drained — and materializes their union as a
//! [`FindingsAccumulator`]. The executable spec's findings fold
//! (`churnlab_oracle::findings`) is what both are held against.

use crate::analyze::InstanceOutcome;
use crate::leakage::{for_each_leak, LeakageReport};
use crate::pipeline::CensorFinding;
use churnlab_platform::AnomalyType;
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{Asn, FxMap};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Accumulates censor findings, leakage, and the observability horizon
/// over a stream of analysed instances.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FindingsAccumulator {
    /// Identified censors: backbone-definite in at least one CNF.
    pub censor_findings: HashMap<Asn, CensorFinding>,
    /// Leakage analysis over censor-bearing instances.
    pub leakage: LeakageReport,
    /// ASes seen on at least one censored path of an analysed instance.
    pub on_censored_path: HashSet<Asn>,
}

impl FindingsAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge another accumulator into this one. Findings and victim sets
    /// union and instance counts add, so the unions of disjoint sets of
    /// instances merge to the union of all of them — which is how the
    /// engine joins its shards' reports, and joins them to what
    /// compaction drained. By reference: the drained union outlives
    /// every report.
    pub fn merge(&mut self, other: &FindingsAccumulator) {
        for (asn, f) in &other.censor_findings {
            match self.censor_findings.entry(*asn) {
                Entry::Vacant(e) => {
                    e.insert(f.clone());
                }
                Entry::Occupied(mut e) => {
                    let mine = e.get_mut();
                    mine.anomalies.extend(&f.anomalies);
                    mine.url_ids.extend(&f.url_ids);
                    mine.n_instances += f.n_instances;
                }
            }
        }
        self.leakage.merge(&other.leakage);
        self.on_censored_path.extend(&other.on_censored_path);
    }
}

/// What a set of analysed instances adds to the findings union, as
/// facts — the form [`FindingsTally`] counts. The observability horizon
/// is not among them: the engine keeps it per shard, for every censored
/// path, whether or not a finding came of it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FindingFacts {
    /// (censor, anomaly, URL) once per instance naming the censor
    /// definite, so a censor's facts number its `n_instances`.
    censors: Vec<(Asn, AnomalyType, u32)>,
    /// (censor, victim, the victim's country where it is not the
    /// censor's), once per time [`for_each_leak`] reports it.
    leaks: Vec<(Asn, Asn, Option<CountryCode>)>,
}

impl FindingFacts {
    /// Add one analysed instance's facts, given its outcome, the
    /// censored AS-level paths it was built from (the set matters, not
    /// the order), and the AS → registered-country lookup
    /// [`for_each_leak`] needs.
    pub fn record<'a>(
        &mut self,
        outcome: &InstanceOutcome,
        censored_paths: impl IntoIterator<Item = &'a [Asn]>,
        country_of: impl Fn(Asn) -> Option<CountryCode>,
    ) {
        if outcome.censors.is_empty() {
            return;
        }
        let key = outcome.key;
        self.censors.extend(outcome.censors.iter().map(|&asn| (asn, key.anomaly, key.url_id)));
        for_each_leak(censored_paths, outcome, country_of, |censor, victim, foreign| {
            self.leaks.push((censor, victim, foreign))
        });
    }
}

/// The findings union of a changing set of [`FindingFacts`], held as
/// counts: [`FindingsTally::add`] and [`FindingsTally::remove`] cost a
/// contribution's size, whatever else the tally holds, and
/// [`FindingsTally::materialize`] costs the union's size.
#[derive(Debug, Clone, Default)]
pub struct FindingsTally {
    censors: FxMap<(Asn, AnomalyType, u32), u64>,
    leaks: FxMap<(Asn, Asn, Option<CountryCode>), u64>,
}

impl FindingsTally {
    /// Count one contribution in.
    pub fn add(&mut self, facts: &FindingFacts) {
        facts.censors.iter().for_each(|&f| *self.censors.entry(f).or_default() += 1);
        facts.leaks.iter().for_each(|&f| *self.leaks.entry(f).or_default() += 1);
    }

    /// Count out a contribution [`FindingsTally::add`] counted in.
    ///
    /// # Panics
    ///
    /// If one of its facts is not counted.
    pub fn remove(&mut self, facts: &FindingFacts) {
        fn count_out<K: std::hash::Hash + Eq>(counts: &mut FxMap<K, u64>, fact: K) {
            let Entry::Occupied(mut e) = counts.entry(fact) else {
                panic!("a fact is counted out of a tally that never counted it in")
            };
            *e.get_mut() -= 1;
            if *e.get() == 0 {
                e.remove();
            }
        }
        facts.censors.iter().for_each(|&f| count_out(&mut self.censors, f));
        facts.leaks.iter().for_each(|&f| count_out(&mut self.leaks, f));
    }

    /// The [`FindingsAccumulator`] whose censor findings and leakage the
    /// union of the counted contributions' folds holds; its observability
    /// horizon is left empty.
    pub fn materialize(&self) -> FindingsAccumulator {
        let mut acc = FindingsAccumulator::new();
        for (&(asn, anomaly, url_id), &n) in &self.censors {
            let f = acc.censor_findings.entry(asn).or_insert_with(|| CensorFinding {
                asn,
                anomalies: BTreeSet::new(),
                url_ids: BTreeSet::new(),
                n_instances: 0,
            });
            f.anomalies.insert(anomaly);
            f.url_ids.insert(url_id);
            f.n_instances += n;
        }
        for &(censor, victim, foreign) in self.leaks.keys() {
            acc.leakage.insert(censor, victim, foreign);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Taking out what was never put in is a bug the tally names.
    #[test]
    #[should_panic(expected = "never counted it in")]
    fn removing_an_uncounted_fact_panics() {
        let mut facts = FindingFacts::default();
        facts.censors.push((Asn(1), AnomalyType::ALL[0], 0));
        FindingsTally::default().remove(&facts);
    }
}
