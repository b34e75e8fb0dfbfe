//! Censor-finding and leakage accumulation, shared by the batch
//! [`crate::pipeline::Pipeline`] and the sharded `churnlab-engine`.
//!
//! Both consumers produce a stream of analysed instances; what they do
//! with each outcome is identical — fold backbone-definite censors into
//! per-AS findings, feed censor-bearing instances to the §3.3 leakage
//! analysis, and track the observability horizon. [`FindingsAccumulator`]
//! is that fold, factored out so the two paths cannot drift.
//!
//! The engine serves the union of its findings over and over while its
//! instances change, so it keeps the union as counts instead:
//! [`FindingFacts`] is what one group of instances contributes, and
//! [`FindingsTally`] counts the facts of every contribution it holds —
//! one goes in when its group is solved and out when the group is
//! re-solved or drained — and materializes the same
//! [`FindingsAccumulator`] the contributions' folds would union to.

use crate::analyze::InstanceOutcome;
use crate::instance::TomographyInstance;
use crate::leakage::{for_each_leak, LeakageReport};
use crate::pipeline::CensorFinding;
use churnlab_platform::AnomalyType;
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{Asn, FxMap, Topology};
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

    /// Fold in one analysed instance given its outcome, the censored
    /// AS-level paths it was built from (deduplicated observation order;
    /// the set matters, not the order), and the AS → registered-country
    /// lookup the leakage analysis needs (see
    /// [`LeakageReport::ingest_paths`]).
    pub fn record<'a>(
        &mut self,
        outcome: &InstanceOutcome,
        censored_paths: impl IntoIterator<Item = &'a [Asn]> + Clone,
        country_of: impl Fn(Asn) -> Option<CountryCode>,
    ) {
        for path in censored_paths.clone() {
            self.on_censored_path.extend(path.iter().copied());
        }
        // Definite censors (backbone-true) count whether the CNF has one
        // model or several — see `analyze`.
        if outcome.censors.is_empty() {
            return;
        }
        for asn in &outcome.censors {
            let f = self.censor_findings.entry(*asn).or_insert_with(|| CensorFinding {
                asn: *asn,
                anomalies: BTreeSet::new(),
                url_ids: BTreeSet::new(),
                n_instances: 0,
            });
            f.anomalies.insert(outcome.key.anomaly);
            f.url_ids.insert(outcome.key.url_id);
            f.n_instances += 1;
        }
        self.leakage.ingest_paths(censored_paths, outcome, country_of);
    }

    /// Fold in one analysed instance straight from its
    /// [`TomographyInstance`].
    pub fn record_instance(
        &mut self,
        inst: &TomographyInstance,
        outcome: &InstanceOutcome,
        topo: &Topology,
    ) {
        let censored: Vec<&[Asn]> = inst
            .observations
            .iter()
            .filter(|o| o.censored)
            .map(|o| o.path.as_slice())
            .collect();
        self.record(outcome, censored, |a| topo.info_by_asn(a).map(|i| i.country));
    }

    /// Merge another accumulator into this one. Findings and victim sets
    /// union and instance counts add, so folding disjoint sets of
    /// instances separately and merging gives exactly what one
    /// accumulator fed all of them would hold — which is what lets the
    /// engine fold each (URL × window) group once, where its cells are
    /// built, and only union the results at report time. By reference:
    /// the engine's per-group folds are shared with later reports.
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
    /// Add one analysed instance's facts: what
    /// [`FindingsAccumulator::record`] folds, on the same arguments, less
    /// the observability horizon.
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
    use crate::instance::InstanceKey;
    use churnlab_bgp::{Granularity, TimeWindow};
    use churnlab_sat::Solvability;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// ASes 1–11 registered in three countries; AS 12 in none.
    fn country_of(a: Asn) -> Option<CountryCode> {
        (a.0 < 12).then(|| CountryCode::new(["DE", "PL", "FR"][a.0 as usize % 3]))
    }

    /// An analysed instance and its censored paths.
    type Instance = (InstanceOutcome, Vec<Vec<Asn>>);

    /// One analysed instance and its censored paths: ASes 1–12 each a
    /// definite censor, eliminated, or neither, on paths drawn from them.
    fn instance() -> impl Strategy<Value = Instance> {
        let key = (0u32..3, 0usize..AnomalyType::ALL.len(), 0u32..3);
        let paths = vec(vec(1u32..13, 1..7).prop_map(|p| p.into_iter().map(Asn).collect()), 0..4);
        (key, vec(0u8..3, 12), paths, any::<bool>()).prop_map(|(key, roles, paths, unique)| {
            let (url_id, anomaly, window) = key;
            let with =
                |role| (1..=12).filter(|&a| roles[a as usize - 1] == role).map(Asn).collect();
            let outcome = InstanceOutcome {
                key: InstanceKey {
                    url_id,
                    anomaly: AnomalyType::ALL[anomaly],
                    window: TimeWindow { granularity: Granularity::Week, index: window },
                },
                n_vars: 12,
                n_observations: paths.len(),
                n_positive: paths.len(),
                solvability: if unique { Solvability::Unique } else { Solvability::Multiple },
                bucket: if unique { 1 } else { 2 },
                censors: with(1),
                potential_censors: Vec::new(),
                eliminated: with(2),
                eliminated_frac: 0.0,
            };
            (outcome, paths)
        })
    }

    /// One group's instances as the tally counts them and as the batch
    /// fold folds them, less the observability horizon.
    fn contribution(instances: &[Instance]) -> (FindingFacts, FindingsAccumulator) {
        let (mut facts, mut acc) = (FindingFacts::default(), FindingsAccumulator::new());
        for (outcome, paths) in instances {
            facts.record(outcome, paths.iter().map(Vec::as_slice), country_of);
            acc.record(outcome, paths.iter().map(Vec::as_slice), country_of);
        }
        acc.on_censored_path.clear();
        (facts, acc)
    }

    /// Counting contributions in and out leaves, after every step, what
    /// merging the batch folds of the ones still in gives: random groups
    /// of instances (findings that repeat across groups, leaks reached
    /// along several paths, a victim whose country is the censor's and
    /// one of no country), each added any number of times and removed in
    /// random order.
    fn tally_materializes_the_union(groups: Vec<Vec<Instance>>, ops: Vec<(bool, usize)>) {
        let contributions: Vec<_> = groups.iter().map(|g| contribution(g)).collect();
        let mut tally = FindingsTally::default();
        let mut held: Vec<usize> = Vec::new();
        for (add, i) in ops {
            if add || held.is_empty() {
                let i = i % contributions.len();
                tally.add(&contributions[i].0);
                held.push(i);
            } else {
                tally.remove(&contributions[held.swap_remove(i % held.len())].0);
            }
            let mut union = FindingsAccumulator::new();
            for &i in &held {
                union.merge(&contributions[i].1);
            }
            assert_eq!(tally.materialize(), union);
        }
        for i in held {
            tally.remove(&contributions[i].0);
        }
        assert_eq!(tally.materialize(), FindingsAccumulator::new());
        assert!(tally.censors.is_empty() && tally.leaks.is_empty(), "nothing counted is left");
    }

    fn groups() -> impl Strategy<Value = Vec<Vec<Instance>>> {
        vec(vec(instance(), 0..5), 1..6)
    }

    fn ops() -> impl Strategy<Value = Vec<(bool, usize)>> {
        vec((any::<bool>(), 0usize..64), 1..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// See [`tally_materializes_the_union`].
        #[test]
        fn prop_tally_materializes_the_union_of_batch_folds(groups in groups(), ops in ops()) {
            tally_materializes_the_union(groups, ops);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// [`prop_tally_materializes_the_union_of_batch_folds`] at 20,000
        /// cases (`cargo test --release -p churnlab-core --lib --
        /// --ignored tally_materializes`).
        #[test]
        #[ignore = "20,000 cases, run in release"]
        fn prop_tally_materializes_the_union_of_batch_folds_20k(groups in groups(), ops in ops()) {
            tally_materializes_the_union(groups, ops);
        }
    }

    /// Taking out what was never put in is a bug the tally names.
    #[test]
    #[should_panic(expected = "never counted it in")]
    fn removing_an_uncounted_fact_panics() {
        let mut facts = FindingFacts::default();
        facts.censors.push((Asn(1), AnomalyType::ALL[0], 0));
        FindingsTally::default().remove(&facts);
    }
}
