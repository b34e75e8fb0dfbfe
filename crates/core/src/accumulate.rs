//! Censor-finding and leakage accumulation, shared by the batch
//! [`crate::pipeline::Pipeline`] and the sharded `churnlab-engine`.
//!
//! Both consumers produce a stream of analysed instances; what they do
//! with each outcome is identical — fold backbone-definite censors into
//! per-AS findings, feed censor-bearing instances to the §3.3 leakage
//! analysis, and track the observability horizon. This type is that fold,
//! factored out so the two paths cannot drift.

use crate::analyze::InstanceOutcome;
use crate::instance::TomographyInstance;
use crate::leakage::LeakageReport;
use crate::pipeline::CensorFinding;
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{Asn, Topology};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Accumulates censor findings, leakage, and the observability horizon
/// over a stream of analysed instances.
#[derive(Debug, Clone, Default)]
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
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(f.clone());
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
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
