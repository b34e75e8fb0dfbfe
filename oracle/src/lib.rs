//! # churnlab-oracle
//!
//! An executable specification of the paper's §3 localizer, small
//! enough to read in one sitting, that tests hold the product against.
//! [`report`] takes a measurement set and returns the
//! [`CanonicalReport`] the product must serialize byte for byte;
//! [`cell`] solves one (URL × window × anomaly) CNF.
//!
//! It is written the plain way on purpose: `BTreeMap`s and `Vec`s, the
//! whole measurement set in memory, every cell built and solved once
//! from scratch. It has no interning, no incrementality, no window
//! retirement and no sharding, so a fault in any of those — or in the
//! product's closed-form census, findings tally, §3.3 leakage rule or
//! churn hash — shows as a difference here. It is never a normal
//! dependency: crates reach it through `[dev-dependencies]`.
//!
//! The steps, as PAPER.md and §3 state them:
//!
//! 1. *Conversion* (§3.1): each test's traceroutes become one AS-level
//!    path, or the test is discarded under one of four rules.
//! 2. *Churn* (Figure 3): distinct paths per (vantage AS, destination
//!    AS) pair and window, over every converted test, counting the
//!    paths themselves.
//! 3. *The ablation* (Figure 4): under [`ChurnMode::FirstPathOnly`] a
//!    test enters the CNFs only if its path is the first path its
//!    (URL, vantage AS) pair took, in test order (day, vantage id,
//!    routing epoch).
//! 4. *Cells* (§3.1): one CNF per (URL × window × anomaly type) at every
//!    configured granularity. A censored path is a positive clause, a
//!    clean path one unit negation per AS on it ([`formulate`]).
//! 5. *Solving* (§3.2): the census of each cell's CNF. An AS True in
//!    every model is a censor (the backbone refinement: that holds for
//!    multi-model CNFs too), one True in some models a potential censor,
//!    one False in every model eliminated.
//! 6. *Findings*: per censor, the anomaly types and URLs it was named
//!    for, and how many cells named it.
//! 7. *Leakage* (§3.3): on a censored path of a cell with a censor,
//!    every AS before that censor, eliminated and registered in a known
//!    country, is the censor's victim; a victim country is one that
//!    differs from the censor's. [`findings`] is steps 6–7 on their own,
//!    which the engine's counted findings tally and shard audit hold to.
//!
//! What it takes from the product, and why that is no shared fault:
//!
//! * Step 1 is [`ConvertedObs::from_measurement`]. Conversion has its own
//!   oracle, a test-only copy of the converter it replaced
//!   (`churnlab_core::convert::tests::streaming_conversion_matches_the_oracle_call_by_call`),
//!   so a fault in a discard rule fails there.
//! * Step 5 is `churnlab_sat::reference::census`, the DPLL census, not the closed
//!   form the product runs (`sat::monotone`). The census is held against
//!   exhaustive enumeration by `churnlab-sat`'s own tests.
//! * Window arithmetic is [`TimeWindow::of`], and the result types are
//!   the product's, so the two serialize alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod instance;

pub use analyze::cell;
pub use instance::{formulate, Formulation};

use churnlab_bgp::stats::DistinctPathDist;
use churnlab_bgp::{Granularity, TimeWindow};
use churnlab_core::convert::ConversionStats;
use churnlab_core::instance::InstanceKey;
use churnlab_core::pipeline::{CensorFinding, ChurnMode, PipelineConfig};
use churnlab_core::report::CanonicalReport;
use churnlab_core::{ConvertedObs, InstanceOutcome};
use churnlab_platform::{AnomalyType, Measurement};
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{Asn, Ip2AsDb, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The canonical report of the measurement set `ms`, read through the
/// IP-to-AS database `db`, with `topo` for countries (see the crate docs
/// for the steps). The order of `ms` matters only to the ablation, and
/// only among tests of one (URL, vantage AS) pair with equal test order.
pub fn report(
    ms: &[Measurement],
    db: &Ip2AsDb,
    topo: &Topology,
    cfg: &PipelineConfig,
) -> CanonicalReport {
    // 1. Conversion.
    let mut conversion = ConversionStats::default();
    let converted: Vec<ConvertedObs> = ms
        .iter()
        .filter_map(|m| ConvertedObs::from_measurement(m, db, &mut conversion))
        .collect();

    // 2. Churn, over every converted test.
    let churn = cfg
        .granularities
        .iter()
        .map(|&g| distinct_paths(&converted, g, cfg.total_days));

    // 3. The ablation.
    let kept: Vec<&ConvertedObs> = match cfg.churn_mode {
        ChurnMode::Normal => converted.iter().collect(),
        ChurnMode::FirstPathOnly => first_paths(&converted),
    };

    // 4. Cells: each distinct (path, censored) observation of the cell.
    let mut cells: BTreeMap<InstanceKey, BTreeSet<(&[Asn], bool)>> = BTreeMap::new();
    for obs in &kept {
        for &granularity in &cfg.granularities {
            let window = TimeWindow::of(obs.day, granularity, cfg.total_days);
            for anomaly in AnomalyType::ALL {
                let key = InstanceKey {
                    url_id: obs.url_id,
                    anomaly,
                    window,
                };
                let censored = obs.detected.contains(anomaly);
                cells.entry(key).or_default().insert((&obs.path, censored));
            }
        }
    }

    // 5. Solve each cell.
    let mut trivial_instances = 0;
    let mut solved = Vec::new();
    let mut on_censored_path = BTreeSet::new();
    for (key, observations) in cells {
        let censored: Vec<&[Asn]> = observations
            .iter()
            .filter(|(_, c)| *c)
            .map(|(path, _)| *path)
            .collect();
        if cfg.require_positive && censored.is_empty() {
            trivial_instances += 1;
            continue;
        }
        let observations: Vec<(Vec<Asn>, bool)> = observations
            .iter()
            .map(|(path, c)| (path.to_vec(), *c))
            .collect();
        on_censored_path.extend(censored.iter().flat_map(|path| path.iter().copied()));
        solved.push((cell(key, &observations, cfg.solve.count_cap), censored));
    }

    // 6–7. Fold the cells' censors and leaks.
    let country = |asn: Asn| topo.info_by_asn(asn).map(|info| info.country);
    let cells = solved.iter().map(|(outcome, censored)| (outcome, censored.iter().copied()));
    let Findings { censors, victims, victim_countries: abroad } = findings(cells, country);

    CanonicalReport {
        config: cfg.clone(),
        conversion,
        trivial_instances,
        outcomes: solved.into_iter().map(|(o, _)| Arc::new(o)).collect(),
        censor_findings: censors.into_values().collect(),
        on_censored_path: on_censored_path.into_iter().collect(),
        leak_victims: victims.into_iter().map(|(c, v)| (c, Vec::from_iter(v))).collect(),
        leak_victim_countries: abroad.into_iter().map(|(c, v)| (c, Vec::from_iter(v))).collect(),
        churn: churn.collect(),
    }
}

/// Steps 6–7's findings, every collection sorted.
#[derive(Debug, Default, PartialEq)]
pub struct Findings {
    /// Per censor: its anomaly types, its URLs and how many cells name it.
    pub censors: BTreeMap<Asn, CensorFinding>,
    /// Per censor: its victim ASes.
    pub victims: BTreeMap<Asn, BTreeSet<Asn>>,
    /// Per censor: its victims' countries other than its own.
    pub victim_countries: BTreeMap<Asn, BTreeSet<String>>,
}

/// Steps 6–7 over solved cells, each given as its outcome and censored
/// paths; `country` is an AS's registered country, if it has one.
pub fn findings<'a, P: IntoIterator<Item = &'a [Asn]>>(
    cells: impl IntoIterator<Item = (&'a InstanceOutcome, P)>,
    country: impl Fn(Asn) -> Option<CountryCode>,
) -> Findings {
    let mut found = Findings::default();
    for (outcome, censored) in cells {
        for &censor in &outcome.censors {
            let finding = found.censors.entry(censor).or_insert_with(|| CensorFinding {
                asn: censor,
                anomalies: BTreeSet::new(),
                url_ids: BTreeSet::new(),
                n_instances: 0,
            });
            finding.anomalies.insert(outcome.key.anomaly);
            finding.url_ids.insert(outcome.key.url_id);
            finding.n_instances += 1;
        }
        for path in censored {
            for (at, censor) in path.iter().enumerate() {
                if !outcome.censors.contains(censor) {
                    continue;
                }
                let Some(home) = country(*censor) else { continue };
                for upstream in &path[..at] {
                    if !outcome.eliminated.contains(upstream) {
                        continue;
                    }
                    let Some(there) = country(*upstream) else { continue };
                    found.victims.entry(*censor).or_default().insert(*upstream);
                    if there != home {
                        let abroad = found.victim_countries.entry(*censor).or_default();
                        abroad.insert(there.as_str().to_string());
                    }
                }
            }
        }
    }
    found
}

/// Figure 3 at one granularity: every (window, vantage AS, destination
/// AS) combo observed at least twice, bucketed by its number of distinct
/// paths (1, 2, 3, 4, 5+). A combo observed once cannot show churn.
fn distinct_paths(
    converted: &[ConvertedObs],
    granularity: Granularity,
    total_days: u32,
) -> DistinctPathDist {
    let mut combos: BTreeMap<(u32, Asn, Asn), Vec<&[Asn]>> = BTreeMap::new();
    for obs in converted {
        let window = TimeWindow::of(obs.day, granularity, total_days).index;
        combos
            .entry((window, obs.vp_asn, obs.dest_asn))
            .or_default()
            .push(&obs.path);
    }
    let mut buckets = [0u64; 5];
    for tests in combos.values().filter(|tests| tests.len() >= 2) {
        let distinct: BTreeSet<&[Asn]> = tests.iter().copied().collect();
        buckets[distinct.len().min(5) - 1] += 1;
    }
    DistinctPathDist {
        granularity,
        buckets,
        total: buckets.iter().sum(),
    }
}

/// Figure 4's ablation: the tests whose path is the first path of their
/// (URL, vantage AS) pair in test order — testing day, then vantage id,
/// then routing epoch; equal test orders keep their order in the input.
fn first_paths(converted: &[ConvertedObs]) -> Vec<&ConvertedObs> {
    let mut in_order: Vec<&ConvertedObs> = converted.iter().collect();
    in_order.sort_by_key(|o| (o.url_id, o.day, o.vp_id, o.epoch));
    let mut firsts: BTreeMap<(u32, Asn), &[Asn]> = BTreeMap::new();
    in_order.retain(|o| {
        let first = *firsts.entry((o.url_id, o.vp_asn)).or_insert(&o.path);
        first == o.path.as_slice()
    });
    in_order
}
