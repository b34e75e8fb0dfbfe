//! Censorship-leakage identification (§3.3).
//!
//! "In order to prevent leakage of censorship, censorship policies need to
//! be implemented in ASes that are either stubs or provide transit
//! services only for ASes within the region." The analysis: over AS-level
//! paths from CNFs with at least one **backbone-definite censor** (a
//! variable True in every model — every unique-solution CNF qualifies),
//! an AS that (1) is assigned False in every model, (2) sits *upstream*
//! of an identified censor (closer to the vantage point), and (3) is
//! registered in a different country than the censor, is a **victim of
//! censorship leakage** — its traffic inherited a foreign censor's policy
//! by transiting it.

use crate::analyze::InstanceOutcome;
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{Asn, Topology};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One country-level leak edge for Figure 5.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountryFlow {
    /// Country of the censoring AS (source of the leak).
    pub from: String,
    /// Country of the victim AS.
    pub to: String,
    /// Number of (censor AS, victim AS) pairs on this edge.
    pub weight: u64,
}

/// Aggregated leakage findings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LeakageReport {
    /// Per censor: the set of victim ASes.
    pub victims_by_censor: HashMap<Asn, HashSet<Asn>>,
    /// Per censor: the set of victim countries.
    pub victim_countries_by_censor: HashMap<Asn, HashSet<String>>,
}

impl LeakageReport {
    /// Fresh empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one solved instance's leaks, given its censored paths and
    /// an AS → registered-country lookup (`None` for an AS the topology
    /// does not know): [`for_each_leak`]'s facts, folded into sets. Only
    /// instances with at least one definite (backbone) censor leak,
    /// mirroring the paper.
    ///
    /// The outcome's `censors` and `eliminated` lists are searched, not
    /// hashed: both are strictly ascending, as every producer of an
    /// [`InstanceOutcome`] writes them.
    ///
    /// # Panics
    ///
    /// If either list is not strictly ascending.
    pub fn ingest_paths<'a>(
        &mut self,
        censored_paths: impl IntoIterator<Item = &'a [Asn]>,
        outcome: &InstanceOutcome,
        country_of: impl Fn(Asn) -> Option<CountryCode>,
    ) {
        for_each_leak(censored_paths, outcome, country_of, |censor, victim, foreign| {
            self.insert(censor, victim, foreign)
        });
    }

    /// Record one [`for_each_leak`] fact.
    pub(crate) fn insert(&mut self, censor: Asn, victim: Asn, foreign: Option<CountryCode>) {
        self.victims_by_censor.entry(censor).or_default().insert(victim);
        if let Some(country) = foreign {
            let countries = self.victim_countries_by_censor.entry(censor).or_default();
            if !countries.contains(country.as_str()) {
                countries.insert(country.as_str().to_string());
            }
        }
    }

    /// Merge another report into this one (shard fan-in: victim sets
    /// union, which is exactly what ingesting the shards' instances into
    /// one report would have produced).
    pub fn merge(&mut self, other: &LeakageReport) {
        for (censor, victims) in &other.victims_by_censor {
            self.victims_by_censor.entry(*censor).or_default().extend(victims);
        }
        for (censor, countries) in &other.victim_countries_by_censor {
            self.victim_countries_by_censor
                .entry(*censor)
                .or_default()
                .extend(countries.iter().cloned());
        }
    }

    /// Censors leaking to at least one other AS.
    pub fn censors_leaking_to_ases(&self) -> usize {
        self.victims_by_censor.values().filter(|v| !v.is_empty()).count()
    }

    /// Censors leaking to at least one other country.
    pub fn censors_leaking_to_countries(&self) -> usize {
        self.victim_countries_by_censor.values().filter(|v| !v.is_empty()).count()
    }

    /// Table-3 rows: censors ranked by cross-country leak counts —
    /// (asn, #victim ASes, #victim countries), sorted descending.
    pub fn top_leakers(&self, n: usize) -> Vec<(Asn, usize, usize)> {
        let mut rows: Vec<(Asn, usize, usize)> = self
            .victims_by_censor
            .iter()
            .map(|(asn, vs)| {
                let countries =
                    self.victim_countries_by_censor.get(asn).map(|c| c.len()).unwrap_or(0);
                (*asn, vs.len(), countries)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Figure-5 country flow edges: (censor country → victim country,
    /// weight), cross-country only, sorted by weight descending.
    pub fn country_flow(&self, topo: &Topology) -> Vec<CountryFlow> {
        let mut edges: HashMap<(CountryCode, String), u64> = HashMap::new();
        for (censor, victims) in &self.victims_by_censor {
            let from = match topo.info_by_asn(*censor) {
                Some(i) => i.country,
                None => continue,
            };
            for v in victims {
                if let Some(vi) = topo.info_by_asn(*v) {
                    if vi.country != from {
                        *edges.entry((from, vi.country.as_str().to_string())).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut out: Vec<CountryFlow> = edges
            .into_iter()
            .map(|((f, t), w)| CountryFlow { from: f.as_str().to_string(), to: t, weight: w })
            .collect();
        out.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.from.cmp(&b.from)).then(a.to.cmp(&b.to)));
        out
    }

    /// Fraction of cross-country leak edges that stay within the censor's
    /// geographic region — the paper's "most leakage is regional"
    /// observation (Figure 5).
    pub fn regional_fraction(&self, topo: &Topology) -> Option<f64> {
        let flows = self.country_flow(topo);
        if flows.is_empty() {
            return None;
        }
        let region_of = |code: &str| {
            topo.countries()
                .iter()
                .find(|c| c.code.as_str() == code)
                .map(|c| c.region)
        };
        let mut total = 0u64;
        let mut regional = 0u64;
        for f in &flows {
            total += f.weight;
            if let (Some(a), Some(b)) = (region_of(&f.from), region_of(&f.to)) {
                if a == b {
                    regional += f.weight;
                }
            }
        }
        Some(regional as f64 / total as f64)
    }
}

/// The §3.3 rule, as facts: calls `leak(censor, victim, foreign)` for
/// every AS `victim` strictly before a censor on one of
/// `censored_paths`, assigned False in every model and registered in a
/// known country — `foreign` is that country when it differs from the
/// censor's. A leak reached along several paths is reported each time.
/// [`LeakageReport::ingest_paths`] folds these facts into sets;
/// [`crate::accumulate::FindingsTally`] counts them.
///
/// # Panics
///
/// If the outcome's `censors` or `eliminated` list is not strictly
/// ascending.
pub fn for_each_leak<'a>(
    censored_paths: impl IntoIterator<Item = &'a [Asn]>,
    outcome: &InstanceOutcome,
    country_of: impl Fn(Asn) -> Option<CountryCode>,
    mut leak: impl FnMut(Asn, Asn, Option<CountryCode>),
) {
    debug_assert_ne!(outcome.solvability, churnlab_sat::Solvability::Unsat);
    let (censors, eliminated) = (&outcome.censors, &outcome.eliminated);
    let ascending = |v: &[Asn]| v.is_sorted_by(|a, b| a < b);
    assert!(
        ascending(censors) && ascending(eliminated),
        "an outcome's censors and eliminated ASes are strictly ascending"
    );
    if censors.is_empty() {
        return;
    }
    for path in censored_paths {
        for (ci, censor) in path.iter().enumerate() {
            if censors.binary_search(censor).is_err() {
                continue;
            }
            let Some(censor_country) = country_of(*censor) else { continue };
            for upstream in &path[..ci] {
                // "Assigned False": in multi-solution CNFs only the
                // definitely eliminated ASes qualify (in unique-solution
                // CNFs that is every non-censor, so this matches the
                // original unique-only behavior).
                if eliminated.binary_search(upstream).is_err() {
                    continue;
                }
                let Some(up_country) = country_of(*upstream) else { continue };
                // Leakage to other ASes counts regardless of country;
                // cross-country leaks are tracked separately.
                leak(*censor, *upstream, Some(up_country).filter(|&c| c != censor_country));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceKey;
    use churnlab_bgp::{Granularity, TimeWindow};
    use churnlab_platform::AnomalyType;
    use churnlab_topology::asys::{AsClass, AsInfo, AsRole};
    use churnlab_topology::geo::countries;
    use churnlab_topology::Topology;

    /// Topology: AS1 (DE), AS2 (PL, censor), AS3 (DE), AS4 (PL).
    fn topo() -> Topology {
        let mut t = Topology::new(countries(40));
        for (asn, cc) in [(1u32, "DE"), (2, "PL"), (3, "DE"), (4, "PL")] {
            t.add_as(AsInfo {
                asn: Asn(asn),
                name: format!("AS{asn}"),
                country: CountryCode::new(cc),
                class: AsClass::TransitAccess,
                role: AsRole::NationalTransit,
            })
            .unwrap();
        }
        t
    }

    fn key() -> InstanceKey {
        InstanceKey {
            url_id: 0,
            anomaly: AnomalyType::Block,
            window: TimeWindow::of(0, Granularity::Day, 365),
        }
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|x| Asn(*x)).collect()
    }

    /// A solved instance naming `censors` and clearing `eliminated`.
    fn outcome(censors: &[u32], eliminated: &[u32]) -> InstanceOutcome {
        InstanceOutcome {
            key: key(),
            n_vars: censors.len() + eliminated.len(),
            n_observations: 2,
            n_positive: 1,
            solvability: churnlab_sat::Solvability::Unique,
            bucket: 1,
            censors: asns(censors),
            potential_censors: Vec::new(),
            eliminated: asns(eliminated),
            eliminated_frac: 0.0,
        }
    }

    /// The topology's registered countries.
    fn ingest(report: &mut LeakageReport, path: &[u32], out: &InstanceOutcome, t: &Topology) {
        report.ingest_paths([asns(path).as_slice()], out, |a| t.info_by_asn(a).map(|i| i.country));
    }

    #[test]
    fn upstream_foreign_as_is_victim() {
        // Path 1(DE) → 2(PL-censor) → 4(PL) censored; clean paths cleared
        // 1, 3 and 4, so AS2 is the one censor.
        let out = outcome(&[2], &[1, 3, 4]);
        let t = topo();
        let mut report = LeakageReport::new();
        ingest(&mut report, &[1, 2, 4], &out, &t);
        // AS1 (DE) is upstream of censor AS2 (PL) and foreign: victim.
        assert!(report.victims_by_censor[&Asn(2)].contains(&Asn(1)));
        // AS4 is downstream: not a victim.
        assert!(!report.victims_by_censor[&Asn(2)].contains(&Asn(4)));
        assert_eq!(report.censors_leaking_to_ases(), 1);
        assert_eq!(report.censors_leaking_to_countries(), 1);
        let flows = report.country_flow(&t);
        assert_eq!(flows.len(), 1);
        assert_eq!((flows[0].from.as_str(), flows[0].to.as_str()), ("PL", "DE"));
    }

    #[test]
    fn same_country_upstream_counts_as_as_leak_not_country_leak() {
        // Path 4(PL) → 2(PL-censor) → 3: upstream AS4 is same-country.
        let out = outcome(&[2], &[3, 4]);
        let t = topo();
        let mut report = LeakageReport::new();
        ingest(&mut report, &[4, 2, 3], &out, &t);
        assert_eq!(report.censors_leaking_to_ases(), 1, "AS-level leak recorded");
        assert_eq!(report.censors_leaking_to_countries(), 0, "no country crossed");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn an_outcome_whose_lists_do_not_ascend_is_refused() {
        let out = outcome(&[2], &[4, 3, 1]);
        LeakageReport::new().ingest_paths([asns(&[1, 3, 2, 4]).as_slice()], &out, |_| None);
    }

    #[test]
    fn top_leakers_ranked() {
        let mut report = LeakageReport::new();
        report.victims_by_censor.insert(Asn(2), [Asn(1), Asn(3), Asn(4)].into_iter().collect());
        report
            .victim_countries_by_censor
            .insert(Asn(2), ["DE".to_string()].into_iter().collect());
        report.victims_by_censor.insert(Asn(9), [Asn(1)].into_iter().collect());
        let top = report.top_leakers(5);
        assert_eq!(top[0], (Asn(2), 3, 1));
        assert_eq!(top[1], (Asn(9), 1, 0));
    }

    #[test]
    fn regional_fraction_computed() {
        let t = topo();
        let mut report = LeakageReport::new();
        // PL → DE: both Europe (PL is EasternEurope, DE WesternEurope — so
        // NOT same region under our taxonomy; regional fraction 0).
        report.victims_by_censor.insert(Asn(2), [Asn(1)].into_iter().collect());
        let f = report.regional_fraction(&t).unwrap();
        assert_eq!(f, 0.0);
        assert!(LeakageReport::new().regional_fraction(&t).is_none());
    }
}
