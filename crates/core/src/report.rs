//! Report rendering: the paper's Tables 2 and 3 and the Figure-5 flow
//! summary, from pipeline results — plus the [`CanonicalReport`], the
//! order-independent serialized form used to prove that the sharded
//! engine and the batch pipeline compute the same thing.

use crate::analyze::InstanceOutcome;
use crate::convert::ConversionStats;
use crate::leakage::CountryFlow;
use crate::pipeline::{CensorFinding, PipelineConfig, PipelineResults};
use churnlab_bgp::stats::DistinctPathDist;
use churnlab_platform::AnomalyType;
use churnlab_topology::{fnv1a, Asn, Topology};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One Table-2 row: a country and its identified censoring ASes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionRow {
    /// Country code.
    pub country: String,
    /// Identified censoring ASes there.
    pub ases: Vec<Asn>,
    /// Union of anomaly types across those ASes ("All" when all five).
    pub anomalies: Vec<String>,
}

/// The assembled censorship report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CensorshipReport {
    /// Total identified censoring ASes.
    pub n_censors: usize,
    /// Number of countries hosting them.
    pub n_countries: usize,
    /// Table-2 rows, sorted by descending AS count.
    pub regions: Vec<RegionRow>,
    /// Table-3 rows: (asn, country, leaked ASes, leaked countries).
    pub top_leakers: Vec<(Asn, String, usize, usize)>,
    /// Censors leaking to other ASes.
    pub leaking_to_ases: usize,
    /// Censors leaking to other countries.
    pub leaking_to_countries: usize,
    /// Figure-5 country-level flow edges.
    pub country_flow: Vec<CountryFlow>,
    /// Fraction of leak weight staying within the censor's region.
    pub regional_leak_fraction: Option<f64>,
}

impl CensorshipReport {
    /// Assemble from pipeline results.
    pub fn assemble(results: &PipelineResults, topo: &Topology) -> Self {
        // Group identified censors by country.
        let mut by_country: BTreeMap<String, (Vec<Asn>, BTreeSet<AnomalyType>)> = BTreeMap::new();
        for (asn, finding) in &results.censor_findings {
            let country = topo
                .info_by_asn(*asn)
                .map(|i| i.country.as_str().to_string())
                .unwrap_or_else(|| "??".to_string());
            let e = by_country.entry(country).or_default();
            e.0.push(*asn);
            e.1.extend(finding.anomalies.iter().copied());
        }
        let mut regions: Vec<RegionRow> = by_country
            .into_iter()
            .map(|(country, (mut ases, anomalies))| {
                ases.sort();
                let labels = if anomalies.len() == AnomalyType::ALL.len() {
                    vec!["All".to_string()]
                } else {
                    anomalies.iter().map(|a| a.label().to_string()).collect()
                };
                RegionRow { country, ases, anomalies: labels }
            })
            .collect();
        regions.sort_by(|a, b| b.ases.len().cmp(&a.ases.len()).then(a.country.cmp(&b.country)));

        let top = results
            .leakage
            .top_leakers(10)
            .into_iter()
            .map(|(asn, n_as, n_c)| {
                let country = topo
                    .info_by_asn(asn)
                    .map(|i| i.country.as_str().to_string())
                    .unwrap_or_else(|| "??".to_string());
                (asn, country, n_as, n_c)
            })
            .collect();

        CensorshipReport {
            n_censors: results.censor_findings.len(),
            n_countries: regions.len(),
            regions,
            top_leakers: top,
            leaking_to_ases: results.leakage.censors_leaking_to_ases(),
            leaking_to_countries: results.leakage.censors_leaking_to_countries(),
            country_flow: results.leakage.country_flow(topo),
            regional_leak_fraction: results.leakage.regional_fraction(topo),
        }
    }

    /// Render the Table-2 analogue.
    pub fn render_table2(&self, max_rows: usize) -> String {
        let mut out = String::from("Region | Censoring ASes | Anomalies\n");
        out.push_str("-------|----------------|----------\n");
        for row in self.regions.iter().take(max_rows) {
            let ases: Vec<String> = row.ases.iter().map(|a| a.to_string()).collect();
            out.push_str(&format!(
                "{:<6} | {} | {}\n",
                row.country,
                ases.join(", "),
                row.anomalies.join(", ")
            ));
        }
        out
    }

    /// Render the Table-3 analogue.
    pub fn render_table3(&self, max_rows: usize) -> String {
        let mut out = String::from("AS | Region | Leaks(AS) | Leaks(Country)\n");
        out.push_str("---|--------|-----------|---------------\n");
        for (asn, country, n_as, n_c) in self.top_leakers.iter().take(max_rows) {
            out.push_str(&format!("{asn} | {country} | {n_as} | {n_c}\n"));
        }
        out
    }

    /// Render the Figure-5 flow summary (country edges, top `max_rows`).
    pub fn render_flow(&self, max_rows: usize) -> String {
        let mut out = String::from("Censor country -> victim country (weight)\n");
        for f in self.country_flow.iter().take(max_rows) {
            out.push_str(&format!("{} -> {} ({})\n", f.from, f.to, f.weight));
        }
        if let Some(r) = self.regional_leak_fraction {
            out.push_str(&format!("regional leak fraction: {:.0}%\n", 100.0 * r));
        }
        out
    }
}

/// A fully deterministic, order-independent projection of
/// [`PipelineResults`]: every collection is sorted, hash maps become
/// sorted vectors, and the churn accumulator is replaced by its derived
/// distributions. Two results computed from the same measurement *set* —
/// in any ingestion order, batch or sharded — serialize to byte-identical
/// JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CanonicalReport {
    /// The pipeline configuration used.
    pub config: PipelineConfig,
    /// Conversion counters.
    pub conversion: ConversionStats,
    /// CNFs skipped for lacking a censored observation.
    pub trivial_instances: u64,
    /// Per-instance outcomes, sorted by [`crate::instance::InstanceKey`]
    /// — the results' own allocations (serialized as the outcomes
    /// themselves).
    pub outcomes: Vec<Arc<InstanceOutcome>>,
    /// Censor findings, sorted by ASN.
    pub censor_findings: Vec<CensorFinding>,
    /// Observability horizon, sorted.
    pub on_censored_path: Vec<Asn>,
    /// Leakage: per censor (sorted), the sorted victim AS list.
    pub leak_victims: Vec<(Asn, Vec<Asn>)>,
    /// Leakage: per censor (sorted), the sorted victim country list.
    pub leak_victim_countries: Vec<(Asn, Vec<String>)>,
    /// Distinct-path distributions at the configured granularities.
    pub churn: Vec<DistinctPathDist>,
}

impl CanonicalReport {
    /// The canonical JSON serialization: deterministic field order, every
    /// collection pre-sorted — two reports over the same measurement set
    /// are byte-identical here whatever the ingestion order or sharding.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("canonical report serializes")
    }

    /// FNV-1a 64 digest of [`CanonicalReport::to_json`] — a compact
    /// equality token for logs and bench reports (byte-identical JSON ⇔
    /// equal digests, modulo the usual 64-bit collision caveat).
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json().bytes())
    }
}

impl PipelineResults {
    /// Project into the canonical order-independent form.
    pub fn canonical_report(&self) -> CanonicalReport {
        let mut outcomes = self.outcomes.clone();
        outcomes.sort_by_key(|o| o.key);
        let mut censor_findings: Vec<CensorFinding> =
            self.censor_findings.values().cloned().collect();
        censor_findings.sort_by_key(|f| f.asn);
        let mut on_censored_path: Vec<Asn> = self.on_censored_path.iter().copied().collect();
        on_censored_path.sort();
        let mut leak_victims: Vec<(Asn, Vec<Asn>)> = self
            .leakage
            .victims_by_censor
            .iter()
            .map(|(censor, victims)| {
                let mut v: Vec<Asn> = victims.iter().copied().collect();
                v.sort();
                (*censor, v)
            })
            .collect();
        leak_victims.sort_by_key(|(c, _)| *c);
        let mut leak_victim_countries: Vec<(Asn, Vec<String>)> = self
            .leakage
            .victim_countries_by_censor
            .iter()
            .map(|(censor, countries)| {
                let mut v: Vec<String> = countries.iter().cloned().collect();
                v.sort();
                (*censor, v)
            })
            .collect();
        leak_victim_countries.sort_by_key(|(c, _)| *c);
        CanonicalReport {
            config: self.config.clone(),
            conversion: self.conversion,
            trivial_instances: self.trivial_instances,
            outcomes,
            censor_findings,
            on_censored_path,
            leak_victims,
            leak_victim_countries,
            churn: self.churn.distributions(&self.config.granularities),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churnstats::ChurnAccumulator;
    use crate::leakage::LeakageReport;
    use churnlab_topology::{generator, WorldConfig, WorldScale};
    use std::collections::{BTreeSet, HashMap, HashSet};

    fn fake_results(topo_censor: Asn) -> PipelineResults {
        let mut censor_findings = HashMap::new();
        censor_findings.insert(
            topo_censor,
            CensorFinding {
                asn: topo_censor,
                anomalies: AnomalyType::ALL.iter().copied().collect::<BTreeSet<_>>(),
                url_ids: BTreeSet::new(),
                n_instances: 3,
            },
        );
        let config = PipelineConfig::paper(365);
        PipelineResults {
            outcomes: vec![],
            conversion: ConversionStats::default(),
            censor_findings,
            leakage: LeakageReport::new(),
            churn: ChurnAccumulator::windowed(&config.granularities, config.total_days, None),
            trivial_instances: 0,
            on_censored_path: HashSet::new(),
            config,
        }
    }

    #[test]
    fn assemble_and_render() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 2));
        let censor = w.asns()[3];
        let results = fake_results(censor);
        let report = CensorshipReport::assemble(&results, &w.topology);
        assert_eq!(report.n_censors, 1);
        assert_eq!(report.n_countries, 1);
        assert_eq!(report.regions[0].anomalies, vec!["All"]);
        let t2 = report.render_table2(10);
        assert!(t2.contains(&censor.to_string()));
        assert!(t2.contains("All"));
        let t3 = report.render_table3(10);
        assert!(t3.contains("Leaks"));
        let flow = report.render_flow(10);
        assert!(flow.contains("victim"));
    }

    #[test]
    fn partial_anomaly_sets_listed_individually() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 2));
        let censor = w.asns()[3];
        let mut results = fake_results(censor);
        results.censor_findings.get_mut(&censor).unwrap().anomalies =
            [AnomalyType::Block, AnomalyType::Ttl].into_iter().collect();
        let report = CensorshipReport::assemble(&results, &w.topology);
        assert_eq!(report.regions[0].anomalies, vec!["ttl".to_string(), "block".to_string()]);
    }
}
