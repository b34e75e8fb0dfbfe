//! Dataset statistics — the Table 1 rows.

use crate::anomaly::{AnomalySet, AnomalyType};
use crate::measurement::Measurement;
use churnlab_topology::{Asn, FxSet, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Aggregate statistics over a measurement run (Table 1's shape).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Unique URLs tested.
    pub unique_urls: usize,
    /// Distinct vantage points that actually ran tests (under a
    /// fleet-sampling schedule this can trail the placed fleet early in
    /// the period; the schedule's coverage floor bounds it from below).
    #[serde(default)]
    pub vps: usize,
    /// Distinct vantage-point ASes.
    pub vp_ases: usize,
    /// Distinct destination ASes.
    pub dest_ases: usize,
    /// Distinct countries (vantage + destination ASes).
    pub countries: usize,
    /// Total measurements (including failed ones).
    pub measurements: u64,
    /// Measurements that could not run (no route).
    pub failed: u64,
    /// Detected anomaly counts per type (dns, seq, ttl, rst, block order).
    pub anomalies: [u64; 5],
}

impl DatasetStats {
    /// Count for one anomaly type.
    pub fn anomaly_count(&self, t: AnomalyType) -> u64 {
        self.anomalies[Self::idx(t)]
    }

    fn idx(t: AnomalyType) -> usize {
        match t {
            AnomalyType::Dns => 0,
            AnomalyType::Seqno => 1,
            AnomalyType::Ttl => 2,
            AnomalyType::Reset => 3,
            AnomalyType::Block => 4,
        }
    }

    /// Total anomaly detections across types.
    pub fn total_anomalies(&self) -> u64 {
        self.anomalies.iter().sum()
    }

    /// Render the Table-1-style text block.
    pub fn render_table1(&self, period: &str) -> String {
        let pct = |n: u64| {
            if self.measurements == 0 {
                0.0
            } else {
                100.0 * n as f64 / self.measurements as f64
            }
        };
        let mut out = String::new();
        out.push_str(&format!("{:<24} {}\n", "Period", period));
        out.push_str(&format!("{:<24} {}\n", "Unique URLs", self.unique_urls));
        out.push_str(&format!("{:<24} {}\n", "AS Vantage Points", self.vp_ases));
        out.push_str(&format!("{:<24} {}\n", "Destination ASes", self.dest_ases));
        out.push_str(&format!("{:<24} {}\n", "Countries", self.countries));
        out.push_str(&format!("{:<24} {:.1}M\n", "Measurements", self.measurements as f64 / 1e6));
        for (label, t) in [
            ("w/DNS anomalies", AnomalyType::Dns),
            ("w/SEQNO anomalies", AnomalyType::Seqno),
            ("w/TTL anomalies", AnomalyType::Ttl),
            ("w/RESET anomalies", AnomalyType::Reset),
            ("w/Blockpages", AnomalyType::Block),
        ] {
            let n = self.anomaly_count(t);
            out.push_str(&format!("{:<24} {} ({:.2}%)\n", format!("- {label}"), n, pct(n)));
        }
        out
    }
}

/// Incremental accumulator used by the streaming runner.
#[derive(Debug, Default)]
pub struct StatsAccumulator {
    urls: FxSet<u32>,
    vps: FxSet<u32>,
    vp_ases: FxSet<Asn>,
    dest_ases: FxSet<Asn>,
    measurements: u64,
    failed: u64,
    anomalies: [u64; 5],
}

impl StatsAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one measurement in.
    pub fn add(&mut self, m: &Measurement) {
        self.measurements += 1;
        self.urls.insert(m.url_id);
        self.vps.insert(m.vp_id);
        self.vp_ases.insert(m.vp_asn);
        self.dest_ases.insert(m.dest_asn);
        if m.failed {
            self.failed += 1;
        }
        Self::add_set(&mut self.anomalies, m.detected);
    }

    /// Fold another accumulator in — the parallel runner's reduction.
    /// Every field is a set union or a sum, so merge order is irrelevant
    /// and the merged result equals a serial accumulation over the same
    /// measurements.
    pub fn merge(&mut self, other: StatsAccumulator) {
        self.urls.extend(other.urls);
        self.vps.extend(other.vps);
        self.vp_ases.extend(other.vp_ases);
        self.dest_ases.extend(other.dest_ases);
        self.measurements += other.measurements;
        self.failed += other.failed;
        for (a, b) in self.anomalies.iter_mut().zip(other.anomalies) {
            *a += b;
        }
    }

    fn add_set(anomalies: &mut [u64; 5], set: AnomalySet) {
        for t in set.iter() {
            anomalies[DatasetStats::idx(t)] += 1;
        }
    }

    /// Finalise, resolving countries through the topology.
    pub fn finish(self, topo: &Topology) -> DatasetStats {
        let mut countries = HashSet::new();
        for asn in self.vp_ases.iter().chain(self.dest_ases.iter()) {
            if let Some(info) = topo.info_by_asn(*asn) {
                countries.insert(info.country);
            }
        }
        DatasetStats {
            unique_urls: self.urls.len(),
            vps: self.vps.len(),
            vp_ases: self.vp_ases.len(),
            dest_ases: self.dest_ases.len(),
            countries: countries.len(),
            measurements: self.measurements,
            failed: self.failed,
            anomalies: self.anomalies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::Measurement;
    use churnlab_topology::{generator, WorldConfig, WorldScale};

    #[test]
    fn accumulates_and_renders() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        let asns = w.asns();
        let mut acc = StatsAccumulator::new();
        let mut detected = AnomalySet::empty();
        detected.insert(AnomalyType::Dns);
        detected.insert(AnomalyType::Ttl);
        acc.add(&Measurement {
            vp_id: 0,
            vp_asn: asns[0],
            url_id: 0,
            dest_asn: asns[1],
            day: 0,
            epoch: 0,
            detected,
            traceroutes: Default::default(),
            failed: false,
        });
        acc.add(&Measurement {
            vp_id: 1,
            vp_asn: asns[2],
            url_id: 1,
            dest_asn: asns[1],
            day: 1,
            epoch: 6,
            detected: AnomalySet::empty(),
            traceroutes: Default::default(),
            failed: true,
        });
        let stats = acc.finish(&w.topology);
        assert_eq!(stats.measurements, 2);
        assert_eq!(stats.vps, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.unique_urls, 2);
        assert_eq!(stats.vp_ases, 2);
        assert_eq!(stats.dest_ases, 1);
        assert_eq!(stats.anomaly_count(AnomalyType::Dns), 1);
        assert_eq!(stats.anomaly_count(AnomalyType::Ttl), 1);
        assert_eq!(stats.anomaly_count(AnomalyType::Reset), 0);
        assert_eq!(stats.total_anomalies(), 2);
        let table = stats.render_table1("2016-05 ~ 2017-05");
        assert!(table.contains("Unique URLs"));
        assert!(table.contains("w/DNS anomalies"));
    }

    #[test]
    fn merge_equals_serial_accumulation() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        let asns = w.asns();
        let mk = |vp: u32, url: u32, failed: bool, a: Option<AnomalyType>| {
            let mut detected = AnomalySet::empty();
            if let Some(t) = a {
                detected.insert(t);
            }
            Measurement {
                vp_id: vp,
                vp_asn: asns[vp as usize % asns.len()],
                url_id: url,
                dest_asn: asns[(url as usize + 1) % asns.len()],
                day: url,
                epoch: 0,
                detected,
                traceroutes: Default::default(),
                failed,
            }
        };
        let ms = [
            mk(0, 0, false, Some(AnomalyType::Dns)),
            mk(1, 1, true, None),
            mk(2, 0, false, Some(AnomalyType::Reset)),
            mk(0, 2, false, None),
        ];
        let mut serial = StatsAccumulator::new();
        for m in &ms {
            serial.add(m);
        }
        let mut left = StatsAccumulator::new();
        let mut right = StatsAccumulator::new();
        left.add(&ms[0]);
        right.add(&ms[1]);
        right.add(&ms[2]);
        left.add(&ms[3]);
        let mut merged = StatsAccumulator::new();
        merged.merge(right);
        merged.merge(left);
        assert_eq!(merged.finish(&w.topology), serial.finish(&w.topology));
    }
}
