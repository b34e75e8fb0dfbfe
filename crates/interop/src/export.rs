//! Study export: dump a full simulated measurement campaign to JSONL.
//!
//! The platform runner streams measurements to a sink; this module's sink
//! serializes each one as a [`NativeRecord`] line the moment it is
//! produced, so a Paper-scale study (~5M records) exports in constant
//! memory. The [`StudyManifest`] sidecar records the (scale, seed) pair —
//! everything a later `replay` needs to deterministically rebuild the
//! interpretation context (topology + degraded IP-to-AS view) without
//! shipping it in the dump.

use crate::record::NativeRecord;
use churnlab_bgp::RoutingSim;
use churnlab_platform::{DatasetStats, Platform};
use serde::{Deserialize, Serialize};
use std::io::Write;

/// Sidecar metadata for an exported study dump.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StudyManifest {
    /// Workload scale label (`smoke` / `small` / `paper`).
    pub scale: String,
    /// Base study seed (world, platform, censor, and churn sub-seeds all
    /// derive from it).
    pub seed: u64,
    /// Days in the measurement period.
    pub total_days: u32,
    /// Records written to the dump.
    pub records: u64,
}

impl StudyManifest {
    /// Conventional sidecar path for a dump at `jsonl_path`.
    pub fn path_for(jsonl_path: &str) -> String {
        format!("{jsonl_path}.manifest.json")
    }
}

/// Run the full measurement campaign and stream every measurement to `w`
/// as one [`NativeRecord`] JSON line, without ever holding the campaign
/// in memory. Returns the record count and the runner's dataset stats.
///
/// The first write error aborts further serialization (the run itself
/// cannot be interrupted mid-sink) and is returned.
pub fn export_study<W: Write>(
    platform: &Platform<'_>,
    sim: &RoutingSim,
    mut w: W,
) -> std::io::Result<(u64, DatasetStats)> {
    let mut records = 0u64;
    let mut err: Option<std::io::Error> = None;
    let stats = platform.run(sim, |m| {
        if err.is_some() {
            return;
        }
        // The record carries its tested domain, so a dump is
        // interpretable without the generating corpus.
        let domain = &platform.corpus().get(m.url_id).domain;
        let rec = NativeRecord::from_measurement(&m, domain);
        let line = serde_json::to_string(&rec).expect("NativeRecord always serializes");
        let result = w.write_all(line.as_bytes()).and_then(|()| w.write_all(b"\n"));
        match result {
            Ok(()) => records += 1,
            Err(e) => err = Some(e),
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok((records, stats)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_jsonl;
    use churnlab_bgp::ChurnConfig;
    use churnlab_censor::{CensorConfig, CensorshipScenario};
    use churnlab_platform::{PlatformConfig, PlatformScale};
    use churnlab_topology::{generator, WorldConfig, WorldScale};

    #[test]
    fn export_streams_every_measurement_with_its_domain() {
        let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 9));
        let mut ccfg = CensorConfig::scaled_for(world.topology.countries().len());
        ccfg.total_days = 60;
        let scenario = CensorshipScenario::generate_for_world(&world, &ccfg);
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 9);
        let platform = Platform::new(&world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(
            &world.topology,
            &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
        );

        let mut buf = Vec::new();
        let (records, stats) = export_study(&platform, &sim, &mut buf).unwrap();
        assert_eq!(records, stats.measurements);

        // The dump re-imports losslessly and the domains match the corpus.
        let (collected, _) = platform.run_collect_parallel(&sim, 1);
        let mut back = Vec::new();
        let import = read_jsonl(&buf[..], |m, d| back.push((m, d.to_string()))).unwrap();
        assert_eq!(import.ok, records);
        assert_eq!(import.malformed, 0);
        assert_eq!(back.len(), collected.len());
        for ((m, domain), expected) in back.iter().zip(&collected) {
            assert_eq!(m, expected);
            assert_eq!(domain, &platform.corpus().get(expected.url_id).domain);
        }
    }

    #[test]
    fn manifest_sidecar_path_and_roundtrip() {
        let m = StudyManifest { scale: "small".into(), seed: 42, total_days: 365, records: 40000 };
        assert_eq!(StudyManifest::path_for("dump.jsonl"), "dump.jsonl.manifest.json");
        let line = serde_json::to_string(&m).unwrap();
        let back: StudyManifest = serde_json::from_str(&line).unwrap();
        assert_eq!(back, m);
    }
}
