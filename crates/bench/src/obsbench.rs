//! Observability plumbing shared by the bench binaries: one registry (+
//! optional journal) handed to every engine a run constructs, a
//! background scraper that keeps a Prometheus text file current while
//! the run is in flight, and the end-of-run mirror of a report's stats
//! structs into that registry.

use churnlab_engine::EngineObs;
use churnlab_obs::{render_prometheus, rss_bytes, Journal, Registry};
use serde::Serialize;
use serde_json::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The observability sink a bench run shares across every engine it
/// builds: handles are shallow clones, so repeated runs accumulate into
/// the same series (registration is idempotent by `(name, labels)`).
#[derive(Clone)]
pub struct BenchObs {
    /// The registry every engine in the run registers into.
    pub registry: Registry,
    /// Event journal shared by every engine in the run, if any.
    pub journal: Option<Journal>,
}

impl BenchObs {
    /// A sink over a fresh registry, journal optional.
    pub fn new(journal: Option<Journal>) -> BenchObs {
        BenchObs { registry: Registry::new(), journal }
    }

    /// A fresh [`EngineObs`] over this sink's shared handles, for one
    /// engine construction.
    pub fn engine_obs(&self) -> EngineObs {
        let obs = EngineObs::new(self.registry.clone());
        match &self.journal {
            Some(j) => obs.with_journal(j.clone()),
            None => obs,
        }
    }
}

/// Mirror a stats struct into gauges on `registry`: one per integer leaf
/// of its serialized form, named by the leaf's field path under `prefix`
/// (`churnlab_stats` → `churnlab_stats_busy_merge_nanos`). The report's
/// JSON and the scrape read the same `Serialize`, so a field added to a
/// stats struct reaches both and they cannot disagree. Gauges, not
/// counters, on purpose: these are absolute values from a finished cut,
/// so re-recording after a later cut overwrites (values past `i64::MAX`
/// saturate, which nothing real reaches). The namespace is disjoint from
/// the live `churnlab_*_total{shard}` series, so the two never collide on
/// metric kind.
pub fn record_stats(registry: &Registry, prefix: &str, stats: &impl Serialize) {
    fn walk(registry: &Registry, name: &str, value: &Value) {
        let help = "end-of-run mirror of a report stats field";
        let set = |v: i64| registry.gauge(name, help, &[]).set(v);
        match value {
            Value::Object(fields) => {
                fields.iter().for_each(|(field, v)| walk(registry, &format!("{name}_{field}"), v))
            }
            Value::U64(v) => set((*v).min(i64::MAX as u64) as i64),
            Value::I64(v) => set(*v),
            _ => {}
        }
    }
    walk(registry, prefix, &serde_json::to_value(stats).expect("stats structs serialize"));
}

/// How often the background scraper rewrites the metrics file.
const SCRAPE_EVERY: Duration = Duration::from_millis(500);

/// A background thread keeping `path` current with the registry's
/// Prometheus text exposition — scrape-file semantics (atomic enough for
/// `watch cat`/node-exporter-style collection) without any network
/// surface. [`MetricsWriter::finish`] stops it and writes one final
/// scrape, so the file always ends at the run's terminal state.
pub struct MetricsWriter {
    registry: Registry,
    path: String,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl MetricsWriter {
    /// Start scraping `registry` to `path` every ~500ms.
    pub fn spawn(registry: Registry, path: &str) -> MetricsWriter {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let registry = registry.clone();
            let path = path.to_string();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    scrape_to(&registry, &path);
                    std::thread::sleep(SCRAPE_EVERY);
                }
            })
        };
        MetricsWriter { registry, path: path.to_string(), stop, handle }
    }

    /// Stop the scraper and write the final exposition.
    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        scrape_to(&self.registry, &self.path);
    }
}

/// Write one scrape to `path`, refreshing the process RSS gauge first. A
/// `None` RSS reading (non-Linux) registers nothing — absent beats a lying
/// zero. Write errors are deliberately swallowed: a broken metrics file
/// must never take down the run it observes (same policy as the journal's
/// sink).
fn scrape_to(registry: &Registry, path: &str) {
    if let Some(rss) = rss_bytes() {
        registry
            .gauge("churnlab_rss_bytes", "process resident-set size in bytes", &[])
            .set(rss.min(i64::MAX as u64) as i64);
    }
    let _ = std::fs::write(path, render_prometheus(&registry.scrape()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_engine::EngineStats;
    use churnlab_interop::ImportStats;

    #[test]
    fn record_stats_names_a_gauge_per_integer_leaf_by_its_field_path() {
        let registry = Registry::new();
        let mut stats = EngineStats { shards: 3, observations: 9, ..Default::default() };
        stats.incremental.updates = 5;
        stats.interner.hits = 7;
        stats.busy.merge_nanos = u64::MAX;
        stats.retire.churn_late_dropped = 2;
        record_stats(&registry, "churnlab_stats", &stats);
        let import = ImportStats { ok: 11, ..Default::default() };
        record_stats(&registry, "churnlab_stats_import", &import);
        let scrape = registry.scrape();
        for (name, want) in [
            ("churnlab_stats_shards", 3),
            ("churnlab_stats_observations", 9),
            ("churnlab_stats_incremental_updates", 5),
            ("churnlab_stats_incremental_resolves", 0),
            ("churnlab_stats_interner_hits", 7),
            ("churnlab_stats_busy_merge_nanos", i64::MAX),
            ("churnlab_stats_sat_propagations", 0),
            ("churnlab_stats_retire_churn_late_dropped", 2),
            ("churnlab_stats_import_ok", 11),
            ("churnlab_stats_import_rejected", 0),
        ] {
            assert_eq!(scrape.gauge(name, &[]), Some(want), "{name}");
        }
        // A later cut overwrites.
        stats.observations = 10;
        record_stats(&registry, "churnlab_stats", &stats);
        assert_eq!(registry.scrape().gauge("churnlab_stats_observations", &[]), Some(10));
    }

    #[test]
    fn metrics_writer_leaves_final_scrape() {
        let sink = BenchObs::new(None);
        sink.registry.counter("bench_test_total", "t", &[]).add(7);
        let dir = std::env::temp_dir().join("churnlab_obsbench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let writer = MetricsWriter::spawn(sink.registry.clone(), path.to_str().unwrap());
        sink.registry.counter("bench_test_total", "t", &[]).add(5);
        writer.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("bench_test_total 12"), "final scrape missing: {text}");
        std::fs::remove_file(&path).ok();
    }
}
