//! Observability plumbing shared by the bench binaries: one registry (+
//! optional journal) handed to every engine a run constructs, and a
//! background scraper that keeps a Prometheus text file current while
//! the run is in flight.

use churnlab_engine::EngineObs;
use churnlab_obs::{render_prometheus, rss_bytes, Journal, Registry};
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
