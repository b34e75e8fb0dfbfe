//! `bench campaign` — end-to-end campaign throughput: measurements/sec
//! through the **fused** sim→engine path
//! (`churnlab_engine::campaign::run_fused`) at several generator thread
//! counts, against a serial `Platform::run` reference, written as one
//! JSON document (`BENCH_campaign.json`).
//!
//! ```text
//! bench campaign                                  # smoke, report on stdout
//! bench campaign --threads 1,2,4,8 --repeats 3 --assert-scaling
//! bench campaign --baseline BENCH_campaign.json --out BENCH_campaign.json --require-gate
//! ```
//!
//! Where `enginebench` times the engine over a *pre-collected* campaign
//! (isolating tomography cost), this module times the whole wire:
//! simulation, anomaly detection, noise, channel hop, conversion, and
//! incremental solving — the number a deployed measurement platform
//! actually experiences. Correctness rides along: every row's
//! [`churnlab_core::report::CanonicalReport`] digest must equal the
//! serial reference's, so the sweep re-proves the parallel runner's
//! byte-equality claim at every thread count it times, and aborts
//! before any report is written otherwise.
//!
//! The corpus is [`URLS`] URLs at every scale: the parallel runner
//! partitions work at URL granularity, so at 8 threads a 16-URL smoke
//! corpus measures partition skew, not scaling; 64 keeps the skew under
//! ~12%.
//!
//! `--baseline`, `--require-gate`, `--update-baseline` and
//! `--assert-scaling` are the shared [`crate::gate`]s, over the
//! speedup-vs-serial ratio. Each row carries two **scaling efficiency**
//! figures relative to the 1-thread fused row:
//!
//! * `wallclock_efficiency` — `(meas/s at N threads) / (meas/s at 1) / N`,
//!   meaningful only when the machine has at least N cores;
//! * `model_efficiency` — `C_1 / (N × C_N)` over the runner's per-worker
//!   busy-time attribution (`C_k` = the slowest worker's busy nanos at
//!   `k` threads, minimized over repeats), which exposes a serialized
//!   runner (one worker doing all the generation) even on a box with
//!   fewer cores than workers.
//!
//! A flat thread curve — workers contending on a shared lock, or one
//! worker claiming the whole corpus — fails both.
//!
//! The report also carries `gen_allocs_per_meas`: heap allocations per
//! measurement over one serial `Platform::run` pass on the warm simulator
//! into a dropping sink, counted by the binary's allocator (the one
//! `bench route` audits with). A run gated against a `--baseline` fails
//! above [`MAX_GEN_ALLOCS_PER_MEAS`] — the generator's steady state is
//! its per-test scratch, not the allocator.
//!
//! And `fusion_inflation`: what feeding the engine costs the generator
//! *on its own thread* — the 1-thread fused row's generator busy time
//! over the busy time of the same pass into a dropping sink. The wire
//! hands the shard flat copies and frees each measurement where it was
//! made, so the ratio should read ~1.0; when measurements crossed the
//! channel themselves, to be freed by the shard, it read 1.37 on two
//! cores (glibc's cross-thread free path, paid by the allocating
//! thread). With both threads on one core (`taskset -c 0`) they share a
//! cache and the penalty mostly vanishes, so there the number is a
//! diagnostic; a gated run with two or more cores fails above
//! `MAX_FUSION_INFLATION` (1.15).

use crate::cli::{self, Args, Flag, Kind, Sub, OUT, POSITIVE, REPEATS, SCALE_SMOKE, SEED};
use crate::gate::{self, AsSweep, Gate, Plan, Sweep, SweepRow};
use crate::routebench::counting_allocs;
use crate::{scale_label, Bench};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{campaign, Engine, EngineConfig};
use churnlab_platform::{CampaignBusy, Platform, PlatformConfig};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

/// URL-corpus size the bench runs over (see the module docs).
pub const URLS: usize = 64;

/// Ceiling on the generator's steady-state heap allocations per
/// measurement. What is left under it is what a [`Measurement`] owns
/// (its traceroute vectors), the two DNS wires stamped with the test's
/// transaction id, and whatever an injecting censor forges.
///
/// [`Measurement`]: churnlab_platform::Measurement
pub const MAX_GEN_ALLOCS_PER_MEAS: f64 = 12.0;

/// Ceiling on [`CampaignReport::fusion_inflation`] where the generator
/// and the shard can run on cores of their own.
const MAX_FUSION_INFLATION: f64 = 1.15;

/// `bench campaign`.
pub const SUB: Sub = Sub {
    name: "campaign",
    about: "fused sim→engine throughput vs a serial reference; regression and scaling gates",
    flags: &[
        SCALE_SMOKE,
        SEED,
        Flag::new("--threads", Kind::Counts, "1,2,4,8", "generator thread counts to sweep"),
        Flag::new("--shards", POSITIVE, "2", "engine shards (fixed across the sweep)"),
        REPEATS,
        OUT,
        gate::BASELINE,
        gate::REQUIRE_GATE,
        gate::UPDATE_BASELINE,
        gate::ASSERT_SCALING,
        gate::MIN_EFFICIENCY,
    ],
    positional: None,
    rules: &[gate::REFRESH_IS_UNGATED],
    run,
};

/// An assembled study plus the fixed tomography config — the workload
/// every thread count is timed against. The platform and simulator are
/// built once; each timed pass builds a fresh engine and re-runs the
/// campaign through it.
pub struct CampaignHarness<'w> {
    /// The platform (vantage fleet, URL corpus, schedule).
    pub platform: Platform<'w>,
    /// The routing simulator (shared, read-only across workers).
    pub sim: churnlab_bgp::RoutingSim<'w>,
    /// Tomography configuration shared by all rows.
    pub cfg: PipelineConfig,
}

impl<'w> CampaignHarness<'w> {
    /// Assemble from a [`Bench`] over a [`URLS`]-URL corpus, which keeps
    /// the parallel runner's URL-granularity work units small relative
    /// to a worker's share: thread-count sweeps then measure scaling
    /// rather than partition skew.
    pub fn assemble(bench: &'w Bench) -> CampaignHarness<'w> {
        let platform_cfg = PlatformConfig { n_urls: URLS, ..bench.platform_cfg.clone() };
        let platform = Platform::new(&bench.world, &bench.scenario, platform_cfg);
        let sim = bench.sim();
        let cfg = PipelineConfig::paper(platform.config().total_days);
        CampaignHarness { platform, sim, cfg }
    }

    /// Time one serial pass — `Platform::run` feeding a 1-shard engine
    /// measurement by measurement — returning seconds, the measurement
    /// count, and the canonical-report digest every fused row must match.
    pub fn time_serial(&self) -> (f64, u64, u64) {
        let start = Instant::now();
        let engine = Engine::new(&self.platform, EngineConfig::new(self.cfg.clone()));
        let stats = self.platform.run(&self.sim, |m| engine.ingest_owned(m));
        let digest = engine.finish().canonical_report().digest();
        (start.elapsed().as_secs_f64(), stats.measurements, digest)
    }

    /// Time one fused pass at `threads` generator workers over a
    /// `shards`-shard engine: seconds, digest, and the runner's
    /// per-worker busy attribution.
    pub fn time_fused(&self, threads: usize, shards: usize) -> (f64, u64, CampaignBusy) {
        let start = Instant::now();
        let engine =
            Engine::new(&self.platform, EngineConfig::new(self.cfg.clone()).with_shards(shards));
        let run = campaign::run_fused(&self.platform, &self.sim, &engine, threads);
        let digest = engine.finish().canonical_report().digest();
        (start.elapsed().as_secs_f64(), digest, run.busy)
    }

    /// The generator's busy nanoseconds over one pass into a dropping
    /// sink — the denominator of [`CampaignReport::fusion_inflation`],
    /// on the clock the fused rows' busy attribution reads. Call it after
    /// a timed pass, so the simulator's route trees are cached.
    pub fn gen_alone_nanos(&self) -> u64 {
        self.platform.run_parallel(&self.sim, 1, |_worker| drop).busy.max_nanos()
    }

    /// Heap allocations per measurement over one serial generator pass
    /// into a dropping sink. Call it after a timed pass, so the
    /// simulator's route trees are cached; reads zero unless the process
    /// runs the `bench` binary's counting allocator.
    pub fn gen_allocs_per_meas(&self) -> f64 {
        let (stats, allocs) = counting_allocs(|| self.platform.run(&self.sim, drop));
        allocs as f64 / stats.measurements.max(1) as f64
    }
}

/// One fused timing row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRow {
    /// Generator worker count.
    pub threads: usize,
    /// Engine shard count (fixed across the sweep).
    pub shards: usize,
    /// Best-of-repeats wall seconds (engine build + fused run + finish).
    pub secs: f64,
    /// Measurements generated and solved per second, end to end.
    pub meas_per_sec: f64,
    /// Ratio vs the serial reference's measurements/sec.
    pub speedup_vs_serial: f64,
    /// Wall-clock scaling efficiency vs the sweep's 1-thread row. Only
    /// meaningful when `available_cores >= threads`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wallclock_efficiency: Option<f64>,
    /// Busy-time-model scaling efficiency vs the 1-thread row:
    /// `C_1 / (threads × C_N)`, `C_k` = slowest worker's busy nanos
    /// (minimized over repeats — the noise-floor estimator).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub model_efficiency: Option<f64>,
    /// Slowest worker's busy nanos in the best repeat.
    pub busy_max_nanos: u64,
    /// Sum of all workers' busy nanos in the best repeat.
    pub busy_total_nanos: u64,
    /// Every repeat's canonical-report digest equalled the serial
    /// reference's. Anything but `true` is a correctness bug, and
    /// [`run_campaign_sweep`] panics before writing such a row.
    pub digest_matches_serial: bool,
}

/// The full campaign throughput report (`BENCH_campaign.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Workload scale label.
    pub scale: String,
    /// Study seed.
    pub seed: u64,
    /// URL-corpus size the campaign ran over.
    pub urls: usize,
    /// Measurements per pass.
    pub measurements: u64,
    /// Cores visible to the process (context for the thread sweep).
    pub available_cores: usize,
    /// Whether worker busy time was per-thread on-CPU time rather than
    /// the wall-interval fallback (decides the gate's preferred basis).
    pub busy_cpu_attributed: bool,
    /// Serial reference best-of-repeats seconds.
    pub serial_secs: f64,
    /// Serial reference measurements/sec.
    pub serial_meas_per_sec: f64,
    /// The serial reference's canonical-report digest (hex).
    pub digest: String,
    /// Generator heap allocations per measurement, steady state (see
    /// [`CampaignHarness::gen_allocs_per_meas`]).
    #[serde(default)]
    pub gen_allocs_per_meas: f64,
    /// The 1-thread fused row's generator busy time over the busy time of
    /// a generator pass into a dropping sink, each the least of its
    /// repeats: what the wire costs the generating thread (see the module
    /// docs). Absent when the sweep has no 1-thread row.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fusion_inflation: Option<f64>,
    /// One row per thread count.
    pub rows: Vec<CampaignRow>,
}

/// Run the sweep: best-of-`repeats` serial reference, then best-of-
/// `repeats` fused passes at each thread count, asserting digest
/// identity on **every** pass. Panics on a digest mismatch — a perf
/// report for a parallel runner that changed the answer is worse than
/// no report.
pub fn run_campaign_sweep(
    harness: &CampaignHarness<'_>,
    scale_label: &str,
    seed: u64,
    thread_counts: &[usize],
    shards: usize,
    repeats: usize,
) -> CampaignReport {
    let repeats = repeats.max(1);

    let serial: Vec<(f64, u64, u64)> = (0..repeats).map(|_| harness.time_serial()).collect();
    let n = serial[0].1;
    let digest = serial[0].2;
    let serial_secs = serial.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    let serial_meas_per_sec = n as f64 / serial_secs;

    let mut rows = Vec::new();
    let mut min_crit = Vec::new(); // per-row noise-floor critical path
    let mut cpu_attributed = true;
    for &threads in thread_counts {
        let runs: Vec<(f64, u64, CampaignBusy)> =
            (0..repeats).map(|_| harness.time_fused(threads, shards)).collect();
        for (_, d, busy) in &runs {
            assert_eq!(
                *d, digest,
                "fused run at {threads} thread(s) diverged from the serial reference"
            );
            cpu_attributed &= busy.cpu_clock;
        }
        min_crit.push(runs.iter().map(|(_, _, b)| b.max_nanos()).min().expect("repeats >= 1"));
        // Keep the busy counters paired with the repeat they came from:
        // one coherent observation, not best wall glued to another
        // repeat's attribution.
        let (secs, _, busy) =
            runs.into_iter().min_by(|a, b| a.0.total_cmp(&b.0)).expect("repeats >= 1");
        let meas_per_sec = n as f64 / secs;
        rows.push(CampaignRow {
            threads,
            shards,
            secs,
            meas_per_sec,
            speedup_vs_serial: meas_per_sec / serial_meas_per_sec,
            wallclock_efficiency: None, // filled below, needs the 1-thread row
            model_efficiency: None,
            busy_max_nanos: busy.max_nanos(),
            busy_total_nanos: busy.total_nanos(),
            digest_matches_serial: true,
        });
    }

    // Efficiency is relative to the sweep's own 1-thread fused row.
    let base = rows
        .iter()
        .zip(&min_crit)
        .find(|(r, _)| r.threads == 1)
        .map(|(r, &c)| (r.meas_per_sec, c));
    for (row, &crit) in rows.iter_mut().zip(&min_crit) {
        (row.wallclock_efficiency, row.model_efficiency) =
            gate::efficiency(base, row.threads, row.meas_per_sec, crit);
    }
    let fusion_inflation = base.map(|(_, fused_nanos)| {
        let alone = (0..repeats).map(|_| harness.gen_alone_nanos()).min().expect("repeats >= 1");
        fused_nanos as f64 / alone.max(1) as f64
    });

    CampaignReport {
        scale: scale_label.to_string(),
        seed,
        urls: harness.platform.config().n_urls,
        measurements: n,
        available_cores: std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
        busy_cpu_attributed: cpu_attributed,
        serial_secs,
        serial_meas_per_sec,
        digest: format!("{digest:016x}"),
        gen_allocs_per_meas: harness.gen_allocs_per_meas(),
        fusion_inflation,
        rows,
    }
}

impl AsSweep for CampaignReport {
    fn sweep(&self) -> Sweep {
        let rows = self.rows.iter().map(|r| SweepRow {
            n: r.threads,
            speedup: r.speedup_vs_serial,
            wallclock_efficiency: r.wallclock_efficiency,
            model_efficiency: r.model_efficiency,
        });
        Sweep {
            unit: "thread",
            workload: format!("{}/{} urls", self.scale, self.urls),
            cores: self.available_cores,
            busy_cpu_attributed: self.busy_cpu_attributed,
            rows: rows.collect(),
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let plan = match Plan::from_args::<CampaignReport>(args, "BENCH_campaign.json") {
        Ok(plan) => plan,
        Err(msg) => return cli::usage_error(&msg),
    };
    let scale = args.scale().expect("--scale has a default");
    let (seed, shards, repeats): (u64, usize, usize) =
        (args.req("--seed"), args.req("--shards"), args.req("--repeats"));
    let threads = args.counts("--threads");

    let bench = Bench::assemble(scale, seed);
    let harness = CampaignHarness::assemble(&bench);
    eprintln!(
        "campaign: scale {}, {URLS} urls, thread counts {threads:?}, {shards} shard(s), best of {repeats}",
        scale_label(scale),
    );
    let report = run_campaign_sweep(&harness, scale_label(scale), seed, &threads, shards, repeats);

    eprintln!(
        "serial:     {:>10.0} meas/s ({:.3}s, {} measurements, digest {})",
        report.serial_meas_per_sec, report.serial_secs, report.measurements, report.digest
    );
    for row in &report.rows {
        eprintln!(
            "fused/{:<2}t  {:>10.0} meas/s ({:.3}s) speedup {:>5.2}x eff wall {} model {}  \
             [busy max {:.3}s total {:.3}s]",
            row.threads,
            row.meas_per_sec,
            row.secs,
            row.speedup_vs_serial,
            gate::show_efficiency(row.wallclock_efficiency),
            gate::show_efficiency(row.model_efficiency),
            row.busy_max_nanos as f64 / 1e9,
            row.busy_total_nanos as f64 / 1e9,
        );
    }
    eprintln!("generator:  {:>10.1} allocations/measurement, steady state", report.gen_allocs_per_meas);
    if let Some(inflation) = report.fusion_inflation {
        eprintln!("wire:       {inflation:>10.2}x generator busy, fused over a dropping sink");
    }
    let gate = Gate { who: "campaign", journal: None };
    let mut over_ceiling = Vec::new();
    if plan.baseline.is_some() {
        if report.gen_allocs_per_meas > MAX_GEN_ALLOCS_PER_MEAS {
            over_ceiling.push(format!(
                "generator allocates {:.1} times per measurement (ceiling {MAX_GEN_ALLOCS_PER_MEAS})",
                report.gen_allocs_per_meas
            ));
        }
        // On one core the two threads share a cache and the number says
        // little; off the on-CPU clock it is not a busy ratio at all.
        let inflation = report
            .fusion_inflation
            .filter(|_| report.available_cores >= 2 && report.busy_cpu_attributed);
        if let Some(inflation) = inflation.filter(|&i| i > MAX_FUSION_INFLATION) {
            over_ceiling.push(format!(
                "feeding the engine inflates the generator's busy time {inflation:.2}x \
                 (ceiling {MAX_FUSION_INFLATION})"
            ));
        }
    }
    let failures = plan.conclude(&gate, &report.sweep(), &report, over_ceiling);
    gate::verdict(gate.who, &failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_topology::WorldScale;

    /// The sweep produces coherent rows: digests anchored to the serial
    /// reference, efficiency figures relative to the 1-thread row, busy
    /// attribution populated.
    #[test]
    fn sweep_is_coherent_and_digest_anchored() {
        let bench = Bench::assemble(WorldScale::Smoke, 17);
        let harness = CampaignHarness::assemble(&bench);
        let report = run_campaign_sweep(&harness, "smoke", 17, &[1, 2], 2, 1);
        assert_eq!(report.rows.len(), 2);
        assert!(report.measurements > 0);
        assert_eq!(report.urls, URLS);
        for row in &report.rows {
            assert!(row.digest_matches_serial);
            assert!(row.meas_per_sec > 0.0);
            assert!(row.busy_total_nanos >= row.busy_max_nanos);
            assert!(row.busy_max_nanos > 0);
        }
        let one = &report.rows[0];
        assert_eq!(one.threads, 1);
        assert!((one.wallclock_efficiency.unwrap() - 1.0).abs() < 1e-9);
        assert!((one.model_efficiency.unwrap() - 1.0).abs() < 1e-9);
        let inflation = report.fusion_inflation.expect("the sweep has a 1-thread row");
        assert!(inflation > 0.5 && inflation < 3.0, "fused/alone generator busy: {inflation}");
        // The report round-trips (the regression gate reads it back).
        let json = serde_json::to_string(&report).expect("report serializes");
        let back: CampaignReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, report);
    }
}
