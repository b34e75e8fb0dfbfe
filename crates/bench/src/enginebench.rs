//! `bench engine` — engine throughput: measurements/sec through the batch
//! [`Pipeline`] vs the sharded [`Engine`] at several shard counts, over
//! one pre-collected measurement campaign, written as one JSON document
//! (`BENCH_engine.json`) so CI accumulates a perf trajectory.
//!
//! ```text
//! bench engine                                   # smoke, report on stdout
//! bench engine --scale small --shards 1,2,4,8 --repeats 5
//! bench engine --baseline BENCH_engine.json --out BENCH_engine.json --require-gate
//! bench engine --update-baseline                 # refresh BENCH_engine.json, ungated
//! bench engine --shards 1,2,4,8 --assert-scaling
//! bench engine --assert-overhead --scale smoke --shards 4 --repeats 5
//! ```
//!
//! `--feeders 0` (the default) gives every row one feeder thread per
//! shard — the supply/demand-matched configuration the scaling gate
//! reasons about. `--baseline`, `--require-gate`, `--update-baseline`
//! and `--assert-scaling` are the shared [`crate::gate`]s, over the
//! speedup-vs-pipeline ratio.
//!
//! Besides wall-clock throughput, each row carries two **scaling
//! efficiency** figures relative to the 1-shard row:
//!
//! * `wallclock_efficiency` — `(meas/s at N shards) / (meas/s at 1) / N`,
//!   the real thing, meaningful only when the machine has at least N
//!   cores to run the shards on;
//! * `model_efficiency` — the same ratio computed over the engine's
//!   per-thread busy-time attribution (`critical path = max shard busy +
//!   merge`), which exposes a *serialized* engine (one thread doing all
//!   the work) even on a box with fewer cores than shards, where
//!   wall-clock cannot.
//!
//! A flat shard curve — the bug the scaling gate exists to catch — fails
//! both: wall-clock efficiency at N shards lands near `1/N`, and the
//! busy-time model shows one shard's busy time not shrinking as N grows.
//!
//! The report also carries the conversion stage's unit cost over the
//! same campaign — `convert_ns_per_meas` and `convert_allocs_per_meas`,
//! one warm [`convert_into`] pass on the calling thread, allocations
//! counted by the binary's allocator (the one `bench route` audits
//! with). A run gated against a `--baseline` fails above
//! [`MAX_CONVERT_ALLOCS_PER_MEAS`]: the shard's conversion runs in its
//! scratch, not the allocator.
//!
//! It carries the fold's split — `phase_us_per_meas`, shard on-CPU
//! microseconds per measurement in each of the four passes a block is
//! folded in ([`FOLD_PHASES`]) — read off the registry scrape of one
//! instrumented one-shard pass: the numbers a Prometheus scrape of a
//! deployed engine shows, not a second set of books.
//!
//! And it carries the read path: `snapshot_ms` and `snapshot_allocs` of
//! one quiescent `Engine::snapshot()` + drop once the whole campaign is
//! in a one-shard engine (best of [`SNAPSHOT_REPEATS`]), without a
//! lateness horizon and with [`SNAPSHOT_HORIZON_DAYS`] over the
//! day-sorted stream. The time is reported; the allocation count is
//! deterministic, and a `--baseline`-gated run fails if the retiring
//! engine's exceeds [`MAX_HORIZON_SNAPSHOT_ALLOCS`] — a report shares the
//! engine's solved cells and churn windows, it does not copy them.
//!
//! `--assert-overhead` is a dedicated mode: the same workload through a
//! *stripped* engine (no metrics registry — zero atomic ops) and an
//! instrumented one, interleaved best-of-`--repeats` with alternating
//! order, at the highest `--shards` count. Both arms are measured on the
//! wall clock and on the engine's own busy attribution; the gate arms on
//! the on-CPU delta (the work instrumentation *adds*, immune to other
//! processes stealing the core) whenever the thread CPU clock exists,
//! wall clock otherwise (announced). The run fails (exit 1) if
//! instrumentation costs more than [`MAX_OVERHEAD`].
//!
//! `--metrics-out FILE` makes the run instrumented and keeps FILE
//! current with the registry's Prometheus text exposition (rewritten
//! every ~500ms by a scraper thread, final scrape at exit).
//! `--journal-out FILE` streams the run's JSONL event journal there —
//! engine events plus the gates' `gate_armed`/`gate_skipped` outcomes.

use crate::cli::{self, Args, Flag, Kind, Rule, Sub, OUT, REPEATS, SCALE_SMOKE, SEED, UINT};
use crate::gate::{self, AsSweep, Gate, Plan, Sweep, SweepRow};
use crate::obsbench::{BenchObs, MetricsWriter};
use crate::routebench::counting_allocs;
use crate::{best_of, scale_label, Bench};
use churnlab_core::convert::{convert_into, ConversionStats, ConvertScratch};
use churnlab_core::pipeline::{Pipeline, PipelineConfig};
use churnlab_engine::{Engine, EngineConfig, EngineStats};
use churnlab_obs::Journal;
use churnlab_platform::{Measurement, Platform};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Instrumentation may cost at most this fraction of stripped throughput.
pub const MAX_OVERHEAD: f64 = 0.02;

/// Ceiling on warm-path conversion's heap allocations per measurement.
pub const MAX_CONVERT_ALLOCS_PER_MEAS: f64 = 0.0;

/// Quiescent snapshots timed per [`SnapshotCost`] row (best of).
pub const SNAPSHOT_REPEATS: usize = 20;

/// Lateness horizon of the retiring engine's [`SnapshotCost`] row, days.
pub const SNAPSHOT_HORIZON_DAYS: u32 = 7;

/// Ceiling on one quiescent snapshot's heap allocations at
/// [`SNAPSHOT_HORIZON_DAYS`]: what a report still allocates is its own
/// small accumulators and pointer lists, whatever the study's size
/// (measured 49,626 when reports deep-copied, 912 since).
pub const MAX_HORIZON_SNAPSHOT_ALLOCS: u64 = 2_000;

/// The four passes a shard folds a block in, as the `phase` label of
/// `churnlab_phase_nanos_total` names them.
pub const FOLD_PHASES: [&str; 4] = ["convert", "intern", "churn", "observe"];

/// `bench engine`.
pub const SUB: Sub = Sub {
    name: "engine",
    about: "engine throughput vs the batch pipeline; regression, scaling and overhead gates",
    flags: &[
        SCALE_SMOKE,
        SEED,
        Flag::new("--shards", Kind::Counts, "1,2,4,8", "shard counts to sweep"),
        Flag::new("--feeders", UINT, "0", "feeder threads per row (0 = one per shard)"),
        REPEATS,
        OUT,
        gate::BASELINE,
        gate::REQUIRE_GATE,
        gate::UPDATE_BASELINE,
        gate::ASSERT_SCALING,
        gate::MIN_EFFICIENCY,
        Flag::new("--assert-overhead", Kind::Switch, "", "stripped-vs-instrumented mode: exit 1 if metrics cost more than 2%"),
        Flag::new("--metrics-out", Kind::Text, "", "instrument the run; keep this Prometheus text file current"),
        Flag::new("--journal-out", Kind::Text, "", "instrument the run; stream its JSONL event journal here"),
    ],
    positional: None,
    rules: &[
        gate::REFRESH_IS_UNGATED,
        Rule::Conflict("--assert-overhead", "--baseline"),
        Rule::Conflict("--assert-overhead", "--assert-scaling"),
        Rule::Conflict("--assert-overhead", "--update-baseline"),
    ],
    run,
};

/// An assembled platform plus its pre-collected measurement campaign —
/// the fixed workload every contender is timed against.
pub struct ThroughputHarness<'w> {
    /// The platform (IP-to-AS context for pipeline/engine construction).
    pub platform: Platform<'w>,
    /// The full campaign, in the runner's URL-grouped order.
    pub measurements: Vec<Measurement>,
    /// Tomography configuration shared by all contenders.
    pub cfg: PipelineConfig,
}

impl<'w> ThroughputHarness<'w> {
    /// Run the measurement campaign once and capture it.
    pub fn assemble(bench: &'w Bench) -> ThroughputHarness<'w> {
        let platform = Platform::new(&bench.world, &bench.scenario, bench.platform_cfg.clone());
        let sim = bench.sim();
        let (measurements, _) = platform.run_collect_parallel(&sim, 1);
        let cfg = PipelineConfig::paper(bench.platform_cfg.total_days);
        ThroughputHarness { platform, measurements, cfg }
    }

    /// Time one batch-pipeline pass (ingest + finish), returning seconds.
    pub fn time_pipeline(&self) -> f64 {
        let start = Instant::now();
        let mut pipeline = Pipeline::new(&self.platform, self.cfg.clone());
        for m in &self.measurements {
            pipeline.ingest(m);
        }
        let results = pipeline.finish();
        let secs = start.elapsed().as_secs_f64();
        assert!(!results.outcomes.is_empty(), "pipeline produced no CNFs");
        secs
    }

    /// What conversion alone costs over the campaign: nanoseconds and
    /// heap allocations per measurement of one [`convert_into`] pass on
    /// this thread, after a first pass has sized the scratch. The
    /// allocation count reads zero unless the process runs the `bench`
    /// binary's counting allocator.
    pub fn convert_cost(&self) -> (f64, f64) {
        let db = self.platform.measured_ip2as();
        let mut scratch = ConvertScratch::default();
        let mut pass = || {
            let mut stats = ConversionStats::default();
            for m in &self.measurements {
                std::hint::black_box(convert_into(m, db, &mut stats, &mut scratch));
            }
            stats
        };
        let warm = pass();
        let start = Instant::now();
        let (timed, allocs) = counting_allocs(&mut pass);
        let nanos = start.elapsed().as_nanos() as f64;
        assert_eq!(warm, timed, "conversion is a function of the measurement");
        let n = self.measurements.len().max(1) as f64;
        (nanos / n, allocs as f64 / n)
    }

    /// Where a shard's time goes: one instrumented one-shard, one-feeder
    /// pass, then each of [`FOLD_PHASES`] read off the scrape of the
    /// registry that pass published into, in microseconds per measurement
    /// the same scrape counted.
    pub fn phase_split(&self) -> BTreeMap<String, f64> {
        let sink = BenchObs::new(None);
        self.time_engine(1, 1, Some(&sink));
        let scrape = sink.registry.scrape();
        let n = scrape.counter_sum("churnlab_measurements_total").max(1) as f64;
        FOLD_PHASES
            .iter()
            .map(|&phase| {
                let labels = [("phase", phase), ("shard", "0")];
                let nanos = scrape.counter("churnlab_phase_nanos_total", &labels).unwrap_or(0);
                (phase.to_string(), nanos as f64 / 1e3 / n)
            })
            .collect()
    }

    /// What reading the report costs once the whole campaign is in: one
    /// one-shard engine fed the day-sorted stream (a live deployment's
    /// order, so a horizon actually retires windows), warmed by a first
    /// snapshot that solves every group, then [`SNAPSHOT_REPEATS`]
    /// quiescent `snapshot()` + drop calls — best wall time, and heap
    /// allocations by any thread (zero unless the process runs the
    /// `bench` binary's counting allocator).
    pub fn snapshot_cost(&self, horizon: Option<u32>) -> SnapshotCost {
        let mut cfg = EngineConfig::new(self.cfg.clone()).with_shards(1);
        cfg.window_horizon = horizon;
        let engine = Engine::new(&self.platform, cfg);
        let mut by_day: Vec<&Measurement> = self.measurements.iter().collect();
        by_day.sort_by_key(|m| m.day);
        let mut feeder = engine.feeder();
        for m in by_day {
            feeder.ingest_owned(m.clone());
        }
        drop(feeder);
        drop(engine.snapshot());
        let mut cost = SnapshotCost { horizon, snapshot_ms: f64::INFINITY, snapshot_allocs: u64::MAX };
        for _ in 0..SNAPSHOT_REPEATS {
            let start = Instant::now();
            let ((), allocs) = counting_allocs(|| drop(engine.snapshot()));
            cost.snapshot_ms = cost.snapshot_ms.min(start.elapsed().as_secs_f64() * 1e3);
            cost.snapshot_allocs = cost.snapshot_allocs.min(allocs);
        }
        cost
    }

    /// Time one engine pass with `shards` workers fed from `feeders`
    /// threads (ingest + finish), returning seconds and the engine's work
    /// counters. The per-feeder chunks are cloned *before* the clock
    /// starts: a deployed feeder owns its measurements (they arrive off
    /// the wire), so the copy is harness overhead, not engine work.
    /// `Some(obs)` builds an *instrumented* engine registering its series
    /// into the sink's shared registry, `None` the *stripped* one — the
    /// pair the overhead gate compares.
    pub fn time_engine(
        &self,
        shards: usize,
        feeders: usize,
        obs: Option<&BenchObs>,
    ) -> (f64, EngineStats) {
        let feeders = feeders.max(1);
        let chunks: Vec<Vec<Measurement>> = self
            .measurements
            .chunks(self.measurements.len().div_ceil(feeders))
            .map(<[Measurement]>::to_vec)
            .collect();
        let start = Instant::now();
        let mut cfg = EngineConfig::new(self.cfg.clone()).with_shards(shards);
        if let Some(sink) = obs {
            cfg = cfg.with_obs(sink.engine_obs());
        }
        let engine = Engine::new(&self.platform, cfg);
        std::thread::scope(|scope| {
            for chunk in chunks {
                let engine = &engine;
                scope.spawn(move || {
                    let mut feeder = engine.feeder();
                    for m in chunk {
                        feeder.ingest_owned(m);
                    }
                });
            }
        });
        let (results, stats) = engine.finish_with_stats();
        let secs = start.elapsed().as_secs_f64();
        assert!(!results.outcomes.is_empty(), "engine produced no CNFs");
        (secs, stats)
    }
}

/// One engine timing row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Shard worker count.
    pub shards: usize,
    /// Feeder thread count.
    pub feeders: usize,
    /// Best-of-repeats wall seconds.
    pub secs: f64,
    /// Measurements ingested per second.
    pub meas_per_sec: f64,
    /// Ratio vs the batch pipeline's measurements/sec.
    pub speedup_vs_pipeline: f64,
    /// Wall-clock scaling efficiency vs this sweep's 1-shard row:
    /// `(meas_per_sec / 1-shard meas_per_sec) / shards`. `None` when the
    /// sweep has no 1-shard row (and on pre-efficiency baseline files).
    /// Only meaningful when `available_cores >= shards`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wallclock_efficiency: Option<f64>,
    /// Busy-time-model scaling efficiency vs the 1-shard row:
    /// `C_1 / (shards × C_N)` where `C_k` is the critical path at `k`
    /// shards (slowest shard's busy nanos + merge nanos). Core-count
    /// independent: catches a serialized engine even on a 1-core box.
    /// Each `C_k` is the lowest critical path across the repeats — the
    /// noise-floor estimator, same logic as best-of wall time — so it
    /// may come from a different repeat than the wall-clock-best one
    /// this row's `stats` were taken from.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub model_efficiency: Option<f64>,
    /// Fraction of per-cell observe decisions that were duplicates — the
    /// distinct-path sparsity the interner exploits. Defaults to 0 so
    /// pre-interning baseline files still parse (the gate compares
    /// speedup ratios, which those files have).
    #[serde(default)]
    pub duplicate_ratio: f64,
    /// Distinct paths interned, summed over shards.
    #[serde(default)]
    pub distinct_paths: u64,
    /// Fraction of measurement-level interner probes answered from the
    /// table (duplicates at measurement granularity).
    #[serde(default)]
    pub interner_hit_rate: f64,
    /// Incremental-solve effectiveness counters.
    pub stats: EngineStats,
}

/// What one read of the report costs with the whole campaign ingested
/// (see [`ThroughputHarness::snapshot_cost`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotCost {
    /// The engine's lateness horizon, days; `None` = nothing retires.
    pub horizon: Option<u32>,
    /// Best wall milliseconds of one quiescent `snapshot()` + drop.
    pub snapshot_ms: f64,
    /// Fewest heap allocations of one such call, over all threads.
    pub snapshot_allocs: u64,
}

/// The full throughput report (`BENCH_engine.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Workload scale label.
    pub scale: String,
    /// Study seed.
    pub seed: u64,
    /// Measurements in the campaign.
    pub measurements: u64,
    /// Cores visible to the process (context for the shard sweep).
    pub available_cores: usize,
    /// Batch pipeline best-of-repeats seconds.
    pub pipeline_secs: f64,
    /// Batch pipeline measurements/sec.
    pub pipeline_meas_per_sec: f64,
    /// Conversion alone, nanoseconds per measurement (see
    /// [`ThroughputHarness::convert_cost`]).
    #[serde(default)]
    pub convert_ns_per_meas: f64,
    /// Conversion alone, heap allocations per measurement, warm.
    #[serde(default)]
    pub convert_allocs_per_meas: f64,
    /// The fold's split (see [`ThroughputHarness::phase_split`]), keyed
    /// by phase. Defaults to none so earlier baseline files still parse.
    #[serde(default)]
    pub phase_us_per_meas: BTreeMap<String, f64>,
    /// The read path: one row without a horizon, one at
    /// [`SNAPSHOT_HORIZON_DAYS`]. Defaults to none so pre-read-path
    /// baseline files still parse.
    #[serde(default)]
    pub snapshot: Vec<SnapshotCost>,
    /// One row per shard count.
    pub engine: Vec<ThroughputRow>,
}

impl AsSweep for ThroughputReport {
    fn sweep(&self) -> Sweep {
        let rows = self.engine.iter().map(|r| SweepRow {
            n: r.shards,
            speedup: r.speedup_vs_pipeline,
            wallclock_efficiency: r.wallclock_efficiency,
            model_efficiency: r.model_efficiency,
        });
        Sweep {
            unit: "shard",
            workload: self.scale.clone(),
            cores: self.available_cores,
            busy_cpu_attributed: true,
            rows: rows.collect(),
        }
    }
}

/// Run the sweep: best-of-`repeats` timing for the pipeline and for the
/// engine at each shard count. `feeders` is a spec: `0` matches the
/// row's shard count, anything else is a fixed feeder count. Passing an
/// observability sink times *instrumented* engines (all repeats
/// accumulate into the sink's registry) — leave it `None` for timing
/// runs the regression gate will compare against stripped baselines.
pub fn run_throughput(
    harness: &ThroughputHarness<'_>,
    scale_label: &str,
    seed: u64,
    shard_counts: &[usize],
    feeders: usize,
    repeats: usize,
    obs: Option<&BenchObs>,
) -> ThroughputReport {
    let repeats = repeats.max(1);
    let n = harness.measurements.len() as u64;

    let pipeline_secs = best_of(repeats, || harness.time_pipeline());
    let pipeline_meas_per_sec = n as f64 / pipeline_secs;

    let mut engine = Vec::new();
    let mut min_crit = Vec::new(); // per-row noise-floor critical path
    for &shards in shard_counts {
        // `0` = one feeder per shard: the configuration the scaling gate
        // reasons about (N cores' worth of supply driving N shards).
        let row_feeders = if feeders == 0 { shards } else { feeders };
        let runs: Vec<(f64, EngineStats)> =
            (0..repeats).map(|_| harness.time_engine(shards, row_feeders, obs)).collect();
        let crit = |s: &EngineStats| s.busy.shard_max_nanos + s.busy.merge_nanos;
        min_crit.push(runs.iter().map(|(_, s)| crit(s)).min().expect("repeats >= 1"));
        // Keep the stats paired with the repeat they came from: the
        // committed row must be one coherent observation, not the best
        // wall time glued to the last repeat's counters.
        let (secs, stats) = runs
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("repeats >= 1");
        let meas_per_sec = n as f64 / secs;
        engine.push(ThroughputRow {
            shards,
            feeders: row_feeders,
            secs,
            meas_per_sec,
            speedup_vs_pipeline: meas_per_sec / pipeline_meas_per_sec,
            wallclock_efficiency: None, // filled below, needs the 1-shard row
            model_efficiency: None,
            duplicate_ratio: stats.incremental.duplicate_ratio(),
            distinct_paths: stats.interner.distinct_paths,
            interner_hit_rate: stats.interner.hit_rate(),
            stats,
        });
    }

    // Efficiency is relative to the sweep's own 1-shard row.
    let base = engine
        .iter()
        .zip(&min_crit)
        .find(|(r, _)| r.shards == 1)
        .map(|(r, &c)| (r.meas_per_sec, c));
    for (row, &crit) in engine.iter_mut().zip(&min_crit) {
        (row.wallclock_efficiency, row.model_efficiency) =
            gate::efficiency(base, row.shards, row.meas_per_sec, crit);
    }

    let (convert_ns_per_meas, convert_allocs_per_meas) = harness.convert_cost();
    ThroughputReport {
        scale: scale_label.to_string(),
        seed,
        measurements: n,
        available_cores: std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1),
        pipeline_secs,
        pipeline_meas_per_sec,
        convert_ns_per_meas,
        convert_allocs_per_meas,
        phase_us_per_meas: harness.phase_split(),
        snapshot: [None, Some(SNAPSHOT_HORIZON_DAYS)].map(|h| harness.snapshot_cost(h)).to_vec(),
        engine,
    }
}

/// What the instrumentation costs: the same workload through a stripped
/// engine (`obs: None` — zero atomic ops, one predictable branch per
/// site) and an instrumented one, interleaved best-of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Workload scale label.
    pub scale: String,
    /// Shard worker count both arms ran at.
    pub shards: usize,
    /// Feeder thread count both arms ran at.
    pub feeders: usize,
    /// Repeats per arm (best-of).
    pub repeats: usize,
    /// Engine passes accumulated per repeat. Calibrated so each repeat
    /// gathers enough busy time (~1s) that fixed per-run jitter — cache
    /// state, interrupts, scheduler luck — sits well under the gate's
    /// budget even on tiny workloads.
    pub passes: usize,
    /// Measurements in the campaign (per pass).
    pub measurements: u64,
    /// Best stripped-engine seconds.
    pub stripped_secs: f64,
    /// Best instrumented-engine seconds.
    pub instrumented_secs: f64,
    /// `instrumented / stripped − 1`: the relative throughput cost of
    /// the metrics layer. Negative means noise dominated (the
    /// instrumented arm happened to win) — the gate treats that as zero
    /// overhead, not a speedup claim.
    pub overhead_frac: f64,
    /// Best stripped-arm on-CPU seconds (sum of shard busy + merge, the
    /// engine's own busy attribution).
    pub stripped_cpu_secs: f64,
    /// Best instrumented-arm on-CPU seconds.
    pub instrumented_cpu_secs: f64,
    /// `instrumented_cpu / stripped_cpu − 1`: the *work* the
    /// instrumentation adds. Immune to scheduler interference from
    /// other processes, so this is the gate's preferred basis whenever
    /// the busy clock is CPU-attributed.
    pub cpu_overhead_frac: f64,
    /// Whether the busy clock was the per-thread on-CPU time rather than
    /// the wall-interval fallback. When false the CPU figures above are
    /// really wall intervals and the gate falls back to `overhead_frac`.
    pub cpu_attributed: bool,
}

/// Measure instrumentation overhead at one (shards, feeders) point:
/// `repeats` interleaved stripped/instrumented pairs, best-of each arm
/// on both the wall clock and the engine's busy attribution, where each
/// repeat averages over enough engine passes (auto-calibrated) to push
/// per-run jitter below the gate's budget. Interleaving spreads thermal
/// and cache drift evenly over both arms, and the order within each
/// pair alternates so neither arm always runs second into a warm
/// allocator. Metrics go to `obs` when given (so `--metrics-out` can
/// expose the instrumented arm's registry), a throwaway sink otherwise.
pub fn run_overhead(
    harness: &ThroughputHarness<'_>,
    scale_label: &str,
    shards: usize,
    feeders: usize,
    repeats: usize,
    obs: Option<&BenchObs>,
) -> OverheadReport {
    let repeats = repeats.max(1);
    let feeders = if feeders == 0 { shards } else { feeders };
    let throwaway = BenchObs::new(None);
    let sink = obs.unwrap_or(&throwaway);
    // The measured instrumented arm carries the sink's registry but
    // never its journal: journal events are per-window/per-cell, so at
    // gate scales their file I/O would swamp the per-measurement cost
    // the budget is about. A final unmeasured pass with the full sink
    // (below) still produces the journal artifact.
    let measured = BenchObs { registry: sink.registry.clone(), journal: None };
    let cpu_secs = |stats: &EngineStats| {
        (stats.busy.shard_total_nanos + stats.busy.merge_nanos) as f64 / 1e9
    };
    // Calibration pass (discarded): size the per-repeat pass count so
    // each repeat accumulates ~1s of busy time. A single smoke-scale
    // pass is ~15ms of work, where one mistimed interrupt already costs
    // percents; sums of many passes put the jitter floor well below a
    // 2% budget.
    let calib = harness.time_engine(shards, feeders, None);
    let est = cpu_secs(&calib.1).max(1e-4);
    let passes = ((1.0 / est).ceil() as usize).clamp(1, 100);
    let mut best_wall = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut best_cpu = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for i in 0..repeats {
        // [stripped, instrumented] sums. Arms interleave at *pass*
        // granularity — a stripped pass and an instrumented pass are
        // always neighbours in time — so slow drift (frequency, load
        // from co-tenants) biases both sums equally instead of whichever
        // arm's block hit the slow patch.
        let mut wall_sums = [0.0f64; 2];
        let mut cpu_sums = [0.0f64; 2];
        for p in 0..passes {
            let mut order = [0usize, 1usize];
            if (i + p) % 2 == 1 {
                order.reverse();
            }
            for a in order {
                let arm = if a == 0 { None } else { Some(&measured) };
                let (secs, stats) = harness.time_engine(shards, feeders, arm);
                wall_sums[a] += secs;
                cpu_sums[a] += cpu_secs(&stats);
            }
        }
        // Best of = the repeat with the *lowest overhead ratio*, each
        // ratio taken over one repeat's window (its arms shared the
        // environment). The true cost is systematic — present in every
        // repeat — while contamination spikes only inflate a ratio, so
        // the min estimates the cost from the cleanest window.
        let keep_best = |best: &mut (f64, f64, f64), sums: [f64; 2]| {
            let ratio = sums[1] / sums[0];
            if ratio < best.0 {
                *best = (ratio, sums[0] / passes as f64, sums[1] / passes as f64);
            }
        };
        keep_best(&mut best_wall, wall_sums);
        keep_best(&mut best_cpu, cpu_sums);
    }
    if sink.journal.is_some() {
        // Unmeasured artifact pass: one fully-instrumented run so the
        // caller's journal carries a real event stream.
        let _ = harness.time_engine(shards, feeders, Some(sink));
    }
    OverheadReport {
        scale: scale_label.to_string(),
        shards,
        feeders,
        repeats,
        passes,
        measurements: harness.measurements.len() as u64,
        stripped_secs: best_wall.1,
        instrumented_secs: best_wall.2,
        overhead_frac: best_wall.0 - 1.0,
        stripped_cpu_secs: best_cpu.1,
        instrumented_cpu_secs: best_cpu.2,
        cpu_overhead_frac: best_cpu.0 - 1.0,
        cpu_attributed: churnlab_obs::thread_cpu_nanos().is_some(),
    }
}

fn run(args: &Args) -> ExitCode {
    let plan = match Plan::from_args::<ThroughputReport>(args, "BENCH_engine.json") {
        Ok(plan) => plan,
        Err(msg) => return cli::usage_error(&msg),
    };
    let scale = args.scale().expect("--scale has a default");
    let (seed, feeders, repeats): (u64, usize, usize) =
        (args.req("--seed"), args.req("--feeders"), args.req("--repeats"));
    let shards = args.counts("--shards");

    // Observability sink: either output flag makes the run instrumented
    // (shared registry + optional journal across every engine built).
    let journal = args.text("--journal-out").map(|path| {
        Journal::to_file(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("create journal {path}: {e}"))
    });
    let metrics_out = args.text("--metrics-out");
    let sink = (metrics_out.is_some() || journal.is_some()).then(|| BenchObs::new(journal.clone()));
    let metrics_writer =
        metrics_out.zip(sink.as_ref()).map(|(path, s)| MetricsWriter::spawn(s.registry.clone(), path));
    let gate = Gate { who: "engine", journal: journal.as_ref() };

    let bench = Bench::assemble(scale, seed);
    let harness = ThroughputHarness::assemble(&bench);
    eprintln!(
        "engine: {} measurements at scale {}, shard counts {shards:?}, feeders {}, best of {repeats}",
        harness.measurements.len(),
        scale_label(scale),
        if feeders == 0 { "match-shards".to_string() } else { feeders.to_string() },
    );
    // The engines are done: freeze the metrics file at the terminal
    // scrape and flush the run's journal events before gating begins
    // (gate events flush themselves).
    let settle = |writer: Option<MetricsWriter>| {
        if let Some(w) = writer {
            w.finish();
        }
        if let Some(j) = &journal {
            j.flush();
        }
    };

    if args.has("--assert-overhead") {
        // Dedicated mode: the stripped-vs-instrumented comparison is the
        // whole run — no pipeline control, no sweep, no baseline gate.
        let top = *shards.iter().max().expect("the parser rejects an empty list");
        let report = run_overhead(&harness, scale_label(scale), top, feeders, repeats, sink.as_ref());
        settle(metrics_writer);
        eprintln!(
            "engine: overhead — wall: stripped {:.3}s vs instrumented {:.3}s ({:+.2}%); \
             on-CPU: {:.3}s vs {:.3}s ({:+.2}%) ({} shard(s), {} feeder(s), best of {} × {} pass(es))",
            report.stripped_secs,
            report.instrumented_secs,
            report.overhead_frac * 100.0,
            report.stripped_cpu_secs,
            report.instrumented_cpu_secs,
            report.cpu_overhead_frac * 100.0,
            report.shards,
            report.feeders,
            report.repeats,
            report.passes,
        );
        gate::write_report(gate.who, plan.out.as_deref(), &report);
        return gate::verdict(gate.who, &judge_overhead(&gate, &report));
    }

    let report =
        run_throughput(&harness, scale_label(scale), seed, &shards, feeders, repeats, sink.as_ref());
    settle(metrics_writer);

    eprintln!(
        "pipeline: {:>10.0} meas/s ({:.3}s)",
        report.pipeline_meas_per_sec, report.pipeline_secs
    );
    for row in &report.engine {
        eprintln!(
            "engine/{:<2} {:>10.0} meas/s ({:.3}s) speedup {:>5.2}x eff wall {} model {}  \
             [direct {} resolve {} unsat-skip {} | dup {:.1}% distinct-paths {} intern-hit {:.1}%]",
            row.shards,
            row.meas_per_sec,
            row.secs,
            row.speedup_vs_pipeline,
            gate::show_efficiency(row.wallclock_efficiency),
            gate::show_efficiency(row.model_efficiency),
            row.stats.incremental.direct_updates,
            row.stats.incremental.resolves,
            row.stats.incremental.unsat_skips,
            row.duplicate_ratio * 100.0,
            row.distinct_paths,
            row.interner_hit_rate * 100.0,
        );
    }
    eprintln!(
        "convert:  {:>10.0} ns/measurement, {:.3} allocations/measurement, warm",
        report.convert_ns_per_meas, report.convert_allocs_per_meas
    );
    let split = FOLD_PHASES.map(|p| format!("{p} {:.3}", report.phase_us_per_meas[p]));
    eprintln!("fold:     {} us/measurement of shard time, one shard", split.join(", "));
    for cost in &report.snapshot {
        eprintln!(
            "snapshot: {:>10.3} ms, {} allocations, quiescent, {}",
            cost.snapshot_ms,
            cost.snapshot_allocs,
            cost.horizon.map_or_else(|| "no horizon".to_string(), |h| format!("horizon {h} days")),
        );
    }
    let mut over_ceiling = Vec::new();
    if plan.baseline.is_some() {
        if report.convert_allocs_per_meas > MAX_CONVERT_ALLOCS_PER_MEAS {
            over_ceiling.push(format!(
                "conversion allocates {:.3} times per measurement (ceiling {MAX_CONVERT_ALLOCS_PER_MEAS})",
                report.convert_allocs_per_meas
            ));
        }
        for cost in report.snapshot.iter().filter(|c| c.horizon.is_some()) {
            if cost.snapshot_allocs > MAX_HORIZON_SNAPSHOT_ALLOCS {
                over_ceiling.push(format!(
                    "a quiescent snapshot of the retiring engine allocates {} times \
                     (ceiling {MAX_HORIZON_SNAPSHOT_ALLOCS})",
                    cost.snapshot_allocs
                ));
            }
        }
    }
    let failures = plan.conclude(&gate, &report.sweep(), &report, over_ceiling);
    gate::verdict(gate.who, &failures)
}

/// The overhead gate: instrumentation may cost at most [`MAX_OVERHEAD`].
/// It judges the added on-CPU work when the busy clock is CPU-attributed
/// — exactly what the instrumentation costs, where wall clock on a shared
/// runner also measures every other process. Without a thread CPU clock
/// the busy figures are wall intervals anyway, so it falls back to the
/// wall-clock delta and says so.
fn judge_overhead(gate: &Gate<'_>, report: &OverheadReport) -> Vec<String> {
    let (basis, measured) = if report.cpu_attributed {
        ("on-CPU basis", report.cpu_overhead_frac)
    } else {
        gate.fallback(
            "overhead",
            "on-CPU",
            "overhead gate: no thread CPU clock on this host — gating on wall clock, \
             which folds in scheduler noise",
        );
        ("wall basis", report.overhead_frac)
    };
    // Noise can make the instrumented arm win; that is zero measured
    // overhead, not a speedup claim.
    let overhead = measured.max(0.0);
    let pass = overhead <= MAX_OVERHEAD;
    gate.armed(
        "overhead",
        &format!(
            "{} — {overhead:.4} vs max {MAX_OVERHEAD:.4} ({basis})",
            if pass { "pass" } else { "fail" }
        ),
    );
    let summary = format!(
        "instrumentation overhead {:.2}% against the {:.2}% budget",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
    if pass {
        eprintln!("engine: overhead ok — {summary}");
        Vec::new()
    } else {
        vec![summary]
    }
}
