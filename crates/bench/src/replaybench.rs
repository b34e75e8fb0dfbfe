//! `bench replay` — export a simulated study to JSONL, then drive the
//! dump from disk through the sharded engine and time the whole
//! disk-to-report path (read + parse + ingest + solve + merge): the
//! template every real-data backend (OONI dumps, CAIDA feeds) reuses.
//!
//! ```text
//! bench replay --export dump.jsonl --scale small --seed 42
//! bench replay --in dump.jsonl --shards 4 --feeders 4
//! bench replay --in dump.jsonl --shards 4 --verify
//! ```
//!
//! `--export` streams a deterministic (scale, seed) study to JSONL in
//! constant memory and writes a `<FILE>.manifest.json` sidecar.
//! `--in` rebuilds the interpretation context from the manifest (explicit
//! `--scale`/`--seed` win over it, independently), replays the dump
//! through `--feeders` parallel threads into an engine with `--shards`
//! workers, prints the canonical-report digest plus throughput
//! (records/s and meas/s), and writes `BENCH_replay.json`.
//! `--verify` additionally re-runs the study in memory through the batch
//! pipeline and fails (exit 1) unless the replayed `CanonicalReport` is
//! byte-identical — the round-trip guarantee CI smokes on every push.
//! `--metrics-out FILE` instruments the replay: engine shard workers and
//! feeder threads publish live series, a scraper thread keeps FILE
//! current as Prometheus text (including `churnlab_rss_bytes`), and the
//! terminal scrape is embedded in `BENCH_replay.json` under `metrics`.
//!
//! The service-lifecycle flags turn the one-shot replay into a
//! kill-and-resume harness:
//!
//! ```text
//! bench replay --in dump.jsonl --feeders 1 --window-horizon 7 \
//!       --checkpoint ck.bin --checkpoint-every 100000
//! bench replay --in dump.jsonl --feeders 1 --window-horizon 7 \
//!       --resume ck.bin --expect-digest <hex>
//! ```
//!
//! `--window-horizon DAYS` retires (URL × window) groups once the
//! watermark passes them. `--checkpoint PATH --checkpoint-every N`
//! writes an atomic engine snapshot every N input lines (every
//! [`DEFAULT_CHECKPOINT_EVERY`] without a cadence);
//! `--halt-after-checkpoints N` then aborts the run mid-stream (the CI
//! crash stand-in). `--resume PATH` restores the snapshot, skips the
//! already-ingested prefix, and continues; `--expect-digest HEX` makes
//! the run fail unless the final canonical digest matches — together
//! they prove checkpoint → kill → restore → continue reproduces the
//! uninterrupted report byte for byte.

use crate::cli::{self, Args, Flag, Kind, Rule, Sub, DAYS, POSITIVE, SCALES, UINT};
use crate::obsbench::{record_stats, MetricsWriter};
use crate::{gate, parse_scale, scale_label, Bench};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig, EngineObs, EngineStats};
use churnlab_interop::{
    export_study, replay_jsonl_resumable, ImportStats, ReplayFormat, ResumeReplayOptions,
    StudyManifest,
};
use churnlab_obs::{Registry, Snapshot};
use churnlab_platform::Platform;
use churnlab_topology::WorldScale;
use serde::{Deserialize, Serialize};
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::time::Instant;

/// Lines between checkpoints when `--checkpoint` comes without a cadence.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 500_000;

/// `bench replay`.
pub const SUB: Sub = Sub {
    name: "replay",
    about: "export a study to JSONL, or replay a dump through the engine (verify, checkpoint, resume)",
    flags: &[
        Flag::new("--export", Kind::Text, "", "export the (scale, seed) study to this JSONL file"),
        Flag::new("--in", Kind::Text, "", "replay this JSONL dump"),
        Flag::new("--scale", SCALES, "", "study scale (default: the manifest's; smoke for --export)"),
        Flag::new("--seed", UINT, "", "study seed (default: the manifest's; 42 for --export)"),
        Flag::new("--shards", UINT, "0", "engine shards (0 = one per core)"),
        Flag::new("--feeders", POSITIVE, "", "feeder threads (default: cores, at most 4)"),
        Flag::new("--format", Kind::Choice(&["native", "ooni"]), "native", "record dialect of the dump"),
        Flag::new("--out", Kind::Text, "BENCH_replay.json", "write the JSON report here"),
        Flag::new("--metrics-out", Kind::Text, "", "instrument the replay; keep this Prometheus text file current"),
        Flag::new("--verify", Kind::Switch, "", "exit 1 unless the replayed report equals a direct in-memory run's"),
        Flag::new("--window-horizon", DAYS, "", "retire windows this many days behind the watermark"),
        Flag::new("--checkpoint", Kind::Text, "", "write periodic engine checkpoints here (atomically)"),
        Flag::new("--checkpoint-every", POSITIVE, "", "input lines between checkpoints"),
        Flag::new("--resume", Kind::Text, "", "restore this checkpoint and continue past its cursor"),
        Flag::new("--halt-after-checkpoints", UINT, "", "stop un-finished after this many checkpoints"),
        Flag::new("--expect-digest", Kind::Text, "", "exit 1 unless the canonical digest equals this hex"),
    ],
    positional: None,
    rules: &[
        Rule::ExactlyOne("--export", "--in"),
        Rule::Needs("--checkpoint-every", "--checkpoint"),
        Rule::Needs("--halt-after-checkpoints", "--checkpoint"),
    ],
    run,
};

/// Write one checkpoint atomically: the engine state plus the import
/// accounting (as the user blob) land in `path.tmp`, fsynced, then
/// renamed over `path` — a crash mid-write leaves the previous
/// checkpoint intact.
fn write_checkpoint(
    engine: &Engine<'_>,
    path: &str,
    cursor: u64,
    stats: &ImportStats,
) -> std::io::Result<()> {
    let user = serde_json::to_string(stats).expect("import stats serialize").into_bytes();
    let tmp = format!("{path}.tmp");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
    engine.checkpoint(cursor, &user, &mut w)?;
    w.flush()?;
    w.into_inner().expect("flushed").sync_all()?;
    std::fs::rename(&tmp, path)
}

/// The `BENCH_replay.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayBenchReport {
    /// Workload scale label (from the dump's manifest).
    pub scale: String,
    /// Study seed (from the dump's manifest).
    pub seed: u64,
    /// Record dialect replayed.
    pub format: String,
    /// Shard worker count.
    pub shards: usize,
    /// Feeder thread count.
    pub feeders: usize,
    /// Cores visible to the process.
    pub available_cores: usize,
    /// Lines read from the dump.
    pub lines: u64,
    /// Records that parsed and reached the engine.
    pub records_ok: u64,
    /// Wall seconds, read through finish.
    pub secs: f64,
    /// Lines per second through the full path.
    pub records_per_sec: f64,
    /// Parsed measurements per second through the full path.
    pub meas_per_sec: f64,
    /// Merged import accounting.
    pub import: ImportStats,
    /// Engine work counters.
    pub engine: EngineStats,
    /// Hex FNV-1a digest of the canonical report (equal digests ⇔
    /// byte-identical reports).
    pub report_digest: String,
    /// Identified censoring ASes.
    pub identified_censors: usize,
    /// Terminal metrics scrape — the uniform stats surface (live engine
    /// series when the replay was instrumented, plus the
    /// `churnlab_stats_*` mirror of the counters above). Absent on
    /// reports from before the observability layer.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<Snapshot>,
}

fn export(path: &str, scale: WorldScale, seed: u64) {
    let bench = Bench::assemble(scale, seed);
    let platform = Platform::new(&bench.world, &bench.scenario, bench.platform_cfg.clone());
    let sim = bench.sim();
    let file = std::fs::File::create(path).expect("create dump file");
    let start = Instant::now();
    let (records, stats) =
        export_study(&platform, &sim, std::io::BufWriter::new(file)).expect("export study");
    let secs = start.elapsed().as_secs_f64();
    let manifest = StudyManifest {
        scale: scale_label(scale).to_string(),
        seed,
        total_days: bench.platform_cfg.total_days,
        records,
    };
    let manifest_path = StudyManifest::path_for(path);
    std::fs::write(
        &manifest_path,
        format!("{}\n", serde_json::to_string(&manifest).expect("manifest serializes")),
    )
    .expect("write manifest");
    eprintln!(
        "replay: exported {records} records ({} measurements) to {path} in {secs:.2}s ({:.0} rec/s); manifest {manifest_path}",
        stats.measurements,
        records as f64 / secs.max(f64::EPSILON),
    );
}

fn run(args: &Args) -> ExitCode {
    let (scale, seed) = (args.scale(), args.get::<u64>("--seed"));
    if let Some(path) = args.text("--export") {
        export(path, scale.unwrap_or(WorldScale::Smoke), seed.unwrap_or(42));
        return ExitCode::SUCCESS;
    }
    let path = args.text("--in").expect("the parser requires --export or --in");

    let manifest_path = StudyManifest::path_for(path);
    let manifest: Option<StudyManifest> = std::fs::read_to_string(&manifest_path).ok().map(|text| {
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {manifest_path}: {e}"))
    });
    // Explicit flags win over the manifest, independently: `--seed 99`
    // next to a manifest keeps the manifest's scale but replays under
    // seed 99 (never silently ignored).
    let scale = scale.or_else(|| {
        manifest.as_ref().map(|m| {
            parse_scale(&m.scale)
                .unwrap_or_else(|| panic!("manifest names unknown scale `{}`", m.scale))
        })
    });
    let (Some(scale), Some(seed)) = (scale, seed.or(manifest.as_ref().map(|m| m.seed))) else {
        return cli::usage_error(&format!(
            "no manifest at {manifest_path} — pass --scale and --seed to name the study \
             context explicitly"
        ));
    };

    // The platform's degraded IP-to-AS view and the world topology are
    // the interpretation context a replay needs; the routing sim and
    // scenario only matter for the `--verify` re-run.
    let bench = Bench::assemble(scale, seed);
    let platform = Platform::new(&bench.world, &bench.scenario, bench.platform_cfg.clone());
    let cfg = PipelineConfig::paper(bench.platform_cfg.total_days);

    // One registry regardless of instrumentation: the end-of-run
    // `churnlab_stats_*` mirror always lands in it, and `--metrics-out`
    // additionally makes the engine publish its live series there (with
    // a scraper thread keeping the file current during the run).
    let registry = Registry::new();
    let metrics_out = args.text("--metrics-out");
    let writer = metrics_out.map(|out| MetricsWriter::spawn(registry.clone(), out));

    let mut engine_cfg = EngineConfig::new(cfg.clone()).with_shards(args.req("--shards"));
    engine_cfg.window_horizon = args.get("--window-horizon");
    if metrics_out.is_some() {
        engine_cfg = engine_cfg.with_obs(EngineObs::new(registry.clone()));
    }
    let checkpoint = args.text("--checkpoint");
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let mut opts = ResumeReplayOptions {
        checkpoint_every: args
            .get("--checkpoint-every")
            .or(checkpoint.map(|_| DEFAULT_CHECKPOINT_EVERY)),
        halt_after_checkpoints: args.get("--halt-after-checkpoints"),
        ..ResumeReplayOptions::default()
    };
    let (db, topo) = (platform.measured_ip2as(), &bench.world.topology);

    // The timed path, disk to report: build (or restore) the engine,
    // replay the dump through it, merge.
    let start = Instant::now();
    let engine = match args.text("--resume") {
        // On resume the engine configuration must match the
        // checkpointing run's (restore refuses loudly otherwise).
        Some(ck) => {
            let file = std::fs::File::open(ck).unwrap_or_else(|e| panic!("open {ck}: {e}"));
            let restored = Engine::restore(db, topo, engine_cfg, &mut BufReader::new(file))
                .unwrap_or_else(|e| panic!("restore {ck}: {e}"));
            opts.skip_lines = restored.cursor;
            // The user blob is the import accounting at the cut; an
            // empty blob (foreign checkpoint) just restarts the counts.
            opts.prior = std::str::from_utf8(&restored.user)
                .ok()
                .and_then(|s| serde_json::from_str(s).ok())
                .unwrap_or_default();
            restored.engine
        }
        None => Engine::with_context(db, topo, engine_cfg),
    };
    let file = std::fs::File::open(path).unwrap_or_else(|e| panic!("open {path}: {e}"));
    // Digest-identical resume under a finite horizon requires one feeder
    // (watermark order); without a horizon any count reproduces the
    // uninterrupted digest.
    let replayed = replay_jsonl_resumable(
        BufReader::new(file),
        &engine,
        args.get("--feeders").unwrap_or(cores.min(4)),
        ReplayFormat::parse(args.text("--format").expect("--format has a default"))
            .expect("checked by the parser"),
        &opts,
        |cursor, stats| checkpoint.map_or(Ok(()), |ck| write_checkpoint(&engine, ck, cursor, &stats)),
    )
    .expect("replay dump");
    if replayed.halted {
        // The crash stand-in: the engine is dropped un-finished and the
        // last checkpoint carries the state.
        if let Some(w) = writer {
            w.finish();
        }
        eprintln!(
            "replay: halted after {} checkpoint(s) at line {} — resume with --resume {}",
            replayed.checkpoints,
            replayed.report.lines,
            checkpoint.unwrap_or("<checkpoint>"),
        );
        return ExitCode::SUCCESS;
    }
    let (results, engine_stats) = engine.finish_with_stats();
    let secs = start.elapsed().as_secs_f64();

    record_stats(&registry, "churnlab_stats", &engine_stats);
    record_stats(&registry, "churnlab_stats_import", &replayed.report.stats);
    let metrics = registry.scrape();
    if let Some(w) = writer {
        w.finish();
    }

    // The uniform stats line: the same flat `name{labels}: value` JSON
    // a scrape carries, instead of hand-formatted blocks.
    eprintln!("replay: stats {}", metrics.flat_json());
    let canonical = results.canonical_report();
    let (lines, ok) = (replayed.report.lines, replayed.report.stats.ok);
    let report = ReplayBenchReport {
        scale: scale_label(scale).to_string(),
        seed,
        format: replayed.report.format.label().to_string(),
        shards: engine_stats.shards,
        feeders: replayed.report.feeders,
        available_cores: cores,
        lines,
        records_ok: ok,
        secs,
        records_per_sec: lines as f64 / secs.max(f64::EPSILON),
        meas_per_sec: ok as f64 / secs.max(f64::EPSILON),
        import: replayed.report.stats,
        engine: engine_stats,
        report_digest: format!("{:016x}", canonical.digest()),
        identified_censors: canonical.censor_findings.len(),
        metrics: Some(metrics),
    };
    eprintln!(
        "replay: {} lines → {} records → {} observations in {:.2}s ({:.0} rec/s, {:.0} meas/s) \
         [{} shard(s), {} feeder(s)]",
        report.lines,
        report.records_ok,
        report.engine.observations,
        report.secs,
        report.records_per_sec,
        report.meas_per_sec,
        report.shards,
        report.feeders,
    );
    // The uniform stats line: the same flat `name{labels}: value` JSON
    // a scrape carries, instead of hand-formatted blocks.
    eprintln!(
        "replay: canonical report {} — {} CNFs, {} identified censor(s)",
        report.report_digest,
        results.outcomes.len(),
        report.identified_censors,
    );
    gate::write_report("replay", args.text("--out"), &report);
    if let Some(out) = metrics_out {
        eprintln!("replay: wrote {out}");
    }

    if let Some(expected) = args.text("--expect-digest") {
        if !report.report_digest.eq_ignore_ascii_case(expected) {
            eprintln!(
                "replay: FAIL — canonical digest {} does not match expected {expected}",
                report.report_digest,
            );
            return ExitCode::FAILURE;
        }
        eprintln!("replay: digest matches expected {expected}");
    }

    if args.has("--verify") {
        // The round-trip guarantee, checked for real: re-simulate the
        // study in memory, run the batch pipeline over it, and demand the
        // replayed canonical report match byte for byte.
        let expected = bench.run(cfg).1.canonical_report().to_json();
        let got = results.canonical_report().to_json();
        if got != expected {
            eprintln!(
                "replay: FAIL — replayed canonical report diverged from the direct run \
                 ({} vs {} bytes)",
                got.len(),
                expected.len(),
            );
            return ExitCode::FAILURE;
        }
        eprintln!("replay: verified — replayed report is byte-identical to the direct run");
    }
    ExitCode::SUCCESS
}
