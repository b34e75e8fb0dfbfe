//! `bench longhaul` — stream a looped, day-shifted study through an
//! engine with a retirement horizon for long enough that an unbounded
//! engine would visibly grow — and gate on the kernel's resident-set
//! size plateauing instead. The memory half of the "run forever" story,
//! next to the checkpoint/resume half `bench replay` proves.
//!
//! ```text
//! bench longhaul --measurements 100000000 --assert-plateau --out BENCH_longhaul.json
//! bench longhaul --measurements 2000000 --assert-plateau --max-rss-mb 2048   # the CI smoke lane
//! ```
//!
//! Each loop replays the same simulated study shifted `base_days`
//! forward, so the day watermark advances forever while the working set
//! (live windows inside the horizon, distinct paths, distinct
//! destinations) stays fixed — exactly a deployment's shape, where the
//! measurement platform re-tests the same URL list day after day.
//! Retired cells are drained with [`Engine::compact`] once per loop (the
//! daemon's emit step) and RSS is sampled per loop from
//! `/proc/self/statm`.
//!
//! The claim under test: with window retirement on and retired cells
//! drained, every piece of engine state is bounded by the *working set*
//! — not by stream length. RSS is the honest metric: allocator statistics
//! miss fragmentation, and the deployment question is what the kernel
//! charges the process. `--assert-plateau` fails the run (exit 1) when
//! the final-quartile RSS max exceeds [`MAX_GROWTH`]× the early-quartile
//! max, or when nothing retired at all.

use crate::cli::{Args, Flag, Kind, Sub, DAYS, SCALE_SMOKE, SEED, UINT};
use crate::{cli, enginebench::ThroughputHarness, gate, scale_label, Bench};
use churnlab_core::pipeline::PipelineConfig;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_obs::rss_bytes;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

/// `--assert-plateau`'s bound on final-quartile over early-quartile RSS.
pub const MAX_GROWTH: f64 = 1.1;

/// `bench longhaul`.
pub const SUB: Sub = Sub {
    name: "longhaul",
    about: "loop a study through a retiring engine; gate on the RSS plateau",
    flags: &[
        SCALE_SMOKE,
        SEED,
        Flag::new("--measurements", UINT, "100000000", "stream at least this many measurements"),
        Flag::new("--shards", UINT, "4", "engine shards (0 = one per core)"),
        Flag::new("--horizon", DAYS, "7", "retire windows this many days behind the watermark"),
        Flag::new("--out", Kind::Text, "BENCH_longhaul.json", "write the JSON report here"),
        Flag::new("--assert-plateau", Kind::Switch, "", "exit 1 unless RSS plateaus and something retired"),
        Flag::new("--max-rss-mb", UINT, "", "exit 1 if peak RSS exceeds this many MiB"),
    ],
    positional: None,
    rules: &[],
    run,
};

/// RSS plateau verdict over a run's sample series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlateauStats {
    /// Samples dropped as warmup (first quarter of the series): interner
    /// arenas, channel buffers, and solver scratch grow to working-set
    /// size there by design.
    pub warmup_samples: usize,
    /// Max RSS over the first quartile of the post-warmup series.
    pub early_max_bytes: u64,
    /// Max RSS over the final quartile of the post-warmup series.
    pub late_max_bytes: u64,
    /// `late_max / early_max` — the growth the gate bounds.
    pub growth_ratio: f64,
    /// Max RSS over the whole run, warmup included.
    pub peak_bytes: u64,
}

/// Judge a plateau: drop the first quarter as warmup, then compare the
/// max RSS of the first and last quartiles of what remains. A leaking
/// engine grows monotonically with stream length and fails any ratio
/// bound; a bounded one's late max sits within noise of its early max.
/// Returns `None` when the series is too short to quarter (< 8 samples).
pub fn judge_plateau(samples: &[u64]) -> Option<PlateauStats> {
    if samples.len() < 8 {
        return None;
    }
    let warmup = samples.len() / 4;
    let body = &samples[warmup..];
    let quarter = body.len() / 4; // >= 1: the body keeps >= 6 of >= 8 samples
    let early_max = *body[..quarter].iter().max().expect("non-empty quartile");
    let late_max = *body[body.len() - quarter..].iter().max().expect("non-empty quartile");
    Some(PlateauStats {
        warmup_samples: warmup,
        early_max_bytes: early_max,
        late_max_bytes: late_max,
        growth_ratio: late_max as f64 / early_max.max(1) as f64,
        peak_bytes: *samples.iter().max().expect("non-empty series"),
    })
}

/// The `BENCH_longhaul.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LonghaulReport {
    /// Workload scale label of the looped base study.
    pub scale: String,
    /// Base study seed.
    pub seed: u64,
    /// Times the base study was replayed with shifted days.
    pub loops: u64,
    /// Measurements streamed in total.
    pub measurements: u64,
    /// Converted observations the engine processed.
    pub observations: u64,
    /// Days covered by one base study pass.
    pub base_days: u32,
    /// Days covered by the whole looped stream.
    pub total_days: u32,
    /// Retirement horizon (days).
    pub horizon: u32,
    /// Shard workers.
    pub shards: usize,
    /// Wall seconds, ingest through finish.
    pub secs: f64,
    /// Measurements per second through the full path.
    pub meas_per_sec: f64,
    /// (URL × window) groups retired under the horizon.
    pub windows_retired: u64,
    /// Cells solved at retirement.
    pub cells_retired: u64,
    /// Per-cell outcomes drained by the periodic compactions.
    pub outcomes_drained: u64,
    /// RSS samples (bytes), one per loop, in order.
    pub rss_samples: Vec<u64>,
    /// Plateau verdict over `rss_samples` (absent when the run was too
    /// short to judge).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub plateau: Option<PlateauStats>,
}

fn run(args: &Args) -> ExitCode {
    let scale = args.scale().expect("--scale has a default");
    let (seed, target, horizon): (u64, u64, u32) =
        (args.req("--seed"), args.req("--measurements"), args.req("--horizon"));

    let bench = Bench::assemble(scale, seed);
    let ThroughputHarness { platform, measurements: mut base, .. } = ThroughputHarness::assemble(&bench);
    // Retirement rides the day watermark: stream each pass in day order,
    // the shape a live feed has.
    base.sort_by_key(|m| m.day);
    let per_loop = base.len() as u64;
    let base_days = bench.platform_cfg.total_days;
    let loops = target.div_ceil(per_loop).max(1);
    let Ok(total_days) = u32::try_from(u64::from(base_days) * loops) else {
        return cli::usage_error(&format!(
            "longhaul: {loops} loops x {base_days} days overflows the day clock"
        ));
    };

    let engine_cfg = EngineConfig::new(PipelineConfig::paper(total_days))
        .with_shards(args.req("--shards"))
        .with_window_horizon(horizon);
    let shards = engine_cfg.shards;
    let engine = Engine::with_context(platform.measured_ip2as(), &bench.world.topology, engine_cfg);
    eprintln!(
        "longhaul: {loops} loops x {per_loop} measurements = {} total over {total_days} days \
         (horizon {horizon} days, {shards} shard(s))",
        loops * per_loop,
    );

    let start = std::time::Instant::now();
    let mut rss_samples: Vec<u64> = Vec::with_capacity(loops as usize);
    let mut outcomes_drained = 0u64;
    let progress_every = (loops / 20).max(1);
    for loop_i in 0..loops {
        let day_shift = u32::try_from(loop_i).expect("loops fit u32") * base_days;
        for m in &base {
            let mut m = m.clone();
            m.day += day_shift;
            engine.ingest_owned(m);
        }
        // The daemon's emit step: solve-once outcomes of retired windows
        // leave the engine; aggregates stay inside and stay exact.
        outcomes_drained += engine.compact().outcomes.len() as u64;
        rss_samples.extend(rss_bytes());
        if (loop_i + 1) % progress_every == 0 {
            let done = (loop_i + 1) * per_loop;
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "longhaul: {done} measurements in {secs:.1}s ({:.0} meas/s), rss {} MiB",
                done as f64 / secs.max(f64::EPSILON),
                rss_samples.last().copied().unwrap_or(0) >> 20,
            );
        }
    }
    let (results, stats) = engine.finish_with_stats();
    let secs = start.elapsed().as_secs_f64();
    let measurements = loops * per_loop;

    let plateau = judge_plateau(&rss_samples);
    let report = LonghaulReport {
        scale: scale_label(scale).to_string(),
        seed,
        loops,
        measurements,
        observations: stats.observations,
        base_days,
        total_days,
        horizon,
        shards: stats.shards,
        secs,
        meas_per_sec: measurements as f64 / secs.max(f64::EPSILON),
        windows_retired: stats.retire.windows_retired,
        cells_retired: stats.retire.cells_retired,
        outcomes_drained,
        rss_samples,
        plateau,
    };
    eprintln!(
        "longhaul: {measurements} measurements in {secs:.1}s ({:.0} meas/s); {} windows retired, \
         {} cells retired, {outcomes_drained} outcomes drained, {} identified censor(s)",
        report.meas_per_sec,
        report.windows_retired,
        report.cells_retired,
        results.identified_censors().len(),
    );
    if let Some(p) = &plateau {
        eprintln!(
            "longhaul: rss early max {} MiB, late max {} MiB, growth {:.3}x, peak {} MiB",
            p.early_max_bytes >> 20,
            p.late_max_bytes >> 20,
            p.growth_ratio,
            p.peak_bytes >> 20,
        );
    }
    gate::write_report("longhaul", args.text("--out"), &report);

    let mut failures = Vec::new();
    if args.has("--assert-plateau") {
        match &plateau {
            Some(p) if p.growth_ratio <= MAX_GROWTH => eprintln!(
                "longhaul: PLATEAU OK — final-quartile max {:.3}x early-quartile max \
                 (bound {MAX_GROWTH:.2}x)",
                p.growth_ratio,
            ),
            Some(p) => failures.push(format!(
                "rss grew {:.3}x from early to final quartile (bound {MAX_GROWTH:.2}x): the \
                 engine is not bounded",
                p.growth_ratio,
            )),
            None => failures.push(format!(
                "--assert-plateau needs >= 8 rss samples, got {} (run more loops, or \
                 /proc/self/statm is unavailable)",
                report.rss_samples.len(),
            )),
        }
        if report.windows_retired == 0 {
            failures.push("nothing retired; the horizon never engaged".to_string());
        }
    }
    if let Some(cap_mb) = args.get::<u64>("--max-rss-mb") {
        let peak = report.rss_samples.iter().copied().max().unwrap_or(0);
        if peak > cap_mb << 20 {
            failures.push(format!("peak rss {} MiB exceeds cap {cap_mb} MiB", peak >> 20));
        } else {
            eprintln!("longhaul: rss cap OK — peak {} MiB <= {cap_mb} MiB", peak >> 20);
        }
    }
    gate::verdict("longhaul", &failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_judges_flat_series_near_one() {
        let samples: Vec<u64> = (0..40).map(|i| 1_000_000 + (i % 3) * 1_000).collect();
        let p = judge_plateau(&samples).expect("long enough");
        assert!(p.growth_ratio <= 1.01, "flat series judged growing: {p:?}");
    }

    #[test]
    fn plateau_flags_linear_growth() {
        let samples: Vec<u64> = (0..40).map(|i| 1_000_000 + i * 100_000).collect();
        let p = judge_plateau(&samples).expect("long enough");
        assert!(p.growth_ratio > 1.1, "linear growth slipped the gate: {p:?}");
    }

    #[test]
    fn plateau_ignores_warmup_climb() {
        // Steep climb over the first quarter, flat afterwards — the
        // by-design interner/scratch warmup must not fail the gate.
        let samples: Vec<u64> = (0..40)
            .map(|i| if i < 10 { 100_000 + i * 500_000 } else { 5_200_000 })
            .collect();
        let p = judge_plateau(&samples).expect("long enough");
        assert!(p.growth_ratio <= 1.05, "warmup climb judged as growth: {p:?}");
    }

    #[test]
    fn plateau_refuses_short_series() {
        assert!(judge_plateau(&[1, 2, 3]).is_none());
    }
}
