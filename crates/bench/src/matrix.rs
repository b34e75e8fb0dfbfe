//! Scenario-matrix harness: a seeded, thread-parallel sweep of the full
//! study pipeline over the cross-product of world scale × censorship
//! mechanism × churn mode × noise, emitting one JSON row per cell and
//! checking the paper-shaped invariants every cell must satisfy:
//!
//! * **Churn monotonicity** — switching the pipeline from
//!   [`ChurnMode::FirstPathOnly`] to [`ChurnMode::Normal`] (all other axes
//!   fixed) never localizes fewer CNFs; noise-free it also never loses an
//!   identified censor, and under noise it never recalls fewer *true*
//!   censors: path churn can only add information.
//! * **Noise-free precision** — with every noise knob at zero and no
//!   mid-period policy changes, no innocent AS is ever accused
//!   (`false_positives == 0`).
//!
//! Every future performance or scaling PR regresses against this fixed
//! grid, driven by `bench matrix`:
//!
//! ```text
//! bench matrix                  # 16-cell Smoke grid
//! bench matrix --full           # 32 cells (adds Small)
//! bench matrix --engine         # same grid via churnlab-engine
//! bench matrix --seed 9 --threads 4 --out grid.jsonl
//! bench matrix --check grid.jsonl   # re-verify saved rows
//! bench matrix --huge-smoke --budget-secs 900
//! ```
//!
//! One JSON row per cell goes to stdout (or `--out`), a summary table to
//! stderr, and any invariant violation exits 1. `--huge-smoke` swaps the
//! grid for the bounded-time Huge pair: the ~62k-AS world with the full
//! ~12k-VP fleet under the rotating sampling schedule, trimmed
//! period/corpus, fused sim→engine streaming inside each cell.
//! `--budget-secs N` fails the run (exit 1) if the whole sweep exceeds
//! the wall-clock budget — the CI guard that the Huge tier stays inside
//! its time box.

use crate::cli::{self, Args, Flag, Kind, Sub, OUT, SEED, UINT};
use crate::Bench;
use churnlab_censor::Mechanism;
use churnlab_core::pipeline::{ChurnMode, Pipeline, PipelineConfig};
use churnlab_core::validate::validate;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{NoiseConfig, Platform, PlatformConfig};
use churnlab_sat::Solvability;
use churnlab_topology::{Asn, WorldScale};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Campaign-size overrides for bounded-time cells. A Huge world with the
/// full Huge campaign is an hours-long run; the CI smoke cell keeps the
/// world and the fleet at full size but trims the period and corpus so
/// the cell fits a wall-clock budget. `None` fields leave the scale
/// preset untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CampaignTrim {
    /// Override the measurement period, days.
    #[serde(default)]
    pub total_days: Option<u32>,
    /// Override the URL-corpus size.
    #[serde(default)]
    pub n_urls: Option<usize>,
    /// Override tests per (vantage, URL) pair over the period.
    #[serde(default)]
    pub tests_per_pair: Option<u32>,
    /// Override the fleet-sampling subset size.
    #[serde(default)]
    pub fleet_sample: Option<usize>,
    /// Override the schedule's validated coverage floor (a trimmed
    /// period usually can't honor the full-campaign floor).
    #[serde(default)]
    pub tests_per_pair_floor: Option<u32>,
}

impl CampaignTrim {
    fn apply(&self, cfg: &mut PlatformConfig) {
        if let Some(d) = self.total_days {
            cfg.total_days = d;
        }
        if let Some(u) = self.n_urls {
            cfg.n_urls = u;
        }
        if let Some(t) = self.tests_per_pair {
            cfg.tests_per_pair = t;
        }
        if let Some(f) = self.fleet_sample {
            cfg.fleet_sample = f;
        }
        if let Some(f) = self.tests_per_pair_floor {
            cfg.tests_per_pair_floor = f;
        }
    }
}

/// One cell of the scenario grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// World size.
    pub scale: WorldScale,
    /// The single mechanism every censor in the cell deploys.
    pub mechanism: Mechanism,
    /// Pipeline churn mode.
    pub churn_mode: ChurnMode,
    /// Realistic noise on, or the fully clean counterfactual.
    pub noise: bool,
    /// Base seed (sub-seeds derive from it exactly like `StudyConfig`).
    pub seed: u64,
    /// Localize with the sharded `churnlab-engine` instead of the batch
    /// `Pipeline` (results must be identical; the axis exists so the grid
    /// invariants re-verify the engine end to end). Defaults off so row
    /// files saved before the engine existed still `--check` cleanly.
    #[serde(default)]
    pub engine: bool,
    /// Campaign-size trim for bounded-time cells. Defaults to `None`
    /// (the scale preset as-is) so pre-trim row files still parse.
    #[serde(default)]
    pub trim: Option<CampaignTrim>,
}

impl CellSpec {
    /// Compact human label, e.g. `smoke/dns-injection/churn/noisy`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}{}",
            crate::scale_label(self.scale),
            self.mechanism.label(),
            match self.churn_mode {
                ChurnMode::Normal => "churn",
                ChurnMode::FirstPathOnly => "no-churn",
            },
            if self.noise { "noisy" } else { "clean" },
            if self.engine { "/engine" } else { "" },
        )
    }

    /// The axes that identify a churn-ablation pair (everything except the
    /// churn mode).
    fn pair_key(&self) -> (WorldScale, Mechanism, bool, u64, bool, Option<CampaignTrim>) {
        (self.scale, self.mechanism, self.noise, self.seed, self.engine, self.trim)
    }
}

/// Everything measured in one cell (one JSON line in the matrix output).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRow {
    /// The cell's coordinates.
    pub spec: CellSpec,
    /// Total measurements taken.
    pub measurements: u64,
    /// Vantage points placed (the fleet). Defaults on deserialize so
    /// pre-sampling row files still parse.
    #[serde(default)]
    pub fleet: usize,
    /// Distinct vantage points that actually ran tests.
    #[serde(default)]
    pub sampled_vps: usize,
    /// Provable lower bound on `sampled_vps` from the rotation schedule
    /// (the whole fleet when sampling is off; 0 in pre-sampling rows).
    #[serde(default)]
    pub coverage_floor: usize,
    /// Measurements that could not run (no route) — the reachability
    /// invariant's numerator.
    #[serde(default)]
    pub failed: u64,
    /// Non-trivial CNFs analysed.
    pub cnfs: usize,
    /// CNFs that pinned down at least one definite (backbone) censor.
    pub localized_cnfs: usize,
    /// `localized_cnfs / cnfs` (0 when no CNFs).
    pub solvable_frac: f64,
    /// Fraction of CNFs with no model.
    pub unsat_frac: f64,
    /// Fraction of CNFs with exactly one model.
    pub unique_frac: f64,
    /// Fraction of CNFs with two or more models.
    pub multiple_frac: f64,
    /// Identified censoring ASNs, sorted.
    pub identified: Vec<u32>,
    /// Ground-truth precision.
    pub precision: f64,
    /// Ground-truth recall.
    pub recall: f64,
    /// Identified ASes that do not censor.
    pub false_positives: usize,
    /// Wall-clock milliseconds for the cell.
    pub wall_ms: u64,
}

/// Grid configuration: the cross-product of the four axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixConfig {
    /// World scales to sweep.
    pub scales: Vec<WorldScale>,
    /// Mechanisms to sweep.
    pub mechanisms: Vec<Mechanism>,
    /// Churn modes to sweep.
    pub churn_modes: Vec<ChurnMode>,
    /// Noise settings to sweep.
    pub noise: Vec<bool>,
    /// Base seed shared by every cell.
    pub seed: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Run every cell through the sharded engine instead of the batch
    /// pipeline.
    pub engine: bool,
    /// Campaign trim applied to every cell (bounded-time Huge smoke).
    #[serde(default)]
    pub trim: Option<CampaignTrim>,
}

impl MatrixConfig {
    /// The default 16-cell grid: Smoke × all four mechanisms × both churn
    /// modes × noise on/off.
    pub fn default_grid(seed: u64) -> MatrixConfig {
        MatrixConfig {
            scales: vec![WorldScale::Smoke],
            mechanisms: Mechanism::ALL.to_vec(),
            churn_modes: vec![ChurnMode::Normal, ChurnMode::FirstPathOnly],
            noise: vec![false, true],
            seed,
            threads: 0,
            engine: false,
            trim: None,
        }
    }

    /// The 32-cell grid adding the Small scale.
    pub fn full_grid(seed: u64) -> MatrixConfig {
        let mut cfg = MatrixConfig::default_grid(seed);
        cfg.scales.push(WorldScale::Small);
        cfg
    }

    /// The bounded-time Huge smoke: one churn-ablation pair on the
    /// ~62k-AS world with the full ~12k-VP fleet and the rotating
    /// sampling schedule, but a trimmed period/corpus so the pair of
    /// cells fits a CI wall-clock budget. Cells run fused-parallel
    /// through the engine (`run_cell` fans the generator out when the
    /// scale is Huge), so `threads: 1` — parallelism lives inside the
    /// cell, and two Huge worlds resident at once would double peak
    /// memory for no wall-clock win.
    pub fn huge_smoke_grid(seed: u64) -> MatrixConfig {
        MatrixConfig {
            scales: vec![WorldScale::Huge],
            mechanisms: vec![Mechanism::DnsInjection],
            churn_modes: vec![ChurnMode::Normal, ChurnMode::FirstPathOnly],
            noise: vec![false],
            seed,
            threads: 1,
            engine: true,
            trim: Some(CampaignTrim {
                total_days: Some(60),
                n_urls: Some(64),
                tests_per_pair: Some(4),
                fleet_sample: None,
                // Two testing days × 1024 sampled VPs can't give all
                // ~12.2k fleet members a guaranteed test; the full-year
                // floor is the preset's property, validated by the
                // platform unit/property tests.
                tests_per_pair_floor: Some(0),
            }),
        }
    }

    /// Materialize the cross-product.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for &scale in &self.scales {
            for &mechanism in &self.mechanisms {
                for &churn_mode in &self.churn_modes {
                    for &noise in &self.noise {
                        out.push(CellSpec {
                            scale,
                            mechanism,
                            churn_mode,
                            noise,
                            seed: self.seed,
                            engine: self.engine,
                            trim: self.trim,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Run one cell end to end: world → scenario (restricted to the cell's
/// mechanism) → measurement campaign → pipeline → validation.
pub fn run_cell(spec: &CellSpec) -> CellRow {
    let start = std::time::Instant::now();

    let mut bench = Bench::assemble_with(spec.scale, spec.seed, |platform_cfg, censor_cfg| {
        if let Some(trim) = &spec.trim {
            trim.apply(platform_cfg);
        }
        if !spec.noise {
            // The clean counterfactual also freezes policies: a mid-window
            // policy change produces contradictions indistinguishable from
            // noise at the CNF level.
            platform_cfg.noise = NoiseConfig::none();
            censor_cfg.policy_change_prob = 0.0;
        }
    });
    for policy in &mut bench.scenario.policies {
        policy.mechanisms = vec![spec.mechanism];
    }
    let Bench { world, scenario, platform_cfg, .. } = &bench;

    let platform = Platform::new(world, scenario, platform_cfg.clone());
    let sim = bench.sim();
    let mut pipeline_cfg = PipelineConfig::paper(platform_cfg.total_days);
    pipeline_cfg.churn_mode = spec.churn_mode;
    let (stats, results) = if spec.engine && spec.scale == WorldScale::Huge {
        // Huge cells fan the generator out: fused sim→engine streaming,
        // one worker per core, 2 shards draining. Everything downstream
        // is order-independent, so the row is identical to a serial feed.
        let engine = Engine::new(&platform, EngineConfig::new(pipeline_cfg).with_shards(2));
        let run = churnlab_engine::campaign::run_fused(&platform, &sim, &engine, 0);
        (run.stats, engine.finish())
    } else if spec.engine {
        // One shard per cell: `run_matrix` already spreads cells across
        // cores, and shard count cannot change the results (asserted by
        // `engine_cells_match_pipeline_cells`), so more would only
        // oversubscribe. The chunked feeder keeps channel traffic cheap.
        let engine = Engine::new(&platform, EngineConfig::new(pipeline_cfg).with_shards(1));
        let mut feeder = engine.feeder();
        let stats = platform.run(&sim, |m| feeder.ingest_owned(m));
        drop(feeder);
        (stats, engine.finish())
    } else {
        let mut pipeline = Pipeline::new(&platform, pipeline_cfg);
        let stats = platform.run(&sim, |m| pipeline.ingest(&m));
        (stats, pipeline.finish())
    };

    let identified_set: std::collections::HashSet<Asn> =
        results.censor_findings.keys().copied().collect();
    let validation =
        validate(&identified_set, scenario, &results.on_censored_path, |a| world.public_asn(a));

    let cnfs = results.outcomes.len();
    let localized = results.outcomes.iter().filter(|o| !o.censors.is_empty()).count();
    let class_frac = |s: Solvability| {
        if cnfs == 0 {
            0.0
        } else {
            results.outcomes.iter().filter(|o| o.solvability == s).count() as f64 / cnfs as f64
        }
    };
    let mut identified: Vec<u32> = identified_set.iter().map(|a| a.0).collect();
    identified.sort_unstable();

    let fleet = platform.vantage_points().len();
    let schedule = platform.fleet_schedule();
    let coverage_floor = if schedule.is_sampling() {
        // Per-URL distinct-coverage floor over the minimum number of
        // testing days any URL gets — a lower bound on the union.
        let min_testing_days = platform_cfg.total_days / platform_cfg.testing_interval_days();
        schedule.covered_after(min_testing_days)
    } else {
        fleet
    };

    CellRow {
        spec: *spec,
        measurements: stats.measurements,
        fleet,
        sampled_vps: stats.vps,
        coverage_floor,
        failed: stats.failed,
        cnfs,
        localized_cnfs: localized,
        solvable_frac: if cnfs == 0 { 0.0 } else { localized as f64 / cnfs as f64 },
        unsat_frac: class_frac(Solvability::Unsat),
        unique_frac: class_frac(Solvability::Unique),
        multiple_frac: class_frac(Solvability::Multiple),
        identified,
        precision: validation.precision,
        recall: validation.recall,
        false_positives: validation.false_positives,
        wall_ms: start.elapsed().as_millis() as u64,
    }
}

/// Run every cell, `threads`-parallel, preserving cell order in the
/// returned rows.
pub fn run_matrix(cfg: &MatrixConfig) -> Vec<CellRow> {
    let cells = cfg.cells();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        cfg.threads
    }
    .min(cells.len().max(1));

    let next = AtomicUsize::new(0);
    let rows: Mutex<Vec<Option<CellRow>>> = Mutex::new(vec![None; cells.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let row = run_cell(&cells[i]);
                rows.lock().expect("matrix worker poisoned")[i] = Some(row);
            });
        }
    });
    rows.into_inner()
        .expect("matrix workers done")
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect()
}

/// Check the paper-shaped invariants over a finished grid; returns a
/// human-readable description of every violation (empty = all good).
pub fn check_invariants(rows: &[CellRow]) -> Vec<String> {
    let mut violations = Vec::new();

    for row in rows {
        let label = row.spec.label();
        if !row.spec.noise && row.false_positives > 0 {
            violations.push(format!(
                "{label}: {} false accusations in a noise-free cell",
                row.false_positives
            ));
        }
        if row.measurements == 0 {
            violations.push(format!("{label}: cell took no measurements"));
        }
        if row.cnfs > 0 {
            let sum = row.unsat_frac + row.unique_frac + row.multiple_frac;
            if (sum - 1.0).abs() > 1e-9 {
                violations.push(format!("{label}: solvability fractions sum to {sum}"));
            }
        }
        // Sampling coverage: the campaign must touch at least the
        // schedule's provable distinct-VP floor (rows from pre-sampling
        // files carry 0 and pass trivially).
        if row.sampled_vps < row.coverage_floor {
            violations.push(format!(
                "{label}: only {} distinct vantage points ran tests; the schedule guarantees {}",
                row.sampled_vps, row.coverage_floor
            ));
        }
        if row.spec.scale == WorldScale::Huge && row.fleet > 0 {
            // The Huge tier's defining bounds: a genuinely huge sampled
            // fleet, and a routable one.
            if row.sampled_vps < 10_000 {
                violations.push(format!(
                    "{label}: Huge cell sampled only {} vantage ASes (tier floor 10000)",
                    row.sampled_vps
                ));
            }
            if row.measurements > 0 {
                let failed_frac = row.failed as f64 / row.measurements as f64;
                if failed_frac > 0.05 {
                    violations.push(format!(
                        "{label}: {:.1}% of measurements failed to route (reachability cap 5%)",
                        100.0 * failed_frac
                    ));
                }
            }
        }
    }

    // Churn ablation pairs: Normal must never do worse than FirstPathOnly.
    for row in rows.iter().filter(|r| r.spec.churn_mode == ChurnMode::Normal) {
        let Some(ablated) = rows.iter().find(|r| {
            r.spec.churn_mode == ChurnMode::FirstPathOnly
                && r.spec.pair_key() == row.spec.pair_key()
        }) else {
            continue;
        };
        if row.localized_cnfs < ablated.localized_cnfs {
            violations.push(format!(
                "{}: churn localized fewer CNFs than its no-churn ablation ({} < {})",
                row.spec.label(),
                row.localized_cnfs,
                ablated.localized_cnfs
            ));
        }
        if row.spec.noise {
            // With noise, the ablation's extra "identifications" can be
            // artifacts (its precision collapses), so set containment is
            // not guaranteed — but churn must never recover fewer *true*
            // censors.
            if row.recall < ablated.recall - 1e-9 {
                violations.push(format!(
                    "{}: churn recalled fewer true censors ({:.3} < {:.3})",
                    row.spec.label(),
                    row.recall,
                    ablated.recall
                ));
            }
        } else {
            // Noise-free, identification is monotone in observations:
            // everything the ablation pinned down, churn pins down too.
            let with: BTreeSet<u32> = row.identified.iter().copied().collect();
            let without: BTreeSet<u32> = ablated.identified.iter().copied().collect();
            if !without.is_subset(&with) {
                violations.push(format!(
                    "{}: no-churn ablation identified censors churn missed: {:?} vs {:?}",
                    row.spec.label(),
                    without,
                    with
                ));
            }
        }
    }

    violations
}

/// `bench matrix`.
pub const SUB: Sub = Sub {
    name: "matrix",
    about: "sweep the scenario grid, write one JSON row per cell, enforce its invariants",
    flags: &[
        Flag::new("--full", Kind::Switch, "", "32 cells: add the Small scale"),
        Flag::new("--engine", Kind::Switch, "", "localize through the sharded engine"),
        Flag::new("--huge-smoke", Kind::Switch, "", "the bounded-time Huge churn-ablation pair"),
        SEED,
        Flag::new("--threads", UINT, "0", "cells run in parallel (0 = one per core)"),
        Flag::new("--budget-secs", UINT, "", "exit 1 if the sweep takes longer"),
        OUT,
        Flag::new("--check", Kind::Text, "", "re-check the rows saved in this file; run nothing"),
    ],
    positional: None,
    rules: &[],
    run,
};

fn run(args: &Args) -> ExitCode {
    let seed: u64 = args.req("--seed");
    let start = std::time::Instant::now();
    let rows = match args.text("--check") {
        // Re-check previously written rows (one JSON object per line).
        Some(path) => {
            let loaded = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read grid file `{path}`: {e}"))
                .and_then(|text| {
                    let rows = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
                    rows.map(|(i, l)| {
                        serde_json::from_str::<CellRow>(l)
                            .map_err(|e| format!("`{path}` line {}: not a matrix row: {e}", i + 1))
                    })
                    .collect::<Result<Vec<_>, _>>()
                });
            match loaded {
                Ok(rows) => {
                    eprintln!("matrix: re-checking {} saved cells from {path}", rows.len());
                    rows
                }
                Err(msg) => return cli::usage_error(&msg),
            }
        }
        None => {
            let huge_smoke = args.has("--huge-smoke");
            let threads: usize = args.req("--threads");
            let mut cfg = if huge_smoke {
                MatrixConfig::huge_smoke_grid(seed)
            } else if args.has("--full") {
                MatrixConfig::full_grid(seed)
            } else {
                MatrixConfig::default_grid(seed)
            };
            if !huge_smoke {
                cfg.threads = threads;
                cfg.engine = args.has("--engine");
            } else if threads != 0 {
                // The Huge pair parallelizes inside each cell (fused
                // generator workers); honor an explicit --threads only.
                cfg.threads = threads;
            }
            eprintln!(
                "matrix: {} cells, seed {seed}{}",
                cfg.cells().len(),
                if huge_smoke {
                    ", Huge smoke (fused engine, sampled fleet)"
                } else if cfg.engine {
                    ", sharded engine"
                } else {
                    ""
                }
            );
            let rows = run_matrix(&cfg);
            // One JSON row per cell.
            let lines: String =
                rows.iter().map(|r| serde_json::to_string(r).expect("row serializes") + "\n").collect();
            match args.text("--out") {
                Some(path) => std::fs::write(path, lines).expect("write output file"),
                None => print!("{lines}"),
            }
            rows
        }
    };
    let elapsed = start.elapsed();

    eprintln!(
        "{:<42} {:>9} {:>6} {:>6} {:>6} {:>5} {:>5} {:>4} {:>7}",
        "cell", "meas", "cnfs", "loc", "solv%", "prec", "rec", "fp", "wall_ms"
    );
    for row in &rows {
        eprintln!(
            "{:<42} {:>9} {:>6} {:>6} {:>5.1}% {:>5.2} {:>5.2} {:>4} {:>7}",
            row.spec.label(),
            row.measurements,
            row.cnfs,
            row.localized_cnfs,
            row.solvable_frac * 100.0,
            row.precision,
            row.recall,
            row.false_positives,
            row.wall_ms
        );
    }
    for row in rows.iter().filter(|r| r.fleet > 0) {
        eprintln!(
            "matrix: {}: fleet {}, {} distinct VPs ran tests (floor {}), {} failed routes",
            row.spec.label(),
            row.fleet,
            row.sampled_vps,
            row.coverage_floor,
            row.failed
        );
    }
    eprintln!("matrix: {} cells in {elapsed:.2?}", rows.len());

    let violations = check_invariants(&rows);
    for v in &violations {
        eprintln!("INVARIANT VIOLATION: {v}");
    }
    if !violations.is_empty() {
        return ExitCode::FAILURE;
    }
    eprintln!("matrix: all invariants hold");

    if let Some(budget) = args.get::<u64>("--budget-secs") {
        if elapsed.as_secs() > budget {
            eprintln!("matrix: BUDGET EXCEEDED: {elapsed:.2?} > {budget}s wall-clock budget");
            return ExitCode::FAILURE;
        }
        eprintln!("matrix: inside the {budget}s budget ({elapsed:.2?})");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2×2 mini-grid (churn × noise, one mechanism): completes, every row
    /// round-trips through serde, and all invariants hold.
    #[test]
    fn mini_grid_runs_roundtrips_and_holds_invariants() {
        let cfg = MatrixConfig {
            scales: vec![WorldScale::Smoke],
            mechanisms: vec![Mechanism::DnsInjection],
            churn_modes: vec![ChurnMode::Normal, ChurnMode::FirstPathOnly],
            noise: vec![false, true],
            seed: 7,
            threads: 2,
            engine: false,
            trim: None,
        };
        let rows = run_matrix(&cfg);
        assert_eq!(rows.len(), 4);

        for row in &rows {
            assert!(row.measurements > 0, "{}: empty cell", row.spec.label());
            let line = serde_json::to_string(row).expect("row serializes");
            let back: CellRow = serde_json::from_str(&line).expect("row parses");
            assert_eq!(&back, row, "JSON roundtrip must be lossless");
        }

        let violations = check_invariants(&rows);
        assert!(violations.is_empty(), "invariant violations: {violations:#?}");
    }

    /// The churn-ablation invariant holds cell-by-cell on a second
    /// mechanism and seed.
    #[test]
    fn churn_ablation_invariant_per_cell() {
        let cfg = MatrixConfig {
            scales: vec![WorldScale::Smoke],
            mechanisms: vec![Mechanism::RstInjection],
            churn_modes: vec![ChurnMode::Normal, ChurnMode::FirstPathOnly],
            noise: vec![false],
            seed: 21,
            threads: 2,
            engine: false,
            trim: None,
        };
        let rows = run_matrix(&cfg);
        assert_eq!(rows.len(), 2);
        let normal = rows.iter().find(|r| r.spec.churn_mode == ChurnMode::Normal).unwrap();
        let ablated =
            rows.iter().find(|r| r.spec.churn_mode == ChurnMode::FirstPathOnly).unwrap();
        assert!(
            normal.localized_cnfs >= ablated.localized_cnfs,
            "churn must not lose localized CNFs: {} vs {}",
            normal.localized_cnfs,
            ablated.localized_cnfs
        );
        let with: BTreeSet<u32> = normal.identified.iter().copied().collect();
        let without: BTreeSet<u32> = ablated.identified.iter().copied().collect();
        assert!(without.is_subset(&with));
        assert!(check_invariants(&rows).is_empty());
    }

    /// The engine axis reproduces the pipeline's rows exactly: same
    /// CNFs, identifications, and scores on every cell (only the label
    /// and wall clock may differ).
    #[test]
    fn engine_cells_match_pipeline_cells() {
        let mut cfg = MatrixConfig {
            scales: vec![WorldScale::Smoke],
            mechanisms: vec![Mechanism::DnsInjection],
            churn_modes: vec![ChurnMode::Normal, ChurnMode::FirstPathOnly],
            noise: vec![true],
            seed: 13,
            threads: 2,
            engine: false,
            trim: None,
        };
        let pipeline_rows = run_matrix(&cfg);
        cfg.engine = true;
        let engine_rows = run_matrix(&cfg);
        assert!(check_invariants(&engine_rows).is_empty());
        for (p, e) in pipeline_rows.iter().zip(&engine_rows) {
            assert_eq!(e.spec.label(), format!("{}/engine", p.spec.label()));
            assert_eq!((p.measurements, p.cnfs, p.localized_cnfs), (e.measurements, e.cnfs, e.localized_cnfs), "{}", p.spec.label());
            assert_eq!(p.identified, e.identified, "{}", p.spec.label());
            assert_eq!((p.precision, p.recall, p.false_positives), (e.precision, e.recall, e.false_positives));
            assert_eq!((p.unsat_frac, p.unique_frac, p.multiple_frac), (e.unsat_frac, e.unique_frac, e.multiple_frac));
        }
    }

    /// Row files saved before the engine axis existed (no `engine`
    /// field) still parse — `matrix --check` keeps working on old
    /// artifacts.
    #[test]
    fn pre_engine_rows_still_deserialize() {
        let spec: CellSpec = serde_json::from_str(
            r#"{"scale":"Smoke","mechanism":"DnsInjection","churn_mode":"Normal","noise":false,"seed":42}"#,
        )
        .expect("old-format spec parses");
        assert!(!spec.engine, "missing field defaults to the batch pipeline");
        assert!(spec.trim.is_none(), "missing trim defaults to the scale preset");
    }

    /// Row files saved before the sampling columns existed parse with
    /// zeroed fleet/coverage fields, and those rows pass the sampling
    /// invariants trivially.
    #[test]
    fn pre_sampling_rows_still_deserialize_and_check() {
        let row: CellRow = serde_json::from_str(
            r#"{"spec":{"scale":"Smoke","mechanism":"DnsInjection","churn_mode":"Normal","noise":false,"seed":42},
                "measurements":100,"cnfs":1,"localized_cnfs":1,"solvable_frac":1.0,
                "unsat_frac":0.0,"unique_frac":1.0,"multiple_frac":0.0,
                "identified":[],"precision":1.0,"recall":1.0,"false_positives":0,"wall_ms":1}"#,
        )
        .expect("pre-sampling row parses");
        assert_eq!((row.fleet, row.sampled_vps, row.coverage_floor, row.failed), (0, 0, 0, 0));
        assert!(check_invariants(&[row]).is_empty(), "zeroed sampling columns pass trivially");
    }

    /// A trimmed, fleet-sampled cell wires the sampling bookkeeping end
    /// to end: the sampled-VP count lands at or above the schedule's
    /// provable floor and the row holds every invariant. (Smoke fleet is
    /// 24 over 12 testing days, so k = 1 keeps the distinct-coverage
    /// floor of 12 strictly below the fleet.)
    #[test]
    fn trimmed_sampled_cell_meets_coverage_floor() {
        let cfg = MatrixConfig {
            scales: vec![WorldScale::Smoke],
            mechanisms: vec![Mechanism::DnsInjection],
            churn_modes: vec![ChurnMode::Normal, ChurnMode::FirstPathOnly],
            noise: vec![false],
            seed: 33,
            threads: 2,
            engine: true,
            trim: Some(CampaignTrim {
                total_days: None,
                n_urls: Some(6),
                tests_per_pair: None,
                fleet_sample: Some(1),
                tests_per_pair_floor: Some(0),
            }),
        };
        let rows = run_matrix(&cfg);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.fleet > 0, "{}: fleet not recorded", row.spec.label());
            assert!(
                row.coverage_floor > 0 && row.coverage_floor < row.fleet,
                "{}: sampling should set a non-trivial floor ({} of {})",
                row.spec.label(),
                row.coverage_floor,
                row.fleet
            );
            assert!(row.sampled_vps >= row.coverage_floor, "{}", row.spec.label());
            let line = serde_json::to_string(row).expect("row serializes");
            let back: CellRow = serde_json::from_str(&line).expect("row parses");
            assert_eq!(&back, row, "trimmed row roundtrips losslessly");
        }
        let violations = check_invariants(&rows);
        assert!(violations.is_empty(), "invariant violations: {violations:#?}");
    }

    /// `check_invariants` actually fires on a coverage shortfall.
    #[test]
    fn coverage_shortfall_is_flagged() {
        let mut cfg = MatrixConfig::default_grid(5);
        cfg.mechanisms.truncate(1);
        cfg.churn_modes.truncate(1);
        cfg.noise.truncate(1);
        let mut rows = run_matrix(&cfg);
        rows[0].coverage_floor = rows[0].sampled_vps + 1;
        let violations = check_invariants(&rows);
        assert!(
            violations.iter().any(|v| v.contains("distinct vantage points")),
            "shortfall not flagged: {violations:#?}"
        );
    }

    #[test]
    fn grid_cross_product_shape() {
        let cfg = MatrixConfig::default_grid(1);
        assert_eq!(cfg.cells().len(), 16);
        let full = MatrixConfig::full_grid(1);
        assert_eq!(full.cells().len(), 32);
        // Every cell distinct.
        let labels: BTreeSet<String> = cfg.cells().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 16);
    }
}
