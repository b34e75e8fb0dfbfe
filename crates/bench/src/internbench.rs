//! `bench intern` — path-interning microbench: the duplicate-heavy
//! `observe` path before and after interning, written as one JSON
//! document (`BENCH_intern.json`).
//!
//! ```text
//! bench intern                                 # BENCH_intern.json shape on stdout
//! bench intern --repeats 5 --min-speedup 3 --out BENCH_intern.json
//! ```
//!
//! The contenders are the live interned data plane
//! ([`PathTable`] + [`InstanceGroup`], where a duplicate costs one `u32`
//! probe for a whole anomaly fan-out) and the retained un-interned
//! [`UninternedInstance`] (one full-path hash per instance cell). Both
//! process the **same** synthetic observation stream through the same
//! granularity×anomaly fan-out, and their outcomes are compared before
//! any timing is trusted — a contender that diverges is a harness bug,
//! not a speedup.
//!
//! `--min-speedup X` turns the run into a gate: exit 1 unless the
//! interned plane beats the un-interned reference by at least `X`× on
//! every mix. Run in-process and compared as a ratio, the result is
//! machine-relative, so the gate is always armed.

use crate::cli::{Args, Sub, MIN_SPEEDUP, OUT, REPEATS, SEED};
use crate::gate;
use churnlab_bgp::{Granularity, TimeWindow};
use churnlab_core::analyze::{InstanceOutcome, SolveConfig};
use churnlab_engine::incremental::{IncrementalStats, InstanceGroup, SolveScratch};
use churnlab_engine::reference::{ReferenceScratch, UninternedInstance};
use churnlab_engine::PathTable;
use churnlab_core::instance::InstanceKey;
use churnlab_platform::{AnomalySet, AnomalyType};
use churnlab_topology::Asn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::time::Instant;

/// `bench intern`.
pub const SUB: Sub = Sub {
    name: "intern",
    about: "interned observe path vs the retained un-interned reference",
    flags: &[SEED, REPEATS, MIN_SPEEDUP, OUT],
    positional: None,
    rules: &[],
    run,
};

/// One workload preset: a pool of distinct paths observed many times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternMix {
    /// Mix label (`dup-heavy` / `dup-moderate`).
    pub label: &'static str,
    /// Distinct paths in the pool.
    pub distinct_paths: usize,
    /// Total observations drawn from the pool (with replacement; the
    /// duplicate ratio is roughly `1 - distinct/total` per cell).
    pub observations: usize,
}

/// The duplicate-ratio regimes `BENCH_intern.json` tracks. Both are
/// duplicate-dominated — that is the regime path churn puts the engine
/// in (the committed smoke bench measures ~72% per-cell duplicates).
pub const MIXES: [InternMix; 2] = [
    InternMix { label: "dup-heavy", distinct_paths: 64, observations: 20_000 },
    InternMix { label: "dup-moderate", distinct_paths: 512, observations: 20_000 },
];

/// Granularity slots fanned out per observation (the paper's four).
const N_GRANULARITIES: usize = Granularity::ALL.len();
/// Instance cells touched per observation.
const CELLS_PER_OBS: usize = N_GRANULARITIES * AnomalyType::ALL.len();

/// A synthetic observation: a path from the pool plus the anomalies its
/// measurement detected.
struct Draw {
    path_ix: usize,
    detected: AnomalySet,
}

/// Tomography-shaped path pool: paths of length 3–8 over a shared AS
/// universe with a small "transit core" every path crosses, so positive
/// clauses overlap the way churned routes through a censor do.
fn path_pool(mix: InternMix, rng: &mut StdRng) -> Vec<Vec<Asn>> {
    let core: Vec<u32> = (1..=8).collect();
    let edge_universe = (mix.distinct_paths * 4) as u32;
    let mut pool = Vec::with_capacity(mix.distinct_paths);
    for _ in 0..mix.distinct_paths {
        let len = rng.gen_range(3..=8usize);
        let mut path = Vec::with_capacity(len);
        path.push(Asn(100 + rng.gen_range(0..edge_universe))); // vantage side
        for _ in 0..len - 2 {
            if rng.gen_range(0..3u32) == 0 {
                path.push(Asn(core[rng.gen_range(0..core.len())]));
            } else {
                path.push(Asn(100 + rng.gen_range(0..edge_universe)));
            }
        }
        path.push(Asn(50 + rng.gen_range(0..16u32))); // destination side
        pool.push(path);
    }
    pool
}

/// The observation stream: uniform draws from the pool; ~8% of draws
/// carry one detected anomaly (positive clauses stay the minority, as in
/// real campaigns, so instances are non-trivial but not instantly unsat).
fn stream(mix: InternMix, rng: &mut StdRng) -> Vec<Draw> {
    (0..mix.observations)
        .map(|_| {
            let path_ix = rng.gen_range(0..mix.distinct_paths);
            let mut detected = AnomalySet::empty();
            if rng.gen_range(0..100u32) < 8 {
                let a = AnomalyType::ALL[rng.gen_range(0..AnomalyType::ALL.len())];
                detected.insert(a);
            }
            Draw { path_ix, detected }
        })
        .collect()
}

fn window(g: Granularity) -> TimeWindow {
    TimeWindow::of(0, g, 365)
}

/// Drive the stream through the retained un-interned instances: the
/// original cost model — one full-path hash per instance cell.
fn run_reference(pool: &[Vec<Asn>], draws: &[Draw], cap: u64) -> (f64, Vec<InstanceOutcome>) {
    let mut stats = IncrementalStats::default();
    let mut scratch = ReferenceScratch::new();
    let mut cells: Vec<UninternedInstance> = Granularity::ALL
        .iter()
        .flat_map(|&g| {
            AnomalyType::ALL.map(|anomaly| {
                UninternedInstance::new(InstanceKey { url_id: 0, anomaly, window: window(g) })
            })
        })
        .collect();
    let start = Instant::now();
    for d in draws {
        let path = &pool[d.path_ix];
        for (gi, _) in Granularity::ALL.iter().enumerate() {
            for (ai, anomaly) in AnomalyType::ALL.into_iter().enumerate() {
                cells[gi * AnomalyType::ALL.len() + ai].observe(
                    path,
                    d.detected.contains(anomaly),
                    cap,
                    &mut stats,
                    &mut scratch,
                );
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, cells.iter().map(UninternedInstance::outcome).collect())
}

/// Drive the same stream through the interned data plane: one intern
/// probe per observation, one group probe per granularity, `u32` dedup.
fn run_interned(pool: &[Vec<Asn>], draws: &[Draw], cap: u64) -> (f64, Vec<InstanceOutcome>, IncrementalStats) {
    let mut stats = IncrementalStats::default();
    let mut scratch = SolveScratch::new();
    let mut table = PathTable::new();
    let mut groups: Vec<InstanceGroup> =
        Granularity::ALL.iter().map(|&g| InstanceGroup::new(0, window(g))).collect();
    let start = Instant::now();
    for d in draws {
        let pid = table.intern(&pool[d.path_ix]);
        for group in &mut groups {
            group.observe(pid, &table, d.detected, cap, &mut stats, &mut scratch);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let outcomes = groups
        .iter()
        .flat_map(|g| {
            let vars = g.vars_by_asn();
            g.cells().map(move |c| c.outcome(&vars))
        })
        .collect();
    (secs, outcomes, stats)
}

/// One mix's timing row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InternBenchRow {
    /// Mix label.
    pub mix: String,
    /// Distinct paths in the pool.
    pub distinct_paths: u64,
    /// Observations drawn (measurement granularity).
    pub observations: u64,
    /// Instance-cell observe calls performed by each contender.
    pub cell_observes: u64,
    /// Fraction of cell observes that were duplicates (interned run).
    pub duplicate_ratio: f64,
    /// Un-interned best-of-repeats seconds.
    pub reference_secs: f64,
    /// Interned best-of-repeats seconds.
    pub interned_secs: f64,
    /// Un-interned cell observes per second.
    pub reference_obs_per_sec: f64,
    /// Interned cell observes per second.
    pub interned_obs_per_sec: f64,
    /// `reference_secs / interned_secs`.
    pub speedup: f64,
}

/// The `BENCH_intern.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InternBenchReport {
    /// Workload seed.
    pub seed: u64,
    /// Best-of how many repeats.
    pub repeats: usize,
    /// One row per mix.
    pub rows: Vec<InternBenchRow>,
}

/// Run every mix, best-of-`repeats`, verifying the contenders agree on
/// every instance outcome before reporting a speedup.
///
/// # Panics
///
/// Panics if the interned and un-interned contenders disagree on any
/// instance outcome — the differential guard that keeps the bench honest.
pub fn run_intern_bench(seed: u64, cap: u64, repeats: usize) -> InternBenchReport {
    let repeats = repeats.max(1);
    let mut rows = Vec::new();
    for mix in MIXES {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = path_pool(mix, &mut rng);
        let draws = stream(mix, &mut rng);

        let mut ref_secs = f64::INFINITY;
        let mut int_secs = f64::INFINITY;
        let mut ref_outcomes = Vec::new();
        let mut int_outcomes = Vec::new();
        let mut stats = IncrementalStats::default();
        for _ in 0..repeats {
            let (s, o) = run_reference(&pool, &draws, cap);
            ref_secs = ref_secs.min(s);
            ref_outcomes = o;
            let (s, o, st) = run_interned(&pool, &draws, cap);
            int_secs = int_secs.min(s);
            int_outcomes = o;
            stats = st;
        }
        assert_eq!(
            ref_outcomes, int_outcomes,
            "mix `{}`: interned and un-interned contenders diverged",
            mix.label
        );
        let cell_observes = (mix.observations * CELLS_PER_OBS) as u64;
        rows.push(InternBenchRow {
            mix: mix.label.to_string(),
            distinct_paths: mix.distinct_paths as u64,
            observations: mix.observations as u64,
            cell_observes,
            duplicate_ratio: stats.duplicate_ratio(),
            reference_secs: ref_secs,
            interned_secs: int_secs,
            reference_obs_per_sec: cell_observes as f64 / ref_secs,
            interned_obs_per_sec: cell_observes as f64 / int_secs,
            speedup: ref_secs / int_secs,
        });
    }
    InternBenchReport { seed, repeats, rows }
}

fn run(args: &Args) -> ExitCode {
    let repeats: usize = args.req("--repeats");
    let cap = SolveConfig::default().count_cap;
    eprintln!("intern: cap {cap}, best of {repeats}");
    let report = run_intern_bench(args.req("--seed"), cap, repeats);

    let mut failures = Vec::new();
    for row in &report.rows {
        eprintln!(
            "{:<13} {:>5} paths × {:>6} obs (dup {:>5.1}%)  un-interned {:>10.0} obs/s  \
             interned {:>10.0} obs/s  speedup {:>5.2}x",
            row.mix,
            row.distinct_paths,
            row.observations,
            row.duplicate_ratio * 100.0,
            row.reference_obs_per_sec,
            row.interned_obs_per_sec,
            row.speedup,
        );
        failures.extend(gate::below_floor(args.get("--min-speedup"), &row.mix, row.speedup));
    }
    gate::write_report("intern", args.text("--out"), &report);
    gate::verdict("intern", &failures)
}
