//! `bench sat` — SAT-core throughput: censuses/sec through the
//! watched-literal [`SolverCtx`] (cold and warm) and through the retained
//! full-rescan reference core, over fixed mixes of tomography-shaped
//! instances, written as one JSON document (`BENCH_sat.json`).
//!
//! ```text
//! bench sat                                   # BENCH_sat.json shape on stdout
//! bench sat --instances 5000 --repeats 5 --min-speedup 3 --out BENCH_sat.json
//! ```
//!
//! `--min-speedup X` turns the run into a gate: exit 1 unless the warm
//! context beats the reference core by at least `X`× on every mix. Both
//! run in this process, so the ratio is machine-relative and always
//! armed.

use crate::cli::{Args, Flag, Sub, MIN_SPEEDUP, OUT, POSITIVE, REPEATS, SEED};
use crate::{best_of, gate};
use churnlab_sat::{reference, Cnf, CompiledCnf, SolverCtx, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Enumeration cap of every census the sat and intern benches run.
pub const CENSUS_CAP: u64 = 64;

/// `bench sat`.
pub const SUB: Sub = Sub {
    name: "sat",
    about: "SAT-core censuses/sec: warm and cold context vs the full-rescan reference",
    flags: &[
        Flag::new("--instances", POSITIVE, "2000", "instances per mix"),
        SEED,
        REPEATS,
        MIN_SPEEDUP,
        OUT,
    ],
    positional: None,
    rules: &[],
    run,
};

/// One instance-mix preset: how many variables and clauses each generated
/// instance gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceMix {
    /// Mix label (`small` / `medium`).
    pub label: &'static str,
    /// Variable-count range (inclusive): distinct ASes per instance.
    pub vars: (usize, usize),
    /// Censored-path clause count range (inclusive).
    pub pos: (usize, usize),
    /// Clean-path count range (inclusive); each contributes 2–5 unit
    /// negations.
    pub neg: (usize, usize),
}

/// The paper-scale mixes `BENCH_sat.json` tracks.
pub const MIXES: [InstanceMix; 2] = [
    InstanceMix { label: "small", vars: (8, 16), pos: (2, 5), neg: (2, 8) },
    InstanceMix { label: "medium", vars: (24, 40), pos: (4, 8), neg: (6, 12) },
];

/// Generate one tomography-shaped CNF from a mix's ranges: censored
/// paths of mixed length 3–6 sharing a censor (positive clauses), plus
/// clean paths of mixed length 2–5 (unit negations).
fn tomography_cnf(mix: InstanceMix, rng: &mut StdRng) -> Cnf {
    let n_vars = rng.gen_range(mix.vars.0..=mix.vars.1);
    let n_pos = rng.gen_range(mix.pos.0..=mix.pos.1);
    let n_neg = rng.gen_range(mix.neg.0..=mix.neg.1);
    let mut f = Cnf::new(n_vars);
    let censor = Var(0);
    for _ in 0..n_pos {
        let mut path = vec![censor];
        for _ in 0..rng.gen_range(2..=5usize) {
            path.push(Var(rng.gen_range(1..n_vars as u32)));
        }
        f.add_positive_clause(path);
    }
    for _ in 0..n_neg {
        let len = rng.gen_range(2..=5usize);
        let vars: Vec<Var> = (0..len).map(|_| Var(rng.gen_range(1..n_vars as u32))).collect();
        f.add_negative_facts(vars);
    }
    f
}

/// A fixed workload: `n_instances` pre-generated instances of one mix,
/// and the same instances compiled to CSR so timing measures solving,
/// not formula building.
pub fn workload(mix: InstanceMix, n_instances: usize, seed: u64) -> (Vec<Cnf>, Vec<CompiledCnf>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cnfs: Vec<Cnf> = (0..n_instances).map(|_| tomography_cnf(mix, &mut rng)).collect();
    let compiled = cnfs.iter().map(CompiledCnf::from_cnf).collect();
    (cnfs, compiled)
}

/// One mix's timing row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SatBenchRow {
    /// Mix label.
    pub mix: String,
    /// Instances per pass.
    pub instances: u64,
    /// Censuses/sec, warm reused context.
    pub warm_census_per_sec: f64,
    /// Censuses/sec, cold context per call.
    pub cold_census_per_sec: f64,
    /// Censuses/sec through the full-rescan reference core.
    pub reference_census_per_sec: f64,
    /// Warm speedup over the reference core (the tentpole ratio).
    pub speedup_warm_vs_reference: f64,
    /// Cold speedup over the reference core.
    pub speedup_cold_vs_reference: f64,
}

/// The full SAT-core throughput report (`BENCH_sat.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SatBenchReport {
    /// Workload seed.
    pub seed: u64,
    /// Enumeration cap used for every census.
    pub cap: u64,
    /// One row per instance mix.
    pub rows: Vec<SatBenchRow>,
}

/// Run the sweep: best-of-`repeats` passes per mix and contender (warm
/// reused context, cold context per census, full-rescan reference).
pub fn run_sat_bench(n_instances: usize, seed: u64, cap: u64, repeats: usize) -> SatBenchReport {
    // Censuses/sec of one full pass over the workload, best of `repeats`.
    let rate = |pass: &mut dyn FnMut()| {
        let timed = || {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        };
        n_instances as f64 / best_of(repeats, timed)
    };
    let mut rows = Vec::new();
    for mix in MIXES {
        let (cnfs, compiled) = workload(mix, n_instances, seed);
        let mut ctx = SolverCtx::new();
        let warm_census_per_sec = rate(&mut || {
            for c in &compiled {
                black_box(ctx.census(c, cap));
            }
        });
        let cold_census_per_sec = rate(&mut || {
            for c in &compiled {
                black_box(SolverCtx::new().census(c, cap));
            }
        });
        let reference_census_per_sec = rate(&mut || {
            for f in &cnfs {
                black_box(reference::census(f, cap));
            }
        });
        rows.push(SatBenchRow {
            mix: mix.label.to_string(),
            instances: n_instances as u64,
            warm_census_per_sec,
            cold_census_per_sec,
            reference_census_per_sec,
            speedup_warm_vs_reference: warm_census_per_sec / reference_census_per_sec,
            speedup_cold_vs_reference: cold_census_per_sec / reference_census_per_sec,
        });
    }
    SatBenchReport { seed, cap, rows }
}

fn run(args: &Args) -> ExitCode {
    let (instances, repeats): (usize, usize) = (args.req("--instances"), args.req("--repeats"));
    eprintln!("sat: {instances} instances per mix, cap {CENSUS_CAP}, best of {repeats}");
    let report = run_sat_bench(instances, args.req("--seed"), CENSUS_CAP, repeats);

    let (floor, mut failures) = (args.get("--min-speedup"), Vec::new());
    for row in &report.rows {
        eprintln!(
            "{:<7} warm {:>10.0} census/s  cold {:>10.0}  reference {:>10.0}  \
             speedup warm {:>5.2}x cold {:>5.2}x",
            row.mix,
            row.warm_census_per_sec,
            row.cold_census_per_sec,
            row.reference_census_per_sec,
            row.speedup_warm_vs_reference,
            row.speedup_cold_vs_reference,
        );
        failures.extend(gate::below_floor(floor, &row.mix, row.speedup_warm_vs_reference));
    }
    gate::write_report("sat", args.text("--out"), &report);
    gate::verdict("sat", &failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three contenders agree on every workload instance (the bench
    /// must not be comparing different answers).
    #[test]
    fn contenders_agree_on_the_workload() {
        for mix in MIXES {
            let (cnfs, compiled) = workload(mix, 20, 11);
            let mut ctx = SolverCtx::new();
            for (f, c) in cnfs.iter().zip(&compiled) {
                let warm = ctx.census(c, 64);
                assert_eq!(warm, churnlab_sat::census(f, 64), "{}: warm vs cold", mix.label);
                assert_eq!(warm, reference::census(f, 64), "{}: warm vs reference", mix.label);
            }
        }
    }
}
