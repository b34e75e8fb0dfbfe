//! The one gate module behind `bench engine` and `bench campaign`, the
//! baseline handling `bench route` shares with them, and the one report
//! writer behind every subcommand.
//!
//! Both sweeps produce rows keyed by a worker count (shards, generator
//! threads) that carry a speedup over an in-process control (the serial
//! campaign; the engine's own 1-shard row) and two scaling-efficiency
//! figures; [`Sweep`] is that view, and everything here is written once
//! over it:
//!
//! * **Regression gate** (`--baseline FILE`, `bench campaign` only):
//!   every count both reports cover must keep at least
//!   [`REGRESSION_FLOOR`] of the baseline's speedup. The *ratio* is compared, not raw measurements/sec, because
//!   machines differ; the control timed in the same process is the
//!   machine-speed reference. The gate arms only against a comparable
//!   baseline (same workload, same core count, a shared row) and every
//!   skip is announced loudly — a silently skipped gate is how a flat
//!   shard curve once survived three PRs. `--require-gate` turns a skip
//!   into a failure.
//! * **Scaling gate** (`--assert-scaling`): efficiency at the highest
//!   count must reach `--min-efficiency`, on the wall clock when the
//!   process sees that many cores and otherwise on the core-count-
//!   independent busy-time model, so a serialized engine fails on any
//!   runner.
//! * **Judge first, write second.** The baseline is read before the run
//!   and the report is written only after every gate has spoken, and a
//!   run that failed a gate never replaces the baseline it was read
//!   from: `--baseline X --out X` (CI's spelling) leaves `X` untouched
//!   on failure, so running it again cannot compare the regression with
//!   itself. `--update-baseline` writes the run as the new baseline
//!   without gating it against the old one.

use crate::cli::{Args, Flag, Kind, Rule, FRACTION};
use churnlab_obs::Journal;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

/// Fraction of the baseline speedup a run must retain.
pub const REGRESSION_FLOOR: f64 = 0.8;

// The flag rows (and the rule) a gated sweep's table carries next to
// its own.
/// `--baseline FILE`.
pub const BASELINE: Flag =
    Flag::new("--baseline", Kind::Text, "", "gate speedups against this committed report");
/// `--require-gate`.
pub const REQUIRE_GATE: Flag =
    Flag::new("--require-gate", Kind::Switch, "", "exit 1 when the regression gate does not arm");
/// `--update-baseline`.
pub const UPDATE_BASELINE: Flag =
    Flag::new("--update-baseline", Kind::Switch, "", "write this run as the new baseline, ungated");
/// `--assert-scaling`.
pub const ASSERT_SCALING: Flag =
    Flag::new("--assert-scaling", Kind::Switch, "", "exit 1 unless efficiency at the top count reaches --min-efficiency");
/// `--min-efficiency X`.
pub const MIN_EFFICIENCY: Flag =
    Flag::new("--min-efficiency", FRACTION, "0.7", "scaling-efficiency floor, as a fraction of linear");
/// A refreshed baseline has nothing to be gated against.
pub const REFRESH_IS_UNGATED: Rule = Rule::Conflict("--update-baseline", "--require-gate");

/// One row of a sweep as the gates see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Worker count the row ran at.
    pub n: usize,
    /// Throughput over the in-process control.
    pub speedup: f64,
    /// Wall-clock efficiency against the sweep's 1-worker row.
    pub wallclock_efficiency: Option<f64>,
    /// Busy-time-model efficiency against the sweep's 1-worker row.
    pub model_efficiency: Option<f64>,
}

/// A report as the gates see it: rows keyed by a worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// What a row's count counts (`shard`, `thread`).
    pub unit: &'static str,
    /// What ran; speedups compare only between equal workloads.
    pub workload: String,
    /// Cores the process saw.
    pub cores: usize,
    /// Whether busy time was on-CPU time rather than wall intervals.
    pub busy_cpu_attributed: bool,
    /// The rows.
    pub rows: Vec<SweepRow>,
}

/// A report the gates can judge.
pub trait AsSweep {
    /// The gates' view of it.
    fn sweep(&self) -> Sweep;
}

/// Wall-clock and busy-model efficiency of a row against the sweep's
/// 1-worker row: `(rate / base rate) / n` and `base critical path /
/// (n × critical path)`. `base` is the 1-worker row's `(rate, critical
/// nanos)`; without one neither figure exists.
pub fn efficiency(
    base: Option<(f64, u64)>,
    n: usize,
    rate: f64,
    critical_nanos: u64,
) -> (Option<f64>, Option<f64>) {
    let Some((base_rate, base_crit)) = base else { return (None, None) };
    let model = (base_crit > 0 && critical_nanos > 0)
        .then(|| base_crit as f64 / (n as f64 * critical_nanos as f64));
    (Some(rate / base_rate / n as f64), model)
}

/// An efficiency figure as the sweep tables print it.
pub fn show_efficiency(e: Option<f64>) -> String {
    e.map_or("-".to_string(), |e| format!("{e:.2}"))
}

/// A warning nobody can miss: plain on a terminal, a `::warning::`
/// annotation on a GitHub runner (the only case that touches stdout).
pub fn warn_loudly(who: &str, msg: &str) {
    if std::env::var_os("GITHUB_ACTIONS").is_some() {
        println!("::warning title=bench {who} gate::{msg}");
    }
    eprintln!("{who}: WARNING — {msg}");
}

/// Announces gate outcomes: loudly to the human, and as
/// `gate_armed`/`gate_skipped` events to the run's journal if it has one.
pub struct Gate<'a> {
    /// The subcommand speaking.
    pub who: &'static str,
    /// The run's event journal.
    pub journal: Option<&'a Journal>,
}

impl Gate<'_> {
    fn emit(&self, event: &str, gate: &str, key: &str, text: &str) {
        if let Some(j) = self.journal {
            j.emit_tagged(event, &[], &[("gate", gate), (key, text)]);
            j.flush(); // a failing gate ends the process right after
        }
    }

    /// The gate judged the run; `detail` starts with `pass` or `fail`.
    pub fn armed(&self, gate: &str, detail: &str) {
        self.emit("gate_armed", gate, "detail", detail);
    }

    /// The gate could not judge the run.
    pub fn skipped(&self, gate: &str, reason: &str) {
        self.emit("gate_skipped", gate, "reason", reason);
        warn_loudly(self.who, &format!("{reason}; {gate} gate NOT armed"));
    }

    /// The gate judges the run, but not on the basis it prefers.
    pub fn fallback(&self, gate: &str, preferred: &str, reason: &str) {
        self.emit("gate_skipped", &format!("{gate}/{preferred}"), "reason", reason);
        warn_loudly(self.who, reason);
    }
}

/// What the regression gate made of a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Regression {
    /// The baseline is not comparable; why.
    Skipped(String),
    /// Every shared count kept its speedup; how many were compared.
    Passed(usize),
    /// One message per count that lost more than 20%.
    Failed(Vec<String>),
}

/// Hold a run against a baseline report.
pub fn check_regression(run: &Sweep, baseline: &Sweep) -> Regression {
    if baseline.workload != run.workload {
        return Regression::Skipped(format!(
            "baseline workload `{}` != run workload `{}`",
            baseline.workload, run.workload
        ));
    }
    // A speedup over the control depends on how many cores the workers
    // spread over, not only on machine speed: CI pins one lane to the
    // 1-core baseline and leaves the scaling lane unpinned.
    if baseline.cores != run.cores {
        return Regression::Skipped(format!(
            "baseline has {} core(s), this run {} (pin the run to match, e.g. \
             `taskset -c 0`, or refresh the baseline)",
            baseline.cores, run.cores
        ));
    }
    let mut compared = 0;
    let mut failures = Vec::new();
    for base in &baseline.rows {
        let Some(row) = run.rows.iter().find(|r| r.n == base.n) else { continue };
        compared += 1;
        let floor = base.speedup * REGRESSION_FLOOR;
        if row.speedup < floor {
            failures.push(format!(
                "{} {}(s): speedup {:.2}x fell more than 20% below baseline {:.2}x (floor {floor:.2}x)",
                row.n, run.unit, row.speedup, base.speedup
            ));
        }
    }
    if compared == 0 {
        Regression::Skipped(format!("baseline shares no {} counts with this run", run.unit))
    } else if failures.is_empty() {
        Regression::Passed(compared)
    } else {
        Regression::Failed(failures)
    }
}

/// Scaling basis: throughput ratios, honest only with a core per worker.
pub const WALL_CLOCK: &str = "wall-clock";
/// Scaling basis: critical-path ratios over per-thread busy attribution.
pub const BUSY_MODEL: &str = "busy-time model";

/// Efficiency at the sweep's highest count must reach `min_efficiency`,
/// on the wall clock when the machine has a core per worker and on the
/// busy-time model otherwise (announced). The sweep needs a 1-worker
/// row: efficiency is relative to it. Returns the basis it judged on.
pub fn assert_scaling(gate: &Gate<'_>, run: &Sweep, min_efficiency: f64) -> Result<&'static str, String> {
    let Sweep { unit, cores, .. } = *run;
    let top = run.rows.iter().max_by_key(|r| r.n).ok_or("the sweep has no rows")?;
    let n = top.n;
    if n == 1 {
        return Err(format!("--assert-scaling needs a {unit} count above 1"));
    }
    if !run.rows.iter().any(|r| r.n == 1) {
        return Err(format!(
            "--assert-scaling needs a 1-{unit} row (efficiency is measured relative to it)"
        ));
    }
    let (basis, efficiency) = if cores >= n {
        (WALL_CLOCK, top.wallclock_efficiency)
    } else {
        gate.fallback("scaling", WALL_CLOCK, &format!(
            "scaling asserted on the busy-time model: {cores} core(s) cannot wall-clock \
             {n} {unit}s (use a {n}-core runner for the real curve)"
        ));
        if !run.busy_cpu_attributed {
            warn_loudly(gate.who, "busy attribution fell back to wall intervals (no thread CPU \
                clock); the model basis folds in scheduler noise");
        }
        (BUSY_MODEL, top.model_efficiency)
    };
    let efficiency = efficiency
        .ok_or_else(|| format!("no {basis} efficiency at {n} {unit}s (busy attribution missing?)"))?;
    if efficiency < min_efficiency {
        gate.armed("scaling", &format!("fail — {basis} {efficiency:.2} < {min_efficiency:.2}"));
        return Err(format!(
            "{basis} scaling efficiency {efficiency:.2} at {n} {unit}s is below the \
             {min_efficiency:.2} floor (flat curve: something is serialized)"
        ));
    }
    gate.armed("scaling", &format!("pass — {basis} {efficiency:.2} >= {min_efficiency:.2}"));
    eprintln!(
        "{}: scaling ok — {basis} efficiency {efficiency:.2} at {n} {unit}s \
         (floor {min_efficiency:.2}, {cores} core(s))",
        gate.who
    );
    Ok(basis)
}

/// Write a report as one line of JSON: to `out`, or to stdout without.
pub fn write_report(who: &str, out: Option<&str>, report: &impl Serialize) {
    let json = serde_json::to_string(report).expect("report serializes");
    match out {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .unwrap_or_else(|e| panic!("write report {path}: {e}"));
            eprintln!("{who}: wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// Where a run reads its baseline and writes its report: `--baseline`
/// and `--out` as given, unless `--update-baseline` makes the run the new
/// baseline — then nothing is read, and the report goes to the file either
/// flag names, or to `committed` when neither does.
pub fn targets<'a>(
    args: &'a Args,
    committed: &'a str,
) -> Result<(Option<&'a str>, Option<&'a str>), String> {
    let (baseline, out) = (args.text("--baseline"), args.text("--out"));
    if !args.has("--update-baseline") {
        return Ok((baseline, out));
    }
    if baseline.is_some() && out.is_some() && baseline != out {
        return Err("--update-baseline with --baseline and --out naming different files \
                    is ambiguous; name the target once"
            .into());
    }
    Ok((None, Some(baseline.or(out).unwrap_or(committed))))
}

/// Read the report a `--baseline` names.
pub fn read_baseline<R: Deserialize>(path: &str) -> Result<R, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse baseline {path}: {e}"))
}

/// Write a judged run's report — except over the baseline that rejected
/// it: `--baseline X --out X` leaves `X` as it was when a gate failed, and
/// the rejected report goes to stdout.
pub fn write_judged(
    who: &str,
    out: Option<&str>,
    baseline: Option<&str>,
    rejected: bool,
    report: &impl Serialize,
) {
    // (The baseline was read, so its path resolves; `--out` need not.)
    let resolve = |path: &str| std::fs::canonicalize(path).ok();
    let protected = rejected
        && out.zip(baseline).is_some_and(|(out, baseline)| resolve(baseline) == resolve(out));
    if protected {
        eprintln!("{who}: a gate failed — the baseline is left as it was; the rejected report follows on stdout");
    }
    write_report(who, out.filter(|_| !protected), report);
}

/// What a gated sweep was asked to do with its report, settled — and the
/// baseline read — before the run starts.
pub struct Plan {
    /// The baseline to gate against, with the path it was read from.
    pub baseline: Option<(String, Sweep)>,
    /// Where the report goes (stdout without).
    pub out: Option<String>,
    /// A regression gate that does not arm fails the run.
    pub require_gate: bool,
    /// `--assert-scaling`'s floor.
    pub min_efficiency: Option<f64>,
}

impl Plan {
    /// Settle the plan from a table that carries this module's flag rows
    /// and `--out`; the baseline file holds a report of type `R`.
    /// `committed` is the baseline `--update-baseline` refreshes when no
    /// path is named.
    pub fn from_args<R: AsSweep + Deserialize>(args: &Args, committed: &str) -> Result<Plan, String> {
        let (baseline, out) = targets(args, committed)?;
        let baseline = match baseline {
            Some(path) => Some((path.to_string(), read_baseline::<R>(path)?.sweep())),
            None => None,
        };
        Ok(Plan {
            baseline,
            out: out.map(str::to_string),
            require_gate: args.has("--require-gate"),
            min_efficiency: args.get("--min-efficiency").filter(|_| args.has("--assert-scaling")),
        })
    }

    /// Judge a finished run — `run` is the gates' view of `report` — then
    /// write the report. `failures` holds what the caller's own checks
    /// already found; returned with the failures of the gates that were
    /// asked for added.
    pub fn conclude(
        &self,
        gate: &Gate<'_>,
        run: &Sweep,
        report: &impl Serialize,
        mut failures: Vec<String>,
    ) -> Vec<String> {
        let who = gate.who;
        if let Some(min_efficiency) = self.min_efficiency {
            failures.extend(assert_scaling(gate, run, min_efficiency).err());
        }

        let armed = match self.baseline.as_ref().map(|(_, baseline)| check_regression(run, baseline)) {
            None => false,
            Some(Regression::Skipped(reason)) => {
                gate.skipped("regression", &reason);
                false
            }
            Some(Regression::Passed(compared)) => {
                let detail = format!("{compared} {} count(s) compared", run.unit);
                gate.armed("regression", &format!("pass — {detail}"));
                eprintln!("{who}: gate armed — within 20% of baseline speedups ({detail})");
                true
            }
            Some(Regression::Failed(msgs)) => {
                gate.armed("regression", &format!("fail — {} regression(s)", msgs.len()));
                failures.extend(msgs);
                true
            }
        };
        if self.require_gate && !armed {
            failures.push(format!(
                "--require-gate set but no regression gate armed{}",
                if self.baseline.is_none() { " (no --baseline given)" } else { "" }
            ));
        }

        // A rejected run never replaces the baseline that rejected it.
        let baseline = self.baseline.as_ref().map(|(path, _)| path.as_str());
        write_judged(who, self.out.as_deref(), baseline, !failures.is_empty(), report);
        failures
    }
}

/// The `--min-speedup` check of the in-process ratio benches: the
/// failure to report when `speedup` is under the floor, if one was set.
pub fn below_floor(floor: Option<f64>, label: &str, speedup: f64) -> Option<String> {
    floor
        .filter(|floor| speedup < *floor)
        .map(|floor| format!("`{label}` speedup {speedup:.2}x is below the {floor}x floor"))
}

/// Close a run: print each failed gate and turn them into the exit code
/// (1 when a gate that was asked for failed, 0 otherwise).
pub fn verdict(who: &str, failures: &[String]) -> ExitCode {
    for msg in failures {
        eprintln!("{who}: FAIL — {msg}");
    }
    ExitCode::from(u8::from(!failures.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep on `cores` cores; rows are `(n, speedup, wall-clock
    /// efficiency, model efficiency)`.
    fn sweep(workload: &str, cores: usize, rows: &[(usize, f64, f64, f64)]) -> Sweep {
        let rows = rows.iter().map(|&(n, speedup, wall, model)| SweepRow {
            n,
            speedup,
            wallclock_efficiency: Some(wall),
            model_efficiency: Some(model),
        });
        Sweep { unit: "shard", workload: workload.into(), cores, busy_cpu_attributed: true, rows: rows.collect() }
    }

    const QUIET: Gate<'static> = Gate { who: "test", journal: None };

    #[test]
    fn regression_gate_arms_only_against_a_comparable_baseline() {
        let base = sweep("small", 1, &[(1, 4.0, 1.0, 1.0), (8, 5.0, 0.1, 0.9)]);
        let skipped = |run: &Sweep| matches!(check_regression(run, &base), Regression::Skipped(_));
        assert!(skipped(&sweep("smoke", 1, &[(1, 4.0, 1.0, 1.0)])), "scale mismatch");
        assert!(skipped(&sweep("small", 8, &[(1, 4.0, 1.0, 1.0)])), "core-count mismatch");
        assert!(skipped(&sweep("small", 1, &[(2, 4.0, 1.0, 1.0)])), "no shared rows");
        // 19% below the baseline passes, 21% below fails — row by row.
        let run = sweep("small", 1, &[(1, 4.0 * 0.81, 1.0, 1.0), (4, 0.1, 1.0, 1.0), (8, 5.0, 0.1, 0.9)]);
        assert_eq!(check_regression(&run, &base), Regression::Passed(2));
        let run = sweep("small", 1, &[(1, 4.0, 1.0, 1.0), (8, 5.0 * 0.79, 0.1, 0.9)]);
        assert!(matches!(check_regression(&run, &base), Regression::Failed(msgs) if msgs.len() == 1));
    }

    #[test]
    fn scaling_gate_picks_its_basis_from_the_core_count() {
        let rows = [(1, 1.0, 1.0, 1.0), (8, 6.0, 0.75, 0.2)];
        assert_eq!(assert_scaling(&QUIET, &sweep("s", 8, &rows), 0.7), Ok(WALL_CLOCK));
        // Fewer cores than workers: the model decides, and here it fails.
        let err = assert_scaling(&QUIET, &sweep("s", 2, &rows), 0.7).unwrap_err();
        assert!(err.starts_with(BUSY_MODEL), "{err}");
        let rows = [(1, 1.0, 1.0, 1.0), (8, 1.5, 0.2, 0.9)];
        assert_eq!(assert_scaling(&QUIET, &sweep("s", 2, &rows), 0.7), Ok(BUSY_MODEL));
        assert!(assert_scaling(&QUIET, &sweep("s", 8, &rows), 0.7).is_err());
        let no_base = assert_scaling(&QUIET, &sweep("s", 8, &rows[1..]), 0.7).unwrap_err();
        assert!(no_base.contains("needs a 1-shard row"), "{no_base}");
        assert!(assert_scaling(&QUIET, &sweep("s", 8, &rows[..1]), 0.7).is_err());
    }

    /// CI spells it `--baseline X --out X`: a rejected run must leave `X`
    /// byte-identical, or a second run compares the regression with itself.
    #[test]
    fn a_failing_gate_leaves_its_baseline_untouched() {
        let path = std::env::temp_dir().join(format!("churnlab_gate_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::write(&path, "the committed baseline\n").unwrap();
        let base = sweep("small", 1, &[(1, 4.0, 1.0, 1.0)]);
        let plan = Plan {
            baseline: Some((path.clone(), base.clone())),
            out: Some(path.clone()),
            require_gate: true,
            min_efficiency: None,
        };
        let regressed = sweep("small", 1, &[(1, 2.0, 1.0, 1.0)]);
        assert_eq!(plan.conclude(&QUIET, &regressed, &"rejected", vec![]).len(), 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "the committed baseline\n");
        // `--require-gate` with nothing armed is a failure too, and protects too.
        let skipped = plan.conclude(&QUIET, &sweep("smoke", 1, &[(1, 9.0, 1.0, 1.0)]), &"rejected", vec![]);
        assert!(skipped[0].contains("no regression gate armed"), "{skipped:?}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "the committed baseline\n");
        // A run that passes replaces it.
        assert!(plan.conclude(&QUIET, &base, &"accepted", vec![]).is_empty());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "\"accepted\"\n");
        std::fs::remove_file(&path).unwrap();
        let ungated = Plan { baseline: None, out: None, ..plan };
        assert!(ungated.conclude(&QUIET, &base, &"unwritten", vec![])[0].contains("no --baseline given"));
    }
}
