//! The scaling gate `bench engine` and `bench campaign` share, the
//! baseline handling `bench route` keeps, and the one report writer
//! behind every subcommand.
//!
//! Both sweeps produce rows keyed by a worker count (shards, generator
//! threads) that carry two scaling-efficiency figures against the
//! sweep's own 1-worker row; [`Sweep`] is that view:
//!
//! * **Scaling gate** (`--assert-scaling`): efficiency at the highest
//!   count must reach `--min-efficiency`, on the wall clock when the
//!   process sees that many cores and otherwise on the core-count-
//!   independent busy-time model, so a serialized engine fails on any
//!   runner.
//! * **Judge first, write second** (`bench route --baseline`). The
//!   baseline is read before the run and the report is written only
//!   after every gate has spoken, and a run that failed a gate never
//!   replaces the baseline it was read from: `--baseline X --out X`
//!   leaves `X` untouched on failure.
//!
//! End-to-end throughput is not judged here: `benchmark/`'s workloads
//! time it, paired against the parent commit.

use crate::cli::{Flag, Kind, FRACTION};
use churnlab_obs::Journal;
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

// The flag rows a scaling sweep's table carries next to its own.
/// `--assert-scaling`.
pub const ASSERT_SCALING: Flag =
    Flag::new("--assert-scaling", Kind::Switch, "", "exit 1 unless efficiency at the top count reaches --min-efficiency");
/// `--min-efficiency X`.
pub const MIN_EFFICIENCY: Flag =
    Flag::new("--min-efficiency", FRACTION, "0.7", "scaling-efficiency floor, as a fraction of linear");

/// One row of a sweep as the gates see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Worker count the row ran at.
    pub n: usize,
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
    /// Cores the process saw.
    pub cores: usize,
    /// Whether busy time was on-CPU time rather than wall intervals.
    pub busy_cpu_attributed: bool,
    /// The rows.
    pub rows: Vec<SweepRow>,
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

    /// The gate judges the run, but not on the basis it prefers.
    pub fn fallback(&self, gate: &str, preferred: &str, reason: &str) {
        self.emit("gate_skipped", &format!("{gate}/{preferred}"), "reason", reason);
        warn_loudly(self.who, reason);
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

    /// A sweep on `cores` cores; rows are `(n, wall-clock efficiency,
    /// model efficiency)`.
    fn sweep(cores: usize, rows: &[(usize, f64, f64)]) -> Sweep {
        let rows = rows.iter().map(|&(n, wall, model)| SweepRow {
            n,
            wallclock_efficiency: Some(wall),
            model_efficiency: Some(model),
        });
        Sweep { unit: "shard", cores, busy_cpu_attributed: true, rows: rows.collect() }
    }

    const QUIET: Gate<'static> = Gate { who: "test", journal: None };

    #[test]
    fn scaling_gate_picks_its_basis_from_the_core_count() {
        let rows = [(1, 1.0, 1.0), (8, 0.75, 0.2)];
        assert_eq!(assert_scaling(&QUIET, &sweep(8, &rows), 0.7), Ok(WALL_CLOCK));
        // Fewer cores than workers: the model decides, and here it fails.
        let err = assert_scaling(&QUIET, &sweep(2, &rows), 0.7).unwrap_err();
        assert!(err.starts_with(BUSY_MODEL), "{err}");
        let rows = [(1, 1.0, 1.0), (8, 0.2, 0.9)];
        assert_eq!(assert_scaling(&QUIET, &sweep(2, &rows), 0.7), Ok(BUSY_MODEL));
        assert!(assert_scaling(&QUIET, &sweep(8, &rows), 0.7).is_err());
        let no_base = assert_scaling(&QUIET, &sweep(8, &rows[1..]), 0.7).unwrap_err();
        assert!(no_base.contains("needs a 1-shard row"), "{no_base}");
        assert!(assert_scaling(&QUIET, &sweep(8, &rows[..1]), 0.7).is_err());
    }

    /// `bench route --baseline X --out X`: a rejected run must leave `X`
    /// byte-identical, or a second run judges against the rejected one.
    #[test]
    fn a_failing_gate_leaves_its_baseline_untouched() {
        let path = std::env::temp_dir().join(format!("churnlab_gate_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::write(&path, "the committed baseline\n").unwrap();
        let (out, baseline) = (Some(path.as_str()), Some(path.as_str()));
        write_judged("test", out, baseline, true, &"rejected");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "the committed baseline\n");
        // A run that passes replaces it.
        write_judged("test", out, baseline, false, &"accepted");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "\"accepted\"\n");
        // A rejected run still writes to a file other than its baseline.
        let other = format!("{path}.out");
        write_judged("test", Some(&other), baseline, true, &"rejected");
        assert_eq!(std::fs::read_to_string(&other).unwrap(), "\"rejected\"\n");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&other).unwrap();
    }
}
