//! `--compare base.jsonl change.jsonl`: two sets of runs (one JSON line
//! per run, as `--out` appends them) held against the benchmark's own
//! bounds, one row per metric and workload.

use crate::spec::{Better, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartile_spread};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, metric) → that metric's value in each run of the set.
type RunSet = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), i + 1);
        let doc: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let workload = doc
            .get("header")
            .and_then(|h| h.get("workload"))
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no header.workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| bad("no result.metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("a metric without a value"))?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no runs", path.display()));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, and the two
    /// sides overlap: the data cannot say.
    Unresolved,
    /// A count that repeats exactly on both sides.
    Same,
    /// A count that differs between or within the sides.
    Differs,
    /// An unbounded timing: the ratio is all there is to say.
    Unjudged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
            Verdict::Unjudged => "-",
        }
    }
}

/// The wider of the two sets' quartile spreads (0 where neither has two runs).
fn widest_spread(base: &[f64], change: &[f64]) -> f64 {
    [base, change]
        .into_iter()
        .filter_map(quartile_spread)
        .fold(0.0, f64::max)
}

/// Judge one metric on one workload. `base` and `change` are non-empty.
pub fn judge(m: &Metric, base: &[f64], change: &[f64]) -> Verdict {
    let Some(bound) = m.bound else {
        if !matches!(m.unit, "count" | "bytes") {
            return Verdict::Unjudged;
        }
        let same = base.iter().chain(change).all(|v| *v == base[0]);
        return if same {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    };
    let worse = |a: f64, than: f64| match m.better {
        Better::Lower => a > than,
        Better::Higher => a < than,
    };
    let (b, c) = (median(base), median(change));
    let worse_by = match m.better {
        Better::Lower => (c - b) / b.abs(),
        Better::Higher => (b - c) / b.abs(),
    };
    if widest_spread(base, change) > bound {
        let change_wins_every_pair = change.iter().all(|c| base.iter().all(|b| worse(*b, *c)));
        return if change_wins_every_pair {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; `Ok(false)` when any bounded metric regressed.
pub fn run(base: &Path, change: &Path) -> Result<bool, String> {
    let (base_set, change_set) = (load(base)?, load(change)?);
    println!("base   {}\nchange {}", base.display(), change.display());
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base median", "change median", "ratio", "bound", "spread"
    );
    let mut regressed = 0;
    for w in WORKLOADS {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(b), Some(c)) = (base_set.get(&key), change_set.get(&key)) else {
                continue;
            };
            let verdict = judge(m, b, c);
            regressed += usize::from(verdict == Verdict::Regressed);
            let (bm, cm) = (median(b), median(c));
            println!(
                "{:<14} {:<28} {:>14.4} {:>14.4} {:>8.3} {:>7} {:>7.3}  {} (n={}+{}, {}, {} is better)",
                w.name,
                m.name,
                bm,
                cm,
                if bm != 0.0 { cm / bm } else { f64::NAN },
                m.bound.map_or("-".to_string(), |b| format!("{b:.2}")),
                widest_spread(b, c),
                verdict.label(),
                b.len(),
                c.len(),
                m.unit,
                m.better.label(),
            );
        }
    }
    println!("{regressed} regressed; ratios are change ÷ base medians");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: Metric = Metric {
        name: "r",
        unit: "meas/s",
        better: Better::Higher,
        bound: Some(0.10),
    };
    const COST: Metric = Metric {
        name: "c",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const COUNT: Metric = Metric {
        name: "n",
        unit: "count",
        better: Better::Lower,
        bound: None,
    };
    const BUSY: Metric = Metric {
        name: "b",
        unit: "s",
        better: Better::Lower,
        bound: None,
    };

    #[test]
    fn steady_sets_are_judged_against_the_bound() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(
            judge(&RATE, &base, &[95.0, 96.0, 95.5, 95.0, 96.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&RATE, &base, &[85.0, 86.0, 85.5, 85.0, 86.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&RATE, &base, &[150.0, 151.0, 150.0, 149.0, 150.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&COST, &base, &[115.0, 116.0, 115.5, 115.0, 116.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&COST, &base, &[85.0, 86.0, 85.5, 85.0, 86.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_the_change_wins_every_pair() {
        let noisy = [100.0, 140.0, 80.0, 120.0, 60.0];
        assert_eq!(
            judge(&RATE, &noisy, &[90.0, 91.0, 90.0, 89.0, 90.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&RATE, &noisy, &[150.0, 151.0, 150.0, 149.0, 150.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&COST, &noisy, &[50.0, 51.0, 50.0, 49.0, 50.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn counts_repeat_exactly_or_differ() {
        assert_eq!(judge(&COUNT, &[7.0, 7.0], &[7.0]), Verdict::Same);
        assert_eq!(judge(&COUNT, &[7.0, 7.0], &[8.0]), Verdict::Differs);
        assert_eq!(judge(&BUSY, &[1.0], &[2.0]), Verdict::Unjudged);
    }
}
