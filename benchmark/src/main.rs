//! The one benchmark for the whole wire.
//!
//! ```text
//! churnlab-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]
//! churnlab-benchmark --compare <base.jsonl> <change.jsonl>
//! ```
//!
//! An untraced run (`--trace 0`) measures for `--seconds` in rounds of
//! set-ups and timed passes, checks every report against the serial
//! reference and prints the end-to-end metrics. A traced run (`--trace 1`) records
//! spans around each call into a layer, re-drives the layers one at a
//! time over the workload's own inputs and prints the per-layer ledger.
//! Either way the last line of standard output is one JSON object.

mod compare;
mod layers;
mod spec;
mod stats;
mod sys;
mod trace;

use layers::{Inputs, Ledger, Pass, Study};
use serde_json::{json, Value};
use spec::{Metric, Workload, CLOSURE_BAND, END_TO_END, PER_LAYER};
use stats::{median, steady, supported_percentile};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str =
    "usage: churnlab-benchmark --workload <fused-small|fused-huge|replay-small|service-small> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]\n       \
churnlab-benchmark --compare <base.jsonl> <change.jsonl>";

/// Where traced runs leave their spans, relative to the repository root
/// the benchmark is run from.
const TRACE_DIR: &str = "benchmark/out";

#[derive(Debug, Clone)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Smoke-scale study and no two-core requirement: for tests.
    smoke: bool,
    out: Option<PathBuf>,
    /// Where a traced run leaves its spans.
    trace_dir: PathBuf,
}

enum Command {
    Run(Opts),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--compare" => {
                let (base, change) = (value()?, value()?);
                return Ok(Command::Compare(base.into(), change.into()));
            }
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out,
        trace_dir: TRACE_DIR.into(),
    }))
}

/// A finished run: what the last line of standard output carries.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(Metric, f64)>,
    /// Lines for the reader: sample counts, failed checks, closures.
    notes: Vec<String>,
}

/// Values by metric name, held against the declared table at the end so
/// a run can neither drop a declared metric nor invent one.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn into_table(self, table: &[Metric]) -> Vec<(Metric, f64)> {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|m| m.name == *name),
                "`{name}` is not a declared metric"
            );
        }
        table
            .iter()
            .map(|m| {
                let mut hits = self.0.iter().filter(|(n, _)| *n == m.name);
                let (_, v) = hits
                    .next()
                    .unwrap_or_else(|| panic!("declared metric `{}` was not measured", m.name));
                assert!(hits.next().is_none(), "`{}` was measured twice", m.name);
                (*m, *v)
            })
            .collect()
    }
}

/// What the checks of a run found.
struct Verdict {
    correct: bool,
    notes: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("FAILED: {what}"));
        }
    }
}

/// The digest and count checks every run makes, whatever else it measures.
fn verify(opts: &Opts, w: &Workload, reference: u64, passes: &[Pass], scheduled: u64) -> Verdict {
    let digest = passes[0].digest;
    let mut v = Verdict {
        correct: true,
        notes: vec![format!(
            "digest {digest:016x} over {} passes, serial reference {reference:016x}",
            passes.len()
        )],
    };
    for (i, p) in passes.iter().enumerate() {
        v.check(
            p.digest == digest,
            format!(
                "pass {i} digest {:016x} != pass 0's {digest:016x}",
                p.digest
            ),
        );
        v.check(
            p.consistent,
            format!("pass {i}: a quiescent or final report differs from its first"),
        );
        v.check(
            p.measurements == scheduled,
            format!(
                "pass {i}: {} measurements, schedule holds {scheduled}",
                p.measurements
            ),
        );
        v.check(
            p.converted == p.stats.observations,
            format!(
                "pass {i}: {} converted, engine observed {}",
                p.converted, p.stats.observations
            ),
        );
    }
    v.check(
        digest == reference,
        format!("digest {digest:016x} != serial reference {reference:016x}"),
    );
    if opts.seed == spec::PIN_SEED && !opts.smoke {
        v.check(
            digest == w.pin_seed42,
            format!("digest {digest:016x} != seed-42 pin {:016x}", w.pin_seed42),
        );
    }
    v
}

fn untraced(opts: &Opts, w: &Workload) -> Outcome {
    // Rounds of a set-up phase and a pass phase. Set-up is a metric of
    // its own, so that work moved out of the timed passes into set-up
    // still shows; its samples are spread over the run like the passes'.
    let setup_budget = opts.seconds * spec::SETUP_SHARE;
    let pass_budget = opts.seconds - setup_budget;
    let mut tracer = Tracer::new(false);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let (mut setup_spent, mut pass_spent, mut longest) = (0.0f64, 0.0f64, 0.0f64);
    let mut checked = None;
    let run_started = Instant::now();
    for round in 1..=spec::ROUNDS {
        // What each phase may have used by the end of this round.
        let due = round as f64 / spec::ROUNDS as f64;
        loop {
            let started = Instant::now();
            let inputs = Inputs::assemble(w, opts.seed);
            let study = Study::prepare(&inputs, w.kind, opts.seed);
            let took = started.elapsed().as_secs_f64();
            setup_s.push(took);
            setup_spent += took;
            // While another set-up, at the mean of those so far, still
            // fits the set-ups' share up to this round, make another.
            if setup_spent + setup_spent / setup_s.len() as f64 <= setup_budget * due {
                continue;
            }
            // A pass is started only if one as long as the longest so far
            // would still end inside the passes' share up to this round.
            let mut ran = false;
            while !ran || pass_spent + longest <= pass_budget * due {
                let started = Instant::now();
                passes.push(study.pass(&mut tracer));
                let took = started.elapsed().as_secs_f64();
                pass_spent += took;
                longest = longest.max(took);
                ran = true;
            }
            if round == spec::ROUNDS {
                checked = Some((study.schedule_size(&mut tracer).0, study.reference_digest()));
            }
            break;
        }
    }
    let measured_s = run_started.elapsed().as_secs_f64();
    let (scheduled, reference) = checked.expect("the last round checks");
    let verdict = verify(opts, w, reference, &passes, scheduled);

    let attempted: u64 = passes.iter().map(|p| p.measurements).sum();
    let no_route: u64 = passes.iter().map(|p| p.no_route).sum();
    let late_dropped: u64 = passes.iter().map(|p| p.stats.retire.late_dropped).sum();
    // Each pass yields its own rate and each set-up its own time; the run
    // reports the steady one — see `stats::steady` for why not the plain
    // median.
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.measurements as f64 / p.wall_s)
        .collect();

    let mut v = Values::default();
    v.set("meas_per_s", steady(&rates, false));
    v.set("peak_rss_mb", sys::peak_rss_mib().unwrap_or(f64::NAN));
    v.set("setup_s", steady(&setup_s, true));
    v.set(
        "delivered_frac",
        1.0 - (no_route + late_dropped) as f64 / attempted as f64,
    );
    v.set("digest_ok", if verdict.correct { 1.0 } else { 0.0 });

    let mut notes = verdict.notes;
    notes.push(format!(
        "{} rounds in {measured_s:.1}s: {} set-ups in {setup_spent:.1}s, {} passes of {scheduled} measurements in {pass_spent:.1}s; {no_route} no-route, {late_dropped} late-dropped",
        spec::ROUNDS,
        setup_s.len(),
        passes.len(),
    ));
    let rates: Vec<String> = rates.iter().map(|r| format!("{:.1}", r / 1e3)).collect();
    notes.push(format!("per pass, k meas/s: {}", rates.join(" ")));
    notes.push(format!(
        "every timing: per pass or set-up, then the median of the better half of the {} passes, the {} set-ups",
        passes.len(),
        setup_s.len()
    ));

    Outcome {
        correct: verdict.correct,
        attempted,
        // A late drop is the engine refusing data it was handed; a test
        // without a route is an answer about the simulated Internet.
        failed: late_dropped.min(attempted),
        metrics: v.into_table(&END_TO_END),
        notes,
    }
}

fn traced(opts: &Opts, w: &Workload) -> Outcome {
    let inputs = Inputs::assemble(w, opts.seed);
    let study = Study::prepare(&inputs, w.kind, opts.seed);

    // Untraced and traced passes alternate through half of `--seconds`
    // (the replays take about the other half); the ratio of their steady
    // walls is what keeping the spans costs.
    let mut tracer = Tracer::new(false);
    let mut plain = Vec::new();
    let mut kept = Vec::new();
    let budget = Instant::now();
    let mut longest = 0.0f64;
    while plain.len() < spec::MIN_TRACED_PAIRS
        || budget.elapsed().as_secs_f64() + longest <= opts.seconds / 2.0
    {
        let started = Instant::now();
        tracer.set_keep(false);
        plain.push(study.pass(&mut tracer));
        tracer.set_keep(true);
        kept.push(study.pass(&mut tracer));
        longest = longest.max(started.elapsed().as_secs_f64());
    }
    let ledger = study.ledger(&mut tracer, opts.seed);
    let wall = |ps: &[Pass]| steady(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>(), true);
    let overhead_frac = wall(&kept) / wall(&plain) - 1.0;
    let pass = kept.last().expect("traced passes ran").clone();

    let all: Vec<Pass> = plain.into_iter().chain(kept).collect();
    let mut verdict = verify(opts, w, study.reference_digest(), &all, ledger.scheduled);
    verdict.check(
        ledger.generated == ledger.scheduled,
        format!(
            "generated {} != scheduled {}",
            ledger.generated, ledger.scheduled
        ),
    );
    verdict.check(
        ledger.route_lookups >= ledger.generated,
        format!(
            "{} route lookups for {} tests",
            ledger.route_lookups, ledger.generated
        ),
    );
    verdict.check(
        ledger.conversion.converted == pass.stats.observations,
        format!(
            "replay converted {}, engine observed {}",
            ledger.conversion.converted, pass.stats.observations
        ),
    );
    verdict.check(
        ledger.distinct_paths == pass.stats.interner.distinct_paths,
        format!(
            "replay interned {} paths, engine {}",
            ledger.distinct_paths, pass.stats.interner.distinct_paths
        ),
    );

    let trace_note = match write_trace(opts, w, &tracer) {
        Ok(path) => format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => format!("spans not written: {e}"),
    };
    let traced_pass = tracer
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == "pass")
        .expect("a traced pass was kept");
    let shares: Vec<String> = trace::self_shares(tracer.spans(), traced_pass.id)
        .iter()
        .map(|(name, share)| format!("{name} {:.1}%", share * 100.0))
        .collect();
    let mut metrics = Values::default();
    // Process CPU per measurement over the pass's timed region. Not an
    // end-to-end metric: with the wall unchanged it reads a quarter apart
    // depending on whether the host runs the two threads side by side or
    // in turn on one core.
    let cpu_us: Vec<f64> = all
        .iter()
        .map(|p| p.cpu_s * 1e6 / p.measurements as f64)
        .collect();
    metrics.set("process.cpu_us_per_meas", steady(&cpu_us, true));
    latency_metrics(&mut metrics, &all, &mut verdict.notes);
    let metrics = ledger_metrics(
        metrics,
        &inputs,
        &ledger,
        &pass,
        overhead_frac,
        tracer.spans().len(),
    );
    let mut notes = verdict.notes;
    notes.push(trace_note);
    notes.push(format!("traced pass self time: {}", shares.join(", ")));
    for (m, v) in &metrics {
        if m.name.ends_with("_closure") && !(CLOSURE_BAND.0..=CLOSURE_BAND.1).contains(v) {
            notes.push(format!(
                "unresolved: {} = {v:.3} is outside {CLOSURE_BAND:?}",
                m.name
            ));
        }
    }
    Outcome {
        correct: verdict.correct,
        attempted: all.iter().map(|p| p.measurements).sum(),
        failed: all.iter().map(|p| p.stats.retire.late_dropped).sum(),
        metrics,
        notes,
    }
}

/// Report and snapshot latency over every pass of the traced run: per
/// pass first, then the steady value across passes.
fn latency_metrics(v: &mut Values, passes: &[Pass], notes: &mut Vec<String>) {
    let over_passes =
        |f: &dyn Fn(&Pass) -> f64| steady(&passes.iter().map(f).collect::<Vec<_>>(), true);
    v.set("engine.report_ms", over_passes(&|p| median(&p.report_ms)));
    v.set(
        "engine.snapshot_ms_p50",
        over_passes(&|p| median(p.snapshot_ms())),
    );
    v.set(
        "engine.snapshot_ms_p95",
        over_passes(&|p| supported_percentile(p.snapshot_ms(), 0.95).1),
    );
    let first = &passes[0];
    notes.push(format!(
        "engine.report_ms: per pass the median of {} quiescent snapshot→digest calls, over {} passes",
        first.report_ms.len(),
        passes.len()
    ));
    notes.push(format!(
        "engine.snapshot_ms: per pass {} {} Engine::snapshot() calls; the p95 column is p{:.0}, the highest with {} samples beyond",
        first.snapshot_ms().len(),
        if first.midstream_snapshot_ms.is_empty() { "quiescent" } else { "mid-stream" },
        supported_percentile(first.snapshot_ms(), 0.95).0 * 100.0,
        stats::MIN_BEYOND,
    ));
}

fn ledger_metrics(
    mut v: Values,
    inputs: &Inputs,
    l: &Ledger,
    pass: &Pass,
    overhead_frac: f64,
    spans: usize,
) -> Vec<(Metric, f64)> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let secs = |nanos: u64| nanos as f64 / 1e9;
    let median_or_zero = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    let censor_s = (l.armed_flow_s - l.flow_s).max(0.0);
    let generator_parts = l.lookup_s + l.flow_s + censor_s + l.detect_s + l.schedule_s;
    let shard_busy_s = secs(pass.stats.busy.shard_total_nanos);
    let snapshot_total_s = pass.drain_s + pass.midstream_snapshot_ms.iter().sum::<f64>() / 1e3;
    let inc = pass.stats.incremental;

    v.set("topology.generate_s", inputs.generate_s);
    v.set("topology.n_ases", inputs.world.topology.n_ases() as f64);
    v.set("topology.n_links", inputs.world.topology.n_links() as f64);

    v.set("bgp.route_lookups", l.route_lookups as f64);
    v.set("bgp.cache_hits", l.cache_hits as f64);
    v.set("bgp.cache_misses", l.cache_misses as f64);
    v.set("bgp.cache_evictions", l.cache_evictions as f64);
    v.set(
        "bgp.cache_hit_ratio",
        ratio(l.cache_hits as f64, l.route_lookups as f64),
    );
    v.set("bgp.lookup_s", l.lookup_s);
    v.set(
        "bgp.tree_compute_us_p50",
        median_or_zero(&l.tree_compute_us),
    );
    v.set(
        "bgp.tree_compute_us_p90",
        if l.tree_compute_us.is_empty() {
            0.0
        } else {
            supported_percentile(&l.tree_compute_us, 0.90).1
        },
    );
    v.set("bgp.failed_routes", l.no_route as f64);

    v.set("net.flows", l.flows as f64);
    v.set("net.flow_s", l.flow_s);
    v.set(
        "net.flow_us_per_meas",
        ratio(l.flow_s * 1e6, l.flows as f64),
    );
    v.set(
        "net.packets_per_flow",
        ratio(l.packets as f64, l.flows as f64),
    );
    v.set("censor.armed_flows", l.armed_flows as f64);
    v.set(
        "censor.armed_frac",
        ratio(l.armed_flows as f64, l.flows as f64),
    );
    v.set("censor.busy_s", censor_s);

    v.set("platform.generate_s", l.generate_s);
    v.set(
        "platform.meas_per_s_alone",
        ratio(l.generated as f64, l.generate_s),
    );
    v.set("platform.detect_s", l.detect_s);
    v.set("platform.schedule_s", l.schedule_s);
    v.set("platform.self_s", l.generate_s - generator_parts);
    v.set("platform.collect_s", l.collect_s);

    v.set("core.convert_s", l.convert_s);
    v.set("core.churn_s", l.churn_s);
    v.set("core.converted", l.conversion.converted as f64);
    v.set("core.discarded", l.conversion.total_discarded() as f64);
    v.set("core.conversion_rate", l.conversion.conversion_rate());
    v.set("core.precision", pass.precision);
    v.set("core.recall", pass.recall);

    v.set(
        "engine.meas_per_s_alone",
        ratio(l.generated as f64, l.engine_alone_s),
    );
    v.set("engine.shard_busy_s", shard_busy_s);
    v.set("engine.merge_busy_s", secs(pass.stats.busy.merge_nanos));
    v.set("engine.observations", pass.stats.observations as f64);
    v.set("engine.updates", inc.updates as f64);
    v.set("engine.duplicates", inc.duplicates as f64);
    v.set("engine.duplicate_ratio", inc.duplicate_ratio());
    v.set("engine.direct_updates", inc.direct_updates as f64);
    v.set("engine.resolves", inc.resolves as f64);
    v.set("engine.unsat_skips", inc.unsat_skips as f64);
    v.set("engine.intern_s", l.intern_s);
    v.set("engine.intern_hit_ratio", l.intern_hit_ratio);
    v.set("engine.distinct_paths", l.distinct_paths as f64);
    v.set("engine.observe_s", l.observe_s);
    v.set("engine.feeder_wait_s", l.feeder_wait_s);
    v.set("engine.finish_s", pass.finish_s);
    v.set("engine.canonical_s", pass.canonical_s);
    v.set(
        "engine.windows_retired",
        pass.stats.retire.windows_retired as f64,
    );
    v.set(
        "engine.cells_retired",
        pass.stats.retire.cells_retired as f64,
    );
    v.set("engine.late_dropped", pass.stats.retire.late_dropped as f64);
    v.set("engine.snapshot_total_s", snapshot_total_s);
    v.set("engine.checkpoint_ms", median_or_zero(&pass.checkpoint_ms));
    v.set("engine.restore_ms", median_or_zero(&pass.restore_ms));
    v.set("engine.checkpoint_bytes", pass.checkpoint_bytes as f64);

    v.set("sat.censuses", pass.stats.sat.censuses as f64);
    v.set("sat.census_models", pass.stats.sat.census_models as f64);
    v.set("sat.propagations", pass.stats.sat.propagations as f64);
    v.set("sat.backtracks", pass.stats.sat.backtracks as f64);

    v.set("interop.records", l.interop_records as f64);
    v.set("interop.bytes", l.interop_bytes as f64);
    v.set("interop.parse_s", l.interop_parse_s);
    v.set(
        "interop.mb_per_s",
        ratio(l.interop_bytes as f64 / 1e6, l.interop_parse_s),
    );
    v.set("interop.write_s", l.interop_write_s);
    v.set("interop.malformed", l.interop_malformed as f64);

    v.set(
        "trace.generator_closure",
        ratio(generator_parts, l.generate_s),
    );
    v.set(
        "trace.engine_closure",
        ratio(
            l.convert_s + l.churn_s + l.intern_s + l.observe_s,
            l.alone_shard_busy_s,
        ),
    );
    v.set("trace.overhead_frac", overhead_frac);
    v.set("trace.pass_s", pass.wall_s);
    v.set("trace.spans", spans as f64);

    // Who carried the traced pass, and what carried each side.
    v.set(
        "share.generator_busy",
        ratio(pass.generator_busy_s, pass.total_s),
    );
    v.set("share.shard_busy", ratio(shard_busy_s, pass.total_s));
    v.set("share.route_lookup", ratio(l.lookup_s, l.generate_s));
    v.set("share.flow_synthesis", ratio(l.flow_s, l.generate_s));
    v.set("share.censor", ratio(censor_s, l.generate_s));
    v.set("share.detect", ratio(l.detect_s, l.generate_s));
    v.set("share.convert", ratio(l.convert_s, l.alone_shard_busy_s));
    v.set("share.churn", ratio(l.churn_s, l.alone_shard_busy_s));
    v.set("share.intern", ratio(l.intern_s, l.alone_shard_busy_s));
    v.set("share.observe", ratio(l.observe_s, l.alone_shard_busy_s));
    v.set("share.snapshot", ratio(snapshot_total_s, pass.total_s));
    v.into_table(&PER_LAYER)
}

fn write_trace(opts: &Opts, w: &Workload, tracer: &Tracer) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&opts.trace_dir)?;
    let path = opts.trace_dir.join(format!("{}.trace.json", w.name));
    let doc = json!({
        "workload": w.name,
        "seed": opts.seed,
        "smoke": opts.smoke,
        "spans": serde_json::to_value(tracer.spans()).expect("spans serialize"),
    });
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    file.write_all(
        serde_json::to_string(&doc)
            .expect("a JSON value serializes")
            .as_bytes(),
    )?;
    file.write_all(b"\n")?;
    file.flush()?;
    Ok(path)
}

/// The object the last line of standard output carries.
fn result_json(o: &Outcome) -> Value {
    let metrics: Vec<(String, Value)> = o
        .metrics
        .iter()
        .map(|(m, v)| (m.name.to_string(), json!({"value": *v, "unit": m.unit})))
        .collect();
    json!({
        "correct": o.correct,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": Value::Object(metrics),
    })
}

fn run(opts: &Opts) -> Result<bool, String> {
    let machine = sys::Machine::detect();
    if machine.nproc < 2 && !opts.smoke {
        return Err(format!(
            "this benchmark keeps two threads busy (1 generator/feeder + 1 shard) and will not \
             measure on {} core",
            machine.nproc
        ));
    }
    let w = if opts.smoke {
        opts.workload.smoke()
    } else {
        opts.workload
    };
    let header = json!({
        "workload": w.name,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "threads": spec::THREADS,
        "shards": spec::SHARDS,
        "machine": serde_json::to_value(&machine).expect("machine facts serialize"),
    });
    println!(
        "# {}",
        serde_json::to_string(&header).expect("a JSON value serializes")
    );
    println!("# why: {}", w.why);

    let outcome = if opts.trace {
        traced(opts, &w)
    } else {
        untraced(opts, &w)
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (m, v) in &outcome.metrics {
        println!("{:<28} {:>16.4} {}", m.name, v, m.unit);
    }
    let result = result_json(&outcome);
    if let Some(path) = &opts.out {
        let line = json!({"header": header, "result": result.clone()});
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(
            file,
            "{}",
            serde_json::to_string(&line).expect("a JSON value serializes")
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("a JSON value serializes")
    );
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare(base, change)) => compare::run(&base, &change),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("churnlab-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn smoke(name: &str, trace: bool) -> Opts {
        Opts {
            workload: Workload::by_name(name).expect("a declared workload"),
            seed: 7,
            seconds: 0.5,
            trace,
            smoke: true,
            out: None,
            trace_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/out/smoke").into(),
        }
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let Ok(Command::Run(o)) = parse_args(&args(
            "--workload fused-huge --seed 9 --seconds 12 --trace 1",
        )) else {
            panic!("the contract's arguments parse");
        };
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace, o.smoke),
            ("fused-huge", 9, 12.0, true, false)
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload fused-small --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload fused-small --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args("--workload fused-small --seed 1 --seconds 1")).is_err());
        assert!(matches!(
            parse_args(&args("--compare a b")),
            Ok(Command::Compare(..))
        ));
    }

    /// Every workload, end to end at smoke size: the untraced driver
    /// (set-ups, passes, checkpoint → restore, reference check) emits
    /// exactly the declared end-to-end metrics and passes its own checks.
    #[test]
    fn smoke_untraced_runs_are_correct_and_complete() {
        for w in spec::WORKLOADS {
            let opts = smoke(w.name, false);
            let o = untraced(&opts, &opts.workload.smoke());
            assert!(o.correct, "{}: {:?}", w.name, o.notes);
            assert_eq!(o.failed, 0, "{}", w.name);
            assert!(o.attempted > 0);
            let names: Vec<_> = o.metrics.iter().map(|(m, _)| m.name).collect();
            assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            for (m, v) in &o.metrics {
                assert!(v.is_finite() && *v > 0.0, "{}: {} = {v}", w.name, m.name);
            }
        }
    }

    /// The traced driver at smoke size: the ledger is complete, its
    /// counts agree with the engine's, and the spans land on disk.
    #[test]
    fn smoke_traced_runs_fill_the_ledger() {
        for w in spec::WORKLOADS {
            let opts = smoke(w.name, true);
            let o = traced(&opts, &opts.workload.smoke());
            assert!(o.correct, "{}: {:?}", w.name, o.notes);
            let names: Vec<_> = o.metrics.iter().map(|(m, _)| m.name).collect();
            assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
            let get = |name: &str| {
                o.metrics
                    .iter()
                    .find(|(m, _)| m.name == name)
                    .expect("declared")
                    .1
            };
            assert!(o.metrics.iter().all(|(_, v)| v.is_finite()), "{}", w.name);
            assert_eq!(
                get("bgp.route_lookups"),
                get("bgp.cache_hits") + get("bgp.cache_misses")
            );
            assert_eq!(get("core.converted"), get("engine.observations"));
            assert!(get("net.flows") > 0.0 && get("net.packets_per_flow") > 2.0);
            assert!(get("interop.records") > 0.0 && get("interop.malformed") == 0.0);
            let service = w.kind == spec::Kind::Service;
            assert_eq!(get("engine.checkpoint_bytes") > 0.0, service, "{}", w.name);
            assert_eq!(get("engine.windows_retired") > 0.0, service, "{}", w.name);
        }
    }
}
