//! `bench experiments` — regenerates every table and figure from the
//! paper's evaluation, plus the two design-choice ablations that extend
//! them.
//!
//! ```text
//! bench experiments [--scale smoke|small|paper] [--seed N] [--out DIR] \
//!       [table1|fig1a|fig1b|fig2|fig3|fig4|table2|table3|fig5|validate|all
//!        |ablation-churn|ablation-granularity]
//! ```
//!
//! Each paper command prints the paper-style rows/series and (when
//! `--out` is given) writes machine-readable JSON next to them; `all`
//! runs the ten of them over one assembled study. The command word is
//! checked before the world is assembled, so a typo costs nothing.
//!
//! The ablations are analysis programs over their own fixed Smoke
//! worlds (they ignore `--scale`/`--seed`): `ablation-churn` turns
//! Figure 4's churn on/off contrast into a dose-response curve, and
//! `ablation-granularity` shows why coarse windows lose solvability.

use crate::cli::{Args, Flag, Kind, Sub, SCALES, SEED};
use crate::{gate, Bench};
use churnlab_bgp::{ChurnConfig, Granularity, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::{ChurnMode, PipelineConfig, PipelineResults};
use churnlab_core::report::CensorshipReport;
use churnlab_core::validate::validate;
use churnlab_engine::campaign::run_fused;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{AnomalyType, DatasetStats, NoiseConfig, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, WorldConfig, WorldScale};
use serde_json::json;
use std::collections::HashSet;
use std::process::ExitCode;

/// What a command word runs.
#[derive(Clone, Copy)]
enum Command {
    /// One table or figure over the assembled study; `all` runs each.
    Paper(fn(&Run)),
    /// A standalone analysis program over its own worlds.
    Ablation(fn()),
}

const COMMANDS: [(&str, Command); 12] = [
    ("table1", Command::Paper(table1)),
    ("fig1a", Command::Paper(fig1a)),
    ("fig1b", Command::Paper(fig1b)),
    ("fig2", Command::Paper(fig2)),
    ("fig3", Command::Paper(fig3)),
    ("fig4", Command::Paper(fig4)),
    ("table2", Command::Paper(table2)),
    ("table3", Command::Paper(table3)),
    ("fig5", Command::Paper(fig5)),
    ("validate", Command::Paper(validation)),
    ("ablation-churn", Command::Ablation(ablation_churn)),
    ("ablation-granularity", Command::Ablation(ablation_granularity)),
];

/// The command words: `all`, then [`COMMANDS`]' own — read off the table
/// so the parser's list cannot drift from the dispatch.
const COMMAND_NAMES: [&str; COMMANDS.len() + 1] = {
    let mut names = ["all"; COMMANDS.len() + 1];
    let mut i = 0;
    while i < COMMANDS.len() {
        names[i + 1] = COMMANDS[i].0;
        i += 1;
    }
    names
};

/// `bench experiments`.
pub const SUB: Sub = Sub {
    name: "experiments",
    about: "regenerate the paper's tables and figures, and the two ablations",
    flags: &[
        Flag::new("--scale", SCALES, "small", "study scale"),
        SEED,
        Flag::new("--out", Kind::Text, "", "directory for one JSON file per table/figure"),
    ],
    positional: Some(Flag::new("COMMAND", Kind::Choice(&COMMAND_NAMES), "all", "what to regenerate")),
    rules: &[],
    run,
};

struct Run {
    bench: Bench,
    dataset: DatasetStats,
    results: PipelineResults,
    seed: u64,
    out: Option<String>,
}

impl Run {
    fn assemble(args: &Args) -> Run {
        let (scale, seed) = (args.scale().expect("--scale has a default"), args.req("--seed"));
        eprintln!("[experiments] assembling world (scale {scale:?}, seed {seed})…");
        let bench = Bench::assemble(scale, seed);
        eprintln!(
            "[experiments] world: {} ASes, {} links, {} countries; {} true censors",
            bench.world.topology.n_ases(),
            bench.world.topology.n_links(),
            bench.world.topology.countries().len(),
            bench.scenario.censoring_asns().len(),
        );
        eprintln!("[experiments] running measurement campaign + engine…");
        let t0 = std::time::Instant::now();
        let (dataset, results) = bench.run(PipelineConfig::paper(bench.platform_cfg.total_days));
        eprintln!(
            "[experiments] {} measurements in {:.1}s",
            dataset.measurements,
            t0.elapsed().as_secs_f64()
        );
        Run { bench, dataset, results, seed, out: args.text("--out").map(str::to_string) }
    }

    fn write_json(&self, name: &str, value: &impl serde::Serialize) {
        if let Some(dir) = &self.out {
            std::fs::create_dir_all(dir).expect("create output dir");
            gate::write_report("experiments", Some(&format!("{dir}/{name}.json")), value);
        }
    }
}

fn table1(run: &Run) {
    println!("== Table 1: dataset characteristics ==");
    println!("{}", run.dataset.render_table1("simulated year (2016-05 ~ 2017-05)"));
    run.write_json("table1", &run.dataset);
}

fn fig1a(run: &Run) {
    println!("== Figure 1a: #solutions by CNF granularity ==");
    println!("{:<8} {:>8} {:>8} {:>8}", "gran", "0", "1", "2+");
    let mut rows = vec![];
    for g in Granularity::SUB_YEAR {
        let f = run.results.solvability_fractions(Some(g), None);
        println!("{:<8} {:>8.3} {:>8.3} {:>8.3}", g.label(), f[0], f[1], f[2]);
        rows.push(json!({"granularity": g.label(), "unsat": f[0], "unique": f[1], "multiple": f[2]}));
    }
    let overall = run.results.solvability_fractions(None, None);
    println!(
        "overall: {:.1}% unique, {:.1}% no-solution, {:.1}% multiple (paper: ~92% / <6% / ~3%)",
        overall[1] * 100.0,
        overall[0] * 100.0,
        overall[2] * 100.0
    );
    run.write_json("fig1a", &json!({"rows": rows, "overall": {"unsat": overall[0], "unique": overall[1], "multiple": overall[2]}}));
}

fn fig1b(run: &Run) {
    println!("== Figure 1b: #solutions by anomaly type ==");
    println!("{:<8} {:>8} {:>8} {:>8}", "anomaly", "0", "1", "2+");
    let mut rows = vec![];
    let mut order = AnomalyType::ALL.to_vec();
    order.sort_by_key(|a| a.label()); // paper legend order: block dns rst seq ttl
    for a in order {
        let f = run.results.solvability_fractions(None, Some(a));
        println!("{:<8} {:>8.3} {:>8.3} {:>8.3}", a.label(), f[0], f[1], f[2]);
        rows.push(json!({"anomaly": a.label(), "unsat": f[0], "unique": f[1], "multiple": f[2]}));
    }
    run.write_json("fig1b", &json!({ "rows": rows }));
}

fn fig2(run: &Run) {
    println!("== Figure 2: CDF of candidate-set reduction (2+-solution CNFs) ==");
    let values = run.results.reduction_values();
    if values.is_empty() {
        println!("(no multi-solution CNFs)");
        return;
    }
    let pct = |q: f64| values[(q * (values.len() - 1) as f64).round() as usize] * 100.0;
    println!("CNFs with 2+ solutions : {}", values.len());
    println!("mean reduction         : {:.1}%  (paper: 95.2%)", run.results.mean_reduction().unwrap_or(0.0) * 100.0);
    println!("median reduction       : {:.1}%  (paper: ~90% at CDF 0.5)", pct(0.5));
    let zero = values.iter().filter(|v| **v == 0.0).count() as f64 / values.len() as f64;
    println!("fraction eliminating 0 : {:.1}%  (paper: ~20%)", zero * 100.0);
    println!("cdf: percentile -> reduction");
    for q in [0.1f64, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        println!("  p{:<3.0} -> {:>6.1}%", q * 100.0, pct(q));
    }
    run.write_json("fig2", &json!({
        "n": values.len(),
        "mean": run.results.mean_reduction(),
        "zero_fraction": zero,
        "values": values,
    }));
}

fn fig3(run: &Run) {
    println!("== Figure 3: distinct paths per (src,dst) pair over time windows ==");
    let dists = run.results.churn.distributions(&Granularity::ALL);
    println!("{:<8} {:>8} {:>8} {:>8} {:>8} {:>8}  {:>10}", "window", "1", "2", "3", "4", "5+", "churn%");
    let mut rows = vec![];
    for d in &dists {
        let total = d.total.max(1) as f64;
        let fr: Vec<f64> = d.buckets.iter().map(|b| *b as f64 / total).collect();
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}  {:>9.1}%",
            d.granularity.label(), fr[0], fr[1], fr[2], fr[3], fr[4],
            d.churn_fraction() * 100.0
        );
        rows.push(json!({
            "granularity": d.granularity.label(),
            "buckets": d.buckets,
            "total": d.total,
            "churn_fraction": d.churn_fraction(),
        }));
    }
    println!("(paper: 25% day, 30% week, 38% month, 67% year; 35% of pairs see 5+ paths/year)");
    let by_class =
        run.results.churn.churn_by_dest_class(&run.bench.world.topology, Granularity::Year);
    println!("churn by destination class (year): {}",
        by_class.iter().map(|(c, f)| format!("{c}={:.0}%", f * 100.0)).collect::<Vec<_>>().join("  "));
    run.write_json("fig3", &json!({"rows": rows, "by_dest_class": by_class.iter().map(|(c, f)| json!({"class": c.label(), "churn": f})).collect::<Vec<_>>()}));
}

fn fig4(run: &Run) {
    println!("== Figure 4: #solutions without path churn (first-path-only ablation) ==");
    let mut cfg = PipelineConfig::paper(run.bench.platform_cfg.total_days);
    cfg.churn_mode = ChurnMode::FirstPathOnly;
    let (_, ablated) = run.bench.run(cfg);
    println!("{:<10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}", "gran", "0", "1", "2", "3", "4", "5+");
    let mut rows = vec![];
    for g in Granularity::SUB_YEAR {
        let f = ablated.bucket_fractions(Some(g));
        println!(
            "{:<10} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            g.label(), f[0], f[1], f[2], f[3], f[4], f[5]
        );
        rows.push(json!({"granularity": g.label(), "buckets": f}));
    }
    let overall = ablated.bucket_fractions(None);
    let with_churn = run.results.bucket_fractions(None);
    println!(
        "5+-solution CNFs: {:.1}% without churn vs {:.1}% with churn (paper: ~80% vs <1%)",
        overall[5] * 100.0,
        with_churn[5] * 100.0
    );
    run.write_json("fig4", &json!({"rows": rows, "overall_5plus": overall[5], "with_churn_5plus": with_churn[5], "seed": run.seed}));
}

fn table2(run: &Run) {
    println!("== Table 2: regions with most censoring ASes ==");
    let report = CensorshipReport::assemble(&run.results, &run.bench.world.topology);
    print!("{}", report.render_table2(8));
    println!(
        "total: {} censoring ASes in {} countries (paper: 65 in 30)",
        report.n_censors, report.n_countries
    );
    run.write_json("table2", &report.regions);
}

fn table3(run: &Run) {
    println!("== Table 3: censoring ASes with the largest leaks ==");
    let report = CensorshipReport::assemble(&run.results, &run.bench.world.topology);
    print!("{}", report.render_table3(5));
    println!(
        "censors leaking to other ASes: {} ; to other countries: {} (paper: 32 ; 24)",
        report.leaking_to_ases, report.leaking_to_countries
    );
    run.write_json("table3", &json!({
        "top": report.top_leakers.iter().map(|(a, c, n_as, n_c)| json!({
            "asn": a.0, "country": c, "leaks_as": n_as, "leaks_country": n_c
        })).collect::<Vec<_>>(),
        "leaking_to_ases": report.leaking_to_ases,
        "leaking_to_countries": report.leaking_to_countries,
    }));
}

fn fig5(run: &Run) {
    println!("== Figure 5: flow of censorship (country-level leak edges) ==");
    let report = CensorshipReport::assemble(&run.results, &run.bench.world.topology);
    print!("{}", report.render_flow(15));
    run.write_json("fig5", &report.country_flow);
}

fn validation(run: &Run) {
    println!("== Ground-truth validation (simulation-only extra) ==");
    let identified: HashSet<_> = run.results.censor_findings.keys().copied().collect();
    let v = validate(&identified, &run.bench.scenario, &run.results.on_censored_path, |a| {
        run.bench.world.public_asn(a)
    });
    println!("identified censors      : {}", v.identified);
    println!("true positives          : {}", v.true_positives);
    println!("false positives         : {}", v.false_positives);
    println!("ground-truth censors    : {}", v.true_censors);
    println!("observable censors      : {}", v.observable_censors);
    println!("precision               : {:.3}", v.precision);
    println!("recall                  : {:.3}", v.recall);
    println!("observable recall       : {:.3}", v.observable_recall);
    println!(
        "conversion: {} converted, {:?} discarded by rule (rate {:.1}%)",
        run.results.conversion.converted,
        run.results.conversion.discarded,
        run.results.conversion.conversion_rate() * 100.0
    );
    run.write_json("validation", &v);
}

/// One study through a one-shard engine — the ablations' unit of work.
fn study(
    world_cfg: &WorldConfig,
    censor_cfg: &CensorConfig,
    platform_cfg: PlatformConfig,
    churn_cfg: ChurnConfig,
) -> PipelineResults {
    let world = generator::generate(world_cfg);
    let scenario = CensorshipScenario::generate(&world.topology, censor_cfg);
    let total_days = platform_cfg.total_days;
    let platform = Platform::new(&world, &scenario, platform_cfg);
    let sim = RoutingSim::new(&world.topology, &churn_cfg);
    let cfg = EngineConfig::new(PipelineConfig::paper(total_days)).with_shards(1);
    let engine = Engine::new(&platform, cfg);
    run_fused(&platform, &sim, &engine, 1);
    engine.finish()
}

/// CNF solvability as a function of the churn dial: every edge link's
/// flap rate is scaled by a multiplier and the solvability census, the
/// mean candidate-set reduction and the measured per-day churn fraction
/// are reported per setting.
///
/// What to expect: with a calibrated fleet — multi-exit providers plus
/// full-fleet sweeps — the *unique* fraction is largely
/// churn-insensitive, because cross-vantage coverage already exonerates
/// most candidates. Churn acts on the residual: the multiple-solution
/// mass shrinks as the dial rises (the under-determined CNFs are exactly
/// the ones whose candidates only an alternate path can eliminate),
/// while the unsatisfiable mass grows (instability injects rule-4
/// discards and flip-flop contradictions).
fn ablation_churn() {
    println!("== Ablation: solvability vs churn scale ==");
    println!(
        "{:>11} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "churn_scale", "unique%", "unsat%", "multi%", "reduction%", "day-churn%"
    );
    for scale in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut wcfg = WorldConfig::preset(WorldScale::Smoke, 11);
        wcfg.churn_scale = scale;
        let mut ccfg = CensorConfig::scaled_for(wcfg.n_countries);
        ccfg.total_days = 60;
        ccfg.policy_change_prob = 0.0;
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 12);
        let total_days = pcfg.total_days;
        // TE shifts are part of churn: scale them with the dial too.
        let churn =
            ChurnConfig { total_days, te_shift_per_day: 0.02 * scale, ..ChurnConfig::default() };
        let results = study(&wcfg, &ccfg, pcfg, churn);
        let f = results.solvability_fractions(None, None);
        let churn_frac =
            results.churn.distributions(&[Granularity::Day])[0].churn_fraction();
        println!(
            "{:>11.2} {:>9.1}% {:>9.1}% {:>9.1}% {:>11.1}% {:>11.1}%",
            scale,
            f[1] * 100.0,
            f[0] * 100.0,
            f[2] * 100.0,
            results.mean_reduction().unwrap_or(0.0) * 100.0,
            churn_frac * 100.0,
        );
    }
    println!(
        "\nexpected: multi% falls as churn_scale rises (churn eliminates the\n\
         residual under-determined CNFs); unsat% rises with instability;\n\
         unique% stays near-flat because fleet coverage dominates at this\n\
         density."
    );
}

/// Why coarse windows lose solvability. The paper attributes unsolvable
/// CNFs at coarse granularities to policy changes landing inside the
/// window (§3.2, Figure 1a); this sweeps the policy-change probability
/// and reports the UNSAT fraction per granularity: day windows should
/// stay solvable while month/year windows degrade as more censors flip
/// policies mid-period.
fn ablation_granularity() {
    println!("== Ablation: UNSAT fraction vs policy-change probability ==");
    println!("{:>12} {:>10} {:>10} {:>10} {:>10}", "change_prob", "day", "week", "month", "year");
    for change_prob in [0.0, 0.25, 0.5, 1.0] {
        let wcfg = WorldConfig::preset(WorldScale::Smoke, 17);
        let mut ccfg = CensorConfig::scaled_for(wcfg.n_countries);
        // A long-enough period that month windows can straddle changes.
        ccfg.total_days = 120;
        ccfg.policy_change_prob = change_prob;
        let mut pcfg = PlatformConfig::preset(PlatformScale::Smoke, 18);
        pcfg.total_days = 120;
        pcfg.tests_per_pair = 16;
        // Noise off: isolate the policy-change effect.
        pcfg.noise = NoiseConfig::none();
        let churn = ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() };
        let results = study(&wcfg, &ccfg, pcfg, churn);
        let unsat = |g| results.solvability_fractions(Some(g), None)[0] * 100.0;
        println!(
            "{:>12.2} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
            change_prob,
            unsat(Granularity::Day),
            unsat(Granularity::Week),
            unsat(Granularity::Month),
            unsat(Granularity::Year),
        );
    }
    println!("\nexpected: UNSAT grows with window size and change probability.");
}

fn run(args: &Args) -> ExitCode {
    let wanted = args.text("COMMAND").expect("COMMAND has a default");
    let mut study = None; // assembled once, and only if a paper command runs
    for (name, command) in COMMANDS {
        match command {
            Command::Paper(paper) if wanted == name || wanted == "all" => {
                println!();
                paper(study.get_or_insert_with(|| Run::assemble(args)));
            }
            Command::Ablation(ablation) if wanted == name => ablation(),
            _ => {}
        }
    }
    ExitCode::SUCCESS
}
