//! The engine held against the executable specification of §3
//! (`churnlab-oracle`): for a study's measurement set, the engine's
//! canonical report must serialize to the spec's JSON byte for byte.
//! The spec shares no solver, tally, leakage rule or churn store with the
//! engine, so a fault in any of them fails here. The findings tally is
//! also held against the spec's findings fold on its own, over random
//! instances no study makes.

use churnlab_bgp::{ChurnConfig, Granularity, RoutingSim, TimeWindow};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::accumulate::{FindingFacts, FindingsAccumulator, FindingsTally};
use churnlab_core::pipeline::{ChurnMode, PipelineConfig};
use churnlab_core::report::CanonicalReport;
use churnlab_core::{InstanceKey, InstanceOutcome};
use churnlab_engine::campaign::run_fused;
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{AnomalyType, Measurement, Platform, PlatformConfig, PlatformScale};
use churnlab_sat::Solvability;
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{generator, Asn, GeneratedWorld, WorldConfig, WorldScale};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

struct Study {
    world: GeneratedWorld,
    scenario: CensorshipScenario,
    platform_cfg: PlatformConfig,
    churn_cfg: ChurnConfig,
}

/// The study `run_study` assembles for a (scale, seed).
fn study(scale: WorldScale, platform_scale: PlatformScale, seed: u64) -> Study {
    let world = generator::generate(&WorldConfig::preset(scale, seed));
    let mut censor_cfg = CensorConfig::scaled_for(world.topology.countries().len());
    censor_cfg.seed = seed.wrapping_add(2);
    let platform_cfg = PlatformConfig::preset(platform_scale, seed.wrapping_add(1));
    censor_cfg.total_days = platform_cfg.total_days;
    let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
    let churn_cfg = ChurnConfig {
        seed: seed.wrapping_add(3),
        total_days: platform_cfg.total_days,
        ..ChurnConfig::default()
    };
    Study {
        world,
        scenario,
        platform_cfg,
        churn_cfg,
    }
}

fn config(platform: &Platform<'_>, mode: ChurnMode) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(platform.config().total_days);
    cfg.churn_mode = mode;
    cfg
}

/// The spec's canonical report over `ms`.
fn spec(platform: &Platform<'_>, ms: &[Measurement], cfg: &PipelineConfig) -> CanonicalReport {
    churnlab_oracle::report(
        ms,
        platform.measured_ip2as(),
        &platform.world().topology,
        cfg,
    )
}

/// `ms` through an engine of `shards` shards from `feeders` feeder
/// threads, URLs dealt to feeders by id: each (URL, vantage AS) pair
/// arrives in the runner's test order, as the ablation needs, while the
/// URLs' streams interleave however the threads run.
fn engine_json(
    platform: &Platform<'_>,
    ms: &[Measurement],
    cfg: &PipelineConfig,
    shards: usize,
    feeders: u32,
) -> String {
    let engine = Engine::new(platform, EngineConfig::new(cfg.clone()).with_shards(shards));
    std::thread::scope(|scope| {
        for lane in 0..feeders {
            let engine = &engine;
            scope.spawn(move || {
                let mut feeder = engine.feeder();
                for m in ms.iter().filter(|m| m.url_id % feeders == lane) {
                    feeder.ingest_owned(m.clone());
                }
            });
        }
    });
    engine.finish().canonical_report().to_json()
}

/// Smoke, seeds {42, 7, 1234} × both churn modes × shards {1, 4} ×
/// feeders {1, 4}: every engine report is the spec's, byte for byte.
#[test]
fn the_engine_is_the_spec_on_the_smoke_grid() {
    for seed in [42u64, 7, 1234] {
        let s = study(WorldScale::Smoke, PlatformScale::Smoke, seed);
        let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
        let (ms, _) = platform.run_collect_parallel(&sim, 1);
        for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
            let cfg = config(&platform, mode);
            let expected = spec(&platform, &ms, &cfg);
            assert!(
                !expected.censor_findings.is_empty(),
                "seed {seed}: the study names a censor"
            );
            let expected = expected.to_json();
            for shards in [1, 4] {
                for feeders in [1, 4] {
                    assert_eq!(
                        engine_json(&platform, &ms, &cfg, shards, feeders),
                        expected,
                        "seed {seed}, {mode:?}, {shards} shard(s), {feeders} feeder(s)"
                    );
                }
            }
        }
    }
}

/// The product path at Small, seed 42: a one-shard engine fed by the
/// fused campaign on one worker, as `run_study` runs it, in both churn
/// modes (`cargo test --release -p churnlab-engine --test spec --
/// --ignored`).
#[test]
#[ignore = "the Small study, run in release"]
fn a_one_shard_engine_is_the_spec_on_the_small_study() {
    let s = study(WorldScale::Small, PlatformScale::Small, 42);
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let (ms, _) = platform.run_collect_parallel(&sim, 1);
    for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
        let cfg = config(&platform, mode);
        let engine = Engine::new(&platform, EngineConfig::new(cfg.clone()).with_shards(1));
        let run = run_fused(&platform, &sim, &engine, 1);
        assert_eq!(run.stats.measurements, ms.len() as u64);
        let got = engine.finish().canonical_report().to_json();
        assert_eq!(got, spec(&platform, &ms, &cfg).to_json(), "{mode:?}");
    }
}

/// ASes 1–11 registered in three countries; AS 12 in none.
fn country_of(a: Asn) -> Option<CountryCode> {
    (a.0 < 12).then(|| CountryCode::new(["DE", "PL", "FR"][a.0 as usize % 3]))
}

/// An analysed instance and its censored paths.
type Instance = (InstanceOutcome, Vec<Vec<Asn>>);

/// One analysed instance and its censored paths: ASes 1–12 each a
/// definite censor, eliminated, or neither, on paths drawn from them.
fn instance() -> impl Strategy<Value = Instance> {
    let key = (0u32..3, 0usize..AnomalyType::ALL.len(), 0u32..3);
    let paths = vec(
        vec(1u32..13, 1..7).prop_map(|p| p.into_iter().map(Asn).collect()),
        0..4,
    );
    (key, vec(0u8..3, 12), paths, any::<bool>()).prop_map(|(key, roles, paths, unique)| {
        let (url_id, anomaly, window) = key;
        let with = |role| {
            (1..=12)
                .filter(|&a| roles[a as usize - 1] == role)
                .map(Asn)
                .collect()
        };
        let outcome = InstanceOutcome {
            key: InstanceKey {
                url_id,
                anomaly: AnomalyType::ALL[anomaly],
                window: TimeWindow {
                    granularity: Granularity::Week,
                    index: window,
                },
            },
            n_vars: 12,
            n_observations: paths.len(),
            n_positive: paths.len(),
            solvability: if unique {
                Solvability::Unique
            } else {
                Solvability::Multiple
            },
            bucket: if unique { 1 } else { 2 },
            censors: with(1),
            potential_censors: Vec::new(),
            eliminated: with(2),
            eliminated_frac: 0.0,
        };
        (outcome, paths)
    })
}

/// A findings union in the spec's sorted form, less the horizon.
fn sorted(findings: &FindingsAccumulator) -> churnlab_oracle::Findings {
    fn sets<T: Ord + Clone>(m: &HashMap<Asn, HashSet<T>>) -> BTreeMap<Asn, BTreeSet<T>> {
        m.iter()
            .map(|(k, v)| (*k, v.iter().cloned().collect()))
            .collect()
    }
    churnlab_oracle::Findings {
        censors: findings
            .censor_findings
            .iter()
            .map(|(a, f)| (*a, f.clone()))
            .collect(),
        victims: sets(&findings.leakage.victims_by_censor),
        victim_countries: sets(&findings.leakage.victim_countries_by_censor),
    }
}

/// Counting contributions in and out leaves, after every step, what the
/// spec's findings fold of the instances of every group still in gives:
/// random groups of instances (findings that repeat across groups, leaks
/// reached along several paths, a victim whose country is the censor's
/// and one of no country), each added any number of times and removed in
/// random order.
fn tally_materializes_the_spec_fold(groups: Vec<Vec<Instance>>, ops: Vec<(bool, usize)>) {
    let contributions: Vec<FindingFacts> = groups
        .iter()
        .map(|group| {
            let mut facts = FindingFacts::default();
            for (outcome, paths) in group {
                facts.record(outcome, paths.iter().map(Vec::as_slice), country_of);
            }
            facts
        })
        .collect();
    let mut tally = FindingsTally::default();
    let mut held: Vec<usize> = Vec::new();
    for (add, i) in ops {
        if add || held.is_empty() {
            let i = i % contributions.len();
            tally.add(&contributions[i]);
            held.push(i);
        } else {
            tally.remove(&contributions[held.swap_remove(i % held.len())]);
        }
        let instances = held.iter().flat_map(|&i| &groups[i]);
        let cells = instances.map(|(outcome, paths)| (outcome, paths.iter().map(Vec::as_slice)));
        assert_eq!(
            sorted(&tally.materialize()),
            churnlab_oracle::findings(cells, country_of)
        );
    }
    for i in held {
        tally.remove(&contributions[i]);
    }
    assert_eq!(
        tally.materialize(),
        FindingsAccumulator::new(),
        "nothing counted is left"
    );
}

fn groups() -> impl Strategy<Value = Vec<Vec<Instance>>> {
    vec(vec(instance(), 0..5), 1..6)
}

fn ops() -> impl Strategy<Value = Vec<(bool, usize)>> {
    vec((any::<bool>(), 0usize..64), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// See [`tally_materializes_the_spec_fold`].
    #[test]
    fn prop_tally_materializes_the_spec_fold(groups in groups(), ops in ops()) {
        tally_materializes_the_spec_fold(groups, ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// [`prop_tally_materializes_the_spec_fold`] at 20,000 cases (`cargo
    /// test --release -p churnlab-engine --test spec -- --ignored`).
    #[test]
    #[ignore = "20,000 cases, run in release"]
    fn prop_tally_materializes_the_spec_fold_20k(groups in groups(), ops in ops()) {
        tally_materializes_the_spec_fold(groups, ops);
    }
}
