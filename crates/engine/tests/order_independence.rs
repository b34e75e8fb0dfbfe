//! The engine's headline guarantee, asserted end to end: feeding the
//! engine a **shuffled** measurement stream produces a serialized
//! [`churnlab_core::report::CanonicalReport`] that is **byte-identical**
//! to the executable specification's (`churnlab_oracle::report`) over
//! the platform runner's order — across seeds, shard counts, churn
//! modes, and concurrent feeders.
//! The first-path ablation is the one exception: it needs each (URL,
//! vantage AS) pair in test order, so it is fed a random interleaving of
//! the per-URL streams, and a shuffled stream is refused loudly.

use churnlab_bgp::{ChurnConfig, Granularity, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::{ChurnMode, PipelineConfig, PipelineResults};
use churnlab_core::report::CanonicalReport;
use churnlab_engine::{Engine, EngineConfig, EngineObs};
use churnlab_platform::{Measurement, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, Asn, GeneratedWorld, WorldConfig, WorldScale};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

struct Study {
    world: GeneratedWorld,
    scenario: CensorshipScenario,
    platform_cfg: PlatformConfig,
    churn_cfg: ChurnConfig,
}

fn study(seed: u64) -> Study {
    let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, seed));
    let mut censor_cfg = CensorConfig::scaled_for(world.topology.countries().len());
    censor_cfg.seed = seed.wrapping_add(2);
    let platform_cfg = PlatformConfig::preset(PlatformScale::Smoke, seed.wrapping_add(1));
    censor_cfg.total_days = platform_cfg.total_days;
    let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
    let churn_cfg = ChurnConfig {
        seed: seed.wrapping_add(3),
        total_days: platform_cfg.total_days,
        ..ChurnConfig::default()
    };
    Study { world, scenario, platform_cfg, churn_cfg }
}

fn measurements(s: &Study) -> (Platform<'_>, Vec<Measurement>) {
    let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
    let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
    let (ms, _) = platform.run_collect_parallel(&sim, 1);
    (platform, ms)
}

/// The specification's report over `ms` in the runner's order.
fn spec(platform: &Platform<'_>, ms: &[Measurement], mode: ChurnMode) -> CanonicalReport {
    let mut cfg = PipelineConfig::paper(platform.config().total_days);
    cfg.churn_mode = mode;
    churnlab_oracle::report(ms, platform.measured_ip2as(), &platform.world().topology, &cfg)
}

fn engine_results(
    platform: &Platform<'_>,
    ms: &[Measurement],
    mode: ChurnMode,
    shards: usize,
) -> PipelineResults {
    let mut cfg = PipelineConfig::paper(platform.config().total_days);
    cfg.churn_mode = mode;
    let engine = Engine::new(platform, EngineConfig::new(cfg).with_shards(shards));
    for m in ms {
        engine.ingest_owned(m.clone());
    }
    engine.finish()
}

/// A seeded random interleaving of `ms`'s per-URL streams, each URL's
/// measurements kept in their (test) order: the arrival orders the
/// first-path ablation accepts.
fn interleave_urls(ms: &[Measurement], seed: u64) -> Vec<Measurement> {
    let mut by_url: BTreeMap<u32, VecDeque<&Measurement>> = BTreeMap::new();
    ms.iter().for_each(|m| by_url.entry(m.url_id).or_default().push_back(m));
    let mut turns: Vec<u32> = ms.iter().map(|m| m.url_id).collect();
    turns.shuffle(&mut StdRng::seed_from_u64(seed));
    turns.iter().map(|u| by_url.get_mut(u).and_then(VecDeque::pop_front).unwrap().clone()).collect()
}

/// `ms` reordered for `mode`: fully shuffled for the Normal engine, a
/// random interleaving of the per-URL streams for the ablation.
fn scrambled(ms: &[Measurement], mode: ChurnMode, seed: u64) -> Vec<Measurement> {
    match mode {
        ChurnMode::Normal => {
            let mut shuffled = ms.to_vec();
            shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
            shuffled
        }
        ChurnMode::FirstPathOnly => interleave_urls(ms, seed),
    }
}

fn canonical_json(r: &PipelineResults) -> String {
    serde_json::to_string(&r.canonical_report()).expect("canonical report serializes")
}

/// The churn store's rows, order-free: a window's hash list is in arrival
/// order, which a shuffle and a merge legitimately change.
fn churn_rows(r: &PipelineResults) -> Vec<(Granularity, Asn, Asn, u32, BTreeSet<u64>, u64)> {
    let rows = r.churn.export_windowed().3;
    rows.into_iter()
        .map(|e| {
            (e.granularity, e.vp, e.dest, e.window, e.hashes.iter().copied().collect(), e.count)
        })
        .collect()
}

/// The satellite acceptance test: shuffled engine ingest is byte-identical
/// to the specification over the runner's order, for several seeds and
/// shard counts — and one shard and three, shuffled apart, leave the
/// same evidence in the churn store row for row (every window's distinct
/// hashes and observation count), which is more than the digest's
/// distributions see.
#[test]
fn shuffled_engine_matches_ordered_pipeline_byte_identically() {
    for seed in [11u64, 23, 47] {
        let s = study(seed);
        let (platform, ms) = measurements(&s);
        let expected = spec(&platform, &ms, ChurnMode::Normal).to_json();
        let mut expected_rows = None;
        for (shards, shuffle_seed) in [(1usize, seed ^ 0xA), (3, seed ^ 0xB)] {
            let mut shuffled = ms.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
            let got = engine_results(&platform, &shuffled, ChurnMode::Normal, shards);
            assert_eq!(
                canonical_json(&got),
                expected,
                "seed {seed}, {shards} shard(s): shuffled engine diverged from the spec"
            );
            let rows = churn_rows(&got);
            assert!(!rows.is_empty(), "the study observes paths");
            assert_eq!(
                &rows,
                expected_rows.get_or_insert_with(|| rows.clone()),
                "seed {seed}, {shards} shard(s): the churn stores hold different evidence"
            );
        }
    }
}

/// The interned-dedup acceptance matrix: scrambled ingest is
/// byte-identical to the specification across shard counts
/// {1, 4, 8} × both churn modes × 3 seeds — a full shuffle for the Normal
/// engine, a random per-URL interleaving for the ablation. This is the
/// end-to-end proof that the id-based data plane — `PathId` dedup masks,
/// group-shared variable spaces, snapshot-resolved report cells — and the
/// ablation's first-path filter change nothing observable, whatever the
/// arrival order or shard layout.
#[test]
fn interned_dedup_matrix_is_byte_identical() {
    for seed in [5u64, 17, 29] {
        let s = study(seed);
        let (platform, ms) = measurements(&s);
        for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
            let expected = spec(&platform, &ms, mode).to_json();
            for shards in [1usize, 4, 8] {
                let scrambled = scrambled(&ms, mode, seed ^ (shards as u64) << 8);
                let got = canonical_json(&engine_results(&platform, &scrambled, mode, shards));
                assert_eq!(
                    got, expected,
                    "seed {seed}, mode {mode:?}, {shards} shard(s): interned engine diverged"
                );
            }
        }
    }
}

/// Repeated snapshots are self-consistent: a second snapshot over the
/// same ingested prefix is byte-identical to the first, and a later
/// snapshot over more data still matches the specification — also
/// proving `PathId`s stay valid across snapshot boundaries as the shard
/// tables keep growing.
#[test]
fn repeated_snapshots_are_stable_in_both_modes() {
    for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
        let s = study(43);
        let (platform, ms) = measurements(&s);
        let mut cfg = PipelineConfig::paper(platform.config().total_days);
        cfg.churn_mode = mode;
        let engine = Engine::new(&platform, EngineConfig::new(cfg).with_shards(2));
        let shuffled = scrambled(&ms, mode, 7);
        let half = shuffled.len() / 2;
        for m in &shuffled[..half] {
            engine.ingest_owned(m.clone());
        }
        let snap1 = canonical_json(&engine.snapshot());
        let snap2 = canonical_json(&engine.snapshot());
        assert_eq!(snap1, snap2, "mode {mode:?}: identical prefix, diverging snapshots");
        for m in &shuffled[half..] {
            engine.ingest_owned(m.clone());
        }
        let full = canonical_json(&engine.finish());
        let expected = spec(&platform, &ms, mode).to_json();
        assert_eq!(full, expected, "mode {mode:?}: post-snapshot ingest diverged from the spec");
    }
}

/// The Figure-4 ablation refuses a stream that breaks its order rule: a
/// shuffle brings some (URL, vantage AS) pair's later test before its
/// first, and the shard that sees it panics, naming the pair and both
/// test orders, which the engine re-raises with the shard id.
#[test]
fn a_shuffled_ablation_stream_is_refused() {
    let s = study(31);
    let (platform, mut ms) = measurements(&s);
    ms.shuffle(&mut StdRng::seed_from_u64(99));
    let run = || engine_results(&platform, &ms, ChurnMode::FirstPathOnly, 2);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("a shuffled ablation stream must panic");
    let text = payload.downcast_ref::<String>().expect("a formatted panic message");
    for part in ["shard worker ", "first-path ablation out of test order: URL ", " vantage AS "] {
        assert!(text.contains(part), "{part:?} missing from {text:?}");
    }
    assert!(text.contains(", before its first path's ("), "{text:?}");
}

/// A worker folds a batch in four passes — convert, intern, churn,
/// observe — timing them apart when instrumented, and a measurement sent
/// on its own is a batch of one through the same code.
/// One study through each gives one digest and one conversion account —
/// the specification's, which converts through the owned-path adapter —
/// in both churn modes, and every instrumented arm counts each
/// measurement once.
#[test]
fn staged_and_direct_ingest_agree_with_the_pipeline() {
    let s = study(23);
    let (platform, ms) = measurements(&s);
    for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
        let reference = spec(&platform, &ms, mode);
        assert!(reference.conversion.total_discarded() > 0, "the study exercises the discard rules");
        for (chunked, instrumented) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut cfg = PipelineConfig::paper(platform.config().total_days);
            cfg.churn_mode = mode;
            let mut cfg = EngineConfig::new(cfg).with_shards(2);
            let registry = churnlab_obs::Registry::new();
            if instrumented {
                cfg = cfg.with_obs(EngineObs::new(registry.clone()));
            }
            let engine = Engine::new(&platform, cfg);
            if chunked {
                let mut feeder = engine.feeder();
                ms.iter().for_each(|m| feeder.ingest_owned(m.clone()));
            } else {
                ms.iter().for_each(|m| engine.ingest_owned(m.clone()));
            }
            let got = engine.finish();
            let arm = format!("{mode:?}, chunked {chunked}, instrumented {instrumented}");
            assert_eq!(got.conversion, reference.conversion, "{arm}");
            assert_eq!(got.canonical_report().digest(), reference.digest(), "{arm}");
            if instrumented {
                let snap = registry.scrape();
                let measured = snap.counter_sum("churnlab_measurements_total");
                assert_eq!(measured, ms.len() as u64, "{arm}");
                // On the real clock: the thread CPU-time clock is exact,
                // so a study this short still reads time in each of a
                // block's four passes, in both arms. (`busy_fallback.rs`
                // holds the wall fallback to the same.)
                for phase in ["convert", "intern", "churn", "observe"] {
                    let nanos: u64 = ["0", "1"]
                        .iter()
                        .filter_map(|shard| {
                            let labels = [("phase", phase), ("shard", *shard)];
                            snap.counter("churnlab_phase_nanos_total", &labels)
                        })
                        .sum();
                    assert!(nanos > 0, "{arm}: no {phase} time on the on-CPU clock");
                }
            }
        }
    }
}

/// Concurrent feeder threads — the multi-vantage regime — agree with the
/// specification too.
#[test]
fn concurrent_feeders_match_pipeline() {
    let s = study(53);
    let (platform, ms) = measurements(&s);
    let expected = spec(&platform, &ms, ChurnMode::Normal).to_json();

    let cfg = PipelineConfig::paper(platform.config().total_days);
    let engine = Engine::new(&platform, EngineConfig::new(cfg).with_shards(2));
    let n_feeders = 4;
    std::thread::scope(|scope| {
        for chunk in ms.chunks(ms.len().div_ceil(n_feeders)) {
            let engine = &engine;
            scope.spawn(move || {
                // Buffering feeder handle: chunked sends, flushed on drop.
                let mut feeder = engine.feeder();
                for m in chunk {
                    feeder.ingest_owned(m.clone());
                }
            });
        }
    });
    let got = canonical_json(&engine.finish());
    assert_eq!(got, expected, "concurrent feeders diverged from the spec");
}

/// The documented snapshot cut semantics around feeder tails, asserted
/// while a feeder is genuinely mid-chunk: a flushed tail is included in
/// the snapshot, an unflushed tail is excluded from it (both the
/// outcomes *and* the conversion counters — conversion is shard state,
/// so the accounting tracks the cut exactly), and dropping the feeder
/// implies a flush.
#[test]
fn snapshot_cut_respects_feeder_tails() {
    let s = study(67);
    let (platform, ms) = measurements(&s);
    let cfg = PipelineConfig::paper(platform.config().total_days);
    let engine = Engine::new(&platform, EngineConfig::new(cfg).with_shards(2));
    let half = ms.len() / 2;

    // A chunk bigger than the stream: nothing ships until we say so.
    let mut feeder = engine.feeder().with_chunk(ms.len() + 1);
    for m in &ms[..half] {
        feeder.ingest_owned(m.clone());
    }
    // Unflushed tail: the cut must be empty.
    let before = engine.snapshot();
    assert_eq!(before.conversion.converted + before.conversion.total_discarded(), 0);
    assert!(before.outcomes.is_empty(), "unflushed tail leaked into the snapshot");

    // Flushed tail: the cut must equal the spec over the same prefix.
    feeder.flush();
    let mid = engine.snapshot();
    let mid_expected = spec(&platform, &ms[..half], ChurnMode::Normal);
    assert_eq!(canonical_json(&mid), mid_expected.to_json());
    assert_eq!(mid.conversion, mid_expected.conversion);

    // Drop implies flush: the rest of the stream arrives via drop alone.
    for m in &ms[half..] {
        feeder.ingest_owned(m.clone());
    }
    drop(feeder);
    let full = engine.finish();
    let full_expected = spec(&platform, &ms, ChurnMode::Normal);
    assert_eq!(canonical_json(&full), full_expected.to_json());
    assert_eq!(full.conversion, full_expected.conversion);
}

/// `snapshot()` mid-stream is a consistent prefix report, and ingestion
/// continues unharmed afterwards.
#[test]
fn snapshot_then_continue() {
    let s = study(7);
    let (platform, ms) = measurements(&s);
    let cfg = PipelineConfig::paper(platform.config().total_days);
    let engine = Engine::new(&platform, EngineConfig::new(cfg.clone()).with_shards(2));
    let half = ms.len() / 2;
    for m in &ms[..half] {
        engine.ingest_owned(m.clone());
    }
    let mid = engine.snapshot();
    // The snapshot equals the spec over the same prefix.
    assert_eq!(canonical_json(&mid), spec(&platform, &ms[..half], ChurnMode::Normal).to_json());
    for m in &ms[half..] {
        engine.ingest_owned(m.clone());
    }
    let full = engine.finish();
    assert_eq!(canonical_json(&full), spec(&platform, &ms, ChurnMode::Normal).to_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized shuffle/shard-count draws on a fixed smoke study.
    #[test]
    fn prop_shuffled_stream_is_canonical(shuffle_seed in any::<u64>(), shards in 1usize..5) {
        let s = study(61);
        let (platform, ms) = measurements(&s);
        let expected = spec(&platform, &ms, ChurnMode::Normal).to_json();
        let mut shuffled = ms.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let got = canonical_json(&engine_results(&platform, &shuffled, ChurnMode::Normal, shards));
        prop_assert_eq!(got, expected);
    }
}
