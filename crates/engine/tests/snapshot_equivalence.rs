//! Snapshots are served from caches — solved cells kept per (URL ×
//! window) group, retired groups shared by pointer, findings folded once
//! per group — and every cache is derived state. The proof that none of
//! it can be observed: over a seeded random schedule of cuts, every
//! `snapshot().canonical_report()` of a long-lived engine is
//! **byte-identical** to the report of a fresh engine fed the same
//! prefix and asked once. The schedule exercises each way a cache can go
//! stale or cold: back-to-back snapshots (everything reused), a cut right
//! after a retirement (groups moved between lists), after `compact()`
//! (retired caches drained), and after checkpoint → drop → restore
//! (every cache gone). And because a report *shares* those caches — its
//! outcomes and churn windows are the shard's own allocations — one cut's
//! report is held to the end of the script and must still read as the
//! batch pipeline's over its prefix, whatever the engine did afterwards.

use std::io::Cursor;
use std::sync::Arc;

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::pipeline::{ChurnMode, Pipeline, PipelineConfig, PipelineResults};
use churnlab_engine::{Engine, EngineConfig};
use churnlab_platform::{Measurement, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, GeneratedWorld, WorldConfig, WorldScale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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
    let mut platform_cfg = PlatformConfig::preset(PlatformScale::Smoke, seed.wrapping_add(1));
    // Half the Smoke corpus: every cut replays its prefix through a
    // fresh engine, so the suite's cost is quadratic in the stream.
    platform_cfg.n_urls = 8;
    censor_cfg.total_days = platform_cfg.total_days;
    let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
    let churn_cfg = ChurnConfig {
        seed: seed.wrapping_add(3),
        total_days: platform_cfg.total_days,
        ..ChurnConfig::default()
    };
    Study { world, scenario, platform_cfg, churn_cfg }
}

fn canonical_json(r: &PipelineResults) -> String {
    serde_json::to_string(&r.canonical_report()).expect("canonical report serializes")
}

/// What happens at a cut, before the snapshot that is checked.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Nothing: a plain mid-stream snapshot.
    Snapshot,
    /// A second snapshot straight after the first — nothing arrived in
    /// between, so every group is reused.
    SnapshotAgain,
    /// `compact()` first: the retired groups leave the shards.
    Compact,
    /// Checkpoint, drop the engine, restore: every cache starts cold.
    Restore,
    /// Keep this cut's report while the script runs on — more ingest,
    /// retirement, compaction, checkpoint → restore — and read it again
    /// at the end: a report is frozen when it is handed out.
    Hold,
}

const OPS: [Op; 5] = [Op::Snapshot, Op::SnapshotAgain, Op::Compact, Op::Restore, Op::Hold];

/// Cut positions and what to do at each: every op at least once, two
/// cuts placed right after the first measurement of a new day (in a
/// day-sorted stream that is where the watermark moves and windows
/// retire), the rest uniformly random.
fn schedule(ms: &[Measurement], rng: &mut StdRng) -> Vec<(usize, Op)> {
    let day_starts: Vec<usize> = (1..ms.len())
        .filter(|&i| ms[i].day > ms[i - 1].day && ms[i].day > 12)
        .map(|i| i + 1)
        .collect();
    let mut cuts: Vec<usize> = (0..OPS.len() + 1).map(|_| rng.gen_range(1..ms.len())).collect();
    cuts.extend((0..2).filter_map(|_| day_starts.choose(rng)));
    cuts.sort_unstable();
    cuts.dedup();
    // The zip below drops whatever has no cut to run at.
    assert!(cuts.len() >= OPS.len(), "{} cuts for {} ops", cuts.len(), OPS.len());
    let mut ops: Vec<Op> = OPS.to_vec();
    while ops.len() < cuts.len() {
        ops.push(OPS[rng.gen_range(0..OPS.len())]);
    }
    ops.shuffle(rng);
    cuts.into_iter().zip(ops).collect()
}

struct Case<'a> {
    platform: &'a Platform<'a>,
    study: &'a Study,
    ms: &'a [Measurement],
    cfg: EngineConfig,
    label: String,
}

impl<'a> Case<'a> {
    fn fresh(&self) -> Engine<'a> {
        Engine::with_context(
            self.platform.measured_ip2as(),
            &self.study.world.topology,
            self.cfg.clone(),
        )
    }

    /// The oracle: a fresh engine fed `ms[..cut]` and asked once.
    fn oracle(&self, cut: usize) -> String {
        let engine = self.fresh();
        for m in &self.ms[..cut] {
            engine.ingest_owned(m.clone());
        }
        canonical_json(&engine.finish())
    }

    /// The batch pipeline's report of `ms[..cut]`, regrouped by URL in
    /// the runner's test order as its contract asks.
    fn batch(&self, cut: usize) -> String {
        let mut prefix: Vec<&Measurement> = self.ms[..cut].iter().collect();
        prefix.sort_by_key(|m| (m.url_id, m.day, m.vp_id, m.epoch));
        let mut pipeline = Pipeline::with_context(
            self.platform.measured_ip2as(),
            &self.study.world.topology,
            self.cfg.pipeline.clone(),
        );
        for m in prefix {
            pipeline.ingest(m);
        }
        canonical_json(&pipeline.finish())
    }

    /// `engine`'s snapshot with the outcomes `compact()` drained added
    /// back: a compacted engine stops re-listing them by design, and
    /// every aggregate must still count them.
    fn snapshot(&self, engine: &Engine<'_>, drained: &[Arc<InstanceOutcome>]) -> PipelineResults {
        let mut snap = engine.snapshot();
        snap.outcomes.extend(drained.iter().cloned());
        snap
    }

    /// `engine`'s snapshot must equal the oracle's report of the same
    /// prefix.
    fn check(&self, engine: &Engine<'_>, drained: &[Arc<InstanceOutcome>], cut: usize, what: &str) {
        let snap = self.snapshot(engine, drained);
        assert_eq!(
            canonical_json(&snap),
            self.oracle(cut),
            "{}: snapshot at {cut} ({what}) differs from a fresh engine fed the same prefix",
            self.label,
        );
    }

    fn run(&self, rng: &mut StdRng) {
        let mut engine = self.fresh();
        let mut drained: Vec<Arc<InstanceOutcome>> = Vec::new();
        let mut held: Vec<(usize, PipelineResults)> = Vec::new();
        let mut fed = 0;
        for (cut, op) in schedule(self.ms, rng) {
            {
                let mut feeder = engine.feeder();
                for m in &self.ms[fed..cut] {
                    feeder.ingest_owned(m.clone());
                }
            }
            fed = cut;
            match op {
                Op::Snapshot => {}
                Op::SnapshotAgain => self.check(&engine, &drained, cut, "first of two"),
                Op::Compact => drained.extend(engine.compact().outcomes),
                Op::Hold => held.push((cut, self.snapshot(&engine, &drained))),
                Op::Restore => {
                    let mut blob = Vec::new();
                    engine.checkpoint(cut as u64, &[], &mut blob).expect("checkpoint to memory");
                    drop(engine);
                    engine = Engine::restore(
                        self.platform.measured_ip2as(),
                        &self.study.world.topology,
                        self.cfg.clone(),
                        &mut Cursor::new(&blob),
                    )
                    .expect("a checkpoint this test just wrote restores")
                    .engine;
                }
            }
            self.check(&engine, &drained, cut, &format!("{op:?}"));
        }
        for m in &self.ms[fed..] {
            engine.ingest_owned(m.clone());
        }
        let mut last = engine.finish();
        last.outcomes.extend(drained);
        assert_eq!(
            canonical_json(&last),
            self.oracle(self.ms.len()),
            "{}: the final report differs",
            self.label
        );
        for (cut, snap) in held {
            assert_eq!(
                canonical_json(&snap),
                self.batch(cut),
                "{}: the report held since {cut} no longer equals the batch pipeline's",
                self.label
            );
        }
    }
}

/// Shards {1, 4} × horizon {None, 7} × 3 seeds × both churn modes (the
/// first-path ablation cannot retire, so it runs without a horizon).
#[test]
fn every_snapshot_equals_a_fresh_engine_fed_the_same_prefix() {
    for seed in [5u64, 19, 41] {
        let s = study(seed);
        let platform = Platform::new(&s.world, &s.scenario, s.platform_cfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &s.churn_cfg);
        let (mut ms, _) = platform.run_collect_parallel(&sim, 1);
        // A live deployment's stream: the watermark advances, so a
        // horizon actually retires windows.
        ms.sort_by_key(|m| m.day);
        for (mode, horizon) in [
            (ChurnMode::Normal, None),
            (ChurnMode::Normal, Some(7)),
            (ChurnMode::FirstPathOnly, None),
        ] {
            for shards in [1usize, 4] {
                let mut pipeline = PipelineConfig::paper(platform.config().total_days);
                pipeline.churn_mode = mode;
                let mut cfg = EngineConfig::new(pipeline).with_shards(shards);
                cfg.window_horizon = horizon;
                let case = Case {
                    platform: &platform,
                    study: &s,
                    ms: &ms,
                    cfg,
                    label: format!("seed {seed} {mode:?} horizon {horizon:?} shards {shards}"),
                };
                let mut rng = StdRng::seed_from_u64(seed ^ (shards as u64) << 8);
                case.run(&mut rng);
            }
        }
    }
}
