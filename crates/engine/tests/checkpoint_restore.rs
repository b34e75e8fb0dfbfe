//! Checkpoint/restore acceptance: an engine checkpointed mid-stream,
//! torn down, restored in a "new process" (a fresh engine built only
//! from the checkpoint bytes), and fed the rest of the stream produces a
//! [`churnlab_core::report::CanonicalReport`] **byte-identical** to the
//! uninterrupted run's — across shard counts, seeds, churn modes, with
//! retirement active, and with unflushed feeder tails at the cut.

use std::io::Cursor;
use std::ops::Range;

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::{ChurnMode, Pipeline, PipelineConfig, PipelineResults};
use churnlab_engine::{Engine, EngineConfig, EngineObs, RestoreError};
use churnlab_obs::{Registry, SampleValue};
use churnlab_platform::{Measurement, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{fnv1a, generator, GeneratedWorld, WorldConfig, WorldScale};
use rand::rngs::StdRng;
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

fn engine_cfg(
    platform: &Platform<'_>,
    mode: ChurnMode,
    shards: usize,
    horizon: Option<u32>,
) -> EngineConfig {
    let mut cfg = PipelineConfig::paper(platform.config().total_days);
    cfg.churn_mode = mode;
    let mut ecfg = EngineConfig::new(cfg).with_shards(shards);
    ecfg.window_horizon = horizon;
    ecfg
}

fn canonical_json(r: &PipelineResults) -> String {
    serde_json::to_string(&r.canonical_report()).expect("canonical report serializes")
}

/// Where the sections of a checkpoint sit (the layout `ckpt.rs`
/// documents), for an engine with a horizon that never compacted.
struct Layout {
    /// The caller's own: reserved word, cursor, user blob.
    payload: Range<usize>,
    /// The configuration echo: pipeline config, shard count, horizon.
    echo: Range<usize>,
    /// The engine's retired state, the one section version 1 carries
    /// without a checksum: churn tallies, fold frontier, drained findings
    /// (empty), trivial count.
    unguarded: Range<usize>,
    /// Each retired churn tally's 48 bytes: five buckets, then the total.
    tallies: Vec<Range<usize>>,
    /// Each shard's blob, between its length prefix and its checksum.
    blobs: Vec<Range<usize>>,
}

fn layout(blob: &[u8], user: &[u8], shards: usize) -> Layout {
    let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
    let payload = 12..16 + 8 + 8 + user.len();
    let echo = payload.end..payload.end + 8 + u64_at(payload.end) + 4 + 5;
    const ROW: usize = 1 + 4 + 6 * 8; // granularity, destination, tally
    let rows = echo.end + 8;
    let tallies =
        (0..u64_at(echo.end)).map(|r| rows + r * ROW + 5..rows + (r + 1) * ROW).collect();
    let mut at = rows + u64_at(echo.end) * ROW + 4; // the rows, the frontier
    for _ in 0..4 {
        assert_eq!(u64_at(at), 0, "this engine never compacted: no drained findings");
        at += 8;
    }
    let unguarded = echo.end..at + 8; // ..., trivial count
    let mut blobs = Vec::new();
    let mut at = unguarded.end;
    for _ in 0..shards {
        let blob = at + 8..at + 8 + u64_at(at); // length prefix, blob
        at = blob.end + 8; // checksum
        blobs.push(blob);
    }
    assert_eq!(at, blob.len(), "the shard blobs end the file");
    Layout { payload, echo, unguarded, tallies, blobs }
}

/// Run the whole stream through one engine, no interruption.
fn uninterrupted(
    platform: &Platform<'_>,
    s: &Study,
    ms: &[Measurement],
    cfg: EngineConfig,
) -> String {
    let engine = Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg);
    for m in ms {
        engine.ingest_owned(m.clone());
    }
    canonical_json(&engine.finish())
}

/// Run the stream with a checkpoint/teardown/restore at `cut`, flushing
/// everything before the checkpoint.
fn interrupted(
    platform: &Platform<'_>,
    s: &Study,
    ms: &[Measurement],
    cfg: EngineConfig,
    cut: usize,
) -> String {
    let mut blob = Vec::new();
    {
        let engine =
            Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg.clone());
        for m in &ms[..cut] {
            engine.ingest_owned(m.clone());
        }
        engine
            .checkpoint(cut as u64, b"import-state", &mut blob)
            .expect("checkpoint to a Vec cannot fail");
        // Engine drops here: the "process" dies.
    }
    let restored =
        Engine::restore(platform.measured_ip2as(), &s.world.topology, cfg, &mut Cursor::new(&blob))
            .expect("restore");
    assert_eq!(restored.cursor, cut as u64);
    assert_eq!(restored.user, b"import-state");
    for m in &ms[restored.cursor as usize..] {
        restored.engine.ingest_owned(m.clone());
    }
    canonical_json(&restored.engine.finish())
}

/// The headline acceptance matrix: shards {1, 4} × 3 seeds × both churn
/// modes, checkpoint at mid-stream, digest byte-identical.
#[test]
fn checkpoint_restore_continue_is_digest_identical() {
    for seed in [11u64, 23, 47] {
        let s = study(seed);
        let (platform, ms) = measurements(&s);
        let cut = ms.len() / 2;
        for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
            for shards in [1usize, 4] {
                let cfg = engine_cfg(&platform, mode, shards, None);
                let expected = uninterrupted(&platform, &s, &ms, cfg.clone());
                let got = interrupted(&platform, &s, &ms, cfg, cut);
                assert_eq!(
                    got, expected,
                    "seed {seed} mode {mode:?} shards {shards}: restore diverged"
                );
            }
        }
    }
}

/// Same matrix point but with retirement active across the checkpoint: a
/// day-sorted stream and a small horizon so windows genuinely retire on
/// both sides of the cut, including retired-but-undrained cells, folded
/// churn state and the ablation's first paths that must survive the
/// round trip — in both churn modes.
#[test]
fn checkpoint_with_retirement_is_digest_identical() {
    for seed in [11u64, 23] {
        let s = study(seed);
        let (platform, mut ms) = measurements(&s);
        ms.sort_by_key(|m| m.day);
        for mode in [ChurnMode::Normal, ChurnMode::FirstPathOnly] {
            for shards in [1usize, 4] {
                let cfg = engine_cfg(&platform, mode, shards, Some(2));
                let expected = uninterrupted(&platform, &s, &ms, cfg.clone());
                for cut in [ms.len() / 4, ms.len() / 2, ms.len() * 3 / 4] {
                    let cut = cut.clamp(1, ms.len() - 1);
                    let got = interrupted(&platform, &s, &ms, cfg.clone(), cut);
                    assert_eq!(
                        got, expected,
                        "seed {seed} {mode:?} shards {shards} cut {cut}: retirement restore diverged"
                    );
                }
            }
        }
    }
}

/// A horizon wider than the whole stream retires nothing and must be
/// byte-identical to the no-horizon engine — the "off by default" proof.
#[test]
fn horizon_wider_than_stream_changes_nothing() {
    let s = study(31);
    let (platform, ms) = measurements(&s);
    let base = engine_cfg(&platform, ChurnMode::Normal, 2, None);
    let wide = engine_cfg(&platform, ChurnMode::Normal, 2, Some(10_000));
    assert_eq!(
        uninterrupted(&platform, &s, &ms, wide),
        uninterrupted(&platform, &s, &ms, base),
        "a never-triggering horizon must reproduce the no-retirement digest"
    );
}

/// The ablation under a horizon wider than the stream is the batch
/// pipeline's ablation, byte for byte: the first-path filter in front of
/// a retiring engine answers what the pipeline's filter does.
#[test]
fn ablation_under_a_wide_horizon_is_the_pipelines() {
    let s = study(31);
    let (platform, ms) = measurements(&s);
    let wide = engine_cfg(&platform, ChurnMode::FirstPathOnly, 2, Some(10_000));
    let mut pipeline = Pipeline::new(&platform, wide.pipeline.clone());
    ms.iter().for_each(|m| pipeline.ingest(m));
    assert_eq!(uninterrupted(&platform, &s, &ms, wide), canonical_json(&pipeline.finish()));
}

/// Checkpointing with unflushed feeder tails: the caller takes the tail,
/// checkpoints, and re-ingests the tail after restore — the documented
/// cut protocol — and the digest still matches the uninterrupted run.
#[test]
fn checkpoint_with_unflushed_feeder_tails() {
    let s = study(59);
    let (platform, ms) = measurements(&s);
    let cfg = engine_cfg(&platform, ChurnMode::Normal, 3, None);
    let expected = uninterrupted(&platform, &s, &ms, cfg.clone());

    // The engine has shipped `[..shipped]`; the feeder still holds
    // `[shipped..cut]` (its chunk is larger than that span, so nothing
    // ever flushed). The checkpoint cursor excludes the pending tail.
    let shipped = ms.len() / 3;
    let cut = shipped + shipped / 2;
    let mut blob = Vec::new();
    let tail: Vec<Measurement>;
    {
        let engine =
            Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg.clone());
        for m in &ms[..shipped] {
            engine.ingest_owned(m.clone());
        }
        let mut feeder = engine.feeder().with_chunk(ms.len());
        for m in &ms[shipped..cut] {
            feeder.ingest_owned(m.clone());
        }
        tail = feeder.take_pending();
        assert_eq!(tail.len(), cut - shipped, "the whole span must still be pending");
        engine.checkpoint(shipped as u64, &[], &mut blob).expect("checkpoint");
    }
    let restored =
        Engine::restore(platform.measured_ip2as(), &s.world.topology, cfg, &mut Cursor::new(&blob))
            .expect("restore");
    let mut feeder = restored.engine.feeder();
    for m in &tail {
        feeder.ingest_owned(m.clone());
    }
    for m in &ms[cut..] {
        feeder.ingest_owned(m.clone());
    }
    drop(feeder);
    assert_eq!(canonical_json(&restored.engine.finish()), expected);
}

/// Restoring into a different shard count is refused loudly — path ids
/// and URL routing are shard-local, so a silent reshard would corrupt.
#[test]
fn restore_into_different_shard_count_is_a_loud_error() {
    let s = study(71);
    let (platform, ms) = measurements(&s);
    let cfg = engine_cfg(&platform, ChurnMode::Normal, 2, None);
    let mut blob = Vec::new();
    {
        let engine =
            Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg.clone());
        for m in &ms[..ms.len() / 2] {
            engine.ingest_owned(m.clone());
        }
        engine.checkpoint(0, &[], &mut blob).expect("checkpoint");
    }
    let mut wrong = cfg.clone();
    wrong.shards = 3;
    let err = Engine::restore(
        platform.measured_ip2as(),
        &s.world.topology,
        wrong,
        &mut Cursor::new(&blob),
    )
    .err()
    .expect("resharding a checkpoint must fail");
    match &err {
        RestoreError::Mismatch(msg) => {
            assert!(msg.contains("2 shards"), "unhelpful message: {msg}");
            assert!(msg.contains('3'), "unhelpful message: {msg}");
        }
        other => panic!("expected Mismatch, got {other:?}"),
    }

    // A different pipeline configuration is refused too.
    let mut other_cfg = cfg.clone();
    other_cfg.pipeline.churn_mode = ChurnMode::FirstPathOnly;
    let err = Engine::restore(
        platform.measured_ip2as(),
        &s.world.topology,
        other_cfg,
        &mut Cursor::new(&blob),
    )
    .err()
    .expect("config drift must fail");
    assert!(matches!(err, RestoreError::Mismatch(_)), "got {err:?}");

    // And corrupt bytes are refused, not misparsed.
    let mut torn = blob.clone();
    torn.truncate(torn.len() / 2);
    let err = Engine::restore(
        platform.measured_ip2as(),
        &s.world.topology,
        cfg.clone(),
        &mut Cursor::new(&torn),
    )
    .err()
    .expect("truncated checkpoint must fail");
    assert!(matches!(err, RestoreError::Corrupt(_)), "got {err:?}");

    let mut garbage = blob;
    garbage[0] ^= 0xFF;
    let err =
        Engine::restore(platform.measured_ip2as(), &s.world.topology, cfg, &mut Cursor::new(&garbage))
            .err()
            .expect("bad magic must fail");
    assert!(matches!(err, RestoreError::Corrupt(_)), "got {err:?}");
}

/// Checkpoint bytes are deterministic: checkpointing the same logical
/// state twice yields identical bytes, and checkpointing a restored
/// engine reproduces the original checkpoint.
#[test]
fn checkpoint_bytes_are_deterministic() {
    let s = study(83);
    let (platform, mut ms) = measurements(&s);
    ms.sort_by_key(|m| m.day);
    let cfg = engine_cfg(&platform, ChurnMode::Normal, 2, Some(3));
    let engine = Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg.clone());
    for m in &ms[..ms.len() / 2] {
        engine.ingest_owned(m.clone());
    }
    let (mut a, mut b) = (Vec::new(), Vec::new());
    engine.checkpoint(7, b"x", &mut a).expect("checkpoint");
    engine.checkpoint(7, b"x", &mut b).expect("checkpoint");
    assert_eq!(a, b, "same state, same bytes");

    let restored =
        Engine::restore(platform.measured_ip2as(), &s.world.topology, cfg, &mut Cursor::new(&a))
            .expect("restore");
    let mut again = Vec::new();
    restored.engine.checkpoint(7, b"x", &mut again).expect("checkpoint");
    assert_eq!(again, a, "restore → checkpoint must reproduce the original bytes");
}

/// The checkpoint format, pinned by name: FNV-1a of one mid-stream blob
/// (seed-42 Smoke study in day order, two shards, horizon 7, one feeder —
/// so the watermark, and with it what has retired, is a function of the
/// input). A change to what `encode` writes fails here rather than as a
/// resumed digest somewhere downstream. The layout predates the group's
/// shared observation log; the value last moved when the engine's
/// re-solve became closed form and stopped calling the SAT census: ten
/// bytes changed — shard 0's `censuses` (47 → 0) and `census_models`
/// (59 → 0) counters and that shard's checksum — at the same length.
#[test]
fn checkpoint_blob_is_pinned() {
    let s = study(42);
    let (platform, mut ms) = measurements(&s);
    ms.sort_by_key(|m| m.day);
    let cfg = engine_cfg(&platform, ChurnMode::Normal, 2, Some(7));
    let engine = Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg);
    let cut = ms.len() / 2;
    let mut feeder = engine.feeder();
    ms[..cut].iter().for_each(|m| feeder.ingest_owned(m.clone()));
    drop(feeder);
    let mut blob = Vec::new();
    engine.checkpoint(cut as u64, b"pin", &mut blob).expect("checkpoint");
    let fnv = blob.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    });
    assert_eq!(
        (blob.len(), format!("{fnv:016x}")),
        (275_136, "63a904daa4ed1404".to_string()),
        "the checkpoint bytes moved: bump `VERSION` or restore the encoding"
    );
}

/// [`Engine::compact`] drains retired per-cell outcomes without losing
/// anything: drained outcomes plus the final report's outcomes equal the
/// uninterrupted outcome set, and every aggregate (censors, leakage,
/// churn, trivial count — i.e. the canonical digest minus the outcome
/// list) is unchanged.
#[test]
fn compact_drains_outcomes_but_keeps_aggregates_exact() {
    let s = study(97);
    let (platform, mut ms) = measurements(&s);
    ms.sort_by_key(|m| m.day);
    let cfg = engine_cfg(&platform, ChurnMode::Normal, 2, Some(2));

    let full = {
        let engine =
            Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg.clone());
        for m in &ms {
            engine.ingest_owned(m.clone());
        }
        engine.finish()
    };

    let engine = Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg);
    let mut drained = Vec::new();
    let mut drained_trivial = 0u64;
    for (i, m) in ms.iter().enumerate() {
        engine.ingest_owned(m.clone());
        if i % (ms.len() / 4).max(1) == 0 {
            let c = engine.compact();
            drained.extend(c.outcomes);
            drained_trivial += c.trivial;
        }
    }
    let compacted = engine.finish();
    assert!(!drained.is_empty(), "test needs the compactions to drain something");

    let mut combined = drained;
    combined.extend(compacted.outcomes.iter().cloned());
    combined.sort_by_key(|o| o.key);
    let mut expected = full.outcomes.clone();
    expected.sort_by_key(|o| o.key);
    assert_eq!(
        serde_json::to_string(&combined).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "drained + remaining outcomes must equal the uninterrupted outcome set"
    );
    // Drained trivial cells fold back into the engine's persistent
    // retired state, so the final report's trivial count already
    // includes them — the canonical comparison below proves it. The
    // returned count just reports what each drain carried.
    let _ = drained_trivial;

    // Aggregates: compare full canonical reports with the outcome lists
    // equalized, proving everything else is byte-identical.
    let mut full_eq = full;
    let mut compacted_eq = compacted;
    compacted_eq.outcomes = expected.clone();
    full_eq.outcomes = expected;
    assert_eq!(
        canonical_json(&compacted_eq),
        canonical_json(&full_eq),
        "compaction must not change censors, leakage, churn, or trivial counts"
    );
}

/// Restore fuzz (ROADMAP 4b) over a real mid-stream checkpoint, taken
/// from an engine with retirement active and warm report caches.
///
/// * A clean restore's first snapshot — every cache cold — equals the
///   checkpointing engine's last one, served warm.
/// * Every truncation is a [`RestoreError`].
/// * Every single-bit flip in what the format guards — magic, version,
///   the configuration echo (pipeline config, shard count, horizon) and
///   the checksummed shard blobs, over 99% of the bytes — is a
///   [`RestoreError`].
/// * The engine's retired state is the one section version 1 of the
///   format carries without a checksum. Decoding checks what its encoder
///   guarantees instead — rows and lists strictly ascending, each churn
///   tally's buckets summing to its total — so every single-bit flip
///   inside a tally is a [`RestoreError`] too. A flip elsewhere in the
///   section can still restore to different state; closing that needs a
///   format bump.
/// * A flip in the caller's own payload (cursor, user blob) or the
///   reserved word restores the engine state intact.
/// * Nothing panics, wherever the flip lands — the shard blobs decode
///   while their checksums are verified, so decoding a flipped blob must
///   fail cleanly too.
#[test]
fn restore_fuzz_truncations_and_bit_flips_never_panic() {
    let s = study(29);
    let (platform, mut ms) = measurements(&s);
    ms.sort_by_key(|m| m.day);
    let cfg = engine_cfg(&platform, ChurnMode::Normal, 2, Some(3));
    let user = b"fuzz";
    let mut blob = Vec::new();
    let warm = {
        let engine =
            Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg.clone());
        let half = ms.len() / 2;
        for (i, m) in ms[..half].iter().enumerate() {
            engine.ingest_owned(m.clone());
            if i % (half / 4) == 0 {
                let _ = engine.snapshot();
            }
        }
        let warm = canonical_json(&engine.snapshot());
        engine.checkpoint(half as u64, user, &mut blob).expect("checkpoint");
        warm
    };
    let restore = |bytes: &[u8]| {
        Engine::restore(
            platform.measured_ip2as(),
            &s.world.topology,
            cfg.clone(),
            &mut Cursor::new(bytes),
        )
    };
    let clean = restore(&blob).expect("clean restore");
    assert_eq!(
        canonical_json(&clean.engine.snapshot()),
        warm,
        "a restored engine's first (cold) snapshot must equal the last warm one"
    );
    drop(clean);

    let Layout { payload, echo, unguarded, tallies, .. } = layout(&blob, user, 2);
    assert!(!tallies.is_empty(), "the snapshots must have folded churn windows");
    assert!(unguarded.end * 100 < blob.len(), "the shard blobs are the bulk of the bytes");

    let lens = (0..unguarded.end + 64).chain((0..blob.len()).step_by(4099));
    for len in lens.chain(blob.len() - 64..blob.len()) {
        assert!(restore(&blob[..len]).is_err(), "truncation to {len} bytes restored");
    }

    let mut flipped = blob.clone();
    for at in tallies.into_iter().flatten() {
        for bit in 0..8 {
            flipped[at] ^= 1 << bit;
            assert!(restore(&flipped).is_err(), "flipping bit {bit} of tally byte {at} restored");
            flipped[at] ^= 1 << bit;
        }
    }

    let mut rng = StdRng::seed_from_u64(0xf1);
    let positions = (0..echo.end)
        .chain(unguarded.clone().step_by(13))
        .map(|at| (at, at % 8))
        .chain((0..400).map(|_| (rng.gen_range(unguarded.end..blob.len()), rng.gen_range(0..8))))
        .chain((blob.len() - 16..blob.len()).map(|at| (at, 7 - at % 8)));
    for (at, bit) in positions {
        flipped[at] ^= 1 << bit;
        match restore(&flipped) {
            Err(_) => assert!(
                !(12..16).contains(&at) && !(16..24).contains(&at),
                "a reserved or cursor bit (byte {at}) cannot make a checkpoint unreadable"
            ),
            Ok(restored) => {
                assert!(
                    payload.contains(&at) || unguarded.contains(&at),
                    "flipping bit {bit} of guarded byte {at} went unnoticed"
                );
                if payload.contains(&at) {
                    assert_eq!(canonical_json(&restored.engine.snapshot()), warm);
                }
            }
        }
        flipped[at] ^= 1 << bit;
    }
}

/// Restore checks the shard blobs' checksums on a second thread while
/// it decodes them, and still reports what a serial restore reports:
/// shard by shard, a blob's checksum mismatch before its decode error,
/// and trailing bytes only once every shard has restored.
#[test]
fn restore_reports_errors_in_serial_order() {
    let s = study(31);
    let (platform, mut ms) = measurements(&s);
    ms.sort_by_key(|m| m.day);
    let cfg = engine_cfg(&platform, ChurnMode::Normal, 2, Some(3));
    let engine = Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg.clone());
    for m in &ms[..ms.len() / 2] {
        engine.ingest_owned(m.clone());
    }
    let mut blob = Vec::new();
    engine.checkpoint(1, b"", &mut blob).expect("checkpoint");
    drop(engine);
    let restore_err = |bytes: &[u8]| {
        let restored = Engine::restore(
            platform.measured_ip2as(),
            &s.world.topology,
            cfg.clone(),
            &mut Cursor::new(bytes),
        );
        restored.err().expect("a damaged checkpoint does not restore").to_string()
    };
    let shard1 = layout(&blob, b"", 2).blobs[1].clone();

    let mut flipped = blob.clone();
    flipped[shard1.start + shard1.len() / 2] ^= 0x10;
    assert_eq!(restore_err(&flipped), "corrupt checkpoint: shard 1 blob checksum mismatch");

    // Shard 1's blob with a byte its decoder does not expect after it,
    // framed and checksummed as if it were whole.
    let mut bad = blob[shard1.clone()].to_vec();
    bad.push(0);
    let mut reframed = blob[..shard1.start - 8].to_vec();
    reframed.extend((bad.len() as u64).to_le_bytes());
    reframed.extend(&bad);
    reframed.extend(fnv1a(bad.iter().copied()).to_le_bytes());
    assert_eq!(
        restore_err(&reframed),
        "corrupt checkpoint: shard 1: 1 trailing bytes after checkpoint body"
    );

    let mut trailing = blob.clone();
    trailing.push(0);
    assert_eq!(
        restore_err(&trailing),
        "corrupt checkpoint: 1 trailing bytes after checkpoint body"
    );
}

/// An engine with observability attached times every checkpoint and
/// every successful restore, in histograms beside the snapshot's.
#[test]
fn checkpoint_and_restore_are_timed() {
    let s = study(37);
    let (platform, ms) = measurements(&s);
    let registry = Registry::new();
    let cfg = engine_cfg(&platform, ChurnMode::Normal, 2, None)
        .with_obs(EngineObs::new(registry.clone()));
    let engine = Engine::with_context(platform.measured_ip2as(), &s.world.topology, cfg.clone());
    for m in &ms[..ms.len() / 2] {
        engine.ingest_owned(m.clone());
    }
    let mut blob = Vec::new();
    engine.checkpoint(0, b"", &mut Vec::new()).expect("checkpoint");
    engine.checkpoint(0, b"", &mut blob).expect("checkpoint");
    drop(engine);
    let restore = |bytes: &[u8]| {
        let db = platform.measured_ip2as();
        Engine::restore(db, &s.world.topology, cfg.clone(), &mut Cursor::new(bytes))
    };
    assert!(restore(&blob[..blob.len() - 1]).is_err());
    drop(restore(&blob).expect("restore"));
    let observed = |name: &str| {
        let snap = registry.scrape();
        match snap.samples.iter().find(|s| s.name == name).map(|s| &s.value) {
            Some(SampleValue::Histogram(h)) => (h.count, h.sum > 0),
            other => panic!("{name} is not a histogram: {other:?}"),
        }
    };
    assert_eq!(observed("churnlab_checkpoint_nanos"), (2, true));
    assert_eq!(observed("churnlab_restore_nanos"), (1, true), "a failed restore is not timed");
}
