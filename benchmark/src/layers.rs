//! Every call into the product crates lives here: assembling a study,
//! the three ways a workload drives the wire, the serial reference, and
//! the traced run's replays of each layer's public functions over the
//! inputs the workload itself generated.

use crate::spec::{
    Kind, Workload, CHECKPOINT_CUTS, INTEROP_RECORDS, REPORTS_PER_PASS, SERVICE_HORIZON_DAYS,
    SHARDS, SNAPSHOT_EVERY, THREADS, TRACE_BATCH,
};
use crate::sys::process_cpu_secs;
use crate::trace::Tracer;
use churnlab_bgp::{ChurnConfig, RouteTree, RoutingSim, TimeWindow, TreeScratch};
use churnlab_censor::{
    ActiveCensor, CensorConfig, CensorshipScenario, CompiledCensor, TestContext,
};
use churnlab_core::pipeline::{PipelineConfig, PipelineResults};
use churnlab_core::validate::validate;
use churnlab_core::{ChurnAccumulator, ConversionStats, ConvertedObs};
use churnlab_engine::{
    campaign, thread_cpu_nanos, Engine, EngineConfig, EngineStats, IncrementalStats, InstanceGroup,
    PathTable, SolveScratch,
};
use churnlab_interop::jsonl::import_native_line;
use churnlab_interop::{write_jsonl, ImportStats, NativeRecord};
use churnlab_net::{
    Capture, DnsMessage, FlowConfig, FlowOutcome, FlowSimulator, HopPath, HttpRequest,
    HttpResponse, OnPathObserver,
};
use churnlab_platform::{detect, Measurement, Platform, PlatformConfig};
use churnlab_topology::{generator, Asn, GeneratedWorld, WorldConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Seed of the fixed part of every study; see [`Inputs`].
const STUDY_SEED: u64 = crate::spec::PIN_SEED;

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn millis(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// World, ground truth and configs of one study.
///
/// The world, the censors and the platform (URL corpus, vantage fleet,
/// per-test draws) are the repository's usual seed-42 study — world 42,
/// platform 43, censors 44, as its other harnesses derive them. The
/// run's seed `s` moves what may move without making a different
/// workload of it: the routing churn (`s + 3`, so seed 42 is that same
/// study whole) and the order a replay is fed in. Measured across
/// worlds, the cost of one measurement itself differs by a quarter —
/// how many censors sit on how many paths — which is ten workloads, not
/// ten samples of one.
pub struct Inputs {
    pub world: GeneratedWorld,
    pub scenario: CensorshipScenario,
    pub platform_cfg: PlatformConfig,
    pub churn_cfg: ChurnConfig,
    /// Seconds `generator::generate` took.
    pub generate_s: f64,
}

impl Inputs {
    pub fn assemble(w: &Workload, seed: u64) -> Inputs {
        let world_cfg = WorldConfig::preset(w.world, STUDY_SEED);
        let mut platform_cfg = PlatformConfig::preset(w.platform, STUDY_SEED + 1);
        platform_cfg.n_urls = w.n_urls;
        platform_cfg.total_days = w.total_days;
        platform_cfg.tests_per_pair = w.tests_per_pair;
        // The trimmed period is too short for the Huge preset's
        // every-pair coverage floor; the rotation itself is unchanged.
        platform_cfg.tests_per_pair_floor = 0;
        let started = Instant::now();
        let world = generator::generate(&world_cfg);
        let generate_s = started.elapsed().as_secs_f64();
        let mut censor_cfg = CensorConfig::scaled_for(world_cfg.n_countries);
        censor_cfg.seed = STUDY_SEED + 2;
        censor_cfg.total_days = platform_cfg.total_days;
        let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
        let churn_cfg = ChurnConfig {
            seed: seed.wrapping_add(3),
            total_days: platform_cfg.total_days,
            ..ChurnConfig::default()
        };
        Inputs {
            world,
            scenario,
            platform_cfg,
            churn_cfg,
            generate_s,
        }
    }

    /// A cold routing simulator over this world.
    fn sim(&self) -> RoutingSim<'_> {
        RoutingSim::with_cache_capacity(
            &self.world.topology,
            &self.churn_cfg,
            self.world.config.tree_cache_capacity,
        )
    }

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig::paper(self.platform_cfg.total_days)
    }
}

/// An assembled platform plus, for the workloads that bypass the
/// generator, the collected measurement stream in feeding order.
pub struct Study<'a> {
    pub inputs: &'a Inputs,
    pub platform: Platform<'a>,
    pub kind: Kind,
    pub stream: Vec<Measurement>,
    /// Seconds `run_collect_parallel` took (0 when nothing is collected).
    pub collect_s: f64,
}

impl<'a> Study<'a> {
    pub fn prepare(inputs: &'a Inputs, kind: Kind, seed: u64) -> Study<'a> {
        let platform = Platform::new(&inputs.world, &inputs.scenario, inputs.platform_cfg.clone());
        let mut stream = Vec::new();
        let mut collect_s = 0.0;
        if kind != Kind::Fused {
            let started = Instant::now();
            // One collector thread, like the generator of a fused pass:
            // two on a two-core host time the scheduler, not the set-up.
            stream = platform.run_collect_parallel(&inputs.sim(), THREADS).0;
            collect_s = started.elapsed().as_secs_f64();
        }
        match kind {
            Kind::Fused => {}
            // Arrival order carries no structure the engine could lean on.
            Kind::Replay => stream.shuffle(&mut StdRng::seed_from_u64(seed)),
            // A live feed: day by day, every URL's tests of that day.
            Kind::Service => stream.sort_by_key(|m| (m.day, m.url_id, m.vp_id, m.epoch)),
        }
        Study {
            inputs,
            platform,
            kind,
            stream,
            collect_s,
        }
    }

    fn engine_cfg(&self) -> EngineConfig {
        let cfg = EngineConfig::new(self.inputs.pipeline()).with_shards(SHARDS);
        match self.kind {
            Kind::Service => cfg.with_window_horizon(SERVICE_HORIZON_DAYS),
            Kind::Fused | Kind::Replay => cfg,
        }
    }

    /// Measurements the platform's schedule holds: every URL's testing
    /// days × that day's vantage subset × tests per testing day. Also the
    /// replay of the schedule layer, so it reports its seconds.
    pub fn schedule_size(&self, t: &mut Tracer) -> (u64, f64) {
        let cfg = self.platform.config();
        let interval = cfg.testing_interval_days();
        assert_eq!(
            cfg.total_days % interval,
            0,
            "workload sizes keep every URL's testing-day count independent of its phase"
        );
        let span = t.enter("platform.schedule");
        let schedule = self.platform.fleet_schedule();
        let mut day_vps = Vec::new();
        let mut tests = 0u64;
        for url in self.platform.corpus().entries() {
            let plan = schedule.plan_for_url(url.id);
            for day_index in 0..cfg.total_days / interval {
                plan.day_subset_into(day_index, &mut day_vps);
                tests += day_vps.len() as u64 * u64::from(cfg.tests_per_testing_day.max(1));
            }
        }
        (tests, secs(t.exit(span, tests)))
    }

    /// Serial `Platform::run` into a one-shard, non-retiring engine: the
    /// digest every pass of every workload kind must reproduce.
    pub fn reference_digest(&self) -> u64 {
        let sim = self.inputs.sim();
        let engine = Engine::new(
            &self.platform,
            EngineConfig::new(self.inputs.pipeline()).with_shards(1),
        );
        self.platform.run(&sim, |m| engine.ingest_owned(m));
        engine.finish().canonical_report().digest()
    }
}

/// One timed pass: the stream end to end, then the quiescent reports and
/// the shutdown.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Pass start → the first digest of the whole stream in hand.
    pub wall_s: f64,
    /// Process CPU over the same region (wall where `/proc` is absent).
    pub cpu_s: f64,
    /// The whole pass: the timed region, the quiescent reports, shutdown.
    pub total_s: f64,
    pub measurements: u64,
    /// Tests whose vantage point had no route to the server.
    pub no_route: u64,
    pub digest: u64,
    /// Every later report of this pass — the quiescent ones and
    /// `finish`'s — reproduced `digest`.
    pub consistent: bool,
    /// Quiescent `snapshot()` → digest round trips after the stream.
    pub report_ms: Vec<f64>,
    /// The `snapshot()` half of each of those.
    pub quiescent_snapshot_ms: Vec<f64>,
    /// `snapshot()` calls made while the stream was still being fed.
    pub midstream_snapshot_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub checkpoint_bytes: u64,
    pub finish_s: f64,
    pub canonical_s: f64,
    /// The first full report's `snapshot()`: mostly the wait for the
    /// shard to work off what is still queued.
    pub drain_s: f64,
    /// The generator worker's busy seconds (fused passes).
    pub generator_busy_s: f64,
    pub stats: EngineStats,
    /// Measurements that survived conversion, from the final report.
    pub converted: u64,
    pub precision: f64,
    pub recall: f64,
}

impl Pass {
    /// The pass's snapshot latencies: beside writes where the workload
    /// takes such snapshots, the quiescent ones where it does not.
    pub fn snapshot_ms(&self) -> &[f64] {
        if self.midstream_snapshot_ms.is_empty() {
            &self.quiescent_snapshot_ms
        } else {
            &self.midstream_snapshot_ms
        }
    }
}

/// `snapshot()` → canonical digest, timing both halves.
fn report(engine: &Engine<'_>, t: &mut Tracer) -> (u64, u64, u64) {
    let span = t.enter("engine.snapshot");
    let results = engine.snapshot();
    let snapshot_ns = t.exit(span, 1);
    let span = t.enter("core.canonical_report");
    let digest = results.canonical_report().digest();
    let canonical_ns = t.exit(span, 1);
    (digest, snapshot_ns, canonical_ns)
}

fn score(results: &PipelineResults, inputs: &Inputs) -> (f64, f64) {
    let identified: HashSet<Asn> = results.censor_findings.keys().copied().collect();
    let v = validate(
        &identified,
        &inputs.scenario,
        &results.on_censored_path,
        |a| inputs.world.public_asn(a),
    );
    (v.precision, v.recall)
}

impl Study<'_> {
    /// Run one pass the way this study's workload drives the wire.
    pub fn pass(&self, t: &mut Tracer) -> Pass {
        // The feeding workloads hand the engine owned measurements, as a
        // live source would; the copy is the benchmark's, so it is made
        // before the clock starts.
        let owned = self.stream.clone();
        let root = t.enter("pass");
        let started = Instant::now();
        let cpu0 = process_cpu_secs();
        let mut pass = Pass {
            measurements: owned.len() as u64,
            no_route: owned.iter().filter(|m| m.failed).count() as u64,
            ..Pass::default()
        };
        let engine = match self.kind {
            Kind::Fused => self.stream_fused(t, &mut pass),
            Kind::Replay => self.stream_replay(t, &mut pass, owned),
            Kind::Service => self.stream_service(t, &mut pass, owned),
        };
        let (digest, snapshot_ns, canonical_ns) = report(&engine, t);
        pass.wall_s = started.elapsed().as_secs_f64();
        pass.cpu_s = match (cpu0, process_cpu_secs()) {
            (Some(a), Some(b)) => b - a,
            _ => pass.wall_s,
        };
        pass.digest = digest;
        pass.drain_s = secs(snapshot_ns);
        pass.canonical_s = secs(canonical_ns);

        pass.consistent = true;
        for _ in 0..REPORTS_PER_PASS {
            let (again, snapshot_ns, canonical_ns) = report(&engine, t);
            pass.consistent &= again == digest;
            pass.report_ms.push(millis(snapshot_ns + canonical_ns));
            pass.quiescent_snapshot_ms.push(millis(snapshot_ns));
        }
        let span = t.enter("engine.finish");
        let (results, stats) = engine.finish_with_stats();
        pass.finish_s = secs(t.exit(span, 1));
        pass.consistent &= results.canonical_report().digest() == digest;
        pass.converted = results.conversion.converted;
        (pass.precision, pass.recall) = score(&results, self.inputs);
        pass.stats = stats;
        pass.total_s = secs(t.exit(root, pass.measurements));
        pass
    }

    fn stream_fused(&self, t: &mut Tracer, pass: &mut Pass) -> Engine<'_> {
        let span = t.enter("bgp.sim_new");
        let sim = self.inputs.sim();
        t.exit(span, 1);
        let span = t.enter("engine.new");
        let engine = Engine::new(&self.platform, self.engine_cfg());
        t.exit(span, 1);
        let span = t.enter("campaign.run_fused");
        let run = campaign::run_fused(&self.platform, &sim, &engine, THREADS);
        t.exit(span, run.stats.measurements);
        pass.measurements = run.stats.measurements;
        pass.no_route = run.stats.failed;
        pass.generator_busy_s = secs(run.busy.total_nanos());
        engine
    }

    fn stream_replay(
        &self,
        t: &mut Tracer,
        pass: &mut Pass,
        owned: Vec<Measurement>,
    ) -> Engine<'_> {
        let span = t.enter("engine.new");
        let engine = Engine::new(&self.platform, self.engine_cfg());
        t.exit(span, 1);
        let span = t.enter("engine.feed");
        let mut feeder = engine.feeder();
        for m in owned {
            feeder.ingest_owned(m);
        }
        drop(feeder);
        t.exit(span, pass.measurements);
        engine
    }

    fn stream_service(
        &self,
        t: &mut Tracer,
        pass: &mut Pass,
        owned: Vec<Measurement>,
    ) -> Engine<'_> {
        let n = owned.len();
        let span = t.enter("engine.new");
        let mut engine = Engine::new(&self.platform, self.engine_cfg());
        t.exit(span, 1);
        let mut stream = owned.into_iter();
        let mut fed = 0usize;
        for k in 1..=CHECKPOINT_CUTS + 1 {
            let span = t.enter("engine.feed");
            let segment = n * k / (CHECKPOINT_CUTS + 1) - fed;
            let mut feeder = engine.feeder();
            for m in stream.by_ref().take(segment) {
                feeder.ingest_owned(m);
                fed += 1;
                if fed.is_multiple_of(SNAPSHOT_EVERY) {
                    feeder.flush();
                    let snap = t.enter("engine.snapshot");
                    black_box(engine.snapshot());
                    pass.midstream_snapshot_ms.push(millis(t.exit(snap, 1)));
                }
            }
            drop(feeder);
            t.exit(span, segment as u64);
            if k > CHECKPOINT_CUTS {
                break;
            }
            // Checkpoint to memory, drop the engine, resume from the blob.
            let span = t.enter("engine.checkpoint");
            let mut blob = Vec::new();
            engine
                .checkpoint(fed as u64, &[], &mut blob)
                .expect("writing to memory cannot fail");
            pass.checkpoint_ms
                .push(millis(t.exit(span, blob.len() as u64)));
            pass.checkpoint_bytes = pass.checkpoint_bytes.max(blob.len() as u64);
            drop(engine);
            let span = t.enter("engine.restore");
            let restored = Engine::restore(
                self.platform.measured_ip2as(),
                &self.inputs.world.topology,
                self.engine_cfg(),
                &mut blob.as_slice(),
            )
            .expect("a checkpoint this process just wrote restores");
            pass.restore_ms
                .push(millis(t.exit(span, blob.len() as u64)));
            assert_eq!(
                restored.cursor, fed as u64,
                "the checkpoint cursor comes back verbatim"
            );
            engine = restored.engine;
        }
        engine
    }
}

/// What the traced run's replays measured, layer by layer.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    // platform alone
    pub generate_s: f64,
    pub generated: u64,
    pub no_route: u64,
    pub route_lookups: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    // bgp
    pub lookup_s: f64,
    pub tree_compute_us: Vec<f64>,
    // net / censor / detect
    pub flows: u64,
    pub packets: u64,
    pub flow_s: f64,
    pub armed_flows: u64,
    pub armed_flow_s: f64,
    pub detect_s: f64,
    // schedule and collection
    pub schedule_s: f64,
    pub scheduled: u64,
    pub collect_s: f64,
    // engine side
    pub convert_s: f64,
    pub conversion: ConversionStats,
    pub churn_s: f64,
    pub intern_s: f64,
    pub intern_hit_ratio: f64,
    pub distinct_paths: u64,
    pub observe_s: f64,
    // engine alone
    pub engine_alone_s: f64,
    pub feeder_wait_s: f64,
    /// The shard worker's busy seconds over the same study the replays
    /// ran on — the whole that convert + intern + observe are parts of.
    pub alone_shard_busy_s: f64,
    // interop
    pub interop_records: u64,
    pub interop_bytes: u64,
    pub interop_write_s: f64,
    pub interop_parse_s: f64,
    pub interop_malformed: u64,
}

/// One test's identity on the generator side, resolved once per batch.
struct Probe<'p> {
    vp_ip: u32,
    url: &'p churnlab_platform::UrlEntry,
    day: u32,
    /// Range of this test's AS path in the batch's path arena (empty
    /// when there was no route).
    path: (usize, usize),
    rng_seed: u64,
}

/// One flow's captures, kept for the detector replay.
struct Flow {
    url_id: u32,
    dns: Capture,
    http: Capture,
    outcome: FlowOutcome,
}

impl Study<'_> {
    /// The platform alone: one generator thread into a counting sink, so
    /// each measurement is freed as the engine's shard would free it.
    fn generate_alone(&self, t: &mut Tracer, ledger: &mut Ledger) {
        let sim = self.inputs.sim();
        let span = t.enter("platform.generate");
        let run = self.platform.run_parallel(&sim, THREADS, |_| {
            let mut seen = 0u64;
            move |m: Measurement| {
                seen += 1;
                black_box((seen, m));
            }
        });
        t.exit(span, run.stats.measurements);
        let cache = sim.cache_stats();
        ledger.generate_s = secs(run.busy.total_nanos());
        ledger.generated = run.stats.measurements;
        ledger.no_route = run.stats.failed;
        ledger.route_lookups = cache.hits + cache.misses;
        ledger.cache_hits = cache.hits;
        ledger.cache_misses = cache.misses;
        ledger.cache_evictions = cache.evictions;
    }

    /// The study in the collector's documented order — by (URL, day,
    /// vantage, epoch), the order the generator works in — for the
    /// replays. Collected now if set-up did not already.
    fn collected(&self, t: &mut Tracer, ledger: &mut Ledger) -> Vec<Measurement> {
        if self.kind == Kind::Fused {
            let span = t.enter("platform.collect");
            let study = self
                .platform
                .run_collect_parallel(&self.inputs.sim(), THREADS)
                .0;
            ledger.collect_s = secs(t.exit(span, study.len() as u64));
            return study;
        }
        ledger.collect_s = self.collect_s;
        let mut study = self.stream.clone();
        study.sort_by_key(|m| (m.url_id, m.day, m.vp_id, m.epoch));
        study
    }

    /// Re-drive the generator-side layers over `study`, batch by batch:
    /// route lookup against a cold simulator, flow synthesis without and
    /// with censors armed, then the detectors on the armed captures.
    fn replay_generator(
        &self,
        t: &mut Tracer,
        ledger: &mut Ledger,
        study: &[Measurement],
        seed: u64,
    ) {
        let topo = &self.inputs.world.topology;
        let cfg = self.platform.config();
        let vps: HashMap<u32, &churnlab_platform::VantagePoint> = self
            .platform
            .vantage_points()
            .iter()
            .map(|v| (v.id, v))
            .collect();
        let pairs = self.platform.corpus().domain_category_pairs();
        let compiled: HashMap<Asn, CompiledCensor> = self
            .inputs
            .scenario
            .policies
            .iter()
            .map(|p| (p.asn, p.compile(&pairs)))
            .collect();
        let fingerprints = churnlab_censor::blockpage::fingerprint_list();
        // A test's genuine page is the platform's to build, not the flow
        // simulator's: made once per URL here, outside the layer spans.
        let pages: HashMap<u32, (String, HttpResponse)> = self
            .platform
            .corpus()
            .entries()
            .iter()
            .map(|u| {
                let body = u.body();
                let response = HttpResponse::ok(&body);
                (u.id, (body, response))
            })
            .collect();

        let sim = self.inputs.sim();
        let mut keys = Vec::new();
        let mut seen_keys = HashSet::new();
        let mut arena: Vec<Asn> = Vec::new();
        let mut path_buf: Vec<Asn> = Vec::new();
        for (b, batch) in study.chunks(TRACE_BATCH).enumerate() {
            // -- bgp: the workload's own (vantage, destination, epoch) queries.
            arena.clear();
            let mut probes = Vec::with_capacity(batch.len());
            let span = t.enter("bgp.lookup");
            for (i, m) in batch.iter().enumerate() {
                let vp = vps[&m.vp_id];
                let url = self.platform.corpus().get(m.url_id);
                let src = topo.idx(vp.asn).expect("vantage AS exists");
                let dst = topo.idx(url.server_asn).expect("destination AS exists");
                if seen_keys.insert((dst, m.epoch)) {
                    keys.push((dst, m.epoch));
                }
                let start = arena.len();
                if sim.asn_path_into(src, dst, m.epoch, &mut path_buf) {
                    arena.extend_from_slice(&path_buf);
                }
                probes.push(Probe {
                    vp_ip: vp.ip,
                    url,
                    day: m.day,
                    path: (start, arena.len()),
                    rng_seed: seed
                        ^ ((b * TRACE_BATCH + i) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                });
            }
            ledger.lookup_s += secs(t.exit(span, batch.len() as u64));

            // -- net: hop expansion + DNS and HTTP flows, nobody on path.
            let routed = probes.iter().filter(|p| p.path.1 > p.path.0).count() as u64;
            let span = t.enter("net.flow");
            for p in probes.iter().filter(|p| p.path.1 > p.path.0) {
                let flow = synthesize(
                    p,
                    &arena[p.path.0..p.path.1],
                    cfg,
                    &self.inputs.world,
                    &pages,
                    None,
                );
                ledger.packets += (flow.dns.len() + flow.http.len()) as u64;
                black_box(flow);
            }
            ledger.flow_s += secs(t.exit(span, routed));
            ledger.flows += routed;

            // -- censor: the same flows with every censor on the path armed.
            let mut flows = Vec::with_capacity(routed as usize);
            let span = t.enter("censor.armed_flow");
            for p in probes.iter().filter(|p| p.path.1 > p.path.0) {
                let path = &arena[p.path.0..p.path.1];
                if path.iter().any(|a| compiled.contains_key(a)) {
                    ledger.armed_flows += 1;
                }
                flows.push(synthesize(
                    p,
                    path,
                    cfg,
                    &self.inputs.world,
                    &pages,
                    Some(&compiled),
                ));
            }
            ledger.armed_flow_s += secs(t.exit(span, routed));

            // -- platform: the five detectors over the armed captures.
            let span = t.enter("platform.detect");
            for f in &flows {
                black_box(detect::detect_all(
                    &f.dns,
                    &f.http,
                    &f.outcome,
                    &fingerprints,
                    Some(pages[&f.url_id].0.as_bytes()),
                ));
            }
            ledger.detect_s += secs(t.exit(span, routed));
        }

        // -- bgp: a cold tree for every distinct (destination, epoch) asked.
        let churn = sim.churn();
        let mut scratch = TreeScratch::new();
        let mut tree = RouteTree::empty();
        let span = t.enter("bgp.tree_compute");
        for &(dst, epoch) in &keys {
            let one = t.enter("bgp.tree");
            RouteTree::compute_into(
                &mut scratch,
                topo,
                dst,
                &|l| churn.link_up(l, epoch),
                &|x| churn.te_salt(x, epoch),
                &mut tree,
            );
            ledger.tree_compute_us.push(t.exit(one, 1) as f64 / 1e3);
        }
        t.exit(span, keys.len() as u64);
    }

    /// Re-drive the engine-side layers over `study`: conversion, churn
    /// accounting, path interning, then the per-granularity observe
    /// fan-out — what a shard worker does to each measurement, one layer
    /// at a time.
    fn replay_engine(&self, t: &mut Tracer, ledger: &mut Ledger, study: &[Measurement]) {
        let pipeline = self.inputs.pipeline();
        let db = self.platform.measured_ip2as();
        let mut churn =
            ChurnAccumulator::windowed(&pipeline.granularities, pipeline.total_days, None);
        let mut table = PathTable::new();
        let mut groups: HashMap<(u32, TimeWindow), InstanceGroup> = HashMap::new();
        let mut scratch = SolveScratch::new();
        let mut solve_stats = IncrementalStats::default();
        for batch in study.chunks(TRACE_BATCH) {
            let span = t.enter("core.convert");
            let converted: Vec<ConvertedObs> = batch
                .iter()
                .filter_map(|m| ConvertedObs::from_measurement(m, db, &mut ledger.conversion))
                .collect();
            ledger.convert_s += secs(t.exit(span, batch.len() as u64));

            let span = t.enter("core.churn");
            for o in &converted {
                churn.add(o.vp_asn, o.dest_asn, o.day, &o.path);
            }
            ledger.churn_s += secs(t.exit(span, converted.len() as u64));

            let span = t.enter("engine.intern");
            let ids: Vec<_> = converted.iter().map(|o| table.intern(&o.path)).collect();
            ledger.intern_s += secs(t.exit(span, converted.len() as u64));

            let span = t.enter("engine.observe");
            for (o, &pid) in converted.iter().zip(&ids) {
                for &g in &pipeline.granularities {
                    let window = TimeWindow::of(o.day, g, pipeline.total_days);
                    groups
                        .entry((o.url_id, window))
                        .or_insert_with(|| InstanceGroup::new(o.url_id, window))
                        .observe(
                            pid,
                            &table,
                            o.detected,
                            pipeline.solve.count_cap,
                            &mut solve_stats,
                            &mut scratch,
                        );
                }
            }
            ledger.observe_s += secs(t.exit(span, converted.len() as u64));
        }
        let interner = table.stats();
        ledger.intern_hit_ratio = interner.hit_rate();
        ledger.distinct_paths = interner.distinct_paths;
    }

    /// The engine alone: `study` through one feeder into a fresh engine,
    /// to the first full report. The feeder's wall minus its on-CPU time
    /// is how long the producer sat blocked on the bounded channel.
    fn engine_alone(&self, t: &mut Tracer, ledger: &mut Ledger, study: &[Measurement]) {
        let owned = study.to_vec();
        let span = t.enter("engine.alone");
        let engine = Engine::new(
            &self.platform,
            EngineConfig::new(self.inputs.pipeline()).with_shards(SHARDS),
        );
        let feed = t.enter("engine.feed");
        let cpu0 = thread_cpu_nanos();
        let mut feeder = engine.feeder();
        for m in owned {
            feeder.ingest_owned(m);
        }
        drop(feeder);
        let on_cpu = match (cpu0, thread_cpu_nanos()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        let feed_ns = t.exit(feed, study.len() as u64);
        black_box(report(&engine, t));
        ledger.engine_alone_s = secs(t.exit(span, study.len() as u64));
        // Without an on-CPU clock the wait cannot be told from the work.
        ledger.feeder_wait_s = on_cpu.map_or(0.0, |cpu| secs(feed_ns.saturating_sub(cpu)));
        ledger.alone_shard_busy_s = secs(engine.finish_with_stats().1.busy.shard_total_nanos);
    }

    /// Reads beside writes for the one layer no workload times end to
    /// end: the study's head out to JSONL in memory and back in.
    fn replay_interop(&self, t: &mut Tracer, ledger: &mut Ledger, study: &[Measurement]) {
        let head = &study[..study.len().min(INTEROP_RECORDS)];
        let span = t.enter("interop.write");
        let records: Vec<NativeRecord> = head
            .iter()
            .map(|m| {
                NativeRecord::from_measurement(m, &self.platform.corpus().get(m.url_id).domain)
            })
            .collect();
        let mut text = Vec::new();
        write_jsonl(&mut text, &records).expect("writing to memory cannot fail");
        ledger.interop_write_s = secs(t.exit(span, head.len() as u64));
        let text = String::from_utf8(text).expect("JSON lines are UTF-8");
        let span = t.enter("interop.parse");
        let mut stats = ImportStats::default();
        for line in text.lines() {
            black_box(import_native_line(line, &mut stats));
        }
        ledger.interop_parse_s = secs(t.exit(span, head.len() as u64));
        ledger.interop_records = stats.ok;
        ledger.interop_bytes = text.len() as u64;
        ledger.interop_malformed = stats.malformed;
    }

    /// Every replay of the traced run, under one root span.
    pub fn ledger(&self, t: &mut Tracer, seed: u64) -> Ledger {
        let mut ledger = Ledger::default();
        let root = t.enter("replay");
        self.generate_alone(t, &mut ledger);
        let study = self.collected(t, &mut ledger);
        (ledger.scheduled, ledger.schedule_s) = self.schedule_size(t);
        self.replay_generator(t, &mut ledger, &study, seed);
        self.replay_engine(t, &mut ledger, &study);
        self.engine_alone(t, &mut ledger, &study);
        self.replay_interop(t, &mut ledger, &study);
        t.exit(root, study.len() as u64);
        ledger
    }
}

/// One test's DNS lookup and HTTP GET over its expanded hop path — the
/// platform's per-test recipe, with `censors` armed on the path or
/// nobody at all.
fn synthesize(
    p: &Probe<'_>,
    path: &[Asn],
    cfg: &PlatformConfig,
    world: &GeneratedWorld,
    pages: &HashMap<u32, (String, HttpResponse)>,
    censors: Option<&HashMap<Asn, CompiledCensor>>,
) -> Flow {
    let mut rng = StdRng::seed_from_u64(p.rng_seed);
    let hops = HopPath::expand(
        path,
        &world.prefixes,
        p.vp_ip,
        p.url.server_ip,
        cfg.routers_per_as,
        &mut rng,
    );
    let flow_cfg = FlowConfig {
        client_port: rng.gen_range(32768..61000),
        isn_client: rng.gen(),
        isn_server: rng.gen(),
        organic_rst: rng.gen_bool(cfg.noise.organic_rst_prob.clamp(0.0, 1.0)),
        organic_loss: rng.gen_bool(cfg.noise.organic_loss_prob.clamp(0.0, 1.0)),
        ..FlowConfig::default()
    };
    let server_remaining = flow_cfg
        .server_init_ttl
        .saturating_sub(hops.len() as u8 - 1);
    let mut armed: Vec<(usize, ActiveCensor)> = Vec::new();
    for (pos, asn) in path.iter().enumerate() {
        if let Some(compiled) = censors.and_then(|c| c.get(asn)) {
            let hop = hops.first_hop_of_as(pos).expect("AS on path has hops");
            let ctx = TestContext {
                day: p.day,
                mimic_init_ttl: server_remaining.saturating_add(hop as u8),
            };
            armed.push((pos, ActiveCensor::new(compiled, ctx)));
        }
    }
    let query = DnsMessage::query(rng.gen(), &p.url.domain);
    let honest = DnsMessage::answer(&query, p.url.server_ip, 300);
    let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = armed
        .iter_mut()
        .map(|(pos, c)| (*pos, c as &mut dyn OnPathObserver))
        .collect();
    let (dns, _) =
        FlowSimulator::dns_lookup(&hops, &flow_cfg, &query, Some(&honest), &mut observers);
    let request = HttpRequest::get(&p.url.domain, &p.url.path);
    let mut observers: Vec<(usize, &mut dyn OnPathObserver)> = armed
        .iter_mut()
        .map(|(pos, c)| (*pos, c as &mut dyn OnPathObserver))
        .collect();
    let (http, outcome) = FlowSimulator::http_get(
        &hops,
        &flow_cfg,
        &request,
        &pages[&p.url.id].1,
        &mut observers,
    );
    Flow {
        url_id: p.url.id,
        dns,
        http,
        outcome,
    }
}
