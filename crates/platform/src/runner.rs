//! The measurement runner: ICLab's scheduler + executor.
//!
//! Every (vantage point, URL) pair is tested on a fixed cadence — the
//! paper's 4.9M measurements over a year work out to roughly one test per
//! pair per month — with `tests_per_testing_day` runs spread across the
//! day's routing epochs (which is what lets intra-day path churn become
//! *observable*, Figure 3's per-day series). Each test:
//!
//! 1. resolves the AS path from the routing simulator at the test's epoch,
//! 2. expands it to router hops and arms the censoring ASes on the path
//!    that act on the URL that day — those that block the qname or Host
//!    its flows carry ([`churnlab_censor::FlowNames::acted_on_by`]; every
//!    other censor would pass every packet),
//! 3. builds the flows — a DNS lookup and an HTTP GET at the packet level
//!    — only when a censor is armed or organic noise (a server reset, a
//!    lost segment) fired; otherwise both flows would be clean,
//! 4. runs the five detectors over those captures; a test that built no
//!    flow has the empty verdict, which is what they return on clean
//!    flows,
//! 5. applies detector noise, and
//! 6. records the §3.1 measurement tuple with three traceroutes.
//!
//! Steps 3–4 draw nothing from the test's RNG, so a test that skips them
//! draws what one that runs them does, in the same order.
//!
//! Measurements stream to a sink (the paper-scale run produces millions of
//! records; holding them all is the *caller's* choice).
//!
//! A test costs what its packets carry. What every test of a URL shares —
//! the serialised GET and page, the encoded DNS question and answer, the
//! names a censor reads off them — is built once per URL, and steps 2–4
//! run in per-worker buffers (hop path, armed censors, both captures,
//! reassembly and detector scratch) that the next test clears and
//! refills; what a test allocates is the record it returns and, when it
//! builds flows, the two DNS wires it stamps its transaction id on.

use crate::anomaly::{AnomalySet, AnomalyType};
use crate::detect::{self, DetectScratch};
use crate::fingerprint::FingerprintSet;
use crate::measurement::{Measurement, Traceroutes, TraceroutesBuilder};
use crate::noise::NoiseConfig;
use crate::obs::{CampaignObs, CampaignWorkerObs};
use crate::schedule::{FleetSchedule, UrlFleetPlan};
use crate::stats::{DatasetStats, StatsAccumulator};
use crate::urls::{UrlCorpus, UrlEntry};
use crate::vantage::{self, VantagePoint};
use churnlab_bgp::{Routes, RoutingSim};
use churnlab_censor::{ActiveCensor, CensorshipScenario, CompiledCensor, FlowNames, TestContext};
use churnlab_net::{
    Capture, DnsMessage, FlowConfig, FlowSimulator, HopPath, HttpRequest, HttpResponse,
    Reassembly, SharedBytes,
};
use churnlab_obs::Registry;
use churnlab_topology::{mix64, AsIdx, Asn, FxMap, GeneratedWorld, Ip2AsDb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Reusable AS-index path buffers for the measurement loop: one campaign
/// runs millions of tests, and the routing layer can fill paths in place
/// ([`Routes::as_path_into`]) instead of allocating per test. The hop
/// expander reads each AS's prefixes off its index.
#[derive(Default)]
struct PathBuffers {
    /// The test's primary path at its epoch.
    main: Vec<AsIdx>,
    /// The next-epoch path probed by the route-shift traceroute.
    alt: Vec<AsIdx>,
}

/// What every test of one URL puts on the wire, built once per URL a
/// worker runs a unit of: a worker holds one of these at a time, so a
/// 2,400-URL corpus costs a page of memory per worker, not per URL.
#[derive(Default)]
struct UrlWire {
    /// The encoded A query for the URL's domain, transaction id 0 (each
    /// test stamps its own).
    dns_query: Vec<u8>,
    /// The honest resolver's encoded answer, transaction id 0.
    dns_answer: Vec<u8>,
    /// The serialised GET.
    get: SharedBytes,
    /// The serialised genuine response; its segments are slices of it.
    page: SharedBytes,
    /// Where the body — the detector's censor-free control — starts in
    /// `page`.
    body_at: usize,
    /// The qname and Host a censor decodes off `dns_query` and `get`:
    /// what arming asks every censor on a test's path about.
    names: FlowNames,
}

impl UrlWire {
    fn of(url: &UrlEntry) -> Self {
        let query = DnsMessage::query(0, &url.domain);
        let honest = DnsMessage::answer(&query, url.server_ip, 300);
        let body = url.body();
        let page = SharedBytes::from(HttpResponse::ok(&body).serialize());
        let dns_query = query.encode().expect("corpus domains are valid names");
        let get = SharedBytes::from(HttpRequest::get(&url.domain, &url.path).serialize());
        UrlWire {
            names: FlowNames::read(&dns_query, &get),
            dns_query,
            dns_answer: honest.encode().expect("corpus domains are valid names"),
            get,
            body_at: page.len() - body.len(),
            page,
        }
    }

    /// The genuine page body.
    fn body(&self) -> &[u8] {
        &self.page[self.body_at..]
    }
}

/// Per-worker mutable state for the campaign loop: the reused
/// day-subset buffer, the worker's private stats accumulator (merged
/// after the join — workers never share mutable state), the fleet plan
/// of the URL `test.wire` was built for, and the buffers its tests run
/// in.
#[derive(Default)]
struct WorkerCtx<'p> {
    day_vps: Vec<usize>,
    acc: StatsAccumulator,
    /// The URL `plan` and `test.wire` belong to.
    url: Option<u32>,
    plan: UrlFleetPlan,
    test: TestBuffers<'p>,
}

/// What one test reads and fills: the current URL's wire bytes, and every
/// buffer a test needs — cleared by the next test, not reallocated.
#[derive(Default)]
struct TestBuffers<'p> {
    paths: PathBuffers,
    wire: UrlWire,
    /// The test's router-level path, and the route-shift traceroute's.
    hops: HopPath,
    alt_hops: HopPath,
    /// Censors armed on the test's path, with their AS positions.
    armed: Vec<(usize, ActiveCensor<'p>)>,
    dns_cap: Capture,
    http_cap: Capture,
    reassembly: Reassembly,
    detect: DetectScratch,
    /// The test's three traceroute runs, before they are packed into the
    /// record's one block.
    traceroutes: TraceroutesBuilder,
}

/// Per-worker busy-time attribution for a parallel campaign run — the
/// generator-side analogue of the engine's `EngineBusy`, and the basis
/// `campaign_bench` uses for its model-efficiency gate on machines with
/// fewer cores than threads.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignBusy {
    /// Each worker's on-CPU generation time, nanoseconds (wall-clock
    /// fallback where no thread CPU clock exists).
    pub per_worker_nanos: Vec<u64>,
    /// Whether every worker measured on a real thread CPU clock.
    pub cpu_clock: bool,
}

impl CampaignBusy {
    /// The parallel section's critical path: the slowest worker.
    pub fn max_nanos(&self) -> u64 {
        self.per_worker_nanos.iter().copied().max().unwrap_or(0)
    }

    /// Total on-CPU work across workers.
    pub fn total_nanos(&self) -> u64 {
        self.per_worker_nanos.iter().sum()
    }
}

/// Result of [`Platform::run_parallel`]: the dataset stats plus the
/// per-worker busy attribution.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Table-1 statistics, identical to the serial run's.
    pub stats: DatasetStats,
    /// Per-worker busy accounting.
    pub busy: CampaignBusy,
}

/// Convenience scale presets for the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlatformScale {
    /// Tiny: unit tests (12 URLs, ~12 VPs, 60 days).
    Smoke,
    /// Small: integration tests and quick experiments (~40k measurements).
    Small,
    /// Paper: 774 URLs, ~539 VP ASes, ~5M measurements over a year.
    Paper,
    /// Huge: a campaign sized for the ~62k-AS world — thousands of URLs,
    /// tens of thousands of vantage ASes, kept bounded by the rotating
    /// fleet-sampling schedule (every (url, testing-day) sees a k-subset
    /// of the fleet instead of all of it).
    Huge,
}

/// Platform configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Seed for corpus, vantage placement, and per-test randomness.
    pub seed: u64,
    /// URLs in the test list (paper: 774).
    pub n_urls: usize,
    /// VPN vantage points (one per content AS; paper: most of 539).
    pub n_vpn_vantage: usize,
    /// Residential vantage points.
    pub n_residential_vantage: usize,
    /// Tests per (vantage, URL) pair over the whole period (paper ≈ 12).
    pub tests_per_pair: u32,
    /// Tests run per testing day (spread over routing epochs).
    pub tests_per_testing_day: u32,
    /// Days in the measurement period.
    pub total_days: u32,
    /// Router hops contributed by each transit AS (min, max).
    pub routers_per_as: (usize, usize),
    /// Maximum fraction of vantage points placed in censoring countries
    /// (commercial VPN providers concentrate in uncensored jurisdictions;
    /// ICLab additionally avoids high-risk regions).
    pub vp_censor_country_frac: f64,
    /// Maximum fraction of test URLs hosted inside censoring countries
    /// (sensitive content is mostly hosted abroad).
    pub url_censor_country_frac: f64,
    /// Fleet sampling: vantage points tested per (url, testing-day).
    /// `0` (the default, and every pre-Huge preset) disables sampling —
    /// each testing day sees the entire fleet, exactly the pre-sampling
    /// runner. Nonzero bounds per-day work at O(fleet_sample × urls).
    #[serde(default)]
    pub fleet_sample: usize,
    /// Coverage guarantee the sampling schedule must honor: every
    /// (vantage, url) pair is tested at least this many times over the
    /// period. Validated at platform assembly against the rotation's
    /// exact floor; ignored when sampling is off.
    #[serde(default)]
    pub tests_per_pair_floor: u32,
    /// Noise model.
    pub noise: NoiseConfig,
}

impl PlatformConfig {
    /// Preset for a scale.
    pub fn preset(scale: PlatformScale, seed: u64) -> Self {
        match scale {
            PlatformScale::Smoke => PlatformConfig {
                seed,
                n_urls: 16,
                n_vpn_vantage: 20,
                n_residential_vantage: 4,
                tests_per_pair: 24,
                tests_per_testing_day: 2,
                total_days: 60,
                routers_per_as: (1, 2),
                vp_censor_country_frac: 0.0,
                url_censor_country_frac: 0.03,
                fleet_sample: 0,
                tests_per_pair_floor: 0,
                noise: NoiseConfig::realistic(),
            },
            PlatformScale::Small => PlatformConfig {
                seed,
                n_urls: 60,
                n_vpn_vantage: 160,
                n_residential_vantage: 24,
                tests_per_pair: 146,
                tests_per_testing_day: 2,
                total_days: 365,
                routers_per_as: (1, 3),
                vp_censor_country_frac: 0.0,
                url_censor_country_frac: 0.03,
                fleet_sample: 0,
                tests_per_pair_floor: 0,
                noise: NoiseConfig::realistic(),
            },
            PlatformScale::Paper => PlatformConfig {
                seed,
                n_urls: 774,
                n_vpn_vantage: 780,
                n_residential_vantage: 60,
                tests_per_pair: 12,
                tests_per_testing_day: 2,
                total_days: 365,
                routers_per_as: (1, 3),
                vp_censor_country_frac: 0.0,
                url_censor_country_frac: 0.03,
                fleet_sample: 0,
                tests_per_pair_floor: 0,
                noise: NoiseConfig::realistic(),
            },
            PlatformScale::Huge => PlatformConfig {
                seed,
                n_urls: 2400,
                n_vpn_vantage: 11_500,
                n_residential_vantage: 700,
                tests_per_pair: 24,
                tests_per_testing_day: 2,
                total_days: 365,
                routers_per_as: (1, 3),
                vp_censor_country_frac: 0.0,
                url_censor_country_frac: 0.03,
                // 12 testing days × 1024 sampled VPs ≥ the ~12.2k fleet,
                // so the rotation's exact floor gives every (vp, url)
                // pair ≥ 1 testing day (× 2 tests) over the year while a
                // day's work stays at 1024·urls instead of 12200·urls.
                fleet_sample: 1024,
                tests_per_pair_floor: 2,
                noise: NoiseConfig::realistic(),
            },
        }
    }

    /// Days between testing days for one pair.
    pub fn testing_interval_days(&self) -> u32 {
        let testing_days = (self.tests_per_pair / self.tests_per_testing_day).max(1);
        (self.total_days / testing_days).max(1)
    }
}

/// The assembled measurement platform.
pub struct Platform<'w> {
    world: &'w GeneratedWorld,
    cfg: PlatformConfig,
    corpus: UrlCorpus,
    vantage: Vec<VantagePoint>,
    compiled: FxMap<Asn, CompiledCensor>,
    fingerprints: FingerprintSet,
    measured_ip2as: Ip2AsDb,
    /// Campaign counters, once [`Platform::instrument`] attached them.
    obs: OnceLock<CampaignObs>,
}

impl<'w> Platform<'w> {
    /// Assemble the platform: generate the URL corpus, place vantage
    /// points, compile censor policies against the corpus, and degrade the
    /// IP-to-AS database per the noise config.
    pub fn new(
        world: &'w GeneratedWorld,
        scenario: &CensorshipScenario,
        cfg: PlatformConfig,
    ) -> Self {
        // Only *transit-censored* jurisdictions (heavy/medium tiers) repel
        // vantage points and hosting: VPN providers do operate in countries
        // whose hosting ASes quietly filter (that is exactly how the paper
        // catches them) — what they avoid is state-level transit censorship.
        let censoring_countries: Vec<churnlab_topology::CountryCode> = scenario
            .country_tiers
            .iter()
            .filter(|(_, t)| {
                matches!(
                    t,
                    churnlab_censor::scenario::CensorTier::Heavy
                        | churnlab_censor::scenario::CensorTier::Medium
                )
            })
            .map(|(c, _)| *c)
            .collect();
        let corpus = UrlCorpus::generate_avoiding(
            world,
            cfg.n_urls,
            mix64(cfg.seed ^ 0x11),
            &censoring_countries,
            cfg.url_censor_country_frac,
        );
        let vantage = vantage::place_avoiding(
            world,
            cfg.n_vpn_vantage,
            cfg.n_residential_vantage,
            &censoring_countries,
            cfg.vp_censor_country_frac,
            mix64(cfg.seed ^ 0x22),
        );
        let pairs = corpus.domain_category_pairs();
        let compiled = scenario
            .policies
            .iter()
            .map(|p| (p.asn, p.compile(&pairs)))
            .collect();
        let all_asns = world.asns();
        let mut db_rng = StdRng::seed_from_u64(mix64(cfg.seed ^ 0x33));
        // The analyst's database is built from registry data: hosting-org
        // PoP prefixes all map to the org's public ASN (then degraded by
        // the staleness noise model).
        let measured_ip2as =
            world.registry_ip2as().degraded(cfg.noise.ip2as, &all_asns, &mut db_rng);
        let fingerprints = FingerprintSet::compile(&churnlab_censor::blockpage::fingerprint_list());
        let platform = Platform {
            world,
            cfg,
            corpus,
            vantage,
            compiled,
            fingerprints,
            measured_ip2as,
            obs: OnceLock::new(),
        };
        // A sampling schedule must honor its configured coverage floor.
        // The rotation's per-pair pick count is exact (see [`crate::schedule`]),
        // so this is a static check at assembly time, not a runtime hope.
        let schedule = platform.fleet_schedule();
        if schedule.is_sampling() && platform.cfg.tests_per_pair_floor > 0 {
            let min_testing_days =
                platform.cfg.total_days / platform.cfg.testing_interval_days();
            let guaranteed = schedule.guaranteed_day_picks(min_testing_days)
                * platform.cfg.tests_per_testing_day.max(1);
            assert!(
                guaranteed >= platform.cfg.tests_per_pair_floor,
                "fleet_sample {} over a fleet of {} guarantees only {} tests/pair \
                 across {} testing days; tests_per_pair_floor wants {}",
                schedule.k(),
                schedule.fleet(),
                guaranteed,
                min_testing_days,
                platform.cfg.tests_per_pair_floor,
            );
        }
        platform
    }

    /// The campaign's fleet-sampling schedule (the full-fleet identity
    /// schedule when `fleet_sample` is 0).
    pub fn fleet_schedule(&self) -> FleetSchedule {
        FleetSchedule::new(mix64(self.cfg.seed ^ 0x44), self.vantage.len(), self.cfg.fleet_sample)
    }

    /// The URL corpus.
    pub fn corpus(&self) -> &UrlCorpus {
        &self.corpus
    }

    /// The vantage points.
    pub fn vantage_points(&self) -> &[VantagePoint] {
        &self.vantage
    }

    /// The (degraded) IP-to-AS database measurements should be interpreted
    /// with — the analyst's view, not ground truth.
    pub fn measured_ip2as(&self) -> &Ip2AsDb {
        &self.measured_ip2as
    }

    /// The configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The world under measurement.
    pub fn world(&self) -> &GeneratedWorld {
        self.world
    }

    /// Register the `churnlab_campaign_*` counters on `registry`: every
    /// later [`Platform::run`] / [`Platform::run_parallel`] counts the
    /// tests its schedule planned, ran and sampled out and each worker's
    /// on-CPU generation time, and instruments the simulator it is handed
    /// ([`RoutingSim::instrument`], `churnlab_route_*`) on the same
    /// registry. Call before the campaign; the counters keep feeding the
    /// first registry they were given, and a later call does nothing.
    pub fn instrument(&self, registry: &Registry) {
        self.obs.get_or_init(|| CampaignObs::new(registry));
    }

    /// Run one unit of work: the `j`-th testing day of `url`'s cadence,
    /// the scheduled vantage subset, `tests_per_testing_day` tests each,
    /// routed through `routes`, which it leaves cleared. The serial and the
    /// parallel runner share it, and all randomness is derived from (seed,
    /// url, day), so a unit's stream is identical no matter which worker
    /// runs it, or what it ran before.
    #[allow(clippy::too_many_arguments)]
    fn run_unit<'p>(
        &'p self,
        routes: &mut Routes,
        url: &UrlEntry,
        j: u32,
        schedule: &FleetSchedule,
        ctx: &mut WorkerCtx<'p>,
        obs: Option<&CampaignWorkerObs>,
        sink: &mut impl FnMut(Measurement),
    ) {
        // URL-list sweeps: every scheduled vantage point tests a URL on
        // the same testing days (the platform walks its list on a global
        // cadence, like ICLab's repeated full-list suites). The sweep
        // phase is per-URL so load spreads across days; each
        // (url, testing-day) sees the whole fleet at the classic tiers,
        // or the schedule's rotating k-subset at the Huge tier — the
        // cross-vantage coverage that lets one vantage's clean path
        // exonerate ASes on another vantage's censored path now accrues
        // over a few rotations instead of within every single day.
        let interval = self.cfg.testing_interval_days();
        let phase = (mix64(self.cfg.seed ^ u64::from(url.id)) % u64::from(interval)) as u32;
        let day = phase + j * interval;
        if day >= self.cfg.total_days {
            return;
        }
        if ctx.url != Some(url.id) {
            ctx.test.wire = UrlWire::of(url);
            ctx.plan = schedule.plan_for_url(url.id);
            ctx.url = Some(url.id);
        }
        ctx.plan.day_subset_into(j, &mut ctx.day_vps);
        let k = self.cfg.tests_per_testing_day.max(1);
        if let Some(o) = obs {
            o.scheduled.add(ctx.day_vps.len() as u64 * u64::from(k));
            o.sampled_out.add((schedule.fleet() - ctx.day_vps.len()) as u64 * u64::from(k));
        }
        let epochs_per_day = routes.sim().mapper().epochs_per_day;
        let mut rng =
            StdRng::seed_from_u64(mix64(self.cfg.seed ^ (u64::from(url.id) << 32) ^ u64::from(day)));
        for &vi in &ctx.day_vps {
            let vp = &self.vantage[vi];
            for t in 0..k {
                // Spread the day's tests across day segments
                // (measurement suites run hours apart), so intra-day
                // route changes are observable.
                let seg = (epochs_per_day * t / k, (epochs_per_day * (t + 1) / k).max(epochs_per_day * t / k + 1));
                let slot = rng.gen_range(seg.0..seg.1.min(epochs_per_day));
                let (m, quiet) = self.run_test(routes, vp, url, day, slot, &mut rng, &mut ctx.test);
                ctx.acc.add(&m);
                if let Some(o) = obs {
                    o.run.inc();
                    if quiet {
                        o.quiet.inc();
                    }
                }
                sink(m);
            }
        }
        // The unit's (destination, epoch)s are the next unit's only by
        // chance: its trees go, their buffers stay.
        routes.clear();
    }

    /// Worker `worker` of `workers`: run every `workers`-th unit —
    /// (URL, testing day), numbered in corpus-then-day order — starting
    /// at unit `worker`, streaming each one's tests into `sink`. Returns
    /// the worker's private stats, its on-CPU time (wall time where no
    /// thread CPU clock exists) and which of the two it measured.
    fn run_worker(
        &self,
        sim: &RoutingSim,
        schedule: &FleetSchedule,
        (worker, workers): (usize, usize),
        obs: Option<CampaignWorkerObs>,
        mut sink: impl FnMut(Measurement),
    ) -> (StatsAccumulator, u64, bool) {
        let wall0 = Instant::now();
        let cpu0 = churnlab_obs::thread_cpu_nanos();
        // One context for the worker's whole share: every buffer a test
        // fills is reused by the next (the routing layer fills paths in
        // place, the flow simulator captures in place — no
        // per-measurement Vec), and a URL's wire bytes and fleet plan are
        // rebuilt only when the worker's next unit is another URL's. The
        // route trees belong to the unit that asks for them.
        let mut ctx = WorkerCtx::default();
        let mut routes = Routes::new(sim);
        let entries = self.corpus.entries();
        // Testing days a URL's cadence can hold: unit `u` is testing day
        // `u % days` of URL `u / days`.
        let days = self.cfg.total_days.div_ceil(self.cfg.testing_interval_days()).max(1) as usize;
        for unit in (worker..entries.len() * days).step_by(workers) {
            let url = &entries[unit / days];
            let j = (unit % days) as u32;
            self.run_unit(&mut routes, url, j, schedule, &mut ctx, obs.as_ref(), &mut sink);
        }
        // Flush buffering sinks (e.g. engine feeders) before the clock
        // stops: the flush is part of this worker's generation work.
        drop(sink);
        let (busy, cpu_clock) = match (cpu0, churnlab_obs::thread_cpu_nanos()) {
            (Some(a), Some(b)) => (b.saturating_sub(a), true),
            _ => (wall0.elapsed().as_nanos() as u64, false),
        };
        if let Some(o) = &obs {
            o.busy.add(busy);
        }
        (ctx.acc, busy, cpu_clock)
    }

    /// The attached campaign counters, with `sim` instrumented on their
    /// registry — read once per run.
    fn campaign_obs(&self, sim: &RoutingSim) -> Option<&CampaignObs> {
        let obs = self.obs.get()?;
        sim.instrument(obs.registry());
        Some(obs)
    }

    /// Run the full measurement campaign on the calling thread, streaming
    /// records to `sink` in corpus order — the one-worker campaign.
    pub fn run(&self, sim: &RoutingSim, sink: impl FnMut(Measurement)) -> DatasetStats {
        let obs = self.campaign_obs(sim).map(|o| o.worker(0));
        let (acc, ..) = self.run_worker(sim, &self.fleet_schedule(), (0, 1), obs, sink);
        acc.finish(&self.world.topology)
    }

    /// Run the campaign across `threads` workers: the calling thread and
    /// `threads - 1` scoped threads. A (URL, testing day) is the unit of
    /// work, and units are dealt round-robin: worker `w` runs units `w`,
    /// `w + threads`, … A URL whose paths cross an acting censor costs
    /// several times a quiet one, so whole URLs would leave one worker
    /// the long tail; dealt by day, every worker gets a slice of every
    /// URL, and its share's cost does not depend on how much of the
    /// machine the scheduler gave it while it ran. Each worker owns its
    /// own test buffers and [`StatsAccumulator`] and streams into its own
    /// sink from `make_sink(worker_index)`. Because every per-(url, day) RNG is
    /// reseeded from (seed, url, day), a unit's measurement stream is
    /// byte-identical no matter which worker runs it — the parallel run
    /// produces exactly the serial run's records, partitioned.
    ///
    /// `threads == 0` means one worker per available core.
    pub fn run_parallel<S, F>(&self, sim: &RoutingSim, threads: usize, make_sink: F) -> ParallelRun
    where
        F: Fn(usize) -> S + Sync,
        S: FnMut(Measurement) + Send,
    {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        let obs = self.campaign_obs(sim);
        let schedule = self.fleet_schedule();
        let worker = |w: usize| {
            self.run_worker(sim, &schedule, (w, threads), obs.map(|o| o.worker(w)), make_sink(w))
        };
        // The caller is worker 0: N workers keep N threads busy, not N
        // and one parked in `join` — and a one-worker campaign allocates
        // what it streams where the caller will free it, not in a heap
        // of its own that outlives every pass at its high-water mark.
        let results = std::thread::scope(|scope| {
            let worker = &worker;
            let spawned: Vec<_> = (1..threads).map(|w| scope.spawn(move || worker(w))).collect();
            let mut results = vec![worker(0)];
            results.extend(spawned.into_iter().map(|h| h.join().expect("campaign worker panicked")));
            results
        });
        let mut acc = StatsAccumulator::new();
        let mut busy = CampaignBusy { per_worker_nanos: Vec::with_capacity(threads), cpu_clock: true };
        for (a, nanos, cpu_clock) in results {
            acc.merge(a);
            busy.per_worker_nanos.push(nanos);
            busy.cpu_clock &= cpu_clock;
        }
        ParallelRun { stats: acc.finish(&self.world.topology), busy }
    }

    /// Run the campaign across `threads` workers and collect everything
    /// (small scales only), deterministic regardless of worker
    /// interleaving: each URL's units land in its own slot (URL ids are
    /// dense corpus indices), slots are flattened in corpus order, and the
    /// result is stable-sorted by (url, day, vantage, slot) as the
    /// documented ordering contract. Records that tie on that key share a
    /// (url, day) unit, which one worker streams in order, so the output
    /// is the same for any thread count, and the order [`Platform::run`]
    /// streams in.
    pub fn run_collect_parallel(
        &self,
        sim: &RoutingSim,
        threads: usize,
    ) -> (Vec<Measurement>, DatasetStats) {
        let slots: Vec<Mutex<Vec<Measurement>>> =
            (0..self.corpus.len()).map(|_| Mutex::new(Vec::new())).collect();
        let slots_ref = &slots;
        let run = self.run_parallel(sim, threads, move |_| {
            move |m: Measurement| {
                slots_ref[m.url_id as usize].lock().expect("collect slot poisoned").push(m)
            }
        });
        let mut out = Vec::new();
        for slot in slots {
            out.extend(slot.into_inner().expect("collect slot poisoned"));
        }
        out.sort_by_key(|m| (m.url_id, m.day, m.vp_id, m.epoch));
        (out, run.stats)
    }

    /// Execute one test of `url` — the URL `bufs.wire` was built for —
    /// and say whether it was quiet: routed, with a verdict that needed no
    /// flow.
    #[allow(clippy::too_many_arguments)]
    fn run_test<'p>(
        &'p self,
        routes: &mut Routes,
        vp: &VantagePoint,
        url: &UrlEntry,
        day: u32,
        slot: u32,
        rng: &mut StdRng,
        bufs: &mut TestBuffers<'p>,
    ) -> (Measurement, bool) {
        let TestBuffers {
            paths,
            wire,
            hops,
            alt_hops,
            armed,
            dns_cap,
            http_cap,
            reassembly,
            detect: scratch,
            traceroutes,
        } = bufs;
        let url_id = url.id;
        let epoch = routes.sim().mapper().epoch(day, slot);
        let topo = &self.world.topology;
        let vp_idx = topo.idx(vp.asn).expect("vantage AS exists");
        let dest_idx = topo.idx(url.server_asn).expect("dest AS exists");
        if !routes.as_path_into(vp_idx, dest_idx, epoch, &mut paths.main) {
            let failed = Measurement {
                vp_id: vp.id,
                vp_asn: vp.public_asn,
                url_id,
                dest_asn: url.server_asn,
                day,
                epoch,
                detected: AnomalySet::empty(),
                traceroutes: Traceroutes::no_route(),
                failed: true,
            };
            return (failed, false);
        }
        let (prefixes, routers) = (&self.world.prefixes, self.cfg.routers_per_as);
        hops.expand_idx_into(&paths.main, topo, prefixes, vp.ip, url.server_ip, routers, rng);
        let hop_path: &HopPath = hops;
        let asn_path: &[Asn] = &hop_path.as_path;

        // Arm the censoring ASes on the path that act on this URL today
        // (`FlowNames::acted_on_by` says why the rest would pass every
        // packet).
        let flow_cfg = FlowConfig {
            client_port: rng.gen_range(32768..61000),
            isn_client: rng.gen(),
            isn_server: rng.gen(),
            organic_rst: rng.gen_bool(self.cfg.noise.organic_rst_prob.clamp(0.0, 1.0)),
            organic_loss: rng.gen_bool(self.cfg.noise.organic_loss_prob.clamp(0.0, 1.0)),
            ..FlowConfig::default()
        };
        armed.clear();
        for (pos, asn) in asn_path.iter().enumerate() {
            let Some(compiled) = self.compiled.get(asn) else { continue };
            if !wire.names.acted_on_by(compiled, day) {
                continue;
            }
            let hop = hop_path.first_hop_of_as(pos).expect("AS on path has hops");
            let mimic = hop_path.mimic_init_ttl(hop, flow_cfg.server_init_ttl);
            armed.push((pos, ActiveCensor::new(compiled, TestContext { day, mimic_init_ttl: mimic })));
        }
        let id: u16 = rng.gen();

        // With nothing armed and no organic noise, both flows are clean
        // and the five detectors are silent on clean flows: the verdict
        // is empty without building a packet. The flows draw nothing from
        // `rng`, so skipping them moves no later draw.
        let quiet = armed.is_empty() && !flow_cfg.organic_rst && !flow_cfg.organic_loss;
        let mut detected = if quiet {
            AnomalySet::empty()
        } else {
            // --- DNS test -------------------------------------------------
            FlowSimulator::dns_lookup_into(
                hop_path,
                &flow_cfg,
                DnsMessage::stamp_id(&wire.dns_query, id),
                Some(DnsMessage::stamp_id(&wire.dns_answer, id)),
                armed,
                dns_cap,
            );

            // --- HTTP test ------------------------------------------------
            let fetched = FlowSimulator::http_get_into(
                hop_path, &flow_cfg, &wire.get, &wire.page, armed, http_cap, reassembly,
            );

            // --- Detection -------------------------------------------------
            detect::detect_all_into(
                dns_cap,
                http_cap,
                fetched.body(),
                &self.fingerprints,
                Some(wire.body()),
                scratch,
            )
        };
        // Detector noise. Real detector failures are *systematic* — a
        // vantage whose capture setup mangles TTLs mangles them every time;
        // a page variant the blockpage matcher misses is missed every time.
        // So false verdict flips are sticky per (vantage, URL, anomaly),
        // not per-test coin flips (which would make dense windows
        // self-contradictory at rates real data does not show).
        for (ti, t) in AnomalyType::ALL.into_iter().enumerate() {
            let tag = mix64(
                self.cfg.seed
                    ^ (u64::from(vp.id) << 40)
                    ^ (u64::from(url_id) << 8)
                    ^ ti as u64,
            );
            let roll = tag as f64 / u64::MAX as f64;
            if detected.contains(t) {
                if roll < self.cfg.noise.fn_(t).clamp(0.0, 1.0) {
                    detected.remove(t);
                }
            } else if roll < self.cfg.noise.fp(t).clamp(0.0, 1.0) {
                detected.insert(t);
            }
        }

        // --- Traceroutes ----------------------------------------------------
        let tr_cfg = &self.cfg.noise.traceroute;
        for i in 0..3 {
            // With small probability the last traceroute catches a route
            // change (next epoch's path) — the paper's elimination rule 4.
            let shifted = i == 2
                && rng.gen_bool(self.cfg.noise.intra_test_shift_prob.clamp(0.0, 1.0));
            let changed = shifted
                && routes.as_path_into(vp_idx, dest_idx, epoch + 1, &mut paths.alt)
                && paths.alt != paths.main;
            let path = if changed {
                let (alt, ips) = (&paths.alt, (vp.ip, url.server_ip));
                alt_hops.expand_idx_into(alt, topo, prefixes, ips.0, ips.1, routers, rng);
                &*alt_hops
            } else {
                hop_path
            };
            let error = tr_cfg.run(path, rng, |hop| traceroutes.hop(hop));
            traceroutes.end_run(error);
        }
        let traceroutes = traceroutes.finish().expect("three runs of a ≤ 256-hop path fit");

        let m = Measurement {
            vp_id: vp.id,
            vp_asn: vp.public_asn,
            url_id,
            dest_asn: url.server_asn,
            day,
            epoch,
            detected,
            traceroutes,
            failed: false,
        };
        (m, quiet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_bgp::sim::CacheStats;
    use churnlab_bgp::ChurnConfig;
    use churnlab_censor::CensorConfig;
    use churnlab_topology::{generator, WorldConfig, WorldScale};
    use std::collections::HashMap;
    use std::sync::atomic::Ordering;

    struct Setup {
        world: GeneratedWorld,
    }

    fn world() -> Setup {
        Setup { world: generator::generate(&WorldConfig::preset(WorldScale::Smoke, 21)) }
    }

    fn churn_cfg(total_days: u32) -> ChurnConfig {
        ChurnConfig { total_days, ..ChurnConfig::default() }
    }

    /// The serial reference the collect tests hold `run_collect_parallel`
    /// against: `run` pushing into a `Vec`, which comes out in the
    /// documented (url, day, vantage, slot) order.
    fn serial_collect(platform: &Platform, sim: &RoutingSim) -> (Vec<Measurement>, DatasetStats) {
        let mut out = Vec::new();
        let stats = platform.run(sim, |m| out.push(m));
        assert!(out.is_sorted_by_key(|m| (m.url_id, m.day, m.vp_id, m.epoch)));
        (out, stats)
    }

    #[test]
    fn smoke_run_produces_measurements() {
        let s = world();
        let mut ccfg = CensorConfig::scaled_for(s.world.topology.countries().len());
        ccfg.total_days = 60;
        let scenario = CensorshipScenario::generate_for_world(&s.world, &ccfg);
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 5);
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let (ms, stats) = platform.run_collect_parallel(&sim, 1);
        let expected = platform.vantage_points().len() as u64
            * platform.corpus().len() as u64
            * u64::from(pcfg.tests_per_pair);
        assert_eq!(stats.measurements, expected, "schedule must hit the target cadence");
        assert_eq!(ms.len() as u64, stats.measurements);
        // Every measurement carries 3 traceroutes.
        assert!(ms.iter().all(|m| m.traceroutes.len() == 3));
    }

    #[test]
    fn run_is_deterministic() {
        let s = world();
        let mut ccfg = CensorConfig::scaled_for(s.world.topology.countries().len());
        ccfg.total_days = 60;
        let scenario = CensorshipScenario::generate_for_world(&s.world, &ccfg);
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 5);
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let (a, _) = platform.run_collect_parallel(&sim, 1);
        let (b, _) = platform.run_collect_parallel(&sim, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn noise_free_run_flags_only_censored_flows() {
        let s = world();
        let mut ccfg = CensorConfig::scaled_for(s.world.topology.countries().len());
        ccfg.total_days = 60;
        ccfg.policy_change_prob = 0.0;
        let scenario = CensorshipScenario::generate_for_world(&s.world, &ccfg);
        let mut pcfg = PlatformConfig::preset(PlatformScale::Smoke, 5);
        pcfg.noise = NoiseConfig::none();
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let (ms, stats) = platform.run_collect_parallel(&sim, 1);
        assert!(stats.total_anomalies() > 0, "no anomalies at all — censors unobserved");
        // In a noise-free world every detected anomaly must trace back to a
        // real censor somewhere on the measured path: verify via ground
        // truth that the URL was actually targeted by some censor that day.
        for m in ms.iter().filter(|m| m.anomalous()) {
            let url = platform.corpus().get(m.url_id);
            let censored_somewhere = scenario
                .policies
                .iter()
                .any(|p| p.blocks_on(url.category, m.day));
            assert!(
                censored_somewhere,
                "anomaly {:?} on untargeted URL {} (day {})",
                m.detected, url.domain, m.day
            );
        }
    }

    #[test]
    fn failed_routes_recorded_as_failed() {
        // Freeze the world with churn_scale 0 but kill enough links that
        // some stub is sometimes isolated — simplest check: run with a
        // normal world and assert the failed count is tracked (possibly 0).
        let s = world();
        let ccfg = CensorConfig::scaled_for(s.world.topology.countries().len());
        let scenario = CensorshipScenario::generate_for_world(&s.world, &ccfg);
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 6);
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let (ms, stats) = platform.run_collect_parallel(&sim, 1);
        let failed = ms.iter().filter(|m| m.failed).count() as u64;
        assert_eq!(stats.failed, failed);
        for m in ms.iter().filter(|m| m.failed) {
            assert!(m.traceroutes.iter().all(|t| t.error().is_some()));
            assert!(m.detected.is_empty());
        }
    }

    fn smoke_setup(seed: u64) -> (Setup, CensorshipScenario, PlatformConfig) {
        let s = world();
        let mut ccfg = CensorConfig::scaled_for(s.world.topology.countries().len());
        ccfg.total_days = 60;
        let scenario = CensorshipScenario::generate_for_world(&s.world, &ccfg);
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, seed);
        (s, scenario, pcfg)
    }

    #[test]
    fn parallel_collect_equals_serial_collect() {
        let (s, scenario, pcfg) = smoke_setup(5);
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let (serial, serial_stats) = serial_collect(&platform, &sim);
        for threads in [1, 4] {
            let (par, par_stats) = platform.run_collect_parallel(&sim, threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(par_stats, serial_stats, "threads={threads}");
        }
    }

    #[test]
    fn parallel_collect_equals_serial_on_pa_world() {
        // The Huge (preferential-attachment) family shrunk ~40x. Every run
        // gets a cold simulator, so the cached trees' routes are resolved
        // in whatever order that run's workers ask for them.
        let mut wcfg = WorldConfig::preset(WorldScale::Huge, 3);
        wcfg.n_countries = 20;
        wcfg.n_tier1 = 5;
        wcfg.pa_transits = 150;
        wcfg.pa_stubs = 1_200;
        wcfg.pa_peering_links = 2_500;
        wcfg.hosting_orgs = 6;
        let world = generator::generate(&wcfg);
        let mut ccfg = CensorConfig::scaled_for(world.topology.countries().len());
        ccfg.total_days = 60;
        let scenario = CensorshipScenario::generate_for_world(&world, &ccfg);
        let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 13);
        let platform = Platform::new(&world, &scenario, pcfg.clone());
        let cold = || RoutingSim::new(&world.topology, &churn_cfg(pcfg.total_days));
        let (serial, serial_stats) = serial_collect(&platform, &cold());
        assert!(serial.iter().any(|m| !m.failed));
        for threads in [1, 4] {
            let (par, par_stats) = platform.run_collect_parallel(&cold(), threads);
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(par_stats, serial_stats, "threads={threads}");
        }
    }

    #[test]
    fn parallel_collect_equals_serial_under_sampling() {
        let (s, scenario, mut pcfg) = smoke_setup(7);
        pcfg.fleet_sample = 5;
        pcfg.tests_per_pair_floor = 2;
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let (serial, serial_stats) = serial_collect(&platform, &sim);
        let (par, par_stats) = platform.run_collect_parallel(&sim, 3);
        assert_eq!(par, serial);
        assert_eq!(par_stats, serial_stats);
    }

    #[test]
    fn sampling_bounds_day_work_and_meets_coverage() {
        let (s, scenario, mut pcfg) = smoke_setup(9);
        pcfg.fleet_sample = 5;
        pcfg.tests_per_pair_floor = 2;
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let (ms, stats) = platform.run_collect_parallel(&sim, 1);
        let fleet = platform.vantage_points().len();
        assert!(fleet > 5, "smoke fleet must be bigger than the sample");
        // Per-day work is bounded by k, not the fleet.
        let mut per_day: HashMap<(u32, u32), std::collections::HashSet<u32>> = HashMap::new();
        for m in &ms {
            per_day.entry((m.url_id, m.day)).or_default().insert(m.vp_id);
        }
        assert!(per_day.values().all(|vps| vps.len() == 5));
        // Coverage floor: every (vp, url) pair tested ≥ floor times.
        let mut pair_counts: HashMap<(u32, u32), u32> = HashMap::new();
        for m in &ms {
            *pair_counts.entry((m.vp_id, m.url_id)).or_default() += 1;
        }
        assert_eq!(pair_counts.len(), fleet * platform.corpus().len(), "every pair covered");
        assert!(pair_counts.values().all(|&c| c >= pcfg.tests_per_pair_floor));
        // The sampled campaign is smaller than the full-fleet one.
        let full = fleet as u64
            * platform.corpus().len() as u64
            * u64::from(pcfg.tests_per_pair);
        assert!(stats.measurements < full);
        assert_eq!(stats.vps, fleet, "rotation must touch the whole fleet");
    }

    #[test]
    #[should_panic(expected = "tests_per_pair_floor")]
    fn unsatisfiable_coverage_floor_panics() {
        let (s, scenario, mut pcfg) = smoke_setup(5);
        // 1 sampled VP × 30 testing-day rotations cannot give each of the
        // 24 fleet members 24 guaranteed tests.
        pcfg.fleet_sample = 1;
        pcfg.tests_per_pair_floor = pcfg.tests_per_pair;
        Platform::new(&s.world, &scenario, pcfg);
    }

    #[test]
    fn parallel_busy_accounting_is_populated() {
        let (s, scenario, pcfg) = smoke_setup(5);
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let counted = std::sync::atomic::AtomicU64::new(0);
        let counted_ref = &counted;
        let run = platform.run_parallel(&sim, 2, move |_| {
            move |_m| {
                counted_ref.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(run.busy.per_worker_nanos.len(), 2);
        assert!(run.busy.total_nanos() > 0);
        assert_eq!(counted.load(Ordering::Relaxed), run.stats.measurements);
    }

    #[test]
    fn campaign_counters_account_for_every_scheduled_test() {
        let (s, scenario, mut pcfg) = smoke_setup(11);
        pcfg.fleet_sample = 5;
        pcfg.tests_per_pair_floor = 2;
        let platform = Platform::new(&s.world, &scenario, pcfg.clone());
        let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
        let registry = Registry::new();
        platform.instrument(&registry);
        // A second attach is a no-op: the counters keep feeding the
        // first registry, and the second sees none of them.
        let second = Registry::new();
        platform.instrument(&second);
        let run = platform.run_parallel(&sim, 2, |_| |_m| {});
        assert!(second.scrape().samples.is_empty(), "the second registry stays empty");
        let text = churnlab_obs::render_prometheus(&registry.scrape());
        let value = |name: &str| -> u64 {
            text.lines()
                .filter(|l| l.starts_with(name) && !l.starts_with('#'))
                .map(|l| {
                    l.rsplit(' ').next().expect("prometheus sample").parse::<u64>().expect("u64")
                })
                .sum()
        };
        // Every scheduled test executes (failed routes still produce a
        // record), and sampling must have left some of the fleet out.
        let run_total = value("churnlab_campaign_tests_run_total");
        assert_eq!(run_total, run.stats.measurements);
        let quiet = value("churnlab_campaign_tests_quiet_total");
        assert!(0 < quiet && quiet < run_total, "{quiet} of {run_total} tests quiet");
        assert_eq!(value("churnlab_campaign_tests_scheduled_total"), run_total);
        assert!(value("churnlab_campaign_tests_sampled_out_total") > 0);
        // Per-worker busy attribution reached the registry too.
        assert!(text.contains("churnlab_campaign_worker_busy_nanos_total{worker=\"0\"}"));
        assert!(text.contains("churnlab_campaign_worker_busy_nanos_total{worker=\"1\"}"));
        assert_eq!(value("churnlab_campaign_worker_busy_nanos_total"), run.busy.total_nanos());
        // The simulator it was handed reports on the same registry: the
        // scrape's cache traffic is the simulator's own count, and the
        // timeline set-up is there.
        let cache = sim.cache_stats();
        assert!(cache.hits > 0 && cache.misses > 0, "{cache:?}");
        assert_eq!(value("churnlab_route_cache_hit"), cache.hits);
        assert_eq!(value("churnlab_route_cache_miss"), cache.misses);
        assert_eq!(value("churnlab_route_cache_evict"), cache.evictions);
        assert_eq!(value("churnlab_route_trees_computed"), cache.misses);
        assert!(value("churnlab_route_nodes_resolved_total") > 0);
        assert!(value("churnlab_route_timeline_build_nanos") > 0);
        let churn = sim.churn();
        assert_eq!(
            value("churnlab_route_timeline_events{kind=\"link\"}"),
            churn.total_link_events() as u64
        );
        assert_eq!(
            value("churnlab_route_timeline_events{kind=\"te\"}"),
            churn.total_te_events() as u64
        );
        // `run` is the one-worker campaign and counts on the same series.
        let serial = platform.run(&sim, |_m| {});
        assert_eq!(
            registry.scrape().counter("churnlab_campaign_tests_run_total", &[]),
            Some(run_total + serial.measurements)
        );
    }

    #[test]
    fn cache_stats_count_every_lookup_and_the_trees_each_unit_built() {
        // A test makes one lookup and, when it routed and its last
        // traceroute catches a route change, one at `epoch + 1`: with the
        // shift never drawn and always drawn, the lookups are known.
        for shift in [0.0, 1.0] {
            let (s, scenario, mut pcfg) = smoke_setup(5);
            pcfg.noise.intra_test_shift_prob = shift;
            let platform = Platform::new(&s.world, &scenario, pcfg.clone());
            let topo = &s.world.topology;
            // The trees a unit builds: its distinct (destination, epoch)s.
            let mut unit_keys = std::collections::HashSet::new();
            let sim = RoutingSim::new(topo, &churn_cfg(pcfg.total_days));
            let serial = platform.run(&sim, |m| {
                let dest = topo.idx(m.dest_asn).expect("dest AS exists");
                unit_keys.insert((m.url_id, m.day, dest, m.epoch));
                if shift > 0.0 && !m.failed {
                    unit_keys.insert((m.url_id, m.day, dest, m.epoch + 1));
                }
            });
            let routed = serial.measurements - serial.failed;
            let lookups = serial.measurements + if shift > 0.0 { routed } else { 0 };
            let trees = unit_keys.len() as u64;
            let want = CacheStats { hits: lookups - trees, misses: trees, evictions: 0 };
            assert_eq!(sim.cache_stats(), want, "serial, shift {shift}");
            // However workers race, each unit builds its own trees.
            for threads in [1, 2, 3] {
                let sim = RoutingSim::new(topo, &churn_cfg(pcfg.total_days));
                let run = platform.run_parallel(&sim, threads, |_| |_m| {});
                assert_eq!(run.stats, serial);
                assert_eq!(sim.cache_stats(), want, "{threads} threads, shift {shift}");
            }
        }
    }

    /// The noise settings the oracle is held at: the realistic default,
    /// none at all, and organic noise on most flows — so quiet tests are
    /// the exception and built flows with no acting censor the rule.
    fn oracle_noise() -> [NoiseConfig; 3] {
        let organic = NoiseConfig {
            organic_rst_prob: 0.2,
            organic_loss_prob: 0.5,
            intra_test_shift_prob: 0.3,
            ..NoiseConfig::realistic()
        };
        [NoiseConfig::realistic(), NoiseConfig::none(), organic]
    }

    /// Hold the product runner against the all-armed oracle, and check
    /// the comparison covered quiet tests and built flows both.
    fn assert_equals_oracle(platform: &Platform, sim: &RoutingSim) {
        let registry = Registry::new();
        platform.instrument(&registry);
        let compared = oracle::assert_runner_equals_oracle(platform, sim);
        let scrape = registry.scrape();
        let run = scrape.counter("churnlab_campaign_tests_run_total", &[]).expect("run");
        let quiet = scrape.counter("churnlab_campaign_tests_quiet_total", &[]).expect("quiet");
        assert_eq!(run, compared);
        assert!(0 < quiet && quiet < run, "{quiet} of {run} tests quiet");
    }

    #[test]
    fn runner_equals_the_all_armed_oracle_on_the_smoke_study() {
        for seed in [5, 7, 11] {
            for noise in oracle_noise() {
                let (s, scenario, mut pcfg) = smoke_setup(seed);
                pcfg.noise = noise;
                let platform = Platform::new(&s.world, &scenario, pcfg.clone());
                let sim = RoutingSim::new(&s.world.topology, &churn_cfg(pcfg.total_days));
                assert_equals_oracle(&platform, &sim);
            }
        }
    }

    /// The oracle over the Small study, ~1.6M tests per noise setting:
    /// run it in a release build (`cargo test --release -p
    /// churnlab-platform -- --ignored all_armed_oracle`).
    #[test]
    #[ignore = "the Small study: run it in a release build"]
    fn runner_equals_the_all_armed_oracle_on_the_small_study() {
        let world = generator::generate(&WorldConfig::preset(WorldScale::Small, 42));
        let mut ccfg = CensorConfig::scaled_for(world.topology.countries().len());
        ccfg.seed = 44;
        let scenario = CensorshipScenario::generate_for_world(&world, &ccfg);
        for noise in oracle_noise() {
            let pcfg = PlatformConfig { noise, ..PlatformConfig::preset(PlatformScale::Small, 43) };
            let platform = Platform::new(&world, &scenario, pcfg.clone());
            let sim = RoutingSim::new(&world.topology, &churn_cfg(pcfg.total_days));
            assert_equals_oracle(&platform, &sim);
        }
    }

    #[test]
    fn every_genuine_page_is_clean_and_its_names_are_what_censors_read() {
        let s = world();
        let fingerprints =
            FingerprintSet::compile(&churnlab_censor::blockpage::fingerprint_list());
        let corpus = UrlCorpus::generate(&s.world, 400, 3);
        let mut rng = StdRng::seed_from_u64(17);
        let (mut hops, mut cap, mut reassembly) =
            (HopPath::default(), Capture::new(), Reassembly::default());
        let none: &mut [(usize, ActiveCensor)] = &mut [];
        for url in corpus.entries() {
            let wire = UrlWire::of(url);
            let domain = Some(url.domain.clone());
            assert_eq!(wire.names, FlowNames { qname: domain.clone(), host: domain });
            // A test stamps its own transaction id; the qname stays.
            let stamped = DnsMessage::stamp_id(&wire.dns_query, rng.gen());
            assert_eq!(FlowNames::read(&stamped, &wire.get), wire.names);
            // No segmentation can show a fingerprint the page lacks.
            assert!(!fingerprints.is_match(&wire.page), "{} carries a fingerprint", url.domain);
            let client = s.world.prefixes.of_asn(url.server_asn)[0].nth_host(7);
            hops.expand_into(&[url.server_asn], &s.world.prefixes, client, url.server_ip, (1, 3), &mut rng);
            let cfg = FlowConfig { mss: rng.gen_range(200..1500), ..FlowConfig::default() };
            let fetched = FlowSimulator::http_get_into(
                &hops, &cfg, &wire.get, &wire.page, none, &mut cap, &mut reassembly,
            );
            assert_eq!(fetched.body(), Some(wire.body()));
            assert!(!detect::detect_block_compiled(&cap, fetched.body(), &fingerprints, Some(wire.body())));
        }
    }

    #[test]
    fn interval_math() {
        let mut cfg = PlatformConfig::preset(PlatformScale::Small, 1);
        assert_eq!(cfg.testing_interval_days(), 5); // 365 / 73 testing days
        cfg.tests_per_pair = 2;
        cfg.tests_per_testing_day = 2;
        assert_eq!(cfg.testing_interval_days(), 365);
    }
}

#[cfg(test)]
mod oracle;
