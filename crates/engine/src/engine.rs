//! The sharded engine: ingestion routing, shard workers, report merging,
//! the window-retirement fold protocol, and checkpoint/restore.

use crate::block::{Block, BlockPool};
use crate::ckpt::{self, Dec, Enc, RestoreError, MAGIC, VERSION};
use crate::incremental::IncrementalStats;
use crate::intern::InternStats;
use crate::obs::{EngineObs, ShardObs};
use crate::shard::{
    as_countries, cloned_outcomes, run_worker, CompactCut, Msg, ShardReport, ShardState,
};
use churnlab_core::accumulate::FindingsAccumulator;
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::convert::ConversionStats;
use churnlab_core::pipeline::{ChurnMode, PipelineConfig, PipelineResults};
use churnlab_core::{ChurnAccumulator, RetiredChurn};
use churnlab_obs::thread_cpu_nanos;
use churnlab_topology::fnv1a;
use churnlab_platform::{Measurement, Platform};
use churnlab_sat::CtxStats;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Bounded per-shard queue depth in messages (backpressure: sends block
/// when a shard falls this far behind; a message is one directly
/// ingested measurement or one feeder block of up to a chunk of them).
const QUEUE_CAPACITY: usize = 1024;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The tomography configuration (identical semantics to the batch
    /// [`churnlab_core::pipeline::Pipeline`]).
    pub pipeline: PipelineConfig,
    /// Shard worker count; `0` means one per available core.
    pub shards: usize,
    /// Lateness horizon in days: a (URL × window) group retires — its
    /// cells solved once, its solver state freed — when the shard's
    /// high-water day passes `window end + horizon`. `None` (default)
    /// keeps every group live forever, reproducing pre-lifecycle results
    /// byte for byte.
    pub window_horizon: Option<u32>,
    /// Observability context (see [`EngineConfig::with_obs`]); clones of
    /// the configuration share it.
    obs: Option<Arc<EngineObs>>,
}

impl EngineConfig {
    /// Default shard sizing over a pipeline configuration: no horizon,
    /// no observability.
    pub fn new(pipeline: PipelineConfig) -> Self {
        EngineConfig { pipeline, shards: 0, window_horizon: None, obs: None }
    }

    /// Override the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set a window-retirement lateness horizon (days).
    pub fn with_window_horizon(mut self, days: u32) -> Self {
        self.window_horizon = Some(days);
        self
    }

    /// Attach an observability context: the engine built (or restored)
    /// from this configuration publishes live metrics — and journal
    /// events, when `obs` carries a journal — through it. Without one the
    /// engine is the *stripped* configuration — no registry, no atomic
    /// ops, one predictable branch per instrumentation site — which is
    /// what the bench's overhead gate compares the instrumented engine
    /// against. A restored engine seeds the `churnlab_windows_open` gauge
    /// from its live group count but emits no journal events for
    /// pre-checkpoint history: its journal narrates the post-restore
    /// stream only.
    pub fn with_obs(mut self, obs: EngineObs) -> Self {
        self.obs = Some(Arc::new(obs));
        self
    }

    fn resolved_shards(&self) -> usize {
        if self.shards != 0 {
            return self.shards;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Per-thread busy-time attribution, nanoseconds. Shard workers account
/// every nanosecond they spend converting, solving, and building
/// reports; the merge accounts its own serial section. Together these
/// give the bench an Amdahl-style critical path (`max shard busy +
/// merge`) that exposes a serialized engine even on machines with fewer
/// cores than shards — the basis of the committed scaling-efficiency
/// gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineBusy {
    /// Sum of all shard workers' busy time — the run's total parallel
    /// work (grows slightly with shard count: per-shard interners
    /// re-intern paths that cross shards).
    pub shard_total_nanos: u64,
    /// The slowest shard worker's busy time — the parallel section's
    /// critical path. Flat scaling shows up here: a serialized engine
    /// has `max ≈ total`.
    pub shard_max_nanos: u64,
    /// Cost of the merge that produced this report: the merging
    /// thread's on-CPU time (wall time where the CPU clock is
    /// unavailable) — the serial section at the snapshot boundary. It
    /// unions the shards' already-folded findings, gathers and sorts
    /// pointers to the outcomes, and folds closed churn windows; solving
    /// cells and folding their findings is shard work, counted in the
    /// shard times.
    pub merge_nanos: u64,
}

/// Window-lifecycle counters, summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetireStats {
    /// (URL × window) groups retired under the lateness horizon.
    pub windows_retired: u64,
    /// Cells solved at retirement time.
    pub cells_retired: u64,
    /// Observations dropped because their tomography window had already
    /// retired.
    pub late_dropped: u64,
    /// Churn samples dropped below the fold frontier.
    pub churn_late_dropped: u64,
}

/// Aggregate engine-side work counters (incremental-solve effectiveness).
/// The `Serialize` derive is the one list of them: bench reports print
/// it, and `bench replay` mirrors it into `churnlab_stats_<field path>`
/// gauges by walking the same serialization, so a field added here
/// reaches report and scrape alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Shard workers used.
    pub shards: usize,
    /// Converted observations routed to shards.
    pub observations: u64,
    /// Per-instance incremental-solve counters, summed over shards.
    pub incremental: IncrementalStats,
    /// Path-interner counters, summed over shards (a path routed to two
    /// shards counts as distinct in each — distinctness is per shard).
    /// Describes the *ingest* stream: in the deferred
    /// [`churnlab_core::pipeline::ChurnMode::FirstPathOnly`] ablation,
    /// where ingestion buffers rather than interns, these stay zero.
    /// Defaults on deserialize so pre-interning stats blobs still parse.
    #[serde(default)]
    pub interner: InternStats,
    /// Busy-time attribution for this report's cut. Defaults on
    /// deserialize so pre-accounting stats blobs still parse.
    #[serde(default)]
    pub busy: EngineBusy,
    /// SAT-solver work counters, summed over the shards' warm contexts
    /// (propagations, backtracks, censuses, models). Defaults on
    /// deserialize so pre-solver-stats blobs still parse.
    #[serde(default)]
    pub sat: CtxStats,
    /// Window-lifecycle counters. Defaults on deserialize so
    /// pre-lifecycle stats blobs still parse.
    #[serde(default)]
    pub retire: RetireStats,
}

/// The sharded, order-independent, incremental tomography engine.
///
/// Unlike the batch [`churnlab_core::pipeline::Pipeline`], the engine
/// accepts measurements in **any order** — there is no URL-grouping
/// contract — and keeps every (URL × window × anomaly) instance
/// incrementally solved as observations stream in.
/// [`Engine::ingest_owned`] routes the *raw* measurement to a shard
/// worker by `hash(url_id)` over a bounded channel; conversion (the
/// §3.1 elimination rules — the most expensive per-measurement stage)
/// runs **on the shard's thread**, so one ingesting caller drives N
/// shards' worth of conversion in parallel. A [`Feeder`] sends flat,
/// recycled blocks of measurements instead of the measurements
/// themselves, so what a feeding thread allocates it also frees.
/// `&self` ingestion means any number of feeder threads can share one
/// engine.
///
/// [`Engine::snapshot`] merges per-shard reports into a
/// [`PipelineResults`] without stopping ingestion; [`Engine::finish`]
/// does the same and shuts the workers down. Reports are
/// `PipelineResults`-compatible, so everything downstream — reports,
/// validation, the matrix harness — works unchanged, and
/// [`churnlab_core::report::CanonicalReport`] serializations are
/// byte-identical to the batch pipeline's over the same measurement
/// set.
pub struct Engine<'c> {
    /// The engine reads the topology once, at construction (the workers'
    /// country table); the borrow is kept in the type so a context
    /// outliving its engine stays part of the contract.
    topo: PhantomData<&'c churnlab_topology::Topology>,
    cfg: PipelineConfig,
    /// Window-retirement lateness horizon (see
    /// [`EngineConfig::window_horizon`]).
    horizon: Option<u32>,
    senders: Vec<SyncSender<Msg>>,
    /// Joined on shutdown, or eagerly by [`Engine::worker_died`] when a
    /// send fails — `Mutex` because `&self` senders may hit a dead
    /// worker concurrently and exactly one of them gets to join it.
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Engine-persistent retired state: what [`Engine::compact`] drained
    /// from the shards (findings, trivial counts) plus the globally
    /// folded churn tallies and fold frontier. Re-merged into every
    /// report, so draining retired cells never changes censor findings,
    /// leakage, churn distributions, or trivial accounting.
    retired: Mutex<EngineRetired>,
    /// Observability context; `None` is the stripped configuration the
    /// overhead gate baselines against (no registry, no atomics).
    obs: Option<Arc<EngineObs>>,
    /// Spent wire blocks: the workers give back what the feeders take.
    pool: Arc<BlockPool>,
}

/// See [`Engine::retired`].
#[derive(Default)]
struct EngineRetired {
    churn: RetiredChurn,
    churn_frontier: u32,
    findings: FindingsAccumulator,
    trivial: u64,
}

/// Deterministic URL → shard routing: round robin over the id.
///
/// URL ids are dense corpus indices (the platform's corpus and the
/// interop importer both hand them out sequentially), so modulo is the
/// *balanced* partition — every shard owns the same number of URLs ±1.
/// The avalanche hash this replaces looked more principled but binned a
/// small dense id space binomially: at 60 URLs over 8 shards the
/// busiest shard drew ~40% more URLs than the mean, and that partition
/// skew — not any serialization — capped 8-shard scaling efficiency at
/// ~0.6× linear.
fn shard_of(url_id: u32, n_shards: usize) -> usize {
    (url_id as usize) % n_shards
}

/// Render a worker's panic payload for re-raising with shard context.
fn payload_msg(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// The global churn watermark: the *minimum* high-water day across every
/// shard. `None` if any shard has seen no data yet — then no churn
/// window can be proven globally closed.
fn min_watermark(shards: impl Iterator<Item = Option<u32>>) -> Option<u32> {
    shards.min().flatten()
}

impl<'c> Engine<'c> {
    /// New engine over a platform (interpret the platform's measurements
    /// with the platform's own degraded IP-to-AS view).
    pub fn new(platform: &'c Platform<'c>, cfg: EngineConfig) -> Self {
        Self::with_context(platform.measured_ip2as(), &platform.world().topology, cfg)
    }

    /// New engine over externally supplied context — the entry point for
    /// imported measurement records, mirroring
    /// [`churnlab_core::pipeline::Pipeline::with_context`]. The shard
    /// workers convert on their own threads and outlive the borrow, so
    /// each holds a handle on the IP-to-AS database's shared table —
    /// nothing is copied.
    pub fn with_context(
        db: &churnlab_topology::Ip2AsDb,
        topo: &'c churnlab_topology::Topology,
        cfg: EngineConfig,
    ) -> Self {
        let n = cfg.resolved_shards().max(1);
        let countries = Arc::new(as_countries(topo));
        let states = (0..n)
            .map(|i| {
                let shard_obs = cfg.obs.as_ref().map(|o| ShardObs::new(o, i));
                ShardState::new(
                    cfg.pipeline.clone(),
                    cfg.window_horizon,
                    shard_obs,
                    Arc::clone(&countries),
                )
            })
            .collect();
        Self::spawn(db, cfg, states)
    }

    /// Spawn workers over pre-built shard states — shared by fresh
    /// construction and checkpoint restore, so both run the same worker.
    fn spawn(
        db: &churnlab_topology::Ip2AsDb,
        cfg: EngineConfig,
        states: Vec<ShardState>,
    ) -> Self {
        assert!(
            cfg.window_horizon.is_none() || cfg.pipeline.churn_mode != ChurnMode::FirstPathOnly,
            "window_horizon is incompatible with the FirstPathOnly ablation: \
             \"first path\" is only defined over the whole stream, so its \
             windows can never retire"
        );
        let pool = Arc::new(BlockPool::new(cfg.obs.as_ref().map(|o| o.wire_blocks.clone())));
        let mut senders = Vec::with_capacity(states.len());
        let mut workers = Vec::with_capacity(states.len());
        for (i, state) in states.into_iter().enumerate() {
            let (tx, rx) = sync_channel(QUEUE_CAPACITY);
            let (worker_db, worker_pool) = (db.clone(), Arc::clone(&pool));
            let handle = std::thread::Builder::new()
                .name(format!("churnlab-shard-{i}"))
                .spawn(move || run_worker(rx, state, worker_db, worker_pool))
                .expect("spawn shard worker");
            senders.push(tx);
            workers.push(Some(handle));
        }
        Engine {
            topo: PhantomData,
            cfg: cfg.pipeline,
            horizon: cfg.window_horizon,
            senders,
            workers: Mutex::new(workers),
            retired: Mutex::new(EngineRetired::default()),
            obs: cfg.obs,
            pool,
        }
    }

    /// The engine's observability context, if one was attached.
    pub fn obs(&self) -> Option<&EngineObs> {
        self.obs.as_deref()
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Send to a shard, turning a dead worker into a contextful panic
    /// instead of an unrelated `SendError` unwrap.
    pub(crate) fn send(&self, shard: usize, msg: Msg) {
        if self.senders[shard].send(msg).is_err() {
            self.worker_died(shard);
        }
    }

    /// A send or reply failed because shard `shard`'s worker is gone:
    /// join it and propagate its panic payload with shard context. A
    /// worker exiting without panicking while senders are live is a bug
    /// in its own right and panics too.
    #[cold]
    fn worker_died(&self, shard: usize) -> ! {
        let handle =
            self.workers.lock().unwrap_or_else(|e| e.into_inner())[shard].take();
        match handle.map(JoinHandle::join) {
            Some(Err(payload)) => {
                let msg = payload_msg(payload.as_ref());
                if let Some(obs) = &self.obs {
                    obs.worker_panic(shard, msg);
                }
                panic!("shard worker {shard} panicked: {msg}")
            }
            Some(Ok(())) => {
                panic!("shard worker {shard} exited with senders still live (engine bug)")
            }
            // Another thread already joined it and is propagating; this
            // thread still cannot make progress.
            None => panic!("shard worker {shard} is dead (joined elsewhere)"),
        }
    }

    /// Test instrumentation: make shard `shard`'s worker panic, so the
    /// worker-death propagation path can be exercised deterministically.
    /// Compiled only under the `test-instrumentation` feature; not part
    /// of the public API.
    #[cfg(feature = "test-instrumentation")]
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, shard: usize) {
        // An Err means the worker is already gone, which is fine — the
        // next real send will propagate.
        let _ = self.senders[shard].send(Msg::Poison);
    }

    /// Ingest one measurement, in any order relative to any other. The
    /// raw measurement is routed to its URL's shard — moved into the
    /// channel as it is, so the shard's thread frees it — and converted
    /// (the §3.1 elimination rules) there. Blocks only when that shard's
    /// bounded queue is full. A thread that ingests a stream should do it
    /// through a [`Feeder`].
    pub fn ingest_owned(&self, m: Measurement) {
        let shard = shard_of(m.url_id, self.senders.len());
        self.send(shard, Msg::Raw(m));
    }

    /// A buffering ingest handle for one feeder thread: measurements
    /// accumulate locally and ship to shards in chunks, amortizing the
    /// channel synchronization that [`Engine::ingest_owned`] pays per
    /// measurement — and keeping every measurement's allocations on the
    /// thread that made them. Spawn one per feeder thread; buffered
    /// measurements reach the shards when a chunk fills, at
    /// [`Feeder::flush`], or on drop — flush (or drop) every feeder
    /// before `snapshot` if the snapshot must include its tail.
    pub fn feeder(&self) -> Feeder<'_, 'c> {
        Feeder {
            engine: self,
            blocks: (0..self.senders.len()).map(|_| self.pool.take()).collect(),
            chunk: Feeder::DEFAULT_CHUNK,
        }
    }

    /// Send every shard the request `msg` builds around a reply channel
    /// and collect the answers in shard order. Each shard replies after
    /// draining everything enqueued before the request — a consistent cut
    /// per shard even while feeders keep ingesting.
    fn ask_shards<T>(&self, msg: impl Fn(SyncSender<T>) -> Msg) -> Vec<T> {
        let pending: Vec<_> = (0..self.senders.len())
            .map(|shard| {
                let (reply, rx) = sync_channel(1);
                self.send(shard, msg(reply));
                rx
            })
            .collect();
        pending
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| rx.recv().unwrap_or_else(|_| self.worker_died(shard)))
            .collect()
    }

    /// Collect one report per shard.
    fn collect_reports(&self, fin: bool) -> Vec<ShardReport> {
        self.ask_shards(|reply| Msg::Report { reply, fin })
    }

    /// With a horizon configured and every shard reporting a watermark,
    /// fold the churn windows of `churn` (a merged cut, the persistent
    /// retired tallies already adopted) that closed below the global
    /// watermark. Returns the watermark the shards should prune to, if
    /// it advanced. Runs under the retired lock, so concurrent cuts
    /// cannot interleave fold frontiers.
    fn fold_closed_churn(
        &self,
        ret: &mut EngineRetired,
        churn: &mut ChurnAccumulator,
        min_hw: Option<u32>,
    ) -> Option<u32> {
        churn.adopt_retired(&ret.churn, ret.churn_frontier);
        let hw = min_hw.filter(|_| self.horizon.is_some())?;
        // Folds even when the watermark has not moved: a cut collected
        // before its shard pruned still carries partials an earlier cut
        // folded, and the fold's stale check is what discards them.
        churn.fold_closed(hw);
        if hw <= ret.churn_frontier {
            return None;
        }
        let (folded, frontier) = churn.retired_state();
        ret.churn = folded.clone();
        ret.churn_frontier = frontier;
        Some(hw)
    }

    /// What a cut's shard accumulators merge into: the shards' own window
    /// config, nothing observed, so the first shard's windows are adopted
    /// by pointer.
    fn empty_churn(&self) -> ChurnAccumulator {
        ChurnAccumulator::windowed(&self.cfg.granularities, self.cfg.total_days, self.horizon)
    }

    /// Tell every shard to free its churn partials closed below `hw`.
    fn prune_churn(&self, hw: Option<u32>) {
        if let Some(hw) = hw {
            for shard in 0..self.senders.len() {
                self.send(shard, Msg::PruneChurn(hw));
            }
        }
    }

    fn merge(&self, reports: Vec<ShardReport>) -> (PipelineResults, EngineStats) {
        // The serial section's cost, on the same basis as the shard
        // workers': on-CPU time (immune to being descheduled under core
        // oversubscription), wall time as the fallback.
        let cpu0 = thread_cpu_nanos();
        let t0 = Instant::now();
        let mut stats = EngineStats { shards: self.senders.len(), ..Default::default() };
        let mut conversion = ConversionStats::default();
        let mut churn = self.empty_churn();
        let mut trivial = 0u64;
        let min_hw = min_watermark(reports.iter().map(|r| r.high_water));
        // Every cell was solved, and its findings folded, on its shard:
        // what is left is a union of small accumulators and one pointer
        // to each outcome.
        let mut acc = FindingsAccumulator::new();
        let n_cells = reports.iter().flat_map(|r| &r.groups).map(|g| g.cells.len()).sum();
        let mut outcomes = Vec::with_capacity(n_cells);
        for r in reports {
            stats.observations += r.observations;
            stats.incremental.merge(r.stats);
            stats.interner.merge(r.intern);
            stats.sat = stats.sat.merged(r.sat);
            stats.busy.shard_total_nanos += r.busy_nanos;
            stats.busy.shard_max_nanos = stats.busy.shard_max_nanos.max(r.busy_nanos);
            stats.retire.windows_retired += r.windows_retired;
            stats.retire.cells_retired += r.cells_retired;
            stats.retire.late_dropped += r.late_dropped;
            conversion.merge(r.conversion);
            trivial += r.trivial;
            churn.merge(r.churn);
            acc.merge(&r.findings);
            outcomes.extend(cloned_outcomes(&r.groups));
        }
        // One deterministic global order, whatever the shard layout.
        outcomes.sort_by_key(|o| o.key);
        stats.retire.churn_late_dropped = churn.late_dropped();
        // Fold in the engine's persistent retired state (what compaction
        // drained from the shards, and churn windows folded by earlier
        // cuts).
        let prune = {
            let mut ret = self.retired.lock().unwrap_or_else(|e| e.into_inner());
            trivial += ret.trivial;
            acc.merge(&ret.findings);
            self.fold_closed_churn(&mut ret, &mut churn, min_hw)
        };
        self.prune_churn(prune);
        let FindingsAccumulator { censor_findings, leakage, on_censored_path } = acc;
        stats.busy.merge_nanos = match (cpu0, thread_cpu_nanos()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => t0.elapsed().as_nanos() as u64,
        };
        if let Some(obs) = &self.obs {
            obs.phase_merge.add(stats.busy.merge_nanos);
        }
        let results = PipelineResults {
            outcomes,
            conversion,
            censor_findings,
            leakage,
            churn,
            trivial_instances: trivial,
            on_censored_path,
            config: self.cfg.clone(),
        };
        (results, stats)
    }

    /// Merge a point-in-time report without stopping ingestion. The cut
    /// is per-shard consistent: everything enqueued before the call is
    /// included — and because conversion is shard state, the conversion
    /// counters agree exactly with the cut (a [`Feeder`]'s unflushed
    /// tail is excluded from both).
    pub fn snapshot(&self) -> PipelineResults {
        let t0 = Instant::now();
        let results = self.merge(self.collect_reports(false)).0;
        if let Some(obs) = &self.obs {
            obs.snapshot_nanos.observe(t0.elapsed().as_nanos() as u64);
        }
        results
    }

    /// Drain every shard's retired outcomes — the daemon's memory
    /// reclamation step. The drained per-cell outcomes are returned
    /// (sorted by key) for the caller to emit or discard; their censor
    /// findings, leakage, observability horizon, trivial counts, and
    /// globally-closed churn windows fold into the engine's persistent
    /// retired state, so every aggregate in later reports stays exact —
    /// only the per-cell `outcomes` list of later reports no longer
    /// re-lists what was drained here.
    pub fn compact(&self) -> CompactReport {
        let cuts: Vec<CompactCut> = self.ask_shards(|reply| Msg::Compact { reply });
        let mut churn = self.empty_churn();
        let min_hw = min_watermark(cuts.iter().map(|c| c.high_water));
        let mut outcomes = Vec::new();
        let mut trivial = 0u64;
        let prune = {
            let mut ret = self.retired.lock().unwrap_or_else(|e| e.into_inner());
            for cut in cuts {
                churn.merge(cut.churn);
                trivial += cut.trivial;
                ret.findings.merge(&cut.findings);
                outcomes.extend(cloned_outcomes(&cut.groups));
            }
            ret.trivial += trivial;
            self.fold_closed_churn(&mut ret, &mut churn, min_hw)
        };
        self.prune_churn(prune);
        outcomes.sort_by_key(|o| o.key);
        CompactReport { outcomes, trivial }
    }

    /// Write a versioned binary checkpoint of the engine's full state:
    /// per-shard live groups, path tables, retired accumulators, and
    /// counters, plus the engine's own retired state. `cursor` is the
    /// caller's stream position and `user` an opaque caller blob (e.g.
    /// import counters); both come back verbatim from
    /// [`Engine::restore`]. The cut is per-shard consistent — everything
    /// enqueued before the call is included — so quiesce feeders (flush
    /// or [`Feeder::take_pending`]) first if the checkpoint must line up
    /// exactly with `cursor`. Checkpointing the same logical state twice
    /// produces byte-identical output.
    pub fn checkpoint<W: Write>(&self, cursor: u64, user: &[u8], w: &mut W) -> std::io::Result<()> {
        let blobs: Vec<Vec<u8>> = self.ask_shards(|reply| Msg::Checkpoint { reply });
        let mut e = Enc::default();
        e.buf.extend_from_slice(&MAGIC);
        e.u32(VERSION);
        e.u32(0); // reserved
        e.u64(cursor);
        e.bytes(user);
        e.str(&serde_json::to_string(&self.cfg).expect("pipeline config serializes"));
        e.u32(self.senders.len() as u32);
        e.opt_u32(self.horizon);
        {
            let ret = self.retired.lock().unwrap_or_else(|x| x.into_inner());
            ckpt::encode_retired_churn(&mut e, &ret.churn);
            e.u32(ret.churn_frontier);
            ckpt::encode_findings(&mut e, &ret.findings);
            e.u64(ret.trivial);
        }
        for blob in &blobs {
            e.bytes(blob);
            e.u64(fnv1a(blob.iter().copied()));
        }
        w.write_all(&e.buf)
    }

    /// Restore an engine from a checkpoint written by
    /// [`Engine::checkpoint`]. The configuration must match the
    /// checkpointing engine's — same pipeline config, same shard count
    /// (path ids and URL routing are shard-local, so resharding a
    /// checkpoint is not defined), same horizon. Returns the engine plus
    /// the stored cursor and user blob. Continuing the stream from
    /// `cursor` produces reports identical to an uninterrupted run's.
    pub fn restore(
        db: &churnlab_topology::Ip2AsDb,
        topo: &'c churnlab_topology::Topology,
        cfg: EngineConfig,
        r: &mut impl Read,
    ) -> Result<Restored<'c>, RestoreError> {
        fn c<T>(r: Result<T, String>) -> Result<T, RestoreError> {
            r.map_err(RestoreError::Corrupt)
        }
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes).map_err(RestoreError::Io)?;
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(RestoreError::Corrupt("bad magic — not a checkpoint".to_string()));
        }
        let mut d = Dec::new(&bytes[MAGIC.len()..]);
        let version = c(d.u32())?;
        if version != VERSION {
            return Err(RestoreError::Corrupt(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        let _reserved = c(d.u32())?;
        let cursor = c(d.u64())?;
        let user = c(d.bytes())?.to_vec();
        let stored_cfg = c(d.str())?;
        let our_cfg = serde_json::to_string(&cfg.pipeline).expect("pipeline config serializes");
        if stored_cfg != our_cfg {
            return Err(RestoreError::Mismatch(format!(
                "pipeline config differs from the checkpoint's: checkpoint {stored_cfg}, \
                 configured {our_cfg}"
            )));
        }
        let n_shards = c(d.u32())? as usize;
        let ours = cfg.resolved_shards().max(1);
        if n_shards != ours {
            return Err(RestoreError::Mismatch(format!(
                "checkpoint was taken with {n_shards} shards but the engine is configured \
                 for {ours}; path ids and URL routing are shard-local, so restore requires \
                 the same shard count"
            )));
        }
        let horizon = c(d.opt_u32())?;
        if horizon != cfg.window_horizon {
            return Err(RestoreError::Mismatch(format!(
                "checkpoint window horizon {horizon:?} differs from configured {:?}",
                cfg.window_horizon
            )));
        }
        let retired = EngineRetired {
            churn: c(ckpt::decode_retired_churn(&mut d))?,
            churn_frontier: c(d.u32())?,
            findings: c(ckpt::decode_findings(&mut d))?,
            trivial: c(d.u64())?,
        };
        let countries = Arc::new(as_countries(topo));
        let mut states = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let blob = c(d.bytes())?;
            let checksum = c(d.u64())?;
            if fnv1a(blob.iter().copied()) != checksum {
                return Err(RestoreError::Corrupt(format!("shard {shard} blob checksum mismatch")));
            }
            let shard_obs = cfg.obs.as_ref().map(|o| ShardObs::new(o, shard));
            let state = ShardState::decode(
                cfg.pipeline.clone(),
                horizon,
                shard_obs,
                Arc::clone(&countries),
                blob,
            )
            .map_err(|m| RestoreError::Corrupt(format!("shard {shard}: {m}")))?;
            states.push(state);
        }
        c(d.done())?;
        let engine = Self::spawn(db, cfg, states);
        *engine.retired.lock().unwrap_or_else(|e| e.into_inner()) = retired;
        Ok(Restored { engine, cursor, user })
    }

    /// Final report plus the engine-side work counters; shuts the shard
    /// workers down (propagating any worker panic with shard context).
    pub fn finish_with_stats(mut self) -> (PipelineResults, EngineStats) {
        let merged = self.merge(self.collect_reports(true));
        self.shutdown(true);
        merged
    }

    /// Final report; shuts the shard workers down.
    pub fn finish(self) -> PipelineResults {
        self.finish_with_stats().0
    }

    fn shutdown(&mut self, propagate: bool) {
        self.senders.clear(); // workers exit when the last sender drops
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for (shard, slot) in workers.iter_mut().enumerate() {
            if let Some(handle) = slot.take() {
                if let Err(payload) = handle.join() {
                    let msg = payload_msg(payload.as_ref());
                    if let Some(obs) = &self.obs {
                        obs.worker_panic(shard, msg);
                    }
                    if propagate {
                        panic!("shard worker {shard} panicked: {msg}");
                    }
                }
            }
        }
    }
}

impl Drop for Engine<'_> {
    fn drop(&mut self) {
        // Propagate a worker panic out of a plain drop too — but never
        // while already unwinding (a double panic aborts).
        let unwinding = std::thread::panicking();
        self.shutdown(!unwinding);
    }
}

/// What [`Engine::compact`] drained: the per-cell outcomes of every
/// retired window (sorted by instance key) and the trivial-cell count
/// that retired alongside them. Aggregates derived from these cells
/// remain inside the engine and keep appearing in later reports.
#[derive(Debug, Clone, Default)]
pub struct CompactReport {
    /// Solved outcomes of the drained retired cells, sorted by key — the
    /// allocations the shards solved them into.
    pub outcomes: Vec<Arc<InstanceOutcome>>,
    /// Trivial (all-clean) cells drained along with them.
    pub trivial: u64,
}

/// An engine resurrected by [`Engine::restore`], with the stream
/// position and caller blob stored at checkpoint time.
pub struct Restored<'c> {
    /// The restored engine, ready for further ingest.
    pub engine: Engine<'c>,
    /// Stream cursor passed to [`Engine::checkpoint`].
    pub cursor: u64,
    /// Opaque caller blob passed to [`Engine::checkpoint`].
    pub user: Vec<u8>,
}

/// A per-thread buffering ingest handle (see [`Engine::feeder`]).
///
/// What crosses the channel is not the measurements but a flat copy of
/// them: each one's scalars, hops and traceroute errors are copied into
/// the feeder's current block for the measurement's shard (conversion
/// happens shard-side), and the measurement itself is dropped at once,
/// here, on the thread that allocated it. A block that reaches the chunk
/// size ships as one message; the shard converts off it, folds, and
/// returns it to the engine's small pool, where this feeder — at every
/// ship and every flush — finds its next one. So per measurement a
/// feeder pays a routing modulo and a copy of ~30 hops into memory it
/// already owns, a feeder and a shard that keep pace allocate nothing on
/// the wire, and a feeder that flushes every few hundred measurements
/// before a snapshot reuses its blocks instead of regrowing a buffer
/// each time.
pub struct Feeder<'e, 'c> {
    engine: &'e Engine<'c>,
    /// The block being filled for each shard.
    blocks: Vec<Block>,
    chunk: usize,
}

impl Feeder<'_, '_> {
    /// Default per-shard chunk size. Sized for throughput: feeding is so
    /// cheap post-routing that channel synchronization dominates it, so
    /// chunks are big; live vantage feeds that want short unflushed
    /// tails before snapshots can shrink this via [`Feeder::with_chunk`].
    pub const DEFAULT_CHUNK: usize = 512;

    /// Override the per-shard chunk size (measurements buffered before a
    /// channel send; nothing ships before that many, short of a flush).
    /// Larger chunks amortize synchronization further at the cost of a
    /// longer unflushed tail before `snapshot`.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Ingest one measurement through this feeder's local blocks: copy
    /// it in, and free it here.
    pub fn ingest_owned(&mut self, m: Measurement) {
        let shard = shard_of(m.url_id, self.blocks.len());
        self.blocks[shard].push(&m);
        if self.blocks[shard].len() >= self.chunk {
            self.ship(shard);
        }
    }

    /// Send `shard` its block and start on a spent one from the pool.
    fn ship(&mut self, shard: usize) {
        let full = std::mem::replace(&mut self.blocks[shard], self.engine.pool.take());
        self.engine.send(shard, Msg::Block(full));
    }

    /// Ship every buffered measurement to its shard.
    pub fn flush(&mut self) {
        for shard in 0..self.blocks.len() {
            if !self.blocks[shard].is_empty() {
                self.ship(shard);
            }
        }
    }

    /// Take the unflushed tail instead of shipping it — the checkpoint
    /// cut protocol: take the tail, checkpoint the engine with a cursor
    /// that excludes it, then re-ingest the tail (or drop it, if the
    /// stream will be replayed from the cursor). The measurements come
    /// back as they went in, rebuilt from the blocks.
    pub fn take_pending(&mut self) -> Vec<Measurement> {
        let mut out = Vec::new();
        for block in &mut self.blocks {
            block.drain_into(&mut out);
        }
        out
    }
}

impl Drop for Feeder<'_, '_> {
    fn drop(&mut self) {
        let unwinding = std::thread::panicking();
        for (shard, block) in std::mem::take(&mut self.blocks).into_iter().enumerate() {
            if block.is_empty() {
                self.engine.pool.give(block);
            } else if unwinding {
                // Best-effort tail delivery while unwinding: a dead worker
                // must not turn one panic into an abort.
                let _ = self.engine.senders[shard].send(Msg::Block(block));
            } else {
                self.engine.send(shard, Msg::Block(block));
            }
        }
    }
}
