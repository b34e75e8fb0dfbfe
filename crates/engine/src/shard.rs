//! Shard-local state and the worker loop.
//!
//! Each shard owns the instances of its URL subset outright — no locks,
//! no sharing; cross-shard aggregation happens only when a report is
//! requested. A shard receives every measurement routed to it (any
//! order) — a feeder's flat [`Block`] of them as one [`Msg::Block`], a
//! directly ingested one inline as [`Msg::Raw`] — and answers
//! [`Msg::Report`] with a self-contained [`ShardReport`] the engine
//! merges on the caller's thread. Either way the worker reads the
//! measurements out of a block: a lone one is copied into a
//! worker-lifetime block of its own first, so there is one
//! convert-and-fold path. A feeder's block goes back to the engine's
//! [`BlockPool`] once folded, for the feeder to fill again; nothing the
//! feeder's thread allocated is freed here.
//!
//! The shard is where **conversion** happens: routing needs only the
//! measurement's `url_id`, so the §3.1 elimination rules (a per-hop
//! IP-to-AS lookup over three traceroutes) run on the shard's own thread
//! against a shared [`Ip2AsDb`]. One ingesting caller therefore drives
//! N shards' worth of conversion in parallel instead of converting
//! serially for all of them — the fix for the flat shard-scaling curve.
//! A side effect: conversion counters are shard state, so a report's
//! conversion accounting is exactly consistent with its cut.
//!
//! The shard is also where interning happens: every converted path is
//! resolved to a [`PathId`] against the shard-local [`PathTable`] — one
//! table probe per measurement, the path's churn hash read back by id
//! rather than recomputed — and the granularity×anomaly fan-out works on
//! the id alone. No observation is built on the way. **A block — a
//! feeder's chunk, or a lone measurement — is folded in four passes**,
//! each a tight loop over the whole block, each its own
//! `churnlab_phase_nanos_total` phase:
//!
//! 1. *convert*: the hops straight off the block's arena, through the
//!    shard's [`ConvertScratch`], into one [`Staged`] arena of paths;
//! 2. *intern*: every staged path to its [`PathId`], in block order (so
//!    ids are those of measurement-by-measurement ingest), and with it
//!    the block's churn batch — the measurement's scalar fields, the
//!    block's [`Head`], beside the path's stored hash;
//! 3. *churn*: the batch into the [`ChurnAccumulator`] in one
//!    [`ChurnAccumulator::add_batch`], window by window — churn never
//!    reads the shard's watermark, and its fold frontier moves only
//!    between blocks ([`Msg::PruneChurn`]), so it commutes with the rest;
//! 4. *observe*: measurement by measurement, in order — watermark,
//!    late drops, the (URL × window) groups' observe fan-out, retirement.
//!
//! Only a path the table has not seen is copied into its arena, and only
//! the Figure-4 ablation's deferred buffer owns whole observations (the
//! ablation interns nothing: its pass 2 hashes each path for the churn
//! batch directly).
//!
//! **Reports cost what changed.** A deployment reads the report over and
//! over while data is still arriving, and one ingest step touches a
//! handful of (URL × window) groups. So a group's report form — its
//! solved cells plus their censor-findings/leakage fold, a
//! [`SolvedGroup`] — is built here, where the cells and their paths
//! live, and kept behind an `Arc`: a report re-solves only the groups an
//! effective (non-duplicate) observation hit since the last one and
//! hands out pointer copies of the rest. A retired group moves into
//! every later report as the `Arc` it retired with, its findings folded
//! once into a per-shard accumulator that only grows. The merger never
//! sees a path id: it unions a few small accumulators. All of this is
//! derived state — never checkpointed, rebuilt after a restore, freed
//! with the group.
//!
//! The two parts a report used to copy whole are shared the same way.
//! Each cell's [`InstanceOutcome`] sits behind its own `Arc` from the
//! moment it is solved, so the outcome list a report (or a compaction)
//! hands out is one pointer a cell — through the merger's sort and the
//! canonical report's, down to the digest — instead of three `Vec`s a
//! cell, every retired cell, every time. And the shard's
//! [`ChurnAccumulator`] keeps its partials one map per open window
//! behind copy-on-write: `churn.clone()` copies one pointer per open
//! window (however long the configured period), the one-shard merger
//! adopts those pointers, and a block folded afterwards copies a window
//! only if it writes to it while a report still holds it — once for the
//! block, however many of its measurements land there.
//!
//! **Window lifecycle.** The shard tracks a high-water day watermark.
//! With a lateness horizon configured, any (URL × window) group whose
//! window ended more than `horizon` days below the watermark is
//! **retired**: its cells are solved once, journal
//! `cell_solved`/`window_closed` events fire, the outcomes move to a
//! compact retired list, and the solver state is freed. Observations for
//! an already-retired window are counted and dropped — an observation is
//! never late for its *own* window (a window containing day `d` ends at
//! or after `d`), so only genuinely stale data is affected. Retired
//! outcomes stay part of every later report until the engine drains them
//! through [`Msg::Compact`], which is what bounds shard memory on an
//! unbounded stream.

use crate::block::{Block, BlockPool, Head};
use crate::ckpt::{
    anomaly_from, anomaly_tag, ascending, granularity_from, granularity_tag, Dec, Enc,
};
use crate::incremental::{GroupDecoder, IncrementalStats, InstanceGroup, SolveScratch};
use crate::intern::{InternStats, PathTable};
use crate::obs::ShardObs;
use churnlab_bgp::TimeWindow;
use churnlab_core::accumulate::FindingsAccumulator;
use churnlab_core::analyze::{analyze_with, InstanceOutcome};
use churnlab_core::batch::{first_path_refs, for_each_instance};
use churnlab_core::convert::{ConversionStats, ConvertScratch};
use churnlab_core::instance::InstanceKey;
use churnlab_core::obs::{ConvertedObs, PathId};
use churnlab_core::pipeline::{ChurnMode, PipelineConfig};
use churnlab_core::churnstats::path_hash;
use churnlab_core::{BatchOrder, ChurnAccumulator, ChurnObs, ChurnWindowEntry};
use churnlab_obs::{BusyTimer, Counter, Stopwatch};
use churnlab_platform::Measurement;
use churnlab_sat::{CtxStats, Solvability, SolverCtx};
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{Asn, FxMap, FxSet, Ip2AsDb, Topology};
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;

/// A message to a shard worker.
pub(crate) enum Msg {
    /// One raw measurement for this shard's URL subset (direct
    /// [`crate::Engine::ingest_owned`] — carried inline: no
    /// per-measurement heap allocation on the send side; its vectors are
    /// freed here, on the worker's thread).
    Raw(Measurement),
    /// A feeder's chunk of raw measurements, flat; the worker returns
    /// the block to the engine's pool.
    Block(Block),
    /// Produce a report of everything processed so far. `fin` marks the
    /// engine's final cut: journal window-closed/cell-solved events are
    /// emitted only then (or earlier, at retirement), so the event
    /// stream reconciles exactly with one report instead of
    /// double-counting across snapshots.
    Report {
        reply: SyncSender<ShardReport>,
        fin: bool,
    },
    /// Drain the shard's retired outcomes (daemon memory reclamation).
    Compact { reply: SyncSender<CompactCut> },
    /// The engine folded churn windows closed below this global
    /// watermark into its retired tallies; the shard can free its
    /// matching partials.
    PruneChurn(u32),
    /// Serialize the shard's full state for a checkpoint, sending the
    /// blob in pieces as they are written; an empty piece ends it.
    Checkpoint { pieces: Sender<Vec<u8>> },
    /// Test instrumentation: panic the worker, so the engine's
    /// worker-death propagation can be exercised deterministically.
    #[cfg(feature = "test-instrumentation")]
    Poison,
}

/// Bytes a checkpoint blob is shipped in ([`ShardState::encode`]): small
/// enough that its checksum starts early, big enough that a blob is a
/// few dozen messages.
const PIECE: usize = 64 << 10;

/// AS → registered country: all the leakage analysis needs of the
/// topology. Shard workers are `'static` and cannot hold the engine's
/// `&Topology`, so they share this table the way they share the
/// [`Ip2AsDb`].
pub(crate) type AsCountries = FxMap<Asn, CountryCode>;

/// Extract the country table from a topology.
pub(crate) fn as_countries(topo: &Topology) -> AsCountries {
    topo.ases().iter().map(|info| (info.asn, info.country)).collect()
}

/// The table as the lookup [`FindingsAccumulator::record`] takes.
fn country_of(countries: &AsCountries) -> impl Fn(Asn) -> Option<CountryCode> + Copy + '_ {
    |a| countries.get(&a).copied()
}

/// One analysed instance: the outcome plus the ids of the censored paths
/// its leakage fold read (attached only when the instance pinned down a
/// censor). The ids outlive the fold because a retired cell's checkpoint
/// row stores them.
pub(crate) struct SolvedCell {
    pub outcome: Arc<InstanceOutcome>,
    pub censored_paths: Vec<PathId>,
}

/// A (URL × window) group's whole contribution to a report: its analysed
/// cells and their censor-findings/leakage fold. Immutable once built —
/// shared between the shard's cache, its retired list, and every report
/// that includes it.
#[derive(Default)]
pub(crate) struct SolvedGroup {
    pub cells: Vec<SolvedCell>,
    /// Trivial (no-positive) cells skipped under `require_positive`.
    pub trivial: u64,
    /// [`FindingsAccumulator::record`] over `cells`.
    pub findings: FindingsAccumulator,
}

impl SolvedGroup {
    /// Solve every cell of a live group. The group's variables are put
    /// in AS order once, for every cell it reports.
    fn of(
        group: &InstanceGroup,
        require_positive: bool,
        table: &PathTable,
        countries: &AsCountries,
    ) -> Self {
        let mut solved = SolvedGroup::default();
        let mut vars = None;
        for inst in group.cells() {
            if require_positive && !inst.has_positive() {
                solved.trivial += 1;
                continue;
            }
            let vars = vars.get_or_insert_with(|| group.vars_by_asn());
            let outcome = Arc::new(inst.outcome(vars));
            let censored_paths = if outcome.censors.is_empty() {
                Vec::new()
            } else {
                group.censored_paths(inst.key().anomaly).collect()
            };
            solved.push(SolvedCell { outcome, censored_paths }, table, countries);
        }
        solved
    }

    /// Journal the group's close: one `cell_solved` per reported cell,
    /// then the `window_closed` carrying the tallies.
    fn journal_close(&self, obs: &ShardObs, url_id: u32, window: TimeWindow) {
        for cell in &self.cells {
            obs.cell_solved(&cell.outcome);
        }
        obs.window_closed(url_id, window, self.cells.len() as u64, self.trivial);
    }

    /// Append one cell, folding it into the group's findings.
    fn push(&mut self, cell: SolvedCell, table: &PathTable, countries: &AsCountries) {
        self.findings.record(
            &cell.outcome,
            cell.censored_paths.iter().map(|id| table.path(*id)),
            country_of(countries),
        );
        self.cells.push(cell);
    }
}

/// Every outcome in `groups`, in order, by pointer — what a report or a
/// compaction hands the caller.
pub(crate) fn cloned_outcomes(
    groups: &[Arc<SolvedGroup>],
) -> impl Iterator<Item = Arc<InstanceOutcome>> + '_ {
    groups.iter().flat_map(|g| &g.cells).map(|c| Arc::clone(&c.outcome))
}

/// A live group and the report form of its cells as of the last
/// effective update — `None` until a report (or retirement) first asks
/// for it, and again after every effective observation.
struct LiveGroup {
    group: InstanceGroup,
    solved: Option<Arc<SolvedGroup>>,
}

/// Everything a shard contributes to a merged report.
pub(crate) struct ShardReport {
    /// Retired (not yet compacted) groups, then live ones.
    pub groups: Vec<Arc<SolvedGroup>>,
    pub trivial: u64,
    pub churn: ChurnAccumulator,
    /// Union of every group's findings, plus the shard's observability
    /// horizon (ASes on any censored path).
    pub findings: FindingsAccumulator,
    pub stats: IncrementalStats,
    pub intern: InternStats,
    /// Conversion accounting for every measurement routed here —
    /// exactly consistent with this report's cut.
    pub conversion: ConversionStats,
    /// Cumulative SAT-solver work counters of the first-path ablation's
    /// context (plus any work restored from a checkpoint); zero on every
    /// other path.
    pub sat: CtxStats,
    pub observations: u64,
    /// Highest day observed by this shard, `None` until data arrives.
    /// The engine folds churn windows only below the *minimum* watermark
    /// across all shards.
    pub high_water: Option<u32>,
    /// (URL × window) groups retired under the lateness horizon.
    pub windows_retired: u64,
    /// Cells solved at retirement time.
    pub cells_retired: u64,
    /// Observations dropped because their window had already retired.
    pub late_dropped: u64,
    /// Cumulative busy time of this worker (conversion + ingest +
    /// report building), in nanoseconds — the per-thread attribution the
    /// bench's scaling-efficiency model is built on.
    pub busy_nanos: u64,
}

/// A shard's answer to [`Msg::Compact`]: ownership of its retired
/// groups and their folded findings — after this cut the shard no longer
/// holds them.
pub(crate) struct CompactCut {
    pub high_water: Option<u32>,
    /// Clone of the shard's churn accumulator (its windows shared, not
    /// copied), so the engine can fold globally-closed windows during
    /// the same cut.
    pub churn: ChurnAccumulator,
    pub groups: Vec<Arc<SolvedGroup>>,
    pub trivial: u64,
    /// The drained groups' findings, already folded.
    pub findings: FindingsAccumulator,
}

/// One URL's deferred buffer for the Figure-4 ablation, where "first
/// path" is only defined once the whole stream is known. Kept sorted
/// lazily: appends in test order preserve sortedness for free, and a
/// report sorts at most once per out-of-order batch — repeated snapshots
/// never re-sort (or clone) an unchanged buffer.
struct DeferredBuf {
    obs: Vec<ConvertedObs>,
    sorted: bool,
}

impl DeferredBuf {
    fn push(&mut self, o: ConvertedObs) {
        if self.sorted {
            if let Some(last) = self.obs.last() {
                if last.test_order() > o.test_order() {
                    self.sorted = false;
                }
            }
        }
        self.obs.push(o);
    }

    /// Restore the runner's test order so "first distinct path" means
    /// what the batch pipeline means by it. No-op when already sorted.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.obs.sort_by_key(ConvertedObs::test_order);
            self.sorted = true;
        }
    }
}

/// A block between the worker's passes: for each measurement that
/// converted, its index in the block and the end of its path in one
/// shared arena (pass 1); its path's id — none under the ablation — and
/// its row of the churn batch (pass 2); and the order pass 3 folds that
/// batch in. Worker-lifetime, so a block costs no allocation.
#[derive(Default)]
pub(crate) struct Staged {
    converted: Vec<(usize, usize)>,
    paths: Vec<Asn>,
    ids: Vec<PathId>,
    churn: Vec<ChurnObs>,
    churn_order: BatchOrder,
}

/// Shard-local state.
pub(crate) struct ShardState {
    cfg: PipelineConfig,
    /// Lateness horizon in days: a window retires once the watermark
    /// passes `end_day + horizon`. `None` = groups live forever (the
    /// pre-lifecycle behavior, byte-identical results).
    horizon: Option<u32>,
    /// The shard-local path interner: each distinct path hashed and
    /// copied once, everything downstream id-based.
    table: PathTable,
    /// Incrementally solved instance groups (Normal churn mode), one per
    /// live (URL × window), each holding every anomaly cell — plus the
    /// cached report form of those cells.
    groups: FxMap<(u32, TimeWindow), LiveGroup>,
    /// Per-URL buffers for the Figure-4 ablation, processed (without
    /// consuming) at report time over the restored test order.
    deferred: FxMap<u32, DeferredBuf>,
    churn: ChurnAccumulator,
    /// Ids of paths that carried at least one detected anomaly (the
    /// checkpointed form of the observability horizon).
    censored_path_ids: FxSet<PathId>,
    /// The ASes on those paths — the observability horizon itself,
    /// extended when an id first enters `censored_path_ids`.
    on_censored_path: HashSet<Asn>,
    /// Shared AS → country table for the shard-side leakage fold.
    countries: Arc<AsCountries>,
    stats: IncrementalStats,
    conversion: ConversionStats,
    observations: u64,
    /// Highest day seen so far.
    high_water: Option<u32>,
    /// Retired groups in retirement order, part of every report until
    /// [`ShardState::compact_cut`] drains them. Path ids stay valid: the
    /// table never reassigns them.
    retired: Vec<Arc<SolvedGroup>>,
    /// Union of the `retired` groups' findings: each group is folded in
    /// once, when it retires, so a report pays for it by size, not by
    /// cell count.
    retired_findings: FindingsAccumulator,
    /// Trivial (no-positive) cells skipped at retirement, not yet
    /// drained by a compact cut.
    retired_trivial: u64,
    windows_retired: u64,
    cells_retired: u64,
    late_dropped: u64,
    /// SAT work counters restored from a checkpoint — `ctx` restarts at
    /// zero, so reports add this base back in.
    sat_base: CtxStats,
    /// Worker-owned re-solve scratch, shared by every instance on this
    /// shard.
    scratch: SolveScratch,
    /// The first-path ablation's solver: its batch `analyze` is the one
    /// place a shard runs a SAT census.
    ctx: SolverCtx,
    /// Where conversion writes each measurement's path.
    convert: ConvertScratch,
    /// Observability handles, `None` in the stripped configuration (the
    /// overhead gate's baseline): one predictable branch per use, no
    /// atomic ops at all.
    obs: Option<ShardObs>,
}

impl ShardState {
    pub(crate) fn new(
        cfg: PipelineConfig,
        horizon: Option<u32>,
        obs: Option<ShardObs>,
        countries: Arc<AsCountries>,
    ) -> Self {
        let mut scratch = SolveScratch::new();
        if let Some(o) = &obs {
            scratch.set_resolve_obs(o.resolve.clone());
        }
        // The engine merges shard accumulators into one of this very
        // config (`Engine::empty_churn`). The ablation never retires churn
        // windows because it never runs with a horizon (`Engine::spawn`).
        let churn = ChurnAccumulator::windowed(&cfg.granularities, cfg.total_days, horizon);
        ShardState {
            horizon,
            table: PathTable::new(),
            groups: FxMap::default(),
            deferred: FxMap::default(),
            churn,
            censored_path_ids: FxSet::default(),
            on_censored_path: HashSet::new(),
            countries,
            stats: IncrementalStats::default(),
            conversion: ConversionStats::default(),
            observations: 0,
            high_water: None,
            retired: Vec::new(),
            retired_findings: FindingsAccumulator::new(),
            retired_trivial: 0,
            windows_retired: 0,
            cells_retired: 0,
            late_dropped: 0,
            sat_base: CtxStats::default(),
            scratch,
            ctx: SolverCtx::new(),
            convert: ConvertScratch::default(),
            obs,
            cfg,
        }
    }

    /// Convert a block (the §3.1 elimination rules) and fold the
    /// surviving observations in. This is the engine's conversion site:
    /// it runs on the shard's own thread, in parallel across shards,
    /// whatever the feeder count — and it is the only one: a lone
    /// measurement is a block of one.
    ///
    /// The block goes through the module docs' four passes, each over
    /// the whole block: tight loops cost less shard time than one that
    /// alternates (measured, PRs 14 and 22), and an instrumented worker
    /// times the passes apart with one chained stopwatch — five clock
    /// reads per block, which is per measurement only for one sent on its
    /// own. Conversion, interning and group-fold order are those of
    /// measurement-by-measurement ingest, and the churn batch leaves what
    /// one-by-one adds leave, so results stay byte-identical.
    fn ingest_block(
        &mut self,
        block: &Block,
        db: &Ip2AsDb,
        staged: &mut Staged,
        mut phase: Option<&mut PhaseClock>,
    ) {
        if let Some(p) = &mut phase {
            p.measurements.add(block.len() as u64);
            p.sw.restart();
        }
        self.convert_block(block, db, staged);
        if let Some(p) = &mut phase {
            p.sw.lap(&p.convert);
        }
        self.intern_staged(block, staged);
        if let Some(p) = &mut phase {
            p.sw.lap(&p.intern);
        }
        self.churn.add_batch(&staged.churn, &mut staged.churn_order);
        if let Some(p) = &mut phase {
            p.sw.lap(&p.churn);
        }
        self.observe_staged(block, staged);
        if let Some(p) = &mut phase {
            p.sw.lap(&p.observe);
        }
    }

    /// Convert a block, straight off its hop arena, into `staged`
    /// without folding it in.
    fn convert_block(&mut self, block: &Block, db: &Ip2AsDb, staged: &mut Staged) {
        staged.converted.clear();
        staged.paths.clear();
        for (i, row) in block.rows().enumerate() {
            if let Some(path) = row.convert(db, &mut self.conversion, &mut self.convert) {
                staged.paths.extend_from_slice(path);
                staged.converted.push((i, staged.paths.len()));
            }
        }
    }

    /// Intern `block`'s staged paths, in conversion order, and lay out
    /// its churn batch — each path hashed once, when the table first sees
    /// it. The ablation interns nothing and hashes here.
    fn intern_staged(&mut self, block: &Block, staged: &mut Staged) {
        let Staged { converted, paths, ids, churn, .. } = staged;
        let ablation = self.cfg.churn_mode == ChurnMode::FirstPathOnly;
        ids.clear();
        churn.clear();
        let mut start = 0;
        for &(i, end) in converted.iter() {
            let path = &paths[start..end];
            start = end;
            let hash = if ablation {
                path_hash(path)
            } else {
                let pid = self.table.intern(path);
                ids.push(pid);
                self.table.churn_hash(pid)
            };
            let o = block.head(i);
            churn.push((o.vp_asn, o.dest_asn, o.day, hash));
        }
    }

    /// Fold `block`'s staged, interned conversions into the shard's
    /// watermark and groups, one measurement at a time, in conversion
    /// order.
    fn observe_staged(&mut self, block: &Block, staged: &Staged) {
        let mut start = 0;
        for (k, &(i, end)) in staged.converted.iter().enumerate() {
            let (o, path) = (block.head(i), &staged.paths[start..end]);
            start = end;
            self.observations += 1;
            if let Some(obs) = &self.obs {
                // The only per-measurement instrumentation: one relaxed
                // fetch_add on a thread-local counter slot.
                obs.observations.inc();
            }
            let advanced = self.high_water.is_none_or(|hw| o.day > hw);
            if advanced {
                self.high_water = Some(o.day);
            }
            match staged.ids.get(k) {
                Some(&pid) => self.observe(o, path, pid, advanced),
                None => self.defer(o, path),
            }
        }
    }

    /// The ablation's whole fold: keep the observation for report time.
    fn defer(&mut self, o: &Head, path: &[Asn]) {
        self.deferred
            .entry(o.url_id)
            .or_insert_with(|| DeferredBuf { obs: Vec::new(), sorted: true })
            .push(ConvertedObs {
                vp_id: o.vp_id,
                vp_asn: o.vp_asn,
                url_id: o.url_id,
                dest_asn: o.dest_asn,
                day: o.day,
                epoch: o.epoch,
                path: path.to_vec(),
                detected: o.detected,
            });
    }

    /// Fold one interned measurement into its (URL × window) groups:
    /// `o`'s scalar fields beside the path it converted to and that
    /// path's id. `advanced` = it moved the watermark.
    fn observe(&mut self, o: &Head, path: &[Asn], pid: PathId, advanced: bool) {
        // Any censored observation lands in at least one analysed
        // instance (its own anomaly's), so the observability horizon can
        // accumulate here without waiting for the report.
        if !o.detected.is_empty() && self.censored_path_ids.insert(pid) {
            self.on_censored_path.extend(path);
        }
        let cap = self.cfg.solve.count_cap;
        for &g in &self.cfg.granularities {
            let window = TimeWindow::of(o.day, g, self.cfg.total_days);
            if self.window_retired(window) {
                // The window already retired under the horizon: its
                // outcome is fixed and its state freed. Count and drop.
                self.late_dropped += 1;
                continue;
            }
            let live = match self.groups.entry((o.url_id, window)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    if let Some(obs) = &self.obs {
                        obs.window_opened(o.url_id, window);
                    }
                    e.insert(LiveGroup {
                        group: InstanceGroup::new(o.url_id, window),
                        solved: None,
                    })
                }
            };
            if live.group.observe(
                pid,
                &self.table,
                o.detected,
                cap,
                &mut self.stats,
                &mut self.scratch,
            ) {
                live.solved = None;
            }
        }
        if advanced && self.horizon.is_some() {
            self.retire_closed();
        }
    }

    /// True when `window` closed below the watermark-minus-horizon line —
    /// i.e. it either has retired already or would retire immediately.
    fn window_retired(&self, window: TimeWindow) -> bool {
        let (Some(h), Some(hw)) = (self.horizon, self.high_water) else {
            return false;
        };
        window.closed_below(self.cfg.total_days, h, hw)
    }

    /// Retire every live group whose window fell behind the horizon:
    /// solve its cells once, emit the journal close, move them to the
    /// retired list, and free the solver state. Retirement order is
    /// sorted by (URL, window) so journal and retired-cell order never
    /// depend on hash-map iteration.
    fn retire_closed(&mut self) {
        let mut keys: Vec<(u32, TimeWindow)> = self
            .groups
            .keys()
            .filter(|&&(_, w)| self.window_retired(w))
            .copied()
            .collect();
        if keys.is_empty() {
            return;
        }
        keys.sort_unstable();
        for key in keys {
            let live = self.groups.remove(&key).expect("key just listed");
            self.retire_group(key.0, key.1, live);
        }
    }

    /// Move one removed group to the retired list — as the `Arc` the
    /// last report already built, if nothing hit the group since —
    /// folding its findings into the retired accumulator.
    fn retire_group(&mut self, url_id: u32, window: TimeWindow, live: LiveGroup) {
        let solved = live.solved.unwrap_or_else(|| {
            let require_positive = self.cfg.require_positive;
            Arc::new(SolvedGroup::of(&live.group, require_positive, &self.table, &self.countries))
        });
        if let Some(obs) = &self.obs {
            solved.journal_close(obs, url_id, window);
        }
        self.retired_trivial += solved.trivial;
        self.cells_retired += solved.cells.len() as u64;
        self.windows_retired += 1;
        self.retired_findings.merge(&solved.findings);
        self.retired.push(solved);
    }

    /// Produce a report of everything processed so far. Non-destructive
    /// for the tomography state — the shard keeps ingesting afterwards;
    /// `&mut` so stale group caches can be refreshed, deferred ablation
    /// buffers sorted in place (at most once per out-of-order batch) and
    /// the ablation's solver reused. `fin` marks the engine's final
    /// cut: only then are journal window-closed / cell-solved events
    /// emitted for *live* groups (retired groups emitted theirs at
    /// retirement — once per window, once per cell, so the journal
    /// reconciles exactly with this report).
    pub(crate) fn report(&mut self, fin: bool) -> ShardReport {
        // Retired groups not yet drained by a compact cut are part of
        // every report: pointer copies, plus their one-time fold.
        let mut groups = self.retired.clone();
        let mut findings = self.retired_findings.clone();
        let mut trivial = self.retired_trivial;
        match self.cfg.churn_mode {
            ChurnMode::Normal => {
                let ShardState { cfg, groups: live_groups, table, countries, obs, .. } = self;
                let require_positive = cfg.require_positive;
                let mut rebuilt = 0u64;
                for (&(url_id, window), live) in live_groups.iter_mut() {
                    let solved = live.solved.get_or_insert_with(|| {
                        rebuilt += 1;
                        Arc::new(SolvedGroup::of(&live.group, require_positive, table, countries))
                    });
                    trivial += solved.trivial;
                    findings.merge(&solved.findings);
                    if let (true, Some(obs)) = (fin, &*obs) {
                        solved.journal_close(obs, url_id, window);
                    }
                    groups.push(Arc::clone(solved));
                }
                if let Some(obs) = obs {
                    obs.groups_rebuilt.add(rebuilt);
                    obs.groups_reused.add(live_groups.len() as u64 - rebuilt);
                }
                findings.on_censored_path.extend(&self.on_censored_path);
            }
            // "First path" is only defined over the whole stream so far,
            // so the ablation re-derives its cells per report: nothing
            // here is incremental, and nothing is cached.
            ChurnMode::FirstPathOnly => {
                let ShardState { cfg, deferred, ctx, countries, .. } = self;
                let country_of = country_of(countries);
                let mut solved = SolvedGroup::default();
                for (&url_id, buf) in deferred.iter_mut() {
                    buf.ensure_sorted();
                    // Non-destructive first-path filter over the sorted
                    // buffer: the kept observations are borrowed, never
                    // cloned, and the buffer survives for later (larger)
                    // snapshots.
                    let kept = first_path_refs(&buf.obs);
                    for_each_instance(
                        url_id,
                        &kept,
                        &cfg.granularities,
                        cfg.total_days,
                        |builder| {
                            if cfg.require_positive && !builder.has_positive() {
                                solved.trivial += 1;
                                return;
                            }
                            let inst = builder.build().expect("non-empty builder");
                            let outcome = analyze_with(&inst, &cfg.solve, ctx);
                            let censored: Vec<&[Asn]> = inst
                                .observations
                                .iter()
                                .filter(|o| o.censored)
                                .map(|o| o.path.as_slice())
                                .collect();
                            solved.findings.record(&outcome, censored, country_of);
                            solved.cells.push(SolvedCell {
                                outcome: Arc::new(outcome),
                                censored_paths: Vec::new(),
                            });
                        },
                    );
                }
                trivial += solved.trivial;
                findings.merge(&solved.findings);
                groups.push(Arc::new(solved));
            }
        }
        ShardReport {
            groups,
            trivial,
            churn: self.churn.clone(),
            findings,
            stats: self.stats,
            intern: self.table.stats(),
            conversion: self.conversion,
            sat: self.sat_base.merged(self.ctx.stats()),
            observations: self.observations,
            high_water: self.high_water,
            windows_retired: self.windows_retired,
            cells_retired: self.cells_retired,
            late_dropped: self.late_dropped,
            busy_nanos: 0, // stamped by the worker loop
        }
    }

    /// Hand the retired groups (and their folded findings, which the
    /// engine unions into its persistent retired state) to the caller,
    /// freeing them shard-side. This is the memory-reclamation half of
    /// the window lifecycle; after this, reports no longer carry the
    /// drained cells.
    pub(crate) fn compact_cut(&mut self) -> CompactCut {
        CompactCut {
            high_water: self.high_water,
            churn: self.churn.clone(),
            groups: std::mem::take(&mut self.retired),
            trivial: std::mem::take(&mut self.retired_trivial),
            findings: std::mem::take(&mut self.retired_findings),
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint encode/decode.

/// Serialize one analysed outcome (retired cells cross checkpoints).
fn encode_outcome(e: &mut Enc, o: &InstanceOutcome) {
    e.u32(o.key.url_id);
    e.u8(anomaly_tag(o.key.anomaly));
    e.window(o.key.window);
    e.u64(o.n_vars as u64);
    e.u64(o.n_observations as u64);
    e.u64(o.n_positive as u64);
    e.u8(match o.solvability {
        Solvability::Unsat => 0,
        Solvability::Unique => 1,
        Solvability::Multiple => 2,
    });
    e.u8(o.bucket);
    e.asns(&o.censors);
    e.asns(&o.potential_censors);
    e.asns(&o.eliminated);
    e.f64(o.eliminated_frac);
}

fn decode_outcome(d: &mut Dec) -> Result<InstanceOutcome, String> {
    let url_id = d.u32()?;
    let anomaly = anomaly_from(d.u8()?)?;
    let window = d.window()?;
    let n_vars = d.u64()? as usize;
    let n_observations = d.u64()? as usize;
    let n_positive = d.u64()? as usize;
    let solvability = match d.u8()? {
        0 => Solvability::Unsat,
        1 => Solvability::Unique,
        2 => Solvability::Multiple,
        t => return Err(format!("bad solvability tag {t}")),
    };
    let bucket = d.u8()?;
    let censors = d.asns()?;
    let potential_censors = d.asns()?;
    let eliminated = d.asns()?;
    let eliminated_frac = d.f64()?;
    // What every producer of an outcome guarantees, and the findings
    // fold the retired cells are refolded through relies on.
    ascending(&censors, "an outcome's censors")?;
    ascending(&potential_censors, "an outcome's potential censors")?;
    ascending(&eliminated, "an outcome's eliminated ASes")?;
    if solvability == Solvability::Unsat
        && !(censors.is_empty() && potential_censors.is_empty() && eliminated.is_empty())
    {
        return Err("an unsatisfiable outcome lists ASes".to_string());
    }
    Ok(InstanceOutcome {
        key: InstanceKey { url_id, anomaly, window },
        n_vars,
        n_observations,
        n_positive,
        solvability,
        bucket,
        censors,
        potential_censors,
        eliminated,
        eliminated_frac,
    })
}

/// Bytes a retired cell takes at the least: an outcome with three empty
/// AS lists, and an empty censored-path list.
const RETIRED_CELL_MIN: usize = 4 + 1 + 5 + 3 * 8 + 2 + 3 * 8 + 8 + 8;

fn encode_cell(e: &mut Enc, c: &SolvedCell) {
    encode_outcome(e, &c.outcome);
    let ids: Vec<u32> = c.censored_paths.iter().map(|p| p.0).collect();
    e.u32s(&ids);
}

fn decode_cell(d: &mut Dec, n_paths: usize) -> Result<SolvedCell, String> {
    let outcome = Arc::new(decode_outcome(d)?);
    let mut censored_paths = Vec::new();
    for id in d.u32s()? {
        if id as usize >= n_paths {
            return Err(format!("retired cell references unknown path {id}"));
        }
        censored_paths.push(PathId(id));
    }
    Ok(SolvedCell { outcome, censored_paths })
}

fn encode_churn_row(e: &mut Enc, row: &ChurnWindowEntry) {
    e.u8(granularity_tag(row.granularity));
    e.u32(row.vp.0);
    e.u32(row.dest.0);
    e.u32(row.window);
    e.u64s(row.hashes);
    e.u64(row.count);
}

/// Bytes a churn row takes at the least: tag, vantage, destination,
/// window, hash count, observation count.
const CHURN_ROW_MIN: usize = 1 + 3 * 4 + 2 * 8;

fn encode_converted(e: &mut Enc, o: &ConvertedObs) {
    e.u32(o.vp_id);
    e.u32(o.vp_asn.0);
    e.u32(o.url_id);
    e.u32(o.dest_asn.0);
    e.u32(o.day);
    e.u32(o.epoch);
    e.asns(&o.path);
    e.anomaly_set(o.detected);
}

fn decode_converted(d: &mut Dec) -> Result<ConvertedObs, String> {
    Ok(ConvertedObs {
        vp_id: d.u32()?,
        vp_asn: Asn(d.u32()?),
        url_id: d.u32()?,
        dest_asn: Asn(d.u32()?),
        day: d.u32()?,
        epoch: d.u32()?,
        path: d.asns()?,
        detected: d.anomaly_set()?,
    })
}

impl ShardState {
    /// Serialize the shard's full state, handing `ship` the blob in
    /// pieces of about [`PIECE`] bytes, in order, as they are written —
    /// so whoever checksums the blob can start before it is finished.
    /// Every collection is written in sorted order, so encoding the same
    /// logical state twice yields identical bytes.
    pub(crate) fn encode(&self, mut ship: impl FnMut(Vec<u8>)) {
        let mut e = Enc { buf: Vec::with_capacity(2 * PIECE) };
        e.u64(self.observations);
        e.u64(self.conversion.converted);
        for dcount in self.conversion.discarded {
            e.u64(dcount);
        }
        e.u64(self.stats.updates);
        e.u64(self.stats.duplicates);
        e.u64(self.stats.direct_updates);
        e.u64(self.stats.unsat_skips);
        e.u64(self.stats.resolves);
        let sat = self.sat_base.merged(self.ctx.stats());
        e.u64(sat.propagations);
        e.u64(sat.backtracks);
        e.u64(sat.censuses);
        e.u64(sat.census_models);
        e.opt_u32(self.high_water);
        e.u64(self.windows_retired);
        e.u64(self.cells_retired);
        e.u64(self.late_dropped);
        e.u64(self.retired_trivial);
        self.table.encode(&mut e);
        // The table is the largest section written before the churn rows
        // are sorted: ship it first.
        e.ship_at(PIECE, &mut ship);
        let mut censored: Vec<u32> = self.censored_path_ids.iter().map(|p| p.0).collect();
        censored.sort_unstable();
        e.u32s(&censored);
        let (gs, total_days, horizon, entries, frontier, late) =
            self.churn.export_windowed();
        e.u64(gs.len() as u64);
        for g in gs {
            e.u8(granularity_tag(*g));
        }
        e.u32(total_days);
        e.opt_u32(horizon);
        e.u64(entries.len() as u64);
        for entry in &entries {
            encode_churn_row(&mut e, entry);
        }
        e.u32(frontier);
        e.u64(late);
        let mut keys: Vec<(u32, TimeWindow)> = self.groups.keys().copied().collect();
        keys.sort_unstable();
        e.u64(keys.len() as u64);
        for (url_id, window) in keys {
            e.ship_at(PIECE, &mut ship);
            e.u32(url_id);
            e.window(window);
            self.groups[&(url_id, window)].group.encode(&mut e);
        }
        // Retired groups are stored as the flat cell list they are: the
        // grouping (like every cache here) is derived state.
        e.u64(self.retired.iter().map(|g| g.cells.len() as u64).sum());
        for cell in self.retired.iter().flat_map(|g| &g.cells) {
            encode_cell(&mut e, cell);
        }
        let mut urls: Vec<u32> = self.deferred.keys().copied().collect();
        urls.sort_unstable();
        e.u64(urls.len() as u64);
        for url in urls {
            let buf = &self.deferred[&url];
            e.u32(url);
            e.u8(u8::from(buf.sorted));
            e.u64(buf.obs.len() as u64);
            for o in &buf.obs {
                encode_converted(&mut e, o);
            }
        }
        if !e.buf.is_empty() {
            ship(e.buf);
        }
    }

    /// The whole blob [`ShardState::encode`] ships in pieces.
    #[cfg(test)]
    pub(crate) fn blob(&self) -> Vec<u8> {
        let mut blob = Vec::new();
        self.encode(|piece| blob.extend_from_slice(&piece));
        blob
    }

    /// Rebuild a shard from its encoded form. `cfg`/`horizon`/`obs` come
    /// from the restoring engine (the checkpoint header already verified
    /// they match the checkpointing engine's). The restored `windows_open`
    /// gauge is seeded from the live group count *without* journal
    /// events: a restored journal narrates the post-restore stream only.
    /// Derived state comes back cold: live groups re-solve at the first
    /// report that wants them, and the retired cells' findings are
    /// refolded here, once.
    pub(crate) fn decode(
        cfg: PipelineConfig,
        horizon: Option<u32>,
        obs: Option<ShardObs>,
        countries: Arc<AsCountries>,
        bytes: &[u8],
    ) -> Result<ShardState, String> {
        let mut d = Dec::new(bytes);
        let mut state = ShardState::new(cfg, horizon, obs, countries);
        state.observations = d.u64()?;
        state.conversion.converted = d.u64()?;
        for dcount in &mut state.conversion.discarded {
            *dcount = d.u64()?;
        }
        state.stats.updates = d.u64()?;
        state.stats.duplicates = d.u64()?;
        state.stats.direct_updates = d.u64()?;
        state.stats.unsat_skips = d.u64()?;
        state.stats.resolves = d.u64()?;
        state.sat_base = CtxStats {
            propagations: d.u64()?,
            backtracks: d.u64()?,
            censuses: d.u64()?,
            census_models: d.u64()?,
        };
        state.high_water = d.opt_u32()?;
        state.windows_retired = d.u64()?;
        state.cells_retired = d.u64()?;
        state.late_dropped = d.u64()?;
        state.retired_trivial = d.u64()?;
        state.table = PathTable::decode(&mut d)?;
        let n_paths = state.table.len();
        for id in d.u32s()? {
            if id as usize >= n_paths {
                return Err(format!("censored path id {id} out of range"));
            }
            state.censored_path_ids.insert(PathId(id));
            state.on_censored_path.extend(state.table.path(PathId(id)));
        }
        let n_gs = d.len()?;
        let mut gs = Vec::with_capacity(n_gs);
        for _ in 0..n_gs {
            gs.push(granularity_from(d.u8()?)?);
        }
        let total_days = d.u32()?;
        let churn_horizon = d.opt_u32()?;
        if gs != state.cfg.granularities
            || total_days != state.cfg.total_days
            || churn_horizon != state.horizon
        {
            return Err("churn window config does not match the engine's".to_string());
        }
        // Each row goes straight into its window's map: its hashes are
        // read into one buffer reused for every row, and copied once, into
        // the map's inline slots (or one spilled list).
        let n_entries = d.count(CHURN_ROW_MIN)?;
        let mut import = ChurnAccumulator::import_windowed(&gs, total_days, churn_horizon);
        let mut hashes = Vec::new();
        for _ in 0..n_entries {
            let granularity = granularity_from(d.u8()?)?;
            let (vp, dest, window) = (Asn(d.u32()?), Asn(d.u32()?), d.u32()?);
            hashes.clear();
            hashes.extend(d.u64_items()?);
            let count = d.u64()?;
            let row = ChurnWindowEntry { granularity, vp, dest, window, hashes: &hashes, count };
            import.row(row).map_err(|e| e.to_string())?;
        }
        let frontier = d.u32()?;
        let late = d.u64()?;
        state.churn = import.finish(frontier, late).map_err(|e| e.to_string())?;
        let n_groups = d.len()?;
        state.groups.reserve(n_groups);
        let mut groups = GroupDecoder::new(n_paths);
        for _ in 0..n_groups {
            let url_id = d.u32()?;
            let window = d.window()?;
            let group = groups.decode(url_id, window, &mut d)?;
            if state.groups.insert((url_id, window), LiveGroup { group, solved: None }).is_some() {
                return Err(format!("duplicate group ({url_id}, {window})"));
            }
        }
        let n_retired = d.count(RETIRED_CELL_MIN)?;
        if n_retired > 0 {
            let mut restored = SolvedGroup::default();
            restored.cells.reserve_exact(n_retired);
            for _ in 0..n_retired {
                restored.push(decode_cell(&mut d, n_paths)?, &state.table, &state.countries);
            }
            state.retired_findings.merge(&restored.findings);
            state.retired.push(Arc::new(restored));
        }
        let n_urls = d.len()?;
        for _ in 0..n_urls {
            let url = d.u32()?;
            let sorted = match d.u8()? {
                0 => false,
                1 => true,
                t => return Err(format!("bad sorted flag {t}")),
            };
            let n_obs = d.len()?;
            let mut obs_vec = Vec::with_capacity(n_obs.min(1 << 20));
            for _ in 0..n_obs {
                obs_vec.push(decode_converted(&mut d)?);
            }
            if state.deferred.insert(url, DeferredBuf { obs: obs_vec, sorted }).is_some() {
                return Err(format!("duplicate deferred buffer for url {url}"));
            }
        }
        d.done()?;
        if let Some(o) = &state.obs {
            o.windows_open.add(state.groups.len() as i64);
        }
        Ok(state)
    }
}

/// Phase-attribution handles the worker loop drives directly (cloned
/// out of the shard's [`ShardObs`] so the loop can time around `&mut
/// state` calls) and the worker-lifetime stopwatch that laps them: one
/// clock probe per instrumented worker, none per block, none at all in
/// the stripped configuration.
struct PhaseClock {
    measurements: Counter,
    convert: Counter,
    intern: Counter,
    churn: Counter,
    observe: Counter,
    snapshot: Counter,
    sw: Stopwatch,
}

/// The worker loop: drain messages until every sender is gone,
/// converting and solving on this thread and attributing the busy time
/// spent doing it (the scaling-efficiency model's raw data). The state
/// is built (or checkpoint-decoded) on the spawning thread, so a
/// restored engine and a fresh one share one worker.
///
/// Busy accounting runs on [`BusyTimer`]: the thread's cumulative
/// on-CPU clock where there is one (a blocked `recv` costs no CPU, so
/// the whole on-CPU time is the shard's busy time), accumulated wall
/// intervals around each message elsewhere (overstated under core
/// oversubscription, but better than nothing on non-Linux hosts).
pub(crate) fn run_worker(
    rx: Receiver<Msg>,
    block_slots: Receiver<()>,
    mut state: ShardState,
    db: Ip2AsDb,
    pool: Arc<BlockPool>,
) {
    let mut phase = state.obs.as_ref().map(|o| PhaseClock {
        measurements: o.measurements.clone(),
        convert: o.phase_convert.clone(),
        intern: o.phase_intern.clone(),
        churn: o.phase_churn.clone(),
        observe: o.phase_observe.clone(),
        snapshot: o.phase_snapshot.clone(),
        sw: Stopwatch::new(),
    });
    let mut busy = BusyTimer::detect();
    // Blocks convert into this worker-lifetime arena, so a block costs
    // no allocation.
    let mut staged = Staged::default();
    // Where a measurement sent on its own is laid flat, so it takes the
    // blocks' arm.
    let mut lone = Block::default();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Raw(m) => busy.interval(|| {
                lone.clear();
                lone.push(&m);
                state.ingest_block(&lone, &db, &mut staged, phase.as_mut())
            }),
            Msg::Block(block) => {
                busy.interval(|| state.ingest_block(&block, &db, &mut staged, phase.as_mut()));
                pool.give(block);
                // Free the block's slot (a feeder unwinding ships its
                // tail without one, so there may be none to free).
                let _ = block_slots.try_recv();
            }
            Msg::Report { reply, fin } => {
                let mut report = busy.interval(|| match &mut phase {
                    None => state.report(fin),
                    Some(p) => {
                        p.sw.restart();
                        let report = state.report(fin);
                        p.sw.lap(&p.snapshot);
                        report
                    }
                });
                report.busy_nanos = busy.busy_nanos();
                // A dropped reply channel means the requester gave up;
                // the shard itself is still healthy.
                drop(reply.send(report));
            }
            Msg::Compact { reply } => {
                let cut = busy.interval(|| state.compact_cut());
                drop(reply.send(cut));
            }
            Msg::PruneChurn(min_hw) => busy.interval(|| state.churn.prune_closed(min_hw)),
            Msg::Checkpoint { pieces } => {
                // A failed send means the requester gave up.
                busy.interval(|| state.encode(|piece| drop(pieces.send(piece))));
                drop(pieces.send(Vec::new()));
            }
            #[cfg(feature = "test-instrumentation")]
            Msg::Poison => panic!("poisoned by test instrumentation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_bgp::{ChurnConfig, Granularity, RoutingSim};
    use churnlab_censor::{CensorConfig, CensorshipScenario};
    use churnlab_platform::{AnomalyType, Platform, PlatformConfig, PlatformScale};
    use churnlab_topology::{generator, WorldConfig, WorldScale};

    fn row_bytes(row: &ChurnWindowEntry) -> Vec<u8> {
        let mut e = Enc::default();
        encode_churn_row(&mut e, row);
        e.buf
    }

    /// `blob` with its one occurrence of `old` overwritten by `new`.
    fn splice(blob: &[u8], old: &[u8], new: &[u8]) -> Vec<u8> {
        assert_eq!(old.len(), new.len(), "an in-place fault keeps every length prefix true");
        let at: Vec<usize> =
            (0..=blob.len() - old.len()).filter(|&i| blob[i..].starts_with(old)).collect();
        assert_eq!(at.len(), 1, "the row's bytes (a 64-bit path hash among them) occur once");
        let mut out = blob.to_vec();
        out[at[0]..at[0] + new.len()].copy_from_slice(new);
        out
    }

    /// A Smoke study folded into one shard as one block, horizon 7, and
    /// what a test needs to restore its blob.
    struct RealShard {
        cfg: PipelineConfig,
        total_days: u32,
        countries: Arc<AsCountries>,
        db: Ip2AsDb,
        measurements: Vec<Measurement>,
        state: ShardState,
        blob: Vec<u8>,
    }

    impl RealShard {
        fn build() -> RealShard {
            let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 23));
            let mut censor_cfg = CensorConfig::scaled_for(world.topology.countries().len());
            let mut platform_cfg = PlatformConfig::preset(PlatformScale::Smoke, 24);
            platform_cfg.n_urls = 4;
            censor_cfg.total_days = platform_cfg.total_days;
            let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
            let platform = Platform::new(&world, &scenario, platform_cfg.clone());
            let churn_cfg =
                ChurnConfig { total_days: platform_cfg.total_days, ..ChurnConfig::default() };
            let sim = RoutingSim::new(&world.topology, &churn_cfg);
            let (measurements, _) = platform.run_collect_parallel(&sim, 1);

            // No year granularity, so a row can name one the shard lacks.
            let mut cfg = PipelineConfig::paper(platform_cfg.total_days);
            cfg.granularities = Granularity::SUB_YEAR.to_vec();
            let countries = Arc::new(as_countries(&world.topology));
            let db = platform.measured_ip2as().clone();
            let mut shard = RealShard {
                state: ShardState::new(cfg.clone(), Some(7), None, Arc::clone(&countries)),
                cfg,
                total_days: platform_cfg.total_days,
                countries,
                db,
                measurements,
                blob: Vec::new(),
            };
            let mut block = Block::default();
            shard.measurements.iter().for_each(|m| block.push(m));
            shard.state.ingest_block(&block, &shard.db, &mut Staged::default(), None);
            shard.blob = shard.state.blob();
            let restored = shard
                .decode(&shard.blob)
                .unwrap_or_else(|e| panic!("the untouched blob restores: {e}"));
            assert_eq!(restored.blob(), shard.blob, "restore → encode reproduces the bytes");
            shard
        }

        fn fresh(&self) -> ShardState {
            ShardState::new(self.cfg.clone(), Some(7), None, Arc::clone(&self.countries))
        }

        fn decode(&self, bytes: &[u8]) -> Result<ShardState, String> {
            ShardState::decode(self.cfg.clone(), Some(7), None, Arc::clone(&self.countries), bytes)
        }

        /// Each fault in turn restores to an error carrying its name —
        /// never a panic, never a silent restore.
        fn refuses(&self, faults: impl IntoIterator<Item = (&'static str, Vec<u8>, String)>) {
            for (what, bytes, names) in faults {
                match self.decode(&bytes) {
                    Ok(_) => panic!("{what} restored"),
                    Err(e) => assert!(e.contains(&names), "{what}: {e}"),
                }
            }
        }
    }

    /// A real shard's blob, re-encoded with each fault a churn row can
    /// carry, is refused with the fault's name.
    #[test]
    fn decode_refuses_churn_rows_that_fit_no_window() {
        let shard = RealShard::build();
        let RealShard { state, blob, .. } = &shard;
        let rows = state.churn.export_windowed().3;
        let first = &rows[0];
        let faulty = |row: ChurnWindowEntry| splice(blob, &row_bytes(first), &row_bytes(&row));
        let twice = rows
            .windows(2)
            .find(|w| w[0].hashes.len() == w[1].hashes.len())
            .expect("two neighbouring rows of one length");
        shard.refuses([
            (
                "a granularity the shard was not built with",
                faulty(ChurnWindowEntry { granularity: Granularity::Year, ..*first }),
                "unconfigured granularity year".to_string(),
            ),
            (
                "a window past the period's last",
                faulty(ChurnWindowEntry { window: shard.total_days, ..*first }),
                "past the period's".to_string(),
            ),
            (
                "a repeated row",
                splice(blob, &row_bytes(&twice[1]), &row_bytes(&twice[0])),
                "duplicate churn window row".to_string(),
            ),
        ]);
    }

    /// Three more blobs no run writes: a churn row left behind the fold
    /// frontier (a prune pops every closed window before the frontier
    /// moves), a row count the bytes cannot hold, and a churn horizon that
    /// is not the engine's (the merge would meet two window configs).
    #[test]
    fn decode_refuses_churn_state_no_run_can_write() {
        let mut shard = RealShard::build();
        shard.state.churn.prune_closed(30);
        let blob = shard.state.blob();
        assert!(shard.decode(&blob).is_ok(), "the pruned shard's own blob restores");
        let rows = shard.state.churn.export_windowed().3;
        let first = &rows[0];
        assert!(first.window > 22, "day windows 0..=22 closed below 30 and were pruned");
        shard.refuses([(
            "a row behind the fold frontier",
            splice(
                &blob,
                &row_bytes(first),
                &row_bytes(&ChurnWindowEntry { window: 0, ..*first }),
            ),
            "(day, window 0) closed below the fold frontier 30".to_string(),
        )]);

        // The count sits in the eight bytes before the first row; the
        // largest one `Dec::len` lets through is every byte after it.
        let count = (rows.len() as u64).to_le_bytes();
        let mut old = count.to_vec();
        old.extend(row_bytes(first));
        let at = blob.windows(old.len()).position(|w| w == old).expect("count, then rows");
        let mut oversized = blob.clone();
        let left = (blob.len() - at - count.len()) as u64;
        oversized[at..at + count.len()].copy_from_slice(&left.to_le_bytes());
        assert!(shard.decode(&oversized).is_err(), "the rows run out before the count does");

        let other_horizon = ShardState::decode(
            shard.cfg.clone(),
            Some(8),
            None,
            Arc::clone(&shard.countries),
            &blob,
        );
        assert!(other_horizon.is_err_and(|e| e.contains("churn window config")));
    }

    /// A group whose cell logs and dedup masks disagree is a state no
    /// ingest produces. Each way they can — spliced into a real shard's
    /// blob, lengths and checks before the merge untouched — is refused
    /// naming the group, the cell and the path.
    #[test]
    fn decode_refuses_a_group_whose_logs_and_masks_disagree() {
        let shard = RealShard::build();
        let cell = AnomalyType::ALL[0];
        let (&(url_id, window), live) = shard
            .state
            .groups
            .iter()
            .max_by_key(|(key, live)| (live.group.cell(cell).len(), **key))
            .expect("the study opens groups");
        let mut good = Enc::default();
        live.group.encode(&mut good);
        let good = good.buf;

        // Walk the group's layout (`InstanceGroup::encode`) to the
        // resolved rows and to the first cell's log.
        let u64_at = |at: usize| u64::from_le_bytes(good[at..at + 8].try_into().unwrap()) as usize;
        let u32_at = |at: usize| u32::from_le_bytes(good[at..at + 4].try_into().unwrap());
        let vars = 0;
        let lits = vars + 8 + 4 * u64_at(vars);
        let resolved = lits + 8 + 4 * u64_at(lits);
        let row = 3 * 4 + AnomalyType::ALL.len(); // id, start, len, a mask a cell
        let log = resolved + 8 + row * u64_at(resolved);
        assert!(u64_at(log) >= 2, "the busiest group saw two paths");
        let entry = |k: usize| log + 8 + 5 * k; // id, polarity
        let (pid, censored) = (u32_at(entry(0)), good[entry(0) + 4]);
        assert_ne!(good[entry(0)..entry(1)], good[entry(1)..entry(2)]);
        let mask = (0..u64_at(resolved))
            .map(|k| resolved + 8 + row * k)
            .find(|&at| u32_at(at) == pid)
            .expect("a logged path is resolved")
            + 3 * 4;
        let seen = 1 << censored; // SEEN_CLEAN = 1, SEEN_CENSORED = 2
        assert_eq!(good[mask], seen, "the cell saw the path under that one polarity");

        let fault = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = good.clone();
            edit(&mut bad);
            splice(&shard.blob, &good, &bad)
        };
        let polarity = ["clean", "censored"][usize::from(censored)];
        let names = |fault: String| format!("group (url {url_id}, {window}): cell {cell:?}{fault}");
        shard.refuses([
            (
                "a log that repeats a (path, polarity)",
                fault(&|bad| bad.copy_within(entry(0)..entry(1), entry(1))),
                names(format!(" logs path {pid} {polarity} twice")),
            ),
            (
                "a log entry its dedup mask does not carry",
                fault(&|bad| bad[mask] &= !seen),
                names(format!(" logs path {pid} {polarity}, its dedup mask does not")),
            ),
            (
                "a dedup mask bit with no log entry",
                fault(&|bad| bad[mask] = 3),
                names(format!("'s dedup mask has seen path {pid}, its log has not")),
            ),
        ]);
    }

    /// A block in which nothing converts — every test failed outright —
    /// folds as a no-op: the empty churn batch and the empty group pass
    /// touch nothing but the conversion account.
    #[test]
    fn a_block_in_which_nothing_converts_is_a_noop() {
        let shard = RealShard::build();
        let mut block = Block::default();
        for m in &shard.measurements {
            block.push(&Measurement { failed: true, ..m.clone() });
        }
        let mut state = shard.fresh();
        state.ingest_block(&block, &shard.db, &mut Staged::default(), None);
        assert_eq!(state.conversion.converted, 0);
        assert_eq!(state.conversion.total_discarded(), shard.measurements.len() as u64);
        state.conversion = ConversionStats::default();
        assert_eq!(state.blob(), shard.fresh().blob(), "nothing else moved");
    }
}
