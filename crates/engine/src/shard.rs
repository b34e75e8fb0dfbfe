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
//! Only a path the table has not seen is copied into its arena.
//!
//! **The Figure-4 ablation is a filter in front of the groups.** Under
//! [`ChurnMode::FirstPathOnly`] pass 4 still advances the watermark,
//! counts the measurement and retires windows, but folds it into its
//! groups only if its path is the first one its (URL, vantage AS) pair
//! was seen on — one map entry a pair, the first [`PathId`] beside its
//! test order. Everything after the filter is the Normal engine: cached
//! reports, retirement, compaction, checkpoints. "First" is the first in
//! test order (day, vantage id, epoch — `ConvertedObs::test_order`), so
//! the ablation needs each pair's measurements in that order, as a serial
//! campaign streams them; one that arrives before its pair's first panics
//! the shard instead of answering wrongly. Churn is counted over every
//! measurement, kept or not.
//!
//! **Reports cost what changed.** A deployment reads the report over and
//! over while data is still arriving, and one ingest step touches a
//! handful of (URL × window) groups. So the shard keeps its report
//! current ([`Counted`]): every solved group's outcomes in an index
//! ordered by [`InstanceKey`], its findings union — censor findings,
//! leakage victims and victim countries — as counts in a
//! [`FindingsTally`], and the trivial cells as a sum. A group's report
//! form, a [`SolvedGroup`] (its solved cells and their findings as a
//! short list of facts), is built here, where the cells and their paths
//! live. An effective (non-duplicate) observation only marks its group
//! stale; the next report re-solves the stale groups and swaps each
//! one's contribution, retirement changes nothing, and a compaction
//! counts out what it drains. A report then costs the re-solves, one
//! [`FindingsAccumulator`] materialized from the counts and a pointer
//! per outcome, already in key order; the shard's observability horizon
//! covers every group's censored paths, so no group's is unioned, and
//! the merger never sees a path id. All of this is derived state —
//! never checkpointed, counted back in at a restored shard's first
//! report, freed with the group.
//!
//! The two parts a report used to copy whole are shared the same way.
//! Each cell's [`InstanceOutcome`] sits behind its own `Arc` from the
//! moment it is solved, so the outcome list a report (or a compaction)
//! hands out is one pointer a cell — through the merge and the canonical
//! report's sort, down to the digest — instead of three `Vec`s a cell,
//! every retired cell, every time. And the shard's
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
use crate::engine::SatCounters;
use crate::incremental::{GroupDecoder, IncrementalStats, InstanceGroup, SolveScratch};
use crate::intern::{InternStats, PathTable};
use crate::obs::ShardObs;
use churnlab_bgp::TimeWindow;
use churnlab_core::accumulate::{FindingFacts, FindingsAccumulator, FindingsTally};
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::convert::{ConversionStats, ConvertScratch};
use churnlab_core::instance::InstanceKey;
use churnlab_core::obs::PathId;
use churnlab_core::pipeline::{ChurnMode, PipelineConfig};
use churnlab_core::{BatchOrder, ChurnAccumulator, ChurnObs, ChurnWindowEntry};
use churnlab_obs::{BusyTimer, Counter, Stopwatch};
use churnlab_platform::Measurement;
use churnlab_sat::Solvability;
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{Asn, FxMap, FxSet, Ip2AsDb, Topology};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashSet};
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

/// The table as the lookup [`FindingFacts::record`] takes.
fn country_of(countries: &AsCountries) -> impl Fn(Asn) -> Option<CountryCode> + Copy + '_ {
    |a| countries.get(&a).copied()
}

/// One analysed instance: the outcome plus the ids of the censored paths
/// its leakage facts were read off (attached only when the instance
/// pinned down a censor). The ids outlive the facts because a retired
/// cell's checkpoint row stores them.
pub(crate) struct SolvedCell {
    pub outcome: Arc<InstanceOutcome>,
    pub censored_paths: Vec<PathId>,
}

/// A (URL × window) group's whole contribution to a report: its analysed
/// cells and their censor-finding/leakage facts. Immutable once built —
/// shared between the shard's cache, its retired list and its
/// [`Counted`] swaps.
#[derive(Default)]
pub(crate) struct SolvedGroup {
    pub cells: Vec<SolvedCell>,
    /// Trivial (no-positive) cells skipped under `require_positive`.
    pub trivial: u64,
    /// [`FindingFacts::record`] over `cells`.
    pub facts: FindingFacts,
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

    /// Append one cell, adding its facts to the group's.
    fn push(&mut self, cell: SolvedCell, table: &PathTable, countries: &AsCountries) {
        self.facts.record(
            &cell.outcome,
            cell.censored_paths.iter().map(|id| table.path(*id)),
            country_of(countries),
        );
        self.cells.push(cell);
    }
}

/// Every outcome in `groups`, in order, by pointer — what a compaction
/// hands the caller.
pub(crate) fn cloned_outcomes(
    groups: &[Arc<SolvedGroup>],
) -> impl Iterator<Item = Arc<InstanceOutcome>> + '_ {
    groups.iter().flat_map(|g| &g.cells).map(|c| Arc::clone(&c.outcome))
}

/// A live group and the report form of its cells as last solved — `None`
/// until a report (or retirement) first asks for it. What `solved` adds
/// is what the shard's [`Counted`] holds for the group.
struct LiveGroup {
    group: InstanceGroup,
    solved: Option<Arc<SolvedGroup>>,
    /// An effective observation hit the group since `solved` was built
    /// (or it never was): the next report re-solves it.
    stale: bool,
}

/// What a report says, kept current: every counted group's outcomes in
/// key order, its findings as counts, its trivial cells. A group is
/// counted from its first solve until a compaction drains it; a re-solve
/// swaps its old contribution for the new one, and retirement changes
/// nothing.
#[derive(Default)]
struct Counted {
    outcomes: BTreeMap<InstanceKey, Arc<InstanceOutcome>>,
    tally: FindingsTally,
    trivial: u64,
    /// Swaps made off the report path — a stale group solved as it
    /// retires (with what it was counted as, if anything), a restored
    /// shard's retired cells — for the next report or compaction to
    /// count, so the observe path never touches the counts.
    due: Vec<(Option<Arc<SolvedGroup>>, Arc<SolvedGroup>)>,
}

impl Counted {
    /// Count `new` in, in place of `old`.
    fn swap(&mut self, old: Option<&SolvedGroup>, new: &SolvedGroup) {
        // In before out: a fact both hold keeps its entry.
        self.tally.add(&new.facts);
        self.trivial += new.trivial;
        if let Some(old) = old {
            self.take_out(old);
        }
        for cell in &new.cells {
            self.outcomes.insert(cell.outcome.key, Arc::clone(&cell.outcome));
        }
    }

    /// Count a group out.
    fn take_out(&mut self, group: &SolvedGroup) {
        self.tally.remove(&group.facts);
        self.trivial -= group.trivial;
        for cell in &group.cells {
            self.outcomes.remove(&cell.outcome.key);
        }
    }

    /// Count the swaps that are due.
    fn settle(&mut self) {
        for (old, new) in std::mem::take(&mut self.due) {
            self.swap(old.as_deref(), &new);
        }
    }
}

/// Everything a shard contributes to a merged report.
pub(crate) struct ShardReport {
    /// Retired (not yet compacted) and live cells' outcomes, in key
    /// order.
    pub outcomes: Vec<Arc<InstanceOutcome>>,
    pub trivial: u64,
    pub churn: ChurnAccumulator,
    /// The findings union of every cell, and the shard's observability
    /// horizon (ASes on any censored path).
    pub findings: FindingsAccumulator,
    pub stats: IncrementalStats,
    pub intern: InternStats,
    /// Conversion accounting for every measurement routed here —
    /// exactly consistent with this report's cut.
    pub conversion: ConversionStats,
    /// The frozen SAT-solver counters this shard restored from a
    /// checkpoint; zero on a shard that never restored.
    pub sat: SatCounters,
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
/// groups and their findings union — after this cut the shard no longer
/// holds them.
pub(crate) struct CompactCut {
    pub high_water: Option<u32>,
    /// Clone of the shard's churn accumulator (its windows shared, not
    /// copied), so the engine can fold globally-closed windows during
    /// the same cut.
    pub churn: ChurnAccumulator,
    pub groups: Vec<Arc<SolvedGroup>>,
    pub trivial: u64,
    /// The drained groups' findings union, with the ASes on their
    /// censored paths.
    pub findings: FindingsAccumulator,
}

/// A measurement's test order: (day, vantage id, epoch), as
/// `ConvertedObs::test_order` reads it.
type TestOrder = (u32, u32, u32);

/// Tag of a first-path checkpoint record, in the byte where the per-URL
/// observation buffers this map replaced wrote their sorted flag (0 or
/// 1); a blob that still holds such a buffer is refused.
const FIRST_PATH_TAG: u8 = 2;

/// Bytes a first-path record takes: URL, tag, vantage AS, path id, test
/// order.
const FIRST_PATH_BYTES: usize = 4 + 1 + 4 + 4 + 3 * 4;

/// A block between the worker's passes: for each measurement that
/// converted, its index in the block and the end of its path in one
/// shared arena (pass 1); its path's id and its row of the churn batch
/// (pass 2); and the order pass 3 folds that batch in. Worker-lifetime,
/// so a block costs no allocation.
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
    /// Incrementally solved instance groups, one per live (URL × window),
    /// each holding every anomaly cell — plus the cached report form of
    /// those cells.
    groups: FxMap<(u32, TimeWindow), LiveGroup>,
    /// The report the solved live groups and the retired ones add up to.
    counted: Counted,
    /// The Figure-4 ablation's filter: each (URL, vantage AS) pair's first
    /// path and its test order. Empty in Normal mode.
    first_paths: FxMap<(u32, Asn), (PathId, TestOrder)>,
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
    windows_retired: u64,
    cells_retired: u64,
    late_dropped: u64,
    /// The frozen SAT-solver counters restored from a checkpoint, carried
    /// so the shard re-encodes them.
    sat_base: SatCounters,
    /// Worker-owned re-solve scratch, shared by every instance on this
    /// shard.
    scratch: SolveScratch,
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
        // config (`Engine::empty_churn`).
        let churn = ChurnAccumulator::windowed(&cfg.granularities, cfg.total_days, horizon);
        ShardState {
            horizon,
            table: PathTable::new(),
            groups: FxMap::default(),
            counted: Counted::default(),
            first_paths: FxMap::default(),
            churn,
            censored_path_ids: FxSet::default(),
            on_censored_path: HashSet::new(),
            countries,
            stats: IncrementalStats::default(),
            conversion: ConversionStats::default(),
            observations: 0,
            high_water: None,
            retired: Vec::new(),
            windows_retired: 0,
            cells_retired: 0,
            late_dropped: 0,
            sat_base: SatCounters::default(),
            scratch,
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

    /// Convert a block, straight off its traceroute arena, into `staged`
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
    /// it.
    fn intern_staged(&mut self, block: &Block, staged: &mut Staged) {
        let Staged { converted, paths, ids, churn, .. } = staged;
        ids.clear();
        churn.clear();
        let mut start = 0;
        for &(i, end) in converted.iter() {
            let pid = self.table.intern(&paths[start..end]);
            start = end;
            ids.push(pid);
            let o = block.head(i);
            churn.push((o.vp_asn, o.dest_asn, o.day, self.table.churn_hash(pid)));
        }
    }

    /// Fold `block`'s staged, interned conversions into the shard's
    /// watermark and groups, one measurement at a time, in conversion
    /// order.
    fn observe_staged(&mut self, block: &Block, staged: &Staged) {
        let mut start = 0;
        for (&(i, end), &pid) in staged.converted.iter().zip(&staged.ids) {
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
            if self.cfg.churn_mode == ChurnMode::Normal || self.first_path(o, pid) {
                self.observe(o, path, pid);
            }
            if advanced && self.horizon.is_some() {
                self.retire_closed();
            }
        }
    }

    /// The ablation's filter: whether `pid` is the first path `o`'s
    /// (URL, vantage AS) pair was seen on. Panics on a measurement that
    /// comes before the pair's first in test order — the first path it
    /// recorded would not be the first.
    fn first_path(&mut self, o: &Head, pid: PathId) -> bool {
        let order = (o.day, o.vp_id, o.epoch);
        let pair = (o.url_id, o.vp_asn);
        let (first, first_order) = *self.first_paths.entry(pair).or_insert((pid, order));
        assert!(
            order >= first_order,
            "first-path ablation out of test order: URL {} vantage AS {} measured at \
             (day, vantage id, epoch) {order:?}, before its first path's {first_order:?}",
            o.url_id,
            o.vp_asn
        );
        pid == first
    }

    /// Fold one interned measurement into its (URL × window) groups:
    /// `o`'s scalar fields beside the path it converted to and that
    /// path's id.
    fn observe(&mut self, o: &Head, path: &[Asn], pid: PathId) {
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
                        stale: true,
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
                live.stale = true;
            }
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
    /// last report already built, if nothing hit the group since. A stale
    /// group is solved here, and its swap left to the next report.
    fn retire_group(&mut self, url_id: u32, window: TimeWindow, live: LiveGroup) {
        let solved = match live.solved {
            Some(solved) if !live.stale => solved,
            counted => {
                let solved = Arc::new(SolvedGroup::of(
                    &live.group,
                    self.cfg.require_positive,
                    &self.table,
                    &self.countries,
                ));
                self.counted.due.push((counted, Arc::clone(&solved)));
                solved
            }
        };
        if let Some(obs) = &self.obs {
            solved.journal_close(obs, url_id, window);
        }
        self.cells_retired += solved.cells.len() as u64;
        self.windows_retired += 1;
        self.retired.push(solved);
    }

    /// Produce a report of everything processed so far. Non-destructive
    /// for the tomography state — the shard keeps ingesting afterwards;
    /// `&mut` so stale groups can be re-solved and counted. `fin` marks
    /// the engine's final cut: only then are journal window-closed /
    /// cell-solved events emitted for *live* groups (retired groups
    /// emitted theirs at retirement — once per window, once per cell, so
    /// the journal reconciles exactly with this report).
    pub(crate) fn report(&mut self, fin: bool) -> ShardReport {
        let ShardState { cfg, groups, counted, table, countries, obs, .. } = self;
        counted.settle();
        let mut rebuilt = 0u64;
        for (&(url_id, window), live) in groups.iter_mut() {
            let solved = match &mut live.solved {
                Some(solved) if !live.stale => solved,
                slot => {
                    let solved = SolvedGroup::of(&live.group, cfg.require_positive, table, countries);
                    counted.swap(slot.as_deref(), &solved);
                    live.stale = false;
                    rebuilt += 1;
                    slot.insert(Arc::new(solved))
                }
            };
            if let (true, Some(obs)) = (fin, &*obs) {
                solved.journal_close(obs, url_id, window);
            }
        }
        if let Some(obs) = obs {
            obs.groups_rebuilt.add(rebuilt);
            obs.groups_reused.add(groups.len() as u64 - rebuilt);
        }
        let mut findings = counted.tally.materialize();
        findings.on_censored_path.clone_from(&self.on_censored_path);
        let report = ShardReport {
            outcomes: counted.outcomes.values().cloned().collect(),
            trivial: counted.trivial,
            churn: self.churn.clone(),
            findings,
            stats: self.stats,
            intern: self.table.stats(),
            conversion: self.conversion,
            sat: self.sat_base,
            observations: self.observations,
            high_water: self.high_water,
            windows_retired: self.windows_retired,
            cells_retired: self.cells_retired,
            late_dropped: self.late_dropped,
            busy_nanos: 0, // stamped by the worker loop
        };
        #[cfg(test)]
        self.audit(&report);
        report
    }

    /// Hand the retired groups (and their findings union, which the
    /// engine keeps in its persistent retired state) to the caller,
    /// counting them out and freeing them shard-side. This is the
    /// memory-reclamation half of the window lifecycle; after this,
    /// reports no longer carry the drained cells.
    pub(crate) fn compact_cut(&mut self) -> CompactCut {
        self.counted.settle();
        let groups = std::mem::take(&mut self.retired);
        let mut drained = FindingsTally::default();
        let mut trivial = 0;
        for group in &groups {
            self.counted.take_out(group);
            drained.add(&group.facts);
            trivial += group.trivial;
        }
        let mut findings = drained.materialize();
        let censored = groups.iter().flat_map(|g| &g.cells).flat_map(|c| &c.censored_paths);
        findings.on_censored_path.extend(censored.flat_map(|&id| self.table.path(id)));
        CompactCut {
            high_water: self.high_water,
            churn: self.churn.clone(),
            groups,
            trivial,
            findings,
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
        let sat = self.sat_base;
        e.u64(sat.propagations);
        e.u64(sat.backtracks);
        e.u64(sat.censuses);
        e.u64(sat.census_models);
        e.opt_u32(self.high_water);
        e.u64(self.windows_retired);
        e.u64(self.cells_retired);
        e.u64(self.late_dropped);
        e.u64(self.retired.iter().map(|g| g.trivial).sum());
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
        let mut firsts: Vec<_> = self.first_paths.iter().collect();
        firsts.sort_unstable_by_key(|&(&key, _)| key);
        e.u64(firsts.len() as u64);
        for (&(url, vp), &(pid, (day, vp_id, epoch))) in firsts {
            e.u32(url);
            e.u8(FIRST_PATH_TAG);
            for word in [vp.0, pid.0, day, vp_id, epoch] {
                e.u32(word);
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
    /// report, the retired cells' facts are gathered here, once, and the
    /// first report counts them all in.
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
        state.sat_base = SatCounters {
            propagations: d.u64()?,
            backtracks: d.u64()?,
            censuses: d.u64()?,
            census_models: d.u64()?,
        };
        state.high_water = d.opt_u32()?;
        state.windows_retired = d.u64()?;
        state.cells_retired = d.u64()?;
        state.late_dropped = d.u64()?;
        let retired_trivial = d.u64()?;
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
            let live = LiveGroup { group, solved: None, stale: true };
            if state.groups.insert((url_id, window), live).is_some() {
                return Err(format!("duplicate group ({url_id}, {window})"));
            }
        }
        let n_retired = d.count(RETIRED_CELL_MIN)?;
        if n_retired > 0 || retired_trivial > 0 {
            let mut restored = SolvedGroup { trivial: retired_trivial, ..SolvedGroup::default() };
            restored.cells.reserve_exact(n_retired);
            for _ in 0..n_retired {
                restored.push(decode_cell(&mut d, n_paths)?, &state.table, &state.countries);
            }
            let restored = Arc::new(restored);
            state.counted.due.push((None, Arc::clone(&restored)));
            state.retired.push(restored);
        }
        let n_firsts = d.count(FIRST_PATH_BYTES)?;
        if n_firsts > 0 && state.cfg.churn_mode == ChurnMode::Normal {
            return Err("first-path records in a Normal-mode shard".to_string());
        }
        let mut last = None;
        for _ in 0..n_firsts {
            let url = d.u32()?;
            match d.u8()? {
                FIRST_PATH_TAG => {}
                0 | 1 => {
                    return Err(format!(
                        "url {url} holds a buffered ablation stream, a layout this engine \
                         no longer reads: re-run the ablation from its stream"
                    ))
                }
                t => return Err(format!("bad first-path tag {t}")),
            }
            let key = (url, Asn(d.u32()?));
            let pid = d.u32()?;
            if pid as usize >= n_paths {
                return Err(format!("first path of {key:?} is unknown path {pid}"));
            }
            if last >= Some(key) {
                return Err(format!("first-path record {key:?} out of order"));
            }
            last = Some(key);
            state.first_paths.insert(key, (PathId(pid), (d.u32()?, d.u32()?, d.u32()?)));
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
    use std::collections::{BTreeSet, HashMap};

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

    /// A findings union in the spec's sorted form, less the horizon.
    fn sorted(findings: &FindingsAccumulator) -> churnlab_oracle::Findings {
        fn sets<T: Ord + Clone>(m: &HashMap<Asn, HashSet<T>>) -> BTreeMap<Asn, BTreeSet<T>> {
            m.iter().map(|(k, v)| (*k, v.iter().cloned().collect())).collect()
        }
        churnlab_oracle::Findings {
            censors: findings.censor_findings.iter().map(|(a, f)| (*a, f.clone())).collect(),
            victims: sets(&findings.leakage.victims_by_censor),
            victim_countries: sets(&findings.leakage.victim_countries_by_censor),
        }
    }

    impl ShardState {
        /// The per-report union the counts replace, from scratch: every
        /// retired group's cells and every live group solved anew,
        /// folded through the spec's [`churnlab_oracle::findings`], the
        /// outcomes sorted. Panics unless `report` says the same, or if a
        /// group's censored paths leave the shard's observability horizon
        /// — which the report ships instead of unioning the groups'.
        /// Every report a unit test asks for is audited.
        pub(super) fn audit(&self, report: &ShardReport) {
            let (table, countries) = (&self.table, &self.countries);
            let live: Vec<SolvedGroup> = self
                .groups
                .values()
                .map(|l| SolvedGroup::of(&l.group, self.cfg.require_positive, table, countries))
                .collect();
            let mut trivial = 0;
            let mut cells = Vec::new();
            for group in self.retired.iter().map(Arc::as_ref).chain(&live) {
                trivial += group.trivial;
                for cell in &group.cells {
                    let paths: Vec<&[Asn]> =
                        cell.censored_paths.iter().map(|id| table.path(*id)).collect();
                    assert!(
                        paths.iter().copied().flatten().all(|a| self.on_censored_path.contains(a)),
                        "a group's censored path has ASes outside the shard's observability horizon"
                    );
                    cells.push((cell.outcome.as_ref(), paths));
                }
            }
            let found = churnlab_oracle::findings(
                cells.iter().map(|(outcome, paths)| (*outcome, paths.iter().copied())),
                country_of(countries),
            );
            let mut outcomes: Vec<&InstanceOutcome> = cells.iter().map(|(o, _)| *o).collect();
            outcomes.sort_by_key(|o| o.key);
            assert_eq!(report.trivial, trivial, "the counted trivial cells");
            assert!(
                report.outcomes.iter().map(Arc::as_ref).eq(outcomes),
                "the outcomes, in key order"
            );
            assert_eq!(report.findings.on_censored_path, self.on_censored_path, "the horizon");
            assert_eq!(sorted(&report.findings), found, "the findings union");
        }
    }

    /// A Smoke study folded into one shard as one block, horizon 7, and
    /// what a test needs to restore its blob.
    struct RealShard {
        topology: Topology,
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
                topology: world.topology.clone(),
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

    /// A report ships the shard's own observability horizon instead of
    /// unioning its groups' — so every AS on a censored path a cell read
    /// is in it, for retired and live groups, before and after a restore.
    #[test]
    fn the_shard_horizon_covers_every_groups_censored_paths() {
        let mut shard = RealShard::build();
        let mut restored = shard.decode(&shard.blob).expect("the untouched blob restores");
        for state in [&mut shard.state, &mut restored] {
            state.report(false);
            assert!(!state.retired.is_empty() && !state.groups.is_empty());
            let live = state.groups.values().filter_map(|l| l.solved.as_ref());
            let cells = state.retired.iter().chain(live).flat_map(|g| &g.cells);
            let ases: Vec<Asn> = cells
                .flat_map(|c| &c.censored_paths)
                .flat_map(|&id| state.table.path(id).iter().copied())
                .collect();
            assert!(!ases.is_empty(), "the study's cells read censored paths");
            assert!(ases.iter().all(|a| state.on_censored_path.contains(a)));
        }
    }

    /// A service's read pattern, where the counts change between reads:
    /// the study in day order through a retiring engine (horizon 7), a
    /// snapshot every `k` ∈ {1, 13, 200} measurements, two compactions
    /// and two checkpoint → restore cuts, on 1 and 4 shards. Every
    /// snapshot is audited shard by shard against the from-scratch fold
    /// ([`ShardState::audit`]); every 50th, and the last, is also held
    /// against a fresh engine fed the same prefix and asked once, with
    /// the outcomes compaction drained added back.
    #[test]
    fn every_snapshot_of_a_service_schedule_is_the_from_scratch_fold() {
        use crate::{Engine, EngineConfig};
        let shard = RealShard::build();
        let topology = &shard.topology;
        let mut ms = shard.measurements.clone();
        ms.sort_by_key(|m| (m.day, m.url_id, m.vp_id, m.epoch));
        let n = ms.len();
        let (compact_at, restore_at) = ([n / 5, 3 * n / 5], [2 * n / 5, 4 * n / 5]);
        let canonical = |r: &churnlab_core::pipeline::PipelineResults| r.canonical_report();
        for shards in [1, 4] {
            let cfg = EngineConfig::new(shard.cfg.clone()).with_shards(shards);
            let cfg = cfg.with_window_horizon(7);
            let fresh = || Engine::with_context(&shard.db, topology, cfg.clone());
            for k in [1, 13, 200] {
                let (mut engine, mut drained, mut fed, mut snapshots) = (fresh(), Vec::new(), 0, 0);
                while fed < n {
                    let cuts = compact_at.iter().chain(&restore_at).filter(|&&c| c > fed);
                    let next = cuts.fold((fed / k + 1) * k, |next, &c| next.min(c)).min(n);
                    let mut feeder = engine.feeder();
                    ms[fed..next].iter().for_each(|m| feeder.ingest_owned(m.clone()));
                    drop(feeder);
                    fed = next;
                    if compact_at.contains(&fed) {
                        drained.extend(engine.compact().outcomes);
                    }
                    if restore_at.contains(&fed) {
                        let mut blob = Vec::new();
                        engine.checkpoint(fed as u64, &[], &mut blob).expect("to memory");
                        drop(engine);
                        let restored =
                            Engine::restore(&shard.db, topology, cfg.clone(), &mut &blob[..]);
                        engine = restored.expect("a checkpoint just written restores").engine;
                    }
                    if fed % k != 0 && fed != n {
                        continue;
                    }
                    let mut snapshot = engine.snapshot();
                    snapshots += 1;
                    if snapshots % 50 == 0 || fed == n {
                        snapshot.outcomes.extend(drained.iter().cloned());
                        let oracle = fresh();
                        ms[..fed].iter().for_each(|m| oracle.ingest_owned(m.clone()));
                        assert_eq!(
                            canonical(&snapshot),
                            canonical(&oracle.finish()),
                            "{shards} shards, a snapshot every {k}: snapshot {snapshots}, at {fed}"
                        );
                    }
                }
            }
        }
    }

    /// An ablation shard's first paths round-trip byte for byte, and the
    /// map's slot refuses what else could sit there: records in a Normal
    /// shard, and the per-URL ablation buffer the map replaced
    /// (its sorted flag, 0 or 1, where a record has its tag).
    #[test]
    fn first_paths_round_trip_and_a_buffered_ablation_is_refused() {
        let shard = RealShard::build();
        let mut cfg = shard.cfg.clone();
        cfg.churn_mode = ChurnMode::FirstPathOnly;
        let fresh = || ShardState::new(cfg.clone(), Some(7), None, Arc::clone(&shard.countries));
        let decode = |cfg: &PipelineConfig, bytes: &[u8]| {
            ShardState::decode(cfg.clone(), Some(7), None, Arc::clone(&shard.countries), bytes)
        };
        let mut state = fresh();
        let mut block = Block::default();
        shard.measurements.iter().for_each(|m| block.push(m));
        state.ingest_block(&block, &shard.db, &mut Staged::default(), None);
        assert!(!state.first_paths.is_empty());
        let blob = state.blob();
        let restored = decode(&cfg, &blob).expect("the ablation's blob restores");
        assert_eq!(restored.blob(), blob, "restore → encode reproduces the bytes");
        let normal = decode(&shard.cfg, &blob).map(|_| ()).unwrap_err();
        assert!(normal.contains("first-path records in a Normal-mode shard"), "{normal}");

        // A fresh ablation shard's blob ends in its empty map's count.
        let empty = fresh().blob();
        for sorted in [0, 1] {
            let mut e = Enc { buf: empty[..empty.len() - 8].to_vec() };
            e.u64(1); // one URL's buffer
            e.u32(3);
            e.u8(sorted);
            e.u64(1); // one observation
            for word in [7, 100, 3, 200, 4, 9] {
                e.u32(word); // vantage id and AS, URL, destination, day, epoch
            }
            e.asns(&[Asn(100), Asn(200)]);
            e.u8(0); // no anomaly
            let err = decode(&cfg, &e.buf).map(|_| ()).unwrap_err();
            assert!(err.contains("url 3 holds a buffered ablation stream"), "{err}");
        }
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
