//! Measured path-churn accounting (Figure 3), memory-bounded for
//! *unbounded* runs.
//!
//! One store, the one every shard, every engine merge and every
//! checkpoint count in: granularities are fixed up front and
//! each observation folds straight into its per-(granularity × window ×
//! pair) partial — a distinct-hash list plus an observation count. Closed
//! windows can then be *retired*: their partials collapse into
//! per-(granularity × destination) bucket tallies ([`RetiredChurn`]) and
//! the hashes are freed, so a run-forever engine holds only the windows
//! still inside its lateness horizon. Distributions computed from
//! partials + retired tallies are exactly what a recount of the full
//! sample set would report, because a window is only folded once it can
//! receive no further observation. Without a horizon nothing is ever
//! retired.
//!
//! **Storage: one map per open window, copy-on-write.** Each
//! granularity keeps an ordered index of its *open* windows only — window
//! index → that window's `(vantage, destination) → evidence` map behind
//! an [`Arc`]. A window enters the index with its first observation and
//! leaves it when it closes, so the index is as large as what is open,
//! never as large as the configured period (a run-forever engine names a
//! period of centuries and holds a horizon's worth of windows). That
//! shape is what makes a report cheap:
//!
//! - *A clone shares every window.* Cloning the accumulator (every engine
//!   report does) copies one pointer per open window and no evidence, and
//!   the clone is frozen: nothing done to the original afterwards shows in
//!   it.
//! - *A write copies only what it touches, only while someone is looking,
//!   once per window per batch.* [`ChurnAccumulator::add_batch`] folds a
//!   block of observations one granularity at a time, one window at a
//!   time: the block is ordered by window index (stably, so a window's
//!   observations keep their arrival order; a block that sits in one
//!   window — the day-ordered stream — is not sorted at all), each touched
//!   window's map is taken through [`Arc::make_mut`] once, and the
//!   window's observations are applied to it back to back. A window no
//!   clone still holds is updated in place, one a live report still shares
//!   is copied first, and every other window stays shared; dropping the
//!   report ends the copying. [`ChurnAccumulator::add`] is the same window
//!   step with one observation in it — at most four windows, one per
//!   granularity.
//! - *A merge adopts by pointer* every window the receiver has nothing
//!   for (all of them, when one shard reports into an empty merger) and
//!   unions pair by pair only where both sides hold evidence.
//! - *Closing costs what closed.* A window's end day grows with its
//!   index, so [`ChurnAccumulator::fold_closed`] and
//!   [`ChurnAccumulator::prune_closed`] pop each granularity's windows
//!   from the front of its index, stop at the first one still open, and
//!   free a closed window by dropping its whole map: O(closed windows +
//!   closed partials) — nothing already closed is looked at again, and
//!   there is no key list, no rehash, and no table keeping the capacity
//!   of everything it ever held.

use churnlab_bgp::stats::DistinctPathDist;
use churnlab_bgp::{Granularity, TimeWindow};
use churnlab_topology::{fnv1a, AsClass, Asn, FxMap, FxSet, Topology};
use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap};
use std::sync::Arc;

/// Distinct hashes a window holds without a heap allocation. Windows see
/// few distinct paths (the paper's Figure 3 tops out at 5+), so all but
/// the churniest long windows stay inline.
const INLINE_HASHES: usize = 5;

/// A window's distinct path hashes in insertion order: a linear-scan list
/// (beats a `HashSet` at these sizes) stored inline up to
/// [`INLINE_HASHES`] entries, so copying a window's map on write, or
/// dropping it when the window closes, is flat: no per-entry allocation.
/// Unused inline slots stay zero, which keeps the derived equality exact.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PathHashes {
    Inline { len: u8, slots: [u64; INLINE_HASHES] },
    Spilled(Vec<u64>),
}

impl Default for PathHashes {
    fn default() -> Self {
        PathHashes::Inline { len: 0, slots: [0; INLINE_HASHES] }
    }
}

impl From<&[u64]> for PathHashes {
    fn from(hashes: &[u64]) -> Self {
        if hashes.len() <= INLINE_HASHES {
            let mut slots = [0; INLINE_HASHES];
            slots[..hashes.len()].copy_from_slice(hashes);
            PathHashes::Inline { len: hashes.len() as u8, slots }
        } else {
            PathHashes::Spilled(hashes.to_vec())
        }
    }
}

impl PathHashes {
    fn as_slice(&self) -> &[u64] {
        match self {
            PathHashes::Inline { len, slots } => &slots[..usize::from(*len)],
            PathHashes::Spilled(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Append `h` unless already present.
    fn insert(&mut self, h: u64) {
        if self.as_slice().contains(&h) {
            return;
        }
        match self {
            PathHashes::Inline { len, slots } if usize::from(*len) < INLINE_HASHES => {
                slots[usize::from(*len)] = h;
                *len += 1;
            }
            PathHashes::Inline { slots, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE_HASHES);
                v.extend_from_slice(slots);
                v.push(h);
                *self = PathHashes::Spilled(v);
            }
            PathHashes::Spilled(v) => v.push(h),
        }
    }
}

/// Distinct-path evidence for one still-open (granularity × pair ×
/// window) combo.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct WindowAgg {
    hashes: PathHashes,
    count: u64,
}

/// Folded distinct-path tallies of one (granularity, destination) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnTally {
    /// Combos by distinct-path count (1, 2, 3, 4, 5+).
    pub buckets: [u64; 5],
    /// Total combos folded (with ≥2 observations).
    pub total: u64,
}

/// Bucket tallies of retired (pair × window) combos, grouped by
/// (granularity, destination AS) so the per-destination-class breakdowns
/// stay exact after the underlying hash sets are gone. Shared behind
/// copy-on-write: a clone, and a merge into an empty store — the
/// engine's persistent tallies into every report — copy one pointer, and
/// the table is copied only when one holder writes to it while another
/// still holds it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetiredChurn {
    per_dest: Arc<FxMap<(Granularity, Asn), ChurnTally>>,
}

impl RetiredChurn {
    /// True when nothing has been retired.
    pub fn is_empty(&self) -> bool {
        self.per_dest.is_empty()
    }

    /// Fold one closed combo with `n_paths` distinct paths.
    pub fn record(&mut self, granularity: Granularity, dest: Asn, n_paths: usize) {
        let t = Arc::make_mut(&mut self.per_dest).entry((granularity, dest)).or_default();
        t.buckets[n_paths.min(5) - 1] += 1;
        t.total += 1;
    }

    /// Sum another retired store into this one.
    pub fn merge(&mut self, other: &RetiredChurn) {
        if self.is_empty() {
            self.per_dest = Arc::clone(&other.per_dest);
            return;
        }
        for (&(granularity, dest), &tally) in other.per_dest.iter() {
            self.insert(granularity, dest, tally);
        }
    }

    /// Sorted `(granularity, dest, tally)` rows (checkpoint encoding).
    pub fn entries_sorted(&self) -> Vec<(Granularity, Asn, ChurnTally)> {
        let mut v: Vec<_> =
            self.per_dest.iter().map(|(&(g, d), &t)| (g, d, t)).collect();
        v.sort_by_key(|&(g, d, _)| (g, d));
        v
    }

    /// Insert one row verbatim (checkpoint decoding). Sums if the cell
    /// already exists.
    pub fn insert(&mut self, granularity: Granularity, dest: Asn, tally: ChurnTally) {
        let t = Arc::make_mut(&mut self.per_dest).entry((granularity, dest)).or_default();
        for (a, b) in t.buckets.iter_mut().zip(tally.buckets) {
            *a += b;
        }
        t.total += tally.total;
    }
}

/// One open window's partials: (vantage, destination) → evidence. Keys
/// are ASNs the pipeline's own conversion produced, hence the fast
/// hasher.
type WindowMap = FxMap<(Asn, Asn), WindowAgg>;

/// Why a [`ChurnImport`] refused a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnImportError {
    /// The row names a granularity the accumulator was not built with.
    UnknownGranularity(Granularity),
    /// The row's window index is past the period's last window.
    WindowOutOfRange {
        /// Granularity of the row.
        granularity: Granularity,
        /// The index it names.
        window: u32,
        /// Windows that granularity has ([`TimeWindow::count`]).
        count: u32,
    },
    /// Two rows name the same (granularity, vantage, destination, window).
    DuplicateRow {
        /// Granularity of the row.
        granularity: Granularity,
        /// Vantage AS.
        vp: Asn,
        /// Destination AS.
        dest: Asn,
        /// Window index.
        window: u32,
    },
    /// The row carries no path hash: no observation could have made it,
    /// and every reader buckets a combo by its (non-zero) hash count.
    NoHashes {
        /// Granularity of the row.
        granularity: Granularity,
        /// Window index.
        window: u32,
    },
    /// The row's window already closed below the stored fold frontier.
    /// Ingest pops every closed window before the frontier advances and
    /// admits nothing behind it, so no run writes such a row — and a
    /// reader would count it until the next prune silently dropped it.
    BehindFrontier {
        /// Granularity of the row.
        granularity: Granularity,
        /// Window index.
        window: u32,
        /// The stored fold frontier.
        frontier: u32,
    },
}

impl std::fmt::Display for ChurnImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnImportError::UnknownGranularity(g) => {
                write!(f, "churn window row names unconfigured granularity {g}")
            }
            ChurnImportError::WindowOutOfRange { granularity, window, count } => write!(
                f,
                "churn window row names {granularity} window {window}, past the period's {count}"
            ),
            ChurnImportError::DuplicateRow { granularity, vp, dest, window } => write!(
                f,
                "duplicate churn window row ({granularity}, {vp}, {dest}, window {window})"
            ),
            ChurnImportError::NoHashes { granularity, window } => {
                write!(f, "churn window row ({granularity}, window {window}) has no path hash")
            }
            ChurnImportError::BehindFrontier { granularity, window, frontier } => write!(
                f,
                "churn window row ({granularity}, window {window}) closed below the fold \
                 frontier {frontier}"
            ),
        }
    }
}

impl std::error::Error for ChurnImportError {}

/// Streaming accumulator of per-pair path observations. Pairs are keyed
/// by the *vantage AS* — the source field the paper's measurement records
/// carry (§3.1: "the vantage point AS"). Exits of one multi-country VPN
/// provider share a registered AS while routing from entirely different
/// places, so an org's (AS, destination) pair legitimately observes
/// several distinct AS-level paths per window; that exit diversity is part
/// of the path diversity the paper's Figure 3 measures and Figure 4
/// removes.
#[derive(Debug, Clone)]
pub struct ChurnAccumulator {
    granularities: Vec<Granularity>,
    total_days: u32,
    /// Lateness horizon in days; `None` disables folding entirely.
    horizon: Option<u32>,
    /// `partials[slot][&window index]`, `slot` being the granularity's
    /// position in `granularities`: the window's live partials, absent
    /// before its first observation and after it is folded or pruned.
    /// Maps are shared with every clone of the accumulator and copied on
    /// write (see the module docs); a held map is never empty.
    partials: Vec<BTreeMap<u32, Arc<WindowMap>>>,
    /// Fold frontier: every window whose `end_day + horizon` is below
    /// this watermark has been folded (or pruned) and takes no further
    /// observations.
    folded_min_hw: u32,
    /// Tallies of folded combos (engine-side merged accumulators only;
    /// shard-local accumulators prune instead of folding).
    retired: RetiredChurn,
    /// Observations that arrived for an already-folded window and were
    /// dropped (per granularity: one measurement can be late for its day
    /// window yet land in its still-open month window).
    late_dropped: u64,
}

/// Hash an AS path (FNV-1a over ASNs — stable across runs).
pub fn path_hash(path: &[Asn]) -> u64 {
    fnv1a(path.iter().flat_map(|a| a.0.to_le_bytes()))
}

/// One converted measurement as [`ChurnAccumulator::add_batch`] takes it:
/// vantage AS, destination AS, day, and the [`path_hash`] of its path.
pub type ChurnObs = (Asn, Asn, u32, u64);

/// The order [`ChurnAccumulator::add_batch`] walks a block in — its
/// positions by window index, a window's positions in arrival order —
/// and the buffers that order is built in. The caller keeps one for as
/// long as it has blocks to fold.
#[derive(Debug, Default)]
pub struct BatchOrder {
    /// Window index of each batch position.
    windows: Vec<u32>,
    /// Batch positions, ordered by (window, position).
    sorted: Vec<u32>,
    /// The counting sort's bucket cursors, one per window in the block's
    /// range.
    cursors: Vec<u32>,
}

impl BatchOrder {
    /// A block whose windows span more than this many times its length
    /// is ordered by comparison instead of by counting: the counting sort
    /// walks the whole range, and days come from outside the program —
    /// two measurements a century apart must not size a buffer.
    const DENSE: usize = 8;

    /// Take each position's window index. `Some(window)` when the whole
    /// block sits in one — nothing is ordered then; otherwise the
    /// positions are sorted, ready for [`BatchOrder::runs`].
    fn by_window(&mut self, windows: impl Iterator<Item = u32>) -> Option<u32> {
        self.windows.clear();
        self.windows.extend(windows);
        self.sorted.clear();
        let n = self.windows.len();
        assert!(u32::try_from(n).is_ok(), "a churn batch of {n} outgrows u32 positions");
        // An empty block is sorted as it stands: no runs.
        let lo = self.windows.iter().copied().min()?;
        let hi = self.windows.iter().copied().max()?;
        if lo == hi {
            return Some(lo);
        }
        let range = (hi - lo) as usize + 1;
        if range <= Self::DENSE * n {
            // Stable counting sort: count, prefix-sum into bucket starts,
            // place in arrival order.
            self.cursors.clear();
            self.cursors.resize(range, 0);
            for w in &self.windows {
                self.cursors[(w - lo) as usize] += 1;
            }
            let mut start = 0;
            for c in &mut self.cursors {
                start += std::mem::replace(c, start);
            }
            self.sorted.resize(n, 0);
            for (at, w) in self.windows.iter().enumerate() {
                let cursor = &mut self.cursors[(w - lo) as usize];
                self.sorted[*cursor as usize] = at as u32;
                *cursor += 1;
            }
        } else {
            self.sorted.extend(0..n as u32);
            self.sorted.sort_unstable_by_key(|&at| (self.windows[at as usize], at));
        }
        None
    }

    /// The sorted block as runs: each window that has observations, lowest
    /// first, with its batch positions in arrival order.
    fn runs(&self) -> impl Iterator<Item = (u32, &[u32])> {
        let window = |at: &u32| self.windows[*at as usize];
        let runs = self.sorted.chunk_by(move |a, b| window(a) == window(b));
        runs.map(move |run| (window(&run[0]), run))
    }
}

/// One partial, flattened for checkpoint encoding: borrowed from the
/// accumulator it was exported from, or from the decoder that imports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnWindowEntry<'a> {
    /// CNF granularity of the window.
    pub granularity: Granularity,
    /// Vantage AS.
    pub vp: Asn,
    /// Destination AS.
    pub dest: Asn,
    /// Window index within the period.
    pub window: u32,
    /// Distinct path hashes seen (insertion order preserved).
    pub hashes: &'a [u64],
    /// Observation count.
    pub count: u64,
}

/// An accumulator being rebuilt from checkpoint rows, one row at a time
/// straight into its window maps ([`ChurnAccumulator::import_windowed`]).
/// The maps are the importer's own until [`ChurnImport::finish`] puts
/// each behind its `Arc`, so a row costs no copy-on-write check.
#[derive(Debug)]
pub struct ChurnImport {
    acc: ChurnAccumulator,
    /// Per granularity slot, the window maps the rows have opened.
    windows: Vec<BTreeMap<u32, WindowMap>>,
}

impl ChurnImport {
    /// Add one row. The rows come from outside the program: one that fits
    /// no window of this configuration, repeats another, or carries no
    /// hash is an error, never a panic.
    pub fn row(&mut self, row: ChurnWindowEntry<'_>) -> Result<(), ChurnImportError> {
        let ChurnWindowEntry { granularity, vp, dest, window, hashes, count } = row;
        let slot =
            self.acc.slot(granularity).ok_or(ChurnImportError::UnknownGranularity(granularity))?;
        let n_windows = TimeWindow::count(granularity, self.acc.total_days);
        if window >= n_windows {
            return Err(ChurnImportError::WindowOutOfRange {
                granularity,
                window,
                count: n_windows,
            });
        }
        if hashes.is_empty() {
            return Err(ChurnImportError::NoHashes { granularity, window });
        }
        match self.windows[slot].entry(window).or_default().entry((vp, dest)) {
            Entry::Occupied(_) => {
                Err(ChurnImportError::DuplicateRow { granularity, vp, dest, window })
            }
            Entry::Vacant(v) => {
                v.insert(WindowAgg { hashes: hashes.into(), count });
                Ok(())
            }
        }
    }

    /// The rebuilt accumulator, its fold frontier and late count set. A
    /// row whose window already closed below the frontier is refused:
    /// ingest pops every closed window before the frontier advances, and
    /// a window's end day grows with its index, so only the oldest open
    /// window of each granularity needs looking at.
    pub fn finish(
        self,
        folded_min_hw: u32,
        late_dropped: u64,
    ) -> Result<ChurnAccumulator, ChurnImportError> {
        let ChurnImport { mut acc, windows } = self;
        for (slot, windows) in windows.into_iter().enumerate() {
            let granularity = acc.granularities[slot];
            if let Some((&window, _)) = windows.first_key_value() {
                if acc.closed_below(granularity, window, folded_min_hw) {
                    return Err(ChurnImportError::BehindFrontier {
                        granularity,
                        window,
                        frontier: folded_min_hw,
                    });
                }
            }
            acc.partials[slot] = windows.into_iter().map(|(ix, map)| (ix, Arc::new(map))).collect();
        }
        acc.folded_min_hw = folded_min_hw;
        acc.late_dropped = late_dropped;
        Ok(acc)
    }
}

impl ChurnAccumulator {
    /// Fresh accumulator: observations fold straight into
    /// per-(granularity × window × pair) partials. Only the listed
    /// granularities can be queried afterwards. `horizon` (days) arms
    /// retirement: once a watermark passes `window end + horizon`, the
    /// window's partials may be folded ([`ChurnAccumulator::fold_closed`])
    /// or pruned ([`ChurnAccumulator::prune_closed`]) and later
    /// observations for it are dropped as late. Costs the same for any
    /// `total_days`: nothing is held for a window before it is observed.
    pub fn windowed(granularities: &[Granularity], total_days: u32, horizon: Option<u32>) -> Self {
        ChurnAccumulator {
            granularities: granularities.to_vec(),
            total_days,
            horizon,
            partials: vec![BTreeMap::new(); granularities.len()],
            folded_min_hw: 0,
            retired: RetiredChurn::default(),
            late_dropped: 0,
        }
    }

    /// Whether window `index` of `g` closed below watermark `hw`
    /// ([`TimeWindow::closed_below`]). Never without a horizon.
    fn closed_below(&self, g: Granularity, index: u32, hw: u32) -> bool {
        self.horizon.is_some_and(|h| {
            (TimeWindow { granularity: g, index }).closed_below(self.total_days, h, hw)
        })
    }

    /// Position of `g` among the configured granularities.
    fn slot(&self, g: Granularity) -> Option<usize> {
        self.granularities.iter().position(|&x| x == g)
    }

    /// Every window that holds evidence, with its granularity and index.
    fn live(&self) -> impl Iterator<Item = (Granularity, u32, &WindowMap)> {
        self.granularities
            .iter()
            .zip(&self.partials)
            .flat_map(|(&g, windows)| windows.iter().map(move |(&ix, map)| (g, ix, &**map)))
    }

    /// The window step every write goes through: fold `obs` — all of them
    /// in window `ix` of granularity slot `slot`, at least one — into that
    /// window's map, in order. A window behind the fold frontier takes
    /// nothing and counts each observation late; otherwise the map is made
    /// this accumulator's own once, however many observations follow.
    fn fold_window<'a>(
        &mut self,
        slot: usize,
        ix: u32,
        obs: impl ExactSizeIterator<Item = &'a ChurnObs>,
    ) {
        debug_assert!(obs.len() > 0, "a held map is never empty");
        if self.closed_below(self.granularities[slot], ix, self.folded_min_hw) {
            self.late_dropped += obs.len() as u64;
            return;
        }
        let map = Arc::make_mut(self.partials[slot].entry(ix).or_default());
        for &(vp, dest, _, hash) in obs {
            let e = map.entry((vp, dest)).or_default();
            e.hashes.insert(hash);
            e.count += 1;
        }
    }

    /// Free every window that closed below `min_hw` and advance the fold
    /// frontier to it. With `fold`, each freed combo is first tallied
    /// into the retired store — unless its window was already behind the
    /// frontier, i.e. folded by an earlier cut. A window's end day grows
    /// with its index, so each granularity pops from the front of its
    /// index until the first window still open: O(closed windows + closed
    /// partials). No-op without a horizon.
    fn close_below(&mut self, min_hw: u32, fold: bool) {
        if self.horizon.is_none() {
            return;
        }
        let frontier = self.folded_min_hw;
        for slot in 0..self.granularities.len() {
            let g = self.granularities[slot];
            while let Some((&ix, _)) = self.partials[slot].first_key_value() {
                if !self.closed_below(g, ix, min_hw) {
                    break;
                }
                let (_, map) = self.partials[slot].pop_first().expect("just seen");
                // A window already behind the adopted frontier was
                // folded by an earlier cut; these partials are a stale
                // copy (a report collected before its shard pruned) and
                // must be discarded, not folded twice.
                if !fold || self.closed_below(g, ix, frontier) {
                    continue;
                }
                // The ≥2-observations rule is final here: the window is
                // closed, so a combo that never reached two observations
                // never will.
                for (&(_, dest), agg) in map.iter().filter(|(_, agg)| agg.count >= 2) {
                    self.retired.record(g, dest, agg.hashes.len());
                }
            }
        }
        self.folded_min_hw = frontier.max(min_hw);
    }

    /// Record one converted measurement (`vp` = the vantage AS as
    /// registered, i.e. [`churnlab_platform::Measurement::vp_asn`]).
    pub fn add(&mut self, vp: Asn, dest: Asn, day: u32, path: &[Asn]) {
        let obs = (vp, dest, day, path_hash(path));
        for slot in 0..self.granularities.len() {
            let ix = TimeWindow::of(day, self.granularities[slot], self.total_days).index;
            self.fold_window(slot, ix, std::iter::once(&obs));
        }
    }

    /// Record a block of converted measurements, each with its path
    /// already hashed ([`path_hash`]). Leaves exactly what calling
    /// [`ChurnAccumulator::add`] on each in order leaves — every window's
    /// hash lists in the same order, the same counts, the same late
    /// drops — but walks the open windows once per granularity instead
    /// of once per measurement: see the module docs. `order` is the
    /// caller's to keep between calls, so a block costs no allocation.
    pub fn add_batch(&mut self, batch: &[ChurnObs], order: &mut BatchOrder) {
        for slot in 0..self.granularities.len() {
            let (g, total_days) = (self.granularities[slot], self.total_days);
            let windows = batch.iter().map(|obs| TimeWindow::of(obs.2, g, total_days).index);
            match order.by_window(windows) {
                Some(only) => self.fold_window(slot, only, batch.iter()),
                None => {
                    for (ix, run) in order.runs() {
                        self.fold_window(slot, ix, run.iter().map(|&at| &batch[at as usize]));
                    }
                }
            }
        }
    }

    /// Number of (vantage, destination) pairs with live evidence. Pairs
    /// whose every window has been retired no longer count (their
    /// identity was folded away by design).
    pub fn n_pairs(&self) -> usize {
        let pairs: FxSet<(Asn, Asn)> =
            self.live().flat_map(|(_, _, map)| map.keys().copied()).collect();
        pairs.len()
    }

    /// Observations dropped because their window was already folded.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Merge another accumulator into this one (shard fan-in). URL-keyed
    /// sharding splits a (vantage, destination) pair's samples across
    /// shards; per-window distinct-path sets and observation counts are
    /// unions/sums, so merging partials reproduces exactly what
    /// single-stream accumulation would have recorded. A window the
    /// receiver holds nothing for is adopted by pointer, not copied.
    /// Window configs must match.
    pub fn merge(&mut self, other: ChurnAccumulator) {
        assert!(
            self.granularities == other.granularities
                && self.total_days == other.total_days
                && self.horizon == other.horizon,
            "ChurnAccumulator::merge: mismatched window configs",
        );
        // Equal configs, so slot for slot the same granularity.
        for (mine, theirs) in self.partials.iter_mut().zip(other.partials) {
            for (ix, theirs) in theirs {
                let mine = match mine.entry(ix) {
                    btree_map::Entry::Vacant(e) => {
                        e.insert(theirs);
                        continue;
                    }
                    btree_map::Entry::Occupied(e) => Arc::make_mut(e.into_mut()),
                };
                for (&pair, agg) in theirs.iter() {
                    match mine.entry(pair) {
                        Entry::Vacant(e) => {
                            e.insert(agg.clone());
                        }
                        Entry::Occupied(mut e) => {
                            let e = e.get_mut();
                            for &h in agg.hashes.as_slice() {
                                e.hashes.insert(h);
                            }
                            e.count += agg.count;
                        }
                    }
                }
            }
        }
        self.folded_min_hw = self.folded_min_hw.max(other.folded_min_hw);
        self.retired.merge(&other.retired);
        self.late_dropped += other.late_dropped;
    }

    /// Adopt previously folded tallies and their frontier (the engine
    /// re-injects its persistent retired store into each merged cut so
    /// reports keep covering folded windows).
    pub fn adopt_retired(&mut self, retired: &RetiredChurn, folded_min_hw: u32) {
        self.retired.merge(retired);
        self.folded_min_hw = self.folded_min_hw.max(folded_min_hw);
    }

    /// Fold every combo whose window closed below the `min_hw` watermark
    /// (strictly: `end_day + horizon < min_hw`) into the retired tallies,
    /// freeing its hashes, and advance the fold frontier. The caller must
    /// guarantee the folded windows are *complete* — every observation
    /// that will ever legally count for them has been merged in — which
    /// is exactly what a minimum over all shard watermarks at a
    /// consistent cut guarantees. No-op without a horizon.
    pub fn fold_closed(&mut self, min_hw: u32) {
        self.close_below(min_hw, true);
    }

    /// Like [`ChurnAccumulator::fold_closed`] but *discards* the closed
    /// partials instead of folding them — the shard-side half of the
    /// protocol: the engine folds the merged (global) partials once, then
    /// tells every shard to drop its local copies and late-drop anything
    /// below the frontier.
    pub fn prune_closed(&mut self, min_hw: u32) {
        self.close_below(min_hw, false);
    }

    /// The folded tallies and fold frontier (engine checkpoint state).
    pub fn retired_state(&self) -> (&RetiredChurn, u32) {
        (&self.retired, self.folded_min_hw)
    }

    /// Dump the live state as sorted rows for checkpoint encoding:
    /// `(config granularities, total_days, horizon, partials, frontier,
    /// late count)`. The rows borrow their hash lists. The retired store
    /// is *not* included — shard accumulators never hold one (see
    /// [`ChurnAccumulator::prune_closed`]).
    #[allow(clippy::type_complexity)]
    pub fn export_windowed(
        &self,
    ) -> (&[Granularity], u32, Option<u32>, Vec<ChurnWindowEntry<'_>>, u32, u64) {
        let mut entries = Vec::with_capacity(self.live().map(|(_, _, map)| map.len()).sum());
        entries.extend(self.live().flat_map(|(granularity, window, map)| {
            map.iter().map(move |(&(vp, dest), agg)| ChurnWindowEntry {
                granularity,
                vp,
                dest,
                window,
                hashes: agg.hashes.as_slice(),
                count: agg.count,
            })
        }));
        // Keys are unique, so the unstable sort is as canonical as a
        // stable one, and (granularity, vantage, destination, window)
        // compares as one packed integer.
        entries.sort_unstable_by_key(|e| {
            (e.granularity as u128) << 96
                | u128::from(e.vp.0) << 64
                | u128::from(e.dest.0) << 32
                | u128::from(e.window)
        });
        let Self { granularities, total_days, horizon, folded_min_hw, late_dropped, .. } = self;
        (granularities, *total_days, *horizon, entries, *folded_min_hw, *late_dropped)
    }

    /// Start rebuilding an accumulator from exported rows (checkpoint
    /// decoding): the inverse of [`ChurnAccumulator::export_windowed`],
    /// fed one [`ChurnImport::row`] at a time and closed by
    /// [`ChurnImport::finish`].
    pub fn import_windowed(
        granularities: &[Granularity],
        total_days: u32,
        horizon: Option<u32>,
    ) -> ChurnImport {
        ChurnImport {
            acc: Self::windowed(granularities, total_days, horizon),
            windows: vec![BTreeMap::new(); granularities.len()],
        }
    }

    /// Distinct-path distributions at the given granularities, each one
    /// the accumulator was built with. A (pair, window) combo participates
    /// only when observed at least twice (churn is unobservable from a
    /// single measurement).
    pub fn distributions(&self, granularities: &[Granularity]) -> Vec<DistinctPathDist> {
        self.distributions_filtered(granularities, |_| true)
    }

    /// Like [`ChurnAccumulator::distributions`], restricted to pairs whose
    /// destination satisfies `keep` (used for the by-destination-class
    /// breakdown).
    pub fn distributions_filtered(
        &self,
        granularities: &[Granularity],
        keep: impl Fn(Asn) -> bool,
    ) -> Vec<DistinctPathDist> {
        granularities
            .iter()
            .map(|&g| {
                let slot = self.slot(g).unwrap_or_else(|| {
                    panic!("granularity {g} not configured on this churn accumulator")
                });
                let mut buckets = [0u64; 5];
                let mut total = 0u64;
                let combos = self.partials[slot].values().flat_map(|map| map.iter());
                for (&(_, dest), agg) in combos {
                    if agg.count < 2 || !keep(dest) {
                        continue;
                    }
                    buckets[agg.hashes.len().min(5) - 1] += 1;
                    total += 1;
                }
                for (&(rg, dest), tally) in self.retired.per_dest.iter() {
                    if rg != g || !keep(dest) {
                        continue;
                    }
                    for (a, b) in buckets.iter_mut().zip(tally.buckets) {
                        *a += b;
                    }
                    total += tally.total;
                }
                DistinctPathDist { granularity: g, buckets, total }
            })
            .collect()
    }

    /// Per-destination-class churn fractions at one granularity — the
    /// paper's check that content/enterprise/transit destinations churn
    /// alike.
    pub fn churn_by_dest_class(
        &self,
        topo: &Topology,
        granularity: Granularity,
    ) -> Vec<(AsClass, f64)> {
        AsClass::ALL
            .iter()
            .map(|&class| {
                let d = self.distributions_filtered(&[granularity], |dest| {
                    topo.info_by_asn(dest).map(|i| i.class == class).unwrap_or(false)
                });
                (class, d[0].churn_fraction())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|x| Asn(*x)).collect()
    }

    #[test]
    fn hash_distinguishes_paths() {
        assert_eq!(path_hash(&asns(&[1, 2, 3])), path_hash(&asns(&[1, 2, 3])));
        assert_ne!(path_hash(&asns(&[1, 2, 3])), path_hash(&asns(&[1, 3, 2])));
        assert_ne!(path_hash(&asns(&[1, 2])), path_hash(&asns(&[1, 2, 3])));
        // FNV-1a over each ASN's little-endian bytes: checkpoints store it.
        assert_eq!(path_hash(&asns(&[1, 2, 3])), 0xfd1f_0f43_81eb_0395);
    }

    #[test]
    fn stable_pair_no_churn() {
        let gs = [Granularity::Day, Granularity::Year];
        let mut acc = ChurnAccumulator::windowed(&gs, 365, None);
        for d in 0..20 {
            acc.add(Asn(1), Asn(2), d, &asns(&[1, 5, 2]));
            acc.add(Asn(1), Asn(2), d, &asns(&[1, 5, 2]));
        }
        let dist = acc.distributions(&gs);
        assert_eq!(dist[0].churn_fraction(), 0.0);
        assert_eq!(dist[1].churn_fraction(), 0.0);
    }

    #[test]
    fn churny_pair_counts() {
        let mut acc = ChurnAccumulator::windowed(&[Granularity::Day], 365, None);
        acc.add(Asn(1), Asn(2), 0, &asns(&[1, 5, 2]));
        acc.add(Asn(1), Asn(2), 0, &asns(&[1, 6, 2]));
        let dist = acc.distributions(&[Granularity::Day]);
        assert_eq!(dist[0].buckets, [0, 1, 0, 0, 0]);
        assert_eq!(dist[0].churn_fraction(), 1.0);
    }

    #[test]
    fn single_observation_windows_skipped() {
        let gs = [Granularity::Day, Granularity::Year];
        let mut acc = ChurnAccumulator::windowed(&gs, 365, None);
        acc.add(Asn(1), Asn(2), 0, &asns(&[1, 2]));
        acc.add(Asn(1), Asn(2), 100, &asns(&[1, 9, 2]));
        let dist = acc.distributions(&gs);
        assert_eq!(dist[0].total, 0, "day windows each saw one observation");
        assert_eq!(dist[1].buckets, [0, 1, 0, 0, 0], "year window sees both");
    }

    #[test]
    fn n_pairs_counts_pairs() {
        let mut acc = ChurnAccumulator::windowed(&Granularity::ALL, 365, None);
        acc.add(Asn(1), Asn(2), 0, &asns(&[1, 2]));
        acc.add(Asn(1), Asn(3), 0, &asns(&[1, 3]));
        acc.add(Asn(1), Asn(2), 1, &asns(&[1, 2]));
        assert_eq!(acc.n_pairs(), 2);
    }

    /// A deterministic pseudo-random workload shared by the equivalence
    /// tests below.
    fn workload() -> Vec<(Asn, Asn, u32, Vec<Asn>)> {
        let mut out = Vec::new();
        let mut state = 0x9e37_79b9_u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for _ in 0..600 {
            let vp = Asn(1 + next(4) as u32);
            let dest = Asn(100 + next(5) as u32);
            let day = next(60) as u32;
            let path = asns(&[vp.0, 10 + next(3) as u32, dest.0]);
            out.push((vp, dest, day, path));
        }
        out
    }

    /// One observation as the oracle takes it: vantage, destination, day,
    /// and the middle hop that tells its path from the pair's others.
    type Seen = (u32, u32, u32, u32);

    fn path_of(&(vp, dest, _, hop): &Seen) -> Vec<Asn> {
        asns(&[vp, 10 + hop, dest])
    }

    /// Figure 3 recounted from the raw samples, sharing nothing with the
    /// accumulator: every (pair, window) keeps the set of hops it saw and
    /// how often it was observed, and the ≥ 2-observations rule is applied
    /// at the end.
    fn recount(
        seen: &[Seen],
        gs: &[Granularity],
        total_days: u32,
        keep: impl Fn(Asn) -> bool,
    ) -> Vec<DistinctPathDist> {
        gs.iter()
            .map(|&granularity| {
                // (vantage, destination, window) → the hops seen, how often.
                let mut hops = HashMap::<_, HashSet<u32>>::new();
                let mut n_obs = HashMap::<_, u64>::new();
                for &(vp, dest, day, hop) in seen.iter().filter(|s| keep(Asn(s.1))) {
                    let combo = (vp, dest, TimeWindow::of(day, granularity, total_days));
                    hops.entry(combo).or_default().insert(hop);
                    *n_obs.entry(combo).or_default() += 1;
                }
                let mut buckets = [0u64; 5];
                for (combo, hops) in &hops {
                    if n_obs[combo] >= 2 {
                        buckets[hops.len().min(5) - 1] += 1;
                    }
                }
                DistinctPathDist { granularity, buckets, total: buckets.iter().sum() }
            })
            .collect()
    }

    /// Rows through [`ChurnAccumulator::import_windowed`], as a checkpoint
    /// decoder feeds them.
    fn import(
        gs: &[Granularity],
        total_days: u32,
        horizon: Option<u32>,
        rows: &[ChurnWindowEntry<'_>],
        frontier: u32,
        late: u64,
    ) -> Result<ChurnAccumulator, ChurnImportError> {
        let mut import = ChurnAccumulator::import_windowed(gs, total_days, horizon);
        for row in rows {
            import.row(*row)?;
        }
        import.finish(frontier, late)
    }

    /// Window `ix` of `g`, if open (tests look at allocations).
    fn window_of(acc: &ChurnAccumulator, g: Granularity, ix: u32) -> Option<&Arc<WindowMap>> {
        acc.partials[acc.slot(g).expect("configured")].get(&ix)
    }

    #[test]
    fn a_clone_is_frozen_and_shares_what_no_write_touched() {
        let gs = Granularity::ALL;
        let mut work = workload();
        work.sort_by_key(|&(_, _, day, _)| day);
        let (early, late): (Vec<_>, Vec<_>) = work.into_iter().partition(|&(_, _, d, _)| d < 40);
        let mut acc = ChurnAccumulator::windowed(&gs, 60, Some(3));
        for (vp, dest, day, path) in &early {
            acc.add(*vp, *dest, *day, path);
        }
        let report = acc.clone();
        let frozen = (
            report.distributions(&gs),
            report.n_pairs(),
            report.export_windowed().3,
        );
        let same = |a: &ChurnAccumulator, b: &ChurnAccumulator, g, ix| {
            match (window_of(a, g, ix), window_of(b, g, ix)) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (a, b) => panic!("window {g} {ix} empty: {} / {}", a.is_none(), b.is_none()),
            }
        };
        assert!(same(&acc, &report, Granularity::Day, 39), "a clone copies pointers");

        // Days 40.. open day windows 40.. and write to week 5 (days
        // 35–41), month 1 and the year.
        for (vp, dest, day, path) in &late {
            acc.add(*vp, *dest, *day, path);
        }
        assert_ne!(acc.distributions(&gs), frozen.0, "the original moved on");
        assert_eq!(report.distributions(&gs), frozen.0);
        assert_eq!(report.n_pairs(), frozen.1);
        assert_eq!(report.export_windowed().3, frozen.2);
        let (day, week, month, year) = Granularity::ALL.into();
        for (g, ix) in [(day, 0), (day, 39), (week, 4), (month, 0)] {
            assert!(same(&acc, &report, g, ix), "{g} window {ix} was not written to");
        }
        for (g, ix) in [(week, 5), (month, 1), (year, 0)] {
            assert!(!same(&acc, &report, g, ix), "{g} window {ix} was copied on write");
        }
        assert!(window_of(&report, day, 40).is_none(), "opened after the clone");

        // An empty receiver adopts every window by pointer.
        let mut merged = ChurnAccumulator::windowed(&gs, 60, Some(3));
        merged.merge(report.clone());
        assert!(same(&merged, &report, Granularity::Day, 0));
        assert!(same(&merged, &report, Granularity::Year, 0));

        // Closing windows on either side leaves the held clone whole.
        merged.fold_closed(59);
        acc.prune_closed(59);
        assert!(window_of(&merged, Granularity::Day, 0).is_none(), "the fold freed it");
        assert!(window_of(&acc, Granularity::Day, 0).is_none(), "the prune freed it");
        assert_eq!(report.distributions(&gs), frozen.0);
        assert_eq!(report.n_pairs(), frozen.1);
        assert_eq!(report.export_windowed().3, frozen.2);
        // ... and folding lost nothing: the merged copy still reports the
        // prefix it was cloned at.
        assert_eq!(merged.distributions(&gs), frozen.0);
    }

    #[test]
    fn what_is_held_follows_what_is_open_not_the_period() {
        // A run-forever configuration: the longest period there is, a
        // week's horizon. One pair observed twice a day for three years,
        // closing behind the watermark as a shard (prune) and a merger
        // (fold) do.
        let gs = Granularity::ALL;
        let total_days = u32::MAX;
        let held = |acc: &ChurnAccumulator| {
            acc.partials.iter().map(BTreeMap::len).sum::<usize>()
        };
        let mut shard = ChurnAccumulator::windowed(&gs, total_days, Some(7));
        let mut merged = ChurnAccumulator::windowed(&gs, total_days, Some(7));
        assert_eq!(held(&shard), 0, "nothing is held before it is observed");
        for day in 0..3 * 365 {
            for hop in [5, 6] {
                shard.add(Asn(1), Asn(2), day, &asns(&[1, hop, 2]));
                merged.add(Asn(1), Asn(2), day, &asns(&[1, hop, 2]));
            }
            shard.prune_closed(day);
            merged.fold_closed(day);
            // Open at any time: the horizon's eight day windows plus the
            // one filling, up to three weeks, up to two months, the year.
            assert!(held(&shard) <= 9 + 3 + 2 + 1, "day {day}: {} windows held", held(&shard));
            assert_eq!(held(&shard), held(&merged));
        }
        let day = &merged.distributions(&gs)[0];
        assert_eq!(day.buckets, [0, 3 * 365, 0, 0, 0], "every day window, open or folded");
    }

    #[test]
    fn folding_preserves_distributions() {
        let gs = Granularity::ALL;
        let mut plain = ChurnAccumulator::windowed(&gs, 60, Some(3));
        let mut folding = ChurnAccumulator::windowed(&gs, 60, Some(3));
        let mut work = workload();
        work.sort_by_key(|&(_, _, day, _)| day);
        let mut hw = 0;
        for (vp, dest, day, path) in work {
            hw = hw.max(day);
            plain.add(vp, dest, day, &path);
            folding.add(vp, dest, day, &path);
            // Fold aggressively at every watermark advance: closed
            // windows collapse into retired tallies mid-stream.
            folding.fold_closed(hw);
        }
        assert!(
            !folding.retired_state().0.is_empty(),
            "the workload must actually close windows",
        );
        assert_eq!(plain.distributions(&gs), folding.distributions(&gs));
        assert_eq!(plain.late_dropped(), 0, "in-order feed has no late observations");
    }

    #[test]
    fn fold_then_prune_round_trip_via_merge() {
        // Engine protocol in miniature: two shards accumulate, the merge
        // folds, shards prune, more data arrives, a second merge adopts
        // the first fold's tallies — totals must match a single
        // uninterrupted accumulator.
        let gs = [Granularity::Day, Granularity::Month, Granularity::Year];
        let horizon = Some(2);
        let mut reference = ChurnAccumulator::windowed(&gs, 60, horizon);
        let mut shard = [
            ChurnAccumulator::windowed(&gs, 60, horizon),
            ChurnAccumulator::windowed(&gs, 60, horizon),
        ];
        let mut work = workload();
        work.sort_by_key(|&(_, _, day, _)| day);
        let (early, late): (Vec<_>, Vec<_>) = work.into_iter().partition(|&(_, _, d, _)| d < 30);
        for (vp, dest, day, path) in &early {
            reference.add(*vp, *dest, *day, path);
            shard[(dest.0 % 2) as usize].add(*vp, *dest, *day, path);
        }
        // First cut: merge, fold at the global watermark, prune shards.
        let min_hw = 29;
        let mut merged = ChurnAccumulator::windowed(&gs, 60, horizon);
        merged.merge(shard[0].clone());
        merged.merge(shard[1].clone());
        merged.fold_closed(min_hw);
        let (retired, frontier) = {
            let (r, f) = merged.retired_state();
            (r.clone(), f)
        };
        assert!(!retired.is_empty());
        shard[0].prune_closed(min_hw);
        shard[1].prune_closed(min_hw);
        // Second half of the stream.
        for (vp, dest, day, path) in &late {
            reference.add(*vp, *dest, *day, path);
            shard[(dest.0 % 2) as usize].add(*vp, *dest, *day, path);
        }
        // Second cut re-adopts the persistent tallies.
        let mut merged = ChurnAccumulator::windowed(&gs, 60, horizon);
        merged.merge(shard[0].clone());
        merged.merge(shard[1].clone());
        merged.adopt_retired(&retired, frontier);
        merged.fold_closed(59);
        assert_eq!(reference.distributions(&gs), merged.distributions(&gs));
    }

    #[test]
    fn stale_partials_are_not_folded_twice() {
        // Two overlapping cuts: the second one's reports predate the
        // shards' prune and still carry partials the first cut already
        // folded. Adopting the frontier must make the second fold drop
        // them instead of double-counting.
        let gs = [Granularity::Day];
        let horizon = Some(1);
        let mut shard = ChurnAccumulator::windowed(&gs, 60, horizon);
        shard.add(Asn(1), Asn(2), 0, &asns(&[1, 2]));
        shard.add(Asn(1), Asn(2), 0, &asns(&[1, 9, 2]));
        shard.add(Asn(1), Asn(2), 10, &asns(&[1, 2]));
        // Cut A folds day 0 at watermark 10.
        let mut cut_a = ChurnAccumulator::windowed(&gs, 60, horizon);
        cut_a.merge(shard.clone());
        cut_a.fold_closed(10);
        let (retired, frontier) = {
            let (r, f) = cut_a.retired_state();
            (r.clone(), f)
        };
        assert_eq!(cut_a.distributions(&gs)[0].buckets, [0, 1, 0, 0, 0]);
        // Cut B was collected before the shard pruned: same stale
        // partials, plus the adopted tallies from cut A.
        let mut cut_b = ChurnAccumulator::windowed(&gs, 60, horizon);
        cut_b.merge(shard.clone());
        cut_b.adopt_retired(&retired, frontier);
        cut_b.fold_closed(10);
        assert_eq!(
            cut_b.distributions(&gs),
            cut_a.distributions(&gs),
            "stale partials must be dropped, not re-folded",
        );
    }

    #[test]
    fn late_observations_dropped_per_granularity() {
        let gs = [Granularity::Day, Granularity::Year];
        let mut acc = ChurnAccumulator::windowed(&gs, 60, Some(1));
        acc.add(Asn(1), Asn(2), 10, &asns(&[1, 2]));
        acc.prune_closed(10);
        // Day 3's day-window (end 3, +1 < 10) is folded; its year window
        // is still open — exactly one of the two granularities drops it.
        acc.add(Asn(1), Asn(2), 3, &asns(&[1, 7, 2]));
        assert_eq!(acc.late_dropped(), 1);
        let dist = acc.distributions(&gs);
        assert_eq!(dist[0].total, 0, "late day-window observation dropped");
        assert_eq!(dist[1].buckets, [0, 1, 0, 0, 0], "year window kept both");
    }

    #[test]
    fn export_import_round_trip() {
        let gs = Granularity::ALL;
        let mut acc = ChurnAccumulator::windowed(&gs, 60, Some(3));
        for (vp, dest, day, path) in workload() {
            acc.add(vp, dest, day, &path);
        }
        acc.prune_closed(20);
        let (g, days, h, entries, frontier, late) = acc.export_windowed();
        let back = import(g, days, h, &entries, frontier, late).expect("exported rows import");
        assert_eq!(acc.distributions(&gs), back.distributions(&gs));
        assert_eq!(acc.late_dropped(), back.late_dropped());
        let (_, _, _, entries2, frontier2, _) = back.export_windowed();
        assert_eq!(entries, entries2, "export is canonical");
        assert_eq!(frontier, frontier2);
    }

    #[test]
    fn windows_past_the_inline_capacity_spill_without_losing_order() {
        // More distinct paths per window than fit inline: the hash list
        // spills to the heap mid-stream and must still count every one,
        // through merge and export/import too.
        let gs = [Granularity::Day, Granularity::Year];
        let n = INLINE_HASHES as u32 + 4;
        let mut seen = Vec::new();
        let mut windowed = ChurnAccumulator::windowed(&gs, 60, None);
        let mut halves =
            [ChurnAccumulator::windowed(&gs, 60, None), ChurnAccumulator::windowed(&gs, 60, None)];
        for i in 0..2 * n {
            // Each path twice, so re-inserts hit both representations.
            let path = asns(&[1, 10 + i % n, 2]);
            seen.push((1, 2, 0, i % n));
            windowed.add(Asn(1), Asn(2), 0, &path);
            halves[(i % 2) as usize].add(Asn(1), Asn(2), 0, &path);
        }
        let expect = recount(&seen, &gs, 60, |_| true);
        assert_eq!(expect[0].buckets, [0, 0, 0, 0, 1], "one day window in the 5+ bucket");
        assert_eq!(windowed.distributions(&gs), expect);
        let [mut merged, other] = halves;
        merged.merge(other);
        assert_eq!(merged.distributions(&gs), expect);

        let (g, days, h, entries, frontier, late) = windowed.export_windowed();
        let first_seen: Vec<u64> = (0..n).map(|i| path_hash(&asns(&[1, 10 + i, 2]))).collect();
        assert_eq!(entries[0].hashes, first_seen, "insertion order survives the spill");
        let back = import(g, days, h, &entries, frontier, late).expect("exported rows import");
        assert_eq!(back.export_windowed().3, entries);
    }

    #[test]
    fn import_refuses_rows_that_fit_no_window() {
        let gs = [Granularity::Day, Granularity::Month];
        let row = |granularity, window, hashes| ChurnWindowEntry {
            granularity,
            vp: Asn(1),
            dest: Asn(2),
            window,
            hashes,
            count: 2,
        };
        let import = |rows: Vec<_>| import(&gs, 60, Some(3), &rows, 0, 0);
        // The last window of each granularity is the last row that fits.
        let ok = import(vec![row(Granularity::Day, 59, &[7]), row(Granularity::Month, 1, &[7])]);
        assert_eq!(ok.expect("in range").n_pairs(), 1);
        assert_eq!(
            import(vec![row(Granularity::Week, 0, &[7])]).unwrap_err(),
            ChurnImportError::UnknownGranularity(Granularity::Week),
        );
        assert_eq!(
            import(vec![row(Granularity::Month, 2, &[7])]).unwrap_err(),
            ChurnImportError::WindowOutOfRange {
                granularity: Granularity::Month,
                window: 2,
                count: 2
            },
        );
        assert_eq!(
            import(vec![row(Granularity::Day, u32::MAX, &[7])]).unwrap_err(),
            ChurnImportError::WindowOutOfRange {
                granularity: Granularity::Day,
                window: u32::MAX,
                count: 60
            },
        );
        assert_eq!(
            import(vec![row(Granularity::Day, 4, &[7]), row(Granularity::Day, 4, &[8])])
                .unwrap_err(),
            ChurnImportError::DuplicateRow {
                granularity: Granularity::Day,
                vp: Asn(1),
                dest: Asn(2),
                window: 4
            },
        );
        // A hashless row would underflow every reader's bucket index.
        let err = import(vec![row(Granularity::Day, 4, &[])]).unwrap_err();
        assert_eq!(err, ChurnImportError::NoHashes { granularity: Granularity::Day, window: 4 });
        assert!(err.to_string().contains("no path hash"), "{err}");
        // Horizon 3, frontier 8: day window 4 (4 + 3 < 8) was popped before
        // the frontier got there; day window 5 is the oldest still open.
        let behind = |rows: Vec<_>| self::import(&gs, 60, Some(3), &rows, 8, 0);
        assert_eq!(behind(vec![row(Granularity::Day, 5, &[7])]).expect("open").n_pairs(), 1);
        let err = behind(vec![row(Granularity::Day, 4, &[7])]).unwrap_err();
        assert_eq!(
            err,
            ChurnImportError::BehindFrontier {
                granularity: Granularity::Day,
                window: 4,
                frontier: 8
            },
        );
        assert!(err.to_string().contains("fold frontier 8"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The batch is the loop. Blocks of observations — empty ones,
        /// ones that sit in a single window (`spread` 0: no sort), ones
        /// over many windows (80 days: the counting sort), ones over a
        /// range too wide to count (days × 50M in the longest period: the
        /// comparison sort) — through `add_batch` and through `add` one
        /// by one leave the same rows (hash lists in the same order), the
        /// same late drops and the same distributions, with the fold
        /// frontier pruned forward between blocks so some arrive late;
        /// and a clone taken before a block does not see it.
        #[test]
        fn prop_a_batch_leaves_what_the_loop_leaves(
            blocks in proptest::collection::vec(
                (
                    proptest::collection::vec((1u32..4, 100u32..103, 0u32..80, 0u32..4), 0..40),
                    proptest::option::of(0u32..80),
                ),
                1..6,
            ),
            horizon in proptest::option::of(0u32..5),
            total_days in prop_oneof![Just(60u32), Just(45u32), Just(u32::MAX)],
            spread in prop_oneof![Just(0u32), Just(1u32), Just(50_000_000u32)],
        ) {
            let gs = Granularity::ALL;
            let fresh = || ChurnAccumulator::windowed(&gs, total_days, horizon);
            fn rows(acc: &ChurnAccumulator) -> (Vec<ChurnWindowEntry<'_>>, u32, u64) {
                let (_, _, _, rows, frontier, late) = acc.export_windowed();
                (rows, frontier, late)
            }
            let (mut looped, mut batched) = (fresh(), fresh());
            let mut order = BatchOrder::default();
            for (block, prune) in blocks {
                let held = batched.clone();
                let before = (rows(&held), held.distributions(&gs));
                let mut batch = Vec::new();
                for (vp, dest, day, hop) in block {
                    let day = (7 + day * spread.min(1)).saturating_mul(spread.max(1));
                    let path = asns(&[vp, 10 + hop, dest]);
                    looped.add(Asn(vp), Asn(dest), day, &path);
                    batch.push((Asn(vp), Asn(dest), day, path_hash(&path)));
                }
                batched.add_batch(&batch, &mut order);
                prop_assert_eq!(rows(&batched), rows(&looped));
                prop_assert_eq!(batched.late_dropped(), looped.late_dropped());
                prop_assert_eq!(
                    batched.distributions(&gs),
                    looped.distributions(&gs)
                );
                prop_assert_eq!((rows(&held), held.distributions(&gs)), before);
                if let Some(hw) = prune {
                    looped.prune_closed(hw);
                    batched.prune_closed(hw);
                }
            }
        }

        /// The store is the recount. Random samples — days past the period
        /// included, so the last window's clamp is exercised (a 0-day
        /// period clamps everything into window 0) — over any non-empty
        /// subset of the granularities and four period lengths,
        /// fed one by one, as one batch, and dealt over `k` accumulators
        /// then merged: every route reports what [`recount`] reads off the
        /// raw samples, whole and restricted to one destination.
        #[test]
        fn prop_the_store_reports_what_a_recount_of_the_samples_reports(
            seen in proptest::collection::vec((1u32..5, 100u32..104, 0u32..1100, 0u32..7), 0..300),
            subset in 1usize..16,
            total_days in prop_oneof![Just(0u32), Just(60u32), Just(365u32), Just(1000u32)],
            k in 1usize..5,
        ) {
            let gs: Vec<Granularity> = Granularity::ALL
                .into_iter()
                .enumerate()
                .filter_map(|(bit, g)| (subset >> bit & 1 == 1).then_some(g))
                .collect();
            let fresh = || ChurnAccumulator::windowed(&gs, total_days, None);
            let (mut looped, mut batched) = (fresh(), fresh());
            let mut dealt: Vec<_> = (0..k).map(|_| fresh()).collect();
            let mut batch = Vec::new();
            for (at, s) in seen.iter().enumerate() {
                let (vp, dest, day, path) = (Asn(s.0), Asn(s.1), s.2, path_of(s));
                looped.add(vp, dest, day, &path);
                dealt[at % k].add(vp, dest, day, &path);
                batch.push((vp, dest, day, path_hash(&path)));
            }
            batched.add_batch(&batch, &mut BatchOrder::default());
            let mut merged = fresh();
            dealt.into_iter().for_each(|part| merged.merge(part));

            let whole = recount(&seen, &gs, total_days, |_| true);
            let one_dest = recount(&seen, &gs, total_days, |d| d == Asn(101));
            let n_pairs = seen.iter().map(|s| (s.0, s.1)).collect::<HashSet<_>>().len();
            for acc in [&looped, &batched, &merged] {
                prop_assert_eq!(&acc.distributions(&gs), &whole);
                prop_assert_eq!(&acc.distributions_filtered(&gs, |d| d == Asn(101)), &one_dest);
                prop_assert_eq!(acc.n_pairs(), n_pairs);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not configured")]
    fn windowed_rejects_unconfigured_granularity() {
        let acc = ChurnAccumulator::windowed(&[Granularity::Day], 60, None);
        acc.distributions(&[Granularity::Week]);
    }
}
