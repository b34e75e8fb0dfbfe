//! Incremental per-instance tomography state, interned end to end.
//!
//! A batch localizer would buffer a URL's observations and run the
//! census per instance, from scratch, once the stream ends — as the
//! executable specification (`churnlab-oracle`) does.
//! The engine instead keeps every instance *solved at all times*: each
//! new observation is folded into a memoized unit-propagation/backbone
//! state, and in the common cases the update is a constant-time state
//! transition — no solver call at all:
//!
//! * **early-unsat** — clauses only ever shrink the model set, so an
//!   unsatisfiable instance stays unsatisfiable forever; further
//!   observations are recorded and skipped;
//! * **already-decided** — when the memoized backbone already fixes every
//!   AS a new observation mentions, the model set provably cannot change
//!   (clean path over always-False ASes) or changes in a closed form
//!   (positive clause satisfied by an always-True AS, or needing exactly
//!   the observation's fresh ASes);
//! * otherwise an **incremental re-solve** runs, and it is arithmetic:
//!   the memoized backbone literals — valid under clause addition, since
//!   models only shrink — seed [`churnlab_sat::monotone`]'s closed form
//!   (unit propagation to fixpoint, then every free AS is `Both` and the
//!   count is H × 2^k; its module doc has the argument). No solver runs;
//!   `churnlab_sat::reference`'s census is the oracle the tests hold
//!   this against.
//!
//! Since PR 5, the data plane is id-based. A shard interns each incoming
//! path once ([`crate::PathTable`], one hash per measurement); the
//! granularity×anomaly fan-out then works entirely on the dense
//! [`PathId`]. An [`InstanceGroup`] is one (URL × window) and its
//! [`AnomalyType::ALL`] cells, and it **owns what the five cells share**:
//!
//! * the **variable space** — every cell sees the same observation
//!   stream, so the distinct-AS set (and hence the variable numbering) is
//!   provably identical across the anomaly fan-out. The group resolves a
//!   path to its group-local variable-index list **once**, amortized
//!   across all cells;
//! * **dedup** — a per-cell polarity bitmask looked up with the *same*
//!   group probe: a duplicate observation costs one `u32` map probe for
//!   all five cells together, not five full-path hashes;
//! * the **observation log** — one record per *effective* observation:
//!   the `PathId`, the 5-bit set of cells it was new for, and the 5-bit
//!   set of those that saw it censored. A cell's own log (what a
//!   checkpoint stores, what the leakage fold reads) is the projection on
//!   its bit;
//! * the **exoneration mask** — one byte per group variable, bit *i* =
//!   "a clean path for anomaly *i* carried this AS". Almost every
//!   observation is a clean path, and it exonerates the same ASes for
//!   every anomaly it is clean for: the group marks them in one pass over
//!   the path's variable list, for all those cells together.
//!
//! An [`IncrementalInstance`] keeps only what differs between anomalies:
//! two counters, the ids of its censored paths (its positive clauses,
//! literals read out of the group's flat index arena), and the per-AS
//! backbone memo, a dense `Vec<Fate>` indexed by group-local variable
//! index. It reads its bit of the exoneration mask when a censored path
//! arrives or a re-solve runs, so a clean path into a cell that has never
//! seen a censored one costs that cell one counter — and there is no
//! per-AS hashing anywhere on the update path.
//!
//! The produced [`InstanceOutcome`] is exactly what the specification's
//! batch cell (`churnlab_oracle::cell`, the DPLL census of the cell's
//! CNF) makes of the same observation set, in any arrival order — the
//! engine's order-independence proof leans on this equivalence (see the
//! module's property tests, which also hold every cell's memo against
//! `churnlab_sat::reference`'s census of the cell's CNF after every
//! observation).

use crate::ckpt::{le_u32, Dec, Enc};
use crate::intern::PathTable;
use crate::obs::ResolveObs;
use churnlab_bgp::TimeWindow;
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::instance::InstanceKey;
use churnlab_core::obs::PathId;
use churnlab_platform::{AnomalySet, AnomalyType};
use churnlab_sat::monotone::Monotone;
use churnlab_sat::{SolutionCount, Solvability};
use churnlab_topology::{Asn, FxMap};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cells per group — one per anomaly type.
const N_CELLS: usize = AnomalyType::ALL.len();

/// What is known about one AS across all models of the current clause
/// set. `Always*` knowledge is stable under new observations (models only
/// shrink), which is what makes the memo reusable; only `Both` entries
/// can tighten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// True in every model — a definite censor.
    AlwaysTrue,
    /// False in every model — a definite non-censor.
    AlwaysFalse,
    /// True in some models, false in others — a potential censor.
    Both,
}

/// The memoized solve state.
#[derive(Debug, Clone)]
enum Memo {
    /// No censored observation yet: the all-False assignment is the
    /// unique model (the `require_positive` "trivial" case).
    Trivial,
    /// Proven unsatisfiable — absorbing.
    Unsat,
    /// Satisfiable, with the (possibly capped) model count and the exact
    /// per-AS backbone knowledge, dense over group-local variable
    /// indices. Invariant: after every update, `fate` covers every group
    /// variable (`fate.len() == group vars`), because any observation
    /// that introduces variables reaches every cell as a non-duplicate.
    Solved { count: SolutionCount, fate: Vec<Fate> },
}

/// Counters describing how much work the incremental path saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncrementalStats {
    /// Observations that changed an instance (post-dedup).
    pub updates: u64,
    /// Duplicate observations dropped by dedup.
    pub duplicates: u64,
    /// Updates resolved by a constant-time state transition (no
    /// re-solve).
    pub direct_updates: u64,
    /// Updates skipped because the instance was already unsatisfiable.
    pub unsat_skips: u64,
    /// Updates that ran a reduced-formula re-solve.
    pub resolves: u64,
}

impl IncrementalStats {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: IncrementalStats) {
        self.updates += other.updates;
        self.duplicates += other.duplicates;
        self.direct_updates += other.direct_updates;
        self.unsat_skips += other.unsat_skips;
        self.resolves += other.resolves;
    }

    /// Fraction of dedup decisions that were duplicates (the
    /// churn-sparsity headline: how duplicate-dominated the per-cell
    /// observe stream was).
    pub fn duplicate_ratio(&self) -> f64 {
        let total = self.updates + self.duplicates;
        if total == 0 {
            0.0
        } else {
            self.duplicates as f64 / total as f64
        }
    }
}

/// Reusable re-solve scratch shared by every instance a worker owns: the
/// closed form's [`Monotone`] scratch, indexed by group-local variable
/// index — no hashing — and rewound per re-solve, never freed, so a
/// steady-state shard allocates nothing per observation.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// Per-AS state, the cell's clauses and the count's branch stack.
    mono: Monotone,
    /// Re-solve timing handles (latency histogram + phase counter),
    /// `None` when the owning engine runs stripped. Wall-clock timed:
    /// re-solves are rare (tens of thousands per millions of updates),
    /// so an `Instant` pair per call is noise.
    resolve_obs: Option<ResolveObs>,
}

impl SolveScratch {
    /// Fresh scratch (buffers grow to steady-state sizes on first use).
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Thread re-solve timing handles in (worker construction path).
    pub(crate) fn set_resolve_obs(&mut self, obs: ResolveObs) {
        self.resolve_obs = Some(obs);
    }
}

/// `seen` mask bit: a clean observation of the path was recorded.
const SEEN_CLEAN: u8 = 1;
/// `seen` mask bit: a censored observation of the path was recorded.
const SEEN_CENSORED: u8 = 2;

/// One path resolved against a group's variable space: where its
/// variable-index list lives in the flat arena, plus the per-cell
/// dedup polarity masks — so one probe serves resolution *and* dedup for
/// the whole anomaly fan-out.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    /// Start of the var-index list in [`VarSpace::lits`].
    start: u32,
    /// Length of the list (distinct ASes on the path — `u32`, not a
    /// narrower type: imported replay records put no bound on path
    /// length, and a silent truncation here would mis-solve the cell).
    len: u32,
    /// Per-cell seen-polarity masks (`SEEN_CLEAN` / `SEEN_CENSORED`).
    masks: [u8; N_CELLS],
}

/// The (URL × window) variable space shared by a group's cells: the
/// distinct ASes in first-appearance order (the variable numbering), and
/// the per-path resolved variable-index lists in one flat arena.
#[derive(Debug, Clone, Default)]
struct VarSpace {
    /// Group-local variable index → AS, first-appearance order.
    vars: Vec<Asn>,
    /// AS → group-local variable index.
    var_ix: FxMap<Asn, u32>,
    /// Flat arena of resolved var-index lists (one span per path).
    lits: Vec<u32>,
    /// Path → its span in `lits` + dedup masks.
    resolved: FxMap<PathId, Resolved>,
    /// Per variable, the cells (bit `i` = cell `i`) in which a clean path
    /// carried it — the axiom unit negations. As long as `vars`.
    exonerated: Vec<u8>,
}

impl VarSpace {
    /// Where the var-index list of a path previously resolved in this
    /// space sits in `lits`: `(start, end)`.
    fn span(&self, pid: PathId) -> (u32, u32) {
        let r = &self.resolved[&pid];
        (r.start, r.start + r.len)
    }

    /// The var-index list at a [`VarSpace::span`].
    #[inline]
    fn clause(&self, (start, end): (u32, u32)) -> &[u32] {
        &self.lits[start as usize..end as usize]
    }
}

/// One effective observation: which interned path, the cells it was new
/// for, and those of them that saw it censored (`censored ⊆ new_for`; bit
/// `i` is cell `i`).
#[derive(Debug, Clone, Copy)]
struct LogRec {
    path: PathId,
    new_for: u8,
    censored: u8,
}

/// All [`AnomalyType::ALL`] instances of one (URL × window), sharing one
/// `VarSpace` and one observation log. The group is the dedup and
/// resolution point: an observation is resolved to its variable-index
/// list (and checked against every cell's dedup mask) with a single
/// `PathId` probe, logged once, and its exonerations marked once.
#[derive(Debug, Clone)]
pub struct InstanceGroup {
    space: VarSpace,
    /// Effective observations in arrival order.
    log: Vec<LogRec>,
    cells: [IncrementalInstance; N_CELLS],
}

impl InstanceGroup {
    /// Fresh group for one (URL × window).
    pub fn new(url_id: u32, window: TimeWindow) -> Self {
        InstanceGroup {
            space: VarSpace::default(),
            log: Vec::new(),
            cells: std::array::from_fn(|i| {
                let key = InstanceKey { url_id, anomaly: AnomalyType::ALL[i], window };
                IncrementalInstance::new(key, 1 << i)
            }),
        }
    }

    /// Fold one interned observation into every cell. `detected` decides
    /// each cell's polarity; `table` resolves the path's distinct-AS list
    /// the first time this group sees it; `cap` is the enumeration cap
    /// ([`churnlab_core::analyze::SolveConfig`]); `scratch` is the
    /// worker-owned re-solve scratch. Returns whether the
    /// observation was *effective* — a non-duplicate for at least one
    /// cell. Only an effective observation can change any cell's
    /// [`IncrementalInstance::outcome`], so a `false` tells the shard
    /// its cached solved cells for this group are still current.
    pub fn observe(
        &mut self,
        pid: PathId,
        table: &PathTable,
        detected: AnomalySet,
        cap: u64,
        stats: &mut IncrementalStats,
        scratch: &mut SolveScratch,
    ) -> bool {
        let (start, len);
        let mut rec = LogRec { path: pid, new_for: 0, censored: 0 };
        {
            let VarSpace { vars, var_ix, lits, resolved, exonerated } = &mut self.space;
            let entry = resolved.entry(pid).or_insert_with(|| {
                // First sight of this path in the group: resolve its
                // distinct ASes to group-local variable indices once,
                // registering fresh variables in appearance order.
                let start = lits.len() as u32;
                for a in table.distinct(pid) {
                    let ix = *var_ix.entry(*a).or_insert_with(|| {
                        let ix = vars.len() as u32;
                        vars.push(*a);
                        ix
                    });
                    lits.push(ix);
                }
                let len = lits.len() as u32 - start;
                Resolved { start, len, masks: [0; N_CELLS] }
            });
            start = entry.start as usize;
            len = entry.len as usize;
            for (i, anomaly) in AnomalyType::ALL.into_iter().enumerate() {
                let censored = detected.contains(anomaly);
                let seen = if censored { SEEN_CENSORED } else { SEEN_CLEAN };
                if entry.masks[i] & seen != 0 {
                    stats.duplicates += 1;
                } else {
                    entry.masks[i] |= seen;
                    rec.new_for |= 1 << i;
                    rec.censored |= u8::from(censored) << i;
                }
            }
            if rec.new_for == 0 {
                return false;
            }
            // One pass over the path exonerates its ASes for every cell
            // the path is a new clean observation of.
            exonerated.resize(vars.len(), 0);
            let clean = rec.new_for & !rec.censored;
            if clean != 0 {
                for &ix in &lits[start..start + len] {
                    exonerated[ix as usize] |= clean;
                }
            }
        }
        self.log.push(rec);
        let space = &self.space;
        let vlist = &space.lits[start..start + len];
        for cell in &mut self.cells {
            if rec.new_for & cell.bit != 0 {
                stats.updates += 1;
                let censored = rec.censored & cell.bit != 0;
                cell.observe(pid, vlist, censored, space, cap, stats, scratch);
            }
        }
        true
    }

    /// The group's variables in ascending AS order, each beside its
    /// group-local index: what every cell's
    /// [`IncrementalInstance::outcome`] walks, so the group sorts once
    /// for all five.
    pub fn vars_by_asn(&self) -> VarsByAsn {
        let mut v: Vec<(Asn, u32)> = self.space.vars.iter().copied().zip(0..).collect();
        // The variables are distinct ASes, so the order is total.
        v.sort_unstable();
        VarsByAsn(v)
    }

    /// The group's cells, in [`AnomalyType::ALL`] order.
    pub fn cells(&self) -> impl Iterator<Item = &IncrementalInstance> {
        self.cells.iter()
    }

    /// The cell localizing one anomaly type.
    pub fn cell(&self, anomaly: AnomalyType) -> &IncrementalInstance {
        let i = AnomalyType::ALL.iter().position(|a| *a == anomaly).expect("known anomaly");
        &self.cells[i]
    }

    /// The deduplicated censored paths of one cell, in arrival order
    /// (leakage analysis input), as ids against the shard's [`PathTable`]
    /// — resolved back to AS paths only at the report boundary.
    pub fn censored_paths(&self, anomaly: AnomalyType) -> impl Iterator<Item = PathId> + '_ {
        let bit = self.cell(anomaly).bit;
        self.log.iter().filter(move |rec| rec.censored & bit != 0).map(|rec| rec.path)
    }
}

/// A group's variables, ascending by AS, each with its group-local index
/// ([`InstanceGroup::vars_by_asn`]).
#[derive(Debug, Clone)]
pub struct VarsByAsn(Vec<(Asn, u32)>);

/// One (URL × window × anomaly) instance kept incrementally solved — what
/// differs between the anomalies of a group, all of it id- and
/// index-based: two counters, `PathId` clauses read out of the group's
/// literal arena, and a dense per-variable `Fate` memo. Lives inside an
/// [`InstanceGroup`], which owns dedup, variable resolution, the
/// observation log and the clean-path exonerations.
#[derive(Debug, Clone)]
pub struct IncrementalInstance {
    key: InstanceKey,
    /// This cell's bit in the group's masks.
    bit: u8,
    /// Distinct observations: the group's log records with this bit.
    n_obs: usize,
    n_positive: usize,
    /// Deduplicated censored paths (the positive clauses), by id.
    pos_clauses: Vec<PathId>,
    memo: Memo,
}

/// Saturate a model count at the enumeration cap, mirroring the
/// census: exact at or below the cap, a lower bound strictly above it.
fn cap_count(value: u128, cap: u64) -> SolutionCount {
    if value > u128::from(cap) {
        SolutionCount::AtLeast(cap)
    } else {
        SolutionCount::Exact(value as u64)
    }
}

/// Multiply a (possibly capped) count by an exact factor (>= 1).
fn scale_count(count: SolutionCount, factor: u128, cap: u64) -> SolutionCount {
    debug_assert!(factor >= 1);
    match count {
        SolutionCount::Exact(n) => cap_count(u128::from(n) * factor, cap),
        SolutionCount::AtLeast(_) => SolutionCount::AtLeast(cap),
    }
}

/// `2^n` clamped into `u128` range (n is a path-length-bounded AS count).
fn pow2(n: usize) -> u128 {
    if n >= 127 {
        u128::MAX
    } else {
        1u128 << n
    }
}

impl IncrementalInstance {
    /// Fresh instance.
    fn new(key: InstanceKey, bit: u8) -> Self {
        IncrementalInstance {
            key,
            bit,
            n_obs: 0,
            n_positive: 0,
            pos_clauses: Vec::new(),
            memo: Memo::Trivial,
        }
    }

    /// The instance identity.
    pub fn key(&self) -> InstanceKey {
        self.key
    }

    /// True once at least one censored observation arrived.
    pub fn has_positive(&self) -> bool {
        self.n_positive > 0
    }

    /// Distinct observations so far.
    pub fn len(&self) -> usize {
        self.n_obs
    }

    /// True if nothing observed.
    pub fn is_empty(&self) -> bool {
        self.n_obs == 0
    }

    /// Fold in one non-duplicate observation, already logged and — if
    /// clean — already marked in the group's exoneration mask. `vlist` is
    /// the path's group-resolved variable-index list; `space` resolves
    /// clause ids during re-solves.
    #[allow(clippy::too_many_arguments)]
    fn observe(
        &mut self,
        pid: PathId,
        vlist: &[u32],
        censored: bool,
        space: &VarSpace,
        cap: u64,
        stats: &mut IncrementalStats,
        scratch: &mut SolveScratch,
    ) {
        self.n_obs += 1;
        if censored {
            self.n_positive += 1;
            self.pos_clauses.push(pid);
        }
        if matches!(self.memo, Memo::Unsat) {
            stats.unsat_skips += 1;
            return;
        }
        let n_vars = space.vars.len();
        if censored {
            self.apply_positive(vlist, n_vars, cap, stats, space, scratch);
        } else {
            self.apply_negative(vlist, n_vars, cap, stats, space, scratch);
        }
    }

    /// New positive clause (censored path) against the current memo.
    fn apply_positive(
        &mut self,
        vlist: &[u32],
        n_vars: usize,
        cap: u64,
        stats: &mut IncrementalStats,
        space: &VarSpace,
        scratch: &mut SolveScratch,
    ) {
        match &mut self.memo {
            Memo::Unsat => unreachable!("handled by caller"),
            Memo::Trivial => {
                // First censored observation: every AS seen before is on
                // a clean path, so the re-solve counts one clause.
                stats.direct_updates += 1;
                self.resolve_inner(n_vars, space, cap, scratch);
            }
            Memo::Solved { count, fate } => {
                // Variables beyond the memo's coverage are exactly this
                // path's fresh ASes: any observation that grows the group
                // variable space reaches every cell as a non-duplicate,
                // so the memo was full-coverage before this path arrived.
                let known = fate.len();
                let n_fresh = n_vars - known;
                debug_assert_eq!(
                    n_fresh,
                    vlist.iter().filter(|&&ix| ix as usize >= known).count(),
                    "fresh variables must all come from this path"
                );
                let mut satisfied = false;
                let mut undecided = false;
                for &ix in vlist {
                    if (ix as usize) < known {
                        match fate[ix as usize] {
                            Fate::AlwaysTrue => satisfied = true,
                            Fate::Both => undecided = true,
                            Fate::AlwaysFalse => {}
                        }
                    }
                }
                if satisfied {
                    // The clause already holds in every model; the fresh
                    // ASes it introduces are entirely free.
                    stats.direct_updates += 1;
                    if n_fresh > 0 {
                        *count = scale_count(*count, pow2(n_fresh), cap);
                        fate.resize(n_vars, Fate::Both);
                    }
                    return;
                }
                if undecided {
                    // The clause interacts with genuinely ambiguous ASes:
                    // re-solve over the reduced formula.
                    stats.resolves += 1;
                    self.resolve(n_vars, space, cap, scratch);
                    return;
                }
                // Every known AS on the path is always-False: the clause
                // can only be satisfied by its fresh ASes.
                stats.direct_updates += 1;
                match n_fresh {
                    0 => self.memo = Memo::Unsat,
                    1 => {
                        // Exactly one candidate: a censor identified
                        // incrementally; the model count is unchanged.
                        fate.resize(n_vars, Fate::AlwaysTrue);
                    }
                    n => {
                        *count = scale_count(*count, pow2(n) - 1, cap);
                        fate.resize(n_vars, Fate::Both);
                    }
                }
            }
        }
    }

    /// New unit negations (clean path) against the current memo.
    fn apply_negative(
        &mut self,
        vlist: &[u32],
        n_vars: usize,
        cap: u64,
        stats: &mut IncrementalStats,
        space: &VarSpace,
        scratch: &mut SolveScratch,
    ) {
        match &mut self.memo {
            Memo::Unsat => unreachable!("handled by caller"),
            Memo::Trivial => {
                // Still no positive clause; all-False remains the model.
                stats.direct_updates += 1;
            }
            Memo::Solved { fate, .. } => {
                let known = fate.len();
                let mut any_true = false;
                let mut any_both = false;
                for &ix in vlist {
                    if (ix as usize) < known {
                        match fate[ix as usize] {
                            Fate::AlwaysTrue => any_true = true,
                            Fate::Both => any_both = true,
                            Fate::AlwaysFalse => {}
                        }
                    }
                }
                if any_true {
                    // A definite censor observed clean in the same window:
                    // contradiction (noise or a policy change).
                    stats.direct_updates += 1;
                    self.memo = Memo::Unsat;
                    return;
                }
                if !any_both {
                    // Every known AS here is already always-False; the new
                    // units are implied and fresh ASes are plain axioms.
                    stats.direct_updates += 1;
                    fate.resize(n_vars, Fate::AlwaysFalse);
                    return;
                }
                // A potential censor just got exonerated: re-solve.
                stats.resolves += 1;
                self.resolve(n_vars, space, cap, scratch);
            }
        }
    }

    /// [`IncrementalInstance::resolve_inner`] with optional wall-clock
    /// timing into the scratch's re-solve observability handles. The
    /// handles are taken out for the duration so the borrow of `scratch`
    /// stays whole.
    fn resolve(&mut self, n_vars: usize, space: &VarSpace, cap: u64, scratch: &mut SolveScratch) {
        match scratch.resolve_obs.take() {
            None => self.resolve_inner(n_vars, space, cap, scratch),
            Some(obs) => {
                let t0 = Instant::now();
                self.resolve_inner(n_vars, space, cap, scratch);
                let nanos = t0.elapsed().as_nanos() as u64;
                obs.latency.observe(nanos);
                obs.nanos.add(nanos);
                scratch.resolve_obs = Some(obs);
            }
        }
    }

    /// Incremental re-solve, in closed form: seed
    /// [`churnlab_sat::monotone`]'s propagation with the axiom units and
    /// the memoized backbone (both survive clause addition), read every
    /// AS's fate off its fixpoint and count what is left — all in the
    /// worker's recycled scratch, with no per-call heap traffic beyond
    /// the buffers' growth.
    fn resolve_inner(&mut self, n_vars: usize, space: &VarSpace, cap: u64, scratch: &mut SolveScratch) {
        let mono = &mut scratch.mono;
        mono.reset(n_vars);
        for (ix, &cells) in space.exonerated.iter().enumerate() {
            if cells & self.bit != 0 {
                mono.fix(ix as u32, false);
            }
        }
        // Take the memo (leaving the absorbing Unsat in place, which every
        // early return below wants): its fate seeds the fixed set, and its
        // vector is recycled as the next memo's allocation.
        let mut fate = match std::mem::replace(&mut self.memo, Memo::Unsat) {
            Memo::Solved { mut fate, .. } => {
                for (ix, f) in fate.iter().enumerate() {
                    let value = match f {
                        Fate::AlwaysTrue => true,
                        Fate::AlwaysFalse => false,
                        Fate::Both => continue,
                    };
                    if !mono.fix(ix as u32, value) {
                        return; // exonerated definite censor: unsat
                    }
                }
                fate.clear();
                fate
            }
            _ => Vec::with_capacity(n_vars),
        };
        for &pid in &self.pos_clauses {
            mono.add_clause(space.clause(space.span(pid)).iter().copied());
        }
        if !mono.propagate() {
            return; // conflict: memo stays Unsat
        }
        fate.extend(mono.values().map(|value| match value {
            Some(true) => Fate::AlwaysTrue,
            Some(false) => Fate::AlwaysFalse,
            None => Fate::Both,
        }));
        let count = mono.count(cap);
        self.memo = Memo::Solved { count, fate };
    }

    /// The analysed outcome — identical to the specification's batch cell
    /// (`churnlab_oracle::cell`) over the same observation set. `vars` is the owning group's
    /// variables in AS order ([`InstanceGroup::vars_by_asn`]); every cell
    /// of a group shares them, since every cell sees every observation.
    /// Walking them in that order is what makes `censors`,
    /// `potential_censors` and `eliminated` come out strictly ascending
    /// without a sort.
    pub fn outcome(&self, vars: &VarsByAsn) -> InstanceOutcome {
        let vars = &vars.0;
        let n_vars = vars.len();
        let (solvability, bucket, censors, potential, eliminated) = match &self.memo {
            Memo::Trivial => {
                // Clean observations only: the all-False assignment is
                // the unique model and every AS is exonerated.
                let elim = vars.iter().map(|&(a, _)| a).collect();
                (Solvability::Unique, 1u8, Vec::new(), Vec::new(), elim)
            }
            Memo::Unsat => (Solvability::Unsat, 0, Vec::new(), Vec::new(), Vec::new()),
            Memo::Solved { count, fate } => {
                debug_assert_eq!(fate.len(), n_vars, "memo covers the group's variables");
                let solvability = count.solvability();
                debug_assert_ne!(solvability, Solvability::Unsat, "Solved memo is satisfiable");
                let mut censors = Vec::new();
                let mut potential = Vec::new();
                let mut eliminated = Vec::with_capacity(n_vars);
                for &(a, ix) in vars {
                    match fate[ix as usize] {
                        Fate::AlwaysTrue => censors.push(a),
                        Fate::AlwaysFalse => eliminated.push(a),
                        Fate::Both => potential.push(a),
                    }
                }
                debug_assert!(
                    solvability != Solvability::Unique || potential.is_empty(),
                    "a unique model fixes every variable"
                );
                (solvability, count.bucket(), censors, potential, eliminated)
            }
        };
        let eliminated_frac =
            if n_vars == 0 { 0.0 } else { eliminated.len() as f64 / n_vars as f64 };
        InstanceOutcome {
            key: self.key,
            n_vars,
            n_observations: self.n_obs,
            n_positive: self.n_positive,
            solvability,
            bucket,
            censors,
            potential_censors: potential,
            eliminated,
            eliminated_frac,
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint encode/decode.
//
// Lives here because group and cell state is private by design. Encoding
// is canonical (resolved spans written sorted by `PathId`); decoding
// revalidates every index and tag so a corrupt checkpoint surfaces as an
// error at restore time instead of a panic deep inside a later solve.
//
// The format predates the shared log and has not moved: each cell's
// section opens with *its* observation log, `(PathId, polarity)` in
// arrival order. Encoding projects the group's log on the cell's bit;
// decoding merges the five stored logs back into one.

/// What a cell's stored log says of one observation: the row of its path
/// among the group's resolved paths (the position in the stored list,
/// not the `PathId`), and its polarity.
type CellObs = (u32, bool);

/// Bytes a resolved-path row takes: id, span start, span length, one
/// dedup mask a cell.
const RESOLVED_ROW: usize = 3 * 4 + N_CELLS;

/// Bytes a cell's log entry takes: path id, polarity.
const LOG_ENTRY: usize = 4 + 1;

/// A path with no row in the group being decoded.
const NO_ROW: u32 = u32::MAX;

impl InstanceGroup {
    /// Serialize the group: variable space, resolved spans, and the five
    /// cells in [`AnomalyType::ALL`] order, each as its projection of the
    /// log and then its memo. Derived state (positive clauses, the
    /// exoneration mask) is not stored — it replays deterministically
    /// from the log at decode time.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.asns(&self.space.vars);
        e.u32s(&self.space.lits);
        let mut resolved: Vec<(PathId, Resolved)> =
            self.space.resolved.iter().map(|(p, r)| (*p, *r)).collect();
        resolved.sort_unstable_by_key(|(p, _)| p.0);
        e.u64(resolved.len() as u64);
        for (pid, r) in resolved {
            let mut row = [0; RESOLVED_ROW];
            row[..4].copy_from_slice(&pid.0.to_le_bytes());
            row[4..8].copy_from_slice(&r.start.to_le_bytes());
            row[8..12].copy_from_slice(&r.len.to_le_bytes());
            row[12..].copy_from_slice(&r.masks);
            e.buf.extend_from_slice(&row);
        }
        for cell in &self.cells {
            e.u64(cell.n_obs as u64);
            for rec in self.log.iter().filter(|rec| rec.new_for & cell.bit != 0) {
                let [a, b, c, d] = rec.path.0.to_le_bytes();
                e.buf.extend_from_slice(&[a, b, c, d, u8::from(rec.censored & cell.bit != 0)]);
            }
            cell.memo.encode(e);
        }
    }
}

/// Decodes one shard's groups, reusing its buffers from group to group:
/// a table from each of the shard's path ids to the path's row among the
/// resolved paths of the group being decoded — so a logged path is found
/// by index, with no map probe — and the rows and five logs themselves.
#[derive(Debug)]
pub(crate) struct GroupDecoder {
    /// Per path of the shard's table, its row in `rows`, or [`NO_ROW`].
    /// Every slot is [`NO_ROW`] between groups.
    row_of: Vec<u32>,
    rows: Vec<(PathId, Resolved)>,
    logs: [Vec<CellObs>; N_CELLS],
}

impl GroupDecoder {
    /// A decoder for the groups of a shard whose table holds `n_paths`
    /// paths, bounding every path id a group may reference.
    pub(crate) fn new(n_paths: usize) -> Self {
        GroupDecoder { row_of: vec![NO_ROW; n_paths], rows: Vec::new(), logs: Default::default() }
    }

    /// Rebuild a group from its encoded form. The identity (URL and
    /// window) comes from the enclosing shard map key, so it is not
    /// stored per group. Each list is read as one checked slice, and
    /// every map and arena the group keeps is reserved whole.
    pub(crate) fn decode(
        &mut self,
        url_id: u32,
        window: TimeWindow,
        d: &mut Dec,
    ) -> Result<InstanceGroup, String> {
        let group = self.decode_group(url_id, window, d);
        for &(pid, _) in &self.rows {
            self.row_of[pid.usize()] = NO_ROW;
        }
        group
    }

    fn decode_group(
        &mut self,
        url_id: u32,
        window: TimeWindow,
        d: &mut Dec,
    ) -> Result<InstanceGroup, String> {
        let GroupDecoder { row_of, rows, logs } = self;
        rows.clear();
        let vars = d.asns()?;
        let mut var_ix = FxMap::with_capacity_and_hasher(vars.len(), Default::default());
        for (ix, a) in vars.iter().enumerate() {
            if var_ix.insert(*a, ix as u32).is_some() {
                return Err(format!("duplicate group variable AS{}", a.0));
            }
        }
        let lits = d.u32s()?;
        if let Some(ix) = lits.iter().find(|&&ix| ix as usize >= vars.len()) {
            return Err(format!("literal index {ix} out of variable range"));
        }
        let n = d.count(RESOLVED_ROW)?;
        rows.reserve(n);
        for row in d.take(n * RESOLVED_ROW)?.chunks_exact(RESOLVED_ROW) {
            let pid = PathId(le_u32(&row[..4]));
            let Some(slot) = row_of.get_mut(pid.usize()) else {
                return Err(format!("resolved path {} out of table range", pid.0));
            };
            if *slot != NO_ROW {
                return Err(format!("duplicate resolved path {}", pid.0));
            }
            let (start, len) = (le_u32(&row[4..8]), le_u32(&row[8..12]));
            if u64::from(start) + u64::from(len) > lits.len() as u64 {
                return Err(format!("resolved span {start}+{len} exceeds literal arena"));
            }
            let masks: [u8; N_CELLS] = row[12..].try_into().expect("one mask a cell");
            if let Some(m) = masks.iter().find(|&&m| m & !(SEEN_CLEAN | SEEN_CENSORED) != 0) {
                return Err(format!("bad dedup mask {m:#x}"));
            }
            *slot = rows.len() as u32;
            rows.push((pid, Resolved { start, len, masks }));
        }
        let mut cells = Vec::with_capacity(N_CELLS);
        for (i, anomaly) in AnomalyType::ALL.into_iter().enumerate() {
            let log = &mut logs[i];
            log.clear();
            let n = d.count(LOG_ENTRY)?;
            log.reserve(n);
            let mut pos_clauses = Vec::new();
            for obs in d.take(n * LOG_ENTRY)?.chunks_exact(LOG_ENTRY) {
                let pid = PathId(le_u32(&obs[..4]));
                let censored = match obs[4] {
                    0 => false,
                    1 => true,
                    t => return Err(format!("bad polarity tag {t}")),
                };
                let row = row_of.get(pid.usize()).copied().unwrap_or(NO_ROW);
                if row == NO_ROW {
                    return Err(format!("observation of unresolved path {}", pid.0));
                }
                log.push((row, censored));
                if censored {
                    pos_clauses.push(pid);
                }
            }
            let key = InstanceKey { url_id, anomaly, window };
            let mut cell = IncrementalInstance::new(key, 1 << i);
            cell.n_obs = log.len();
            cell.n_positive = pos_clauses.len();
            cell.pos_clauses = pos_clauses;
            cell.memo = Memo::decode(vars.len(), d)?;
            if matches!(cell.memo, Memo::Trivial) && cell.n_positive > 0 {
                return Err("trivial memo alongside censored observations".to_string());
            }
            cells.push(cell);
        }
        let log = merge_logs(rows, logs)
            .map_err(|fault| format!("group (url {url_id}, {window}): {fault}"))?;
        // The merge checked every mask bit against a log entry, so a
        // path's clean bits are exactly the cells a clean log entry of it
        // exonerates for.
        let mut exonerated = vec![0; vars.len()];
        for (_, r) in rows.iter() {
            let clean = (0..N_CELLS).fold(0u8, |bits, cell| {
                bits | u8::from(r.masks[cell] & SEEN_CLEAN != 0) << cell
            });
            if clean != 0 {
                for &ix in &lits[r.start as usize..r.start as usize + r.len as usize] {
                    exonerated[ix as usize] |= clean;
                }
            }
        }
        let mut resolved = FxMap::with_capacity_and_hasher(rows.len(), Default::default());
        resolved.extend(rows.iter().copied());
        let space = VarSpace { vars, var_ix, lits, resolved, exonerated };
        let cells: [IncrementalInstance; N_CELLS] =
            cells.try_into().expect("exactly N_CELLS cells decoded");
        Ok(InstanceGroup { space, log, cells })
    }
}

/// Merge the five cells' stored logs back into the group's one, keeping
/// each cell's order (so re-encoding reproduces the bytes) and putting
/// entries of one path that sit at the head of several cells' logs into
/// one record, as the ingest that wrote them did. Log entries name their
/// path by its row in `rows`, the group's resolved paths.
///
/// Every entry is checked off against the path's dedup masks on the way:
/// an ingest sets a mask bit exactly when it logs the entry, so a log
/// that repeats a (path, polarity), lists one its mask does not carry, or
/// leaves a mask bit unaccounted for is a state no ingest produces — a
/// fault naming the cell and the path, not a restore.
fn merge_logs(
    rows: &[(PathId, Resolved)],
    logs: &[Vec<CellObs>; N_CELLS],
) -> Result<Vec<LogRec>, String> {
    // Per row and cell, the polarities logged but not yet merged.
    let mut pending: Vec<[u8; N_CELLS]> = rows.iter().map(|(_, r)| r.masks).collect();
    let mut at = [0usize; N_CELLS];
    let mut log = Vec::with_capacity(logs.iter().map(Vec::len).max().unwrap_or(0));
    loop {
        let head = |cell: usize| logs[cell].get(at[cell]).map(|obs| obs.0);
        // Next, a path at the head of every log that still holds it — an
        // all-cells record comes back whole even when one cell's log runs
        // a few single-cell records behind. Failing that (two cells hold
        // each other's head further down), the first head there is.
        let heads = || (0..N_CELLS).filter_map(head);
        let whole = heads().find(|&row| {
            let left = &pending[row as usize];
            (0..N_CELLS).all(|cell| head(cell) == Some(row) || left[cell] == 0)
        });
        let Some(row) = whole.or_else(|| heads().next()) else { break };
        let (pid, masks) = (rows[row as usize].0, rows[row as usize].1.masks);
        let left = &mut pending[row as usize];
        let mut rec = LogRec { path: pid, new_for: 0, censored: 0 };
        for cell in 0..N_CELLS {
            let Some(&(_, censored)) = logs[cell].get(at[cell]).filter(|obs| obs.0 == row) else {
                continue;
            };
            let seen = if censored { SEEN_CENSORED } else { SEEN_CLEAN };
            if left[cell] & seen == 0 {
                let polarity = if censored { "censored" } else { "clean" };
                let anomaly = AnomalyType::ALL[cell];
                let logs = format!("cell {anomaly:?} logs path {} {polarity}", pid.0);
                return Err(if masks[cell] & seen == 0 {
                    format!("{logs}, its dedup mask does not")
                } else {
                    format!("{logs} twice")
                });
            }
            left[cell] &= !seen;
            rec.new_for |= 1 << cell;
            rec.censored |= u8::from(censored) << cell;
            at[cell] += 1;
        }
        log.push(rec);
    }
    let unlogged = pending
        .iter()
        .enumerate()
        .filter_map(|(row, left)| left.iter().position(|&m| m != 0).map(|cell| (rows[row].0, cell)))
        .min();
    if let Some((pid, cell)) = unlogged {
        return Err(format!(
            "cell {:?}'s dedup mask has seen path {}, its log has not",
            AnomalyType::ALL[cell],
            pid.0
        ));
    }
    Ok(log)
}

impl Memo {
    fn encode(&self, e: &mut Enc) {
        match self {
            Memo::Trivial => e.u8(0),
            Memo::Unsat => e.u8(1),
            Memo::Solved { count, fate } => {
                e.u8(2);
                match count {
                    SolutionCount::Exact(n) => {
                        e.u8(0);
                        e.u64(*n);
                    }
                    SolutionCount::AtLeast(n) => {
                        e.u8(1);
                        e.u64(*n);
                    }
                }
                e.u64(fate.len() as u64);
                e.buf.extend(fate.iter().map(|f| match f {
                    Fate::AlwaysTrue => 0u8,
                    Fate::AlwaysFalse => 1,
                    Fate::Both => 2,
                }));
            }
        }
    }

    /// A memo over a group of `n_vars` variables.
    fn decode(n_vars: usize, d: &mut Dec) -> Result<Memo, String> {
        Ok(match d.u8()? {
            0 => Memo::Trivial,
            1 => Memo::Unsat,
            2 => {
                let count = match d.u8()? {
                    0 => SolutionCount::Exact(d.u64()?),
                    1 => SolutionCount::AtLeast(d.u64()?),
                    t => return Err(format!("bad count tag {t}")),
                };
                let n_fate = d.len()?;
                if n_fate != n_vars {
                    return Err(format!("memo covers {n_fate} variables, group has {n_vars}"));
                }
                let fate = d.take(n_fate)?.iter().map(|&t| match t {
                    0 => Ok(Fate::AlwaysTrue),
                    1 => Ok(Fate::AlwaysFalse),
                    2 => Ok(Fate::Both),
                    t => Err(format!("bad fate tag {t}")),
                });
                Memo::Solved { count, fate: fate.collect::<Result<_, _>>()? }
            }
            t => return Err(format!("bad memo tag {t}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_bgp::Granularity;
    use churnlab_core::analyze::SolveConfig;
    use churnlab_sat::brute;
    use proptest::prelude::*;

    fn key() -> InstanceKey {
        InstanceKey {
            url_id: 3,
            anomaly: AnomalyType::Dns,
            window: window(),
        }
    }

    /// The default enumeration cap ([`SolveConfig::default`]).
    const CAP: u64 = 64;

    fn window() -> TimeWindow {
        TimeWindow::of(0, Granularity::Day, 365)
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|x| Asn(*x)).collect()
    }

    /// One cell's distinct (path, censored) observations, in order of
    /// first appearance: what the specification formulates.
    type Observations = Vec<(Vec<Asn>, bool)>;

    /// Drives an [`InstanceGroup`] the way a shard does, and beside it
    /// the oracle: per cell, that cell's polarity of every observation as
    /// the specification (`churnlab_oracle`) takes it, and the work
    /// counters that follow from those lists alone.
    struct Harness {
        table: PathTable,
        group: InstanceGroup,
        stats: IncrementalStats,
        scratch: SolveScratch,
        cap: u64,
        /// Per cell, its distinct observations.
        oracle: [Observations; N_CELLS],
        /// Per cell, whether its census read no model after the last
        /// observation.
        unsat: [bool; N_CELLS],
        /// What the oracle says `stats` must read: `updates` are the
        /// (path, polarity) pairs new to a cell, `duplicates` the rest of
        /// the cell observes, `unsat_skips` the updates reaching a cell
        /// whose census already read zero. The split of the remaining
        /// updates into re-solves and direct updates is the engine's own
        /// (`checkpoint_blob_is_pinned` pins it on a real study).
        expect: IncrementalStats,
    }

    impl Harness {
        fn new() -> Self {
            Harness::with_cap(CAP)
        }

        fn with_cap(cap: u64) -> Self {
            Harness {
                table: PathTable::new(),
                group: InstanceGroup::new(3, window()),
                stats: IncrementalStats::default(),
                scratch: SolveScratch::new(),
                cap,
                oracle: std::array::from_fn(|_| Vec::new()),
                unsat: [false; N_CELLS],
                expect: IncrementalStats::default(),
            }
        }

        /// One observation censored for the Dns cell alone (the other four
        /// cells see the same paths all-clean).
        fn observe(&mut self, path: &[Asn], censored: bool) {
            let mut detected = AnomalySet::empty();
            if censored {
                detected.insert(AnomalyType::Dns);
            }
            self.observe_set(path, detected);
        }

        /// One observation censored for the cells in `detected`, after
        /// which every cell's memo is held against the census
        /// ([`Harness::check_memos`]). Returns the path's id.
        fn observe_set(&mut self, path: &[Asn], detected: AnomalySet) -> PathId {
            let pid = self.table.intern(path);
            let Harness { table, group, stats, scratch, cap, .. } = self;
            group.observe(pid, table, detected, *cap, stats, scratch);
            for (i, anomaly) in AnomalyType::ALL.into_iter().enumerate() {
                let seen = (path.to_vec(), detected.contains(anomaly));
                if self.oracle[i].contains(&seen) {
                    self.expect.duplicates += 1;
                } else {
                    self.oracle[i].push(seen);
                    self.expect.updates += 1;
                    self.expect.unsat_skips += u64::from(self.unsat[i]);
                }
            }
            let counts = self.check_memos(&self.group, false);
            self.unsat = counts.map(|count| count == SolutionCount::Exact(0));
            pid
        }

        /// Each cell of `group` — the harness's own, or one restored from
        /// it — holds the memo the census makes of the cell's CNF as the
        /// specification formulates it: the count, and per variable whether
        /// some model sets it True and whether some sets it False; when
        /// `exhaustive` and the CNF is small, brute-force enumeration
        /// agrees. A cell with no censored observation has unit negations
        /// alone, whose one model is all False; that needs no census.
        /// Every path reaches every cell the first time it is seen, so the
        /// formulations number the variables in the group's
        /// first-appearance order. Returns the five counts.
        fn check_memos(&self, group: &InstanceGroup, exhaustive: bool) -> [SolutionCount; N_CELLS] {
            let (cap, n) = (self.cap, group.space.vars.len());
            let sides = |b: Option<churnlab_sat::Backbone>| {
                b.map(|b| b.ever_true.into_iter().zip(b.ever_false).collect::<Vec<_>>())
            };
            let all_false = (SolutionCount::Exact(1), Some(vec![(false, true); n]));
            std::array::from_fn(|i| {
                let memo = match &group.cells[i].memo {
                    Memo::Trivial => all_false.clone(),
                    Memo::Unsat => (SolutionCount::Exact(0), None),
                    Memo::Solved { count, fate } => {
                        let sides = fate.iter().map(|&f| (f != Fate::AlwaysFalse, f != Fate::AlwaysTrue));
                        (*count, Some(sides.collect()))
                    }
                };
                let anomaly = AnomalyType::ALL[i];
                if !self.oracle[i].iter().any(|(_, censored)| *censored) {
                    assert_eq!(memo, all_false, "{anomaly:?} cell without a censored observation");
                    return memo.0;
                }
                let cnf = churnlab_oracle::formulate(&self.oracle[i]).cnf;
                let census = churnlab_sat::reference::census(&cnf, cap);
                let census = (census.count, sides(census.backbone));
                assert_eq!(memo, census, "{anomaly:?} cell, reference census, cap {cap}: {cnf:?}");
                if exhaustive && n <= 20 {
                    let all = (cap_count(brute::count(&cnf).into(), cap), sides(brute::backbone(&cnf)));
                    assert_eq!(memo, all, "{anomaly:?} cell, brute, cap {cap}: {cnf:?}");
                }
                census.0
            })
        }

        /// The counters read what the oracle derives.
        fn check_stats(&self) {
            let (got, want) = (self.stats, self.expect);
            assert_eq!(
                (got.updates, got.duplicates, got.unsat_skips),
                (want.updates, want.duplicates, want.unsat_skips)
            );
            assert_eq!(got.resolves + got.direct_updates, want.updates - want.unsat_skips);
        }

        /// Each cell's outcome as the specification's batch cell makes
        /// it, and the observations it is made of.
        fn batch(&self) -> [(InstanceOutcome, &Observations); N_CELLS] {
            std::array::from_fn(|i| {
                let key = InstanceKey { url_id: 3, anomaly: AnomalyType::ALL[i], window: window() };
                (churnlab_oracle::cell(key, &self.oracle[i], self.cap), &self.oracle[i])
            })
        }

        fn dns(&self) -> &IncrementalInstance {
            self.group.cell(AnomalyType::Dns)
        }

        fn outcome(&self) -> InstanceOutcome {
            self.dns().outcome(&self.group.vars_by_asn())
        }
    }

    /// The same observation sequence through the specification's batch
    /// cell; `None` when there is none.
    fn batch_outcome(observations: &[(Vec<Asn>, bool)], cap: u64) -> Option<InstanceOutcome> {
        (!observations.is_empty()).then(|| churnlab_oracle::cell(key(), observations, cap))
    }

    fn incremental_outcome(observations: &[(Vec<Asn>, bool)], cap: u64) -> Option<InstanceOutcome> {
        let mut h = Harness::with_cap(cap);
        for (path, censored) in observations {
            h.observe(path, *censored);
        }
        if h.dns().is_empty() {
            return None;
        }
        h.check_memos(&h.group, true);
        h.check_stats();
        Some(h.outcome())
    }

    #[test]
    fn unique_censor_identified_incrementally() {
        let mut h = Harness::new();
        h.observe(&asns(&[1, 2, 3]), true);
        h.observe(&asns(&[1, 2, 4]), false);
        let out = h.outcome();
        assert_eq!(out.solvability, Solvability::Unique);
        assert_eq!(out.censors, asns(&[3]));
        assert_eq!(out.eliminated, asns(&[1, 2, 4]));
        // The first positive is closed-form on the Dns cell; the clean
        // path exonerates potential censors, which is the one genuine
        // re-solve case (the other four cells stay Trivial throughout).
        assert_eq!(h.stats.resolves, 1);
        // A duplicate of either observation is a no-op for all 5 cells,
        // and a clean path over already-eliminated ASes is closed-form.
        h.observe(&asns(&[1, 2, 4]), false);
        assert_eq!(h.stats.duplicates, N_CELLS as u64);
        h.observe(&asns(&[1, 4]), false);
        assert_eq!(h.stats.resolves, 1, "implied units must not re-solve");
    }

    #[test]
    fn contradiction_is_absorbing_unsat() {
        let mut h = Harness::new();
        h.observe(&asns(&[5, 6]), true);
        h.observe(&asns(&[5, 6]), false);
        assert_eq!(h.outcome().solvability, Solvability::Unsat);
        // Everything after is a constant-time skip on the Dns cell.
        h.observe(&asns(&[7, 8]), true);
        h.observe(&asns(&[7]), false);
        assert_eq!(h.stats.unsat_skips, 2);
        let out = h.outcome();
        assert_eq!(out.solvability, Solvability::Unsat);
        assert_eq!(out.n_vars, 4);
        assert_eq!(out.n_observations, 4);
    }

    #[test]
    fn same_path_both_polarities_dedups_separately() {
        // The ID-based dedup keys on (PathId, polarity): the same path
        // observed censored AND clean is two distinct records (the
        // contradiction the paper keeps), while re-observing either
        // polarity is a duplicate.
        let mut h = Harness::new();
        h.observe(&asns(&[1, 2]), true);
        h.observe(&asns(&[1, 2]), false); // same id, other polarity: kept (Dns)
        h.observe(&asns(&[1, 2]), true); // duplicate censored: dropped
        h.observe(&asns(&[1, 2]), false); // duplicate clean: dropped
        assert_eq!(h.dns().len(), 2, "both polarities recorded once each");
        assert_eq!(h.outcome().solvability, Solvability::Unsat);
        assert_eq!(h.table.len(), 1, "one distinct path interned");
        assert_eq!(h.table.stats().hits, 3);
    }

    #[test]
    fn repeated_ases_on_a_path_collapse_to_one_variable() {
        // A path visiting the same AS twice (route with an AS-level
        // loop artifact) contributes that AS once to the variable space
        // and once per clause — so [9, 9] censored has models {9}, i.e.
        // a unique censor, exactly as the batch builder sees it.
        let seq = vec![(asns(&[9, 9]), true)];
        let batch = batch_outcome(&seq, CAP).expect("non-empty");
        let inc = incremental_outcome(&seq, CAP).expect("non-empty");
        assert_eq!(inc, batch);
        assert_eq!(inc.censors, asns(&[9]));
        assert_eq!(inc.n_vars, 1);
        // And through a longer mixed sequence with repeats.
        let seq = vec![
            (asns(&[1, 7, 1, 3]), true),
            (asns(&[1, 1]), false),
            (asns(&[3, 3, 3]), false),
        ];
        assert_eq!(incremental_outcome(&seq, CAP), batch_outcome(&seq, CAP));
    }

    #[test]
    fn clean_paths_arriving_first_are_equivalent() {
        let seq_a = vec![(asns(&[1, 2, 3]), true), (asns(&[1, 2, 4]), false)];
        let seq_b = vec![(asns(&[1, 2, 4]), false), (asns(&[1, 2, 3]), true)];
        assert_eq!(incremental_outcome(&seq_a, CAP), incremental_outcome(&seq_b, CAP));
        assert_eq!(incremental_outcome(&seq_a, CAP), batch_outcome(&seq_a, CAP));
    }

    #[test]
    fn duplicates_are_noops() {
        let mut h = Harness::new();
        h.observe(&asns(&[1, 2]), true);
        h.observe(&asns(&[1, 2]), true);
        assert_eq!(h.stats.duplicates, N_CELLS as u64, "all five cells dedup");
        assert_eq!(h.dns().len(), 1);
    }

    #[test]
    fn trivial_instance_matches_batch_when_analysed() {
        let seq = vec![(asns(&[1, 2]), false), (asns(&[2, 3]), false)];
        assert_eq!(incremental_outcome(&seq, CAP), batch_outcome(&seq, CAP));
        let out = incremental_outcome(&seq, CAP).unwrap();
        assert_eq!(out.solvability, Solvability::Unique);
        assert!(out.censors.is_empty());
        assert_eq!(out.eliminated_frac, 1.0);
    }

    #[test]
    fn churn_pins_down_shared_censor_any_order() {
        let obs = vec![
            (asns(&[1, 9, 3]), true),
            (asns(&[2, 9, 4]), true),
            (asns(&[1, 2, 3, 4]), false),
        ];
        // All 6 arrival orders agree with the batch result.
        let orders: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let expect = batch_outcome(&obs, CAP).unwrap();
        assert_eq!(expect.censors, asns(&[9]));
        for order in orders {
            let seq: Vec<_> = order.iter().map(|&i| obs[i].clone()).collect();
            assert_eq!(incremental_outcome(&seq, CAP).unwrap(), expect, "order {order:?}");
        }
    }

    #[test]
    fn a_restored_log_is_as_short_as_the_one_ingest_wrote() {
        // Records for one cell, then for four of the five, between
        // all-cell records: whichever cell's stored log runs ahead, the
        // merge waits for the others, so every all-cell record comes back
        // whole — one entry, not five.
        let all = |skip: usize| -> AnomalySet { AnomalyType::ALL.into_iter().skip(skip).collect() };
        let mut h = Harness::new();
        let cap = SolveConfig::default().count_cap;
        for (path, detected) in [
            (&[1, 2][..], AnomalySet::empty()),
            (&[1, 2], [AnomalyType::ALL[3]].into_iter().collect()), // new for cell 3 only
            (&[2, 3], AnomalySet::empty()),
            (&[3, 4], all(1)),
            (&[3, 4], AnomalySet::empty()), // new for cells 1..5
            (&[4, 5], all(0)),
        ] {
            let pid = h.table.intern(&asns(path));
            assert!(h.group.observe(pid, &h.table, detected, cap, &mut h.stats, &mut h.scratch));
        }
        let new_for: Vec<u8> = h.group.log.iter().map(|rec| rec.new_for).collect();
        assert_eq!(new_for, [0b11111, 0b01000, 0b11111, 0b11111, 0b11110, 0b11111]);
        let (restored, _) = round_trip(&h);
        assert_eq!(restored.log.len(), h.group.log.len());
        assert_eq!(restored.space.exonerated, h.group.space.exonerated);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// See [`interned_matches_batch_and_reference`].
        #[test]
        fn prop_interned_matches_batch_and_reference(obs in observations(), cap in caps()) {
            interned_matches_batch_and_reference(obs, cap);
        }

        /// The group is its five cells. Any observe sequence — every
        /// one of the 32 anomaly sets, paths that repeat, one path under
        /// both polarities — leaves each cell what the specification's
        /// batch cell makes of that cell's polarity of the stream: the same outcome,
        /// counts and censored paths in arrival order; after every
        /// observation each cell's memo is what the census makes of the
        /// cell's CNF ([`Harness::check_memos`]), and the work counters
        /// are what the oracle derives ([`Harness::check_stats`]). A group
        /// checkpointed and restored part-way (`cut`) is held the same way
        /// after every later observation, carries on to the same end
        /// state and counters as one never interrupted, and re-encodes to
        /// the bytes it was read from. The `reference` of its name is the
        /// census, `churnlab_sat::reference`.
        #[test]
        fn prop_group_is_five_reference_cells_across_a_round_trip(
            observations in proptest::collection::vec(
                (proptest::collection::vec(1u32..6, 1..5), 0u8..32),
                1..24,
            ),
            cut in 0usize..24,
        ) {
            let cap = SolveConfig::default().count_cap;
            let observations: Vec<(Vec<Asn>, AnomalySet)> = observations
                .into_iter()
                .map(|(path, bits)| {
                    let detected = AnomalyType::ALL.into_iter().enumerate();
                    let detected = detected.filter(|(i, _)| bits >> i & 1 == 1).map(|(_, a)| a);
                    (asns(&path), detected.collect())
                })
                .collect();
            let cut = cut.min(observations.len());

            let mut h = Harness::new();
            let mut restored = None;
            for (at, (path, detected)) in observations.iter().enumerate() {
                if at == cut {
                    restored = Some(round_trip(&h));
                }
                let pid = h.observe_set(path, *detected);
                if let Some((group, stats)) = &mut restored {
                    group.observe(pid, &h.table, *detected, cap, stats, &mut h.scratch);
                    h.check_memos(group, false);
                }
            }
            let (after, after_stats) = match restored {
                Some(restored) => restored,
                None => round_trip(&h),
            };
            h.check_stats();
            prop_assert_eq!(after_stats, h.stats);
            let batch = h.batch();
            for group in [&h.group, &after] {
                h.check_memos(group, true);
                for (i, anomaly) in AnomalyType::ALL.into_iter().enumerate() {
                    let (cell, (expect, observations)) = (&group.cells[i], &batch[i]);
                    prop_assert_eq!(cell.len(), expect.n_observations);
                    prop_assert_eq!(cell.has_positive(), expect.n_positive > 0);
                    prop_assert_eq!(&cell.outcome(&group.vars_by_asn()), expect);
                    let paths: Vec<&[Asn]> =
                        group.censored_paths(anomaly).map(|pid| h.table.path(pid)).collect();
                    let censored = observations.iter().filter(|(_, censored)| *censored);
                    prop_assert_eq!(paths, censored.map(|(path, _)| path.as_slice()).collect::<Vec<_>>());
                }
            }
            prop_assert_eq!(&after.space.exonerated, &h.group.space.exonerated);
            prop_assert_eq!(encoded(&after), encoded(&h.group));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// [`prop_interned_matches_batch_and_reference`] at 20,000 cases
        /// (`cargo test --release -p churnlab-engine --lib -- --ignored
        /// interned_matches`).
        #[test]
        #[ignore = "20,000 cases, run in release"]
        fn prop_interned_matches_batch_and_reference_20k(obs in observations(), cap in caps()) {
            interned_matches_batch_and_reference(obs, cap);
        }
    }

    /// Up to 23 observations of paths of up to seven ASes drawn, with
    /// repeats, from a universe of 13, censored three times in four: wide
    /// enough that re-solves run and counts pass the cap.
    fn observations() -> impl Strategy<Value = Vec<(Vec<u32>, bool)>> {
        let censored = (0u8..4).prop_map(|x| x != 0);
        proptest::collection::vec((proptest::collection::vec(1u32..14, 1..8), censored), 1..24)
    }

    /// Enumeration caps from the smallest the census takes to the default.
    fn caps() -> impl Strategy<Value = u64> {
        prop_oneof![Just(2u64), Just(3), Just(5), Just(8), Just(64)]
    }

    /// The interned state machine agrees with the specification's batch
    /// cell (`churnlab_oracle::cell`) for the same observations — in the given order AND reversed (order
    /// independence) — and after every observation its memos are what
    /// the SAT oracle, `churnlab_sat::reference` (the `reference` of its
    /// name), makes of the same CNFs ([`Harness::check_memos`]); at each
    /// stream's end brute-force enumeration agrees and the counters are
    /// the oracle's ([`Harness::check_stats`]).
    fn interned_matches_batch_and_reference(observations: Vec<(Vec<u32>, bool)>, cap: u64) {
        let obs: Vec<(Vec<Asn>, bool)> =
            observations.into_iter().map(|(path, censored)| (asns(&path), censored)).collect();
        let batch = batch_outcome(&obs, cap);
        assert_eq!(incremental_outcome(&obs, cap), batch.clone());
        let reversed: Vec<_> = obs.iter().rev().cloned().collect();
        assert_eq!(incremental_outcome(&reversed, cap), batch);
    }

    fn encoded(group: &InstanceGroup) -> Vec<u8> {
        let mut e = Enc::default();
        group.encode(&mut e);
        e.buf
    }

    /// The harness's group through `encode → decode` (whole blob read,
    /// re-encoding to the same bytes), with its counters so far.
    fn round_trip(h: &Harness) -> (InstanceGroup, IncrementalStats) {
        let bytes = encoded(&h.group);
        let mut d = Dec::new(&bytes);
        let group = GroupDecoder::new(h.table.len())
            .decode(3, window(), &mut d)
            .unwrap_or_else(|e| panic!("a group's own bytes restore: {e}"));
        d.done().expect("the group is the whole blob");
        assert_eq!(encoded(&group), bytes, "encode → decode → encode moved the bytes");
        (group, h.stats)
    }
}
