//! Incremental per-instance tomography state, interned end to end.
//!
//! The batch pipeline buffers a URL's observations and runs a full
//! census (AllSAT count + backbone probes) per instance at flush time.
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
//! * otherwise an **incremental re-solve** runs: the memoized backbone
//!   literals — valid under clause addition, since models only shrink —
//!   seed unit propagation, and the census runs over the *reduced*
//!   formula (free ASes only) instead of the raw clause set.
//!
//! Since PR 5, the data plane is id-based. A shard interns each incoming
//! path once ([`crate::PathTable`], one hash per measurement); the
//! granularity×anomaly fan-out then works entirely on the dense
//! [`PathId`]:
//!
//! * an [`InstanceGroup`] holds the one (URL × window) **variable space**
//!   shared by its [`AnomalyType::ALL`] cells — every cell sees the same
//!   observation stream, so the distinct-AS set (and hence the variable
//!   numbering) is provably identical across the anomaly fan-out. The
//!   group resolves a path to its group-local variable-index list
//!   **once**, amortized across all cells;
//! * per-cell dedup is a polarity bitmask looked up with the *same*
//!   group probe — a duplicate observation costs one `u32` map probe for
//!   all five cells together, not five full-path hashes;
//! * each [`IncrementalInstance`] stores `(PathId, polarity)` records,
//!   clause literals are read out of the group's flat index arena, and
//!   the per-AS backbone memo is a dense `Vec<Fate>` indexed by
//!   group-local variable index — no per-AS hashing anywhere on the
//!   update path.
//!
//! The produced [`InstanceOutcome`] is exactly what
//! [`churnlab_core::analyze::analyze`] computes for the same observation
//! set, in any arrival order — the engine's order-independence proof
//! leans on this equivalence (see the crate's property tests, which also
//! check the retained un-interned [`crate::reference`] implementation
//! differentially).

use crate::ckpt::{Dec, Enc};
use crate::intern::{FxMap, PathTable};
use crate::obs::ResolveObs;
use churnlab_bgp::TimeWindow;
use churnlab_core::analyze::InstanceOutcome;
use churnlab_core::instance::InstanceKey;
use churnlab_core::obs::PathId;
use churnlab_platform::{AnomalySet, AnomalyType};
use churnlab_sat::{CompiledCnf, CtxStats, Lit, SolutionCount, Solvability, SolverCtx, Var};
use churnlab_topology::Asn;
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
    /// Updates resolved by a closed-form state transition (no solver).
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

/// Reusable solving scratch shared by every instance a worker owns: the
/// watched-literal [`SolverCtx`], a [`CompiledCnf`] the reduced formulas
/// are built into, and dense per-variable assignment/mapping buffers
/// (indexed by group-local variable index — no hashing). All of it is
/// rewound per re-solve, never freed, so a steady-state shard performs
/// zero solver allocations per observation.
#[derive(Debug, Default)]
pub struct SolveScratch {
    ctx: SolverCtx,
    cnf: CompiledCnf,
    /// Per-variable assignment during a re-solve: `FIXED_FALSE`,
    /// `FIXED_TRUE`, or `UNFIXED`.
    fixed: Vec<u8>,
    /// Group-local variable index → reduced-formula [`Var`] (or
    /// `u32::MAX` for fixed variables).
    var_map: Vec<u32>,
    /// Reduced-formula variable → group-local variable index.
    free_vars: Vec<u32>,
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

    /// The scratch's warm solver context, for callers (the shard's
    /// deferred Figure-4 report path) that run batch [`analyze`]
    /// alongside incremental updates.
    ///
    /// [`analyze`]: churnlab_core::analyze::analyze_with
    pub fn solver_ctx(&mut self) -> &mut SolverCtx {
        &mut self.ctx
    }

    /// Thread re-solve timing handles in (worker construction path).
    pub(crate) fn set_resolve_obs(&mut self, obs: ResolveObs) {
        self.resolve_obs = Some(obs);
    }

    /// Cumulative SAT work counters of the warm context.
    pub(crate) fn sat_stats(&self) -> CtxStats {
        self.ctx.stats()
    }
}

const FIXED_FALSE: u8 = 0;
const FIXED_TRUE: u8 = 1;
const UNFIXED: u8 = 2;

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
}

impl VarSpace {
    /// The var-index list of a path previously resolved in this space.
    #[inline]
    fn lit_slice(&self, pid: PathId) -> &[u32] {
        let r = &self.resolved[&pid];
        &self.lits[r.start as usize..r.start as usize + r.len as usize]
    }
}

/// One observation record: which interned path, which polarity.
#[derive(Debug, Clone, Copy)]
struct ObsRec {
    path: PathId,
    censored: bool,
}

/// All [`AnomalyType::ALL`] instances of one (URL × window), sharing one
/// `VarSpace`. The group is the dedup and resolution point: an
/// observation is resolved to its variable-index list (and checked
/// against every cell's dedup mask) with a single `PathId` probe.
#[derive(Debug, Clone)]
pub struct InstanceGroup {
    space: VarSpace,
    cells: [IncrementalInstance; N_CELLS],
}

impl InstanceGroup {
    /// Fresh group for one (URL × window).
    pub fn new(url_id: u32, window: TimeWindow) -> Self {
        InstanceGroup {
            space: VarSpace::default(),
            cells: std::array::from_fn(|i| {
                IncrementalInstance::new(InstanceKey {
                    url_id,
                    anomaly: AnomalyType::ALL[i],
                    window,
                })
            }),
        }
    }

    /// Fold one interned observation into every cell. `detected` decides
    /// each cell's polarity; `table` resolves the path's distinct-AS list
    /// the first time this group sees it; `cap` is the enumeration cap
    /// ([`churnlab_core::analyze::SolveConfig`]); `scratch` is the
    /// worker-owned reusable solver state. Returns whether the
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
        // Polarity to apply per cell; `None` = duplicate, skip.
        let mut todo = [None::<bool>; N_CELLS];
        {
            let VarSpace { vars, var_ix, lits, resolved } = &mut self.space;
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
                let bit = if censored { SEEN_CENSORED } else { SEEN_CLEAN };
                if entry.masks[i] & bit != 0 {
                    stats.duplicates += 1;
                } else {
                    entry.masks[i] |= bit;
                    todo[i] = Some(censored);
                }
            }
        }
        let space = &self.space;
        let vlist = &space.lits[start..start + len];
        let mut effective = false;
        for (i, censored) in todo.iter().enumerate() {
            if let Some(censored) = *censored {
                effective = true;
                stats.updates += 1;
                self.cells[i].observe(pid, vlist, censored, space, cap, stats, scratch);
            }
        }
        effective
    }

    /// The group's variable numbering (group-local index → AS).
    pub fn vars(&self) -> &[Asn] {
        &self.space.vars
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
}

/// One (URL × window × anomaly) instance kept incrementally solved, all
/// state id- and index-based: `(PathId, polarity)` observation records,
/// `PathId` clauses read out of the group's literal arena, and a dense
/// per-variable `Fate` memo. Lives inside an [`InstanceGroup`], which
/// owns dedup and variable resolution.
#[derive(Debug, Clone)]
pub struct IncrementalInstance {
    key: InstanceKey,
    observations: Vec<ObsRec>,
    n_positive: usize,
    /// Deduplicated censored paths (the positive clauses), by id.
    pos_clauses: Vec<PathId>,
    /// Variables appearing on some clean path — axiom unit negations
    /// (dense over group-local variable indices, lazily grown).
    neg_forced: Vec<bool>,
    memo: Memo,
}

/// Saturate a model count at the enumeration cap, mirroring the batch
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
    fn new(key: InstanceKey) -> Self {
        IncrementalInstance {
            key,
            observations: Vec::new(),
            n_positive: 0,
            pos_clauses: Vec::new(),
            neg_forced: Vec::new(),
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
        self.observations.len()
    }

    /// True if nothing observed.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The deduplicated censored paths (leakage analysis input), as ids
    /// against the shard's [`PathTable`] — resolved back to AS paths only
    /// at the report boundary.
    pub fn censored_paths(&self) -> impl Iterator<Item = PathId> + '_ {
        self.observations.iter().filter(|o| o.censored).map(|o| o.path)
    }

    #[inline]
    fn is_neg_forced(&self, ix: u32) -> bool {
        self.neg_forced.get(ix as usize).copied().unwrap_or(false)
    }

    /// Fold in one non-duplicate observation. `vlist` is the path's
    /// group-resolved variable-index list; `space` resolves clause ids
    /// during re-solves.
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
        self.observations.push(ObsRec { path: pid, censored });
        if censored {
            self.n_positive += 1;
            self.pos_clauses.push(pid);
        } else {
            for &ix in vlist {
                let ix = ix as usize;
                if ix >= self.neg_forced.len() {
                    self.neg_forced.resize(ix + 1, false);
                }
                self.neg_forced[ix] = true;
            }
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
                // First censored observation: every previously seen AS is
                // a clean-path axiom (False), so the models are exactly
                // the non-empty subsets of the path's unexonerated ASes.
                stats.direct_updates += 1;
                let n_cand = vlist.iter().filter(|&&ix| !self.is_neg_forced(ix)).count();
                if n_cand == 0 {
                    self.memo = Memo::Unsat;
                    return;
                }
                let mut fate = vec![Fate::AlwaysFalse; n_vars];
                if n_cand == 1 {
                    let ix = vlist
                        .iter()
                        .copied()
                        .find(|&ix| !self.is_neg_forced(ix))
                        .expect("one candidate");
                    fate[ix as usize] = Fate::AlwaysTrue;
                    self.memo = Memo::Solved { count: SolutionCount::Exact(1), fate };
                } else {
                    for &ix in vlist {
                        if !self.is_neg_forced(ix) {
                            fate[ix as usize] = Fate::Both;
                        }
                    }
                    let count = cap_count(pow2(n_cand) - 1, cap);
                    self.memo = Memo::Solved { count, fate };
                }
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

    /// Incremental re-solve: seed unit propagation with the axiom units
    /// and the memoized backbone (both survive clause addition), then run
    /// the census over the reduced formula only — on the worker's warm
    /// [`SolverCtx`], building the reduced CNF into its reusable CSR
    /// arena, with all per-variable state in dense scratch vectors. The
    /// only per-call heap traffic is the recycled buffers' occasional
    /// growth.
    fn resolve_inner(&mut self, n_vars: usize, space: &VarSpace, cap: u64, scratch: &mut SolveScratch) {
        let fixed = &mut scratch.fixed;
        fixed.clear();
        fixed.resize(n_vars, UNFIXED);
        for (ix, neg) in self.neg_forced.iter().enumerate() {
            if *neg {
                fixed[ix] = FIXED_FALSE;
            }
        }
        // Take the memo (leaving the absorbing Unsat in place, which every
        // early return below wants): its fate seeds the fixed set, and its
        // vector is recycled as the next memo's allocation.
        let mut fate = match std::mem::replace(&mut self.memo, Memo::Unsat) {
            Memo::Solved { fate, .. } => {
                for (ix, f) in fate.iter().enumerate() {
                    match f {
                        Fate::AlwaysTrue => {
                            if fixed[ix] == FIXED_FALSE {
                                return; // exonerated definite censor: unsat
                            }
                            fixed[ix] = FIXED_TRUE;
                        }
                        Fate::AlwaysFalse => fixed[ix] = FIXED_FALSE,
                        Fate::Both => {}
                    }
                }
                let mut fate = fate;
                fate.clear();
                fate
            }
            _ => Vec::with_capacity(n_vars),
        };
        // Unit propagation over the positive clauses to fixpoint. Clause
        // literal lists are pre-deduplicated (the group resolves distinct
        // ASes only), so a clause is unit when exactly one literal is
        // unfixed.
        loop {
            let mut changed = false;
            for &pid in &self.pos_clauses {
                let clause = space.lit_slice(pid);
                if clause.iter().any(|&ix| fixed[ix as usize] == FIXED_TRUE) {
                    continue;
                }
                let mut first_free: Option<u32> = None;
                let mut multi = false;
                for &ix in clause {
                    if fixed[ix as usize] != UNFIXED {
                        continue;
                    }
                    if first_free.is_some() {
                        multi = true;
                        break;
                    }
                    first_free = Some(ix);
                }
                match first_free {
                    None => return, // conflict: memo stays Unsat
                    Some(ix) if !multi => {
                        fixed[ix as usize] = FIXED_TRUE;
                        changed = true;
                    }
                    Some(_) => {}
                }
            }
            if !changed {
                break;
            }
        }
        // Census over the reduced formula. Unconstrained free ASes count
        // as 2^k model blocks, exactly as the batch census sees them.
        let var_map = &mut scratch.var_map;
        var_map.clear();
        var_map.resize(n_vars, u32::MAX);
        let free_vars = &mut scratch.free_vars;
        free_vars.clear();
        for (ix, f) in fixed.iter().enumerate() {
            if *f == UNFIXED {
                var_map[ix] = free_vars.len() as u32;
                free_vars.push(ix as u32);
            }
        }
        scratch.cnf.reset(free_vars.len());
        for &pid in &self.pos_clauses {
            let clause = space.lit_slice(pid);
            if clause.iter().any(|&ix| fixed[ix as usize] == FIXED_TRUE) {
                continue;
            }
            scratch.cnf.push_clause(
                clause
                    .iter()
                    .filter(|&&ix| fixed[ix as usize] == UNFIXED)
                    .map(|&ix| Lit::pos(Var(var_map[ix as usize]))),
            );
        }
        let result = scratch.ctx.census(&scratch.cnf, cap);
        let Some(backbone) = result.backbone else {
            return; // memo stays Unsat
        };
        fate.reserve(n_vars);
        for (ix, f) in fixed.iter().enumerate() {
            let fate_ix = match *f {
                FIXED_TRUE => Fate::AlwaysTrue,
                FIXED_FALSE => Fate::AlwaysFalse,
                _ => {
                    let v = var_map[ix] as usize;
                    match (backbone.ever_true[v], backbone.ever_false[v]) {
                        (true, false) => Fate::AlwaysTrue,
                        (false, true) => Fate::AlwaysFalse,
                        // (false, false) cannot happen when satisfiable.
                        _ => Fate::Both,
                    }
                }
            };
            fate.push(fate_ix);
        }
        self.memo = Memo::Solved { count: result.count, fate };
    }

    /// The analysed outcome — identical to running
    /// [`churnlab_core::analyze::analyze`] on the batch-built instance
    /// over the same observation set. `vars` is the owning group's
    /// variable numbering ([`InstanceGroup::vars`]); every cell of a
    /// group shares it, since every cell sees every observation.
    pub fn outcome(&self, vars: &[Asn]) -> InstanceOutcome {
        let n_vars = vars.len();
        let (solvability, bucket, censors, potential, eliminated) = match &self.memo {
            Memo::Trivial => {
                // Clean observations only: the all-False assignment is
                // the unique model and every AS is exonerated.
                let mut elim = vars.to_vec();
                elim.sort();
                (Solvability::Unique, 1u8, Vec::new(), Vec::new(), elim)
            }
            Memo::Unsat => (Solvability::Unsat, 0, Vec::new(), Vec::new(), Vec::new()),
            Memo::Solved { count, fate } => {
                debug_assert_eq!(fate.len(), n_vars, "memo covers the group's variables");
                let solvability = count.solvability();
                debug_assert_ne!(solvability, Solvability::Unsat, "Solved memo is satisfiable");
                let mut censors = Vec::new();
                let mut potential = Vec::new();
                let mut eliminated = Vec::new();
                for (ix, f) in fate.iter().enumerate() {
                    match f {
                        Fate::AlwaysTrue => censors.push(vars[ix]),
                        Fate::AlwaysFalse => eliminated.push(vars[ix]),
                        Fate::Both => potential.push(vars[ix]),
                    }
                }
                debug_assert!(
                    solvability != Solvability::Unique || potential.is_empty(),
                    "a unique model fixes every variable"
                );
                censors.sort();
                potential.sort();
                eliminated.sort();
                (solvability, count.bucket(), censors, potential, eliminated)
            }
        };
        let eliminated_frac =
            if n_vars == 0 { 0.0 } else { eliminated.len() as f64 / n_vars as f64 };
        InstanceOutcome {
            key: self.key,
            n_vars,
            n_observations: self.observations.len(),
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

impl InstanceGroup {
    /// Serialize the group: variable space, resolved spans, and the five
    /// cells in [`AnomalyType::ALL`] order.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.asns(&self.space.vars);
        e.u32s(&self.space.lits);
        let mut resolved: Vec<(PathId, Resolved)> =
            self.space.resolved.iter().map(|(p, r)| (*p, *r)).collect();
        resolved.sort_by_key(|(p, _)| p.0);
        e.u64(resolved.len() as u64);
        for (pid, r) in resolved {
            e.u32(pid.0);
            e.u32(r.start);
            e.u32(r.len);
            for m in r.masks {
                e.u8(m);
            }
        }
        for cell in &self.cells {
            cell.encode(e);
        }
    }

    /// Rebuild a group from its encoded form. The identity (URL and
    /// window) comes from the enclosing shard map key, so it is not
    /// stored per group; `n_paths` is the restored shard table's size,
    /// bounding every path id the group may reference.
    pub(crate) fn decode(
        url_id: u32,
        window: TimeWindow,
        n_paths: usize,
        d: &mut Dec,
    ) -> Result<Self, String> {
        let vars = d.asns()?;
        let mut var_ix = FxMap::default();
        for (ix, a) in vars.iter().enumerate() {
            if var_ix.insert(*a, ix as u32).is_some() {
                return Err(format!("duplicate group variable AS{}", a.0));
            }
        }
        let lits = d.u32s()?;
        for &ix in &lits {
            if ix as usize >= vars.len() {
                return Err(format!("literal index {ix} out of variable range"));
            }
        }
        let n = d.len()?;
        let mut resolved = FxMap::default();
        for _ in 0..n {
            let pid = PathId(d.u32()?);
            if pid.usize() >= n_paths {
                return Err(format!("resolved path {} out of table range", pid.0));
            }
            let start = d.u32()?;
            let len = d.u32()?;
            if u64::from(start) + u64::from(len) > lits.len() as u64 {
                return Err(format!("resolved span {start}+{len} exceeds literal arena"));
            }
            let mut masks = [0u8; N_CELLS];
            for m in &mut masks {
                *m = d.u8()?;
                if *m & !(SEEN_CLEAN | SEEN_CENSORED) != 0 {
                    return Err(format!("bad dedup mask {m:#x}"));
                }
            }
            if resolved.insert(pid, Resolved { start, len, masks }).is_some() {
                return Err(format!("duplicate resolved path {}", pid.0));
            }
        }
        let space = VarSpace { vars, var_ix, lits, resolved };
        let mut cells = Vec::with_capacity(N_CELLS);
        for anomaly in AnomalyType::ALL {
            let key = InstanceKey { url_id, anomaly, window };
            cells.push(IncrementalInstance::decode(key, &space, d)?);
        }
        let cells: [IncrementalInstance; N_CELLS] =
            cells.try_into().expect("exactly N_CELLS cells decoded");
        Ok(InstanceGroup { space, cells })
    }
}

impl IncrementalInstance {
    /// Serialize the cell: the observation log plus the memo. Derived
    /// state (positive clauses, clean-path axiom units) is not stored —
    /// it replays deterministically from the log at decode time.
    fn encode(&self, e: &mut Enc) {
        e.u64(self.observations.len() as u64);
        for o in &self.observations {
            e.u32(o.path.0);
            e.u8(u8::from(o.censored));
        }
        match &self.memo {
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
                for f in fate {
                    e.u8(match f {
                        Fate::AlwaysTrue => 0,
                        Fate::AlwaysFalse => 1,
                        Fate::Both => 2,
                    });
                }
            }
        }
    }

    /// Rebuild a cell against its group's already-decoded space.
    fn decode(key: InstanceKey, space: &VarSpace, d: &mut Dec) -> Result<Self, String> {
        let n = d.len()?;
        let mut inst = IncrementalInstance::new(key);
        for _ in 0..n {
            let pid = PathId(d.u32()?);
            let censored = match d.u8()? {
                0 => false,
                1 => true,
                t => return Err(format!("bad polarity tag {t}")),
            };
            if !space.resolved.contains_key(&pid) {
                return Err(format!("observation of unresolved path {}", pid.0));
            }
            inst.observations.push(ObsRec { path: pid, censored });
            if censored {
                inst.n_positive += 1;
                inst.pos_clauses.push(pid);
            } else {
                for &ix in space.lit_slice(pid) {
                    let ix = ix as usize;
                    if ix >= inst.neg_forced.len() {
                        inst.neg_forced.resize(ix + 1, false);
                    }
                    inst.neg_forced[ix] = true;
                }
            }
        }
        inst.memo = match d.u8()? {
            0 => Memo::Trivial,
            1 => Memo::Unsat,
            2 => {
                let count = match d.u8()? {
                    0 => SolutionCount::Exact(d.u64()?),
                    1 => SolutionCount::AtLeast(d.u64()?),
                    t => return Err(format!("bad count tag {t}")),
                };
                let n_fate = d.len()?;
                if n_fate != space.vars.len() {
                    return Err(format!(
                        "memo covers {n_fate} variables, group has {}",
                        space.vars.len()
                    ));
                }
                let mut fate = Vec::with_capacity(n_fate);
                for _ in 0..n_fate {
                    fate.push(match d.u8()? {
                        0 => Fate::AlwaysTrue,
                        1 => Fate::AlwaysFalse,
                        2 => Fate::Both,
                        t => return Err(format!("bad fate tag {t}")),
                    });
                }
                Memo::Solved { count, fate }
            }
            t => return Err(format!("bad memo tag {t}")),
        };
        if matches!(inst.memo, Memo::Trivial) && inst.n_positive > 0 {
            return Err("trivial memo alongside censored observations".to_string());
        }
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{ReferenceScratch, UninternedInstance};
    use churnlab_bgp::Granularity;
    use churnlab_core::analyze::{analyze, SolveConfig};
    use churnlab_core::instance::InstanceBuilder;
    use proptest::prelude::*;

    fn key() -> InstanceKey {
        InstanceKey {
            url_id: 3,
            anomaly: AnomalyType::Dns,
            window: window(),
        }
    }

    fn window() -> TimeWindow {
        TimeWindow::of(0, Granularity::Day, 365)
    }

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|x| Asn(*x)).collect()
    }

    /// Drives an [`InstanceGroup`] the way a shard does, reporting the
    /// Dns cell (whose polarity tracks the `censored` flag; the other
    /// four cells see the same paths all-clean).
    struct Harness {
        table: PathTable,
        group: InstanceGroup,
        stats: IncrementalStats,
        scratch: SolveScratch,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                table: PathTable::new(),
                group: InstanceGroup::new(3, window()),
                stats: IncrementalStats::default(),
                scratch: SolveScratch::new(),
            }
        }

        fn observe(&mut self, path: &[Asn], censored: bool) {
            let pid = self.table.intern(path);
            let mut detected = AnomalySet::empty();
            if censored {
                detected.insert(AnomalyType::Dns);
            }
            self.group.observe(pid, &self.table, detected, 64, &mut self.stats, &mut self.scratch);
        }

        fn dns(&self) -> &IncrementalInstance {
            self.group.cell(AnomalyType::Dns)
        }

        fn outcome(&self) -> InstanceOutcome {
            self.dns().outcome(self.group.vars())
        }
    }

    /// Batch-analyse the same observation sequence with the pipeline's
    /// builder.
    fn batch_outcome(observations: &[(Vec<Asn>, bool)]) -> Option<InstanceOutcome> {
        let mut b = InstanceBuilder::new(key());
        for (path, censored) in observations {
            b.observe(path, *censored);
        }
        b.build().map(|inst| analyze(&inst, &SolveConfig::default()))
    }

    fn incremental_outcome(observations: &[(Vec<Asn>, bool)]) -> Option<InstanceOutcome> {
        let mut h = Harness::new();
        for (path, censored) in observations {
            h.observe(path, *censored);
        }
        if h.dns().is_empty() {
            None
        } else {
            Some(h.outcome())
        }
    }

    /// The retained un-interned implementation, as differential oracle.
    fn reference_outcome(observations: &[(Vec<Asn>, bool)]) -> Option<InstanceOutcome> {
        let mut inst = UninternedInstance::new(key());
        let mut stats = IncrementalStats::default();
        let mut scratch = ReferenceScratch::new();
        for (path, censored) in observations {
            inst.observe(path, *censored, SolveConfig::default().count_cap, &mut stats, &mut scratch);
        }
        if inst.is_empty() {
            None
        } else {
            Some(inst.outcome())
        }
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
        let batch = batch_outcome(&seq).expect("non-empty");
        let inc = incremental_outcome(&seq).expect("non-empty");
        assert_eq!(inc, batch);
        assert_eq!(inc.censors, asns(&[9]));
        assert_eq!(inc.n_vars, 1);
        // And through a longer mixed sequence with repeats.
        let seq = vec![
            (asns(&[1, 7, 1, 3]), true),
            (asns(&[1, 1]), false),
            (asns(&[3, 3, 3]), false),
        ];
        assert_eq!(incremental_outcome(&seq), batch_outcome(&seq));
    }

    #[test]
    fn clean_paths_arriving_first_are_equivalent() {
        let seq_a = vec![(asns(&[1, 2, 3]), true), (asns(&[1, 2, 4]), false)];
        let seq_b = vec![(asns(&[1, 2, 4]), false), (asns(&[1, 2, 3]), true)];
        assert_eq!(incremental_outcome(&seq_a), incremental_outcome(&seq_b));
        assert_eq!(incremental_outcome(&seq_a), batch_outcome(&seq_a));
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
        assert_eq!(incremental_outcome(&seq), batch_outcome(&seq));
        let out = incremental_outcome(&seq).unwrap();
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
        let expect = batch_outcome(&obs).unwrap();
        assert_eq!(expect.censors, asns(&[9]));
        for order in orders {
            let seq: Vec<_> = order.iter().map(|&i| obs[i].clone()).collect();
            assert_eq!(incremental_outcome(&seq).unwrap(), expect, "order {order:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over a small AS universe (model counts stay below the cap, so
        /// outcomes are exact), the interned state machine agrees with
        /// the batch analyze() AND the retained un-interned reference
        /// for the same observations — in the given order AND reversed
        /// (order independence). Paths draw with repetition from a tiny
        /// universe, so repeated ASes within a path are exercised.
        #[test]
        fn prop_interned_matches_batch_and_reference(
            observations in proptest::collection::vec(
                (proptest::collection::vec(1u32..6, 1..5), any::<bool>()),
                1..10,
            ),
        ) {
            let obs: Vec<(Vec<Asn>, bool)> = observations
                .into_iter()
                .map(|(path, censored)| (asns(&path), censored))
                .collect();
            let batch = batch_outcome(&obs);
            prop_assert_eq!(incremental_outcome(&obs), batch.clone());
            prop_assert_eq!(reference_outcome(&obs), batch.clone());
            let reversed: Vec<_> = obs.iter().rev().cloned().collect();
            prop_assert_eq!(incremental_outcome(&reversed), batch);
        }
    }
}
