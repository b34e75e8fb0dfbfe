//! The churn event process: link up/down timelines and traffic-engineering
//! shifts.
//!
//! Real-world path churn has two big sources the paper's data reflects:
//! **link-level events** (failures, maintenance — routes around the dead
//! link) and **policy/TE shifts** (hot-potato changes, load moves between
//! equal-preference routes). We model both:
//!
//! * each link runs a two-state (up/down) Markov chain discretised to
//!   routing epochs, with rates from its
//!   [`churnlab_topology::LinkStability`] profile — heterogeneous across
//!   links, so a few flappy edges produce most events (heavy tail);
//! * each AS occasionally re-rolls its tiebreak salt, changing which of
//!   several equally-preferred routes it forwards on.
//!
//! Timelines are materialised once, deterministically, from one
//! sequential generator seeded by [`ChurnConfig::seed`], and stored as
//! what they cost to say:
//!
//! * a link or AS with **events at some epochs** is a sorted transition
//!   list in a flat arena (one for links, one for ASes), so a state query
//!   is `O(log events)`. The link arena lists only the links that flip
//!   (one in ten at Huge), in the ascending order of the `flappy` list;
//!   a bit per link says whether it flips, and a count per 64 links of
//!   the flappy links before them turns the bit into the link's place in
//!   that list, so every other link is up throughout at the cost of one
//!   bit test. Link flips are also indexed by epoch, so a `LinkCursor`
//!   moves the whole network's link state between nearby epochs in time
//!   proportional to what flipped;
//! * an AS whose per-epoch shift probability saturates (`1 − p ≤ 1e-12`:
//!   the default wobbly AS, six shifts a day at six epochs a day) shifts
//!   at **every** epoch. Each of its holding times is exactly 1 whatever
//!   the draw, so it is stored as a rate — one bit — its version at
//!   `epoch` is `min(epoch, total_epochs − 1)`, and the generator is
//!   stepped past the draws it would have made.
//!
//! ## What sampling costs
//!
//! A holding time is `ceil(ln u / ln q)` for a uniform draw `u` and
//! `q = 1 − p`. The logarithms of `q` and everything else that depends
//! only on a link's [`churnlab_topology::LinkStability`] are computed once
//! per entry of the topology's profile table (a generated world has a
//! handful) and read by each link's profile index. Nine links in ten
//! never flip, and for them the first hold is *squeezed*: with
//! `T = exp(total_epochs · ln q)`, a draw `u < T` has
//! `ln u / ln q > total_epochs` in exact arithmetic, while the link stays
//! up for the whole period as soon as the computed quotient exceeds
//! `total_epochs − 1` — a whole epoch of slack, against rounding errors
//! in `T`, `ln u` and the division that add up to less than `2⁻¹⁷` of an
//! epoch (the bound is derived at `SQUEEZE_MIN_LN_Q`). Such a link costs
//! one draw and one compare; any other draw goes through the exact
//! expression. The flips, the salts and the generator's state after each
//! link and AS are those of the plain sampler, which `churn::oracle` keeps
//! for the tests to hold whole timelines against.

use crate::time::{Epoch, EpochMapper};
use churnlab_topology::{LinkId, LinkStability, Topology};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Configuration of the churn process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Seed for the event process (independent of the topology seed).
    pub seed: u64,
    /// Routing epochs per day (default 6: 4-hour slots).
    pub epochs_per_day: u32,
    /// Days simulated.
    pub total_days: u32,
    /// Per-day probability that a *calm* AS re-rolls its equal-cost
    /// tiebreak salt (TE shift).
    pub te_shift_per_day: f64,
    /// Fraction of ASes that are "wobbly": their intra-domain state churns
    /// frequently (hot-potato flaps, aggressive TE). Heterogeneity here is
    /// what gives Figure 3 its shape — a quarter of pairs churn daily while
    /// a third stay stable all year.
    pub wobbly_frac: f64,
    /// Per-day TE shift rate for wobbly ASes.
    pub wobbly_te_per_day: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 0xC4A2,
            epochs_per_day: 6,
            total_days: crate::time::DEFAULT_TOTAL_DAYS,
            te_shift_per_day: 0.01,
            wobbly_frac: 0.12,
            wobbly_te_per_day: 6.0,
        }
    }
}

/// Why a churn process cannot be sampled as configured.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnConfigError {
    /// [`ChurnConfig::epochs_per_day`] is zero: a day has no epoch.
    ZeroEpochsPerDay,
    /// `days × per_day` epochs do not fit the `u32` epoch clock.
    EpochOverflow {
        /// [`ChurnConfig::total_days`].
        days: u32,
        /// [`ChurnConfig::epochs_per_day`].
        per_day: u32,
    },
    /// A rate or fraction that is NaN or infinite. (The clamp of a
    /// per-epoch probability to 1 would read a NaN as "every epoch".)
    BadRate {
        /// The field: one of [`ChurnConfig`]'s, or `flap_rate` of a
        /// link's [`LinkStability`].
        field: &'static str,
        /// What it held.
        value: f64,
    },
}

impl std::fmt::Display for ChurnConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ChurnConfigError::ZeroEpochsPerDay => {
                f.write_str("churn config: epochs_per_day is 0, need at least one epoch per day")
            }
            ChurnConfigError::EpochOverflow { days, per_day } => write!(
                f,
                "churn config: {days} days at {per_day} epochs per day exceed the u32 epoch clock"
            ),
            ChurnConfigError::BadRate { field, value } => {
                write!(f, "churn config: {field} is {value}, need a finite number")
            }
        }
    }
}

impl std::error::Error for ChurnConfigError {}

fn finite_rate(field: &'static str, value: f64) -> Result<(), ChurnConfigError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ChurnConfigError::BadRate { field, value })
    }
}

impl ChurnConfig {
    /// A frozen network: no link events, no TE shifts (the Figure-4
    /// counterfactual is produced differently — by filtering measurements —
    /// but a frozen timeline is useful for tests and ablations).
    pub fn frozen(total_days: u32) -> Self {
        ChurnConfig {
            seed: 0,
            epochs_per_day: 6,
            total_days,
            te_shift_per_day: 0.0,
            wobbly_frac: 0.0,
            wobbly_te_per_day: 0.0,
        }
    }

    /// Can [`ChurnTimeline::build`] sample this configuration? It refuses
    /// (panics with this error) when not; every configuration that passes
    /// samples as it always has.
    pub fn validate(&self) -> Result<(), ChurnConfigError> {
        let (days, per_day) = (self.total_days, self.epochs_per_day);
        if per_day == 0 {
            return Err(ChurnConfigError::ZeroEpochsPerDay);
        }
        if EpochMapper::new(per_day).checked_total_epochs(days).is_none() {
            return Err(ChurnConfigError::EpochOverflow { days, per_day });
        }
        finite_rate("te_shift_per_day", self.te_shift_per_day)?;
        finite_rate("wobbly_frac", self.wobbly_frac)?;
        finite_rate("wobbly_te_per_day", self.wobbly_te_per_day)
    }
}

/// Sorted flip epochs of many binary timelines in one arena: timeline
/// `i` flips at each epoch in `epochs[off[i]..off[i + 1]]`. Every timeline
/// starts `true` (links start up; TE versions start at 0). The link
/// arena's timeline `k` is that of the `k`-th flapping link.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlipArena {
    off: Vec<u32>,
    epochs: Vec<Epoch>,
}

impl FlipArena {
    fn with_capacity(timelines: usize) -> Self {
        let mut off = Vec::with_capacity(timelines + 1);
        off.push(0);
        FlipArena { off, epochs: Vec::new() }
    }

    /// Close the timeline whose flips were just appended to `epochs`.
    fn seal(&mut self) {
        let end = u32::try_from(self.epochs.len()).expect("flip arena exceeds u32 offsets");
        self.off.push(end);
    }

    /// Number of timelines.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.off.len() - 1
    }

    fn flips(&self, i: usize) -> &[Epoch] {
        &self.epochs[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Number of flips at or before `epoch`.
    fn version_at(&self, i: usize, epoch: Epoch) -> u32 {
        self.flips(i).partition_point(|&e| e <= epoch) as u32
    }

    fn state_at(&self, i: usize, epoch: Epoch) -> bool {
        self.version_at(i, epoch) & 1 == 0
    }

    fn heap_bytes(&self) -> usize {
        4 * (self.off.capacity() + self.epochs.capacity())
    }
}

/// The TE-shift timelines of every AS: a [`FlipArena`] of event lists,
/// except that an AS shifting at every epoch of the period is a set bit
/// and an empty list.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TeArena {
    listed: FlipArena,
    /// Bit `i`: AS `i` shifts at each epoch in `1..=last_epoch`.
    every_epoch: Vec<u64>,
    /// The last epoch of the period, `total_epochs − 1` (0 if it is empty).
    last_epoch: Epoch,
}

impl TeArena {
    fn with_capacity(timelines: usize, total_epochs: u32) -> Self {
        TeArena {
            listed: FlipArena::with_capacity(timelines),
            every_epoch: vec![0; timelines.div_ceil(64)],
            last_epoch: total_epochs.saturating_sub(1),
        }
    }

    fn shifts_every_epoch(&self, i: usize) -> bool {
        self.every_epoch[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Number of shifts at or before `epoch`.
    fn version_at(&self, i: usize, epoch: Epoch) -> u32 {
        if self.shifts_every_epoch(i) {
            epoch.min(self.last_epoch)
        } else {
            self.listed.version_at(i, epoch)
        }
    }

    /// How many ASes shift at every epoch.
    fn n_every_epoch(&self) -> usize {
        self.every_epoch.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn total_events(&self) -> usize {
        self.listed.epochs.len() + self.n_every_epoch() * self.last_epoch as usize
    }

    fn heap_bytes(&self) -> usize {
        self.listed.heap_bytes() + 8 * self.every_epoch.capacity()
    }
}

/// Source of [`ChurnTimeline::id`]s; 0 is reserved for "no timeline".
static NEXT_TIMELINE_ID: AtomicU64 = AtomicU64::new(1);

/// Materialised churn timelines for a topology.
#[derive(Debug, Clone)]
pub struct ChurnTimeline {
    cfg: ChurnConfig,
    mapper: EpochMapper,
    /// Identity of this build (clones share it: same content).
    id: u64,
    /// Flip lists of the links in `flappy`, in its order.
    links: FlipArena,
    te: TeArena,
    /// Links that flip at all, ascending.
    flappy: Vec<u32>,
    /// Bit `l`: link `l` is in `flappy`.
    flaps: Vec<u64>,
    /// `flappy_before[w]`: how many links below `64 · w` flip, so link
    /// `l`'s place in `flappy` is that of its word plus the set bits
    /// below it.
    flappy_before: Vec<u32>,
    /// Per-epoch index of link flips: the links flipping at epoch `e` are
    /// `epoch_links[epoch_off[e]..epoch_off[e + 1]]`.
    epoch_off: Vec<u32>,
    epoch_links: Vec<u32>,
    total_epochs: u32,
    build_nanos: u64,
}

/// Floor under both a uniform draw and `q = 1 − p` before their logarithm
/// is taken.
const LN_FLOOR: f64 = 1e-12;

/// `ln(1 - p)`, the denominator of a Geometric(p) holding-time draw.
fn ln_q(p: f64) -> f64 {
    (1.0 - p).max(LN_FLOOR).ln()
}

/// Per-epoch probability of an event that happens at `rate` a day.
fn per_epoch(rate: f64, per_day: f64) -> f64 {
    (rate / per_day).min(1.0)
}

/// One uniform draw, floored so its logarithm is finite.
fn draw_unit(rng: &mut StdRng) -> f64 {
    rng.gen::<f64>().max(LN_FLOOR)
}

/// The Geometric holding time draw `u` stands for, at least 1 epoch:
/// `ceil(ln u / ln q)`, rounded up without `f64::ceil` (a libm call on
/// the baseline x86-64 target) — truncate, then step up if anything was
/// cut off. The same integer for every quotient the sampler forms: a
/// negative one, the `−∞` of `ln q = 0` and a NaN all truncate to 0 and
/// hold 1, as `ceil(x).max(1.0)` does; and a positive one is below
/// `|ln LN_FLOOR| · 2⁵³ < 2⁵⁸` (the smallest nonzero `|ln q|` is that of
/// the largest `q` below 1, about `2⁻⁵³`), so the step cannot overflow.
fn hold(u: f64, ln_q: f64) -> u64 {
    let x = u.ln() / ln_q;
    let t = x as u64;
    (t + u64::from((t as f64) < x)).max(1)
}

/// The first hold is squeezed only where `|ln q|` is at least this (a
/// per-epoch probability above ~1e-9; anything rarer takes the exact
/// expression on every draw). The squeeze takes `u < T`, `T` the computed
/// `exp(total · ln q)`, to mean `hold(u, ln q) ≥ total`. With `a = −ln u`
/// and `b = −ln q`: `T` and the product inside it are each within a
/// relative `2⁻⁵²` of exact, so `a > total · b · (1 − 2⁻⁵²) − 2⁻⁵²`; the
/// computed `ln u` and the division each lose at most a relative `2⁻⁵²`
/// more; so the computed quotient exceeds
/// `total · (1 − 2⁻⁵⁰) − 2⁻⁵² / b ≥ total − 2⁻¹⁸ − 2⁻²²` for
/// `total < 2³²` and `b ≥ 2⁻³⁰`, and its ceiling is at least `total` as
/// soon as it exceeds `total − 1`.
const SQUEEZE_MIN_LN_Q: f64 = 1.0 / (1u64 << 30) as f64;

/// What sampling needs of one [`LinkStability`] over one period.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkLaw {
    ln_q_up: f64,
    ln_q_down: f64,
    /// A first draw below this holds the link up for the whole period.
    never_flips_below: f64,
}

impl LinkLaw {
    /// `None`: the link cannot fail, and draws nothing.
    fn of(stability: &LinkStability, per_day: f64, total_epochs: u32) -> Option<LinkLaw> {
        if let Err(e) = finite_rate("flap_rate", stability.flap_rate) {
            panic!("{e}");
        }
        let p_fail = per_epoch(stability.flap_rate, per_day);
        if p_fail <= 0.0 {
            return None;
        }
        let p_recover = per_epoch(stability.recovery_rate(), per_day);
        let ln_q_up = ln_q(p_fail);
        let never_flips_below = if ln_q_up <= -SQUEEZE_MIN_LN_Q {
            (f64::from(total_epochs) * ln_q_up).exp()
        } else {
            0.0
        };
        Some(LinkLaw { ln_q_up, ln_q_down: ln_q(p_recover.max(1e-6)), never_flips_below })
    }

    /// The epoch of the link's first failure given its first draw, `None`
    /// if that is past the period.
    fn first_flip(&self, u: f64, total_epochs: u32) -> Option<u64> {
        if u < self.never_flips_below {
            return None;
        }
        Some(hold(u, self.ln_q_up)).filter(|&t| t < u64::from(total_epochs))
    }
}

/// How often an AS re-rolls its salt.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ShiftLaw {
    Never,
    /// Geometric holds with this `ln q`, at per-epoch probability `p`.
    Sometimes { p: f64, ln_q: f64 },
    /// `q` is at its floor, where `hold(u, ln q)` is 1 for every draw:
    /// `ln u ≥ ln q` for `u ≥ q`, so the quotient lies in `(0, 1]`.
    EveryEpoch,
}

impl ShiftLaw {
    fn of(rate: f64, per_day: f64) -> ShiftLaw {
        let p = per_epoch(rate, per_day);
        if p <= 0.0 {
            ShiftLaw::Never
        } else if 1.0 - p <= LN_FLOOR {
            ShiftLaw::EveryEpoch
        } else {
            ShiftLaw::Sometimes { p, ln_q: ln_q(p) }
        }
    }

    /// Expected listed events per epoch.
    fn listed_rate(&self) -> f64 {
        match *self {
            ShiftLaw::Sometimes { p, .. } => p,
            ShiftLaw::Never | ShiftLaw::EveryEpoch => 0.0,
        }
    }
}

impl ChurnTimeline {
    /// Build timelines for every link and AS in `topo`.
    ///
    /// # Panics
    ///
    /// Panics with the [`ChurnConfigError`] if `cfg` does not
    /// [`ChurnConfig::validate`], or a link's `flap_rate` is not finite.
    pub fn build(topo: &Topology, cfg: &ChurnConfig) -> Self {
        Self::sample(topo, cfg).0
    }

    /// [`ChurnTimeline::build`], and the generator as sampling left it.
    fn sample(topo: &Topology, cfg: &ChurnConfig) -> (Self, StdRng) {
        let started = Instant::now();
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let mapper = EpochMapper::new(cfg.epochs_per_day);
        let total_epochs = mapper.total_epochs(cfg.total_days);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let per_day = f64::from(cfg.epochs_per_day);

        let mut links = FlipArena::with_capacity(0);
        let mut flappy = Vec::new();
        // Link flips per epoch, counted as they are drawn (flips lie in
        // `1..total_epochs`); summed into offsets below.
        let mut epoch_off = vec![0u32; total_epochs.max(1) as usize + 1];
        let laws: Vec<Option<LinkLaw>> =
            topo.profiles().iter().map(|s| LinkLaw::of(s, per_day, total_epochs)).collect();
        for l in 0..topo.n_links() {
            let Some(law) = laws[topo.link_profile(LinkId(l as u32))] else { continue };
            let Some(first) = law.first_flip(draw_unit(&mut rng), total_epochs) else { continue };
            flappy.push(l as u32);
            // The two-state chain (it started up) by geometric jumps.
            let (mut t, mut up) = (first, true);
            while t < u64::from(total_epochs) {
                links.epochs.push(t as Epoch);
                epoch_off[t as usize + 1] += 1;
                up = !up;
                let ln_q = if up { law.ln_q_up } else { law.ln_q_down };
                t += hold(draw_unit(&mut rng), ln_q);
            }
            links.seal();
        }
        // Sized by what flipped, which was not known up front.
        links.off.shrink_to_fit();
        flappy.shrink_to_fit();
        let mut flaps = vec![0u64; topo.n_links().div_ceil(64)];
        for &l in &flappy {
            flaps[l as usize >> 6] |= 1 << (l & 63);
        }
        let flappy_before = flaps
            .iter()
            .scan(0, |before, w| Some(std::mem::replace(before, *before + w.count_ones())))
            .collect();

        let mut te = TeArena::with_capacity(topo.n_ases(), total_epochs);
        let wobbly = cfg.wobbly_frac.clamp(0.0, 1.0);
        let laws = [
            ShiftLaw::of(cfg.te_shift_per_day, per_day),
            ShiftLaw::of(cfg.wobbly_te_per_day, per_day),
        ];
        // Sized once from the expected event count rather than doubled up
        // to it.
        let p_mean = (1.0 - wobbly) * laws[0].listed_rate() + wobbly * laws[1].listed_rate();
        let expected = topo.n_ases() as f64 * f64::from(total_epochs) * p_mean;
        te.listed.epochs.reserve((expected * 1.02) as usize);
        for i in 0..topo.n_ases() {
            match laws[usize::from(rng.gen_bool(wobbly))] {
                ShiftLaw::Never => {}
                ShiftLaw::Sometimes { ln_q, .. } => {
                    let mut t = hold(draw_unit(&mut rng), ln_q);
                    while t < u64::from(total_epochs) {
                        te.listed.epochs.push(t as Epoch);
                        t += hold(draw_unit(&mut rng), ln_q);
                    }
                }
                ShiftLaw::EveryEpoch => {
                    te.every_epoch[i >> 6] |= 1 << (i & 63);
                    // One draw per hold of 1, until the holds reach the
                    // period's end: the next AS starts where it would have.
                    for _ in 0..total_epochs.max(1) {
                        rng.next_u64();
                    }
                }
            }
            te.listed.seal();
        }

        // Counting sort of the link flips by epoch.
        for e in 1..epoch_off.len() {
            epoch_off[e] += epoch_off[e - 1];
        }
        let mut fill = epoch_off.clone();
        let mut epoch_links = vec![0u32; links.epochs.len()];
        for (k, &l) in flappy.iter().enumerate() {
            for &e in links.flips(k) {
                epoch_links[fill[e as usize] as usize] = l;
                fill[e as usize] += 1;
            }
        }

        let timeline = ChurnTimeline {
            cfg: cfg.clone(),
            mapper,
            id: NEXT_TIMELINE_ID.fetch_add(1, Relaxed),
            links,
            te,
            flappy,
            flaps,
            flappy_before,
            epoch_off,
            epoch_links,
            total_epochs,
            build_nanos: started.elapsed().as_nanos() as u64,
        };
        (timeline, rng)
    }

    /// Is `link` usable at `epoch`?
    pub fn link_up(&self, link: LinkId, epoch: Epoch) -> bool {
        self.flappy_index(link).is_none_or(|k| self.links.state_at(k, epoch))
    }

    /// `link`'s position in `flappy`, if it flips at all.
    fn flappy_index(&self, link: LinkId) -> Option<usize> {
        let (w, bit) = (link.0 as usize >> 6, link.0 & 63);
        let word = self.flaps[w];
        let below = (word & ((1 << bit) - 1)).count_ones();
        (word >> bit & 1 == 1).then(|| (self.flappy_before[w] + below) as usize)
    }

    /// The flip epochs of `link`, ascending (empty if it never flips).
    #[cfg(test)]
    fn link_flips(&self, link: usize) -> &[Epoch] {
        self.flappy_index(LinkId(link as u32)).map_or(&[], |k| self.links.flips(k))
    }

    /// Tiebreak salt for an AS at `epoch` (changes at TE-shift events).
    pub fn te_salt(&self, as_index: usize, epoch: Epoch) -> u64 {
        let version = self.te.version_at(as_index, epoch);
        crate::mix64(self.cfg.seed ^ ((as_index as u64) << 32) ^ u64::from(version))
    }

    /// The epoch mapper.
    pub fn mapper(&self) -> EpochMapper {
        self.mapper
    }

    /// Total epochs simulated.
    pub fn total_epochs(&self) -> u32 {
        self.total_epochs
    }

    /// The config used to build this timeline.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Count of link-state transitions over the whole period (diagnostics).
    pub fn total_link_events(&self) -> usize {
        self.links.epochs.len()
    }

    /// Count of TE shift events over the whole period (diagnostics),
    /// whether listed or kept as a rate.
    pub fn total_te_events(&self) -> usize {
        self.te.total_events()
    }

    /// Heap bytes the timeline holds (diagnostics).
    pub fn heap_bytes(&self) -> usize {
        self.links.heap_bytes()
            + self.te.heap_bytes()
            + 4 * (self.flappy.capacity() + self.flappy_before.capacity())
            + 8 * self.flaps.capacity()
            + 4 * (self.epoch_off.capacity() + self.epoch_links.capacity())
    }

    /// Wall nanoseconds [`ChurnTimeline::build`] took (diagnostics).
    pub fn build_nanos(&self) -> u64 {
        self.build_nanos
    }
}

/// A jump is "far" — rebuilt from the flappy links rather than replayed —
/// once it crosses more flips than this many per flappy link. Measured in
/// the Huge world over a year: a replayed flip is one XOR in a 68 KB
/// bitmap (~0.8 ns), a rebuild one binary search per flappy link in a
/// 16 MB arena (~28 ns), so they break even near 35.
const FAR_JUMP_FLIPS_PER_FLAPPY_LINK: usize = 32;

/// The up/down state of every link at one epoch of one timeline, one bit
/// per link, kept by a set of route trees across their builds. Consecutive
/// epochs differ by a few flips, so [`LinkCursor::seek`] reaches a nearby
/// epoch by XOR-ing the flips in between, in either direction.
#[derive(Debug, Default)]
pub(crate) struct LinkCursor {
    /// [`ChurnTimeline::id`] the bitmap belongs to (0: none yet). The
    /// cursor outlives any one simulator, so the epoch alone is no key.
    timeline: u64,
    epoch: Epoch,
    up: Vec<u64>,
}

impl LinkCursor {
    /// Move to `epoch` of `churn` and return the bitmap: bit `l` is set
    /// iff `churn.link_up(LinkId(l), epoch)`.
    pub(crate) fn seek(&mut self, churn: &ChurnTimeline, epoch: Epoch) -> &[u64] {
        // Every flip lies below `total_epochs`; later epochs (the final
        // slot's `epoch + 1`) hold the last state.
        let epoch = epoch.min(churn.total_epochs.saturating_sub(1));
        if self.timeline != churn.id {
            // A timeline new to this cursor is a jump from its epoch 0,
            // where every link is up.
            self.all_up(churn);
            self.timeline = churn.id;
            self.epoch = 0;
        }
        // The flips in (lo, hi] are one run of the per-epoch index.
        let (lo, hi) = (self.epoch.min(epoch) as usize, self.epoch.max(epoch) as usize);
        let (from, to) = (churn.epoch_off[lo + 1] as usize, churn.epoch_off[hi + 1] as usize);
        if to - from <= FAR_JUMP_FLIPS_PER_FLAPPY_LINK * churn.flappy.len() {
            for &l in &churn.epoch_links[from..to] {
                self.up[l as usize >> 6] ^= 1u64 << (l & 63);
            }
        } else {
            self.all_up(churn);
            for (k, &l) in churn.flappy.iter().enumerate() {
                if !churn.links.state_at(k, epoch) {
                    self.up[l as usize >> 6] &= !(1u64 << (l & 63));
                }
            }
        }
        self.epoch = epoch;
        &self.up
    }

    fn all_up(&mut self, churn: &ChurnTimeline) {
        self.up.clear();
        self.up.resize(churn.flaps.len(), !0);
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_topology::asys::{AsClass, AsInfo, AsRole};
    use churnlab_topology::geo::{countries, CountryCode};
    use churnlab_topology::{generator, Asn, Link, WorldConfig, WorldScale};

    fn world() -> churnlab_topology::GeneratedWorld {
        generator::generate(&WorldConfig::preset(WorldScale::Smoke, 3))
    }

    #[test]
    fn frozen_config_has_no_events() {
        let w = world();
        let mut cfg = ChurnConfig::frozen(30);
        cfg.seed = 1;
        // Zero out stability: frozen() alone doesn't change link profiles,
        // so rebuild the world with churn_scale 0 for a truly event-free run.
        let mut wc = WorldConfig::preset(WorldScale::Smoke, 3);
        wc.churn_scale = 0.0;
        let w0 = generator::generate(&wc);
        let t = ChurnTimeline::build(&w0.topology, &cfg);
        // Tier-1 clique links keep a tiny epsilon flap rate; everything else
        // is zero, so events should be extremely rare (usually none).
        assert!(t.total_link_events() <= 2, "events: {}", t.total_link_events());
        assert_eq!(t.total_te_events(), 0);
        let _ = w;
    }

    #[test]
    fn default_config_produces_events() {
        let w = world();
        let t = ChurnTimeline::build(&w.topology, &ChurnConfig::default());
        assert!(t.total_link_events() > 0, "expected some link churn");
        assert!(t.total_te_events() > 0, "expected some TE churn");
    }

    #[test]
    fn timelines_deterministic() {
        let w = world();
        let a = ChurnTimeline::build(&w.topology, &ChurnConfig::default());
        let b = ChurnTimeline::build(&w.topology, &ChurnConfig::default());
        assert_eq!(a.total_link_events(), b.total_link_events());
        for l in 0..w.topology.n_links() {
            for e in [0u32, 100, 1000, 2000] {
                assert_eq!(a.link_up(LinkId(l as u32), e), b.link_up(LinkId(l as u32), e));
            }
        }
    }

    #[test]
    fn links_start_up() {
        let w = world();
        let t = ChurnTimeline::build(&w.topology, &ChurnConfig::default());
        for l in 0..w.topology.n_links() {
            assert!(t.link_up(LinkId(l as u32), 0), "link {l} must start up");
        }
    }

    #[test]
    fn flip_timeline_semantics() {
        // Timeline 1 of three; its neighbours' flips must not leak in.
        let mut tl = FlipArena::with_capacity(3);
        tl.epochs.extend([1, 7]);
        tl.seal();
        tl.epochs.extend([5, 10, 12]);
        tl.seal();
        tl.seal();
        assert!(tl.state_at(1, 0));
        assert!(tl.state_at(1, 4));
        assert!(!tl.state_at(1, 5));
        assert!(!tl.state_at(1, 9));
        assert!(tl.state_at(1, 10));
        assert!(!tl.state_at(1, 12));
        assert!(!tl.state_at(1, 100));
        assert_eq!(tl.version_at(1, 0), 0);
        assert_eq!(tl.version_at(1, 5), 1);
        assert_eq!(tl.version_at(1, 11), 2);
        assert_eq!(tl.version_at(1, 99), 3);
        assert_eq!(tl.version_at(0, 99), 2);
        assert!(tl.state_at(2, 99), "an eventless timeline stays up");
    }

    #[test]
    fn te_salt_changes_only_at_events() {
        let w = world();
        let t = ChurnTimeline::build(&w.topology, &ChurnConfig::default());
        // Find an AS with at least one listed TE event.
        let idx = (0..w.topology.n_ases())
            .find(|&i| !t.te.listed.flips(i).is_empty())
            .expect("some AS has TE events");
        let first_event = t.te.listed.flips(idx)[0];
        assert_eq!(t.te_salt(idx, 0), t.te_salt(idx, first_event - 1));
        assert_ne!(t.te_salt(idx, first_event - 1), t.te_salt(idx, first_event));
    }

    /// The Huge (preferential-attachment) preset shrunk ~40x, as
    /// `tests/demand_differential.rs` builds it.
    fn mini_pa(seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig::preset(WorldScale::Huge, seed);
        cfg.n_countries = 20;
        cfg.n_tier1 = 5;
        cfg.pa_transits = 150;
        cfg.pa_stubs = 1_200;
        cfg.pa_peering_links = 2_500;
        cfg.hosting_orgs = 6;
        cfg
    }

    /// The whole of `build`'s timeline for `cfg` against the oracle's:
    /// every list, every AS's version at every epoch, the index, the
    /// counts, and where the generator stopped.
    fn assert_matches_oracle(topo: &Topology, cfg: &ChurnConfig) {
        let (t, rng) = ChurnTimeline::sample(topo, cfg);
        let o = oracle::build(topo, cfg);
        assert_eq!(rng, o.rng, "generator end state, {cfg:?}");
        assert_eq!(t.total_epochs, o.total_epochs);
        assert_eq!(t.flappy, o.flappy, "{cfg:?}");
        assert_eq!(t.links.epochs, o.links.epochs, "link flips, {cfg:?}");
        assert_eq!((t.flaps.len(), t.links.len()), (o.links.len().div_ceil(64), o.flappy.len()));
        for l in 0..o.links.len() {
            assert_eq!(t.link_flips(l), o.links.flips(l), "link {l}, {cfg:?}");
        }
        assert_eq!((&t.epoch_off, &t.epoch_links), (&o.epoch_off, &o.epoch_links), "{cfg:?}");
        assert_eq!(t.total_link_events(), o.links.epochs.len());
        assert_eq!(t.total_te_events(), o.te.epochs.len(), "TE events, {cfg:?}");
        assert_eq!(t.te.listed.len(), o.te.len());
        for i in 0..o.te.len() {
            let shifts = o.te.flips(i);
            if !t.te.shifts_every_epoch(i) {
                assert_eq!(t.te.listed.flips(i), shifts, "AS {i}, {cfg:?}");
            }
            // The oracle's version, by walking its list beside the clock.
            let mut version = 0;
            for epoch in 0..=o.total_epochs + 1 {
                while shifts.get(version).is_some_and(|&e| e <= epoch) {
                    version += 1;
                }
                assert_eq!(
                    t.te.version_at(i, epoch),
                    version as u32,
                    "AS {i} at epoch {epoch}, {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn whole_timelines_match_the_oracle_on_the_grid() {
        // One world per (seed, shape, churn scale), each under every
        // period, clock and wobbly rate: 6 at 6 epochs a day is the
        // default and saturates, 5.999999 just does not, 7 and 1e9 clamp
        // to it, and at 24 epochs a day only 1e9 does.
        let shapes: [fn(u64) -> WorldConfig; 3] = [
            |seed| WorldConfig::preset(WorldScale::Smoke, seed),
            |seed| WorldConfig::preset(WorldScale::Small, seed),
            mini_pa,
        ];
        let worlds: Vec<WorldConfig> = (0..5u64)
            .flat_map(|seed| shapes.map(|shape| shape(seed)))
            .flat_map(|w| [0.0, 1.0, 8.0].map(|churn_scale| WorldConfig { churn_scale, ..w.clone() }))
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let worker = || {
            while let Some(world) = worlds.get(next.fetch_add(1, Relaxed)) {
                let topo = generator::generate(world).topology;
                for total_days in [0, 1, 60, 365] {
                    for epochs_per_day in [1, 6, 24] {
                        for wobbly_te_per_day in [0.0, 5.999999, 6.0, 7.0, 1e9] {
                            let cfg = ChurnConfig {
                                seed: 40 + world.seed,
                                epochs_per_day,
                                total_days,
                                wobbly_te_per_day,
                                ..ChurnConfig::default()
                            };
                            assert_matches_oracle(&topo, &cfg);
                        }
                    }
                }
            }
        };
        std::thread::scope(|scope| {
            let second = scope.spawn(worker);
            worker();
            second.join().expect("grid worker panicked");
        });
    }

    #[test]
    fn extreme_link_profiles_and_rates_match_the_oracle() {
        // A ring whose links run from "cannot fail" through rates too
        // small for `1 − p` to show (the plain expression divides by
        // `ln 1 = 0` and holds for one epoch; so must this one) and too
        // small to squeeze, to "fails every epoch" and "never recovers".
        let flap_rates = [0.0, -1.0, 1e-300, 1e-17, 1e-10, 1e-8, 1e-4, 0.45, 1.0, 6.0, 1e3];
        let downtimes = [0.0, 0.25, 0.8, 1e6, f64::INFINITY];
        let n = (flap_rates.len() * downtimes.len()) as u32;
        let mut topo = Topology::new(countries(3));
        for asn in 0..n {
            topo.add_as(AsInfo {
                asn: Asn(asn + 1),
                name: format!("AS{asn}"),
                country: CountryCode::new("US"),
                class: AsClass::TransitAccess,
                role: AsRole::NationalTransit,
            })
            .unwrap();
        }
        for asn in 0..n {
            let stability = LinkStability {
                flap_rate: flap_rates[asn as usize % flap_rates.len()],
                mean_downtime_days: downtimes[asn as usize / flap_rates.len()],
            };
            topo.add_link(Link::peering(Asn(asn + 1), Asn((asn + 1) % n + 1), stability)).unwrap();
        }
        topo.freeze();
        for seed in 0..4 {
            for total_days in [0, 1, 9, 400] {
                for (epochs_per_day, te_shift_per_day, wobbly_frac) in
                    [(1, 1e-17, 0.5), (6, 5.9, 0.0), (6, 6.0, 1.0), (24, -3.0, 7.0), (3, 2.9, -1.0)]
                {
                    let cfg = ChurnConfig {
                        seed,
                        epochs_per_day,
                        total_days,
                        te_shift_per_day,
                        wobbly_frac,
                        wobbly_te_per_day: 1e-9,
                    };
                    assert_matches_oracle(&topo, &cfg);
                }
            }
        }
    }

    #[test]
    fn three_hundred_profiles_match_the_oracle() {
        // More distinct profiles than any memo of a few would hold, on a
        // ring whose every other link repeats an earlier profile.
        let n = 600u32;
        let mut topo = Topology::new(countries(3));
        for asn in 1..=n {
            topo.add_as(AsInfo {
                asn: Asn(asn),
                name: format!("AS{asn}"),
                country: CountryCode::new("US"),
                class: AsClass::TransitAccess,
                role: AsRole::NationalTransit,
            })
            .unwrap();
        }
        for i in 0..n {
            let k = f64::from(i % 300);
            let stability =
                LinkStability { flap_rate: 1e-3 * (1.0 + k), mean_downtime_days: 0.5 + k / 100.0 };
            topo.add_link(Link::peering(Asn(i + 1), Asn((i + 1) % n + 1), stability)).unwrap();
        }
        topo.freeze();
        assert_eq!(topo.profiles().len(), 300);
        for total_days in [1, 60, 365] {
            assert_matches_oracle(&topo, &ChurnConfig { total_days, ..ChurnConfig::default() });
        }
    }

    #[test]
    fn saturated_hold_is_one_and_the_squeeze_agrees_with_the_exact_hold() {
        // At the floor of `q` every draw holds for exactly one epoch: the
        // floored draw itself, the smallest generator output above it (a
        // multiple of 2⁻⁵³) and the largest one there is.
        let saturated = ln_q(1.0);
        assert_eq!(saturated, LN_FLOOR.ln());
        let above_floor = (LN_FLOOR * (1u64 << 53) as f64).ceil() / (1u64 << 53) as f64;
        assert!(above_floor > LN_FLOOR && above_floor - 1.0 / (1u64 << 53) as f64 <= LN_FLOOR);
        for u in [LN_FLOOR, above_floor, 1.0 - 1.0 / (1u64 << 53) as f64] {
            assert_eq!(hold(u, saturated), 1, "u = {u:e}");
        }
        assert_eq!(ShiftLaw::of(6.0, 6.0), ShiftLaw::EveryEpoch);
        assert_eq!(ShiftLaw::of(1e9, 24.0), ShiftLaw::EveryEpoch);
        assert!(matches!(ShiftLaw::of(5.999999, 6.0), ShiftLaw::Sometimes { .. }));
        assert_eq!(ShiftLaw::of(0.0, 6.0), ShiftLaw::Never);

        // Either side of the never-flips threshold, and on it, the
        // squeezed answer is the exact expression's.
        let mut squeezed = 0;
        for flap_rate in [1e-8, 1e-4, 8e-4, 1.2e-1, 0.45, 0.96, 6.0] {
            for per_day in [1.0, 6.0, 24.0] {
                for total_epochs in [0, 1, 2, 60, 360, 2190, 8760, u32::MAX] {
                    let stability = LinkStability { flap_rate, mean_downtime_days: 1.0 };
                    let law = LinkLaw::of(&stability, per_day, total_epochs).expect("can fail");
                    let t = law.never_flips_below;
                    let exact = |u: f64| {
                        Some(hold(u, law.ln_q_up)).filter(|&h| h < u64::from(total_epochs))
                    };
                    for u in [t.next_down().next_down(), t.next_down(), t, t.next_up(), t * 0.5] {
                        let u = u.clamp(LN_FLOOR, 1.0 - f64::EPSILON);
                        assert_eq!(
                            law.first_flip(u, total_epochs),
                            exact(u),
                            "u = {u:e} at threshold {t:e}: {law:?} over {total_epochs} epochs"
                        );
                        squeezed += usize::from(u < t);
                    }
                }
            }
        }
        assert!(squeezed > 200, "the squeeze was barely exercised: {squeezed} draws");
        // Too rare to squeeze safely: every draw takes the exact path.
        let rare = LinkStability { flap_rate: 1e-10, mean_downtime_days: 1.0 };
        assert_eq!(LinkLaw::of(&rare, 6.0, 360).expect("can fail").never_flips_below, 0.0);
    }

    #[test]
    fn validate_names_what_it_refuses_and_build_refuses_with_it() {
        let ok = ChurnConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(ChurnConfig::frozen(0).validate(), Ok(()));
        // Rates outside [0, 1] a day are clamped, not refused.
        assert_eq!(
            ChurnConfig { te_shift_per_day: -1.0, wobbly_te_per_day: 1e9, ..ok.clone() }.validate(),
            Ok(())
        );
        let refused = [
            (ChurnConfig { epochs_per_day: 0, ..ok.clone() }, ChurnConfigError::ZeroEpochsPerDay),
            (
                ChurnConfig { total_days: u32::MAX / 6 + 1, ..ok.clone() },
                ChurnConfigError::EpochOverflow { days: u32::MAX / 6 + 1, per_day: 6 },
            ),
            (
                ChurnConfig { wobbly_te_per_day: f64::INFINITY, ..ok.clone() },
                ChurnConfigError::BadRate { field: "wobbly_te_per_day", value: f64::INFINITY },
            ),
        ];
        let w = world();
        for (cfg, want) in refused {
            assert_eq!(cfg.validate(), Err(want.clone()));
            let refusal = std::panic::catch_unwind(|| ChurnTimeline::build(&w.topology, &cfg))
                .expect_err("build must refuse");
            assert_eq!(*refusal.downcast::<String>().unwrap(), want.to_string());
        }
        assert_eq!(ChurnConfig { total_days: u32::MAX / 6, ..ok.clone() }.validate(), Ok(()));
        // NaN is equal to nothing, itself included: match on the field.
        for field in ["te_shift_per_day", "wobbly_frac", "wobbly_te_per_day"] {
            let mut cfg = ok.clone();
            match field {
                "te_shift_per_day" => cfg.te_shift_per_day = f64::NAN,
                "wobbly_frac" => cfg.wobbly_frac = f64::NAN,
                _ => cfg.wobbly_te_per_day = f64::NAN,
            }
            let err = cfg.validate().expect_err("NaN rate");
            let ChurnConfigError::BadRate { field: named, value } = err else {
                panic!("{field}: {err:?}");
            };
            assert!(named == field && value.is_nan(), "{err:?}");
            let display = format!("churn config: {field} is NaN, need a finite number");
            assert_eq!(err.to_string(), display);
        }
    }

    #[test]
    fn build_refuses_a_link_whose_flap_rate_is_not_a_number() {
        let bad = [(f64::NAN, "NaN"), (f64::INFINITY, "inf"), (-f64::INFINITY, "-inf")];
        for (flap_rate, shown) in bad {
            // The bad profile on the second link, behind a good one.
            let mut topo = Topology::new(countries(3));
            for asn in [1, 2, 3] {
                topo.add_as(AsInfo {
                    asn: Asn(asn),
                    name: format!("AS{asn}"),
                    country: CountryCode::new("US"),
                    class: AsClass::TransitAccess,
                    role: AsRole::NationalTransit,
                })
                .unwrap();
            }
            let stability = LinkStability { flap_rate, mean_downtime_days: 1.0 };
            topo.add_link(Link::peering(Asn(1), Asn(2), LinkStability::flappy())).unwrap();
            topo.add_link(Link::peering(Asn(2), Asn(3), stability)).unwrap();
            topo.freeze();
            let cfg = ChurnConfig::default();
            let refusal = std::panic::catch_unwind(|| ChurnTimeline::build(&topo, &cfg))
                .expect_err("build must refuse");
            assert_eq!(
                *refusal.downcast::<String>().unwrap(),
                format!("churn config: flap_rate is {shown}, need a finite number")
            );
        }
    }

    #[test]
    fn events_kept_as_a_rate_cost_no_memory_and_still_count() {
        let w = world();
        let listed = ChurnConfig { wobbly_te_per_day: 5.999999, ..ChurnConfig::default() };
        let (as_rate, as_list) = (
            ChurnTimeline::build(&w.topology, &ChurnConfig::default()),
            ChurnTimeline::build(&w.topology, &listed),
        );
        let wobbly = as_rate.te.n_every_epoch();
        assert!(wobbly > 0, "no wobbly AS among {}", w.topology.n_ases());
        assert!(as_rate.total_te_events() >= wobbly * (as_rate.total_epochs() as usize - 1));
        // Nearly the same events, a fraction of the bytes.
        assert!(as_list.total_te_events() * 100 > as_rate.total_te_events() * 99);
        assert!(
            as_rate.heap_bytes() * 4 < as_list.heap_bytes(),
            "{} vs {} bytes",
            as_rate.heap_bytes(),
            as_list.heap_bytes()
        );
        // The last version is reached at the last epoch and held.
        let idx = (0..w.topology.n_ases()).find(|&i| as_rate.te.shifts_every_epoch(i)).unwrap();
        let last = as_rate.total_epochs() - 1;
        assert_ne!(as_rate.te_salt(idx, last - 1), as_rate.te_salt(idx, last));
        assert_eq!(as_rate.te_salt(idx, last), as_rate.te_salt(idx, last + 5));
    }

    #[test]
    fn link_cursor_tracks_link_up_through_any_seek_sequence() {
        // Churn turned up and the period stretched until a jump across a
        // half of it crosses more flips than the far-jump cutoff allows.
        let mut wc = WorldConfig::preset(WorldScale::Smoke, 3);
        wc.churn_scale = 8.0;
        let w = generator::generate(&wc);
        let n_links = w.topology.n_links();
        let a = ChurnTimeline::build(
            &w.topology,
            &ChurnConfig { total_days: 1000, ..ChurnConfig::default() },
        );
        let b = ChurnTimeline::build(
            &w.topology,
            &ChurnConfig { seed: 9, total_days: 40, ..ChurnConfig::default() },
        );
        assert!(
            a.total_link_events() > 2 * FAR_JUMP_FLIPS_PER_FLAPPY_LINK * a.flappy.len(),
            "a long jump must be a far one: {} flips over {} links",
            a.total_link_events(),
            a.flappy.len()
        );
        let check = |cursor: &mut LinkCursor, t: &ChurnTimeline, epoch: Epoch, step: u64| {
            let up = cursor.seek(t, epoch);
            for l in 0..n_links {
                let id = LinkId(l as u32);
                assert_eq!(
                    crate::compute::live(up, id),
                    t.link_up(id, epoch),
                    "link {l} at epoch {epoch}, step {step}"
                );
            }
        };
        // A cursor's first seek into a timeline — near its start, where
        // every link is up, and a far jump from there.
        for t in [&a, &b] {
            for first in [0, 1, t.total_epochs() / 2, t.total_epochs() - 1] {
                check(&mut LinkCursor::default(), t, first, 0);
            }
        }
        let mut cursor = LinkCursor::default();
        let mut epoch: Epoch = 0;
        let mut last = a.id;
        for step in 0..400u64 {
            // Mostly one timeline, the other cutting in: one thread's
            // scratch serves whichever simulator calls next.
            let t = if crate::mix64(step) & 3 == 0 { &b } else { &a };
            let total = t.total_epochs();
            let r = crate::mix64(step ^ 0x5eed);
            epoch = match r % 6 {
                0 => epoch + 1,
                1 => epoch.saturating_sub(1),
                2 => epoch + (r >> 8) as Epoch % 9,
                3 => epoch.saturating_sub((r >> 8) as Epoch % 9),
                // Anywhere, far more often than near.
                4 => (r >> 8) as Epoch % total,
                // At and past the end, as the final slot's `epoch + 1` asks.
                _ => total - 1 + (r >> 8) as Epoch % 3,
            };
            // Every other switch of timeline finds a cursor that has
            // seen neither.
            if last != t.id && step & 1 == 0 {
                cursor = LinkCursor::default();
            }
            last = t.id;
            check(&mut cursor, t, epoch, step);
        }
    }

    #[test]
    fn higher_flap_rate_more_events() {
        // Build two worlds differing only in churn scale.
        let mut lo_cfg = WorldConfig::preset(WorldScale::Smoke, 3);
        lo_cfg.churn_scale = 0.2;
        let mut hi_cfg = WorldConfig::preset(WorldScale::Smoke, 3);
        hi_cfg.churn_scale = 5.0;
        let lo = ChurnTimeline::build(&generator::generate(&lo_cfg).topology, &ChurnConfig::default());
        let hi = ChurnTimeline::build(&generator::generate(&hi_cfg).topology, &ChurnConfig::default());
        assert!(
            hi.total_link_events() > lo.total_link_events() * 2,
            "hi {} vs lo {}",
            hi.total_link_events(),
            lo.total_link_events()
        );
    }
}
