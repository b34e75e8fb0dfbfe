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
//! Timelines are materialised once (deterministically from the seed) as
//! sorted transition lists in two flat arenas (links, ASes), so state
//! queries are `O(log events)`; link flips are also indexed by epoch, so
//! a `LinkCursor` moves the whole network's link state between nearby
//! epochs in time proportional to what flipped.

use crate::time::{Epoch, EpochMapper};
use churnlab_topology::{LinkId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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
}

/// Sorted flip epochs of many binary timelines in one arena: timeline
/// `i` flips at each epoch in `epochs[off[i]..off[i + 1]]`. Every timeline
/// starts `true` (links start up; TE versions start at 0).
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
    links: FlipArena,
    te: FlipArena,
    /// Links that flip at all, ascending.
    flappy: Vec<u32>,
    /// Per-epoch index of link flips: the links flipping at epoch `e` are
    /// `epoch_links[epoch_off[e]..epoch_off[e + 1]]`.
    epoch_off: Vec<u32>,
    epoch_links: Vec<u32>,
    total_epochs: u32,
}

/// `ln(1 - p)`, the denominator of a Geometric(p) holding-time draw.
fn ln_q(p: f64) -> f64 {
    (1.0 - p).max(1e-12).ln()
}

/// One Geometric holding time, at least 1 epoch.
fn draw_hold(rng: &mut StdRng, ln_q: f64) -> u64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (u.ln() / ln_q).ceil().max(1.0) as u64
}

impl ChurnTimeline {
    /// Build timelines for every link and AS in `topo`.
    pub fn build(topo: &Topology, cfg: &ChurnConfig) -> Self {
        let mapper = EpochMapper::new(cfg.epochs_per_day);
        let total_epochs = mapper.total_epochs(cfg.total_days);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let per_day = f64::from(cfg.epochs_per_day);

        let mut links = FlipArena::with_capacity(topo.n_links());
        let mut flappy = Vec::new();
        for (l, link) in topo.links().iter().enumerate() {
            let p_fail = (link.stability.flap_rate / per_day).min(1.0);
            let p_recover = (link.stability.recovery_rate() / per_day).min(1.0);
            let before = links.epochs.len();
            Self::sample_two_state(total_epochs, p_fail, p_recover, &mut rng, &mut links.epochs);
            if links.epochs.len() > before {
                flappy.push(l as u32);
            }
            links.seal();
        }

        let mut te = FlipArena::with_capacity(topo.n_ases());
        // Sized once from the expected event count rather than doubled up
        // to it: wobbly ASes at the default rate shift every epoch, so at
        // Huge this is the timeline's largest allocation.
        let wobbly = cfg.wobbly_frac.clamp(0.0, 1.0);
        let p_mean = wobbly * (cfg.wobbly_te_per_day / per_day).min(1.0)
            + (1.0 - wobbly) * (cfg.te_shift_per_day / per_day).min(1.0);
        let expected = topo.n_ases() as f64 * f64::from(total_epochs) * p_mean;
        te.epochs.reserve((expected * 1.02) as usize);
        for _ in 0..topo.n_ases() {
            let rate = if rng.gen_bool(cfg.wobbly_frac.clamp(0.0, 1.0)) {
                cfg.wobbly_te_per_day
            } else {
                cfg.te_shift_per_day
            };
            let p = (rate / per_day).min(1.0);
            Self::sample_events(total_epochs, p, &mut rng, &mut te.epochs);
            te.seal();
        }

        // Counting sort of the link flips by epoch (flips lie in
        // `1..total_epochs`).
        let mut epoch_off = vec![0u32; total_epochs.max(1) as usize + 1];
        for &e in &links.epochs {
            epoch_off[e as usize + 1] += 1;
        }
        for e in 1..epoch_off.len() {
            epoch_off[e] += epoch_off[e - 1];
        }
        let mut fill = epoch_off.clone();
        let mut epoch_links = vec![0u32; links.epochs.len()];
        for &l in &flappy {
            for &e in links.flips(l as usize) {
                epoch_links[fill[e as usize] as usize] = l;
                fill[e as usize] += 1;
            }
        }

        ChurnTimeline {
            cfg: cfg.clone(),
            mapper,
            id: NEXT_TIMELINE_ID.fetch_add(1, Relaxed),
            links,
            te,
            flappy,
            epoch_off,
            epoch_links,
            total_epochs,
        }
    }

    /// Sample a two-state chain (starts up) via geometric jumps, appending
    /// its flip epochs to `flips`.
    fn sample_two_state(
        total: u32,
        p_fail: f64,
        p_recover: f64,
        rng: &mut StdRng,
        flips: &mut Vec<Epoch>,
    ) {
        if p_fail <= 0.0 {
            return;
        }
        let (ln_q_up, ln_q_down) = (ln_q(p_fail), ln_q(p_recover.max(1e-6)));
        let mut t = 0u64;
        let mut up = true;
        loop {
            t += draw_hold(rng, if up { ln_q_up } else { ln_q_down });
            if t >= u64::from(total) {
                break;
            }
            flips.push(t as Epoch);
            up = !up;
        }
    }

    /// Sample a pure event process (every event flips the version),
    /// appending its event epochs to `flips`.
    fn sample_events(total: u32, p: f64, rng: &mut StdRng, flips: &mut Vec<Epoch>) {
        if p <= 0.0 {
            return;
        }
        let ln_q = ln_q(p);
        let mut t = 0u64;
        loop {
            t += draw_hold(rng, ln_q);
            if t >= u64::from(total) {
                break;
            }
            flips.push(t as Epoch);
        }
    }

    /// Is `link` usable at `epoch`?
    pub fn link_up(&self, link: LinkId, epoch: Epoch) -> bool {
        self.links.state_at(link.0 as usize, epoch)
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

    /// Count of TE shift events over the whole period (diagnostics).
    pub fn total_te_events(&self) -> usize {
        self.te.epochs.len()
    }
}

/// A jump is "far" — rebuilt from the flappy links rather than replayed —
/// once it crosses more flips than this many per flappy link. Measured in
/// the Huge world over a year: a replayed flip is one XOR in a 68 KB
/// bitmap (~0.8 ns), a rebuild one binary search per flappy link in a
/// 16 MB arena (~28 ns), so they break even near 35.
const FAR_JUMP_FLIPS_PER_FLAPPY_LINK: usize = 32;

/// The up/down state of every link at one epoch of one timeline, one bit
/// per link, kept by a thread across route-tree builds. Consecutive
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
        if self.timeline == churn.id {
            // The flips in (lo, hi] are one run of the per-epoch index.
            let (lo, hi) = (self.epoch.min(epoch) as usize, self.epoch.max(epoch) as usize);
            let (from, to) = (churn.epoch_off[lo + 1] as usize, churn.epoch_off[hi + 1] as usize);
            if to - from <= FAR_JUMP_FLIPS_PER_FLAPPY_LINK * churn.flappy.len() {
                for &l in &churn.epoch_links[from..to] {
                    self.up[l as usize >> 6] ^= 1u64 << (l & 63);
                }
                self.epoch = epoch;
                return &self.up;
            }
        }
        self.up.clear();
        self.up.resize(churn.links.len().div_ceil(64), !0);
        for &l in &churn.flappy {
            if !churn.links.state_at(l as usize, epoch) {
                self.up[l as usize >> 6] &= !(1u64 << (l & 63));
            }
        }
        self.timeline = churn.id;
        self.epoch = epoch;
        &self.up
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_topology::{generator, WorldConfig, WorldScale};

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
        // Find an AS with at least one TE event.
        let idx = (0..w.topology.n_ases())
            .find(|&i| !t.te.flips(i).is_empty())
            .expect("some AS has TE events");
        let first_event = t.te.flips(idx)[0];
        assert_eq!(t.te_salt(idx, 0), t.te_salt(idx, first_event - 1));
        assert_ne!(t.te_salt(idx, first_event - 1), t.te_salt(idx, first_event));
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
        let mut cursor = LinkCursor::default();
        let mut epoch: Epoch = 0;
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
            let up = cursor.seek(t, epoch);
            for l in 0..n_links {
                let id = LinkId(l as u32);
                assert_eq!(
                    crate::compute::live(up, id),
                    t.link_up(id, epoch),
                    "link {l} at epoch {epoch}, step {step}"
                );
            }
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
