//! The sampler [`ChurnTimeline::build`](super::ChurnTimeline::build)
//! replaced, kept verbatim as the tests' oracle: every link computes its
//! own two logarithms and draws its first hold through the exact
//! expression, every TE shift is a listed event, and the per-epoch index
//! is counted in a second pass. The shipped sampler must produce the same
//! lists from the same draws and leave the generator in the same state.

use super::{ChurnConfig, FlipArena};
use crate::time::{Epoch, EpochMapper};
use churnlab_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the old `build` materialised, and the generator as it left it.
pub(super) struct OracleTimeline {
    pub(super) links: FlipArena,
    pub(super) te: FlipArena,
    pub(super) flappy: Vec<u32>,
    pub(super) epoch_off: Vec<u32>,
    pub(super) epoch_links: Vec<u32>,
    pub(super) total_epochs: u32,
    pub(super) rng: StdRng,
}

/// `ln(1 - p)`, the denominator of a Geometric(p) holding-time draw.
fn ln_q(p: f64) -> f64 {
    (1.0 - p).max(1e-12).ln()
}

/// One Geometric holding time, at least 1 epoch.
pub(super) fn draw_hold(rng: &mut StdRng, ln_q: f64) -> u64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (u.ln() / ln_q).ceil().max(1.0) as u64
}

/// Build timelines for every link and AS in `topo`.
pub(super) fn build(topo: &Topology, cfg: &ChurnConfig) -> OracleTimeline {
    let mapper = EpochMapper::new(cfg.epochs_per_day);
    let total_epochs = mapper.total_epochs(cfg.total_days);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let per_day = f64::from(cfg.epochs_per_day);

    let mut links = FlipArena::with_capacity(topo.n_links());
    let mut flappy = Vec::new();
    for (l, link) in topo.links().enumerate() {
        let p_fail = (link.stability.flap_rate / per_day).min(1.0);
        let p_recover = (link.stability.recovery_rate() / per_day).min(1.0);
        let before = links.epochs.len();
        sample_two_state(total_epochs, p_fail, p_recover, &mut rng, &mut links.epochs);
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
        sample_events(total_epochs, p, &mut rng, &mut te.epochs);
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

    OracleTimeline { links, te, flappy, epoch_off, epoch_links, total_epochs, rng }
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
