//! Internet-scale routing bench: the scratch-reused CSR compute path vs
//! the retained pre-CSR reference, plus cached path-query throughput.
//!
//! Two tiers are measured (the `route_bench` bin writes them into
//! `BENCH_route.json`):
//!
//! * **small** — the Small world preset, where both contenders are fast
//!   enough for a best-of-repeats ratio. The `--min-speedup` CI gate
//!   arms here: both run in the same process, so the *ratio* is
//!   machine-relative (the `path_intern_bench` mould).
//! * **huge** — the CAIDA-sized Huge preset (≥50k ASes, ≥500k links):
//!   the tier that proves the engine routes an Internet-scale graph end
//!   to end, with a reachability floor over sampled (src, dst, epoch)
//!   queries standing in for "the world actually routes".
//!
//! Before any timing is trusted the contenders are differentially
//! checked: the reference tree must agree with the fast tree on every
//! AS (class, length, and tiebroken next hop) for several destinations
//! — a contender that diverges is a harness bug, not a speedup. The
//! query pass checks the third form the same way: every sampled path
//! through the simulator's demand-driven trees must be the full tree's.
//!
//! The harness deliberately exposes its phases (`warmup` /
//! [`RouteHarness::fast_pass`] / [`RouteHarness::reference_pass`])
//! instead of one opaque run: the bin brackets `fast_pass` with a
//! counting allocator to enforce the zero-allocation steady state that
//! the scratch-reuse design promises.

use churnlab_bgp::{
    ChurnConfig, ChurnTimeline, ReferenceRouter, RouteTree, RoutingSim, TreeScratch,
};
use churnlab_topology::{generator, AsIdx, AsRole, GeneratedWorld, WorldConfig, WorldScale};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The simulated period benched trees draw epochs from: a full year,
/// the paper's study period. Tree computation cost depends on it — every
/// link-state probe is a binary search over that link's flip history —
/// so benching on a short timeline would understate the very cost the
/// scratch-reused path batches away.
pub const BENCH_DAYS: u32 = 365;

/// One tier's numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteBenchRow {
    /// Tier label (`small` / `huge`).
    pub scale: String,
    /// ASes in the world.
    pub n_ases: u64,
    /// Links in the world.
    pub n_links: u64,
    /// Trees computed per timing pass.
    pub trees: u64,
    /// Reference (pre-CSR, allocating) best-of-repeats seconds; 0 when
    /// the reference pass was skipped for this tier.
    pub reference_secs: f64,
    /// Fast-path best-of-repeats seconds.
    pub fast_secs: f64,
    /// Reference trees per second (0 when skipped).
    pub reference_trees_per_sec: f64,
    /// Fast-path trees per second.
    pub trees_per_sec: f64,
    /// `reference_secs / fast_secs` (0 when the reference was skipped).
    pub speedup: f64,
    /// Cached path queries per second through [`RoutingSim`].
    pub paths_per_sec: f64,
    /// Tree-cache hit rate over the query pass.
    pub cache_hit_rate: f64,
    /// Fraction of sampled (src, dst, epoch) queries that routed.
    pub reachability: f64,
    /// Bytes held by one cached (demand-driven) route tree at this scale.
    pub peak_tree_bytes: u64,
    /// Heap allocations observed during the steady-state fast pass
    /// (filled in by the `route_bench` bin's counting allocator; the
    /// committed report proves the zero-allocation claim).
    pub steady_state_allocs: u64,
}

/// The `BENCH_route.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteBenchReport {
    /// Workload seed.
    pub seed: u64,
    /// Best-of how many repeats.
    pub repeats: usize,
    /// One row per tier.
    pub rows: Vec<RouteBenchRow>,
}

/// Query-pass results (see [`RouteHarness::query_pass`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryStats {
    /// Path queries per second.
    pub paths_per_sec: f64,
    /// Tree-cache hit rate.
    pub cache_hit_rate: f64,
    /// Fraction of queries that routed.
    pub reachability: f64,
}

/// A generated world plus everything a timing pass needs, with phases
/// exposed so the caller can bracket the steady state.
pub struct RouteHarness {
    /// The generated world.
    pub world: GeneratedWorld,
    churn: ChurnTimeline,
    churn_cfg: ChurnConfig,
    scratch: TreeScratch,
    tree: RouteTree,
    dests: Vec<AsIdx>,
}

impl RouteHarness {
    /// Generate the world and churn timeline for a tier.
    pub fn assemble(scale: WorldScale, seed: u64) -> RouteHarness {
        let world = generator::generate(&WorldConfig::preset(scale, seed));
        let churn_cfg = ChurnConfig {
            seed: seed.wrapping_add(3),
            total_days: BENCH_DAYS,
            ..ChurnConfig::default()
        };
        let churn = ChurnTimeline::build(&world.topology, &churn_cfg);
        // Destinations cycle over stubs spread across the index space,
        // each paired with a distinct epoch, so no two timed computes
        // share a (dest, epoch) and caching can't flatter the numbers.
        let stubs = world.topology.select(|a| a.role == AsRole::Stub);
        let step = (stubs.len() / 97).max(1);
        let dests: Vec<AsIdx> = stubs.iter().step_by(step).copied().collect();
        RouteHarness {
            world,
            churn,
            churn_cfg,
            scratch: TreeScratch::new(),
            tree: RouteTree::empty(),
            dests,
        }
    }

    fn job(&self, i: usize) -> (AsIdx, u32) {
        let dest = self.dests[i % self.dests.len()];
        let epoch = ((i * 7) % self.churn.total_epochs() as usize) as u32;
        (dest, epoch)
    }

    /// One untimed compute to grow the scratch and output buffers to the
    /// world's size — everything after this is steady state.
    pub fn warmup(&mut self) {
        self.fast_pass(1);
    }

    /// Time `trees` scratch-reused computes. Returns `(secs, checksum)`;
    /// the checksum folds every tree's reachable count so the work can't
    /// be optimized away and repeats can be compared for stability.
    pub fn fast_pass(&mut self, trees: usize) -> (f64, u64) {
        let RouteHarness { world, churn, scratch, tree, dests, .. } = self;
        let topo = &world.topology;
        let mut checksum = 0u64;
        let start = Instant::now();
        for i in 0..trees {
            let dest = dests[i % dests.len()];
            let epoch = ((i * 7) % churn.total_epochs() as usize) as u32;
            RouteTree::compute_into(
                scratch,
                topo,
                dest,
                &|l| churn.link_up(l, epoch),
                &|x| churn.te_salt(x, epoch),
                tree,
            );
            checksum = checksum.wrapping_mul(31).wrapping_add(tree.reachable_count() as u64);
        }
        (start.elapsed().as_secs_f64(), checksum)
    }

    /// Time `trees` computes through the retained pre-CSR path (same
    /// (dest, epoch) schedule as [`RouteHarness::fast_pass`]). The
    /// nested-adjacency build is untimed: the old code paid it once at
    /// construction, so only per-tree work is compared.
    pub fn reference_pass(&self, trees: usize) -> (f64, u64) {
        let router = ReferenceRouter::build(&self.world.topology);
        let churn = &self.churn;
        let mut checksum = 0u64;
        let start = Instant::now();
        for i in 0..trees {
            let (dest, epoch) = self.job(i);
            let rt = router.compute(
                dest,
                &|l| churn.link_up(l, epoch),
                &|x| churn.te_salt(x, epoch),
            );
            checksum = checksum.wrapping_mul(31).wrapping_add(rt.reachable_count() as u64);
        }
        (start.elapsed().as_secs_f64(), checksum)
    }

    /// Differential guard: the reference and fast paths must select the
    /// same route at every AS for the first `trees` (dest, epoch) jobs.
    ///
    /// # Panics
    ///
    /// Panics on any divergence.
    pub fn differential_check(&mut self, trees: usize) {
        let router = ReferenceRouter::build(&self.world.topology);
        for i in 0..trees {
            let (dest, epoch) = self.job(i);
            let churn = &self.churn;
            let ref_tree = router.compute(
                dest,
                &|l| churn.link_up(l, epoch),
                &|x| churn.te_salt(x, epoch),
            );
            let RouteHarness { world, churn, scratch, tree, .. } = &mut *self;
            RouteTree::compute_into(
                scratch,
                &world.topology,
                dest,
                &|l| churn.link_up(l, epoch),
                &|x| churn.te_salt(x, epoch),
                tree,
            );
            assert!(
                ref_tree.agrees_with(tree),
                "reference and fast paths diverged at dest {dest:?} epoch {epoch}"
            );
        }
    }

    /// Run `queries` cached path lookups through [`RoutingSim`] and
    /// report throughput, cache hit rate, and reachability. Sources are
    /// spread across all ASes; destinations revisit a pool the way the
    /// measurement platform batches vantage points against URLs.
    ///
    /// After the timed pass every sampled path is asked for again and
    /// held against the path read off the full [`RouteTree`] for its
    /// (dest, epoch), so the simulator's demand-driven trees are checked
    /// at this tier's scale.
    ///
    /// # Panics
    ///
    /// Panics on any divergence.
    pub fn query_pass(&mut self, queries: usize) -> QueryStats {
        let RouteHarness { world, churn_cfg, scratch, tree, dests, .. } = self;
        let topo = &world.topology;
        let sim =
            RoutingSim::with_cache_capacity(topo, churn_cfg, world.config.tree_cache_capacity);
        let n = topo.n_ases();
        let dest_pool: Vec<AsIdx> = dests.iter().take(32).copied().collect();
        let epochs = sim.churn().total_epochs();
        // 8 sources probe each (dest, epoch) before the epoch advances —
        // the platform's batching shape, and what gives the cache a
        // meaningful hit rate to report.
        let batch = dest_pool.len() * 8;
        let query = |q: usize| {
            let src = AsIdx((churnlab_bgp::mix64(q as u64) % n as u64) as u32);
            let dst = dest_pool[(q / 8) % dest_pool.len()];
            let epoch = ((q / batch) as u32 * 11) % epochs;
            (src, dst, epoch)
        };
        let mut buf = Vec::new();
        let mut reached = 0usize;
        let start = Instant::now();
        for q in 0..queries {
            let (src, dst, epoch) = query(q);
            if sim.asn_path_into(src, dst, epoch, &mut buf) {
                reached += 1;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let stats = sim.cache_stats();
        let lookups = stats.hits + stats.misses;

        let churn = sim.churn();
        let mut full_buf = Vec::new();
        let mut computed = None;
        for q in 0..queries {
            let (src, dst, epoch) = query(q);
            if computed != Some((dst, epoch)) {
                RouteTree::compute_into(
                    scratch,
                    topo,
                    dst,
                    &|l| churn.link_up(l, epoch),
                    &|x| churn.te_salt(x, epoch),
                    tree,
                );
                computed = Some((dst, epoch));
            }
            let routed = sim.asn_path_into(src, dst, epoch, &mut buf);
            assert!(
                routed == tree.asn_path_into(topo, src, &mut full_buf) && buf == full_buf,
                "simulator and full tree diverged from {src:?} to {dst:?} at epoch {epoch}: \
                 {buf:?} vs {full_buf:?}"
            );
        }

        QueryStats {
            paths_per_sec: queries as f64 / secs.max(1e-9),
            cache_hit_rate: if lookups == 0 { 0.0 } else { stats.hits as f64 / lookups as f64 },
            reachability: reached as f64 / queries.max(1) as f64,
        }
    }

    /// Bytes one cached route tree holds at this scale.
    pub fn peak_tree_bytes(&self) -> u64 {
        let topo = &self.world.topology;
        churnlab_bgp::sim::cached_tree_bytes(topo.n_ases(), topo.n_links()) as u64
    }
}

/// Assemble, differentially check, and time one tier. `ref_trees` may be
/// smaller than `trees` for expensive tiers; 0 skips the reference pass
/// (speedup reported as 0). Allocation accounting is the caller's (the
/// bin brackets its own `fast_pass`).
pub fn run_tier(
    label: &str,
    scale: WorldScale,
    seed: u64,
    trees: usize,
    ref_trees: usize,
    queries: usize,
    repeats: usize,
) -> (RouteBenchRow, RouteHarness) {
    let mut h = RouteHarness::assemble(scale, seed);
    h.differential_check(3.min(trees.max(1)));
    h.warmup();
    let mut fast_secs = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let (s, _) = h.fast_pass(trees);
        fast_secs = fast_secs.min(s);
    }
    let mut reference_secs = 0.0f64;
    if ref_trees > 0 {
        reference_secs = f64::INFINITY;
        for _ in 0..repeats.max(1) {
            let (s, _) = h.reference_pass(ref_trees);
            reference_secs = reference_secs.min(s);
        }
    }
    let q = h.query_pass(queries);
    let per_ref = if ref_trees > 0 { reference_secs / ref_trees as f64 } else { 0.0 };
    let per_fast = fast_secs / trees.max(1) as f64;
    let row = RouteBenchRow {
        scale: label.to_string(),
        n_ases: h.world.topology.n_ases() as u64,
        n_links: h.world.topology.n_links() as u64,
        trees: trees as u64,
        reference_secs,
        fast_secs,
        reference_trees_per_sec: if per_ref > 0.0 { 1.0 / per_ref } else { 0.0 },
        trees_per_sec: 1.0 / per_fast.max(1e-12),
        speedup: if per_fast > 0.0 && per_ref > 0.0 { per_ref / per_fast } else { 0.0 },
        paths_per_sec: q.paths_per_sec,
        cache_hit_rate: q.cache_hit_rate,
        reachability: q.reachability,
        peak_tree_bytes: h.peak_tree_bytes(),
        steady_state_allocs: 0,
    };
    (row, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_phases_agree_and_query_pass_routes() {
        // Smoke-sized so debug-mode tests stay fast; the real tiers run
        // in the release-mode bin.
        let (row, mut h) = run_tier("smoke", WorldScale::Smoke, 7, 6, 6, 200, 1);
        assert!(row.speedup > 0.0);
        assert!(row.trees_per_sec > 0.0);
        assert!(row.reachability > 0.9, "reachability {}", row.reachability);
        assert!(row.cache_hit_rate > 0.5, "hit rate {}", row.cache_hit_rate);
        assert_eq!(row.peak_tree_bytes, 8 * row.n_ases + 8 * row.n_links.div_ceil(64));
        // Same schedule ⇒ same checksum on both paths.
        let (_, fast_sum) = h.fast_pass(6);
        let (_, ref_sum) = h.reference_pass(6);
        assert_eq!(fast_sum, ref_sum, "contenders saw different route trees");
    }
}
