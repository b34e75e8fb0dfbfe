//! `bench route` — Internet-scale routing: the scratch-reused CSR compute
//! path vs the retained pre-CSR reference, cached path-query throughput,
//! the zero-allocation steady-state proof, and what a churn timeline
//! costs to build and hold, as one JSON document (`BENCH_route.json`).
//!
//! ```text
//! bench route                                         # small tier, JSON on stdout
//! bench route --scale both --out BENCH_route.json
//! bench route --min-speedup 2 --max-steady-allocs 0
//! bench route --scale huge --min-reachability 0.95
//! bench route --scale both --baseline BENCH_route.json   # + the timeline-size ceiling
//! bench route --scale both --update-baseline             # refresh BENCH_route.json
//! ```
//!
//! Two tiers are measured:
//!
//! * **small** — the Small world preset, where both contenders are fast
//!   enough for a best-of-repeats ratio. The `--min-speedup` CI gate
//!   arms here: both run in the same process, so the *ratio* is
//!   machine-relative and always armed.
//! * **huge** — the CAIDA-sized Huge preset (≥50k ASes, ≥500k links):
//!   the tier that proves the engine routes an Internet-scale graph end
//!   to end, with a reachability floor over sampled (src, dst, epoch)
//!   queries standing in for "the world actually routes".
//!
//! Gates (exit 1 on failure):
//!
//! * `--min-speedup X` — the fast path must beat the reference by ≥ X×
//!   per tree on every tier that ran a reference pass.
//! * `--max-steady-allocs N` — heap allocations during the timed
//!   steady-state pass must not exceed N (the design claim is 0). The
//!   count comes from the binary's counting allocator, which counts only
//!   while [`COUNTING`] is set — around that pass.
//! * `--min-reachability R` — sampled (src, dst, epoch) queries must
//!   route at rate ≥ R on every tier (the Huge smoke floor is 0.95).
//! * `--baseline FILE` — the committed report must still parse, and the
//!   Huge year-long timeline may hold at most
//!   [`MAX_HUGE_YEAR_TIMELINE_MB`]. Its size is a function of the seed,
//!   so the ceiling is absolute; its build time is the machine's, and is
//!   reported, not gated. A rejected run leaves `FILE` as it was.
//!
//! Before any timing is trusted the contenders are differentially
//! checked: the reference tree must agree with the fast tree on every
//! AS (class, length, and tiebroken next hop) for several destinations
//! — a contender that diverges is a harness bug, not a speedup. The
//! query pass checks the third form the same way, gate or no gate: every
//! sampled path through the simulator's demand-driven trees must be the
//! full tree's, or the run panics.
//!
//! The harness deliberately exposes its phases
//! ([`RouteHarness::fast_pass`] / [`RouteHarness::reference_pass`])
//! instead of one opaque run, so the steady state can be bracketed by
//! the allocation counter.

use crate::cli::{self, Args, Flag, Kind, Sub, FRACTION, MIN_SPEEDUP, OUT, REPEATS, SEED, UINT};
use crate::{best_of, gate};
use churnlab_bgp::{
    ChurnConfig, ChurnTimeline, ReferenceRouter, RouteTree, RoutingSim, TreeScratch,
};
use churnlab_topology::{
    generator, AsIdx, AsRole, GeneratedWorld, Topology, WorldConfig, WorldScale,
};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The steady-state allocation audit: while `COUNTING` is set, the `bench`
/// binary's global allocator adds every allocation to `ALLOCS`. Only
/// [`SUB`]'s run sets it, around one steady-state pass, so every other
/// subcommand's allocations cost one relaxed load of a flag nobody writes.
pub static COUNTING: AtomicBool = AtomicBool::new(false);
/// See [`COUNTING`].
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Run `f` with the audit on: its result and the heap allocations made
/// meanwhile (by any thread; zero unless the process runs the `bench`
/// binary's allocator).
pub fn counting_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, ALLOCS.load(Relaxed))
}

/// `bench route`.
pub const SUB: Sub = Sub {
    name: "route",
    about: "route-tree compute vs the reference, cached path queries, zero-allocation steady state",
    flags: &[
        SEED,
        REPEATS,
        Flag::new("--scale", Kind::Choice(&["small", "huge", "both"]), "small", "world tier(s)"),
        Flag::new("--queries", UINT, "", "path queries per tier (default: 2000 small, 1000 huge)"),
        MIN_SPEEDUP,
        Flag::new("--min-reachability", FRACTION, "", "exit 1 unless this fraction of sampled queries routes"),
        Flag::new("--max-steady-allocs", UINT, "", "exit 1 if the steady-state pass allocates more often"),
        Flag::new("--baseline", Kind::Text, "", "committed report: must parse, and arms the timeline-size ceiling"),
        gate::UPDATE_BASELINE,
        OUT,
    ],
    positional: None,
    rules: &[],
    run,
};

/// Per-tier workload sizes: (scale, label, timed trees, reference trees,
/// default path queries). Huge trees cost milliseconds each, so its
/// counts are small; the Small ratio is what the speedup gate reads.
const TIERS: [(WorldScale, &str, usize, usize, usize); 2] =
    [(WorldScale::Small, "small", 60, 60, 2_000), (WorldScale::Huge, "huge", 8, 4, 1_000)];

/// The simulated period benched trees draw epochs from: a full year,
/// the paper's study period. Tree computation cost depends on it — every
/// link-state probe is a binary search over that link's flip history —
/// so benching on a short timeline would understate the very cost the
/// scratch-reused path batches away.
pub const BENCH_DAYS: u32 = 365;

/// The periods a tier's timeline is sized and timed over: the
/// `benchmark/` package's `fused-huge` workload simulates 60 days, the
/// paper's study a year.
pub const TIMELINE_DAYS: [u32; 2] = [60, BENCH_DAYS];

/// Ceiling on [`TimelineRow::timeline_mb`] of the Huge year-long timeline
/// in a `--baseline`-gated run. Measured ~37; ~104 when every TE shift of
/// an AS that shifts at every epoch was a listed event.
pub const MAX_HUGE_YEAR_TIMELINE_MB: f64 = 48.0;

/// What one tier's churn timeline over one period costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineRow {
    /// Tier label (`small` / `huge`).
    pub scale: String,
    /// Days simulated.
    pub days: u32,
    /// `ChurnTimeline::build`, best-of-repeats milliseconds.
    pub timeline_build_ms: f64,
    /// Heap the timeline holds, MB (10⁶ bytes).
    pub timeline_mb: f64,
    /// Link up/down transitions over the period.
    pub link_events: u64,
    /// TE shifts over the period, listed or kept as a rate.
    pub te_events: u64,
}

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
    /// Reference (pre-CSR, allocating) best-of-repeats seconds.
    pub reference_secs: f64,
    /// Fast-path best-of-repeats seconds.
    pub fast_secs: f64,
    /// Reference trees per second.
    pub reference_trees_per_sec: f64,
    /// Fast-path trees per second.
    pub trees_per_sec: f64,
    /// Per-tree reference time over per-tree fast time.
    pub speedup: f64,
    /// Cached path queries per second through [`RoutingSim`].
    pub paths_per_sec: f64,
    /// Tree-cache hit rate over the query pass.
    pub cache_hit_rate: f64,
    /// Fraction of sampled (src, dst, epoch) queries that routed.
    pub reachability: f64,
    /// Heap bytes of the largest demand-driven tree the query pass's
    /// cache held: what its lookups memoized, at most
    /// `churnlab_bgp::sim::cached_tree_bytes` at this scale.
    pub peak_tree_bytes: u64,
    /// Heap allocations observed during the steady-state fast pass (the
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
    /// One row per tier and period of [`TIMELINE_DAYS`] (absent from
    /// reports older than the rows).
    #[serde(default)]
    pub timelines: Vec<TimelineRow>,
}

/// The full route tree to `dest` at `epoch`, into reused scratch and
/// output buffers.
fn full_tree(
    scratch: &mut TreeScratch,
    topo: &Topology,
    churn: &ChurnTimeline,
    dest: AsIdx,
    epoch: u32,
    tree: &mut RouteTree,
) {
    RouteTree::compute_into(
        scratch,
        topo,
        dest,
        &|l| churn.link_up(l, epoch),
        &|x| churn.te_salt(x, epoch),
        tree,
    );
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

/// The churn process benched worlds run under, over `total_days`.
fn churn_cfg(seed: u64, total_days: u32) -> ChurnConfig {
    ChurnConfig { seed: seed.wrapping_add(3), total_days, ..ChurnConfig::default() }
}

/// Build `topo`'s timeline over `days`, `repeats` times: what the fastest
/// build took and what any of them holds.
pub fn timeline_row(label: &str, topo: &Topology, seed: u64, days: u32, repeats: usize) -> TimelineRow {
    let cfg = churn_cfg(seed, days);
    let mut built = None;
    let timeline_build_ms = 1e3
        * best_of(repeats, || {
            let timeline = built.insert(ChurnTimeline::build(topo, &cfg));
            timeline.build_nanos() as f64 / 1e9
        });
    let built = built.expect("best_of makes at least one pass");
    TimelineRow {
        scale: label.to_string(),
        days,
        timeline_build_ms,
        timeline_mb: built.heap_bytes() as f64 / 1e6,
        link_events: built.total_link_events() as u64,
        te_events: built.total_te_events() as u64,
    }
}

impl RouteHarness {
    /// Generate the world and churn timeline for a tier.
    pub fn assemble(scale: WorldScale, seed: u64) -> RouteHarness {
        let world = generator::generate(&WorldConfig::preset(scale, seed));
        let churn_cfg = churn_cfg(seed, BENCH_DAYS);
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
            full_tree(scratch, topo, churn, dest, epoch, tree);
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
            full_tree(scratch, &world.topology, churn, dest, epoch, tree);
            assert!(
                ref_tree.agrees_with(tree),
                "reference and fast paths diverged at dest {dest:?} epoch {epoch}"
            );
        }
    }

    /// Run `queries` cached path lookups through [`RoutingSim`] and
    /// report `(paths per second, tree-cache hit rate, fraction of
    /// queries that routed, heap bytes of the largest cached tree)`.
    /// Sources are
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
    pub fn query_pass(&mut self, queries: usize) -> (f64, f64, f64, usize) {
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
                full_tree(scratch, topo, churn, dst, epoch, tree);
                computed = Some((dst, epoch));
            }
            let routed = sim.asn_path_into(src, dst, epoch, &mut buf);
            assert!(
                routed == tree.asn_path_into(topo, src, &mut full_buf) && buf == full_buf,
                "simulator and full tree diverged from {src:?} to {dst:?} at epoch {epoch}: \
                 {buf:?} vs {full_buf:?}"
            );
        }

        (
            queries as f64 / secs.max(1e-9),
            if lookups == 0 { 0.0 } else { stats.hits as f64 / lookups as f64 },
            reached as f64 / queries.max(1) as f64,
            sim.largest_cached_tree_bytes(),
        )
    }
}

/// Assemble, differentially check, and time one tier over `trees` (> 0)
/// fast computes and `ref_trees` (> 0, may be fewer for expensive tiers)
/// reference computes. Allocation accounting is the caller's, who
/// brackets a further `fast_pass` of its own.
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
    h.differential_check(3.min(trees));
    // One untimed compute grows the scratch and output buffers to the
    // world's size — everything after this is steady state.
    h.fast_pass(1);
    let fast_secs = best_of(repeats, || h.fast_pass(trees).0);
    let reference_secs = best_of(repeats, || h.reference_pass(ref_trees).0);
    let (paths_per_sec, cache_hit_rate, reachability, peak_tree_bytes) = h.query_pass(queries);
    let per_ref = reference_secs / ref_trees as f64;
    let per_fast = fast_secs / trees as f64;
    let topo = &h.world.topology;
    let row = RouteBenchRow {
        scale: label.to_string(),
        n_ases: topo.n_ases() as u64,
        n_links: topo.n_links() as u64,
        trees: trees as u64,
        reference_secs,
        fast_secs,
        reference_trees_per_sec: 1.0 / per_ref.max(1e-12),
        trees_per_sec: 1.0 / per_fast.max(1e-12),
        speedup: per_ref / per_fast.max(1e-12),
        paths_per_sec,
        cache_hit_rate,
        reachability,
        peak_tree_bytes: peak_tree_bytes as u64,
        steady_state_allocs: 0,
    };
    (row, h)
}

fn run(args: &Args) -> ExitCode {
    let (baseline, out) = match gate::targets(args, "BENCH_route.json") {
        Ok(targets) => targets,
        Err(msg) => return cli::usage_error(&msg),
    };
    // Judge first, write second: the baseline is read before the run.
    if let Some(Err(msg)) = baseline.map(gate::read_baseline::<RouteBenchReport>) {
        return cli::usage_error(&msg);
    }
    let (seed, repeats): (u64, usize) = (args.req("--seed"), args.req("--repeats"));
    let wanted = args.text("--scale").expect("--scale has a default");
    let mut rows = Vec::new();
    let mut timelines = Vec::new();
    let mut failures = Vec::new();
    let wanted = |tier: &(WorldScale, &str, usize, usize, usize)| wanted == tier.1 || wanted == "both";
    for (scale, label, trees, ref_trees, queries) in TIERS.into_iter().filter(wanted) {
        eprintln!("route: assembling {label} world…");
        let queries = args.get("--queries").unwrap_or(queries);
        let (mut row, mut harness) = run_tier(label, scale, seed, trees, ref_trees, queries, repeats);

        // Steady-state allocation audit: everything is warm after
        // run_tier, so a fresh timed pass must not touch the allocator.
        (_, row.steady_state_allocs) = counting_allocs(|| harness.fast_pass(trees));

        eprintln!(
            "{:<6} {:>6} ASes {:>7} links  reference {:>7.1} trees/s  fast {:>8.1} trees/s  \
             speedup {:>5.2}x  {:>9.0} paths/s  hit {:>5.1}%  reach {:>5.1}%  tree {} KB  \
             steady allocs {}",
            row.scale,
            row.n_ases,
            row.n_links,
            row.reference_trees_per_sec,
            row.trees_per_sec,
            row.speedup,
            row.paths_per_sec,
            row.cache_hit_rate * 100.0,
            row.reachability * 100.0,
            row.peak_tree_bytes / 1024,
            row.steady_state_allocs,
        );
        failures.extend(gate::below_floor(args.get("--min-speedup"), label, row.speedup));
        if let Some(floor) = args.get("--min-reachability") {
            if row.reachability < floor {
                failures.push(format!(
                    "{label} reachability {:.3} is below the {floor} floor",
                    row.reachability
                ));
            }
        }
        if let Some(ceiling) = args.get::<u64>("--max-steady-allocs") {
            if row.steady_state_allocs > ceiling {
                failures.push(format!(
                    "{label} steady-state pass performed {} allocations (ceiling {ceiling})",
                    row.steady_state_allocs
                ));
            }
        }
        rows.push(row);

        for days in TIMELINE_DAYS {
            let t = timeline_row(label, &harness.world.topology, seed, days, repeats);
            eprintln!(
                "{:<6} timeline {:>3} days  build {:>7.2} ms  {:>7.2} MB  {:>8} link events  {:>9} TE events",
                t.scale, t.days, t.timeline_build_ms, t.timeline_mb, t.link_events, t.te_events
            );
            let gated = baseline.is_some() && scale == WorldScale::Huge && days == BENCH_DAYS;
            if gated && t.timeline_mb > MAX_HUGE_YEAR_TIMELINE_MB {
                failures.push(format!(
                    "the huge {days}-day timeline holds {:.1} MB (ceiling {MAX_HUGE_YEAR_TIMELINE_MB})",
                    t.timeline_mb
                ));
            }
            timelines.push(t);
        }
    }
    let report = RouteBenchReport { seed, repeats, rows, timelines };
    gate::write_judged("route", out, baseline, !failures.is_empty(), &report);
    gate::verdict("route", &failures)
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
        let most = churnlab_bgp::sim::cached_tree_bytes(row.n_ases as usize, row.n_links as usize);
        assert!((1..=most as u64).contains(&row.peak_tree_bytes), "{} > {most}", row.peak_tree_bytes);
        // Same schedule ⇒ same checksum on both paths.
        let (_, fast_sum) = h.fast_pass(6);
        let (_, ref_sum) = h.reference_pass(6);
        assert_eq!(fast_sum, ref_sum, "contenders saw different route trees");
    }

    #[test]
    fn timeline_rows_count_what_was_built_and_old_reports_still_parse() {
        let topo = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 7)).topology;
        let [short, year] = TIMELINE_DAYS.map(|days| timeline_row("smoke", &topo, 7, days, 2));
        assert_eq!((short.days, year.days), (60, BENCH_DAYS));
        assert!(short.timeline_build_ms > 0.0 && short.timeline_mb > 0.0);
        assert!(year.link_events > short.link_events && year.te_events > short.te_events);
        assert!(year.timeline_mb > short.timeline_mb);
        // A report written before the rows existed reads as having none.
        let old = r#"{"seed":42,"repeats":3,"rows":[]}"#;
        let parsed: RouteBenchReport = serde_json::from_str(old).expect("pre-timeline report");
        assert!(parsed.timelines.is_empty());
    }
}
