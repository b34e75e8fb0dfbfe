//! `bench route` — routing as campaigns run it: path lookups through a
//! campaign unit's demand-driven trees ([`Routes`]), timed against full
//! route trees answering the same lookups; the zero-allocation steady
//! state of both; and what a churn timeline costs to build and hold, as
//! one JSON document (`BENCH_route.json`).
//!
//! ```text
//! bench route                                         # small tier, JSON on stdout
//! bench route --scale both --out BENCH_route.json
//! bench route --min-speedup 2 --max-steady-allocs 0
//! bench route --scale huge --min-reachability 0.95
//! bench route --scale both --baseline BENCH_route.json   # + the timeline-size ceiling
//! bench route --scale both --out BENCH_route.json        # refresh the committed report
//! ```
//!
//! Two tiers are measured:
//!
//! * **small** — the Small world preset (324 ASes). A campaign's lookups
//!   read about half of each tree's routes here, so the demand tree
//!   saves little over a full one, and the millisecond passes leave the
//!   ratio at the mercy of the box's noise.
//! * **huge** — the CAIDA-sized Huge preset (≥50k ASes, ≥500k links),
//!   whose campaign lookups read a few thousand of a tree's routes: the
//!   tier that proves the simulator routes an Internet-scale graph end
//!   to end, with a reachability floor over the sampled lookups
//!   standing in for "the world actually routes".
//!
//! Both passes answer one list of (src, dst, epoch) lookups: sources
//! spread over every AS, destinations revisiting a pool, and as many
//! lookups a (dst, epoch) as the tier's campaign makes (measured, see
//! `TIERS`): the ratio hangs on that number, since a full tree costs the
//! same however few of its routes are read. The *query pass* answers
//! each (dst, epoch) run through one [`Routes`] set over a
//! [`RoutingSim`], cleared before the next run as a campaign unit's is
//! when the unit ends, so every run builds its demand-driven tree in the
//! buffers of the last; the *full-tree pass* computes a full
//! [`RouteTree`] there into reused scratch instead and reads every path
//! off it. Both record every answer the same way, and the two passes'
//! answers must be equal or the run panics.
//!
//! Gates (exit 1 on failure):
//!
//! * `--min-speedup X` — the query pass must answer lookups ≥ X× as fast
//!   as the full-tree pass on every tier. Both run in the same process,
//!   so the ratio is machine-relative and always armed. Both passes run
//!   one resolution (`Resolver::route` in `churnlab_bgp`), the full tree
//!   over every AS, so the ratio guards what the demand tree saves by
//!   resolving only what lookups touch; it cannot see the resolution
//!   itself get slower (that slows the denominator more).
//! * `--max-steady-allocs N` — a warm repeat of the query pass and of
//!   the full-tree pass together must not allocate more than N times (the
//!   design claim is 0). The count comes from the binary's counting
//!   allocator, which counts only while [`COUNTING`] is set — around
//!   those passes.
//! * `--min-reachability R` — the sampled lookups must route at rate ≥ R
//!   on every tier (the Huge smoke floor is 0.95).
//! * `--baseline FILE` — the committed report must still parse, and the
//!   Huge year-long timeline may hold at most
//!   [`MAX_HUGE_YEAR_TIMELINE_MB`]. Its size is a function of the seed,
//!   so the ceiling is absolute; its build time is the machine's, and is
//!   reported, not gated. A rejected run leaves `FILE` as it was.
//!
//! Before any timing, three of the full trees are held route-for-route
//! (class, length and tiebroken next hop at every AS) against
//! [`ReferenceRouter`], the one route oracle that shares no code with the
//! simulator; a divergence panics.

use crate::cli::{self, Args, Flag, Kind, Sub, FRACTION, MIN_SPEEDUP, OUT, REPEATS, SEED, UINT};
use crate::{best_of, gate};
use churnlab_bgp::{
    ChurnConfig, ChurnTimeline, ReferenceRouter, RouteTree, Routes, RoutingSim, TreeScratch,
};
use churnlab_topology::{
    generator, AsIdx, AsRole, Asn, GeneratedWorld, Topology, WorldConfig, WorldScale,
};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The steady-state allocation audit: while `COUNTING` is set, the `bench`
/// binary's global allocator adds every allocation to `ALLOCS`. Only
/// [`counting_allocs`] sets it, around the pass it audits, so every other
/// allocation costs one relaxed load of a flag nobody writes.
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
    about: "a unit's path lookups vs full route trees, zero-allocation steady state",
    flags: &[
        SEED,
        REPEATS,
        Flag::new("--scale", Kind::Choice(&["small", "huge", "both"]), "small", "world tier(s)"),
        Flag::new("--queries", UINT, "", "path lookups per tier (default: 2000 small, 3000 huge)"),
        MIN_SPEEDUP,
        Flag::new("--min-reachability", FRACTION, "", "exit 1 unless this fraction of lookups routes"),
        Flag::new("--max-steady-allocs", UINT, "", "exit 1 if warm repeated passes allocate more"),
        Flag::new("--baseline", Kind::Text, "", "committed report: must parse, and arms the timeline-size ceiling"),
        OUT,
    ],
    positional: None,
    rules: &[],
    run,
};

/// Per-tier workload: (scale, label, default path lookups, lookups per
/// (dst, epoch)). The last is what the tier's campaign makes, read off
/// the `benchmark/` package's traced runs at seed 42 as
/// `bgp.route_lookups` ÷ `bgp.cache_misses` (no tree was evicted):
/// `fused-small` made 49,319 lookups over 1,109 trees (44 a tree),
/// `fused-huge` 16,720 over 56 (299 a tree).
const TIERS: [(WorldScale, &str, usize, usize); 2] =
    [(WorldScale::Small, "small", 2_000, 44), (WorldScale::Huge, "huge", 3_000, 299)];

/// The simulated period lookups draw epochs from: a full year, the
/// paper's study period.
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
    /// Lookups per second through a unit's [`Routes`], cleared between
    /// (dst, epoch) runs, best of repeats.
    pub paths_per_sec: f64,
    /// The same lookups per second read off full route trees, best of
    /// repeats.
    pub full_tree_paths_per_sec: f64,
    /// `paths_per_sec / full_tree_paths_per_sec`.
    pub speedup: f64,
    /// Share of the query pass's lookups answered by a tree the set
    /// already held.
    pub cache_hit_rate: f64,
    /// Fraction of sampled lookups that routed.
    pub reachability: f64,
    /// Heap bytes of the largest demand-driven tree the query pass held:
    /// what its lookups memoized, at most
    /// `churnlab_bgp::sim::cached_tree_bytes` at this scale.
    pub peak_tree_bytes: u64,
    /// Heap allocations during a warm repeat of the query pass and of the
    /// full-tree pass (the committed report proves the zero-allocation
    /// claim).
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

/// One path lookup: (source, destination, epoch).
type Lookup = (AsIdx, AsIdx, u32);

/// Every answer of a pass, in lookup order: each path's ASNs end to end,
/// and where each path ends (an unrouted lookup's path is empty).
#[derive(Debug, Default, PartialEq)]
struct Answers {
    hops: Vec<Asn>,
    ends: Vec<usize>,
}

impl Answers {
    fn record(&mut self, path: &[Asn]) {
        self.hops.extend_from_slice(path);
        self.ends.push(self.hops.len());
    }

    fn path(&self, q: usize) -> &[Asn] {
        let start = if q == 0 { 0 } else { self.ends[q - 1] };
        &self.hops[start..self.ends[q]]
    }

    fn clear(&mut self) {
        self.hops.clear();
        self.ends.clear();
    }
}

/// A generated world, its timeline and its lookups.
struct RouteHarness {
    world: GeneratedWorld,
    churn_cfg: ChurnConfig,
    /// The timeline the full trees are computed under; the simulator
    /// builds an equal one from `churn_cfg`.
    churn: ChurnTimeline,
    lookups: Vec<Lookup>,
}

/// A full route tree and the scratch it is computed into, reused from
/// one (dst, epoch) to the next.
struct FullTree {
    scratch: TreeScratch,
    tree: RouteTree,
}

impl RouteHarness {
    /// Generate the world and timeline for a tier, and its `queries`
    /// lookups, `per_tree` to each (dst, epoch).
    fn assemble(scale: WorldScale, seed: u64, queries: usize, per_tree: usize) -> RouteHarness {
        let world = generator::generate(&WorldConfig::preset(scale, seed));
        let churn_cfg = churn_cfg(seed, BENCH_DAYS);
        let churn = ChurnTimeline::build(&world.topology, &churn_cfg);
        // Destinations: 32 stubs spread across the index space.
        // `per_tree` sources (a campaign's are its vantage points; these
        // are hashed over every AS) probe each (dst, epoch) before the
        // next destination's turn, and the epoch advances once the pool
        // has been round.
        let topo = &world.topology;
        let stubs = topo.select(|a| a.role == AsRole::Stub);
        let step = (stubs.len() / 97).max(1);
        let pool: Vec<AsIdx> = stubs.iter().step_by(step).take(32).copied().collect();
        let (n, epochs) = (topo.n_ases() as u64, churn.total_epochs());
        let batch = pool.len() * per_tree;
        let lookups = (0..queries)
            .map(|q| {
                let src = AsIdx((churnlab_bgp::mix64(q as u64) % n) as u32);
                (src, pool[(q / per_tree) % pool.len()], ((q / batch) as u32 * 11) % epochs)
            })
            .collect();
        RouteHarness { world, churn_cfg, churn, lookups }
    }

    /// A simulator over the harness's world and churn.
    fn sim(&self) -> RoutingSim<'_> {
        let (topo, capacity) = (&self.world.topology, self.world.config.tree_cache_capacity);
        RoutingSim::with_cache_capacity(topo, &self.churn_cfg, capacity)
    }

    /// The (dst, epoch) of each run of lookups that shares one.
    fn trees(&self) -> impl Iterator<Item = (AsIdx, u32)> + '_ {
        let keys = self.lookups.iter().map(|&(_, dst, epoch)| (dst, epoch));
        let mut last = None;
        keys.filter(move |&key| last.replace(key) != Some(key))
    }

    /// The full route tree to `dest` at `epoch`, into `full`.
    fn compute(&self, full: &mut FullTree, dest: AsIdx, epoch: u32) {
        let churn = &self.churn;
        let (link_up, salt) = (|l| churn.link_up(l, epoch), |x| churn.te_salt(x, epoch));
        let (topo, FullTree { scratch, tree }) = (&self.world.topology, full);
        RouteTree::compute_into(scratch, topo, dest, &link_up, &salt, tree);
    }

    /// Hold `trees` full trees, spread over the lookups' (dst, epoch),
    /// against [`ReferenceRouter`].
    ///
    /// # Panics
    ///
    /// Panics on any divergence.
    fn differential_check(&self, full: &mut FullTree, trees: usize) {
        let router = ReferenceRouter::build(&self.world.topology);
        let keys: Vec<(AsIdx, u32)> = self.trees().collect();
        for i in 0..trees.min(keys.len()) {
            let (dest, epoch) = keys[i * keys.len() / trees];
            self.compute(full, dest, epoch);
            let churn = &self.churn;
            let (link_up, salt) = (|l| churn.link_up(l, epoch), |x| churn.te_salt(x, epoch));
            let reference = router.compute(dest, &link_up, &salt);
            assert!(
                reference.agrees_with(&full.tree),
                "the full tree and the reference diverged at dest {dest:?} epoch {epoch}"
            );
        }
    }

    /// Answer every lookup into `answers` as a campaign unit does: each
    /// (dst, epoch) run through `routes`, cleared before the next, so
    /// every run builds its tree in the buffers of the last. Returns the
    /// pass's seconds and the heap bytes of the largest tree it held.
    fn query_pass(
        &self,
        routes: &mut Routes,
        answers: &mut Answers,
        path: &mut Vec<Asn>,
    ) -> (f64, usize) {
        answers.clear();
        let (mut last, mut largest) = (None, 0);
        let start = Instant::now();
        for &(src, dst, epoch) in &self.lookups {
            if last.replace((dst, epoch)).is_some_and(|key| key != (dst, epoch)) {
                largest = largest.max(routes.largest_tree_bytes());
                routes.clear();
            }
            routes.asn_path_into(src, dst, epoch, path);
            answers.record(path);
        }
        largest = largest.max(routes.largest_tree_bytes());
        routes.clear();
        (start.elapsed().as_secs_f64(), largest)
    }

    /// Answer every lookup off full route trees into `answers`: one tree
    /// computed per (dst, epoch), into `full`. Returns the pass's seconds.
    fn full_pass(&self, full: &mut FullTree, answers: &mut Answers, path: &mut Vec<Asn>) -> f64 {
        answers.clear();
        let mut last = None;
        let start = Instant::now();
        for &(src, dst, epoch) in &self.lookups {
            if last.replace((dst, epoch)) != Some((dst, epoch)) {
                self.compute(full, dst, epoch);
            }
            full.tree.asn_path_into(&self.world.topology, src, path);
            answers.record(path);
        }
        start.elapsed().as_secs_f64()
    }
}

/// Assemble a tier, check it against the reference, time `queries`
/// lookups, `per_tree` a (dst, epoch), both ways (best of `repeats`),
/// hold their answers equal, and audit a warm repeat of both passes'
/// allocations.
///
/// # Panics
///
/// Panics if the passes answer any lookup differently.
fn run_tier(
    label: &str,
    scale: WorldScale,
    seed: u64,
    queries: usize,
    per_tree: usize,
    repeats: usize,
) -> (RouteBenchRow, RouteHarness) {
    let h = RouteHarness::assemble(scale, seed, queries, per_tree);
    let mut full_tree = FullTree { scratch: TreeScratch::new(), tree: RouteTree::empty() };
    h.differential_check(&mut full_tree, 3);
    let (mut cached, mut full, mut path) = (Answers::default(), Answers::default(), Vec::new());
    let sim = h.sim();
    let mut routes = Routes::new(&sim);
    let mut peak_tree_bytes = 0;
    let sim_secs = best_of(repeats, || {
        let (secs, tree_bytes) = h.query_pass(&mut routes, &mut cached, &mut path);
        peak_tree_bytes = peak_tree_bytes.max(tree_bytes);
        secs
    });
    let full_secs = best_of(repeats, || h.full_pass(&mut full_tree, &mut full, &mut path));
    if let Some(q) = (0..queries).find(|&q| cached.path(q) != full.path(q)) {
        let (src, dst, epoch) = h.lookups[q];
        panic!(
            "simulator and full tree diverged from {src:?} to {dst:?} at epoch {epoch}: \
             {:?} vs {:?}",
            cached.path(q),
            full.path(q)
        );
    }
    // The timed passes left every buffer warm, so a further pass of
    // either kind must not touch the allocator.
    let (_, query_allocs) = counting_allocs(|| h.query_pass(&mut routes, &mut cached, &mut path));
    let (_, full_allocs) = counting_allocs(|| h.full_pass(&mut full_tree, &mut full, &mut path));
    drop(routes);
    let stats = sim.cache_stats();
    let cache_hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    drop(sim);
    let topo = &h.world.topology;
    let reached = (0..queries).filter(|&q| !cached.path(q).is_empty()).count();
    let row = RouteBenchRow {
        scale: label.to_string(),
        n_ases: topo.n_ases() as u64,
        n_links: topo.n_links() as u64,
        paths_per_sec: queries as f64 / sim_secs.max(1e-9),
        full_tree_paths_per_sec: queries as f64 / full_secs.max(1e-9),
        speedup: full_secs / sim_secs.max(1e-12),
        cache_hit_rate,
        reachability: reached as f64 / queries.max(1) as f64,
        peak_tree_bytes: peak_tree_bytes as u64,
        steady_state_allocs: query_allocs + full_allocs,
    };
    (row, h)
}

fn run(args: &Args) -> ExitCode {
    let (baseline, out) = (args.text("--baseline"), args.text("--out"));
    // Judge first, write second: the baseline is read before the run.
    if let Some(Err(msg)) = baseline.map(gate::read_baseline::<RouteBenchReport>) {
        return cli::usage_error(&msg);
    }
    let (seed, repeats): (u64, usize) = (args.req("--seed"), args.req("--repeats"));
    let wanted = args.text("--scale").expect("--scale has a default");
    let mut rows = Vec::new();
    let mut timelines = Vec::new();
    let mut failures = Vec::new();
    let wanted = |tier: &(WorldScale, &str, usize, usize)| wanted == tier.1 || wanted == "both";
    for (scale, label, queries, per_tree) in TIERS.into_iter().filter(wanted) {
        eprintln!("route: assembling {label} world…");
        let queries = args.get("--queries").unwrap_or(queries);
        let (row, harness) = run_tier(label, scale, seed, queries, per_tree, repeats);

        eprintln!(
            "{:<6} {:>6} ASes {:>7} links  cached {:>9.0} paths/s  full trees {:>9.0} paths/s  \
             speedup {:>6.2}x  hit {:>5.1}%  reach {:>5.1}%  tree {} KB  steady allocs {}",
            row.scale,
            row.n_ases,
            row.n_links,
            row.paths_per_sec,
            row.full_tree_paths_per_sec,
            row.speedup,
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
        let (row, h) = run_tier("smoke", WorldScale::Smoke, 7, 200, 40, 1);
        assert!(row.speedup > 0.0 && row.full_tree_paths_per_sec > 0.0);
        assert!(row.reachability > 0.9, "reachability {}", row.reachability);
        // 40 lookups a tree: one builds it, 39 hit.
        assert!((row.cache_hit_rate - 39.0 / 40.0).abs() < 1e-9, "hit rate {}", row.cache_hit_rate);
        let most = churnlab_bgp::sim::cached_tree_bytes(row.n_ases as usize, row.n_links as usize);
        assert!((1..=most as u64).contains(&row.peak_tree_bytes), "{} > {most}", row.peak_tree_bytes);
        assert_eq!(h.trees().count(), 5, "200 lookups, 40 a tree");
        let (mut cached, mut full, mut path) = (Answers::default(), Answers::default(), Vec::new());
        let sim = h.sim();
        h.query_pass(&mut Routes::new(&sim), &mut cached, &mut path);
        let mut full_tree = FullTree { scratch: TreeScratch::new(), tree: RouteTree::empty() };
        h.full_pass(&mut full_tree, &mut full, &mut path);
        assert_eq!(cached, full);
        assert_eq!(cached.ends.len(), 200);
        // Each run's tree was built once and cleared before the next.
        assert_eq!(sim.cache_stats().misses, 5);
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
