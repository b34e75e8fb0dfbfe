//! The epoch-indexed routing oracle.
//!
//! [`RoutingSim`] ties the topology, the churn timeline, and the route
//! computation together: ask it for the AS-level path between any two ASes
//! at any epoch. Trees are built per (destination, epoch) and kept while
//! they are asked about, because the measurement platform batches many
//! vantage points against the same destination in the same epoch.
//!
//! ## What a lookup costs
//!
//! A tree is demand-driven (`crate::demand`): a miss builds only the
//! destination's provider cone and its peers, under link state its set's
//! cursor carried over from the previous epoch by XOR-ing the flips in
//! between; the provider stage and the salted next hop are resolved, once,
//! for the ASes lookups walk through. A hit is one hash probe. A tree holds
//! a bit per link and a paged route memo: 4 bytes of block index per 8
//! ASes, and a 64-byte block for each 8 ASes its lookups wrote into. A Huge
//! tree's lookups write ~900 of its 7,772 blocks, so it weighs ~160 KB;
//! [`cached_tree_bytes`] is the most one can weigh (~596 KB at Huge, every
//! block written).
//!
//! ## What a simulator costs to make
//!
//! [`RoutingSim::with_cache_capacity`] materialises the whole period's
//! [`ChurnTimeline`] — every campaign's first step, and once the top line
//! of a Huge pass. It costs what flips (`crate::churn`): an AS whose shift
//! probability saturates shifts at every epoch, so it is stored as a rate
//! (one bit; `te_salt` reads its version as `min(epoch, total − 1)`
//! without a search) and the generator is stepped past its draws; the
//! logarithms are computed once per entry of the topology's table of
//! distinct stability profiles, which every link names by index; a
//! first draw `u < exp(total · ln q)` — nine links in ten — means the
//! link outlasts the period without computing `ceil(ln u / ln q)`, which
//! only has to exceed `total − 1` for that to be so: a whole epoch of
//! slack against a rounding error of millionths of one; and only a link
//! that flips — about one in ten at Huge — gets a flip list and its
//! offset. Every flip, salt and later draw is what
//! listing everything produced (the old sampler is the tests' oracle),
//! in about a quarter of the time and, over a year at Huge, a third of
//! the memory (README, *What a timeline costs*).
//!
//! ## Who holds the trees
//!
//! A campaign's (URL, testing day) unit asks about (destination, epoch)s
//! no other unit asks about, bar a few (two URLs on one server, a
//! route-shift probe's `epoch + 1`), so trees held per unit are as many
//! built as one cache shared by the pass builds (1,109 over the seed-42
//! Small campaign, 56 over the Huge one). A campaign worker routes through
//! a [`Routes`] set: a tree is built on first ask and read through `&mut
//! self` (no lock, no reference count, no eviction), and the unit clears
//! the set when it ends, keeping every tree's buffers to rebuild in.
//!
//! [`RoutingSim`]'s own `&self` lookups go through one set behind a mutex,
//! holding at most [`RoutingSim::with_cache_capacity`]'s bound
//! (`WorldConfig::tree_cache_capacity`; `0` = [`auto_cache_capacity`]);
//! a full set drops every tree, counted as evicted. A unit's set adds its
//! lookups to [`RoutingSim::cache_stats`] when it clears or drops: a hit
//! is a lookup its set's trees answered, a miss one that built a tree.
//!
//! All of it is observable through [`RoutingSim::instrument`]
//! (`churnlab_route_cache_{hit,miss,evict}`, `churnlab_route_trees_computed`,
//! `churnlab_route_nodes_resolved_total`, a histogram of the eager
//! build's nanoseconds, and one of the heap bytes each tree held when its
//! set let it go), and so is the set-up:
//! `churnlab_route_timeline_build_nanos` and
//! `churnlab_route_timeline_events{kind="link"|"te"}`. A campaign run on an
//! instrumented platform instruments the simulator it is handed.

use crate::churn::{ChurnConfig, ChurnTimeline, LinkCursor};
use crate::compute::SelectedRoute;
pub use crate::demand::cached_tree_bytes;
use crate::demand::DemandTree;
use crate::time::{Epoch, EpochMapper};
use churnlab_obs::Registry;
use churnlab_topology::{AsIdx, Asn, FxMap, Topology};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// Memory budget the automatic capacity targets.
const AUTO_CACHE_BUDGET_BYTES: usize = 256 << 20;

/// Trees a simulator's own set holds (see the module doc) in a world of
/// this size, when the configured capacity is `0` (automatic): a 256 MB
/// budget divided by the most a tree can hold ([`cached_tree_bytes`]: a
/// tree may still memoize every AS), clamped to `[64, 4096]`. A Small
/// world gets the fixed 4096; the Huge world (at most ~596 KB a tree)
/// lands near 450.
pub fn auto_cache_capacity(n_ases: usize, n_links: usize) -> usize {
    let per_tree = cached_tree_bytes(n_ases, n_links).saturating_add(64);
    (AUTO_CACHE_BUDGET_BYTES / per_tree).clamp(64, 4096)
}

/// Cumulative lookup counters (see [`RoutingSim::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered by a tree their set already held.
    pub hits: u64,
    /// Lookups that built a tree.
    pub misses: u64,
    /// Trees the simulator's own set dropped because it was full.
    pub evictions: u64,
}

/// Trees toward the (destination, epoch)s asked about since the set was
/// last cleared, and the buffers of the trees it let go.
#[derive(Default)]
struct TreeSet {
    /// `trees[keys[&key]]` is the tree of `key`; the trees from
    /// `keys.len()` on are buffers the next misses rebuild in place.
    trees: Vec<DemandTree>,
    keys: FxMap<(AsIdx, Epoch), usize>,
    /// Link state at the epoch of the last tree built.
    cursor: LinkCursor,
    /// Lookups since the counts were last taken ([`TreeSet::take_counts`]).
    hits: u64,
    misses: u64,
}

impl TreeSet {
    /// The tree toward `dest` at `epoch`, built if the set lacks it. The
    /// key joins the set only once its tree is built: a build that panics
    /// leaves nothing to read.
    fn tree(&mut self, sim: &RoutingSim, dest: AsIdx, epoch: Epoch) -> &mut DemandTree {
        let TreeSet { trees, keys, cursor, hits, misses } = self;
        if let Some(&slot) = keys.get(&(dest, epoch)) {
            *hits += 1;
            return &mut trees[slot];
        }
        *misses += 1;
        let slot = keys.len();
        if slot == trees.len() {
            trees.push(DemandTree::new(sim.topo));
        }
        let started = std::time::Instant::now();
        trees[slot].rebuild(sim.topo, cursor.seek(&sim.churn, epoch), dest);
        if let Some(m) = sim.metrics.get() {
            m.trees_computed.inc();
            m.compute_nanos.observe(started.elapsed().as_nanos() as u64);
        }
        keys.insert((dest, epoch), slot);
        &mut trees[slot]
    }

    /// The route `src` selects toward `dst` at `epoch`.
    fn route(
        &mut self,
        sim: &RoutingSim,
        src: AsIdx,
        dst: AsIdx,
        epoch: Epoch,
    ) -> Option<SelectedRoute> {
        let salt = |x| sim.churn.te_salt(x, epoch);
        let resolved = sim.metrics.get().map(|m| &m.nodes_resolved);
        self.tree(sim, dst, epoch).route(sim.topo, &salt, resolved, src)
    }

    /// The path from `src` to `dst` at `epoch` into `out`, each AS mapped
    /// by `map`; `false`, leaving `out` empty, if there is none.
    fn path_into<T>(
        &mut self,
        sim: &RoutingSim,
        src: AsIdx,
        dst: AsIdx,
        epoch: Epoch,
        map: impl Fn(AsIdx) -> T,
        out: &mut Vec<T>,
    ) -> bool {
        let salt = |x| sim.churn.te_salt(x, epoch);
        let resolved = sim.metrics.get().map(|m| &m.nodes_resolved);
        self.tree(sim, dst, epoch).path_into(sim.topo, &salt, resolved, src, map, out)
    }

    /// Let every tree go, keeping its buffers, each observed into the
    /// tree-bytes histogram when instrumented.
    fn clear(&mut self, metrics: Option<&RouteMetrics>) {
        if let Some(m) = metrics {
            let held = &self.trees[..self.keys.len()];
            held.iter().for_each(|t| m.tree_bytes.observe(t.heap_bytes() as u64));
        }
        self.keys.clear();
    }

    /// Add the lookups made since the last call to `sim`'s counts.
    fn take_counts(&mut self, sim: &RoutingSim) {
        let (hits, misses) = (std::mem::take(&mut self.hits), std::mem::take(&mut self.misses));
        sim.hits.fetch_add(hits, Relaxed);
        sim.misses.fetch_add(misses, Relaxed);
        if let Some(m) = sim.metrics.get() {
            m.cache_hit.add(hits);
            m.cache_miss.add(misses);
        }
    }
}

/// Route-lookup metrics exported through `churnlab-obs`.
struct RouteMetrics {
    trees_computed: churnlab_obs::Counter,
    cache_hit: churnlab_obs::Counter,
    cache_miss: churnlab_obs::Counter,
    cache_evict: churnlab_obs::Counter,
    nodes_resolved: churnlab_obs::Counter,
    compute_nanos: churnlab_obs::Histogram,
    tree_bytes: churnlab_obs::Histogram,
}

/// Routing simulator: path oracle over (src, dst, epoch).
pub struct RoutingSim<'t> {
    topo: &'t Topology,
    churn: ChurnTimeline,
    /// The trees `&self` lookups route through.
    set: Mutex<TreeSet>,
    /// The most trees `set` holds.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    metrics: OnceLock<RouteMetrics>,
}

impl<'t> RoutingSim<'t> {
    /// Build a simulator over `topo` with churn per `cfg` and automatic
    /// capacity (see [`auto_cache_capacity`]).
    pub fn new(topo: &'t Topology, cfg: &ChurnConfig) -> Self {
        RoutingSim::with_cache_capacity(topo, cfg, 0)
    }

    /// Like [`RoutingSim::new`] with an explicit bound on the trees the
    /// simulator's own `&self` lookups hold (`0` = automatic). Worlds
    /// carry their preferred value in `WorldConfig::tree_cache_capacity`.
    pub fn with_cache_capacity(topo: &'t Topology, cfg: &ChurnConfig, capacity: usize) -> Self {
        let churn = ChurnTimeline::build(topo, cfg);
        let capacity = if capacity == 0 {
            auto_cache_capacity(topo.n_ases(), topo.n_links())
        } else {
            capacity
        };
        RoutingSim {
            topo,
            churn,
            set: Mutex::default(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    /// Register this simulator's counters, the tree-compute-time
    /// histogram and what its timeline took to build in `registry`. Call
    /// before the hot loop; the counters keep feeding the first registry
    /// they were given.
    pub fn instrument(&self, registry: &Registry) {
        registry
            .gauge(
                "churnlab_route_timeline_build_nanos",
                "Wall nanoseconds the churn timeline took to build",
                &[],
            )
            .set(self.churn.build_nanos() as i64);
        let events =
            [("link", self.churn.total_link_events()), ("te", self.churn.total_te_events())];
        for (kind, n) in events {
            registry
                .gauge(
                    "churnlab_route_timeline_events",
                    "Events of the churn timeline over the whole period, by kind",
                    &[("kind", kind)],
                )
                .set(n as i64);
        }
        let _ = self.metrics.set(RouteMetrics {
            trees_computed: registry.counter(
                "churnlab_route_trees_computed",
                "Route trees computed (cache misses that did work)",
                &[],
            ),
            cache_hit: registry.counter(
                "churnlab_route_cache_hit",
                "Route lookups answered by a tree their set already held",
                &[],
            ),
            cache_miss: registry.counter(
                "churnlab_route_cache_miss",
                "Route lookups that built a tree",
                &[],
            ),
            cache_evict: registry.counter(
                "churnlab_route_cache_evict",
                "Route trees the simulator's own set dropped because it was full",
                &[],
            ),
            nodes_resolved: registry.counter(
                "churnlab_route_nodes_resolved_total",
                "ASes whose next hop a lookup resolved in a cached tree",
                &[],
            ),
            compute_nanos: registry.histogram(
                "churnlab_route_tree_compute_nanos",
                "Wall nanoseconds per route-tree build (the eager part)",
                &[],
            ),
            tree_bytes: registry.histogram(
                "churnlab_route_tree_bytes",
                "Heap bytes a route tree held when its set let it go (cleared, full or dropped)",
                &[],
            ),
        });
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// The churn timeline.
    pub fn churn(&self) -> &ChurnTimeline {
        &self.churn
    }

    /// The epoch mapper (days ↔ epochs).
    pub fn mapper(&self) -> EpochMapper {
        self.churn.mapper()
    }

    /// The most trees the simulator's own `&self` lookups hold.
    pub fn cache_capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative lookup counters: the simulator's own lookups, and those
    /// of every [`Routes`] over it as of the set's last clear.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
        }
    }

    /// `f` over the simulator's own set, with room made for `(dest,
    /// epoch)`: a full set that lacks it drops every tree first.
    fn with_set<R>(&self, dest: AsIdx, epoch: Epoch, f: impl FnOnce(&mut TreeSet) -> R) -> R {
        let (mut set, metrics) = (self.set.lock(), self.metrics.get());
        if set.keys.len() >= self.capacity && !set.keys.contains_key(&(dest, epoch)) {
            self.evictions.fetch_add(set.keys.len() as u64, Relaxed);
            metrics.inspect(|m| m.cache_evict.add(set.keys.len() as u64));
            set.clear(metrics);
        }
        let out = f(&mut set);
        set.take_counts(self);
        out
    }

    /// The route `src` selects toward `dst` at `epoch` — class, shortest
    /// valley-free length and tiebroken next hop; `None` if unreachable.
    pub fn route(&self, src: AsIdx, dst: AsIdx, epoch: Epoch) -> Option<SelectedRoute> {
        self.with_set(dst, epoch, |set| set.route(self, src, dst, epoch))
    }

    /// AS-level path (inclusive of both endpoints) from `src` to `dst` at
    /// `epoch`; `None` if unreachable under that link state.
    pub fn as_path(&self, src: AsIdx, dst: AsIdx, epoch: Epoch) -> Option<Vec<AsIdx>> {
        let mut path = Vec::new();
        self.as_path_into(src, dst, epoch, &mut path).then_some(path)
    }

    /// Like [`RoutingSim::as_path`] but returning ASNs.
    pub fn asn_path(&self, src: AsIdx, dst: AsIdx, epoch: Epoch) -> Option<Vec<Asn>> {
        let mut path = Vec::new();
        self.asn_path_into(src, dst, epoch, &mut path).then_some(path)
    }

    /// Allocation-free form of [`RoutingSim::as_path`]: fill `out` with
    /// the path, returning `false` (and an empty `out`) if unreachable,
    /// or if the selected next hops loop (a provider cycle can close one).
    pub fn as_path_into(&self, src: AsIdx, dst: AsIdx, epoch: Epoch, out: &mut Vec<AsIdx>) -> bool {
        self.with_set(dst, epoch, |set| set.path_into(self, src, dst, epoch, |x| x, out))
    }

    /// Allocation-free form of [`RoutingSim::asn_path`].
    pub fn asn_path_into(&self, src: AsIdx, dst: AsIdx, epoch: Epoch, out: &mut Vec<Asn>) -> bool {
        let asn = |x| self.topo.asn(x);
        self.with_set(dst, epoch, |set| set.path_into(self, src, dst, epoch, asn, out))
    }
}

/// Trees still held leave with the simulator.
impl Drop for RoutingSim<'_> {
    fn drop(&mut self) {
        self.set.lock().clear(self.metrics.get());
    }
}

/// A campaign unit's route trees over one [`RoutingSim`]: each (destination,
/// epoch) tree is built on first ask and held until [`Routes::clear`],
/// which keeps its buffers for the trees built next. Lookups take
/// `&mut self`: nothing is locked or shared. What a set's lookups hit and
/// missed reaches [`RoutingSim::cache_stats`] when it clears or drops.
pub struct Routes<'s, 't> {
    sim: &'s RoutingSim<'t>,
    set: TreeSet,
}

impl<'s, 't> Routes<'s, 't> {
    /// An empty set over `sim`.
    pub fn new(sim: &'s RoutingSim<'t>) -> Self {
        Routes { sim, set: TreeSet::default() }
    }

    /// The simulator the set routes over.
    pub fn sim(&self) -> &'s RoutingSim<'t> {
        self.sim
    }

    /// [`RoutingSim::route`], from this set's trees.
    pub fn route(&mut self, src: AsIdx, dst: AsIdx, epoch: Epoch) -> Option<SelectedRoute> {
        self.set.route(self.sim, src, dst, epoch)
    }

    /// [`RoutingSim::as_path_into`], from this set's trees.
    pub fn as_path_into(
        &mut self,
        src: AsIdx,
        dst: AsIdx,
        epoch: Epoch,
        out: &mut Vec<AsIdx>,
    ) -> bool {
        self.set.path_into(self.sim, src, dst, epoch, |x| x, out)
    }

    /// [`RoutingSim::asn_path_into`], from this set's trees.
    pub fn asn_path_into(
        &mut self,
        src: AsIdx,
        dst: AsIdx,
        epoch: Epoch,
        out: &mut Vec<Asn>,
    ) -> bool {
        let topo = self.sim.topo;
        self.set.path_into(self.sim, src, dst, epoch, |x| topo.asn(x), out)
    }

    /// Heap bytes of the largest tree the set holds (0 if none), at most
    /// [`cached_tree_bytes`].
    pub fn largest_tree_bytes(&self) -> usize {
        let held = &self.set.trees[..self.set.keys.len()];
        held.iter().map(DemandTree::heap_bytes).max().unwrap_or(0)
    }

    /// Let every tree go, keeping their buffers, and add the lookups made
    /// since the last clear to the simulator's counts.
    pub fn clear(&mut self) {
        self.set.take_counts(self.sim);
        self.set.clear(self.sim.metrics.get());
    }
}

impl Drop for Routes<'_, '_> {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_topology::asys::AsRole;
    use churnlab_topology::{generator, WorldConfig, WorldScale};

    #[test]
    fn paths_stable_within_epoch_and_cached() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        let sim = RoutingSim::new(&w.topology, &ChurnConfig::default());
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        let (s, d) = (stubs[0], stubs[1]);
        let p1 = sim.asn_path(s, d, 5);
        let p2 = sim.asn_path(s, d, 5);
        assert_eq!(p1, p2);
        assert!(p1.is_some());
        let stats = sim.cache_stats();
        assert_eq!(stats.misses, 1, "one tree computed");
        assert_eq!(stats.hits, 1, "second query served from cache");
    }

    #[test]
    fn churn_changes_some_paths_over_a_year() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        let sim = RoutingSim::new(&w.topology, &ChurnConfig::default());
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        let total = sim.churn().total_epochs();
        let mut changed_pairs = 0;
        let mut pairs = 0;
        for &s in stubs.iter().take(8) {
            for &d in stubs.iter().rev().take(8) {
                if s == d {
                    continue;
                }
                pairs += 1;
                let mut distinct = std::collections::HashSet::new();
                for e in (0..total).step_by(30) {
                    if let Some(p) = sim.asn_path(s, d, e) {
                        distinct.insert(p);
                    }
                }
                if distinct.len() > 1 {
                    changed_pairs += 1;
                }
            }
        }
        assert!(pairs > 0);
        assert!(changed_pairs > 0, "no path churn observed over a simulated year");
    }

    #[test]
    fn endpoints_present_and_consistent() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 2));
        let sim = RoutingSim::new(&w.topology, &ChurnConfig::default());
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        let (s, d) = (stubs[0], stubs[2]);
        let p = sim.as_path(s, d, 0).unwrap();
        assert_eq!(p[0], s);
        assert_eq!(*p.last().unwrap(), d);
        // No AS repeats (loop-free).
        let mut seen = std::collections::HashSet::new();
        for a in &p {
            assert!(seen.insert(*a), "loop through {:?}", w.topology.asn(*a));
        }
    }

    #[test]
    fn same_as_path_is_singleton() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 2));
        let sim = RoutingSim::new(&w.topology, &ChurnConfig::default());
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        let p = sim.as_path(stubs[0], stubs[0], 0).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 3));
        let sim = RoutingSim::new(&w.topology, &ChurnConfig::default());
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        let mut idx_buf = Vec::new();
        let mut asn_buf = Vec::new();
        for (i, &s) in stubs.iter().take(4).enumerate() {
            let d = stubs[stubs.len() - 1 - i];
            let e = (i * 17) as Epoch;
            let ok = sim.as_path_into(s, d, e, &mut idx_buf);
            assert_eq!(ok.then(|| idx_buf.clone()), sim.as_path(s, d, e));
            let ok = sim.asn_path_into(s, d, e, &mut asn_buf);
            assert_eq!(ok.then(|| asn_buf.clone()), sim.asn_path(s, d, e));
        }
    }

    #[test]
    fn a_full_set_drops_every_tree_it_holds() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        let cfg = ChurnConfig::default();
        let auto = auto_cache_capacity(w.topology.n_ases(), w.topology.n_links());
        assert_eq!(RoutingSim::new(&w.topology, &cfg).cache_capacity(), auto);
        let sim = RoutingSim::with_cache_capacity(&w.topology, &cfg, 3);
        assert_eq!(sim.cache_capacity(), 3);
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        let (s, d) = (stubs[1], stubs[0]);
        // Epochs 0–2 fill the set; epoch 3 finds it full and drops all
        // three; 3–5 fill it again.
        for e in 0..6 {
            sim.as_path(s, d, e);
        }
        let stats = sim.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 6, 3));
        // A key the full set holds is a hit, and drops nothing.
        sim.as_path(s, d, 5);
        assert_eq!(sim.cache_stats(), CacheStats { hits: 1, misses: 6, evictions: 3 });
        sim.as_path(s, d, 0);
        assert_eq!(sim.cache_stats(), CacheStats { hits: 1, misses: 7, evictions: 6 });
    }

    #[test]
    fn a_unit_set_adds_its_lookups_when_it_clears_and_drops() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 2));
        let sim = RoutingSim::new(&w.topology, &ChurnConfig::default());
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        let mut path = Vec::new();
        {
            let mut routes = Routes::new(&sim);
            // Two trees, four lookups: counted only when the set clears.
            for (s, e) in [(stubs[1], 4), (stubs[2], 4), (stubs[1], 9), (stubs[3], 9)] {
                let routed = routes.as_path_into(s, stubs[0], e, &mut path);
                assert_eq!(routed.then(|| path.clone()), sim.as_path(s, stubs[0], e));
            }
            assert_eq!(sim.cache_stats(), CacheStats { hits: 2, misses: 2, evictions: 0 });
            routes.clear();
            assert_eq!(sim.cache_stats(), CacheStats { hits: 4, misses: 4, evictions: 0 });
            // Cleared, the set builds again; dropped, it counts what it made.
            assert_eq!(routes.route(stubs[0], stubs[0], 4).map(|r| r.len()), Some(0));
            routes.route(stubs[1], stubs[0], 4);
        }
        assert_eq!(sim.cache_stats(), CacheStats { hits: 5, misses: 5, evictions: 0 });
    }

    #[test]
    fn tree_bytes_are_observed_when_trees_leave_the_cache() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 4));
        let t = &w.topology;
        let most = cached_tree_bytes(t.n_ases(), t.n_links()) as u64;
        let reg = Registry::new();
        let observed = || {
            let snap = reg.scrape();
            match snap.samples.iter().find(|s| s.name == "churnlab_route_tree_bytes") {
                Some(churnlab_obs::Sample {
                    value: churnlab_obs::SampleValue::Histogram(h), ..
                }) => (h.count, h.sum),
                other => panic!("expected the tree-bytes histogram, got {other:?}"),
            }
        };
        let stubs = t.select(|a| a.role == AsRole::Stub);
        {
            // Capacity 2, six epochs: two full sets dropped, and one tree
            // left to drop with the simulator.
            let sim = RoutingSim::with_cache_capacity(t, &ChurnConfig::default(), 2);
            sim.instrument(&reg);
            for e in 0..6 {
                sim.asn_path(stubs[0], stubs[1], e);
            }
            let (count, sum) = observed();
            assert_eq!(count, 4);
            assert!(sum <= 4 * most);
            // A unit's set observes its trees when it clears, and again
            // when it drops.
            let mut routes = Routes::new(&sim);
            assert_eq!(routes.largest_tree_bytes(), 0);
            for e in 0..3 {
                routes.route(stubs[0], stubs[1], e);
            }
            let largest = routes.largest_tree_bytes() as u64;
            assert!((1..=most).contains(&largest), "{largest} of at most {most}");
            routes.clear();
            assert_eq!(observed().0, 7);
            routes.route(stubs[0], stubs[1], 7);
        }
        let (count, sum) = observed();
        assert_eq!(count, 10, "the held trees are observed when their sets drop");
        assert!(sum <= 10 * most);
    }

    #[test]
    fn auto_capacity_scales_down_with_world_size() {
        assert_eq!(auto_cache_capacity(100, 600), 4096); // small worlds: old fixed cap
        let huge = auto_cache_capacity(80_000, 700_000);
        assert!(
            (64..=512).contains(&huge),
            "Huge worlds must cap residency well below 4096, got {huge}"
        );
        assert_eq!(auto_cache_capacity(usize::MAX / 16, usize::MAX / 16), 64);
    }

    #[test]
    fn instrument_exports_route_metrics() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 4));
        let sim = RoutingSim::new(&w.topology, &ChurnConfig::default());
        let reg = Registry::new();
        sim.instrument(&reg);
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        sim.asn_path(stubs[0], stubs[1], 0);
        sim.asn_path(stubs[2], stubs[1], 0);
        let snap = reg.scrape();
        assert_eq!(snap.counter("churnlab_route_trees_computed", &[]), Some(1));
        assert_eq!(snap.counter("churnlab_route_cache_miss", &[]), Some(1));
        assert_eq!(snap.counter("churnlab_route_cache_hit", &[]), Some(1));
        // Two paths into one destination: every AS on either, bar the
        // destination (whose empty next hop is set at build), once.
        let on_paths: std::collections::HashSet<AsIdx> = [stubs[0], stubs[2]]
            .into_iter()
            .flat_map(|s| sim.as_path(s, stubs[1], 0).expect("stubs route"))
            .collect();
        assert_eq!(
            snap.counter("churnlab_route_nodes_resolved_total", &[]),
            Some(on_paths.len() as u64 - 1)
        );
        let hist = snap
            .samples
            .iter()
            .find(|s| s.name == "churnlab_route_tree_compute_nanos")
            .expect("missing compute-nanos histogram");
        match &hist.value {
            churnlab_obs::SampleValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        // The set-up is in the scrape too.
        let churn = sim.churn();
        assert!(snap.gauge("churnlab_route_timeline_build_nanos", &[]) > Some(0));
        for (kind, n) in [("link", churn.total_link_events()), ("te", churn.total_te_events())] {
            let events = snap.gauge("churnlab_route_timeline_events", &[("kind", kind)]);
            assert_eq!(events, Some(n as i64), "{kind} events");
        }
    }
}
