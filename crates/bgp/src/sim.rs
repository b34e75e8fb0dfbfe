//! The epoch-indexed routing oracle.
//!
//! [`RoutingSim`] ties the topology, the churn timeline, and the route
//! computation together: ask it for the AS-level path between any two ASes
//! at any epoch. Trees are built per (destination, epoch) and cached,
//! because the measurement platform naturally batches many vantage points
//! against the same destination in the same epoch.
//!
//! ## What a lookup costs
//!
//! A cached tree is demand-driven (`crate::demand`): a miss builds
//! only the destination's provider cone and its peers, under link state
//! the thread's [`TreeScratch`] cursor carried over from the previous
//! epoch by XOR-ing the flips in between; the provider stage and the
//! salted next hop are resolved, once, for the ASes lookups walk through.
//! A tree holds a bit per link and a paged route memo: 4 bytes of block
//! index per 8 ASes, and a 64-byte block for each 8 ASes its lookups
//! wrote into. A Huge tree's lookups write ~900 of its 7,772 blocks, so it
//! weighs ~160 KB; [`cached_tree_bytes`] is the most one can weigh (~596
//! KB at Huge, every block written).
//!
//! ## What a simulator costs to make
//!
//! [`RoutingSim::with_cache_capacity`] materialises the whole period's
//! [`ChurnTimeline`] — every campaign's first step, and once the top line
//! of a Huge pass. It costs what flips (`crate::churn`): an AS whose shift
//! probability saturates shifts at every epoch, so it is stored as a rate
//! (one bit; `te_salt` reads its version as `min(epoch, total − 1)`
//! without a search) and the generator is stepped past its draws; a
//! link's logarithms are computed once per distinct stability profile;
//! and a first draw `u < exp(total · ln q)` — nine links in ten — means
//! the link outlasts the period without computing `ceil(ln u / ln q)`,
//! which only has to exceed `total − 1` for that to be so: a whole epoch
//! of slack against a rounding error of millionths of one. Every flip,
//! salt and later draw is what listing everything produced (the old
//! sampler is the tests' oracle), in about a quarter of the time and,
//! over a year at Huge, a third of the memory (README, *What a timeline
//! costs*).
//!
//! ## Cache layout
//!
//! At Internet scale the tree cache is the contention point: one worker
//! thread building a Huge tree must not stall every other worker's cache
//! *lookups*. The cache is therefore split into [`N_SHARDS`] stripes
//! keyed by destination hash, each behind its own mutex, and trees are
//! built **outside** any lock. Each stripe is a true LRU (stamp-based,
//! lazily compacted recency queue — both `get` and re-`put` promote), so
//! the platform's revisit-heavy access pattern keeps hot destinations
//! resident.
//!
//! Capacity comes from [`RoutingSim::with_cache_capacity`] (the world
//! generator exposes `WorldConfig::tree_cache_capacity`); `0` picks an
//! automatic value from a fixed memory budget and the world size, so a
//! Huge world doesn't silently pin gigabytes of trees.
//!
//! Cache traffic is observable through [`RoutingSim::instrument`]
//! (`churnlab_route_cache_{hit,miss,evict}`, `churnlab_route_trees_computed`,
//! `churnlab_route_nodes_resolved_total`, a histogram of the eager
//! build's nanoseconds, and one of the heap bytes each tree held when it
//! left the cache, evicted or dropped with the simulator), and so is the
//! set-up:
//! `churnlab_route_timeline_build_nanos` and
//! `churnlab_route_timeline_events{kind="link"|"te"}`. A campaign run on an
//! instrumented platform instruments the simulator it is handed.

use crate::churn::{ChurnConfig, ChurnTimeline};
use crate::compute::{SelectedRoute, TreeScratch};
pub use crate::demand::cached_tree_bytes;
use crate::demand::DemandTree;
use crate::time::{Epoch, EpochMapper};
use churnlab_obs::Registry;
use churnlab_topology::{AsIdx, Asn, FxMap, Topology};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Number of cache stripes (destinations hash across them).
pub const N_SHARDS: usize = 16;

/// Memory budget the automatic capacity targets.
const AUTO_CACHE_BUDGET_BYTES: usize = 256 << 20;

/// Cache capacity (total trees) for a world of this size, when the
/// configured capacity is `0` (automatic): a 256 MB budget divided by
/// the most a tree can hold ([`cached_tree_bytes`]: a tree may still
/// memoize every AS), clamped to `[64, 4096]`. A Small world gets the
/// fixed 4096; the Huge world (at most ~596 KB a tree) lands near 450.
pub fn auto_cache_capacity(n_ases: usize, n_links: usize) -> usize {
    let per_tree = cached_tree_bytes(n_ases, n_links).saturating_add(64);
    (AUTO_CACHE_BUDGET_BYTES / per_tree).clamp(64, 4096)
}

thread_local! {
    static SCRATCH: RefCell<TreeScratch> = RefCell::new(TreeScratch::new());
}

/// Cumulative cache-traffic counters (see [`RoutingSim::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a tree computation.
    pub misses: u64,
    /// Trees evicted to stay within capacity.
    pub evictions: u64,
}

struct Entry {
    tree: Arc<DemandTree>,
    stamp: u64,
}

/// One cache stripe: LRU via a monotone stamp per entry and a lazily
/// compacted recency queue (a promoted entry's old queue positions go
/// stale and are skipped at eviction time).
struct CacheShard {
    map: FxMap<(AsIdx, Epoch), Entry>,
    recency: VecDeque<((AsIdx, Epoch), u64)>,
    next_stamp: u64,
    capacity: usize,
}

impl CacheShard {
    fn new(capacity: usize) -> Self {
        CacheShard {
            map: FxMap::default(),
            recency: VecDeque::new(),
            next_stamp: 0,
            capacity: capacity.max(1),
        }
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    fn get(&mut self, key: &(AsIdx, Epoch)) -> Option<Arc<DemandTree>> {
        let stamp = self.stamp();
        let tree = {
            let e = self.map.get_mut(key)?;
            e.stamp = stamp;
            e.tree.clone()
        };
        self.recency.push_back((*key, stamp));
        self.maybe_compact();
        Some(tree)
    }

    /// Insert (or promote, if racing inserters got here first). Returns
    /// the trees evicted to make room.
    fn put(&mut self, key: (AsIdx, Epoch), tree: Arc<DemandTree>) -> Vec<Arc<DemandTree>> {
        let stamp = self.stamp();
        let mut evicted = Vec::new();
        if let Some(e) = self.map.get_mut(&key) {
            // Same (dest, epoch) ⇒ identical tree; keep the resident one
            // but refresh its recency.
            e.stamp = stamp;
            self.recency.push_back((key, stamp));
            self.maybe_compact();
            return evicted;
        }
        while self.map.len() >= self.capacity {
            let Some((k, s)) = self.recency.pop_front() else {
                break; // every map entry has a queue position, so unreachable
            };
            // Stale position (the entry was promoted since): skip.
            if self.map.get(&k).is_some_and(|e| e.stamp == s) {
                evicted.extend(self.map.remove(&k).map(|e| e.tree));
            }
        }
        self.map.insert(key, Entry { tree, stamp });
        self.recency.push_back((key, stamp));
        self.maybe_compact();
        evicted
    }

    /// Drop stale queue positions once they dominate, bounding the queue
    /// at ~4× capacity without per-promotion O(n) shuffling.
    fn maybe_compact(&mut self) {
        if self.recency.len() > 4 * self.capacity.max(16) {
            let map = &self.map;
            self.recency.retain(|(k, s)| map.get(k).is_some_and(|e| e.stamp == *s));
        }
    }
}

/// Cache-traffic metrics exported through `churnlab-obs`.
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
    shards: Vec<Mutex<CacheShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    metrics: OnceLock<RouteMetrics>,
}

impl<'t> RoutingSim<'t> {
    /// Build a simulator over `topo` with churn per `cfg` and automatic
    /// cache capacity (see [`auto_cache_capacity`]).
    pub fn new(topo: &'t Topology, cfg: &ChurnConfig) -> Self {
        RoutingSim::with_cache_capacity(topo, cfg, 0)
    }

    /// Like [`RoutingSim::new`] with an explicit total tree capacity
    /// (`0` = automatic). Worlds carry their preferred value in
    /// `WorldConfig::tree_cache_capacity`.
    pub fn with_cache_capacity(topo: &'t Topology, cfg: &ChurnConfig, capacity: usize) -> Self {
        let churn = ChurnTimeline::build(topo, cfg);
        let total = if capacity == 0 {
            auto_cache_capacity(topo.n_ases(), topo.n_links())
        } else {
            capacity
        };
        let per_shard = total.div_ceil(N_SHARDS).max(1);
        let shards = (0..N_SHARDS).map(|_| Mutex::new(CacheShard::new(per_shard))).collect();
        RoutingSim {
            topo,
            churn,
            shards,
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
                "Route-tree cache lookups served from a stripe",
                &[],
            ),
            cache_miss: registry.counter(
                "churnlab_route_cache_miss",
                "Route-tree cache lookups that missed",
                &[],
            ),
            cache_evict: registry.counter(
                "churnlab_route_cache_evict",
                "Route trees evicted to stay within capacity",
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
                "Heap bytes a route tree held when it left the cache (evicted or dropped)",
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

    /// Total tree capacity across all cache stripes.
    pub fn cache_capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity).sum()
    }

    /// Heap bytes of the largest tree the cache holds now (0 if none), at
    /// most [`cached_tree_bytes`].
    pub fn largest_cached_tree_bytes(&self) -> usize {
        let mut largest = 0;
        self.each_cached_tree_bytes(|b| largest = largest.max(b));
        largest
    }

    fn each_cached_tree_bytes(&self, mut f: impl FnMut(usize)) {
        for shard in &self.shards {
            shard.lock().map.values().for_each(|e| f(e.tree.heap_bytes()));
        }
    }

    /// Cumulative cache-traffic counters for this simulator.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
        }
    }

    fn shard_of(&self, dest: AsIdx) -> &Mutex<CacheShard> {
        let h = crate::mix64(u64::from(dest.0));
        &self.shards[(h as usize) % N_SHARDS]
    }

    /// The routing tree toward `dest` at `epoch` (cached).
    fn route_tree(&self, dest: AsIdx, epoch: Epoch) -> Arc<DemandTree> {
        let key = (dest, epoch);
        let shard = self.shard_of(dest);
        if let Some(t) = shard.lock().get(&key) {
            self.hits.fetch_add(1, Relaxed);
            if let Some(m) = self.metrics.get() {
                m.cache_hit.inc();
            }
            return t;
        }
        self.misses.fetch_add(1, Relaxed);
        let metrics = self.metrics.get();
        if let Some(m) = metrics {
            m.cache_miss.inc();
        }

        // Build outside the stripe lock, from this thread's link cursor.
        let started = std::time::Instant::now();
        let tree = SCRATCH.with(|s| {
            let TreeScratch { cursor, cone, levels, .. } = &mut *s.borrow_mut();
            let up = cursor.seek(&self.churn, epoch);
            let resolved = metrics.map(|m| m.nodes_resolved.clone());
            DemandTree::build(self.topo, up, dest, cone, levels, resolved)
        });
        if let Some(m) = metrics {
            m.trees_computed.inc();
            m.compute_nanos.observe(started.elapsed().as_nanos() as u64);
        }

        let tree = Arc::new(tree);
        let evicted = shard.lock().put(key, tree.clone());
        if !evicted.is_empty() {
            self.evictions.fetch_add(evicted.len() as u64, Relaxed);
            if let Some(m) = metrics {
                m.cache_evict.add(evicted.len() as u64);
                for t in &evicted {
                    m.tree_bytes.observe(t.heap_bytes() as u64);
                }
            }
        }
        tree
    }

    /// The path from `src` to `dst` at `epoch` into `out`, each AS mapped
    /// by `map`; `false`, leaving `out` empty, if there is none.
    fn path_into<T>(
        &self,
        src: AsIdx,
        dst: AsIdx,
        epoch: Epoch,
        map: impl Fn(AsIdx) -> T,
        out: &mut Vec<T>,
    ) -> bool {
        let salt = |x| self.churn.te_salt(x, epoch);
        self.route_tree(dst, epoch).path_into(self.topo, &salt, src, map, out)
    }

    /// The route `src` selects toward `dst` at `epoch` — class, shortest
    /// valley-free length and tiebroken next hop; `None` if unreachable.
    pub fn route(&self, src: AsIdx, dst: AsIdx, epoch: Epoch) -> Option<SelectedRoute> {
        let churn = &self.churn;
        self.route_tree(dst, epoch).route(self.topo, &|x| churn.te_salt(x, epoch), src)
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
        self.path_into(src, dst, epoch, |x| x, out)
    }

    /// Allocation-free form of [`RoutingSim::asn_path`].
    pub fn asn_path_into(&self, src: AsIdx, dst: AsIdx, epoch: Epoch, out: &mut Vec<Asn>) -> bool {
        self.path_into(src, dst, epoch, |x| self.topo.asn(x), out)
    }
}

/// Trees still cached leave the cache with the simulator.
impl Drop for RoutingSim<'_> {
    fn drop(&mut self) {
        if let Some(m) = self.metrics.get() {
            self.each_cached_tree_bytes(|b| m.tree_bytes.observe(b as u64));
        }
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
    fn capacity_bounds_residency_and_lru_promotes() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        // Tiny cache: N_SHARDS stripes of 1 tree each.
        let sim = RoutingSim::with_cache_capacity(&w.topology, &ChurnConfig::default(), N_SHARDS);
        assert_eq!(sim.cache_capacity(), N_SHARDS);
        let stubs = w.topology.select(|a| a.role == AsRole::Stub);
        let d = stubs[0];
        // Distinct epochs against one dest all land in one stripe of
        // capacity 1 ⇒ each new epoch evicts the previous tree.
        for e in 0..6 {
            sim.route_tree(d, e);
        }
        let stats = sim.cache_stats();
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.evictions, 5);
        // LRU: re-touching the resident epoch keeps it resident.
        sim.route_tree(d, 5);
        assert_eq!(sim.cache_stats().hits, 1);
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
        let largest = {
            // One destination over six epochs lands in one stripe of
            // capacity 1: five evictions, and one tree left to drop.
            let sim = RoutingSim::with_cache_capacity(t, &ChurnConfig::default(), N_SHARDS);
            sim.instrument(&reg);
            assert_eq!(sim.largest_cached_tree_bytes(), 0);
            for e in 0..6 {
                sim.asn_path(stubs[0], stubs[1], e);
            }
            let (count, sum) = observed();
            assert_eq!(count, 5);
            assert!(sum <= 5 * most);
            sim.largest_cached_tree_bytes() as u64
        };
        assert!((1..=most).contains(&largest), "{largest} of at most {most}");
        let (count, sum) = observed();
        assert_eq!(count, 6, "the resident tree is observed when the simulator drops");
        assert!(sum <= 6 * most);
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
