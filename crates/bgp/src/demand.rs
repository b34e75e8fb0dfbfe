//! Demand-driven route trees: what [`crate::sim::RoutingSim`] caches.
//!
//! A study asks for a tree per (destination, epoch) and then reads the
//! routes of the few hundred ASes its vantage points' paths pass through,
//! so a [`DemandTree`] builds eagerly only what is cheap and global —
//! stages 1–2, which touch the destination's provider cone and its peers
//! — and resolves the provider stage and the salted next hop for an AS
//! when a lookup first walks through it, memoizing both in the route
//! table. Every memoized value is a pure function of (topology, link
//! state, salts, destination), so answers do not depend on query order
//! or on which thread asked; the differential suite holds them equal to
//! [`RouteTree::compute_into`].
//!
//! The memo is paged, because a Huge tree's lookups touch ~2,100 of its
//! 62,169 routes: a `u32` index entry per 8 ASes points into an arena of
//! 8-route blocks (64 bytes), each created by the first write into it;
//! an AS without a block reads as unrouted. There is no hashing and no
//! size threshold: Small and Huge trees are paged alike.
//!
//! A customer (peer) route of length `len` selects among the AS's live
//! customers (peers) that hold a customer route of length `len − 1`: the
//! cone members of that length with a live provider (peer) edge to the
//! AS. The tree keeps the cone in BFS order — lengths never decrease —
//! with the offset of each length, and scans that run instead of the AS's
//! own list (thousands of edges at a tier-1). It picks what the full tree
//! picks: the key `mix64(salt ^ asn)` is a bijection of the ASN, so the
//! minimum does not depend on which list is scanned or in what order.
//! For a peer route the members' peer lists can be the longer side, but
//! scanning one compares link ends where the AS's own list would cost a
//! memo read per candidate, and measured faster.
//!
//! [`RouteTree::compute_into`]: crate::compute::RouteTree::compute_into

use crate::compute::{
    base_stages, live, select_next, walk, RouteTable, SelectedRoute, CUSTOMER, INF, NEXT_PENDING,
    NO_NEXT, NO_ROUTE, PROVIDER,
};
use churnlab_obs::Counter;
use churnlab_topology::{AsIdx, Topology};
use parking_lot::Mutex;
use std::mem::size_of;

/// ASes per memo block.
const BLOCK: usize = 8;
/// Index entry of a block no write has created: past the end of any arena.
const NO_BLOCK: u32 = u32::MAX;
/// Blocks a memo's arena has room for before it first grows: a Small
/// world's every block, about a quarter of what a Huge tree's lookups write.
const PRESIZED_BLOCKS: usize = 256;

/// The routes of [`BLOCK`] consecutive ASes: a cache line's worth. Not
/// `align(64)`: an over-aligned arena is allocated through
/// `posix_memalign` and never grown in place, which cost `benchmark/`'s
/// `fused-huge` workload ~7 MiB of peak RSS on a 2-core x86-64 VM.
#[derive(Debug, Clone, Copy)]
struct Block([SelectedRoute; BLOCK]);

/// Heap bytes one cached tree holds at most in a world of this size (a
/// block written for every 8 ASes): link bitmap, block index and blocks.
pub fn cached_tree_bytes(n_ases: usize, n_links: usize) -> usize {
    let per_block = size_of::<u32>() + size_of::<Block>();
    n_ases.div_ceil(BLOCK).saturating_mul(per_block).saturating_add(n_links.div_ceil(64) * 8)
}

/// A route table that holds the blocks written into it.
#[derive(Debug)]
struct PagedRoutes {
    /// Arena slot of each block of [`BLOCK`] ASes, or [`NO_BLOCK`].
    index: Vec<u32>,
    blocks: Vec<Block>,
}

impl PagedRoutes {
    fn new(n_ases: usize) -> PagedRoutes {
        let n = n_ases.div_ceil(BLOCK);
        PagedRoutes { index: vec![NO_BLOCK; n], blocks: Vec::with_capacity(n.min(PRESIZED_BLOCKS)) }
    }
}

impl RouteTable for PagedRoutes {
    #[inline]
    fn read(&self, x: u32) -> SelectedRoute {
        let x = x as usize;
        let block = self.blocks.get(self.index[x / BLOCK] as usize);
        block.map_or(SelectedRoute::UNROUTED, |b| b.0[x % BLOCK])
    }

    #[inline]
    fn write(&mut self, x: u32, r: SelectedRoute) {
        let x = x as usize;
        if self.index[x / BLOCK] == NO_BLOCK {
            if self.blocks.len() == self.blocks.capacity() {
                // Double, but never past a block per index entry.
                let room = self.index.len() - self.blocks.len();
                self.blocks.reserve_exact(self.blocks.len().min(room));
            }
            self.index[x / BLOCK] = self.blocks.len() as u32;
            self.blocks.push(Block([SelectedRoute::UNROUTED; BLOCK]));
        }
        self.blocks[self.index[x / BLOCK] as usize].0[x % BLOCK] = r;
    }
}

/// The route table as far as lookups have resolved it.
#[derive(Debug)]
struct Memo {
    /// Customer and peer routes are complete from the start, their next
    /// hops pending. An AS with neither stays unrouted until asked about;
    /// then it holds its provider route or is marked [`NO_ROUTE`].
    routes: PagedRoutes,
    /// Worklist of [`DemandTree::resolve_provider_stage`].
    closure: Vec<u32>,
}

/// Routes toward one destination under one link-state snapshot, resolved
/// per AS on first use.
#[derive(Debug)]
pub(crate) struct DemandTree {
    dest: AsIdx,
    /// Link state the tree was built under, one bit per link.
    up: Vec<u64>,
    /// The destination's provider cone in BFS order.
    cone: Box<[u32]>,
    /// `cone[levels[l]..levels[l + 1]]` are the members of length `l`.
    levels: Box<[u32]>,
    /// The lock does not poison, and need not: routes hold tentative
    /// lengths only inside [`DemandTree::resolve_provider_stage`], which
    /// calls nothing that can panic; the caller's `salt` and `visit` run
    /// between final states.
    memo: Mutex<Memo>,
    /// Counts memoized next hops, when the simulator is instrumented.
    resolved: Option<Counter>,
}

impl DemandTree {
    /// Build the eager part under link state `up`. `cone` is scratch; the
    /// tree keeps a copy of the cone it is left holding.
    pub(crate) fn build(
        topo: &Topology,
        up: &[u64],
        dest: AsIdx,
        cone: &mut Vec<u32>,
        resolved: Option<Counter>,
    ) -> DemandTree {
        let mut routes = PagedRoutes::new(topo.n_ases());
        base_stages(topo, up, dest, &mut routes, cone);
        let depth = cone.last().map_or(0, |&m| usize::from(routes.read(m).len));
        let mut levels = Vec::with_capacity(depth + 2);
        for (i, &m) in cone.iter().enumerate() {
            levels.resize(usize::from(routes.read(m).len) + 1, i as u32);
        }
        levels.push(cone.len() as u32);
        let memo = Mutex::new(Memo { routes, closure: Vec::new() });
        let (cone, levels) = (cone.as_slice().into(), levels.into());
        DemandTree { dest, up: up.to_vec(), cone, levels, memo, resolved }
    }

    /// Heap bytes the tree holds: its link bitmap, block index and blocks.
    pub(crate) fn heap_bytes(&self) -> usize {
        let PagedRoutes { index, blocks } = &self.memo.lock().routes;
        let memo = index.capacity() * size_of::<u32>() + blocks.capacity() * size_of::<Block>();
        self.up.capacity() * size_of::<u64>() + memo
    }

    /// Resolve the provider route of unrouted `x` and of every unrouted
    /// AS above it.
    ///
    /// The bucket descent of the full tree computes the least solution of
    /// `len[m] = 1 + min len[p]` over `m`'s live providers `p`, with
    /// `len[p]` pinned where `p` holds a customer or peer route. A
    /// shortest descent into `m` passes only ASes without one below its
    /// source, all of them above `m`, so the same solution restricted to
    /// `x`'s closure of such live providers is exact — and relaxing down
    /// from `INF` reaches it on any graph, provider cycles included.
    fn resolve_provider_stage(&self, topo: &Topology, memo: &mut Memo, x: AsIdx) {
        let Memo { routes, closure } = memo;
        let tentative = SelectedRoute::pending(INF, PROVIDER);
        closure.clear();
        closure.push(x.0);
        routes.write(x.0, tentative);
        let mut head = 0;
        while let Some(&m) = closure.get(head) {
            head += 1;
            for adj in topo.provider_edges(AsIdx(m)) {
                if routes.read(adj.peer.0) == SelectedRoute::UNROUTED && live(&self.up, adj.link) {
                    routes.write(adj.peer.0, tentative);
                    closure.push(adj.peer.0);
                }
            }
        }
        // Later members sit higher, so sweeping in reverse settles a DAG
        // in one pass; the loop ends on the pass that changes nothing.
        let mut changed = true;
        while changed {
            changed = false;
            for &m in closure.iter().rev() {
                let mut best = INF;
                for adj in topo.provider_edges(AsIdx(m)) {
                    if live(&self.up, adj.link) {
                        best = best.min(routes.read(adj.peer.0).len.saturating_add(1));
                    }
                }
                let r = routes.read(m);
                if best < r.len {
                    routes.write(m, SelectedRoute { len: best, ..r });
                    changed = true;
                }
            }
        }
        for &m in closure.iter() {
            let r = routes.read(m);
            if !r.reachable() {
                routes.write(m, SelectedRoute { class: NO_ROUTE, ..r });
            }
        }
    }

    /// The next hop `x` selects for its customer or peer route `r`: the
    /// least salted key among the cone members of length `r.len − 1` with
    /// a live provider (for a customer route) or peer edge to `x`.
    fn select_in_cone(&self, topo: &Topology, x: AsIdx, r: SelectedRoute, salt: u64) -> u32 {
        let want = usize::from(r.len - 1);
        let (from, to) = (self.levels[want] as usize, self.levels[want + 1] as usize);
        let edges = if r.class == CUSTOMER { Topology::provider_edges } else { Topology::peer_edges };
        let (mut best_key, mut best) = (u64::MAX, NO_NEXT);
        for &y in &self.cone[from..to] {
            if edges(topo, AsIdx(y)).iter().any(|adj| adj.peer == x && live(&self.up, adj.link)) {
                let key = crate::mix64(salt ^ u64::from(topo.asn(AsIdx(y)).0));
                if key < best_key || best == NO_NEXT {
                    (best_key, best) = (key, y);
                }
            }
        }
        debug_assert!(best != NO_NEXT, "finite length implies a candidate");
        best
    }

    fn route_locked(
        &self,
        topo: &Topology,
        salt: &dyn Fn(usize) -> u64,
        memo: &mut Memo,
        src: AsIdx,
    ) -> Option<SelectedRoute> {
        let mut r = memo.routes.read(src.0);
        if r == SelectedRoute::UNROUTED {
            self.resolve_provider_stage(topo, memo, src);
            r = memo.routes.read(src.0);
        }
        if !r.reachable() {
            return None;
        }
        if r.next == NEXT_PENDING {
            let salt = salt(src.usize());
            r.next = if r.class == PROVIDER {
                // Resolving a provider route resolved the whole closure
                // above it, so every live provider's length is final.
                select_next(topo, &self.up, &memo.routes, src, salt)
            } else {
                self.select_in_cone(topo, src, r, salt)
            };
            memo.routes.write(src.0, r);
            if let Some(c) = &self.resolved {
                c.inc();
            }
        }
        Some(r)
    }

    /// The route `src` selects, if it can reach the destination.
    /// `salt(as_index)` is the per-AS tiebreak salt of the tree's epoch.
    pub(crate) fn route(
        &self,
        topo: &Topology,
        salt: &dyn Fn(usize) -> u64,
        src: AsIdx,
    ) -> Option<SelectedRoute> {
        let mut memo = self.memo.lock();
        self.route_locked(topo, salt, &mut memo, src)
    }

    /// Hand every AS on the forwarding path from `src` to the destination
    /// (both ends included) to `visit`; `false` — nothing visited — if the
    /// destination is unreachable from `src`.
    pub(crate) fn walk_from(
        &self,
        topo: &Topology,
        salt: &dyn Fn(usize) -> u64,
        src: AsIdx,
        visit: impl FnMut(AsIdx),
    ) -> bool {
        let mut guard = self.memo.lock();
        let memo = &mut *guard;
        let n = topo.n_ases();
        self.route_locked(topo, salt, memo, src).is_some()
            && walk(src, self.dest, n, |x| self.route_locked(topo, salt, memo, x)?.next(), visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_routes_read_back_every_write_and_hold_at_most_the_bound() {
        for n in [1usize, 7, 8, 9, 324, 5_000] {
            let mut routes = PagedRoutes::new(n);
            assert!((0..n as u32).all(|x| routes.read(x) == SelectedRoute::UNROUTED));
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&x| crate::mix64(u64::from(x)));
            let route = |x: u32| SelectedRoute::pending((x % 1000) as u16, PROVIDER);
            for (i, &x) in order.iter().enumerate() {
                routes.write(x, route(x));
                assert_eq!(routes.read(x), route(x));
                if i == 0 {
                    assert_eq!(routes.blocks.len(), 1, "one write, one block");
                }
            }
            assert!((0..n as u32).all(|x| routes.read(x) == route(x)), "{n} ASes");
            // Every block written: the arena grew to exactly the bound.
            let held = routes.index.capacity() * 4 + routes.blocks.capacity() * 64;
            assert_eq!(held, cached_tree_bytes(n, 0), "{n} ASes");
        }
    }
}
