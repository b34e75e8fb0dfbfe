//! Demand-driven route trees: what a campaign unit's [`crate::sim::Routes`]
//! and [`crate::sim::RoutingSim`]'s own lookups route through.
//!
//! A study asks for a tree per (destination, epoch) and then reads the
//! routes of the few hundred ASes its vantage points' paths pass through,
//! so a [`DemandTree`] builds eagerly only what is cheap and global —
//! stages 1–2, which touch the destination's provider cone and its peers
//! — and resolves the provider stage and the salted next hop for an AS
//! when a lookup first walks through it, memoizing both in the route
//! table. The resolution is `crate::compute`'s, the one the full
//! [`RouteTree::compute_into`] asks about every AS. Every memoized value
//! is a pure function of (topology, link state, salts, destination), so
//! answers do not depend on query order or on which thread asked; the
//! differential suite holds them equal to the full tree's and to
//! `crate::reference`'s.
//!
//! The memo is paged, because a Huge tree's lookups touch ~2,100 of its
//! 62,169 routes: a `u32` index entry per 8 ASes points into an arena of
//! 8-route blocks (64 bytes), each created by the first write into it;
//! an AS without a block reads as unrouted. There is no hashing and no
//! size threshold: Small and Huge trees are paged alike.
//!
//! [`RouteTree::compute_into`]: crate::compute::RouteTree::compute_into

use crate::compute::{base_stages, walk, Resolver, RouteTable, SelectedRoute};
use churnlab_obs::Counter;
use churnlab_topology::{AsIdx, Topology};
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

/// Routes toward one destination under one link-state snapshot, resolved
/// per AS on first use. Its buffers outlive the snapshot: [`Self::rebuild`]
/// refills them in place for another.
#[derive(Debug)]
pub(crate) struct DemandTree {
    dest: AsIdx,
    /// Link state the tree was built under, one bit per link.
    up: Vec<u64>,
    /// The destination's provider cone in BFS order.
    cone: Vec<u32>,
    /// `cone[levels[l]..levels[l + 1]]` are the members of length `l`.
    levels: Vec<u32>,
    /// The route table as far as lookups have resolved it. Customer and
    /// peer routes are complete from the start, their next hops pending.
    /// An AS with neither stays unrouted until asked about; then it holds
    /// its provider route or is marked as having none. Routes hold
    /// tentative lengths only inside the provider-stage resolution, which
    /// sets them back to unrouted before its one panic (a route longer
    /// than the `u16` length holds), so a lookup that panicked panics
    /// again when asked again.
    routes: PagedRoutes,
    /// The provider stage's worklist.
    closure: Vec<u32>,
}

impl DemandTree {
    /// A tree toward no destination yet, sized for `topo`.
    pub(crate) fn new(topo: &Topology) -> DemandTree {
        let (up, routes) = (vec![0; topo.n_links().div_ceil(64)], PagedRoutes::new(topo.n_ases()));
        let (cone, levels, closure) = (Vec::new(), Vec::new(), Vec::new());
        DemandTree { dest: AsIdx(0), up, cone, levels, routes, closure }
    }

    /// Forget what the tree held and build the eager part toward `dest`
    /// under link state `up`, into the buffers it already has.
    pub(crate) fn rebuild(&mut self, topo: &Topology, up: &[u64], dest: AsIdx) {
        self.dest = dest;
        self.up.copy_from_slice(up);
        self.routes.index.fill(NO_BLOCK);
        self.routes.blocks.clear();
        base_stages(topo, up, dest, &mut self.routes, &mut self.cone, &mut self.levels);
    }

    /// Heap bytes the tree holds: its link bitmap, block index and blocks.
    pub(crate) fn heap_bytes(&self) -> usize {
        let PagedRoutes { index, blocks } = &self.routes;
        let memo = index.capacity() * size_of::<u32>() + blocks.capacity() * size_of::<Block>();
        self.up.capacity() * size_of::<u64>() + memo
    }

    /// The route `src` selects, if it can reach the destination.
    /// `salt(as_index)` is the per-AS tiebreak salt of the tree's epoch and
    /// `resolved` counts the next hops memoized.
    pub(crate) fn route(
        &mut self,
        topo: &Topology,
        salt: &dyn Fn(usize) -> u64,
        resolved: Option<&Counter>,
        src: AsIdx,
    ) -> Option<SelectedRoute> {
        let DemandTree { up, cone, levels, routes, closure, .. } = self;
        let resolver = Resolver { topo, up, cone, levels, resolved };
        resolver.route(routes, closure, salt, src)
    }

    /// The forwarding path from `src` to the destination into `out`, each
    /// AS mapped by `map`, both ends included; `false`, leaving `out`
    /// empty, if there is none (see [`walk`]).
    pub(crate) fn path_into<T>(
        &mut self,
        topo: &Topology,
        salt: &dyn Fn(usize) -> u64,
        resolved: Option<&Counter>,
        src: AsIdx,
        map: impl Fn(AsIdx) -> T,
        out: &mut Vec<T>,
    ) -> bool {
        let DemandTree { dest, up, cone, levels, routes, closure } = self;
        let resolver = Resolver { topo, up, cone, levels, resolved };
        let next_of = |x| resolver.route(routes, closure, salt, x)?.next();
        walk(src, *dest, topo.n_ases(), next_of, map, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::PROVIDER;

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
