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
//! [`RouteTree::compute_into`]: crate::compute::RouteTree::compute_into

use crate::compute::{
    base_stages, live, select_next, walk, SelectedRoute, INF, NEXT_PENDING, NO_ROUTE, PROVIDER,
};
use churnlab_obs::Counter;
use churnlab_topology::{AsIdx, Topology};
use parking_lot::Mutex;

/// Heap bytes one cached tree holds in a world of this size: the packed
/// route table and the link bitmap.
pub fn cached_tree_bytes(n_ases: usize, n_links: usize) -> usize {
    let table = n_ases.saturating_mul(std::mem::size_of::<SelectedRoute>());
    table.saturating_add(n_links.div_ceil(64) * 8)
}

/// The route table as far as lookups have resolved it.
#[derive(Debug)]
struct Memo {
    /// Customer and peer routes are complete from the start, their next
    /// hops pending. An AS with neither stays unrouted until asked about;
    /// then it holds its provider route or is marked [`NO_ROUTE`].
    routes: Vec<SelectedRoute>,
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
    /// The lock does not poison, and need not: routes hold tentative
    /// lengths only inside [`DemandTree::resolve_provider_stage`], which
    /// calls nothing that can panic; the caller's `salt` and `visit` run
    /// between final states.
    memo: Mutex<Memo>,
    /// Counts memoized next hops, when the simulator is instrumented.
    resolved: Option<Counter>,
}

impl DemandTree {
    /// Build the eager part under link state `up`. `cone` is scratch.
    pub(crate) fn build(
        topo: &Topology,
        up: &[u64],
        dest: AsIdx,
        cone: &mut Vec<u32>,
        resolved: Option<Counter>,
    ) -> DemandTree {
        assert!(topo.is_frozen(), "route trees require a frozen (CSR) topology");
        let mut routes = Vec::new();
        base_stages(topo, up, dest, &mut routes, cone);
        let memo = Mutex::new(Memo { routes, closure: Vec::new() });
        DemandTree { dest, up: up.to_vec(), memo, resolved }
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
        routes[x.usize()] = tentative;
        let mut head = 0;
        while let Some(&m) = closure.get(head) {
            head += 1;
            for adj in topo.provider_edges(AsIdx(m)) {
                let p = &mut routes[adj.peer.usize()];
                if *p == SelectedRoute::UNROUTED && live(&self.up, adj.link) {
                    *p = tentative;
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
                        best = best.min(routes[adj.peer.usize()].len.saturating_add(1));
                    }
                }
                if best < routes[m as usize].len {
                    routes[m as usize].len = best;
                    changed = true;
                }
            }
        }
        for &m in closure.iter() {
            if !routes[m as usize].reachable() {
                routes[m as usize].class = NO_ROUTE;
            }
        }
    }

    fn route_locked(
        &self,
        topo: &Topology,
        salt: &dyn Fn(usize) -> u64,
        memo: &mut Memo,
        src: AsIdx,
    ) -> Option<SelectedRoute> {
        let x = src.usize();
        if memo.routes[x] == SelectedRoute::UNROUTED {
            self.resolve_provider_stage(topo, memo, src);
        }
        if !memo.routes[x].reachable() {
            return None;
        }
        if memo.routes[x].next == NEXT_PENDING {
            // Resolving a provider route resolved the whole closure above
            // it, so every live provider's length is final where read.
            memo.routes[x].next = select_next(topo, &self.up, &memo.routes, src, salt(x));
            if let Some(c) = &self.resolved {
                c.inc();
            }
        }
        Some(memo.routes[x])
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
        let n = memo.routes.len();
        self.route_locked(topo, salt, memo, src).is_some()
            && walk(src, self.dest, n, |x| self.route_locked(topo, salt, memo, x)?.next(), visit)
    }
}
