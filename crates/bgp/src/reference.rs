//! The pre-CSR route computation path, retained as the routing layer's
//! one independent oracle.
//!
//! This is the algorithm as it stood before the Internet-scale rework:
//! adjacency in per-AS `Vec<Vec<Adjacency>>` with each entry's kind on
//! it, every working array
//! allocated per call, the provider stage a binary-heap Dijkstra, and the
//! link-state / salt closures dyn-dispatched at every edge visit. It
//! shares no code with `crate::compute`, whose one resolution both the
//! simulator's demand-driven trees and the full [`RouteTree`] run. Tests
//! (`tests/demand_differential.rs`, this module's own) and `bench route`'s
//! differential check assert that a full tree selects what this one
//! selects — same classes, lengths and tiebroken next hops — at every AS.
//! Nothing times it.
//!
//! Do not "improve" this module: its value is being a faithful snapshot.

// The snapshot keeps the original loop shapes, lint-pleasing or not.
#![allow(clippy::needless_range_loop)]

use crate::compute::RouteTree;
use crate::policy::RouteClass;
use churnlab_topology::graph::EdgeKind;
use churnlab_topology::{AsIdx, Asn, LinkId, Topology};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const INF: u16 = u16::MAX;

/// A route as the old representation stored it (unpacked, ~12 bytes in
/// an `Option`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceRoute {
    /// How the route was learned.
    pub class: RouteClass,
    /// Shortest valley-free AS-path length.
    pub len: u16,
    /// Next hop (`None` at the destination).
    pub next: Option<AsIdx>,
}

/// One adjacency entry as the topology stored it before CSR: neighbour,
/// link and kind.
#[derive(Debug, Clone, Copy)]
struct Adjacency {
    peer: AsIdx,
    link: LinkId,
    kind: EdgeKind,
}

/// Pre-built nested adjacency, as the topology stored it before CSR.
#[derive(Debug)]
pub struct ReferenceRouter {
    adj: Vec<Vec<Adjacency>>,
    asns: Vec<Asn>,
}

/// A route tree computed by the reference path.
#[derive(Debug)]
pub struct ReferenceTree {
    /// The destination AS.
    pub dest: AsIdx,
    routes: Vec<Option<ReferenceRoute>>,
}

impl ReferenceRouter {
    /// Copy a topology's adjacency into the old nested layout, each
    /// entry's kind read off the run it sits in.
    pub fn build(topo: &Topology) -> ReferenceRouter {
        let n = topo.n_ases();
        let mut adj = vec![Vec::new(); n];
        let mut asns = Vec::with_capacity(n);
        for x in 0..n {
            let i = AsIdx(x as u32);
            for (kind, run) in topo.edge_runs(i) {
                adj[x].extend(run.iter().map(|a| Adjacency { peer: a.peer, link: a.link, kind }));
            }
            asns.push(topo.asn(i));
        }
        ReferenceRouter { adj, asns }
    }

    /// The old `RouteTree::compute`, verbatim modulo the storage split:
    /// fresh allocations per call, dyn closure call per edge visit.
    pub fn compute(
        &self,
        dest: AsIdx,
        link_up: &dyn Fn(LinkId) -> bool,
        salt: &dyn Fn(usize) -> u64,
    ) -> ReferenceTree {
        let n = self.adj.len();
        let d = dest.usize();

        // Stage 1: customer routes (BFS up provider edges).
        let mut cust = vec![INF; n];
        cust[d] = 0;
        let mut queue: VecDeque<usize> = VecDeque::new();
        queue.push_back(d);
        while let Some(x) = queue.pop_front() {
            let cx = cust[x];
            for adj in &self.adj[x] {
                if adj.kind != EdgeKind::ToProvider || !link_up(adj.link) {
                    continue;
                }
                let p = adj.peer.usize();
                if cust[p] == INF {
                    cust[p] = cx + 1;
                    queue.push_back(p);
                }
            }
        }

        // Stage 2: peer routes (one peering hop off a customer route).
        let mut peer = vec![INF; n];
        for x in 0..n {
            for adj in &self.adj[x] {
                if adj.kind != EdgeKind::ToPeer || !link_up(adj.link) {
                    continue;
                }
                let y = adj.peer.usize();
                if cust[y] != INF {
                    peer[x] = peer[x].min(cust[y] + 1);
                }
            }
        }
        peer[d] = INF;

        let base_len =
            |x: usize, cust: &[u16], peer: &[u16]| if cust[x] != INF { cust[x] } else { peer[x] };

        // Stage 3: provider routes (Dijkstra down customer edges with
        // class-preference advertisement).
        let mut prov = vec![INF; n];
        let mut adv = vec![INF; n];
        let mut heap: BinaryHeap<Reverse<(u16, usize)>> = BinaryHeap::new();
        for x in 0..n {
            let b = base_len(x, &cust, &peer);
            if b != INF {
                adv[x] = b;
                heap.push(Reverse((b, x)));
            }
        }
        while let Some(Reverse((dist, x))) = heap.pop() {
            if dist > adv[x] {
                continue;
            }
            for adj in &self.adj[x] {
                if adj.kind != EdgeKind::ToCustomer || !link_up(adj.link) {
                    continue;
                }
                let c = adj.peer.usize();
                let cand = dist.saturating_add(1);
                if cand < prov[c] {
                    prov[c] = cand;
                    if base_len(c, &cust, &peer) == INF && cand < adv[c] {
                        adv[c] = cand;
                        heap.push(Reverse((cand, c)));
                    }
                }
            }
        }

        // Selection with salted tiebreak.
        let mut routes: Vec<Option<ReferenceRoute>> = vec![None; n];
        for x in 0..n {
            let (class, len) = if cust[x] != INF {
                (RouteClass::Customer, cust[x])
            } else if peer[x] != INF {
                (RouteClass::Peer, peer[x])
            } else if prov[x] != INF {
                (RouteClass::Provider, prov[x])
            } else {
                continue;
            };
            if x == d {
                routes[x] = Some(ReferenceRoute { class: RouteClass::Customer, len: 0, next: None });
                continue;
            }
            let want = len.saturating_sub(1);
            let sx = salt(x);
            let mut best_key = u64::MAX;
            let mut best: Option<AsIdx> = None;
            for adj in &self.adj[x] {
                if !link_up(adj.link) {
                    continue;
                }
                let yi = adj.peer.usize();
                let matches = match class {
                    RouteClass::Customer => adj.kind == EdgeKind::ToCustomer && cust[yi] == want,
                    RouteClass::Peer => adj.kind == EdgeKind::ToPeer && cust[yi] == want,
                    RouteClass::Provider => adj.kind == EdgeKind::ToProvider && adv[yi] != INF,
                };
                if matches {
                    let key = crate::mix64(sx ^ u64::from(self.asns[yi].0));
                    if key < best_key || best.is_none() {
                        best_key = key;
                        best = Some(adj.peer);
                    }
                }
            }
            routes[x] = Some(ReferenceRoute { class, len, next: best });
        }
        ReferenceTree { dest, routes }
    }
}

impl ReferenceTree {
    /// The selected route at `src`, if reachable.
    pub fn route(&self, src: AsIdx) -> Option<&ReferenceRoute> {
        self.routes[src.usize()].as_ref()
    }

    /// Number of ASes that can reach the destination.
    pub fn reachable_count(&self) -> usize {
        self.routes.iter().filter(|r| r.is_some()).count()
    }

    /// True iff this tree selects exactly the same routes as `tree`
    /// (class, shortest length, and tiebroken next hop, at every AS).
    pub fn agrees_with(&self, tree: &RouteTree) -> bool {
        if self.dest != tree.dest {
            return false;
        }
        (0..self.routes.len()).all(|x| {
            let i = AsIdx(x as u32);
            match (self.routes[x], tree.route(i)) {
                (None, None) => true,
                (Some(r), Some(p)) => {
                    r.class == p.class() && r.len == p.len() && r.next == p.next()
                }
                _ => false,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::TreeScratch;
    use churnlab_topology::{generator, AsRole, WorldConfig, WorldScale};

    #[test]
    fn reference_and_csr_trees_agree_exactly() {
        for seed in 0..3 {
            let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, seed));
            let t = &w.topology;
            let rr = ReferenceRouter::build(t);
            let mut scratch = TreeScratch::new();
            let mut tree = RouteTree::empty();
            let dests: Vec<AsIdx> = t.select(|a| a.role == AsRole::Stub);
            for (i, &dest) in dests.iter().take(5).enumerate() {
                // Vary link state and salts to cover failures + tiebreaks.
                let dead = LinkId(((seed as usize * 31 + i * 7) % t.n_links()) as u32);
                let link_up = move |l: LinkId| l != dead;
                let salt = move |x: usize| crate::mix64((seed << 20) ^ (i as u64) << 9 ^ x as u64);
                let ref_tree = rr.compute(dest, &link_up, &salt);
                RouteTree::compute_into(&mut scratch, t, dest, &link_up, &salt, &mut tree);
                assert!(
                    ref_tree.agrees_with(&tree),
                    "divergence at seed {seed} dest {dest:?}"
                );
                assert_eq!(ref_tree.reachable_count(), tree.reachable_count());
            }
        }
    }
}
