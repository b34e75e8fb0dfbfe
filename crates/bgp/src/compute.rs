//! Per-destination route computation under Gao–Rexford policy.
//!
//! For one destination AS `d` and one snapshot of link state, computes
//! every AS's selected route to `d` via the standard three-stage
//! valley-free propagation:
//!
//! 1. **customer routes** — BFS from `d` along customer→provider edges
//!    (routes learned from customers propagate everywhere, including
//!    further up);
//! 2. **peer routes** — one peering hop off any AS holding a customer
//!    route (peer-learned routes are only exported to customers, so at
//!    most one peer edge appears, and only at the top of the path);
//! 3. **provider routes** — Dijkstra descending customer edges, where each
//!    AS advertises its *selected* route (class preference first: an AS
//!    with a customer route advertises that one even when a shorter
//!    provider route exists).
//!
//! Selection: customer > peer > provider, then shortest AS path, then a
//! **salted tiebreak** over the next-hop ASN. The salt comes from the
//! churn timeline's TE-shift process, so equal-cost choices drift over
//! time exactly like hot-potato routing does.
//!
//! ## Internet-scale layout
//!
//! At CAIDA scale (~80k ASes, ~700k edges) a study asks for a tree per
//! (destination, epoch) but reads a few hundred of its routes, so the
//! simulator caches demand-driven trees (`crate::demand`) — stages 1–2 built
//! eagerly from the destination's provider cone, the provider stage and
//! next hops resolved for the ASes a lookup walks through. This module
//! holds what both tree forms share (the packed route, stages 1–2,
//! provider next-hop selection, the path walk) and the full
//! closure-driven tree, which benches and the differential suites hold
//! the demand-driven one against:
//!
//! * [`SelectedRoute`] is packed to 8 bytes (`u32` next hop, `u16`
//!   length, class byte) and the route table doubles as every stage's
//!   working state — an AS's advertised length *is* its route's length.
//!   The stages read and write it through `RouteTable`, so one algorithm
//!   runs over two kinds of storage: the full tree's dense slice — the
//!   only ~500 KB table at Huge, one cache line per AS a stage touches —
//!   and a demand tree's paged memo, which holds only the 8-AS blocks its
//!   lookups wrote;
//! * what else a tree needs lives in a caller-owned [`TreeScratch`] that
//!   [`RouteTree::compute_into`] reuses — after the first tree no
//!   allocation happens as long as the world doesn't grow;
//! * the link-state closure is sampled **once per link** into a bitmap
//!   and the salt closure **once per routed AS**, instead of a
//!   dyn-dispatched binary search per edge visit;
//! * the peer stage is pushed from the provider cone over its members'
//!   peer edges — peering adjacency is symmetric on one `LinkId`, so this
//!   equals every AS pulling from its peers at a fraction of the visits.

use crate::churn::LinkCursor;
use crate::policy::RouteClass;
use churnlab_topology::{AsIdx, Asn, LinkId, Topology};

pub(crate) const INF: u16 = u16::MAX;
pub(crate) const NO_NEXT: u32 = u32::MAX;
/// `next` of a routed AS whose next hop is not selected yet.
pub(crate) const NEXT_PENDING: u32 = NO_NEXT - 1;

pub(crate) const CUSTOMER: u8 = 0;
const PEER: u8 = 1;
pub(crate) const PROVIDER: u8 = 2;
/// `class` of an AS a demand-driven tree resolved to have no route at all
/// (its `len` stays [`INF`], like an AS nobody asked about).
pub(crate) const NO_ROUTE: u8 = 3;

/// The route an AS selected toward the tree's destination, packed into
/// 8 bytes. Unreachable nodes hold a sentinel (`len() == u16::MAX`
/// internally) and are surfaced as `None` by [`RouteTree::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectedRoute {
    pub(crate) next: u32,
    pub(crate) len: u16,
    pub(crate) class: u8,
}

const _: () = assert!(std::mem::size_of::<SelectedRoute>() == 8);

impl SelectedRoute {
    /// No route known (yet).
    pub(crate) const UNROUTED: SelectedRoute = SelectedRoute::pending(INF, CUSTOMER);

    /// A route of `class` and length `len` whose next hop is not selected
    /// yet.
    pub(crate) const fn pending(len: u16, class: u8) -> SelectedRoute {
        SelectedRoute { next: NEXT_PENDING, len, class }
    }

    #[inline]
    pub(crate) fn reachable(self) -> bool {
        self.len != INF
    }

    /// Holds a customer route, i.e. sits in the destination's provider
    /// cone.
    #[inline]
    fn in_cone(self) -> bool {
        self.len != INF && self.class == CUSTOMER
    }

    /// How the route was learned.
    #[inline]
    pub fn class(self) -> RouteClass {
        match self.class {
            CUSTOMER => RouteClass::Customer,
            PEER => RouteClass::Peer,
            _ => RouteClass::Provider,
        }
    }

    /// Shortest valley-free AS-path length (a lower bound; the actual
    /// forwarding path through preference-selected providers may be
    /// longer — see [`RouteTree::path_from`]).
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u16 {
        self.len
    }

    /// Next hop (`None` only at the destination).
    #[inline]
    pub fn next(self) -> Option<AsIdx> {
        (self.next != NO_NEXT).then_some(AsIdx(self.next))
    }
}

/// Reusable per-thread working state for tree computation.
///
/// Holds the provider-cone worklist, the bucket queue and the link-state
/// bitmap of [`RouteTree::compute_into`], plus the link-state cursor the
/// simulator's demand-driven trees are built from. All buffers grow to
/// the world's size on first use and are then recycled: in steady state
/// a full tree computation performs **zero** heap allocations (the
/// `route_bench` binary asserts this with a counting allocator).
#[derive(Debug, Default)]
pub struct TreeScratch {
    /// The destination's provider cone in BFS order (stage 1's queue,
    /// stage 2's source set).
    pub(crate) cone: Vec<u32>,
    /// Dial's bucket queue for the provider descent: every edge has unit
    /// weight, so a per-length bucket gives O(1) push/pop where a binary
    /// heap pays a log factor per operation.
    buckets: Vec<Vec<u32>>,
    /// One bit per link: up (1) or down (0) under the closure snapshot.
    up: Vec<u64>,
    /// Link state at some epoch of some churn timeline, moved by deltas.
    pub(crate) cursor: LinkCursor,
}

impl TreeScratch {
    /// Empty scratch; buffers are sized lazily by the first compute.
    pub fn new() -> Self {
        TreeScratch::default()
    }
}

#[inline]
pub(crate) fn live(up: &[u64], l: LinkId) -> bool {
    let i = l.0 as usize;
    (up[i >> 6] >> (i & 63)) & 1 == 1
}

/// Per-AS route storage the stages read and write.
pub(crate) trait RouteTable {
    /// The route of AS `x`; [`SelectedRoute::UNROUTED`] until written.
    fn read(&self, x: u32) -> SelectedRoute;
    /// Overwrite the route of AS `x`.
    fn write(&mut self, x: u32, r: SelectedRoute);
}

impl RouteTable for [SelectedRoute] {
    fn read(&self, x: u32) -> SelectedRoute {
        self[x as usize]
    }

    fn write(&mut self, x: u32, r: SelectedRoute) {
        self[x as usize] = r;
    }
}

/// Stages 1–2 under the link state `up`, into `routes`, which must read
/// [`SelectedRoute::UNROUTED`] everywhere: customer routes by BFS from
/// `dest` up live provider edges, then peer routes one live peering hop
/// off every AS holding a customer route. Next hops are left pending (the
/// destination has none). `cone` is left holding the customer-routed ASes
/// in BFS order, so their lengths never decrease along it.
pub(crate) fn base_stages<T: RouteTable + ?Sized>(
    topo: &Topology,
    up: &[u64],
    dest: AsIdx,
    routes: &mut T,
    cone: &mut Vec<u32>,
) {
    routes.write(dest.0, SelectedRoute { next: NO_NEXT, len: 0, class: CUSTOMER });
    cone.clear();
    cone.push(dest.0);
    let mut head = 0;
    while let Some(&x) = cone.get(head) {
        head += 1;
        let len = routes.read(x).len + 1;
        for adj in topo.provider_edges(AsIdx(x)) {
            if !routes.read(adj.peer.0).reachable() && live(up, adj.link) {
                routes.write(adj.peer.0, SelectedRoute::pending(len, CUSTOMER));
                cone.push(adj.peer.0);
            }
        }
    }
    for &x in cone.iter() {
        let len = routes.read(x).len + 1;
        for adj in topo.peer_edges(AsIdx(x)) {
            let y = routes.read(adj.peer.0);
            if !y.in_cone() && len < y.len && live(up, adj.link) {
                routes.write(adj.peer.0, SelectedRoute::pending(len, PEER));
            }
        }
    }
}

/// The next hop `x` selects for the route `routes[x]`, whose class and
/// length are final, as is the length of every live provider of `x` if
/// that class is provider.
///
/// Within the customer and peer classes, selection follows shortest AS
/// path (intra-class economics are equal, so length decides). Among
/// *providers*, real networks choose by local preference — a multihomed
/// stub prefers one upstream wholesale and re-prefers under traffic
/// engineering — so every provider holding any route is a candidate and
/// the salted hash decides. This is what lets TE shifts move a stub's
/// egress (and with it, the whole tail of the path), producing the
/// egress-level churn the paper observes.
pub(crate) fn select_next<T: RouteTable + ?Sized>(
    topo: &Topology,
    up: &[u64],
    routes: &T,
    x: AsIdx,
    salt: u64,
) -> u32 {
    let SelectedRoute { len, class, .. } = routes.read(x.0);
    let want = len.saturating_sub(1);
    // Candidates live entirely in the slice matching the selected class,
    // so only that kind's run is scanned.
    let candidates = match class {
        CUSTOMER => topo.customer_edges(x),
        PEER => topo.peer_edges(x),
        _ => topo.provider_edges(x),
    };
    let mut best_key = u64::MAX;
    let mut best: u32 = NO_NEXT;
    for adj in candidates {
        let y = routes.read(adj.peer.0);
        let matches = if class == PROVIDER { y.reachable() } else { y.in_cone() && y.len == want };
        if matches && live(up, adj.link) {
            let key = crate::mix64(salt ^ u64::from(topo.asn(adj.peer).0));
            if key < best_key || best == NO_NEXT {
                best_key = key;
                best = adj.peer.0;
            }
        }
    }
    debug_assert!(best != NO_NEXT, "finite length implies a candidate");
    best
}

/// Follow next hops from `src` until `dest`, handing every AS on the way
/// (both ends included) to `visit`. `false` if some hop has no next hop.
pub(crate) fn walk(
    src: AsIdx,
    dest: AsIdx,
    n_ases: usize,
    mut next_of: impl FnMut(AsIdx) -> Option<AsIdx>,
    mut visit: impl FnMut(AsIdx),
) -> bool {
    visit(src);
    let mut cur = src;
    let mut hops = 0usize;
    while cur != dest {
        let Some(next) = next_of(cur) else {
            return false;
        };
        visit(next);
        cur = next;
        hops += 1;
        if hops > n_ases {
            unreachable!(
                "forwarding loop: the up-phase follows the acyclic provider \
                 DAG and the down-phase strictly decreases customer length"
            );
        }
    }
    true
}

/// All selected routes toward one destination under one link-state/salt
/// snapshot.
#[derive(Debug, Clone)]
pub struct RouteTree {
    /// The destination AS.
    pub dest: AsIdx,
    routes: Vec<SelectedRoute>,
}

impl RouteTree {
    /// An empty tree to [`compute_into`](RouteTree::compute_into). The
    /// placeholder destination is overwritten by the first compute.
    pub fn empty() -> RouteTree {
        RouteTree { dest: AsIdx(0), routes: Vec::new() }
    }

    /// Compute the tree (convenience wrapper over
    /// [`RouteTree::compute_into`] with throwaway scratch).
    ///
    /// * `link_up(link)` — live link state (from the churn timeline).
    /// * `salt(as_index)` — per-AS tiebreak salt (from the TE process).
    pub fn compute(
        topo: &Topology,
        dest: AsIdx,
        link_up: &dyn Fn(LinkId) -> bool,
        salt: &dyn Fn(usize) -> u64,
    ) -> RouteTree {
        let mut scratch = TreeScratch::new();
        let mut tree = RouteTree::empty();
        RouteTree::compute_into(&mut scratch, topo, dest, link_up, salt, &mut tree);
        tree
    }

    /// Compute the tree into `out`, reusing `scratch` across calls.
    ///
    /// `link_up` is sampled exactly once per link (into a scratch-owned
    /// bitmap) and `salt` once per AS that has a next hop to choose, so
    /// closure cost is linear in the world, not in edge visits.
    /// Allocation-free once `scratch` and `out` have seen the world's
    /// size.
    pub fn compute_into(
        scratch: &mut TreeScratch,
        topo: &Topology,
        dest: AsIdx,
        link_up: &dyn Fn(LinkId) -> bool,
        salt: &dyn Fn(usize) -> u64,
        out: &mut RouteTree,
    ) {
        let TreeScratch { cone, buckets, up, .. } = scratch;

        // --- Snapshot the link-state closure into a bitmap. ---------------
        let n_links = topo.n_links();
        up.clear();
        up.resize(n_links.div_ceil(64), 0);
        for l in 0..n_links {
            if link_up(LinkId(l as u32)) {
                up[l >> 6] |= 1u64 << (l & 63);
            }
        }

        // --- Stages 1–2: customer routes (BFS up), one peering hop. -------
        out.dest = dest;
        let routes = &mut out.routes;
        routes.clear();
        routes.resize(topo.n_ases(), SelectedRoute::UNROUTED);
        base_stages(topo, up, dest, routes.as_mut_slice(), cone);

        // --- Stage 3: provider routes (Dial's bucket descent). ------------
        // Every edge has unit weight, so Dijkstra degenerates to processing
        // advertised lengths in increasing order through per-length buckets
        // (O(1) push/pop instead of a heap's log factor). All buckets drain
        // to empty by the end, so no cross-tree cleanup is needed.
        debug_assert!(buckets.iter().all(Vec::is_empty));
        let push = |buckets: &mut Vec<Vec<u32>>, len: u16, x: u32| {
            let len = len as usize;
            if buckets.len() <= len {
                buckets.resize_with(len + 1, Vec::new);
            }
            buckets[len].push(x);
        };
        for (x, r) in routes.iter().enumerate() {
            if r.reachable() {
                push(buckets, r.len, x as u32);
            }
        }
        let mut dist: u16 = 0;
        while (dist as usize) < buckets.len() {
            while let Some(x) = buckets[dist as usize].pop() {
                if dist > routes[x as usize].len {
                    continue; // stale entry, improved since queued
                }
                let len = dist + 1;
                for adj in topo.customer_edges(AsIdx(x)) {
                    // Class preference: a node with a customer or peer
                    // route keeps advertising it; only the others take,
                    // and advertise onward, provider routes.
                    let c = &mut routes[adj.peer.usize()];
                    if (!c.reachable() || c.class == PROVIDER) && len < c.len && live(up, adj.link)
                    {
                        *c = SelectedRoute::pending(len, PROVIDER);
                        push(buckets, len, adj.peer.0);
                    }
                }
            }
            dist += 1;
        }

        // --- Tiebroken next hops. `len` is the shortest valley-free length
        // (a lower bound); the forwarding path through a
        // preference-selected provider may be longer. `path_from` reports
        // the real path.
        for x in 0..routes.len() {
            if routes[x].next == NEXT_PENDING && routes[x].reachable() {
                routes[x].next = select_next(topo, up, routes.as_slice(), AsIdx(x as u32), salt(x));
            }
        }
    }

    /// The selected route at `src`, if `src` can reach the destination.
    pub fn route(&self, src: AsIdx) -> Option<SelectedRoute> {
        let r = self.routes[src.usize()];
        r.reachable().then_some(r)
    }

    /// [`walk`] this tree from `src`; `false` (nothing visited) if the
    /// destination is unreachable from `src`.
    fn walk_from(&self, src: AsIdx, visit: impl FnMut(AsIdx)) -> bool {
        self.routes[src.usize()].reachable()
            && walk(src, self.dest, self.routes.len(), |x| self.routes[x.usize()].next(), visit)
    }

    /// Append the AS-level forwarding path from `src` to the destination
    /// (inclusive of both ends) onto `out` after clearing it. Returns
    /// `false` — leaving `out` empty — if the destination is unreachable
    /// from `src`. The allocation-free form of [`RouteTree::path_from`].
    pub fn path_into(&self, src: AsIdx, out: &mut Vec<AsIdx>) -> bool {
        out.clear();
        self.walk_from(src, |x| out.push(x))
    }

    /// Like [`RouteTree::path_into`], mapped to ASNs.
    pub fn asn_path_into(&self, topo: &Topology, src: AsIdx, out: &mut Vec<Asn>) -> bool {
        out.clear();
        self.walk_from(src, |x| out.push(topo.asn(x)))
    }

    /// The AS-level forwarding path from `src` to the destination,
    /// inclusive of both ends. `None` if unreachable.
    pub fn path_from(&self, src: AsIdx) -> Option<Vec<AsIdx>> {
        let mut path = Vec::new();
        self.path_into(src, &mut path).then_some(path)
    }

    /// Same as [`RouteTree::path_from`], returned as ASNs.
    pub fn asn_path_from(&self, topo: &Topology, src: AsIdx) -> Option<Vec<Asn>> {
        self.path_from(src).map(|p| p.into_iter().map(|i| topo.asn(i)).collect())
    }

    /// Number of ASes that can reach the destination.
    pub fn reachable_count(&self) -> usize {
        self.routes.iter().filter(|r| r.reachable()).count()
    }

    /// Bytes held by the route table (8 per AS).
    pub fn route_bytes(&self) -> usize {
        self.routes.len() * std::mem::size_of::<SelectedRoute>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_topology::asys::{AsClass, AsInfo, AsRole};
    use churnlab_topology::graph::EdgeKind;
    use churnlab_topology::geo::{countries, CountryCode};
    use churnlab_topology::links::{Link, LinkStability};
    use churnlab_topology::{generator, WorldConfig, WorldScale};

    fn mk(asn: u32, role: AsRole) -> AsInfo {
        AsInfo {
            asn: Asn(asn),
            name: format!("AS{asn}"),
            country: CountryCode::new("US"),
            class: AsClass::TransitAccess,
            role,
        }
    }

    /// Diamond: stub 5 multihomed to nationals 2 and 3, both under tier-1 1;
    /// destination stub 6 under national 3. Also national 2 peers with 3.
    fn diamond() -> Topology {
        let mut t = Topology::new(countries(3));
        t.add_as(mk(1, AsRole::Tier1)).unwrap();
        t.add_as(mk(2, AsRole::NationalTransit)).unwrap();
        t.add_as(mk(3, AsRole::NationalTransit)).unwrap();
        t.add_as(mk(5, AsRole::Stub)).unwrap();
        t.add_as(mk(6, AsRole::Stub)).unwrap();
        let s = LinkStability::stable;
        t.add_link(Link::transit(Asn(2), Asn(1), s())).unwrap();
        t.add_link(Link::transit(Asn(3), Asn(1), s())).unwrap();
        t.add_link(Link::transit(Asn(5), Asn(2), s())).unwrap();
        t.add_link(Link::transit(Asn(5), Asn(3), s())).unwrap();
        t.add_link(Link::transit(Asn(6), Asn(3), s())).unwrap();
        t.add_link(Link::peering(Asn(2), Asn(3), s())).unwrap();
        t.freeze();
        t
    }

    fn all_up(_: LinkId) -> bool {
        true
    }

    fn no_salt(_: usize) -> u64 {
        0
    }

    #[test]
    fn selected_route_is_packed() {
        assert_eq!(std::mem::size_of::<SelectedRoute>(), 8);
        assert_eq!(std::mem::size_of::<Option<SelectedRoute>>(), 8 + 4); // why we sentinel
    }

    #[test]
    fn provider_selection_is_preference_based() {
        let t = diamond();
        let dest = t.idx(Asn(6)).unwrap();
        let src = t.idx(Asn(5)).unwrap();
        // Among providers, local preference (the salt) decides — both of
        // 5's uplinks are legitimate egresses, and across salts both must
        // appear; every resulting path ends at 6 without loops.
        let mut firsts = std::collections::HashSet::new();
        for sv in 0..16u64 {
            let salt = move |x: usize| crate::mix64(sv ^ (x as u64) << 8);
            let tree = RouteTree::compute(&t, dest, &all_up, &salt);
            let path = tree.asn_path_from(&t, src).unwrap();
            assert_eq!(*path.last().unwrap(), Asn(6));
            let mut seen = std::collections::HashSet::new();
            assert!(path.iter().all(|a| seen.insert(*a)), "loop in {path:?}");
            firsts.insert(path[1]);
        }
        assert!(
            firsts.contains(&Asn(2)) && firsts.contains(&Asn(3)),
            "both egresses should be exercised across salts: {firsts:?}"
        );
    }

    #[test]
    fn customer_route_preferred_over_shorter_paths() {
        // Destination = tier-1's customer cone: from AS 3's perspective,
        // reaching 6 is a customer route; from 2, it must be peer (2–3) or
        // up through 1 — peer preferred over provider by class even though
        // both are length 2 here.
        let t = diamond();
        let dest = t.idx(Asn(6)).unwrap();
        let tree = RouteTree::compute(&t, dest, &all_up, &no_salt);
        let r2 = tree.route(t.idx(Asn(2)).unwrap()).unwrap();
        assert_eq!(r2.class(), RouteClass::Peer, "peer (2-3-6) must beat provider (2-1-3-6)");
        assert_eq!(r2.len(), 2);
        let r1 = tree.route(t.idx(Asn(1)).unwrap()).unwrap();
        assert_eq!(r1.class(), RouteClass::Customer, "1 reaches 6 down its customer cone");
    }

    #[test]
    fn dest_route_is_zero_len() {
        let t = diamond();
        let dest = t.idx(Asn(6)).unwrap();
        let tree = RouteTree::compute(&t, dest, &all_up, &no_salt);
        let r = tree.route(dest).unwrap();
        assert_eq!(r.len(), 0);
        assert!(r.next().is_none());
        assert_eq!(tree.path_from(dest).unwrap(), vec![dest]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_compute() {
        // One scratch + one output tree across many (dest, link-state)
        // combinations must agree exactly with throwaway computes.
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 5));
        let t = &w.topology;
        let mut scratch = TreeScratch::new();
        let mut tree = RouteTree::empty();
        for (i, dest) in t.select(|a| a.role == AsRole::Stub).into_iter().take(6).enumerate() {
            let dead = LinkId((i % t.n_links()) as u32);
            let link_up = move |l: LinkId| l != dead;
            let salt = move |x: usize| crate::mix64((i as u64) << 17 ^ x as u64);
            RouteTree::compute_into(&mut scratch, t, dest, &link_up, &salt, &mut tree);
            let fresh = RouteTree::compute(t, dest, &link_up, &salt);
            assert_eq!(tree.dest, fresh.dest);
            for x in 0..t.n_ases() {
                assert_eq!(
                    tree.route(AsIdx(x as u32)),
                    fresh.route(AsIdx(x as u32)),
                    "route mismatch at {x} for dest {dest:?}"
                );
            }
        }
    }

    #[test]
    fn path_into_matches_path_from_and_reuses_buffer() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 8));
        let t = &w.topology;
        let dest = t.select(|a| a.role == AsRole::Stub)[0];
        let tree = RouteTree::compute(t, dest, &all_up, &no_salt);
        let mut buf = Vec::new();
        let mut asn_buf = Vec::new();
        for x in 0..t.n_ases() {
            let src = AsIdx(x as u32);
            let got = tree.path_into(src, &mut buf);
            assert_eq!(got.then(|| buf.clone()), tree.path_from(src));
            let got_asn = tree.asn_path_into(t, src, &mut asn_buf);
            assert_eq!(got_asn.then(|| asn_buf.clone()), tree.asn_path_from(t, src));
        }
    }

    #[test]
    fn link_failure_reroutes() {
        let t = diamond();
        let dest = t.idx(Asn(6)).unwrap();
        let src = t.idx(Asn(5)).unwrap();
        // Find the 5→3 link and kill it.
        let dead: Vec<LinkId> = t
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.key() == (Asn(3), Asn(5)))
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        assert_eq!(dead.len(), 1);
        let down = dead[0];
        let link_up = move |l: LinkId| l != down;
        let tree = RouteTree::compute(&t, dest, &link_up, &no_salt);
        let path = tree.asn_path_from(&t, src).unwrap();
        // Must route around: 5 → 2 → 3 → 6 (peer at the top).
        assert_eq!(path, vec![Asn(5), Asn(2), Asn(3), Asn(6)]);
    }

    #[test]
    fn total_isolation_returns_none() {
        let t = diamond();
        let dest = t.idx(Asn(6)).unwrap();
        let src = t.idx(Asn(5)).unwrap();
        // Kill both of 5's uplinks.
        let dead: Vec<LinkId> = t
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a == Asn(5) || l.b == Asn(5))
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        let link_up = move |l: LinkId| !dead.contains(&l);
        let tree = RouteTree::compute(&t, dest, &link_up, &no_salt);
        assert!(tree.path_from(src).is_none());
        assert!(tree.route(src).is_none());
        let mut buf = vec![AsIdx(7)];
        assert!(!tree.path_into(src, &mut buf));
        assert!(buf.is_empty(), "failed path_into must leave the buffer empty");
    }

    #[test]
    fn salt_flips_equal_cost_choice() {
        // Make 5 dual-homed to 2 and 3 with equal-length routes to dest 7
        // hosted under tier-1 1: 5→2→1→? … need symmetric shape. Add dest
        // under 1 directly.
        let mut t = diamond();
        t.add_as(mk(7, AsRole::Stub)).unwrap();
        t.add_link(Link::transit(Asn(7), Asn(1), LinkStability::stable())).unwrap();
        t.freeze();
        let dest = t.idx(Asn(7)).unwrap();
        let src = t.idx(Asn(5)).unwrap();
        // 5→2→1→7 and 5→3→1→7 are both provider routes of length 3.
        let mut seen = std::collections::HashSet::new();
        for s in 0..32u64 {
            let salt = move |x: usize| crate::mix64(s ^ x as u64);
            let tree = RouteTree::compute(&t, dest, &all_up, &salt);
            let path = tree.asn_path_from(&t, src).unwrap();
            assert_eq!(path.len(), 4);
            seen.insert(path[1]);
        }
        assert_eq!(
            seen.len(),
            2,
            "32 salts should exercise both equal-cost next hops, saw {seen:?}"
        );
    }

    #[test]
    fn all_paths_valley_free_on_generated_worlds() {
        use crate::policy::{is_valley_free, StepKind};
        for seed in 0..4 {
            let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, seed));
            let t = &w.topology;
            let dests: Vec<AsIdx> = t.select(|a| a.role == AsRole::Stub);
            for &dest in dests.iter().take(4) {
                let tree = RouteTree::compute(t, dest, &all_up, &no_salt);
                for src in 0..t.n_ases() {
                    let src = AsIdx(src as u32);
                    if let Some(path) = tree.path_from(src) {
                        let steps: Vec<StepKind> = path
                            .windows(2)
                            .map(|w2| {
                                let adj = t
                                    .neighbors(w2[0])
                                    .iter()
                                    .find(|a| a.peer == w2[1])
                                    .expect("path uses real edges");
                                match adj.kind {
                                    EdgeKind::ToProvider => StepKind::Up,
                                    EdgeKind::ToPeer => StepKind::Peer,
                                    EdgeKind::ToCustomer => StepKind::Down,
                                }
                            })
                            .collect();
                        assert!(
                            is_valley_free(&steps),
                            "valley in path {:?} (seed {seed})",
                            tree.asn_path_from(t, src)
                        );
                    }
                }
            }
        }
    }

    /// The Huge preset shrunk ~40x so the preferential-attachment family
    /// is exercised by debug-mode tests; full Huge runs in the release
    /// bench/CI smoke.
    fn mini_pa(seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig::preset(WorldScale::Huge, seed);
        cfg.n_countries = 20;
        cfg.n_tier1 = 5;
        cfg.pa_transits = 150;
        cfg.pa_stubs = 1_200;
        cfg.pa_peering_links = 2_500;
        cfg.hosting_orgs = 6;
        cfg
    }

    #[test]
    fn pa_sampled_paths_valley_free_and_loop_free() {
        use crate::policy::{is_valley_free, StepKind};
        // Property over the Huge (PA) world family: for random seeds,
        // destinations, salts, and link failures, every returned path is
        // valley-free and visits no AS twice.
        for seed in 0..3u64 {
            let w = generator::generate(&mini_pa(seed));
            let t = &w.topology;
            let stubs = t.select(|a| a.role == AsRole::Stub);
            let mut scratch = TreeScratch::new();
            let mut tree = RouteTree::empty();
            for case in 0..6u64 {
                let dest = stubs[(crate::mix64(seed ^ case << 3) % stubs.len() as u64) as usize];
                let dead = LinkId(
                    (crate::mix64(seed << 7 ^ case) % t.n_links() as u64) as u32,
                );
                let link_up = move |l: LinkId| l != dead;
                let salt = move |x: usize| crate::mix64(seed << 13 ^ case << 40 ^ x as u64);
                RouteTree::compute_into(&mut scratch, t, dest, &link_up, &salt, &mut tree);
                let mut buf = Vec::new();
                for probe in 0..200u64 {
                    let src =
                        AsIdx((crate::mix64(case ^ probe << 17) % t.n_ases() as u64) as u32);
                    if !tree.path_into(src, &mut buf) {
                        continue;
                    }
                    let mut seen = std::collections::HashSet::new();
                    assert!(buf.iter().all(|a| seen.insert(*a)), "loop in {buf:?}");
                    let steps: Vec<StepKind> = buf
                        .windows(2)
                        .map(|w2| {
                            let adj = t
                                .neighbors(w2[0])
                                .iter()
                                .find(|a| a.peer == w2[1])
                                .expect("path uses real edges");
                            assert!(adj.link != dead, "path crossed the failed link");
                            match adj.kind {
                                EdgeKind::ToProvider => StepKind::Up,
                                EdgeKind::ToPeer => StepKind::Peer,
                                EdgeKind::ToCustomer => StepKind::Down,
                            }
                        })
                        .collect();
                    assert!(
                        is_valley_free(&steps),
                        "valley in path (seed {seed}, case {case}, src {src:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn everyone_reachable_when_all_links_up() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 9));
        let t = &w.topology;
        let dest = t.select(|a| a.role == AsRole::Stub)[0];
        let tree = RouteTree::compute(t, dest, &all_up, &no_salt);
        assert_eq!(tree.reachable_count(), t.n_ases());
        assert_eq!(tree.route_bytes(), t.n_ases() * 8);
    }

    #[test]
    fn path_lengths_lower_bounded_by_selected_len() {
        let w = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 2));
        let t = &w.topology;
        let dest = t.select(|a| a.role == AsRole::Stub)[0];
        let tree = RouteTree::compute(t, dest, &all_up, &no_salt);
        for src in 0..t.n_ases() {
            let src = AsIdx(src as u32);
            if let (Some(r), Some(p)) = (tree.route(src), tree.path_from(src)) {
                assert!(
                    p.len() > r.len() as usize,
                    "selected len must lower-bound the real path at {}",
                    t.asn(src)
                );
            }
        }
    }
}
