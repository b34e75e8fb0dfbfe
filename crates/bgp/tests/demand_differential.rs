//! The demand-driven trees, asked through `RoutingSim`'s own set and
//! through a campaign unit's `Routes`, held against the full tree
//! (`RouteTree::compute`, the same resolution asked about every AS) and
//! the pre-CSR reference, which shares no code with either: whatever order
//! routes are asked in, and whatever trees a set's buffers held before,
//! every AS's class, length, tiebroken next hop and forwarding path must
//! be the full tree's, and every full tree's routes the reference's.

use churnlab_bgp::{
    mix64, ChurnConfig, Epoch, ReferenceRouter, RouteClass, RouteTree, Routes, RoutingSim,
};
use churnlab_topology::asys::{AsClass, AsInfo, AsRole};
use churnlab_topology::geo::{countries, CountryCode};
use churnlab_topology::links::{Link, LinkStability};
use churnlab_topology::{generator, AsIdx, Asn, LinkId, Topology, WorldConfig, WorldScale};

/// The Huge (preferential-attachment) preset shrunk ~40x.
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

fn worlds() -> Vec<Topology> {
    let smoke = (0..3).map(|seed| WorldConfig::preset(WorldScale::Smoke, seed));
    let pa = (0..2).map(mini_pa);
    smoke.chain(pa).map(|cfg| generator::generate(&cfg).topology).collect()
}

/// Every AS of `topo`, in an order keyed by `key`.
fn scrambled(topo: &Topology, key: u64) -> Vec<AsIdx> {
    let mut order: Vec<AsIdx> = (0..topo.n_ases() as u32).map(AsIdx).collect();
    order.sort_by_key(|x| mix64(key ^ u64::from(x.0)));
    order
}

/// A few (stub destination, epoch) jobs, epochs spread over the period
/// and one past its end (what the final slot's `epoch + 1` asks for).
fn jobs(topo: &Topology, sim: &RoutingSim, key: u64, n: usize) -> Vec<(AsIdx, Epoch)> {
    let stubs = topo.select(|a| a.role == AsRole::Stub);
    let total = sim.churn().total_epochs();
    (0..n as u64)
        .map(|i| {
            let dest = stubs[(mix64(key ^ i << 8) % stubs.len() as u64) as usize];
            let epoch =
                if i == 0 { total } else { (mix64(key ^ i << 20) % u64::from(total)) as Epoch };
            (dest, epoch)
        })
        .collect()
}

/// The full tree for `(dest, epoch)` under `sim`'s timeline, checked
/// against the reference router on the way.
fn full_tree(sim: &RoutingSim, router: &ReferenceRouter, dest: AsIdx, epoch: Epoch) -> RouteTree {
    let churn = sim.churn();
    let link_up = |l: LinkId| churn.link_up(l, epoch);
    let salt = |x: usize| churn.te_salt(x, epoch);
    let tree = RouteTree::compute(sim.topology(), dest, &link_up, &salt);
    assert!(router.compute(dest, &link_up, &salt).agrees_with(&tree), "oracles disagree");
    tree
}

/// `sim`'s own lookups, and a fresh unit set's, answer as `full` does.
fn assert_matches(sim: &RoutingSim, full: &RouteTree, epoch: Epoch, order: &[AsIdx]) {
    assert_unit_matches(&mut Routes::new(sim), full, epoch, order);
    for &src in order {
        assert_eq!(
            sim.route(src, full.dest, epoch),
            full.route(src),
            "route of {src:?} toward {:?} at epoch {epoch}",
            full.dest
        );
        assert_eq!(sim.as_path(src, full.dest, epoch), full.path_from(src));
        assert_eq!(sim.asn_path(src, full.dest, epoch), full.asn_path_from(sim.topology(), src));
    }
}

/// `routes` answers as `full` does: route, path and ASN path of every AS
/// in `order`.
fn assert_unit_matches(routes: &mut Routes, full: &RouteTree, epoch: Epoch, order: &[AsIdx]) {
    let topo = routes.sim().topology();
    let (mut path, mut asns) = (Vec::new(), Vec::new());
    for &src in order {
        let dest = full.dest;
        assert_eq!(routes.route(src, dest, epoch), full.route(src), "{src:?} toward {dest:?}");
        let routed = routes.as_path_into(src, dest, epoch, &mut path);
        assert_eq!(routed.then(|| path.clone()), full.path_from(src));
        let routed = routes.asn_path_into(src, dest, epoch, &mut asns);
        assert_eq!(routed.then(|| asns.clone()), full.asn_path_from(topo, src));
    }
}

#[test]
fn every_as_in_scrambled_order_matches_full_tree_and_reference() {
    for (w, topo) in worlds().iter().enumerate() {
        let sim =
            RoutingSim::new(topo, &ChurnConfig { seed: 7 + w as u64, ..ChurnConfig::default() });
        let router = ReferenceRouter::build(topo);
        for (dest, epoch) in jobs(topo, &sim, w as u64, 4) {
            let full = full_tree(&sim, &router, dest, epoch);
            assert_matches(&sim, &full, epoch, &scrambled(topo, mix64(epoch.into())));
        }
    }
}

#[test]
fn random_subsets_in_two_orders_agree() {
    for (w, topo) in worlds().iter().enumerate() {
        let cfg = ChurnConfig { seed: 31 + w as u64, ..ChurnConfig::default() };
        let router = ReferenceRouter::build(topo);
        // Two cold simulators over equal timelines: the same questions in
        // two orders must memoize the same answers.
        let (a, b) = (RoutingSim::new(topo, &cfg), RoutingSim::new(topo, &cfg));
        for (dest, epoch) in jobs(topo, &a, 100 + w as u64, 3) {
            let full = full_tree(&a, &router, dest, epoch);
            let mut subset = scrambled(topo, u64::from(dest.0));
            subset.truncate(40);
            assert_matches(&a, &full, epoch, &subset);
            subset.reverse();
            assert_matches(&b, &full, epoch, &subset);
        }
    }
}

/// How many ASes `dest`'s provider cone could hold: every AS above it
/// over provider edges, link state aside.
fn cone_bound(topo: &Topology, dest: AsIdx) -> usize {
    let mut seen = std::collections::HashSet::from([dest]);
    let mut queue = vec![dest];
    while let Some(x) = queue.pop() {
        for adj in topo.provider_edges(x) {
            if seen.insert(adj.peer) {
                queue.push(adj.peer);
            }
        }
    }
    seen.len()
}

#[test]
fn one_unit_set_cleared_between_keys_answers_as_fresh_full_trees() {
    // A cleared set rebuilds its next tree in the buffers of the last:
    // a large cone after a small one and back, epochs forward and
    // backward (and one past the period's end), must leave nothing stale.
    let smoke = (0..3).map(|seed| WorldConfig::preset(WorldScale::Smoke, seed));
    let small = (0..2).map(|seed| WorldConfig::preset(WorldScale::Small, seed));
    for (w, cfg) in smoke.chain(small).enumerate() {
        let topo = generator::generate(&cfg).topology;
        let churn = ChurnConfig { seed: 90 + w as u64, ..ChurnConfig::default() };
        let sim = RoutingSim::new(&topo, &churn);
        let router = ReferenceRouter::build(&topo);
        let mut by_cone: Vec<AsIdx> = (0..topo.n_ases() as u32).map(AsIdx).collect();
        by_cone.sort_by_key(|&x| (cone_bound(&topo, x), mix64(u64::from(x.0))));
        let (narrow, wide) = (&by_cone[..4], &by_cone[by_cone.len() - 4..]);
        assert!(cone_bound(&topo, wide[0]) > 2 * cone_bound(&topo, narrow[3]));
        let total = sim.churn().total_epochs();
        let epochs = [5, 2, total - 1, 0, total / 2, total, 1, total / 3];
        let mut routes = Routes::new(&sim);
        for (i, epoch) in epochs.into_iter().enumerate() {
            let dest = if i % 2 == 0 { narrow[i / 2] } else { wide[i / 2] };
            let full = full_tree(&sim, &router, dest, epoch);
            assert_unit_matches(&mut routes, &full, epoch, &scrambled(&topo, i as u64));
            routes.clear();
        }
    }
}

fn mk(asn: u32, role: AsRole) -> AsInfo {
    AsInfo {
        asn: Asn(asn),
        name: format!("AS{asn}"),
        country: CountryCode::new("US"),
        class: AsClass::TransitAccess,
        role,
    }
}

fn fixture(ases: &[(u32, AsRole)], links: Vec<Link>) -> Topology {
    let mut t = Topology::new(countries(3));
    for &(asn, role) in ases {
        t.add_as(mk(asn, role)).unwrap();
    }
    for l in links {
        t.add_link(l).unwrap();
    }
    t.freeze();
    t
}

fn short_churn(seed: u64) -> ChurnConfig {
    ChurnConfig { seed, total_days: 10, ..ChurnConfig::default() }
}

#[test]
fn provider_cycle_resolves_to_the_least_fixpoint() {
    // 11, 12, 13 buy transit from each other in a ring (an AS-REL2 file
    // can say so); 13 also buys from tier-1 1, which serves destination 2.
    // Stub 14 hangs under 11. 21, 22 and 23 buy only from each other: a
    // ring with no way out.
    let s = LinkStability::stable;
    let t = fixture(
        &[
            (1, AsRole::Tier1),
            (2, AsRole::Stub),
            (11, AsRole::NationalTransit),
            (12, AsRole::NationalTransit),
            (13, AsRole::NationalTransit),
            (14, AsRole::Stub),
            (21, AsRole::NationalTransit),
            (22, AsRole::NationalTransit),
            (23, AsRole::NationalTransit),
        ],
        vec![
            Link::transit(Asn(2), Asn(1), s()),
            Link::transit(Asn(11), Asn(12), s()),
            Link::transit(Asn(12), Asn(13), s()),
            Link::transit(Asn(13), Asn(11), s()),
            Link::transit(Asn(13), Asn(1), s()),
            Link::transit(Asn(14), Asn(11), s()),
            Link::transit(Asn(21), Asn(22), s()),
            Link::transit(Asn(22), Asn(23), s()),
            Link::transit(Asn(23), Asn(21), s()),
        ],
    );
    let idx = |asn: u32| t.idx(Asn(asn)).unwrap();
    let dest = idx(2);
    let router = ReferenceRouter::build(&t);
    let mut looped = Vec::new();
    // Start the resolver inside the ring, below it, and at the dead ring;
    // several seeds move 13's salted choice between 1 and 11.
    for seed in 0..8u64 {
        for first in [13, 14, 11, 21] {
            let sim = RoutingSim::new(&t, &short_churn(seed));
            let full = full_tree(&sim, &router, dest, 0);
            let mut order = vec![idx(first)];
            order.extend(scrambled(&t, seed));
            assert_matches(&sim, &full, 0, &order);
            let len = |asn: u32| sim.route(idx(asn), dest, 0).map(|r| r.len());
            assert_eq!(
                [len(13), len(12), len(11), len(14), len(21), len(22), len(23)],
                [Some(2), Some(3), Some(4), Some(5), None, None, None]
            );
        }
        // Where 13 forwards to 11, the ring's next hops loop: every AS
        // whose path enters it has no path, in both forms, and a failed
        // lookup leaves its buffer empty.
        let sim = RoutingSim::new(&t, &short_churn(seed));
        let loops = sim.route(idx(13), dest, 0).unwrap().next() == Some(idx(11));
        let (mut path, mut asns) = (Vec::new(), Vec::new());
        for src in scrambled(&t, seed) {
            path.push(src);
            asns.push(Asn(0));
            let routed = sim.as_path_into(src, dest, 0, &mut path);
            assert_eq!(sim.asn_path_into(src, dest, 0, &mut asns), routed);
            assert_eq!((path.is_empty(), asns.is_empty()), (!routed, !routed));
            let in_ring = [11, 12, 13, 14].map(idx).contains(&src);
            assert_eq!(routed, sim.route(src, dest, 0).is_some() && !(loops && in_ring), "{src:?}");
        }
        if loops {
            looped.push(seed);
        }
    }
    assert!(!looped.is_empty() && looped.len() < 8, "13 forwards to 11 at seeds {looped:?}");
}

#[test]
fn as_isolated_by_failed_links_is_unreachable_both_ways() {
    // Stub 5's two uplinks fail at epoch 1 for good (flap probability 1,
    // outages of years); everything else is rock solid.
    let s = LinkStability::stable;
    let doomed = || LinkStability { flap_rate: 1e3, mean_downtime_days: 1e6 };
    let t = fixture(
        &[
            (1, AsRole::Tier1),
            (2, AsRole::NationalTransit),
            (3, AsRole::NationalTransit),
            (5, AsRole::Stub),
            (6, AsRole::Stub),
        ],
        vec![
            Link::transit(Asn(2), Asn(1), s()),
            Link::transit(Asn(3), Asn(1), s()),
            Link::peering(Asn(2), Asn(3), s()),
            Link::transit(Asn(6), Asn(3), s()),
            Link::transit(Asn(5), Asn(2), doomed()),
            Link::transit(Asn(5), Asn(3), doomed()),
        ],
    );
    let sim = RoutingSim::new(&t, &short_churn(3));
    let router = ReferenceRouter::build(&t);
    let (five, six) = (t.idx(Asn(5)).unwrap(), t.idx(Asn(6)).unwrap());
    for l in [4, 5] {
        assert!(sim.churn().link_up(LinkId(l), 0) && !sim.churn().link_up(LinkId(l), 1));
    }
    assert!(sim.as_path(five, six, 0).is_some(), "routed while the uplinks are up");
    assert_eq!(sim.route(five, six, 1), None);
    assert_eq!(sim.as_path(five, six, 1), None);
    let mut buf = vec![Asn(9)];
    assert!(!sim.asn_path_into(five, six, 1, &mut buf));
    assert!(buf.is_empty(), "a failed lookup must leave the buffer empty");
    for (dest, epoch) in [(six, 1), (five, 1), (five, 0)] {
        let full = full_tree(&sim, &router, dest, epoch);
        assert_matches(&sim, &full, epoch, &scrambled(&t, 1));
    }
    // Toward the isolated stub, only the stub itself has a route.
    assert_eq!(sim.as_path(five, five, 1), Some(vec![five]));
    assert_eq!(sim.as_path(six, five, 1), None);
}

#[test]
fn destination_routes_to_itself_with_no_next_hop() {
    for cfg in [WorldConfig::preset(WorldScale::Smoke, 4), mini_pa(4)] {
        let topo = generator::generate(&cfg).topology;
        let sim = RoutingSim::new(&topo, &ChurnConfig::default());
        for (dest, epoch) in jobs(&topo, &sim, 9, 3) {
            let r = sim.route(dest, dest, epoch).expect("the destination reaches itself");
            assert_eq!((r.class(), r.len(), r.next()), (RouteClass::Customer, 0, None));
            assert_eq!(sim.as_path(dest, dest, epoch), Some(vec![dest]));
        }
    }
}

#[test]
fn transit_and_tier1_destinations_match_full_tree_and_reference() {
    // `jobs` draws stubs, whose cones are thin; a transit's cone has
    // several members at each length and a tier-1's is the tier-1 alone.
    let transit = |a: &AsInfo| !matches!(a.role, AsRole::Stub | AsRole::Tier1);
    for (w, topo) in worlds().iter().enumerate() {
        let sim =
            RoutingSim::new(topo, &ChurnConfig { seed: 57 + w as u64, ..ChurnConfig::default() });
        let router = ReferenceRouter::build(topo);
        let total = u64::from(sim.churn().total_epochs());
        let kinds = [topo.select(transit), topo.select(|a| a.role == AsRole::Tier1)];
        for (k, dests) in kinds.iter().enumerate() {
            let key = mix64((w as u64) << 4 ^ k as u64);
            let dest = dests[(key % dests.len() as u64) as usize];
            let epoch = (mix64(key) % total) as Epoch;
            let full = full_tree(&sim, &router, dest, epoch);
            assert_matches(&sim, &full, epoch, &scrambled(topo, key));
        }
    }
}

#[test]
fn cone_selection_skips_dead_links_and_other_lengths() {
    // Destination stub 2 buys from 11 and 12; 12 buys from 13. Tier-1 1
    // buys nothing and serves 11 (over a link that fails at epoch 1 for
    // good), 12, 13 and forty stubs outside the cone. National 3 peers
    // with 11 (the same doomed way), 12 and 13. So 1 and 3 each reach
    // two cone members of length 1, one over a dead link from epoch 1,
    // and 13 at length 2, one too long.
    let s = LinkStability::stable;
    let doomed = || LinkStability { flap_rate: 1e3, mean_downtime_days: 1e6 };
    let mut ases = vec![
        (1, AsRole::Tier1),
        (2, AsRole::Stub),
        (3, AsRole::NationalTransit),
        (11, AsRole::NationalTransit),
        (12, AsRole::NationalTransit),
        (13, AsRole::NationalTransit),
    ];
    let mut links = vec![
        Link::transit(Asn(2), Asn(11), s()),
        Link::transit(Asn(2), Asn(12), s()),
        Link::transit(Asn(12), Asn(13), s()),
        Link::transit(Asn(11), Asn(1), doomed()),
        Link::transit(Asn(12), Asn(1), s()),
        Link::transit(Asn(13), Asn(1), s()),
        Link::peering(Asn(3), Asn(11), doomed()),
        Link::peering(Asn(3), Asn(12), s()),
        Link::peering(Asn(3), Asn(13), s()),
    ];
    for stub in 100..140 {
        ases.push((stub, AsRole::Stub));
        links.push(Link::transit(Asn(stub), Asn(1), s()));
    }
    let t = fixture(&ases, links);
    let router = ReferenceRouter::build(&t);
    let idx = |asn: u32| t.idx(Asn(asn)).unwrap();
    let dest = idx(2);
    let mut first_hops = std::collections::HashSet::new();
    for seed in 0..16u64 {
        let sim = RoutingSim::new(&t, &short_churn(seed));
        assert!(sim.churn().link_up(LinkId(3), 0) && !sim.churn().link_up(LinkId(3), 1));
        for epoch in [0, 1] {
            let full = full_tree(&sim, &router, dest, epoch);
            let mut order = vec![idx(1), idx(3)];
            order.extend(scrambled(&t, seed));
            assert_matches(&sim, &full, epoch, &order);
        }
        for (asn, class) in [(1, RouteClass::Customer), (3, RouteClass::Peer)] {
            let at = |epoch| sim.route(idx(asn), dest, epoch).expect("routed");
            assert_eq!((at(0).class(), at(0).len()), (class, 2));
            first_hops.insert((asn, at(0).next()));
            assert_eq!(at(1).next(), Some(idx(12)), "AS{asn} at epoch 1");
        }
    }
    // Every salt-drawn pick above was between 11 and 12, and both won
    // somewhere, so a dead or too-long candidate would have been taken.
    for asn in [1, 3] {
        for via in [11, 12] {
            assert!(first_hops.contains(&(asn, Some(idx(via)))), "AS{asn} never picked {via}");
        }
    }
}

/// `mini_pa` about four times larger.
fn larger_pa(seed: u64) -> WorldConfig {
    let mut cfg = mini_pa(seed);
    cfg.pa_transits = 600;
    cfg.pa_stubs = 5_000;
    cfg.pa_peering_links = 10_000;
    cfg
}

#[test]
#[ignore = "a release-mode CI step: two worlds of ~5,600 ASes"]
fn every_as_in_scrambled_order_matches_full_tree_and_reference_on_larger_pa_worlds() {
    for seed in 0..2u64 {
        let topo = generator::generate(&larger_pa(seed)).topology;
        let sim = RoutingSim::new(&topo, &ChurnConfig { seed: 70 + seed, ..ChurnConfig::default() });
        let router = ReferenceRouter::build(&topo);
        for (dest, epoch) in jobs(&topo, &sim, 70 + seed, 4) {
            let full = full_tree(&sim, &router, dest, epoch);
            assert_matches(&sim, &full, epoch, &scrambled(&topo, mix64(epoch.into())));
        }
    }
}

/// A provider chain of `n` ASes: AS 1 buys from AS 2, …, AS n − 1 from
/// AS n.
fn chain(n: u32) -> Topology {
    let s = LinkStability::stable;
    let ases: Vec<(u32, AsRole)> = (1..=n).map(|asn| (asn, AsRole::NationalTransit)).collect();
    fixture(&ases, (1..n).map(|asn| Link::transit(Asn(asn), Asn(asn + 1), s())).collect())
}

/// What `f` panicked with.
fn panic_message(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn a_route_past_the_u16_length_panics_in_both_tree_forms() {
    // The packed length's last value means no route, so 65,534 hops is
    // the longest route. A chain one AS taller than that routes end to
    // end; one more AS and the far end's route reaches the sentinel,
    // toward the bottom (stage 1) and toward the top (stage 3) alike.
    let top = u32::from(u16::MAX);
    let fits = chain(top);
    let (bottom, peak) = (fits.idx(Asn(1)).unwrap(), fits.idx(Asn(top)).unwrap());
    let sim = RoutingSim::new(&fits, &short_churn(1));
    for (src, dest) in [(peak, bottom), (bottom, peak)] {
        assert_eq!(sim.route(src, dest, 0).map(|r| r.len()), Some(u16::MAX - 1));
        assert_eq!(sim.as_path(src, dest, 0).map(|p| p.len()), Some(top as usize));
        let full = RouteTree::compute(&fits, dest, &|_| true, &|_| 0);
        assert_eq!(full.route(src).map(|r| r.len()), Some(u16::MAX - 1));
    }
    drop(sim);

    let too_tall = chain(top + 1);
    let (bottom, peak) = (too_tall.idx(Asn(1)).unwrap(), too_tall.idx(Asn(top + 1)).unwrap());
    for (src, dest) in [(peak, bottom), (bottom, peak)] {
        let sim = RoutingSim::new(&too_tall, &short_churn(1));
        // Asked again, the simulator panics again: the first panic left
        // no tentative route behind to read as "no route".
        for _ in 0..2 {
            let msg = panic_message(|| {
                sim.route(src, dest, 0);
            });
            assert!(msg.contains("65535 AS hops") && msg.contains("u16"), "{msg}");
        }
        // So does a unit's set, which holds the tree without a lock.
        let mut routes = Routes::new(&sim);
        for _ in 0..2 {
            let msg = panic_message(|| {
                routes.route(src, dest, 0);
            });
            assert!(msg.contains("65535 AS hops") && msg.contains("u16"), "{msg}");
        }
        if dest == peak {
            // Only the provider stage overflowed: the AS one hop below
            // the top still routes, whole, in both sets.
            let near = too_tall.idx(Asn(top)).unwrap();
            assert_eq!(sim.as_path(near, dest, 0), Some(vec![near, dest]));
            let mut path = Vec::new();
            assert!(routes.as_path_into(near, dest, 0, &mut path));
            assert_eq!(path, [near, dest]);
        }
        let msg = panic_message(|| {
            RouteTree::compute(&too_tall, dest, &|_| true, &|_| 0);
        });
        assert!(msg.contains("65535 AS hops") && msg.contains("u16"), "{msg}");
    }
}
