//! The demand-driven trees `RoutingSim` caches, held against the full
//! closure-driven tree (`RouteTree::compute`) and the pre-CSR reference:
//! whatever order routes are asked in, every AS's class, length, tiebroken
//! next hop and forwarding path must be the full tree's.

use churnlab_bgp::{mix64, ChurnConfig, Epoch, ReferenceRouter, RouteClass, RouteTree, RoutingSim};
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

/// Does following `full`'s next hops from `src` reach the destination?
/// (On a graph with a provider cycle, preference-selected providers can
/// forward in a loop; both tree forms refuse to walk one.)
fn forwards(full: &RouteTree, src: AsIdx, n_ases: usize) -> bool {
    let mut cur = src;
    for _ in 0..=n_ases {
        match full.route(cur).and_then(|r| r.next()) {
            Some(next) => cur = next,
            None => return true,
        }
    }
    false
}

fn assert_matches(sim: &RoutingSim, full: &RouteTree, epoch: Epoch, order: &[AsIdx]) {
    let n = sim.topology().n_ases();
    for &src in order {
        assert_eq!(
            sim.route(src, full.dest, epoch),
            full.route(src),
            "route of {src:?} toward {:?} at epoch {epoch}",
            full.dest
        );
        if forwards(full, src, n) {
            assert_eq!(sim.as_path(src, full.dest, epoch), full.path_from(src));
            assert_eq!(
                sim.asn_path(src, full.dest, epoch),
                full.asn_path_from(sim.topology(), src)
            );
        }
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
    let dest = t.idx(Asn(2)).unwrap();
    let router = ReferenceRouter::build(&t);
    // Start the resolver inside the ring, below it, and at the dead ring;
    // several seeds move 13's salted choice between 1 and 11.
    for seed in 0..8u64 {
        for first in [13, 14, 11, 21] {
            let sim = RoutingSim::new(&t, &short_churn(seed));
            let full = full_tree(&sim, &router, dest, 0);
            let mut order = vec![t.idx(Asn(first)).unwrap()];
            order.extend(scrambled(&t, seed));
            assert_matches(&sim, &full, 0, &order);
            let len = |asn: u32| sim.route(t.idx(Asn(asn)).unwrap(), dest, 0).map(|r| r.len());
            assert_eq!(
                [len(13), len(12), len(11), len(14), len(21), len(22), len(23)],
                [Some(2), Some(3), Some(4), Some(5), None, None, None]
            );
        }
    }
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
