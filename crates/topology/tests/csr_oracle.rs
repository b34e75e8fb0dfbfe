//! The kind-grouped CSR against an oracle built straight from the link
//! list.
//!
//! For every AS the oracle walks `links()` in [`LinkId`] order and files
//! each link under its endpoints by kind. The CSR must hand back exactly
//! those runs — providers, then peers, then customers, each in link-id
//! order — through `provider_edges`, `peer_edges`, `customer_edges`,
//! `edge_runs` and `neighbors`. The `#[ignore]`d twin pins a digest of the
//! Huge seed-42 world's links and CSR, its registry IP-to-AS view and the
//! bytes the world holds (run it in release:
//! `cargo test --release -q -p churnlab-topology --test csr_oracle -- --ignored`).

use churnlab_topology::graph::{Adjacency, EdgeKind};
use churnlab_topology::{
    fnv1a, fnv1a_extend, generator, load_asrel2, write_asrel2, AsClass, AsIdx, AsInfo, AsRole, Asn,
    CountryCode, Ip2AsDb, Link, LinkId, LinkStability, Relationship, Topology, WorldConfig,
    WorldScale,
};

/// Per AS: its provider, peer and customer entries, each in link order.
fn oracle(t: &Topology) -> Vec<[Vec<Adjacency>; 3]> {
    let mut runs = vec![[Vec::new(), Vec::new(), Vec::new()]; t.n_ases()];
    for (id, l) in t.links().enumerate() {
        let (a, b) = (t.idx(l.a).unwrap(), t.idx(l.b).unwrap());
        let link = LinkId(id as u32);
        let (ka, kb) = match l.rel {
            Relationship::CustomerToProvider => (EdgeKind::ToProvider, EdgeKind::ToCustomer),
            Relationship::PeerToPeer => (EdgeKind::ToPeer, EdgeKind::ToPeer),
        };
        let run = |k: EdgeKind| match k {
            EdgeKind::ToProvider => 0,
            EdgeKind::ToPeer => 1,
            EdgeKind::ToCustomer => 2,
        };
        runs[a.usize()][run(ka)].push(Adjacency { peer: b, link });
        runs[b.usize()][run(kb)].push(Adjacency { peer: a, link });
    }
    runs
}

fn assert_csr_matches_oracle(t: &Topology, what: &str) {
    let want = oracle(t);
    for (i, [prov, peer, cust]) in want.iter().enumerate() {
        let idx = AsIdx(i as u32);
        assert_eq!(t.provider_edges(idx), &prov[..], "{what}: providers of AS index {i}");
        assert_eq!(t.peer_edges(idx), &peer[..], "{what}: peers of AS index {i}");
        assert_eq!(t.customer_edges(idx), &cust[..], "{what}: customers of AS index {i}");
        let kinds = [EdgeKind::ToProvider, EdgeKind::ToPeer, EdgeKind::ToCustomer];
        let runs = [&prov[..], &peer[..], &cust[..]];
        assert_eq!(t.edge_runs(idx), [0, 1, 2].map(|k| (kinds[k], runs[k])), "{what}: runs of {i}");
        let run: Vec<Adjacency> = prov.iter().chain(peer).chain(cust).copied().collect();
        assert_eq!(t.neighbors(idx), &run[..], "{what}: neighbors of AS index {i}");
    }
}

/// Huge shrunk ~40x, the generator's own unit-test size.
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
fn hierarchical_worlds_match_the_oracle() {
    for scale in [WorldScale::Smoke, WorldScale::Small, WorldScale::Paper] {
        let w = generator::generate(&WorldConfig::preset(scale, 42));
        assert!(w.topology.is_frozen());
        assert_csr_matches_oracle(&w.topology, &format!("{scale:?}"));
    }
}

#[test]
fn a_mini_pa_world_matches_the_oracle() {
    for seed in [3, 9] {
        let w = generator::generate(&mini_pa(seed));
        assert_csr_matches_oracle(&w.topology, &format!("mini PA seed {seed}"));
    }
}

#[test]
fn an_asrel2_round_trip_matches_the_oracle() {
    let w = generator::generate(&WorldConfig::preset(WorldScale::Small, 7));
    let mut file = Vec::new();
    write_asrel2(&w.topology, &mut file).unwrap();
    let t = load_asrel2(&file[..]).unwrap();
    assert!(t.is_frozen());
    assert_eq!(t.n_links(), w.topology.n_links());
    assert_csr_matches_oracle(&t, "as-rel2 round trip");
}

#[test]
fn adding_after_a_freeze_then_refreezing_matches_the_oracle() {
    let mut t = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 5)).topology;
    let first = t.ases()[0].asn;
    let base = t.ases().iter().map(|a| a.asn.0).max().unwrap() + 1;
    // New stubs under the first AS and every tenth AS, and a peering
    // link between each new stub and the one before it.
    let mut added: Vec<Asn> = Vec::new();
    for (k, i) in (0..t.n_ases()).step_by(10).enumerate() {
        let provider = t.ases()[i].asn;
        let asn = Asn(base + k as u32);
        t.add_as(AsInfo {
            asn,
            name: format!("AS{}", asn.0),
            country: CountryCode::new("US"),
            class: AsClass::Enterprise,
            role: AsRole::Stub,
        })
        .unwrap();
        assert!(!t.is_frozen(), "a mutation drops the CSR");
        t.add_link(Link::transit(asn, provider, LinkStability::stable())).unwrap();
        if provider != first {
            t.add_link(Link::transit(asn, first, LinkStability::stable())).unwrap();
        }
        if let Some(&prev) = added.last() {
            t.add_link(Link::peering(prev, asn, LinkStability::flappy())).unwrap();
        }
        added.push(asn);
        if i % 20 == 0 {
            t.freeze();
            assert_csr_matches_oracle(&t, &format!("after stub {}", asn.0));
        }
    }
    t.freeze();
    assert_csr_matches_oracle(&t, "re-frozen");
    assert!(t.validate().is_ok());
}

/// FNV-1a over every link (endpoints, relationship, stability bits) and
/// every AS's three CSR runs (lengths, then each entry with the kind of
/// its run).
fn links_and_csr_digest(t: &Topology) -> u64 {
    let mut h = fnv1a([]);
    for l in t.links() {
        let rel = matches!(l.rel, Relationship::PeerToPeer) as u8;
        h = fnv1a_extend(h, l.a.0.to_le_bytes());
        h = fnv1a_extend(h, l.b.0.to_le_bytes());
        h = fnv1a_extend(h, [rel]);
        h = fnv1a_extend(h, l.stability.flap_rate.to_bits().to_le_bytes());
        h = fnv1a_extend(h, l.stability.mean_downtime_days.to_bits().to_le_bytes());
    }
    for i in 0..t.n_ases() {
        for (kind, run) in t.edge_runs(AsIdx(i as u32)) {
            h = fnv1a_extend(h, (run.len() as u32).to_le_bytes());
            for a in run {
                h = fnv1a_extend(h, a.peer.0.to_le_bytes());
                h = fnv1a_extend(h, a.link.0.to_le_bytes());
                h = fnv1a_extend(h, [kind as u8]);
            }
        }
    }
    h
}

#[test]
#[ignore = "Huge world; run in release (~1 s)"]
fn huge_seed_42_links_and_csr_are_pinned() {
    let w = generator::generate(&WorldConfig::preset(WorldScale::Huge, 42));
    assert_eq!(w.topology.n_links(), 541_948);
    assert_csr_matches_oracle(&w.topology, "Huge seed 42");
    assert_eq!(links_and_csr_digest(&w.topology), 0xa416_c6a2_b616_ea0a);

    // The registry view is the from-entries build of the registry's
    // mappings: the same entries, and the same answer wherever a range
    // can start (a prefix's first address, or just past its last).
    let registry = w.registry_ip2as();
    let public = |asn| w.public_asn(asn);
    let rows = w.prefixes.iter();
    let entries = rows.flat_map(|(asn, ps)| ps.iter().map(move |&p| (p, public(asn))));
    let want = Ip2AsDb::from_entries(entries).unwrap();
    assert!(registry.entries().eq(want.entries()));
    for &(p, _) in want.entries() {
        let past = p.network() | !churnlab_topology::Ipv4Prefix::mask(p.len());
        for ip in [p.network(), past.wrapping_add(1)] {
            assert_eq!(registry.lookup(ip), want.lookup(ip), "at {ip:#010x}");
        }
    }

    // What the world holds, so a return to 32-byte links, a second copy
    // of their endpoints, 12-byte CSR entries or a map of per-AS vectors
    // (47.1 MB in all) fails here.
    let held = w.topology.heap_bytes() + w.prefixes.heap_bytes() + w.ip2as.heap_bytes();
    assert!(held <= 26_000_000, "the Huge world holds {held} bytes");
}
