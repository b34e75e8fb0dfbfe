//! Seeded hierarchical Internet generator.
//!
//! Builds a synthetic AS-level Internet with the structural properties the
//! paper's technique depends on:
//!
//! * a **provider hierarchy** (tier-1 clique → national transits →
//!   regional ISPs → stubs) so valley-free routing produces realistic
//!   multi-AS paths between vantage points and destinations;
//! * **multi-homing** at the edge and **IXP-style regional peering** in the
//!   middle, so that multiple distinct valley-free paths exist per
//!   (src, dst) pair — the raw material that link churn turns into the
//!   paper's Figure-3 path diversity;
//! * **cross-border transit** (some stubs buy transit from a provider in a
//!   neighbouring country), which is exactly the situation that produces
//!   censorship *leakage* (§3.3): traffic of a foreign customer transits a
//!   censoring AS;
//! * heterogeneous **link stability** (core links are rock solid, a
//!   configurable fraction of edge/peering links flap), giving the
//!   heavy-tailed churn distribution of Figure 3 where 25% of pairs churn
//!   within a day yet 33% are stable all year.

use crate::asys::{AsClass, AsInfo, AsRole, Asn};
use crate::geo;
use crate::geo::CountryCode;
use crate::graph::Topology;
use crate::ip2as::Ip2AsDb;
use crate::links::{Link, LinkStability};
use crate::prefix::Ipv4Prefix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Convenience presets scaling the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorldScale {
    /// Minimal world for unit tests (~60 ASes).
    Smoke,
    /// Small world for integration tests and quick experiments (~300 ASes).
    Small,
    /// Paper-scale world (~2.5-3k ASes, 90 countries) for the experiment
    /// harness.
    Paper,
    /// CAIDA-order world (~62k ASes, ~520k links) built by preferential
    /// attachment instead of the per-country hierarchy, for exercising the
    /// routing layer at real-Internet scale. Offline stand-in for the real
    /// AS-REL2 graph (78,771 ASes / 723,215 edges).
    Huge,
}

/// Generator configuration. All probabilities are in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldConfig {
    /// RNG seed; the world is a pure function of the config.
    pub seed: u64,
    /// Number of countries (catalog + synthetic).
    pub n_countries: usize,
    /// Number of tier-1 backbone ASes (full peering clique).
    pub n_tier1: usize,
    /// Min/max national transit ASes per country.
    pub nationals_per_country: (usize, usize),
    /// Min/max regional ISPs per country.
    pub regionals_per_country: (usize, usize),
    /// Min/max stub ASes per country.
    pub stubs_per_country: (usize, usize),
    /// Probability a stub buys transit from a second provider.
    pub multihoming_prob: f64,
    /// Probability a multi-homed stub buys from a third provider.
    pub triple_homing_prob: f64,
    /// Probability the *extra* provider of a multi-homed stub is in a
    /// different (same-region) country — the leakage-producing edges.
    pub foreign_provider_prob: f64,
    /// Probability two national transits in the same region peer.
    pub regional_peering_prob: f64,
    /// Probability two national transits in different regions peer.
    pub intercontinental_peering_prob: f64,
    /// Fraction of stubs classified as content networks.
    pub content_frac: f64,
    /// Fraction of stubs classified as enterprises.
    pub enterprise_frac: f64,
    /// Fraction of edge (stub-provider) and peering links that are flappy.
    pub flappy_link_frac: f64,
    /// Multiplier applied to edge-link flap rates; the churn dial used by
    /// the `ablation_churn` bench (0 ⇒ a frozen Internet, Figure 4).
    pub churn_scale: f64,
    /// Min/max prefixes announced per AS.
    pub prefixes_per_as: (usize, usize),
    /// Number of multi-country hosting organizations (commercial VPN
    /// providers). Each org operates PoP networks in several countries,
    /// all registered under one public ASN — the structure behind ICLab's
    /// "~1,000 vantage points in 539 ASes" footprint.
    pub hosting_orgs: usize,
    /// Min/max PoP countries per hosting organization.
    pub pops_per_org: (usize, usize),
    /// Probability a hosting-org PoP reaches the national carriers through
    /// a metro/regional ISP instead of buying transit directly. Depth
    /// below the national gateway is what leaves extra in-country ASes on
    /// censored paths — the candidates that only path churn can eliminate
    /// (the solvability collapse of the paper's Figure 4).
    pub pop_via_regional_prob: f64,
    /// How many of the hosting orgs are *giants* — consumer-VPN providers
    /// with exits in most countries (ICLab's fleet was dominated by a few
    /// such providers; HideMyAss alone advertised exits in ~190 countries).
    /// Giants are generated first and take `giant_org_coverage` of the
    /// world's countries instead of `pops_per_org`.
    pub giant_orgs: usize,
    /// Fraction of countries a giant org covers.
    pub giant_org_coverage: f64,
    /// Transit ASes grown by preferential attachment. Non-zero switches
    /// the generator from the per-country hierarchy to the PA family
    /// (the [`WorldScale::Huge`] tier): a tier-1 clique, then
    /// `pa_transits` transits each buying from 1–2 degree-weighted
    /// earlier transits/tier-1s, then `pa_stubs` stubs, then a peering
    /// mesh. Zero (all hierarchy presets) keeps the hierarchical path.
    pub pa_transits: usize,
    /// Stub ASes in the preferential-attachment family (ignored when
    /// `pa_transits == 0`).
    pub pa_stubs: usize,
    /// Peering links drawn between random transit pairs in the
    /// preferential-attachment family (ignored when `pa_transits == 0`).
    pub pa_peering_links: usize,
    /// Route-tree cache capacity for simulators built over this world
    /// (trees, not bytes). `0` = auto-size from a fixed memory budget and
    /// the world's AS count.
    pub tree_cache_capacity: usize,
}

impl WorldConfig {
    /// Preset for a [`WorldScale`], with the given seed.
    pub fn preset(scale: WorldScale, seed: u64) -> Self {
        match scale {
            WorldScale::Smoke => WorldConfig {
                seed,
                n_countries: 8,
                n_tier1: 3,
                nationals_per_country: (1, 2),
                regionals_per_country: (0, 1),
                stubs_per_country: (3, 6),
                multihoming_prob: 0.5,
                triple_homing_prob: 0.15,
                foreign_provider_prob: 0.3,
                regional_peering_prob: 0.5,
                intercontinental_peering_prob: 0.1,
                content_frac: 0.4,
                enterprise_frac: 0.2,
                flappy_link_frac: 0.10,
                churn_scale: 1.0,
                prefixes_per_as: (1, 2),
                hosting_orgs: 4,
                pops_per_org: (3, 4),
                pop_via_regional_prob: 0.0,
                giant_orgs: 0,
                giant_org_coverage: 0.8,
                pa_transits: 0,
                pa_stubs: 0,
                pa_peering_links: 0,
                tree_cache_capacity: 0,
            },
            WorldScale::Small => WorldConfig {
                seed,
                n_countries: 24,
                n_tier1: 6,
                nationals_per_country: (1, 2),
                regionals_per_country: (1, 2),
                stubs_per_country: (5, 12),
                multihoming_prob: 0.55,
                triple_homing_prob: 0.18,
                foreign_provider_prob: 0.35,
                regional_peering_prob: 0.4,
                intercontinental_peering_prob: 0.06,
                content_frac: 0.38,
                enterprise_frac: 0.22,
                flappy_link_frac: 0.10,
                churn_scale: 1.0,
                prefixes_per_as: (1, 3),
                hosting_orgs: 16,
                pops_per_org: (3, 6),
                pop_via_regional_prob: 0.0,
                giant_orgs: 0,
                giant_org_coverage: 0.75,
                pa_transits: 0,
                pa_stubs: 0,
                pa_peering_links: 0,
                tree_cache_capacity: 0,
            },
            WorldScale::Paper => WorldConfig {
                seed,
                n_countries: 90,
                n_tier1: 12,
                nationals_per_country: (1, 3),
                regionals_per_country: (1, 4),
                stubs_per_country: (8, 36),
                multihoming_prob: 0.55,
                triple_homing_prob: 0.18,
                foreign_provider_prob: 0.3,
                regional_peering_prob: 0.35,
                intercontinental_peering_prob: 0.03,
                content_frac: 0.36,
                enterprise_frac: 0.22,
                flappy_link_frac: 0.10,
                churn_scale: 1.0,
                prefixes_per_as: (1, 4),
                hosting_orgs: 90,
                pops_per_org: (3, 7),
                pop_via_regional_prob: 0.0,
                giant_orgs: 0,
                giant_org_coverage: 0.6,
                pa_transits: 0,
                pa_stubs: 0,
                pa_peering_links: 0,
                tree_cache_capacity: 0,
            },
            WorldScale::Huge => WorldConfig {
                seed,
                n_countries: 120,
                n_tier1: 20,
                // Hierarchy knobs are inert on the PA path but kept sane
                // in case a config tweak flips pa_transits back to 0.
                nationals_per_country: (1, 2),
                regionals_per_country: (0, 1),
                stubs_per_country: (4, 8),
                multihoming_prob: 0.55,
                triple_homing_prob: 0.18,
                foreign_provider_prob: 0.3,
                regional_peering_prob: 0.2,
                intercontinental_peering_prob: 0.02,
                content_frac: 0.36,
                enterprise_frac: 0.22,
                flappy_link_frac: 0.10,
                churn_scale: 1.0,
                prefixes_per_as: (1, 1),
                hosting_orgs: 32,
                pops_per_org: (3, 6),
                pop_via_regional_prob: 0.0,
                giant_orgs: 0,
                giant_org_coverage: 0.6,
                // ~62k ASes / ~540k links: 20-clique + 6k transits (1-2
                // degree-weighted providers) + 56k stubs (1-3 providers)
                // + 440k-link peering mesh.
                pa_transits: 6_000,
                pa_stubs: 56_000,
                pa_peering_links: 440_000,
                tree_cache_capacity: 0,
            },
        }
    }
}

/// A multi-country hosting organization (a commercial VPN / datacenter
/// provider à la M247 or Leaseweb).
///
/// The organization operates a point-of-presence network in each of
/// several countries. Routing-wise every PoP is its own node (own country,
/// own upstream transits, own prefixes), but the *registry* — whois, and
/// therefore any IP-to-AS database — attributes all of their prefixes to
/// the single public ASN of the organization. This is the structure behind
/// ICLab's "~1,000 vantage points in 539 ASes across 219 countries": the
/// platform buys exits across a provider's whole footprint, and a clean
/// measurement from the provider's PoP in a free country exonerates the
/// shared public ASN in the same CNF where the provider's PoP behind a
/// censor produces anomalies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostingOrg {
    /// Organization name (e.g. `"GlobalHost-3"`).
    pub name: String,
    /// The registered public ASN — the headquarters PoP's node ASN.
    pub public: Asn,
    /// All PoP node ASNs, headquarters first.
    pub pops: Vec<Asn>,
}

/// The generated world: topology plus the ground-truth IP-to-AS mapping.
#[derive(Debug, Clone)]
pub struct GeneratedWorld {
    /// The AS-level topology.
    pub topology: Topology,
    /// Ground-truth IP-to-AS database (degrade it with
    /// [`Ip2AsDb::degraded`] for noisy-scenario runs).
    pub ip2as: Ip2AsDb,
    /// Per-AS announced prefixes (ground truth).
    pub prefixes: HashMap<Asn, Vec<Ipv4Prefix>>,
    /// Multi-country hosting organizations (may be empty).
    pub orgs: Vec<HostingOrg>,
    /// The configuration used.
    pub config: WorldConfig,
    sibling_public: HashMap<Asn, Asn>,
}

impl GeneratedWorld {
    /// All ASNs in the world.
    pub fn asns(&self) -> Vec<Asn> {
        self.topology.ases().iter().map(|a| a.asn).collect()
    }

    /// One representative host address inside an AS (the `i`-th host of its
    /// first prefix).
    pub fn host_in(&self, asn: Asn, i: u32) -> Option<u32> {
        self.prefixes.get(&asn).and_then(|ps| ps.first()).map(|p| p.nth_host(i))
    }

    /// The *registered* (public) ASN of a node: the owning organization's
    /// public ASN for hosting-org PoPs, the node's own ASN otherwise. This
    /// is what whois — and any IP-to-AS database built from registry data —
    /// reports for the node's prefixes.
    pub fn public_asn(&self, asn: Asn) -> Asn {
        self.sibling_public.get(&asn).copied().unwrap_or(asn)
    }

    /// True if `asn` is a PoP node of some hosting organization (including
    /// the headquarters PoP).
    pub fn is_org_pop(&self, asn: Asn) -> bool {
        self.sibling_public.contains_key(&asn)
            || self.orgs.iter().any(|o| o.public == asn)
    }

    /// The registry's view of IP-to-AS: like [`GeneratedWorld::ip2as`] but
    /// with every hosting-org PoP prefix attributed to the organization's
    /// public ASN. This — not the ground-truth node mapping — is what a
    /// CAIDA-style database built from registry and BGP data contains.
    pub fn registry_ip2as(&self) -> Ip2AsDb {
        Ip2AsDb::from_entries(self.prefixes.iter().flat_map(|(asn, ps)| {
            let public = self.public_asn(*asn);
            ps.iter().map(move |p| (*p, public))
        }))
        .expect("generator prefixes are disjoint")
    }
}

/// Prefix allocator walking the unicast IPv4 space, skipping reserved
/// blocks.
struct PrefixAllocator {
    cursor: u32,
}

impl PrefixAllocator {
    fn new() -> Self {
        // Start above 1.0.0.0 to avoid 0/8.
        PrefixAllocator { cursor: 0x0100_0000 }
    }

    fn reserved(addr: u32) -> bool {
        let top = addr >> 24;
        // 0/8, 10/8, 127/8, 169.254/16ish (take all of 169), 172.16/12
        // (take all of 172), 192/8 (contains 192.168/16 and test nets),
        // 198/8, 224+/4 multicast and above.
        matches!(top, 0 | 10 | 127 | 169 | 172 | 192 | 198) || top >= 224
    }

    /// Allocate an aligned block of length `len`.
    fn alloc(&mut self, len: u8) -> Ipv4Prefix {
        let size = 1u32 << (32 - len as u32);
        loop {
            // Align up.
            let rem = self.cursor % size;
            if rem != 0 {
                self.cursor += size - rem;
            }
            if Self::reserved(self.cursor) {
                // Jump to the next /8 boundary.
                self.cursor = ((self.cursor >> 24) + 1) << 24;
                continue;
            }
            let p = Ipv4Prefix::new(self.cursor, len).expect("len <= 32 by construction");
            self.cursor = self.cursor.wrapping_add(size);
            return p;
        }
    }
}

/// Generate a world from a config. Panics only on internal invariant
/// violations (the generator always produces valid topologies).
///
/// `pa_transits > 0` selects the preferential-attachment family (the
/// [`WorldScale::Huge`] tier); otherwise the per-country hierarchy is
/// built. Either way the returned topology is [frozen](Topology::freeze)
/// and validated.
pub fn generate(config: &WorldConfig) -> GeneratedWorld {
    if config.pa_transits > 0 {
        return generate_pa(config);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let countries = geo::countries(config.n_countries);
    let mut topology = Topology::new(countries.clone());
    let mut next_asn = 100u32;
    let mut alloc = PrefixAllocator::new();
    let mut prefixes: HashMap<Asn, Vec<Ipv4Prefix>> = HashMap::new();
    let mut mk_asn = |rng: &mut StdRng| {
        // Scatter ASNs a little so they look like real allocations.
        next_asn += 1 + rng.gen_range(0..37);
        Asn(next_asn)
    };

    let edge_stability = |rng: &mut StdRng, cfg: &WorldConfig| -> LinkStability {
        let mut s = if rng.gen_bool(cfg.flappy_link_frac) {
            LinkStability::flappy()
        } else {
            LinkStability::stable()
        };
        s.flap_rate = (s.flap_rate * cfg.churn_scale).min(0.45);
        s
    };
    // Mid-hierarchy links never flap heavily but still obey the churn dial.
    let mid_stability = |cfg: &WorldConfig| -> LinkStability {
        let mut s = LinkStability::stable();
        s.flap_rate = (s.flap_rate * cfg.churn_scale).min(0.45);
        s
    };

    // --- Tier-1 clique -------------------------------------------------
    // Spread tier-1s across the largest economies in distinct regions.
    let t1_homes: Vec<CountryCode> = {
        let preferred = ["US", "DE", "GB", "JP", "SE", "FR", "SG", "NL", "CA", "IT", "AU", "ES"];
        let mut homes: Vec<CountryCode> = preferred
            .iter()
            .filter(|c| countries.iter().any(|k| k.code.as_str() == **c))
            .map(|c| CountryCode::new(c))
            .collect();
        while homes.len() < config.n_tier1 {
            homes.push(countries[homes.len() % countries.len()].code);
        }
        homes.truncate(config.n_tier1);
        homes
    };
    let mut tier1s: Vec<Asn> = Vec::new();
    for (i, home) in t1_homes.iter().enumerate() {
        let asn = mk_asn(&mut rng);
        topology
            .add_as(AsInfo {
                asn,
                name: format!("{home}-Backbone-{i}"),
                country: *home,
                class: AsClass::TransitAccess,
                role: AsRole::Tier1,
            })
            .expect("fresh ASN");
        tier1s.push(asn);
    }
    for i in 0..tier1s.len() {
        for j in (i + 1)..tier1s.len() {
            topology
                .add_link(Link::peering(tier1s[i], tier1s[j], LinkStability::rock_solid()))
                .expect("clique links are unique");
        }
    }

    // --- National transits ---------------------------------------------
    let mut nationals_by_country: HashMap<CountryCode, Vec<Asn>> = HashMap::new();
    for country in &countries {
        let n = rng.gen_range(config.nationals_per_country.0..=config.nationals_per_country.1);
        let n = n.max(1); // every country needs at least one transit
        for k in 0..n {
            let asn = mk_asn(&mut rng);
            topology
                .add_as(AsInfo {
                    asn,
                    name: format!("{}-National-{k}", country.code),
                    country: country.code,
                    class: AsClass::TransitAccess,
                    role: AsRole::NationalTransit,
                })
                .expect("fresh ASN");
            // Each national buys transit from 1-2 tier-1s.
            let n_up = 1 + usize::from(rng.gen_bool(0.6));
            let mut ups = tier1s.clone();
            ups.shuffle(&mut rng);
            for t1 in ups.into_iter().take(n_up) {
                topology
                    .add_link(Link::transit(asn, t1, mid_stability(config)))
                    .expect("unique national uplink");
            }
            nationals_by_country.entry(country.code).or_default().push(asn);
        }
        // Same-country nationals peer with each other.
        let nats = &nationals_by_country[&country.code];
        for i in 0..nats.len() {
            for j in (i + 1)..nats.len() {
                if rng.gen_bool(0.6) {
                    topology
                        .add_link(Link::peering(nats[i], nats[j], edge_stability(&mut rng, config)))
                        .expect("unique domestic peering");
                }
            }
        }
    }

    // Regional (same geo region) and intercontinental national peering —
    // the IXP fabric that creates path diversity.
    let all_nationals: Vec<(Asn, CountryCode)> = countries
        .iter()
        .flat_map(|c| nationals_by_country[&c.code].iter().map(move |&a| (a, c.code)))
        .collect();
    let region_of: HashMap<CountryCode, geo::Region> =
        countries.iter().map(|c| (c.code, c.region)).collect();
    for i in 0..all_nationals.len() {
        for j in (i + 1)..all_nationals.len() {
            let (a, ca) = all_nationals[i];
            let (b, cb) = all_nationals[j];
            if ca == cb {
                continue; // already handled above
            }
            let same_region = region_of[&ca] == region_of[&cb];
            let p = if same_region {
                config.regional_peering_prob
            } else {
                config.intercontinental_peering_prob
            };
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                topology
                    .add_link(Link::peering(a, b, edge_stability(&mut rng, config)))
                    .expect("unique international peering");
            }
        }
    }

    // --- Regional ISPs ---------------------------------------------------
    let mut regionals_by_country: HashMap<CountryCode, Vec<Asn>> = HashMap::new();
    for country in &countries {
        let n = rng.gen_range(config.regionals_per_country.0..=config.regionals_per_country.1);
        for k in 0..n {
            let asn = mk_asn(&mut rng);
            topology
                .add_as(AsInfo {
                    asn,
                    name: format!("{}-Regional-{k}", country.code),
                    country: country.code,
                    class: AsClass::TransitAccess,
                    role: AsRole::RegionalIsp,
                })
                .expect("fresh ASN");
            let nats = &nationals_by_country[&country.code];
            let n_up = (1 + usize::from(rng.gen_bool(0.5))).min(nats.len());
            let mut ups = nats.clone();
            ups.shuffle(&mut rng);
            for up in ups.into_iter().take(n_up) {
                topology
                    .add_link(Link::transit(asn, up, edge_stability(&mut rng, config)))
                    .expect("unique regional uplink");
            }
            regionals_by_country.entry(country.code).or_default().push(asn);
        }
    }

    // --- Stubs -----------------------------------------------------------
    // Region → countries, for picking foreign providers nearby.
    let mut countries_in_region: HashMap<geo::Region, Vec<CountryCode>> = HashMap::new();
    for c in &countries {
        countries_in_region.entry(c.region).or_default().push(c.code);
    }
    for country in &countries {
        let n = rng.gen_range(config.stubs_per_country.0..=config.stubs_per_country.1);
        for k in 0..n {
            let asn = mk_asn(&mut rng);
            let roll: f64 = rng.gen();
            let class = if roll < config.content_frac {
                AsClass::Content
            } else if roll < config.content_frac + config.enterprise_frac {
                AsClass::Enterprise
            } else {
                AsClass::TransitAccess // eyeball/access stub
            };
            topology
                .add_as(AsInfo {
                    asn,
                    name: format!("{}-{}-{k}", country.code, class.label()),
                    country: country.code,
                    class,
                    role: AsRole::Stub,
                })
                .expect("fresh ASN");

            // Candidate providers. Content (datacenter/hosting) stubs buy
            // transit straight from national carriers — short, densely
            // multihomed paths, like real hosting networks — while eyeball
            // and enterprise stubs hang off regionals too.
            let mut home: Vec<Asn> = if class == AsClass::Content {
                nationals_by_country[&country.code].clone()
            } else {
                let mut v: Vec<Asn> = regionals_by_country
                    .get(&country.code)
                    .cloned()
                    .unwrap_or_default();
                v.extend(nationals_by_country[&country.code].iter().copied());
                v
            };
            home.shuffle(&mut rng);
            let primary = home[0];
            topology
                .add_link(Link::transit(asn, primary, edge_stability(&mut rng, config)))
                .expect("unique stub uplink");
            let mut used = vec![primary];

            let (mh, th) = if class == AsClass::Content {
                ((config.multihoming_prob + 0.3).min(1.0), (config.triple_homing_prob + 0.15).min(1.0))
            } else {
                (config.multihoming_prob, config.triple_homing_prob)
            };
            let mut extra_homes = 0usize;
            if rng.gen_bool(mh) {
                extra_homes += 1;
                if rng.gen_bool(th) {
                    extra_homes += 1;
                }
            }
            for _ in 0..extra_homes {
                let foreign = rng.gen_bool(config.foreign_provider_prob);
                let cand: Option<Asn> = if foreign {
                    // A national transit of another country in the region.
                    let sibs = &countries_in_region[&region_of[&country.code]];
                    let mut tries = 0;
                    loop {
                        tries += 1;
                        if tries > 8 {
                            break None;
                        }
                        let cc = sibs[rng.gen_range(0..sibs.len())];
                        if cc == country.code {
                            continue;
                        }
                        let nats = &nationals_by_country[&cc];
                        let cand = nats[rng.gen_range(0..nats.len())];
                        if !used.contains(&cand) {
                            break Some(cand);
                        }
                    }
                } else {
                    home.iter().find(|a| !used.contains(a)).copied()
                };
                if let Some(p) = cand {
                    topology
                        .add_link(Link::transit(asn, p, edge_stability(&mut rng, config)))
                        .expect("unique extra uplink");
                    used.push(p);
                }
            }
        }
    }

    // --- Hosting organizations (multi-country VPN/datacenter providers) ---
    // Each org gets a PoP (its own routing node, Content stub) in several
    // countries; the first PoP is the headquarters whose ASN doubles as the
    // org's public (registered) ASN. PoPs buy transit like content stubs —
    // from national carriers of their own country, densely multihomed.
    let mut orgs: Vec<HostingOrg> = Vec::new();
    let mut sibling_public: HashMap<Asn, Asn> = HashMap::new();
    for o in 0..config.hosting_orgs {
        let lo = config.pops_per_org.0.max(1);
        let hi = config.pops_per_org.1.max(lo);
        let n_pops = if o < config.giant_orgs {
            ((countries.len() as f64 * config.giant_org_coverage) as usize).max(hi)
        } else {
            rng.gen_range(lo..=hi)
        }
        .min(countries.len());
        let mut homes: Vec<CountryCode> = countries.iter().map(|c| c.code).collect();
        homes.shuffle(&mut rng);
        homes.truncate(n_pops);
        let mut pops = Vec::with_capacity(n_pops);
        for cc in homes {
            let asn = mk_asn(&mut rng);
            topology
                .add_as(AsInfo {
                    asn,
                    name: format!("GlobalHost-{o}-{cc}"),
                    country: cc,
                    class: AsClass::Content,
                    role: AsRole::Stub,
                })
                .expect("fresh ASN");
            let mut ups = nationals_by_country[&cc].clone();
            ups.shuffle(&mut rng);
            let n_up = (1 + usize::from(rng.gen_bool(
                (config.multihoming_prob + 0.3).min(1.0),
            )))
            .min(ups.len());
            for up in ups.into_iter().take(n_up) {
                topology
                    .add_link(Link::transit(asn, up, edge_stability(&mut rng, config)))
                    .expect("unique PoP uplink");
            }
            pops.push(asn);
        }
        let public = pops[0];
        for pop in &pops {
            sibling_public.insert(*pop, public);
        }
        orgs.push(HostingOrg { name: format!("GlobalHost-{o}"), public, pops });
    }

    // --- Prefix allocation -------------------------------------------------
    for info in topology.ases().to_vec() {
        let n = rng.gen_range(config.prefixes_per_as.0..=config.prefixes_per_as.1).max(1);
        let mut ps = Vec::with_capacity(n);
        for _ in 0..n {
            // Transit networks announce bigger blocks.
            let len = match info.role {
                AsRole::Tier1 => 14,
                AsRole::NationalTransit => rng.gen_range(15..=17),
                AsRole::RegionalIsp => rng.gen_range(17..=19),
                AsRole::Stub => rng.gen_range(19..=22),
            };
            ps.push(alloc.alloc(len));
        }
        prefixes.insert(info.asn, ps);
    }
    let ip2as = Ip2AsDb::from_entries(
        prefixes.iter().flat_map(|(asn, ps)| ps.iter().map(move |p| (*p, *asn))),
    )
    .expect("allocator never reuses blocks");

    topology.freeze();
    let world = GeneratedWorld {
        topology,
        ip2as,
        prefixes,
        orgs,
        config: config.clone(),
        sibling_public,
    };
    world.topology.validate().expect("generator emits valid topologies");
    world
}

/// The preferential-attachment family behind [`WorldScale::Huge`].
///
/// Classic rich-get-richer growth with Gao–Rexford guarantees by
/// construction: a tier-1 clique seeds a "ball" list in which each
/// transit appears once per provider-side edge; every new transit buys
/// from 1–2 degree-weighted draws out of the ball (always an *earlier*
/// node, so the provider digraph is a DAG and everyone reaches the
/// clique), every stub from 1–3; finally `pa_peering_links` peering
/// edges connect uniform random transit pairs. Countries rotate
/// round-robin over transits so every country keeps carriers for the
/// hosting-org loop, and stubs draw theirs at random.
fn generate_pa(config: &WorldConfig) -> GeneratedWorld {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let countries = geo::countries(config.n_countries);
    let mut topology = Topology::new(countries.clone());
    let mut next_asn = 100u32;
    let mut alloc = PrefixAllocator::new();
    let mut prefixes: HashMap<Asn, Vec<Ipv4Prefix>> = HashMap::new();
    let mut mk_asn = |rng: &mut StdRng| {
        next_asn += 1 + rng.gen_range(0..37);
        Asn(next_asn)
    };
    let edge_stability = |rng: &mut StdRng, cfg: &WorldConfig| -> LinkStability {
        let mut s = if rng.gen_bool(cfg.flappy_link_frac) {
            LinkStability::flappy()
        } else {
            LinkStability::stable()
        };
        s.flap_rate = (s.flap_rate * cfg.churn_scale).min(0.45);
        s
    };
    let mid_stability = |cfg: &WorldConfig| -> LinkStability {
        let mut s = LinkStability::stable();
        s.flap_rate = (s.flap_rate * cfg.churn_scale).min(0.45);
        s
    };

    // --- Tier-1 clique ---------------------------------------------------
    let mut tier1s: Vec<Asn> = Vec::new();
    for i in 0..config.n_tier1.max(2) {
        let cc = countries[i % countries.len()].code;
        let asn = mk_asn(&mut rng);
        topology
            .add_as(AsInfo {
                asn,
                name: format!("{cc}-Backbone-{i}"),
                country: cc,
                class: AsClass::TransitAccess,
                role: AsRole::Tier1,
            })
            .expect("fresh ASN");
        tier1s.push(asn);
    }
    for i in 0..tier1s.len() {
        for j in (i + 1)..tier1s.len() {
            topology
                .add_link(Link::peering(tier1s[i], tier1s[j], LinkStability::rock_solid()))
                .expect("clique links are unique");
        }
    }

    // Degree-proportional provider sampling: `ball` holds one entry per
    // provider-side edge endpoint, so indexing uniformly is a weighted
    // draw. Seeded with the clique so early transits spread across it.
    let mut ball: Vec<Asn> = tier1s.iter().flat_map(|&t| [t, t, t]).collect();
    let mut transits: Vec<Asn> = Vec::with_capacity(config.pa_transits);
    let mut transits_by_country: HashMap<CountryCode, Vec<Asn>> = HashMap::new();

    // --- Transits --------------------------------------------------------
    for k in 0..config.pa_transits {
        let cc = countries[k % countries.len()].code;
        let asn = mk_asn(&mut rng);
        topology
            .add_as(AsInfo {
                asn,
                name: format!("{cc}-Transit-{k}"),
                country: cc,
                class: AsClass::TransitAccess,
                role: AsRole::NationalTransit,
            })
            .expect("fresh ASN");
        let n_up = 1 + usize::from(rng.gen_bool(0.5));
        let mut got = 0;
        let mut tries = 0;
        while got < n_up && tries < 32 {
            tries += 1;
            let p = ball[rng.gen_range(0..ball.len())];
            if p == asn {
                continue;
            }
            if topology.add_link(Link::transit(asn, p, mid_stability(config))).is_ok() {
                // Provider gains attractiveness; the new transit enters the
                // ball too (it is now itself a candidate provider).
                ball.push(p);
                ball.push(asn);
                got += 1;
            }
        }
        assert!(got > 0, "transit always finds a provider in 32 draws");
        transits.push(asn);
        transits_by_country.entry(cc).or_default().push(asn);
    }

    // --- Stubs -----------------------------------------------------------
    for k in 0..config.pa_stubs {
        let cc = countries[rng.gen_range(0..countries.len())].code;
        let asn = mk_asn(&mut rng);
        let roll: f64 = rng.gen();
        let class = if roll < config.content_frac {
            AsClass::Content
        } else if roll < config.content_frac + config.enterprise_frac {
            AsClass::Enterprise
        } else {
            AsClass::TransitAccess
        };
        topology
            .add_as(AsInfo {
                asn,
                name: format!("{}-{}-{k}", cc, class.label()),
                country: cc,
                class,
                role: AsRole::Stub,
            })
            .expect("fresh ASN");
        let mut n_up = 1;
        if rng.gen_bool(config.multihoming_prob) {
            n_up += 1;
            if rng.gen_bool(config.triple_homing_prob) {
                n_up += 1;
            }
        }
        let mut got = 0;
        let mut tries = 0;
        while got < n_up && tries < 32 {
            tries += 1;
            let p = ball[rng.gen_range(0..ball.len())];
            if topology.add_link(Link::transit(asn, p, edge_stability(&mut rng, config))).is_ok() {
                // Only the provider side gains weight: stubs never provide.
                ball.push(p);
                got += 1;
            }
        }
        assert!(got > 0, "stub always finds a provider in 32 draws");
    }

    // --- Peering mesh ----------------------------------------------------
    // Uniform random transit pairs; at Huge fill (~420k links over ~18M
    // possible pairs) the duplicate rate stays ~2%, so 8 retries per link
    // make the expected shortfall negligible.
    let mut made = 0usize;
    let mut budget = config.pa_peering_links * 8;
    while made < config.pa_peering_links && budget > 0 {
        budget -= 1;
        let a = transits[rng.gen_range(0..transits.len())];
        let b = transits[rng.gen_range(0..transits.len())];
        if a == b {
            continue;
        }
        if topology.add_link(Link::peering(a, b, edge_stability(&mut rng, config))).is_ok() {
            made += 1;
        }
    }

    // --- Hosting organizations -------------------------------------------
    // Same structure as the hierarchical family, buying transit from the
    // country's PA transits.
    let mut orgs: Vec<HostingOrg> = Vec::new();
    let mut sibling_public: HashMap<Asn, Asn> = HashMap::new();
    let covered: Vec<CountryCode> = countries
        .iter()
        .map(|c| c.code)
        .filter(|cc| transits_by_country.contains_key(cc))
        .collect();
    for o in 0..config.hosting_orgs {
        let lo = config.pops_per_org.0.max(1);
        let hi = config.pops_per_org.1.max(lo);
        let n_pops = rng.gen_range(lo..=hi).min(covered.len());
        let mut homes = covered.clone();
        homes.shuffle(&mut rng);
        homes.truncate(n_pops);
        let mut pops = Vec::with_capacity(n_pops);
        for cc in homes {
            let asn = mk_asn(&mut rng);
            topology
                .add_as(AsInfo {
                    asn,
                    name: format!("GlobalHost-{o}-{cc}"),
                    country: cc,
                    class: AsClass::Content,
                    role: AsRole::Stub,
                })
                .expect("fresh ASN");
            let mut ups = transits_by_country[&cc].clone();
            ups.shuffle(&mut rng);
            let n_up =
                (1 + usize::from(rng.gen_bool((config.multihoming_prob + 0.3).min(1.0))))
                    .min(ups.len());
            for up in ups.into_iter().take(n_up) {
                topology
                    .add_link(Link::transit(asn, up, edge_stability(&mut rng, config)))
                    .expect("unique PoP uplink");
            }
            pops.push(asn);
        }
        let public = pops[0];
        for pop in &pops {
            sibling_public.insert(*pop, public);
        }
        orgs.push(HostingOrg { name: format!("GlobalHost-{o}"), public, pops });
    }

    // --- Prefixes ---------------------------------------------------------
    for info in topology.ases().to_vec() {
        let n = rng.gen_range(config.prefixes_per_as.0..=config.prefixes_per_as.1).max(1);
        let mut ps = Vec::with_capacity(n);
        for _ in 0..n {
            let len = match info.role {
                AsRole::Tier1 => 14,
                AsRole::NationalTransit => rng.gen_range(16..=18),
                AsRole::RegionalIsp => rng.gen_range(17..=19),
                AsRole::Stub => rng.gen_range(20..=22),
            };
            ps.push(alloc.alloc(len));
        }
        prefixes.insert(info.asn, ps);
    }
    let ip2as = Ip2AsDb::from_entries(
        prefixes.iter().flat_map(|(asn, ps)| ps.iter().map(move |p| (*p, *asn))),
    )
    .expect("allocator never reuses blocks");

    topology.freeze();
    let world = GeneratedWorld {
        topology,
        ip2as,
        prefixes,
        orgs,
        config: config.clone(),
        sibling_public,
    };
    world.topology.validate().expect("PA generator emits valid topologies");
    world
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_world_is_valid() {
        let w = generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        assert!(w.topology.validate().is_ok());
        assert!(w.topology.n_ases() >= 20);
        assert!(w.topology.n_links() >= w.topology.n_ases()); // multihoming+peering
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&WorldConfig::preset(WorldScale::Smoke, 7));
        let b = generate(&WorldConfig::preset(WorldScale::Smoke, 7));
        assert_eq!(a.topology.n_ases(), b.topology.n_ases());
        assert_eq!(a.topology.n_links(), b.topology.n_links());
        let asns_a: Vec<_> = a.asns();
        let asns_b: Vec<_> = b.asns();
        assert_eq!(asns_a, asns_b);
        let la: Vec<_> = a.topology.links().iter().map(|l| (l.a, l.b)).collect();
        let lb: Vec<_> = b.topology.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        let b = generate(&WorldConfig::preset(WorldScale::Smoke, 2));
        let la: Vec<_> = a.topology.links().iter().map(|l| (l.a, l.b)).collect();
        let lb: Vec<_> = b.topology.links().iter().map(|l| (l.a, l.b)).collect();
        assert_ne!(la, lb);
    }

    #[test]
    fn all_roles_present_and_countries_covered() {
        let w = generate(&WorldConfig::preset(WorldScale::Small, 3));
        let t = &w.topology;
        for role in [AsRole::Tier1, AsRole::NationalTransit, AsRole::RegionalIsp, AsRole::Stub] {
            assert!(t.ases().iter().any(|a| a.role == role), "missing role {role}");
        }
        // Every country has at least one national transit.
        for c in t.countries() {
            assert!(
                t.ases()
                    .iter()
                    .any(|a| a.country == c.code && a.role == AsRole::NationalTransit),
                "country {} has no national transit",
                c.code
            );
        }
    }

    #[test]
    fn prefixes_unique_and_mapped() {
        let w = generate(&WorldConfig::preset(WorldScale::Small, 5));
        let mut all: Vec<Ipv4Prefix> = w.prefixes.values().flatten().copied().collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "prefix reuse detected");
        // Every host of every AS maps back to that AS.
        for (asn, ps) in &w.prefixes {
            for p in ps {
                assert_eq!(w.ip2as.lookup(p.nth_host(12)), Some(*asn));
            }
        }
    }

    #[test]
    fn no_prefixes_in_reserved_space() {
        let w = generate(&WorldConfig::preset(WorldScale::Small, 5));
        for ps in w.prefixes.values() {
            for p in ps {
                let top = p.network() >> 24;
                assert!(
                    !matches!(top, 0 | 10 | 127 | 169 | 172 | 192 | 198) && top < 224,
                    "reserved prefix {p} allocated"
                );
            }
        }
    }

    #[test]
    fn cross_border_transit_exists() {
        // Leakage requires stubs with foreign providers.
        let w = generate(&WorldConfig::preset(WorldScale::Small, 11));
        let t = &w.topology;
        let cross = t
            .links()
            .iter()
            .filter(|l| {
                l.rel == crate::links::Relationship::CustomerToProvider
                    && t.info_by_asn(l.a).unwrap().country != t.info_by_asn(l.b).unwrap().country
                    && t.info_by_asn(l.a).unwrap().role == AsRole::Stub
            })
            .count();
        assert!(cross > 0, "no cross-border stub transit: leakage impossible");
    }

    #[test]
    fn hosting_orgs_span_countries() {
        let w = generate(&WorldConfig::preset(WorldScale::Small, 6));
        assert_eq!(w.orgs.len(), w.config.hosting_orgs);
        for org in &w.orgs {
            assert_eq!(org.public, org.pops[0], "public ASN is the HQ PoP");
            assert!(org.pops.len() >= w.config.pops_per_org.0);
            // PoPs sit in pairwise-distinct countries.
            let mut cs: Vec<_> = org
                .pops
                .iter()
                .map(|a| w.topology.info_by_asn(*a).unwrap().country)
                .collect();
            let n = cs.len();
            cs.sort();
            cs.dedup();
            assert_eq!(cs.len(), n, "org {} repeats a country", org.name);
            // Every PoP is a content stub.
            for a in &org.pops {
                let info = w.topology.info_by_asn(*a).unwrap();
                assert_eq!(info.class, AsClass::Content);
                assert_eq!(info.role, AsRole::Stub);
            }
        }
    }

    #[test]
    fn giant_orgs_cover_most_countries() {
        let mut cfg = WorldConfig::preset(WorldScale::Small, 6);
        cfg.giant_orgs = 2;
        cfg.giant_org_coverage = 0.75;
        let w = generate(&cfg);
        let want = (cfg.n_countries as f64 * 0.75) as usize;
        for org in w.orgs.iter().take(2) {
            assert!(
                org.pops.len() >= want,
                "giant {} covers {} countries, want >= {want}",
                org.name,
                org.pops.len()
            );
        }
        // Non-giant orgs keep the small footprint.
        for org in w.orgs.iter().skip(2) {
            assert!(org.pops.len() <= cfg.pops_per_org.1);
        }
    }

    #[test]
    fn public_asn_projection() {
        let w = generate(&WorldConfig::preset(WorldScale::Small, 6));
        let org = &w.orgs[0];
        for pop in &org.pops {
            assert_eq!(w.public_asn(*pop), org.public);
            assert!(w.is_org_pop(*pop));
        }
        // Non-org ASes project to themselves.
        let independent = w
            .asns()
            .into_iter()
            .find(|a| !w.is_org_pop(*a))
            .expect("world has non-org ASes");
        assert_eq!(w.public_asn(independent), independent);
    }

    #[test]
    fn registry_view_aliases_org_prefixes() {
        let w = generate(&WorldConfig::preset(WorldScale::Small, 6));
        let registry = w.registry_ip2as();
        for org in &w.orgs {
            for pop in &org.pops {
                for p in &w.prefixes[pop] {
                    // Ground truth knows the node; the registry reports the
                    // public ASN.
                    assert_eq!(w.ip2as.lookup(p.nth_host(9)), Some(*pop));
                    assert_eq!(registry.lookup(p.nth_host(9)), Some(org.public));
                }
            }
        }
        // Non-org prefixes map identically in both views.
        for (asn, ps) in &w.prefixes {
            if w.is_org_pop(*asn) {
                continue;
            }
            for p in ps {
                assert_eq!(registry.lookup(p.nth_host(1)), Some(*asn));
            }
        }
    }

    #[test]
    fn host_in_returns_mapped_address() {
        let w = generate(&WorldConfig::preset(WorldScale::Smoke, 2));
        let asn = w.asns()[5];
        let h = w.host_in(asn, 3).unwrap();
        assert_eq!(w.ip2as.lookup(h), Some(asn));
    }

    /// Huge shrunk ~40x so the PA family is exercised by debug-mode unit
    /// tests; the true Huge tier runs in the release-mode bench/CI smoke.
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
    fn pa_world_is_valid_and_frozen() {
        let w = generate(&mini_pa(9));
        assert!(w.topology.is_frozen());
        assert!(w.topology.validate().is_ok());
        // 5 + 150 + 1200 + org pops
        assert!(w.topology.n_ases() >= 1_355);
        // clique 10 + uplinks + ~2500 peering
        assert!(w.topology.n_links() >= 3_800, "links = {}", w.topology.n_links());
        for role in [AsRole::Tier1, AsRole::NationalTransit, AsRole::Stub] {
            assert!(w.topology.ases().iter().any(|a| a.role == role), "missing {role}");
        }
    }

    #[test]
    fn pa_world_is_deterministic() {
        let a = generate(&mini_pa(4));
        let b = generate(&mini_pa(4));
        assert_eq!(a.asns(), b.asns());
        let la: Vec<_> = a.topology.links().iter().map(|l| (l.a, l.b)).collect();
        let lb: Vec<_> = b.topology.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(la, lb);
        let c = generate(&mini_pa(5));
        assert_ne!(a.asns(), c.asns());
    }

    #[test]
    fn pa_world_supports_platform_queries() {
        // The platform selects vantage/destination ASes by class; PA
        // worlds must keep all three classes and org PoPs queryable.
        let w = generate(&mini_pa(7));
        assert!(!w.topology.select(|a| a.class == AsClass::Content).is_empty());
        assert!(!w.topology.select(|a| a.class == AsClass::Enterprise).is_empty());
        assert_eq!(w.orgs.len(), 6);
        for org in &w.orgs {
            assert_eq!(w.public_asn(org.pops[0]), org.public);
        }
        let asn = w.asns()[40];
        assert_eq!(w.ip2as.lookup(w.host_in(asn, 2).unwrap()), Some(asn));
    }

    #[test]
    fn generated_ip2as_tables_match_the_lookup_oracles() {
        // The tables conversion actually reads: the ground-truth mapping
        // of a hierarchical and a PA-shaped world, and the registry view
        // degraded the way `Platform::new` degrades it.
        let noise = crate::Ip2AsNoise { drop_frac: 0.05, stale_frac: 0.05 };
        for cfg in [WorldConfig::preset(WorldScale::Small, 6), mini_pa(7)] {
            let w = generate(&cfg);
            crate::ip2as::oracle::assert_agrees(&w.ip2as);
            let degraded =
                w.registry_ip2as().degraded(noise, &w.asns(), &mut StdRng::seed_from_u64(3));
            assert!(degraded.len() < w.ip2as.len());
            crate::ip2as::oracle::assert_agrees(&degraded);
        }
    }

    #[test]
    fn huge_preset_meets_scale_floors() {
        // ≥50k ASes / ≥500k links by construction: clique + uplink floors
        // + the peering mesh. (Generating Huge is a release-mode job; unit
        // tests check the arithmetic, the CI smoke checks the world.)
        let cfg = WorldConfig::preset(WorldScale::Huge, 1);
        let ases = cfg.n_tier1 + cfg.pa_transits + cfg.pa_stubs;
        assert!(ases >= 50_000, "preset yields only {ases} ASes");
        let clique = cfg.n_tier1 * (cfg.n_tier1 - 1) / 2;
        let min_links = clique + cfg.pa_transits + cfg.pa_stubs + cfg.pa_peering_links;
        assert!(min_links >= 500_000, "preset yields only {min_links} links");
    }

    #[test]
    fn hierarchical_world_is_frozen() {
        let w = generate(&WorldConfig::preset(WorldScale::Smoke, 1));
        assert!(w.topology.is_frozen());
    }

    #[test]
    fn churn_scale_zero_freezes_edge_links() {
        let mut cfg = WorldConfig::preset(WorldScale::Smoke, 4);
        cfg.churn_scale = 0.0;
        let w = generate(&cfg);
        // Edge links have zero flap rate; core clique links keep their tiny
        // epsilon.
        let max_edge_flap = w
            .topology
            .links()
            .iter()
            .filter(|l| l.stability.flap_rate > 1e-3)
            .count();
        assert_eq!(max_edge_flap, 0);
    }
}
