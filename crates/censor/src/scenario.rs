//! World-wide censorship scenario generation.
//!
//! Seeds a topology with censoring ASes shaped like the paper's findings
//! (§4, Tables 2–3): a few *heavy* countries whose ASes — including
//! transit providers — deploy every mechanism across many categories
//! (China/Cyprus-like); *medium* countries with a couple of censoring
//! ASes and mechanisms; *light* countries with a single stub censor; and
//! a few countries whose ASes exclusively censor advertising domains (the
//! Ireland/Spain/UK observation). Transit censors are what make
//! *leakage* possible: foreign customers route through them.
//!
//! Some policies change mid-year (the paper's Iran-elections example),
//! feeding the unsolvable-CNF population of Figure 1.

use crate::mechanism::{Mechanism, MechanismProfile};
use crate::policy::{CensorPolicy, PolicyPhase};
use crate::urlcat::UrlCategory;
use churnlab_topology::asys::AsRole;
use churnlab_topology::geo::CountryCode;
use churnlab_topology::{Asn, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Scenario generation knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CensorConfig {
    /// RNG seed (independent of topology/churn seeds).
    pub seed: u64,
    /// Length of the measurement period in days.
    pub total_days: u32,
    /// Countries deploying every mechanism across many categories.
    pub heavy_countries: usize,
    /// Countries with 2–3 censoring ASes and a couple of mechanisms.
    pub medium_countries: usize,
    /// Countries with a single censoring stub.
    pub light_countries: usize,
    /// Countries whose censors exclusively target advertising.
    pub ad_censor_countries: usize,
    /// Censoring ASes per heavy country (min, max).
    pub ases_per_heavy: (usize, usize),
    /// Censoring ASes per medium country (min, max).
    pub ases_per_medium: (usize, usize),
    /// Censoring ASes per light country (min, max).
    pub ases_per_light: (usize, usize),
    /// Blocked categories per heavy censor (min, max).
    pub heavy_categories: (usize, usize),
    /// Blocked categories per non-heavy censor (min, max).
    pub other_categories: (usize, usize),
    /// Probability a censor's policy changes once mid-period.
    pub policy_change_prob: f64,
    /// Countries that never censor (the platform's clean-baseline homes;
    /// ICLab uses US vantage points as the censor-free comparison).
    pub exempt_countries: Vec<String>,
}

impl Default for CensorConfig {
    fn default() -> Self {
        CensorConfig {
            seed: 0xCE4504,
            total_days: 365,
            heavy_countries: 4,
            medium_countries: 10,
            light_countries: 14,
            ad_censor_countries: 4,
            ases_per_heavy: (3, 6),
            ases_per_medium: (2, 3),
            ases_per_light: (2, 3),
            heavy_categories: (2, 4),
            other_categories: (1, 2),
            policy_change_prob: 0.10,
            exempt_countries: vec!["US".to_string()],
        }
    }
}

impl CensorConfig {
    /// Scale the country counts — and the per-country censor density —
    /// down for small worlds. Real censoring ASes are a thin minority of
    /// any country's ASes (the paper's 65 censors live among tens of
    /// thousands of ASes); a scaled-down world must scale the censor count
    /// with the AS pool or censors saturate the content networks that host
    /// vantage points and destinations.
    pub fn scaled_for(n_countries: usize) -> Self {
        let mut cfg = CensorConfig::default();
        if n_countries < 40 {
            cfg.heavy_countries = 2;
            cfg.medium_countries = 3;
            cfg.light_countries = 6;
            cfg.ad_censor_countries = 2;
            cfg.ases_per_heavy = (2, 4);
            cfg.ases_per_medium = (1, 2);
            cfg.ases_per_light = (1, 1);
        }
        if n_countries < 12 {
            cfg.heavy_countries = 1;
            cfg.medium_countries = 2;
            cfg.light_countries = 1;
            cfg.ad_censor_countries = 1;
        }
        cfg
    }
}

/// Intensity tier of a censoring country.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CensorTier {
    /// All mechanisms, many categories, transit ASes involved.
    Heavy,
    /// 2–3 mechanisms, some categories.
    Medium,
    /// One mechanism, few categories, stub ASes only.
    Light,
    /// Advertising-only blocking.
    AdOnly,
}

/// A generated censorship layout with ground truth.
#[derive(Debug, Clone)]
pub struct CensorshipScenario {
    /// All policies, one per censoring AS.
    pub policies: Vec<CensorPolicy>,
    /// Tier of each censoring country.
    pub country_tiers: HashMap<CountryCode, CensorTier>,
    by_asn: HashMap<Asn, usize>,
}

impl CensorshipScenario {
    /// Generate a scenario over `topo` per `cfg`.
    pub fn generate(topo: &Topology, cfg: &CensorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let exempt: Vec<CountryCode> =
            cfg.exempt_countries.iter().map(|c| CountryCode::new(c)).collect();

        // Candidate countries, shuffled deterministically. Prefer countries
        // with enough ASes for their tier.
        let mut countries: Vec<CountryCode> = topo
            .countries()
            .iter()
            .map(|c| c.code)
            .filter(|c| !exempt.contains(c))
            .collect();
        countries.shuffle(&mut rng);

        let as_count_in = |cc: CountryCode| topo.ases().iter().filter(|a| a.country == cc).count();

        let mut tiers: Vec<(CountryCode, CensorTier)> = Vec::new();
        let mut iter = countries.into_iter();
        let take = |n: usize, tier: CensorTier, min_ases: usize, iter: &mut std::vec::IntoIter<CountryCode>, tiers: &mut Vec<(CountryCode, CensorTier)>| {
            let mut got = 0;
            let mut skipped = Vec::new();
            while got < n {
                match iter.next() {
                    Some(cc) if as_count_in(cc) >= min_ases => {
                        tiers.push((cc, tier));
                        got += 1;
                    }
                    Some(cc) => skipped.push(cc),
                    None => break,
                }
            }
            skipped
        };
        let mut leftovers = Vec::new();
        leftovers.extend(take(cfg.heavy_countries, CensorTier::Heavy, 4, &mut iter, &mut tiers));
        leftovers.extend(take(cfg.medium_countries, CensorTier::Medium, 3, &mut iter, &mut tiers));
        leftovers.extend(take(cfg.light_countries, CensorTier::Light, 1, &mut iter, &mut tiers));
        leftovers.extend(take(
            cfg.ad_censor_countries,
            CensorTier::AdOnly,
            1,
            &mut iter,
            &mut tiers,
        ));
        drop(leftovers);

        let mut policies = Vec::new();
        for (cc, tier) in &tiers {
            let n_ases = match tier {
                CensorTier::Heavy => rng.gen_range(cfg.ases_per_heavy.0..=cfg.ases_per_heavy.1),
                CensorTier::Medium => rng.gen_range(cfg.ases_per_medium.0..=cfg.ases_per_medium.1),
                CensorTier::Light => rng.gen_range(cfg.ases_per_light.0..=cfg.ases_per_light.1),
                CensorTier::AdOnly => rng.gen_range(1..=2),
            };
            // Candidate ASes in the country, transit first for heavy tiers
            // (transit censors create leakage), stubs for light tiers.
            let mut candidates: Vec<Asn> = topo
                .ases()
                .iter()
                .filter(|a| a.country == *cc)
                .filter(|a| match tier {
                    CensorTier::Heavy => true,
                    // Medium censors are hosting/enterprise networks too:
                    // the paper's per-country censor lists are dominated by
                    // hosting providers, not national carriers.
                    CensorTier::Medium => a.role == AsRole::Stub,
                    // Light and ad-blocking censors are the "VPN-exit
                    // filtering" phenomenon: hosting (content) networks
                    // quietly filtering their tenants' traffic — exactly
                    // where the paper found ad-censoring ASes.
                    CensorTier::Light | CensorTier::AdOnly => {
                        a.role == AsRole::Stub
                            && a.class == churnlab_topology::AsClass::Content
                    }
                })
                .map(|a| a.asn)
                .collect();
            // Heavy countries must include at least one transit AS if one
            // exists; order candidates so transit comes first, then shuffle
            // within groups.
            let mut transit: Vec<Asn> = candidates
                .iter()
                .copied()
                .filter(|a| {
                    let info = topo.info_by_asn(*a).expect("candidate exists");
                    matches!(info.role, AsRole::NationalTransit | AsRole::RegionalIsp)
                })
                .collect();
            let mut stubs: Vec<Asn> =
                candidates.iter().copied().filter(|a| !transit.contains(a)).collect();
            transit.shuffle(&mut rng);
            stubs.shuffle(&mut rng);
            candidates = match tier {
                CensorTier::Heavy => transit.into_iter().chain(stubs).collect(),
                _ => stubs,
            };

            for asn in candidates.into_iter().take(n_ases) {
                let mechanisms = match tier {
                    CensorTier::Heavy => Mechanism::ALL.to_vec(),
                    CensorTier::Medium => {
                        let mut m = Mechanism::ALL.to_vec();
                        m.shuffle(&mut rng);
                        m.truncate(rng.gen_range(2..=3));
                        m
                    }
                    CensorTier::Light => {
                        vec![Mechanism::ALL[rng.gen_range(0..Mechanism::ALL.len())]]
                    }
                    CensorTier::AdOnly => {
                        vec![if rng.gen_bool(0.5) {
                            Mechanism::Blockpage
                        } else {
                            Mechanism::RstInjection
                        }]
                    }
                };
                let categories: BTreeSet<UrlCategory> = match tier {
                    CensorTier::AdOnly => [UrlCategory::Advertising].into_iter().collect(),
                    _ => {
                        let (lo, hi) = match tier {
                            CensorTier::Heavy => cfg.heavy_categories,
                            _ => cfg.other_categories,
                        };
                        let mut cats = UrlCategory::ALL.to_vec();
                        cats.shuffle(&mut rng);
                        cats.into_iter().take(rng.gen_range(lo..=hi.max(lo))).collect()
                    }
                };
                let profile = MechanismProfile::sample(&mut rng, crate::blockpage::corpus().len());
                // Ad-only censors never broaden their targets (they are a
                // steady commercial practice, not a political lever).
                let allow_extension = *tier != CensorTier::AdOnly;
                let phases = Self::schedule(&mut rng, cfg, categories, allow_extension);
                policies.push(CensorPolicy {
                    asn,
                    mechanisms,
                    profile,
                    phases,
                    blocklist_key: u64::from(asn.0),
                });
            }
        }

        let by_asn = policies.iter().enumerate().map(|(i, p)| (p.asn, i)).collect();
        CensorshipScenario {
            policies,
            country_tiers: tiers.into_iter().collect(),
            by_asn,
        }
    }

    /// Build a (possibly changing) schedule for one censor.
    fn schedule(
        rng: &mut StdRng,
        cfg: &CensorConfig,
        categories: BTreeSet<UrlCategory>,
        allow_extension: bool,
    ) -> Vec<PolicyPhase> {
        let total = cfg.total_days;
        if total < 90 || !rng.gen_bool(cfg.policy_change_prob.clamp(0.0, 1.0)) {
            return vec![PolicyPhase { from_day: 0, to_day: total, categories }];
        }
        let change_day = rng.gen_range(45..total - 45);
        let variant = if allow_extension { rng.gen_range(0..3u8) } else { rng.gen_range(0..2u8) };
        match variant {
            // Turn off mid-year.
            0 => vec![
                PolicyPhase { from_day: 0, to_day: change_day, categories },
                PolicyPhase { from_day: change_day, to_day: total, categories: BTreeSet::new() },
            ],
            // Turn on mid-year.
            1 => vec![
                PolicyPhase { from_day: 0, to_day: change_day, categories: BTreeSet::new() },
                PolicyPhase { from_day: change_day, to_day: total, categories },
            ],
            // Swap target set (e.g. elections: add politics/news).
            _ => {
                let mut extended = categories.clone();
                extended.insert(UrlCategory::Politics);
                extended.insert(UrlCategory::News);
                vec![
                    PolicyPhase { from_day: 0, to_day: change_day, categories },
                    PolicyPhase { from_day: change_day, to_day: total, categories: extended },
                ]
            }
        }
    }

    /// Like [`CensorshipScenario::generate`], but hosting-organization
    /// aware: a policy landing on any PoP of a multi-country hosting org is
    /// applied **org-wide** (every PoP enforces it identically — filtering
    /// by commercial providers is a provider-level practice, not a
    /// per-country one; the paper's Ireland/Spain/UK ad-censoring ASes are
    /// exactly this phenomenon), except that organizations *registered* in
    /// an exempt country never censor at all. Without this, a censoring PoP
    /// whose siblings are clean would be structurally unlocalizable: the
    /// shared public ASN is exonerated by the clean exits, turning its CNFs
    /// unsatisfiable.
    pub fn generate_for_world(
        world: &churnlab_topology::GeneratedWorld,
        cfg: &CensorConfig,
    ) -> Self {
        let mut s = Self::generate(&world.topology, cfg);
        if world.orgs.is_empty() {
            return s;
        }
        let exempt: Vec<CountryCode> =
            cfg.exempt_countries.iter().map(|c| CountryCode::new(c)).collect();
        let mut policies = std::mem::take(&mut s.policies);
        for org in &world.orgs {
            let donor =
                org.pops.iter().find_map(|p| policies.iter().position(|pol| pol.asn == *p));
            let Some(di) = donor else { continue };
            let hq_country = world
                .topology
                .info_by_asn(org.public)
                .expect("org HQ is in the topology")
                .country;
            let template = policies[di].clone();
            policies.retain(|pol| !org.pops.contains(&pol.asn));
            if exempt.contains(&hq_country) {
                continue;
            }
            for pop in &org.pops {
                let mut p = template.clone();
                p.asn = *pop;
                policies.push(p);
            }
        }
        let by_asn = policies.iter().enumerate().map(|(i, p)| (p.asn, i)).collect();
        CensorshipScenario { policies, country_tiers: s.country_tiers, by_asn }
    }

    /// The policy of `asn`, if it censors.
    pub fn policy_of(&self, asn: Asn) -> Option<&CensorPolicy> {
        self.by_asn.get(&asn).map(|&i| &self.policies[i])
    }

    /// All censoring ASNs, sorted.
    pub fn censoring_asns(&self) -> Vec<Asn> {
        let mut v: Vec<Asn> = self.by_asn.keys().copied().collect();
        v.sort();
        v
    }

    /// Ground truth: does `asn` block `category` on `day`?
    pub fn blocks(&self, asn: Asn, category: UrlCategory, day: u32) -> bool {
        self.policy_of(asn).map(|p| p.blocks_on(category, day)).unwrap_or(false)
    }

    /// Number of distinct censoring countries.
    pub fn censoring_country_count(&self, topo: &Topology) -> usize {
        let mut c: Vec<CountryCode> = self
            .censoring_asns()
            .iter()
            .filter_map(|a| topo.info_by_asn(*a).map(|i| i.country))
            .collect();
        c.sort();
        c.dedup();
        c.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_topology::{generator, WorldConfig, WorldScale};

    fn world(scale: WorldScale) -> churnlab_topology::GeneratedWorld {
        generator::generate(&WorldConfig::preset(scale, 7))
    }

    #[test]
    fn generation_deterministic() {
        let w = world(WorldScale::Small);
        let cfg = CensorConfig::scaled_for(w.topology.countries().len());
        let a = CensorshipScenario::generate(&w.topology, &cfg);
        let b = CensorshipScenario::generate(&w.topology, &cfg);
        assert_eq!(a.censoring_asns(), b.censoring_asns());
    }

    #[test]
    fn schedules_validate() {
        let w = world(WorldScale::Small);
        let cfg = CensorConfig::scaled_for(w.topology.countries().len());
        let s = CensorshipScenario::generate(&w.topology, &cfg);
        assert!(!s.policies.is_empty());
        for p in &s.policies {
            p.validate(cfg.total_days).unwrap_or_else(|e| panic!("{}: {e}", p.asn));
        }
    }

    #[test]
    fn exempt_countries_never_censor() {
        let w = world(WorldScale::Small);
        let cfg = CensorConfig::scaled_for(w.topology.countries().len());
        let s = CensorshipScenario::generate(&w.topology, &cfg);
        for asn in s.censoring_asns() {
            let info = w.topology.info_by_asn(asn).unwrap();
            assert_ne!(info.country.as_str(), "US", "US must stay censor-free");
        }
    }

    #[test]
    fn heavy_countries_have_transit_censors_and_all_mechanisms() {
        let w = world(WorldScale::Small);
        let cfg = CensorConfig::scaled_for(w.topology.countries().len());
        let s = CensorshipScenario::generate(&w.topology, &cfg);
        let heavy: Vec<CountryCode> = s
            .country_tiers
            .iter()
            .filter(|(_, t)| **t == CensorTier::Heavy)
            .map(|(c, _)| *c)
            .collect();
        assert!(!heavy.is_empty());
        for hc in heavy {
            let censors: Vec<&CensorPolicy> = s
                .policies
                .iter()
                .filter(|p| w.topology.info_by_asn(p.asn).unwrap().country == hc)
                .collect();
            assert!(!censors.is_empty());
            assert!(
                censors.iter().any(|p| {
                    let role = w.topology.info_by_asn(p.asn).unwrap().role;
                    matches!(role, AsRole::NationalTransit | AsRole::RegionalIsp)
                }),
                "heavy country {hc} lacks a transit censor"
            );
            for p in censors {
                assert_eq!(p.mechanisms.len(), Mechanism::ALL.len());
            }
        }
    }

    #[test]
    fn ad_only_censors_target_advertising_exclusively() {
        let w = world(WorldScale::Small);
        let cfg = CensorConfig::scaled_for(w.topology.countries().len());
        let s = CensorshipScenario::generate(&w.topology, &cfg);
        let ad_countries: Vec<CountryCode> = s
            .country_tiers
            .iter()
            .filter(|(_, t)| **t == CensorTier::AdOnly)
            .map(|(c, _)| *c)
            .collect();
        for cc in ad_countries {
            for p in s.policies.iter().filter(|p| {
                w.topology.info_by_asn(p.asn).unwrap().country == cc
            }) {
                for phase in &p.phases {
                    assert!(
                        phase.categories.is_empty()
                            || phase.categories
                                == [UrlCategory::Advertising].into_iter().collect(),
                        "ad-only censor {} targets {:?}",
                        p.asn,
                        phase.categories
                    );
                }
            }
        }
    }

    #[test]
    fn org_wide_policies_are_uniform() {
        let w = world(WorldScale::Small);
        let mut cfg = CensorConfig::scaled_for(w.topology.countries().len());
        // Crank the light/ad tiers so content stubs (and therefore PoPs)
        // are likely to be picked.
        cfg.light_countries = 8;
        cfg.ad_censor_countries = 4;
        let s = CensorshipScenario::generate_for_world(&w, &cfg);
        for org in &w.orgs {
            let with_policy: Vec<&crate::policy::CensorPolicy> = org
                .pops
                .iter()
                .filter_map(|p| s.policy_of(*p))
                .collect();
            // Either no PoP censors, or every PoP censors identically.
            if with_policy.is_empty() {
                continue;
            }
            assert_eq!(with_policy.len(), org.pops.len(), "{} partial org policy", org.name);
            for p in &with_policy[1..] {
                assert_eq!(p.mechanisms, with_policy[0].mechanisms);
                assert_eq!(p.phases, with_policy[0].phases);
            }
        }
    }

    #[test]
    fn orgs_registered_in_exempt_countries_never_censor() {
        let w = world(WorldScale::Small);
        let mut cfg = CensorConfig::scaled_for(w.topology.countries().len());
        cfg.light_countries = 8;
        cfg.ad_censor_countries = 4;
        // Exempt every org HQ country: no org may censor anywhere.
        cfg.exempt_countries = w
            .orgs
            .iter()
            .map(|o| w.topology.info_by_asn(o.public).unwrap().country.as_str().to_string())
            .collect();
        cfg.exempt_countries.push("US".to_string());
        let s = CensorshipScenario::generate_for_world(&w, &cfg);
        for org in &w.orgs {
            for pop in &org.pops {
                assert!(
                    s.policy_of(*pop).is_none(),
                    "{} censors despite exempt registration",
                    org.name
                );
            }
        }
    }

    #[test]
    fn some_policies_change_with_high_change_prob() {
        let w = world(WorldScale::Small);
        let mut cfg = CensorConfig::scaled_for(w.topology.countries().len());
        cfg.policy_change_prob = 1.0;
        let s = CensorshipScenario::generate(&w.topology, &cfg);
        assert!(
            s.policies.iter().any(|p| p.phases.len() > 1),
            "no policy changes despite prob=1"
        );
    }

    #[test]
    fn ground_truth_query_matches_policy() {
        let w = world(WorldScale::Small);
        let cfg = CensorConfig::scaled_for(w.topology.countries().len());
        let s = CensorshipScenario::generate(&w.topology, &cfg);
        let p = &s.policies[0];
        let day = 10;
        for cat in UrlCategory::ALL {
            assert_eq!(s.blocks(p.asn, cat, day), p.blocks_on(cat, day));
        }
        assert!(!s.blocks(Asn(999_999), UrlCategory::News, day));
    }

    #[test]
    fn paper_scale_counts_plausible() {
        let w = world(WorldScale::Paper);
        let s = CensorshipScenario::generate(&w.topology, &CensorConfig::default());
        let n_censors = s.censoring_asns().len();
        let n_countries = s.censoring_country_count(&w.topology);
        // Paper: 65 censoring ASes in 30 countries. Ground truth should be
        // in that neighbourhood (identified counts come later and are lower).
        assert!(
            (45..=110).contains(&n_censors),
            "censor count {n_censors} far from paper shape"
        );
        assert!(
            (20..=40).contains(&n_countries),
            "censor country count {n_countries} far from paper shape"
        );
    }
}
