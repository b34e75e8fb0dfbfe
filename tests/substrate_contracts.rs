//! Integration tests of the contracts between substrates: routing paths
//! feed flows, censors feed detectors, traceroutes feed conversion.

use churnlab::bgp::{ChurnConfig, RoutingSim};
use churnlab::censor::{CensorConfig, CensorshipScenario, Mechanism};
use churnlab::core::convert::{convert_measurement, ConversionStats};
use churnlab::platform::{Platform, PlatformConfig, PlatformScale};
use churnlab::topology::asys::AsRole;
use churnlab::topology::{generator, WorldConfig, WorldScale};

#[test]
fn converted_paths_are_real_routing_paths_when_noise_free() {
    let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 9));
    let mut ccfg = CensorConfig::scaled_for(world.topology.countries().len());
    ccfg.total_days = 60;
    let scenario = CensorshipScenario::generate_for_world(&world, &ccfg);
    let mut pcfg = PlatformConfig::preset(PlatformScale::Smoke, 9);
    pcfg.noise = churnlab::platform::NoiseConfig::none();
    let platform = Platform::new(&world, &scenario, pcfg.clone());
    let sim = RoutingSim::new(
        &world.topology,
        &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
    );
    let (measurements, _) = platform.run_collect_parallel(&sim, 1);
    let mut stats = ConversionStats::default();
    let mut checked = 0;
    for m in measurements.iter().take(500) {
        if let Some(path) = convert_measurement(m, platform.measured_ip2as(), &mut stats) {
            // The converted path must equal the oracle's routing path at
            // that epoch, as seen through the registry: the true source is
            // the vantage's *node* AS (an org PoP routes from its own
            // country), while every hop is reported under its public ASN.
            let vp = &platform.vantage_points()[m.vp_id as usize];
            assert_eq!(world.public_asn(vp.asn), m.vp_asn);
            let src = world.topology.idx(vp.asn).unwrap();
            let dst = world.topology.idx(m.dest_asn).unwrap();
            let oracle = sim.asn_path(src, dst, m.epoch).expect("measured ⇒ routable");
            let registry_view: Vec<_> =
                oracle.iter().map(|a| world.public_asn(*a)).collect();
            assert_eq!(path, registry_view, "conversion diverged from the true path");
            checked += 1;
        }
    }
    assert!(checked > 100, "too few conversions checked: {checked}");
}

#[test]
fn censoring_scenario_respects_world_structure() {
    let world = generator::generate(&WorldConfig::preset(WorldScale::Small, 9));
    let cfg = CensorConfig::scaled_for(world.topology.countries().len());
    let scenario = CensorshipScenario::generate_for_world(&world, &cfg);
    for p in &scenario.policies {
        assert!(
            world.topology.info_by_asn(p.asn).is_some(),
            "policy references unknown AS {}",
            p.asn
        );
        assert!(!p.mechanisms.is_empty());
        p.validate(cfg.total_days).expect("schedule valid");
    }
    // At least one heavy-country censor is a transit AS (leakage feedstock)…
    assert!(scenario.policies.iter().any(|p| {
        let role = world.topology.info_by_asn(p.asn).unwrap().role;
        matches!(role, AsRole::NationalTransit | AsRole::RegionalIsp)
    }));
    // …and at least one is a hosting (content) stub with a single mechanism
    // (the VPN-exit filtering population).
    assert!(scenario.policies.iter().any(|p| {
        let info = world.topology.info_by_asn(p.asn).unwrap();
        info.role == AsRole::Stub && p.mechanisms.len() == 1
    }) || scenario.policies.iter().any(|p| p.mechanisms == vec![Mechanism::Blockpage]
        || p.mechanisms == vec![Mechanism::RstInjection]));
}

#[test]
fn platform_dataset_shape_matches_config() {
    let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 10));
    let mut ccfg = CensorConfig::scaled_for(world.topology.countries().len());
    ccfg.total_days = 60;
    let scenario = CensorshipScenario::generate_for_world(&world, &ccfg);
    let pcfg = PlatformConfig::preset(PlatformScale::Smoke, 10);
    let platform = Platform::new(&world, &scenario, pcfg.clone());
    let sim = RoutingSim::new(
        &world.topology,
        &ChurnConfig { total_days: pcfg.total_days, ..ChurnConfig::default() },
    );
    let stats = platform.run(&sim, |_m| {});
    assert_eq!(stats.unique_urls, platform.corpus().len());
    // VP ASes count *registered* ASNs: hosting-org exits collapse onto
    // their org's public ASN (the paper's ~1,000 VPs in 539 ASes).
    let mut public: Vec<_> =
        platform.vantage_points().iter().map(|v| v.public_asn).collect();
    public.sort();
    public.dedup();
    assert_eq!(stats.vp_ases, public.len());
    assert!(stats.vp_ases <= platform.vantage_points().len());
    assert_eq!(
        stats.measurements,
        platform.vantage_points().len() as u64
            * platform.corpus().len() as u64
            * u64::from(pcfg.tests_per_pair)
    );
}
