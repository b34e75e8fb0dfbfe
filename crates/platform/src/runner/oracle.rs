//! The runner as it was before quiet tests: every censoring AS on a
//! test's path armed, both flows built and the five detectors run for
//! every routed test, one URL's whole campaign at a time. The product
//! runner must reproduce it measurement for measurement.

use super::*;

impl<'w> Platform<'w> {
    /// Every measurement of `url`'s campaign, in (day, vantage, slot)
    /// order.
    pub(super) fn oracle_url<'p>(
        &'p self,
        sim: &RoutingSim,
        url: &UrlEntry,
        bufs: &mut TestBuffers<'p>,
    ) -> Vec<Measurement> {
        bufs.wire = UrlWire::of(url);
        let schedule = self.fleet_schedule();
        let interval = self.cfg.testing_interval_days();
        let phase = (mix64(self.cfg.seed ^ u64::from(url.id)) % u64::from(interval)) as u32;
        let plan = schedule.plan_for_url(url.id);
        let epochs_per_day = sim.mapper().epochs_per_day;
        let k = self.cfg.tests_per_testing_day.max(1);
        let mut day_vps = Vec::new();
        let mut out = Vec::new();
        for day in 0..self.cfg.total_days {
            if day % interval != phase {
                continue;
            }
            plan.day_subset_into(day / interval, &mut day_vps);
            let mut rng = StdRng::seed_from_u64(mix64(
                self.cfg.seed ^ (u64::from(url.id) << 32) ^ u64::from(day),
            ));
            for &vi in &day_vps {
                let vp = &self.vantage[vi];
                for t in 0..k {
                    let seg = (epochs_per_day * t / k, (epochs_per_day * (t + 1) / k).max(epochs_per_day * t / k + 1));
                    let slot = rng.gen_range(seg.0..seg.1.min(epochs_per_day));
                    out.push(self.oracle_test(sim, vp, url, day, slot, &mut rng, bufs));
                }
            }
        }
        out
    }

    /// One test with every censor on the path armed and every flow built,
    /// its hops expanded from the ASN path (the product expands the
    /// AS-index path).
    #[allow(clippy::too_many_arguments)]
    fn oracle_test<'p>(
        &'p self,
        sim: &RoutingSim,
        vp: &VantagePoint,
        url: &UrlEntry,
        day: u32,
        slot: u32,
        rng: &mut StdRng,
        bufs: &mut TestBuffers<'p>,
    ) -> Measurement {
        let TestBuffers {
            paths: _,
            wire,
            hops,
            alt_hops,
            armed,
            dns_cap,
            http_cap,
            reassembly,
            detect: scratch,
            traceroutes,
        } = bufs;
        let epoch = sim.mapper().epoch(day, slot);
        let topo = &self.world.topology;
        let vp_idx = topo.idx(vp.asn).expect("vantage AS exists");
        let dest_idx = topo.idx(url.server_asn).expect("dest AS exists");
        let record = |detected, traceroutes, failed| Measurement {
            vp_id: vp.id,
            vp_asn: vp.public_asn,
            url_id: url.id,
            dest_asn: url.server_asn,
            day,
            epoch,
            detected,
            traceroutes,
            failed,
        };
        let (mut asn_path, mut alt) = (Vec::new(), Vec::new());
        if !sim.asn_path_into(vp_idx, dest_idx, epoch, &mut asn_path) {
            return record(AnomalySet::empty(), Traceroutes::no_route(), true);
        }
        let (prefixes, routers) = (&self.world.prefixes, self.cfg.routers_per_as);
        hops.expand_into(&asn_path, prefixes, vp.ip, url.server_ip, routers, rng);
        let hop_path: &HopPath = hops;
        let flow_cfg = FlowConfig {
            client_port: rng.gen_range(32768..61000),
            isn_client: rng.gen(),
            isn_server: rng.gen(),
            organic_rst: rng.gen_bool(self.cfg.noise.organic_rst_prob.clamp(0.0, 1.0)),
            organic_loss: rng.gen_bool(self.cfg.noise.organic_loss_prob.clamp(0.0, 1.0)),
            ..FlowConfig::default()
        };
        armed.clear();
        for (pos, asn) in asn_path.iter().enumerate() {
            if let Some(compiled) = self.compiled.get(asn) {
                let hop = hop_path.first_hop_of_as(pos).expect("AS on path has hops");
                let mimic = hop_path.mimic_init_ttl(hop, flow_cfg.server_init_ttl);
                armed.push((pos, ActiveCensor::new(compiled, TestContext { day, mimic_init_ttl: mimic })));
            }
        }
        let id: u16 = rng.gen();
        FlowSimulator::dns_lookup_into(
            hop_path,
            &flow_cfg,
            DnsMessage::stamp_id(&wire.dns_query, id),
            Some(DnsMessage::stamp_id(&wire.dns_answer, id)),
            armed,
            dns_cap,
        );
        let fetched = FlowSimulator::http_get_into(
            hop_path, &flow_cfg, &wire.get, &wire.page, armed, http_cap, reassembly,
        );
        let mut detected = detect::detect_all_into(
            dns_cap,
            http_cap,
            fetched.body(),
            &self.fingerprints,
            Some(wire.body()),
            scratch,
        );
        for (ti, t) in AnomalyType::ALL.into_iter().enumerate() {
            let tag = mix64(
                self.cfg.seed ^ (u64::from(vp.id) << 40) ^ (u64::from(url.id) << 8) ^ ti as u64,
            );
            let roll = tag as f64 / u64::MAX as f64;
            if detected.contains(t) {
                if roll < self.cfg.noise.fn_(t).clamp(0.0, 1.0) {
                    detected.remove(t);
                }
            } else if roll < self.cfg.noise.fp(t).clamp(0.0, 1.0) {
                detected.insert(t);
            }
        }
        for i in 0..3 {
            let shifted =
                i == 2 && rng.gen_bool(self.cfg.noise.intra_test_shift_prob.clamp(0.0, 1.0));
            let path = if shifted
                && sim.asn_path_into(vp_idx, dest_idx, epoch + 1, &mut alt)
                && alt != asn_path
            {
                alt_hops.expand_into(&alt, prefixes, vp.ip, url.server_ip, routers, rng);
                &*alt_hops
            } else {
                hop_path
            };
            let error = self.cfg.noise.traceroute.run(path, rng, |hop| traceroutes.hop(hop));
            traceroutes.end_run(error);
        }
        record(detected, traceroutes.finish().expect("three runs fit"), false)
    }
}

/// Hold [`Platform::run`] against the oracle, one URL at a time (so a
/// study of millions of tests holds one URL's worth), and return how many
/// tests it compared.
pub(super) fn assert_runner_equals_oracle(platform: &Platform, sim: &RoutingSim) -> u64 {
    let mut bufs = TestBuffers::default();
    let mut want = Vec::new().into_iter();
    let (mut url, mut urls, mut compared) = (None, 0, 0u64);
    platform.run(sim, |got| {
        if url != Some(got.url_id) {
            assert_eq!(want.next(), None, "the runner dropped tests of URL {url:?}");
            assert_eq!(got.url_id, urls, "URLs stream in corpus order");
            url = Some(got.url_id);
            urls += 1;
            want = platform.oracle_url(sim, platform.corpus().get(got.url_id), &mut bufs).into_iter();
        }
        let expected = want.next().expect("the runner ran a test the oracle did not");
        assert_eq!(got, expected, "test {compared} differs from the oracle's");
        compared += 1;
    });
    assert_eq!(want.next(), None, "the runner dropped tests of the last URL");
    assert_eq!(urls as usize, platform.corpus().len(), "every URL has tests");
    compared
}
