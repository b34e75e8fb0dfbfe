//! Router-level hop paths.
//!
//! The routing simulator produces *AS-level* paths; traceroutes and TTL
//! arithmetic operate on *router-level* hops. This module expands an AS
//! path into a hop path: each AS contributes one to three router hops,
//! each with an interface address drawn from one of that AS's announced
//! prefixes (so the IP-to-AS database can map hops back — or fail to, when
//! the database is degraded).

use churnlab_topology::{Asn, Ipv4Prefix};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One router-level hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hop {
    /// Interface address that answers traceroute probes.
    pub ip: u32,
    /// Ground-truth owner AS (detectors must NOT read this; only the
    /// IP-to-AS database is fair game for inference).
    pub asn: Asn,
    /// Index of the owner AS within the AS-level path.
    pub as_pos: usize,
}

/// A router-level path from a client to a server.
///
/// `hops` excludes the client itself and ends with the server interface,
/// mirroring what traceroute shows. Build one with [`HopPath::expand`] or
/// refill one with [`HopPath::expand_into`]: expansion also records each
/// hop's cumulative delay and each AS's first hop, which the flow
/// simulator asks for several times per forwarded packet per observer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopPath {
    /// The AS-level path, client's AS first, server's AS last.
    pub as_path: Vec<Asn>,
    /// Router hops in forward (client → server) order.
    pub hops: Vec<Hop>,
    /// The server address (also the last hop's address).
    pub server_ip: u32,
    /// The client address (inside `as_path[0]`).
    pub client_ip: u32,
    /// One-way delay to each hop, microseconds (parallel to `hops`).
    delay_us: Vec<u64>,
    /// Index of the first hop of each AS (parallel to `as_path`).
    first_hop: Vec<u32>,
}

impl HopPath {
    /// Expand an AS-level path to router hops.
    ///
    /// * `as_path` — client AS first, server AS last; must be non-empty.
    /// * `prefixes` — announced prefixes per AS (ground truth).
    /// * `server_ip` — address inside the last AS.
    /// * `routers_per_as` — inclusive range of router hops each transit AS
    ///   contributes (the first AS contributes its egress only; the last
    ///   contributes ingress routers plus the server).
    ///
    /// # Panics
    /// If the path expands to more router hops than an 8-bit TTL can
    /// cross (see [`HopPath::expand_into`]).
    pub fn expand<R: Rng>(
        as_path: &[Asn],
        prefixes: &HashMap<Asn, Vec<Ipv4Prefix>>,
        client_ip: u32,
        server_ip: u32,
        routers_per_as: (usize, usize),
        rng: &mut R,
    ) -> Self {
        let mut path = HopPath::default();
        path.expand_into(as_path, prefixes, client_ip, server_ip, routers_per_as, rng);
        path
    }

    /// [`HopPath::expand`] into `self`, reusing its vectors: the
    /// measurement loop expands one path per test.
    ///
    /// # Panics
    /// If the expansion has more than 256 hops: every TTL computed over
    /// the path counts hops in a `u8`, and the server's packets could not
    /// reach the client anyway.
    pub fn expand_into<R: Rng>(
        &mut self,
        as_path: &[Asn],
        prefixes: &HashMap<Asn, Vec<Ipv4Prefix>>,
        client_ip: u32,
        server_ip: u32,
        routers_per_as: (usize, usize),
        rng: &mut R,
    ) {
        assert!(!as_path.is_empty(), "AS path must be non-empty");
        let HopPath { hops, delay_us, first_hop, .. } = self;
        hops.clear();
        first_hop.clear();
        for (pos, asn) in as_path.iter().enumerate() {
            let n = if pos == 0 {
                1 // client-side egress router
            } else {
                rng.gen_range(routers_per_as.0.max(1)..=routers_per_as.1.max(1))
            };
            first_hop.push(hops.len() as u32);
            for _ in 0..n {
                let ip = match prefixes.get(asn).filter(|ps| !ps.is_empty()) {
                    Some(ps) => {
                        let p = ps[rng.gen_range(0..ps.len())];
                        p.nth_host(rng.gen::<u32>())
                    }
                    // An AS with no known prefix: fabricate an address in
                    // space the DB won't map (exercises elimination rule 1).
                    None => 0xc612_0000 | rng.gen::<u16>() as u32, // 198.18/15 benchmark space
                };
                hops.push(Hop { ip, asn: *asn, as_pos: pos });
            }
        }
        // Final hop: the server itself.
        let last_pos = as_path.len() - 1;
        hops.push(Hop { ip: server_ip, asn: as_path[last_pos], as_pos: last_pos });
        assert!(
            u8::try_from(hops.len() - 1).is_ok(),
            "an AS path of {} ASes expands to {} router hops; a TTL counts at most 255",
            as_path.len(),
            hops.len(),
        );
        // 2 ms-scale cost per router hop within a region; AS boundaries
        // cost more (long-haul). Deterministic: depends only on hop
        // structure.
        delay_us.clear();
        let mut us = 0u64;
        for (i, h) in hops.iter().enumerate() {
            let boundary = i == 0 || hops[i - 1].as_pos != h.as_pos;
            us += if boundary { 6_000 } else { 1_500 };
            delay_us.push(us);
        }
        self.as_path.clear();
        self.as_path.extend_from_slice(as_path);
        self.server_ip = server_ip;
        self.client_ip = client_ip;
    }

    /// Number of router hops between client and server (forward direction).
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True if there are no hops (degenerate single-AS path still has the
    /// server hop, so this is false in practice).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Remaining TTL observed at the client for a packet sent by the
    /// element at `hop_index` (0 = first hop after the client) with initial
    /// TTL `initial`.
    ///
    /// The return path is assumed symmetric: a packet from hop `i` crosses
    /// `i + 1` routers back to the client? No — it crosses exactly the
    /// routers between it and the client, which is `i` (the sender itself
    /// does not decrement). This asymmetry between an on-path injector and
    /// the distant server is exactly the paper's TTL side channel.
    pub fn ttl_at_client_from_hop(&self, hop_index: usize, initial: u8) -> u8 {
        u8::try_from(hop_index).map_or(0, |crossed| initial.saturating_sub(crossed))
    }

    /// Remaining TTL observed at the client for a packet sent by the
    /// server with initial TTL `initial`.
    pub fn ttl_at_client_from_server(&self, initial: u8) -> u8 {
        // The server is the last hop; its packets cross every other hop.
        self.ttl_at_client_from_hop(self.hops.len() - 1, initial)
    }

    /// The initial TTL that makes a packet injected at `hop_index` reach
    /// the client with the remaining TTL of the server's packets (sent
    /// with `server_initial`) — what a TTL-mimicking injector stamps.
    pub fn mimic_init_ttl(&self, hop_index: usize, server_initial: u8) -> u8 {
        let crossed = u8::try_from(hop_index).unwrap_or(u8::MAX);
        self.ttl_at_client_from_server(server_initial).saturating_add(crossed)
    }

    /// The first hop index owned by the AS at `as_pos` in the AS path, if
    /// any hop belongs to it.
    pub fn first_hop_of_as(&self, as_pos: usize) -> Option<usize> {
        self.first_hop.get(as_pos).map(|&h| h as usize)
    }

    /// One-way propagation delay to hop `i`, microseconds, under a simple
    /// per-hop cost model (deterministic per path shape).
    pub fn delay_to_hop_us(&self, hop_index: usize) -> u64 {
        // Past the server there is nothing further to cross.
        self.delay_us.get(hop_index).or(self.delay_us.last()).copied().unwrap_or(0)
    }

    /// Round-trip time client↔server in microseconds.
    pub fn rtt_us(&self) -> u64 {
        2 * self.delay_to_hop_us(self.hops.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn prefix_map(asns: &[u32]) -> HashMap<Asn, Vec<Ipv4Prefix>> {
        asns.iter()
            .enumerate()
            .map(|(i, &a)| {
                (Asn(a), vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()])
            })
            .collect()
    }

    fn sample_path() -> HopPath {
        let asns = [10, 20, 30, 40];
        let prefixes = prefix_map(&asns);
        let mut rng = StdRng::seed_from_u64(1);
        let server_ip = prefixes[&Asn(40)][0].nth_host(99);
        let client_ip = prefixes[&Asn(10)][0].nth_host(1);
        HopPath::expand(
            &asns.map(Asn),
            &prefixes,
            client_ip,
            server_ip,
            (1, 2),
            &mut rng,
        )
    }

    #[test]
    fn expansion_covers_every_as_in_order() {
        let p = sample_path();
        // Positions must be non-decreasing and cover 0..=3.
        let positions: Vec<usize> = p.hops.iter().map(|h| h.as_pos).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted, "hops must follow AS path order");
        for pos in 0..4 {
            assert!(positions.contains(&pos), "AS position {pos} missing");
        }
        assert_eq!(*p.hops.last().unwrap(), Hop { ip: p.server_ip, asn: Asn(40), as_pos: 3 });
    }

    #[test]
    fn hop_ips_belong_to_owner_prefix() {
        let p = sample_path();
        let prefixes = prefix_map(&[10, 20, 30, 40]);
        for h in &p.hops {
            let ps = &prefixes[&h.asn];
            assert!(
                ps.iter().any(|px| px.contains(h.ip)),
                "hop {} not inside {}'s prefixes",
                std::net::Ipv4Addr::from(h.ip),
                h.asn
            );
        }
    }

    #[test]
    fn server_ttl_lower_than_onpath_injector() {
        let p = sample_path();
        let server_ttl = p.ttl_at_client_from_server(64);
        // An injector at the first AS boundary is closer: higher TTL remains.
        let censor_hop = p.first_hop_of_as(1).unwrap();
        let censor_ttl = p.ttl_at_client_from_hop(censor_hop, 64);
        assert!(censor_ttl > server_ttl, "{censor_ttl} <= {server_ttl}");
    }

    #[test]
    fn ttl_saturates() {
        let p = sample_path();
        assert_eq!(p.ttl_at_client_from_hop(200, 64), 0);
    }

    #[test]
    fn delays_monotonic() {
        let p = sample_path();
        let mut last = 0;
        for i in 0..p.len() {
            let d = p.delay_to_hop_us(i);
            assert!(d > last, "delay must strictly increase");
            last = d;
        }
        assert_eq!(p.rtt_us(), 2 * p.delay_to_hop_us(p.len() - 1));
    }

    #[test]
    fn recorded_delays_and_first_hops_equal_the_linear_scans() {
        let prefixes = prefix_map(&[10, 20, 30, 40, 50]);
        let asns = [10, 20, 30, 40, 50].map(Asn);
        let mut reused = HopPath::default();
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1 + (seed as usize) % asns.len();
            reused.expand_into(&asns[..n], &prefixes, 1, 2, (1, 3), &mut rng);
            let fresh =
                HopPath::expand(&asns[..n], &prefixes, 1, 2, (1, 3), &mut StdRng::seed_from_u64(seed));
            assert_eq!(reused, fresh, "a refilled path equals a fresh expansion");
            for pos in 0..n + 2 {
                assert_eq!(
                    reused.first_hop_of_as(pos),
                    reused.hops.iter().position(|h| h.as_pos == pos),
                    "seed {seed} AS position {pos}"
                );
            }
            let mut us = 0;
            for (i, h) in reused.hops.iter().enumerate() {
                let boundary = i == 0 || reused.hops[i - 1].as_pos != h.as_pos;
                us += if boundary { 6_000 } else { 1_500 };
                assert_eq!(reused.delay_to_hop_us(i), us, "seed {seed} hop {i}");
            }
            assert_eq!(reused.delay_to_hop_us(reused.len() + 5), us);
        }
    }

    #[test]
    fn mimic_ttl_cancels_the_injector_position() {
        let p = sample_path();
        for hop in 0..p.len() {
            let init = p.mimic_init_ttl(hop, 64);
            assert_eq!(p.ttl_at_client_from_hop(hop, init), p.ttl_at_client_from_server(64));
        }
    }

    /// `n` ASes at one router each: `n + 1` hops.
    fn straight_path(n: u32) -> HopPath {
        let asns: Vec<Asn> = (1..=n).map(Asn).collect();
        HopPath::expand(&asns, &HashMap::new(), 1, 2, (1, 1), &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn longest_path_a_ttl_can_cross_still_expands() {
        let p = straight_path(255);
        assert_eq!(p.len(), 256);
        assert_eq!(p.ttl_at_client_from_server(255), 0);
        assert_eq!(p.ttl_at_client_from_server(64), 0);
        assert_eq!(p.ttl_at_client_from_hop(1000, 64), 0, "a hop count past u8 saturates, never wraps");
        assert_eq!(p.mimic_init_ttl(255, 255), 255);
    }

    #[test]
    #[should_panic(expected = "an AS path of 256 ASes expands to 257 router hops")]
    fn path_too_long_for_a_ttl_fails_loudly() {
        straight_path(256);
    }

    #[test]
    fn unknown_as_gets_unmappable_address() {
        let prefixes = prefix_map(&[10]);
        let mut rng = StdRng::seed_from_u64(3);
        let p = HopPath::expand(
            &[Asn(10), Asn(999)],
            &prefixes,
            1,
            2,
            (1, 1),
            &mut rng,
        );
        let orphan = p.hops.iter().find(|h| h.asn == Asn(999) && h.ip != 2).unwrap();
        assert_eq!(orphan.ip >> 16, 0xc612, "orphan hops live in 198.18/15");
    }

    #[test]
    fn deterministic_given_seed() {
        let prefixes = prefix_map(&[10, 20, 30]);
        let mk = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            HopPath::expand(&[Asn(10), Asn(20), Asn(30)], &prefixes, 1, 2, (1, 3), &mut rng)
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
    }
}
