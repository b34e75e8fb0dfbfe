//! Traceroute engine over hop paths.
//!
//! ICLab records traceroutes alongside each measurement; the paper's
//! clause formulation (§3.1) then discards tests whose traceroutes are
//! inconclusive: complete failures, unmappable hops, or non-responsive
//! hops flanked by different ASes. This engine produces exactly those
//! kinds of imperfect traceroutes: per-hop non-response, whole-run
//! failures, and early truncation.

use crate::hops::HopPath;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Traceroute failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TracerouteError {
    /// The run produced no usable output (tool error, ICMP filtered
    /// everywhere).
    Failed,
    /// The run stopped before reaching the destination.
    Truncated,
}

/// Configuration for the traceroute engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracerouteConfig {
    /// Probability any individual hop does not answer (shown as `*`).
    pub nonresponse_prob: f64,
    /// Probability the entire run fails.
    pub failure_prob: f64,
    /// Probability the run truncates at a random hop before the end.
    pub truncate_prob: f64,
}

impl Default for TracerouteConfig {
    fn default() -> Self {
        TracerouteConfig { nonresponse_prob: 0.05, failure_prob: 0.01, truncate_prob: 0.01 }
    }
}

impl TracerouteConfig {
    /// A perfectly reliable tracerouting world (for noise-free scenarios).
    pub fn ideal() -> Self {
        TracerouteConfig { nonresponse_prob: 0.0, failure_prob: 0.0, truncate_prob: 0.0 }
    }

    /// Run one traceroute over `path`, handing each hop it records to
    /// `hop` in order (`None` for a `*`), and return the run's error.
    /// The caller keeps the hops where it likes — a measurement packs
    /// all three runs of a test into one block.
    pub fn run<R: Rng>(
        &self,
        path: &HopPath,
        rng: &mut R,
        mut hop: impl FnMut(Option<u32>),
    ) -> Option<TracerouteError> {
        if rng.gen_bool(self.failure_prob.clamp(0.0, 1.0)) {
            return Some(TracerouteError::Failed);
        }
        let total = path.len();
        let cutoff = if total > 1 && rng.gen_bool(self.truncate_prob.clamp(0.0, 1.0)) {
            Some(rng.gen_range(1..total))
        } else {
            None
        };
        for h in &path.hops[..cutoff.unwrap_or(total)] {
            let answered = !rng.gen_bool(self.nonresponse_prob.clamp(0.0, 1.0));
            hop(answered.then_some(h.ip));
        }
        cutoff.map(|_| TracerouteError::Truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_topology::{Asn, Ipv4Prefix, PrefixTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path() -> HopPath {
        let asns = [Asn(1), Asn(2), Asn(3), Asn(4)];
        let prefixes: PrefixTable = asns
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, vec![Ipv4Prefix::new(((i as u32) + 1) << 24, 16).unwrap()]))
            .collect();
        let mut rng = StdRng::seed_from_u64(5);
        let server = prefixes.of_asn(Asn(4))[0].nth_host(1);
        HopPath::expand(&asns, &prefixes, 7, server, (1, 2), &mut rng)
    }

    /// One run's hops and error.
    fn run(cfg: &TracerouteConfig, seed: u64) -> (Vec<Option<u32>>, Option<TracerouteError>) {
        let mut hops = Vec::new();
        let error = cfg.run(&path(), &mut StdRng::seed_from_u64(seed), |h| hops.push(h));
        (hops, error)
    }

    #[test]
    fn ideal_traceroute_is_complete() {
        let p = path();
        let (hops, error) = run(&TracerouteConfig::ideal(), 1);
        assert!(error.is_none());
        // Every hop answers, as the underlying path's router, up to the
        // server.
        let want: Vec<_> = p.hops.iter().map(|h| Some(h.ip)).collect();
        assert_eq!(hops, want);
        assert_eq!(hops.last(), Some(&Some(p.server_ip)));
    }

    #[test]
    fn failure_produces_empty_run() {
        let cfg = TracerouteConfig { failure_prob: 1.0, ..TracerouteConfig::ideal() };
        let (hops, error) = run(&cfg, 2);
        assert_eq!(error, Some(TracerouteError::Failed));
        assert!(hops.is_empty());
    }

    #[test]
    fn nonresponse_shows_stars() {
        let cfg = TracerouteConfig { nonresponse_prob: 1.0, ..TracerouteConfig::ideal() };
        let (hops, error) = run(&cfg, 3);
        assert!(error.is_none());
        assert_eq!(hops.len(), path().len());
        assert!(hops.iter().all(|h| h.is_none()));
    }

    #[test]
    fn truncation_shortens_run() {
        let cfg = TracerouteConfig { truncate_prob: 1.0, ..TracerouteConfig::ideal() };
        let (hops, error) = run(&cfg, 4);
        assert_eq!(error, Some(TracerouteError::Truncated));
        assert!(hops.len() < path().len());
        assert!(!hops.is_empty());
    }

    #[test]
    fn deterministic_given_rng() {
        let cfg = TracerouteConfig::default();
        assert_eq!(run(&cfg, 11), run(&cfg, 11));
    }
}
