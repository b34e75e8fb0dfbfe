//! Inter-AS links: business relationships and stability parameters.
//!
//! A [`Link`] is how links are built and read: two endpoint ASNs, a
//! relationship and a stability profile. The topology does not store it
//! that way. A record there is 12 bytes: the endpoints' dense indices,
//! the relationship, and a `u16` index into the topology's table of
//! distinct [`LinkStability`] profiles (a generated world has a handful,
//! a loaded AS-REL2 graph one), so readers get a [`Link`] by value from
//! `Topology::link` or `Topology::links`.
//!
//! Links carry two pieces of information:
//!
//! 1. The **Gao–Rexford relationship** (customer-to-provider or
//!    peer-to-peer), which constrains route export and therefore which
//!    AS-level paths can exist (valley-free routing).
//! 2. A **stability profile** driving the churn process in `churnlab-bgp`:
//!    real BGP paths change because links flap, maintenance happens, and
//!    traffic engineering shifts egress choices. The paper's key insight is
//!    that this churn substitutes for tomography monitors, so the stability
//!    model is a first-class citizen here.

use crate::asys::Asn;
use serde::{Deserialize, Serialize};

/// Identifier of a link inside a [`crate::graph::Topology`] (index into the
/// topology's link table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// The business relationship on a link, from the perspective of the link's
/// stored `(a, b)` orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Relationship {
    /// `a` is a customer of `b` (`a` pays `b` for transit).
    CustomerToProvider,
    /// `a` and `b` are settlement-free peers.
    PeerToPeer,
}

/// Per-link stability profile.
///
/// Modeled as a two-state (up/down) continuous-time process discretised to
/// days: each day the link is either usable or not. `flap_rate` is the
/// per-day probability that an *up* link goes down that day;
/// `mean_downtime_days` controls how long an outage lasts. Heavy-tailed
/// heterogeneity across links (most links are very stable, a few flap a
/// lot) is what produces the paper's Figure-3 shape, where 25% of pairs see
/// churn within a day but only 67% within a year — calibrated in the
/// generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkStability {
    /// Per-day probability an up link fails.
    pub flap_rate: f64,
    /// Mean outage length in days (geometric distribution).
    pub mean_downtime_days: f64,
}

impl LinkStability {
    /// A practically-never-failing link (core infrastructure).
    pub fn rock_solid() -> Self {
        LinkStability { flap_rate: 1e-4, mean_downtime_days: 0.5 }
    }

    /// A typical well-run link.
    pub fn stable() -> Self {
        LinkStability { flap_rate: 1e-4, mean_downtime_days: 1.0 }
    }

    /// A flappy link (congested IXP port, poorly maintained edge).
    pub fn flappy() -> Self {
        LinkStability { flap_rate: 1.2e-1, mean_downtime_days: 0.8 }
    }

    /// Per-day probability that a *down* link recovers.
    pub fn recovery_rate(&self) -> f64 {
        (1.0 / self.mean_downtime_days.max(0.25)).min(1.0)
    }

    /// Stationary probability of the link being up, from the two-state
    /// Markov chain balance equation.
    pub fn stationary_up(&self) -> f64 {
        let down = self.flap_rate;
        let up = self.recovery_rate();
        up / (up + down)
    }
}

/// An undirected inter-AS link with an oriented relationship.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// First endpoint (customer side for [`Relationship::CustomerToProvider`]).
    pub a: Asn,
    /// Second endpoint (provider side for [`Relationship::CustomerToProvider`]).
    pub b: Asn,
    /// Relationship, oriented `a → b`.
    pub rel: Relationship,
    /// Stability profile for the churn process.
    pub stability: LinkStability,
}

impl Link {
    /// Customer-to-provider link: `customer` pays `provider`.
    pub fn transit(customer: Asn, provider: Asn, stability: LinkStability) -> Self {
        Link { a: customer, b: provider, rel: Relationship::CustomerToProvider, stability }
    }

    /// Settlement-free peering link.
    pub fn peering(x: Asn, y: Asn, stability: LinkStability) -> Self {
        Link { a: x, b: y, rel: Relationship::PeerToPeer, stability }
    }

    /// The endpoint opposite `asn`, or `None` if `asn` is not on this link.
    pub fn other(&self, asn: Asn) -> Option<Asn> {
        if self.a == asn {
            Some(self.b)
        } else if self.b == asn {
            Some(self.a)
        } else {
            None
        }
    }

    /// Unordered endpoint pair, normalised (smaller ASN first) — used for
    /// duplicate-link detection.
    pub fn key(&self) -> (Asn, Asn) {
        if self.a <= self.b {
            (self.a, self.b)
        } else {
            (self.b, self.a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_endpoint() {
        let l = Link::transit(Asn(1), Asn(2), LinkStability::stable());
        assert_eq!(l.other(Asn(1)), Some(Asn(2)));
        assert_eq!(l.other(Asn(2)), Some(Asn(1)));
        assert_eq!(l.other(Asn(3)), None);
    }

    #[test]
    fn key_is_normalised() {
        let l1 = Link::peering(Asn(9), Asn(2), LinkStability::stable());
        let l2 = Link::peering(Asn(2), Asn(9), LinkStability::stable());
        assert_eq!(l1.key(), l2.key());
        assert_eq!(l1.key(), (Asn(2), Asn(9)));
    }

    #[test]
    fn stationary_up_probability_sane() {
        for s in [LinkStability::rock_solid(), LinkStability::stable(), LinkStability::flappy()] {
            let p = s.stationary_up();
            assert!(p > 0.5 && p <= 1.0, "stationary up {p} out of range for {s:?}");
        }
        // More flapping => lower availability.
        assert!(
            LinkStability::flappy().stationary_up() < LinkStability::rock_solid().stationary_up()
        );
    }

    #[test]
    fn recovery_rate_capped_at_one() {
        let s = LinkStability { flap_rate: 0.1, mean_downtime_days: 0.01 };
        assert!(s.recovery_rate() <= 1.0);
    }
}
