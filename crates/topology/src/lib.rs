//! # churnlab-topology
//!
//! AS-level Internet topology substrate for churnlab.
//!
//! The paper ("A Churn for the Better", CoNExT 2017) operates on the real
//! Internet: AS-level paths derived from traceroutes between ICLab vantage
//! points and web servers, an IP-to-AS mapping from CAIDA, and CAIDA's AS
//! classification database. None of those are available offline, so this
//! crate provides the synthetic equivalent:
//!
//! * [`geo`] — countries and geographic regions (censorship policies are
//!   jurisdictional, and *leakage* is defined across country borders).
//! * [`asys`] — autonomous systems: ASNs, names, CAIDA-style classes.
//! * [`links`] — inter-AS relationships (customer-to-provider /
//!   peer-to-peer, following Gao–Rexford) and per-link stability
//!   parameters that later drive BGP path churn.
//! * [`graph`] — the topology container with relationship-aware adjacency
//!   queries (one kind-grouped CSR, built from the link list at freeze)
//!   and structural validation.
//! * [`asrel`] — CAIDA AS-REL2 edge-list loader/writer, so worlds can be
//!   swapped with the real inferred AS graph or exported to it.
//! * [`hash`] — the fast integer-key hasher shared by the hot maps, and
//!   the run-stable `mix64` / `fnv1a` every layer seeds and digests with.
//! * [`prefix`] — IPv4 prefixes and the flat per-AS prefix table.
//! * [`ip2as`] — a longest-prefix-match IP-to-AS database (the CAIDA
//!   mapping substitute), with optional staleness to exercise the paper's
//!   "IP-to-AS mapping was not possible" elimination rule.
//! * [`generator`] — a seeded hierarchical Internet generator (tier-1
//!   clique, national transits, regional ISPs, multi-homed stubs, IXP-style
//!   peering) that produces worlds with realistic path diversity.
//!
//! Everything is deterministic given a seed; no global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asrel;
pub mod asys;
pub mod generator;
pub mod geo;
pub mod graph;
pub mod hash;
pub mod ip2as;
pub mod links;
pub mod prefix;

pub use asrel::{load_asrel2, write_asrel2};
pub use asys::{AsClass, AsInfo, AsRole, Asn};
pub use generator::{GeneratedWorld, HostingOrg, WorldConfig, WorldScale};
pub use geo::{Country, CountryCode, Region};
pub use graph::{AsIdx, Topology};
pub use hash::{fnv1a, fnv1a_extend, mix64, FxMap, FxSet};
pub use ip2as::{Ip2AsDb, Ip2AsNoise};
pub use links::{Link, LinkId, LinkStability, Relationship};
pub use prefix::{Ipv4Prefix, PrefixTable};

/// Errors produced while constructing or validating topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An ASN was inserted twice.
    DuplicateAsn(Asn),
    /// A link references an ASN that is not in the topology.
    UnknownAsn(Asn),
    /// A link connects an AS to itself.
    SelfLink(Asn),
    /// The same unordered AS pair has more than one link.
    DuplicateLink(Asn, Asn),
    /// The customer-to-provider digraph contains a cycle
    /// (an AS would transitively be its own provider).
    ProviderCycle(Asn),
    /// The topology is not connected (some AS cannot reach a tier-1).
    Disconnected(Asn),
    /// A prefix was allocated to two different ASes.
    PrefixConflict(Ipv4Prefix),
    /// Invalid prefix length (> 32).
    BadPrefixLen(u8),
    /// `count` items of a kind (ASes, links, adjacency entries) do not
    /// fit the `u32` indices and offsets they are stored under.
    TooMany {
        /// What was counted.
        what: &'static str,
        /// How many there would be.
        count: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DuplicateAsn(a) => write!(f, "duplicate ASN {a}"),
            TopologyError::UnknownAsn(a) => write!(f, "unknown ASN {a}"),
            TopologyError::SelfLink(a) => write!(f, "self link on {a}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}-{b}"),
            TopologyError::ProviderCycle(a) => write!(f, "provider cycle through {a}"),
            TopologyError::Disconnected(a) => write!(f, "{a} is disconnected from the core"),
            TopologyError::PrefixConflict(p) => write!(f, "prefix {p} allocated twice"),
            TopologyError::BadPrefixLen(l) => write!(f, "bad prefix length /{l}"),
            TopologyError::TooMany { what, count } => {
                write!(f, "{count} {what} do not fit a u32 index")
            }
        }
    }
}

impl std::error::Error for TopologyError {}
