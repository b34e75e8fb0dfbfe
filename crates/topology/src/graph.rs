//! The topology container: AS metadata, links, relationship-aware
//! adjacency, and structural validation.
//!
//! A topology is built by appending: `add_as` records an AS and
//! `add_link` a link, while a set of the linked pairs catches duplicates.
//! A link is stored once, as a 12-byte record: its endpoints' dense
//! indices, its relationship, and a `u16` index into the table of the
//! distinct [`LinkStability`] profiles the topology has met (`add_link`
//! interns them; a generated world has a handful). Readers get a
//! [`Link`] by value back from [`Topology::link`] and [`Topology::links`].
//!
//! Adjacency has one layout, a kind-grouped CSR — one flat arena of
//! 8-byte `Adjacency` entries (neighbour, link) plus per-AS offsets, each
//! AS's run holding its providers, then its peers, then its customers,
//! each in link-id order — so the routing layer's passes stream
//! contiguous memory and walk exactly the edge kind they propagate. An
//! entry's kind is the run it sits in ([`Topology::edge_runs`]). The CSR
//! is made from the link records by a counting sort, either by
//! [`Topology::freeze`] (which also drops the pair set) or by the first
//! query after a mutation; a mutation drops it. An `add_link` after a
//! freeze rebuilds the pair set from the link records, once.
//!
//! At Huge (62,169 ASes, 541,948 links) that is 6.5 MB of link records
//! and 9.4 MB of CSR, against 21.7 MB and 13.0 MB for 32-byte links, a
//! second copy of their endpoints and 12-byte entries.

use crate::asys::{AsInfo, AsRole, Asn};
use crate::geo::{Country, CountryCode};
use crate::hash::{FxMap, FxSet};
use crate::links::{Link, LinkId, LinkStability, Relationship};
use crate::TopologyError;
use serde::{Deserialize, Serialize};
use std::mem::size_of;
use std::sync::OnceLock;

/// Dense index of an AS inside a [`Topology`] (stable for the lifetime of
/// the topology; used by the routing simulator for array-indexed state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AsIdx(pub u32);

impl AsIdx {
    /// As a usize, for indexing.
    #[inline]
    pub fn usize(self) -> usize {
        self.0 as usize
    }
}

/// Direction of an adjacency entry from the perspective of the AS that owns
/// the entry: which of its three runs the entry sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// The neighbour is my provider (I send them money).
    ToProvider,
    /// The neighbour is my customer.
    ToCustomer,
    /// The neighbour is a settlement-free peer.
    ToPeer,
}

impl EdgeKind {
    /// The kinds of a link's entries at its `a` and `b` ends.
    fn of(rel: Relationship) -> (EdgeKind, EdgeKind) {
        match rel {
            Relationship::CustomerToProvider => (EdgeKind::ToProvider, EdgeKind::ToCustomer),
            Relationship::PeerToPeer => (EdgeKind::ToPeer, EdgeKind::ToPeer),
        }
    }

    /// Position of this kind's run inside an AS's adjacency.
    fn run(self) -> usize {
        match self {
            EdgeKind::ToProvider => 0,
            EdgeKind::ToPeer => 1,
            EdgeKind::ToCustomer => 2,
        }
    }
}

/// One adjacency entry: neighbour and the link it rides on. Its
/// [`EdgeKind`] is the run it sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    /// Neighbour AS.
    pub peer: AsIdx,
    /// Link identifier (for churn state lookups).
    pub link: LinkId,
}

/// A link as the topology stores it: 12 bytes, where a [`Link`] is 32.
#[derive(Debug, Clone, Copy)]
struct LinkRecord {
    a: AsIdx,
    b: AsIdx,
    /// Index into [`Topology::profiles`].
    profile: u16,
    rel: Relationship,
}

/// The bits of a stability profile, so equal profiles intern to one
/// entry (a NaN included).
fn profile_key(s: &LinkStability) -> [u64; 2] {
    [s.flap_rate.to_bits(), s.mean_downtime_days.to_bits()]
}

/// `count` as a `u32` index or offset, or [`TopologyError::TooMany`].
fn checked_u32(count: usize, what: &'static str) -> Result<u32, TopologyError> {
    u32::try_from(count).map_err(|_| TopologyError::TooMany { what, count })
}

/// The CSR's length for `links` links: two entries a link, as a `u32`
/// offset.
fn csr_len(links: usize) -> Result<u32, TopologyError> {
    checked_u32(links.saturating_mul(2), "adjacency entries")
}

/// Compressed sparse row adjacency: AS `i`'s neighbours are
/// `flat[off[i]..off[i + 1]]` — providers `flat[off[i]..prov_end[i]]`,
/// peers `flat[prov_end[i]..peer_end[i]]`, customers
/// `flat[peer_end[i]..off[i + 1]]` — each run in link-id order.
#[derive(Debug, Clone)]
struct Csr {
    /// Per-AS start offsets into `flat`, plus the terminal length.
    off: Vec<u32>,
    /// Per-AS end of the provider run (= start of the peer run).
    prov_end: Vec<u32>,
    /// Per-AS end of the peer run (= start of the customer run).
    peer_end: Vec<u32>,
    /// All adjacency entries, grouped by owning AS, then by kind.
    flat: Vec<Adjacency>,
}

impl Csr {
    /// Counting sort of the link list: count each AS's entries of each
    /// kind, turn the counts into run starts, then drop every link into
    /// its two endpoints' runs in link-id order.
    ///
    /// # Panics
    ///
    /// Panics if two entries a link do not fit a `u32` offset.
    fn build(n_ases: usize, links: &[LinkRecord]) -> Csr {
        let total = csr_len(links.len()).unwrap_or_else(|e| panic!("cannot build the CSR: {e}"));
        // Per AS and run: first the entry count, then the write cursor.
        let mut at = vec![[0u32; 3]; n_ases];
        for l in links {
            let (ka, kb) = EdgeKind::of(l.rel);
            at[l.a.usize()][ka.run()] += 1;
            at[l.b.usize()][kb.run()] += 1;
        }
        let mut off = Vec::with_capacity(n_ases + 1);
        let mut prov_end = Vec::with_capacity(n_ases);
        let mut peer_end = Vec::with_capacity(n_ases);
        let mut next = 0u32;
        for runs in &mut at {
            off.push(next);
            for r in runs.iter_mut() {
                let len = *r;
                *r = next;
                next += len;
            }
            prov_end.push(runs[1]);
            peer_end.push(runs[2]);
        }
        off.push(next);
        debug_assert_eq!(next, total);
        let mut flat = vec![Adjacency { peer: AsIdx(0), link: LinkId(0) }; total as usize];
        for (id, l) in links.iter().enumerate() {
            let link = LinkId(id as u32);
            let (ka, kb) = EdgeKind::of(l.rel);
            for (owner, peer, kind) in [(l.a, l.b, ka), (l.b, l.a, kb)] {
                let slot = &mut at[owner.usize()][kind.run()];
                flat[*slot as usize] = Adjacency { peer, link };
                *slot += 1;
            }
        }
        Csr { off, prov_end, peer_end, flat }
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.off)
            + vec_bytes(&self.prov_end)
            + vec_bytes(&self.peer_end)
            + vec_bytes(&self.flat)
    }
}

fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// What a std hash table of `capacity` holds on the heap: a slot and a
/// control byte per bucket (a power of two, at most 7/8 full), plus one
/// group of trailing control bytes.
fn table_bytes(capacity: usize, slot: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 7 { capacity + 1 } else { capacity * 8 / 7 }.next_power_of_two();
    buckets * (slot + 1) + 16
}

/// The duplicate-pair key of a link between `a` and `b`: the unordered
/// index pair, low index in the high half.
fn pair_key(a: AsIdx, b: AsIdx) -> u64 {
    (u64::from(a.0.min(b.0)) << 32) | u64::from(a.0.max(b.0))
}

/// An AS-level topology: the synthetic Internet.
#[derive(Debug, Clone)]
pub struct Topology {
    ases: Vec<AsInfo>,
    asn_to_idx: FxMap<Asn, AsIdx>,
    /// The link records, in [`LinkId`] order.
    links: Vec<LinkRecord>,
    /// The distinct stability profiles, in order of first use.
    profiles: Vec<LinkStability>,
    /// Each profile's index in `profiles`, by [`profile_key`].
    profile_idx: FxMap<[u64; 2], u16>,
    /// The adjacency, built from `links` on first use after a mutation.
    csr: OnceLock<Csr>,
    /// [`pair_key`]s of the links, for O(1) duplicate detection while
    /// links are being added; `None` once frozen.
    link_keys: Option<FxSet<u64>>,
    countries: Vec<Country>,
    country_idx: FxMap<CountryCode, usize>,
}

impl Topology {
    /// Empty topology over the given country table.
    pub fn new(countries: Vec<Country>) -> Self {
        let country_idx =
            countries.iter().enumerate().map(|(i, c)| (c.code, i)).collect::<FxMap<_, _>>();
        Topology {
            ases: Vec::new(),
            asn_to_idx: FxMap::default(),
            links: Vec::new(),
            profiles: Vec::new(),
            profile_idx: FxMap::default(),
            csr: OnceLock::new(),
            link_keys: None,
            countries,
            country_idx,
        }
    }

    /// Number of ASes.
    pub fn n_ases(&self) -> usize {
        self.ases.len()
    }

    /// Number of links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// All ASes, in index order.
    pub fn ases(&self) -> &[AsInfo] {
        &self.ases
    }

    /// All links, in [`LinkId`] order.
    pub fn links(&self) -> impl ExactSizeIterator<Item = Link> + '_ {
        self.links.iter().map(|r| self.expand(r))
    }

    /// The distinct stability profiles of the links, in order of first
    /// use (see [`Topology::link_profile`]).
    pub fn profiles(&self) -> &[LinkStability] {
        &self.profiles
    }

    /// The index into [`Topology::profiles`] of a link's stability.
    pub fn link_profile(&self, id: LinkId) -> usize {
        usize::from(self.links[id.0 as usize].profile)
    }

    /// A stored record as a [`Link`].
    fn expand(&self, r: &LinkRecord) -> Link {
        let stability = self.profiles[usize::from(r.profile)];
        Link { a: self.asn(r.a), b: self.asn(r.b), rel: r.rel, stability }
    }

    /// All countries.
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// Look up a country by code.
    pub fn country(&self, code: CountryCode) -> Option<&Country> {
        self.country_idx.get(&code).map(|&i| &self.countries[i])
    }

    /// Add an AS. Errors on a duplicate ASN, and past `u32::MAX` ASes.
    pub fn add_as(&mut self, info: AsInfo) -> Result<AsIdx, TopologyError> {
        if self.asn_to_idx.contains_key(&info.asn) {
            return Err(TopologyError::DuplicateAsn(info.asn));
        }
        let idx = AsIdx(checked_u32(self.ases.len(), "ASes")?);
        self.asn_to_idx.insert(info.asn, idx);
        self.ases.push(info);
        self.csr.take();
        Ok(idx)
    }

    /// Add a link. Errors on unknown endpoints, self-links, duplicate
    /// unordered pairs, past `u32::MAX` links, and past `u16::MAX + 1`
    /// distinct stability profiles.
    pub fn add_link(&mut self, link: Link) -> Result<LinkId, TopologyError> {
        if link.a == link.b {
            return Err(TopologyError::SelfLink(link.a));
        }
        let a = self.idx(link.a).ok_or(TopologyError::UnknownAsn(link.a))?;
        let b = self.idx(link.b).ok_or(TopologyError::UnknownAsn(link.b))?;
        let id = LinkId(checked_u32(self.links.len(), "links")?);
        let key = profile_key(&link.stability);
        let profile = match self.profile_idx.get(&key) {
            Some(&p) => p,
            None => u16::try_from(self.profiles.len()).map_err(|_| TopologyError::TooMany {
                what: "stability profiles",
                count: self.profiles.len() + 1,
            })?,
        };
        if !self.pair_set().insert(pair_key(a, b)) {
            return Err(TopologyError::DuplicateLink(link.a, link.b));
        }
        if usize::from(profile) == self.profiles.len() {
            self.profiles.push(link.stability);
            self.profile_idx.insert(key, profile);
        }
        self.csr.take();
        self.links.push(LinkRecord { a, b, profile, rel: link.rel });
        Ok(id)
    }

    /// Room for `ases` more ASes and `links` more links, so a builder
    /// that knows its size fills each table without regrowing it.
    pub fn reserve(&mut self, ases: usize, links: usize) {
        self.ases.reserve(ases);
        self.asn_to_idx.reserve(ases);
        self.links.reserve(links);
        self.pair_set().reserve(links);
    }

    /// The duplicate-pair set, rebuilt from the link list if a freeze
    /// dropped it.
    fn pair_set(&mut self) -> &mut FxSet<u64> {
        let links = &self.links;
        self.link_keys.get_or_insert_with(|| links.iter().map(|l| pair_key(l.a, l.b)).collect())
    }

    /// Build the CSR adjacency, if no query has since the last mutation,
    /// drop the duplicate-pair set and give back what the link tables
    /// reserved past their length. Idempotent; call once the graph is
    /// fully built (the generator and the AS-REL2 loader do).
    pub fn freeze(&mut self) {
        self.link_keys = None;
        self.links.shrink_to_fit();
        self.csr();
    }

    /// Whether the CSR adjacency is built: by [`freeze`](Self::freeze),
    /// or by a query since the last mutation.
    pub fn is_frozen(&self) -> bool {
        self.csr.get().is_some()
    }

    #[inline]
    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::build(self.ases.len(), &self.links))
    }

    /// Bytes held on the heap: the AS table (names included), the link
    /// records and their profile table, the CSR once built, the ASN
    /// index, and the duplicate-pair set while it exists. Hash tables are
    /// counted by their bucket arrays; the country table (a few KB) is
    /// left out.
    pub fn heap_bytes(&self) -> usize {
        let names: usize = self.ases.iter().map(|a| a.name.capacity()).sum();
        vec_bytes(&self.ases)
            + names
            + vec_bytes(&self.links)
            + vec_bytes(&self.profiles)
            + table_bytes(self.profile_idx.capacity(), size_of::<([u64; 2], u16)>())
            + self.csr.get().map_or(0, Csr::heap_bytes)
            + table_bytes(self.asn_to_idx.capacity(), size_of::<(Asn, AsIdx)>())
            + self.link_keys.as_ref().map_or(0, |k| table_bytes(k.capacity(), size_of::<u64>()))
    }

    /// Dense index for an ASN.
    pub fn idx(&self, asn: Asn) -> Option<AsIdx> {
        self.asn_to_idx.get(&asn).copied()
    }

    /// ASN for a dense index.
    pub fn asn(&self, idx: AsIdx) -> Asn {
        self.ases[idx.usize()].asn
    }

    /// AS metadata by index.
    pub fn info(&self, idx: AsIdx) -> &AsInfo {
        &self.ases[idx.usize()]
    }

    /// AS metadata by ASN.
    pub fn info_by_asn(&self, asn: Asn) -> Option<&AsInfo> {
        self.idx(asn).map(|i| self.info(i))
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> Link {
        self.expand(&self.links[id.0 as usize])
    }

    /// Adjacency list of an AS: its providers, then its peers, then its
    /// customers, each in link-id order.
    #[inline]
    pub fn neighbors(&self, idx: AsIdx) -> &[Adjacency] {
        let c = self.csr();
        let i = idx.usize();
        &c.flat[c.off[i] as usize..c.off[i + 1] as usize]
    }

    /// The provider run of an AS's adjacency — only the `ToProvider`
    /// entries, contiguous.
    #[inline]
    pub fn provider_edges(&self, idx: AsIdx) -> &[Adjacency] {
        let c = self.csr();
        let i = idx.usize();
        &c.flat[c.off[i] as usize..c.prov_end[i] as usize]
    }

    /// The peer run of an AS's adjacency (see
    /// [`provider_edges`](Self::provider_edges)).
    #[inline]
    pub fn peer_edges(&self, idx: AsIdx) -> &[Adjacency] {
        let c = self.csr();
        let i = idx.usize();
        &c.flat[c.prov_end[i] as usize..c.peer_end[i] as usize]
    }

    /// The customer run of an AS's adjacency (see
    /// [`provider_edges`](Self::provider_edges)).
    #[inline]
    pub fn customer_edges(&self, idx: AsIdx) -> &[Adjacency] {
        let c = self.csr();
        let i = idx.usize();
        &c.flat[c.peer_end[i] as usize..c.off[i + 1] as usize]
    }

    /// An AS's three adjacency runs, in [`neighbors`](Self::neighbors)
    /// order, each with the kind its entries have.
    pub fn edge_runs(&self, idx: AsIdx) -> [(EdgeKind, &[Adjacency]); 3] {
        [
            (EdgeKind::ToProvider, self.provider_edges(idx)),
            (EdgeKind::ToPeer, self.peer_edges(idx)),
            (EdgeKind::ToCustomer, self.customer_edges(idx)),
        ]
    }

    /// The providers of an AS.
    pub fn providers(&self, idx: AsIdx) -> impl Iterator<Item = AsIdx> + '_ {
        self.provider_edges(idx).iter().map(|a| a.peer)
    }

    /// The customers of an AS.
    pub fn customers(&self, idx: AsIdx) -> impl Iterator<Item = AsIdx> + '_ {
        self.customer_edges(idx).iter().map(|a| a.peer)
    }

    /// The peers of an AS.
    pub fn peers(&self, idx: AsIdx) -> impl Iterator<Item = AsIdx> + '_ {
        self.peer_edges(idx).iter().map(|a| a.peer)
    }

    /// Indices of all ASes satisfying a predicate.
    pub fn select(&self, pred: impl Fn(&AsInfo) -> bool) -> Vec<AsIdx> {
        self.ases
            .iter()
            .enumerate()
            .filter(|(_, info)| pred(info))
            .map(|(i, _)| AsIdx(i as u32))
            .collect()
    }

    /// The country of an AS.
    pub fn country_of(&self, idx: AsIdx) -> CountryCode {
        self.info(idx).country
    }

    /// Structural validation:
    ///
    /// * the customer→provider digraph must be acyclic (no AS is
    ///   transitively its own provider — the standard Gao–Rexford sanity
    ///   condition);
    /// * every AS must reach a tier-1 AS by following provider edges
    ///   (hierarchy completeness), unless it *is* tier-1;
    /// * the undirected graph must be connected.
    pub fn validate(&self) -> Result<(), TopologyError> {
        self.check_provider_dag()?;
        self.check_hierarchy()?;
        self.check_connected()?;
        Ok(())
    }

    fn check_provider_dag(&self) -> Result<(), TopologyError> {
        // Iterative DFS three-colour cycle detection over provider edges;
        // the cursor indexes the node's provider run.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.n_ases();
        let mut color = vec![WHITE; n];
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            // stack of (node, next-provider cursor)
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = GRAY;
            while let Some(top) = stack.len().checked_sub(1) {
                let (node, cursor) = stack[top];
                if let Some(up) = self.provider_edges(AsIdx(node as u32)).get(cursor) {
                    stack[top].1 = cursor + 1;
                    let next = up.peer.usize();
                    match color[next] {
                        WHITE => {
                            color[next] = GRAY;
                            stack.push((next, 0));
                        }
                        GRAY => {
                            return Err(TopologyError::ProviderCycle(self.asn(AsIdx(next as u32))))
                        }
                        _ => {}
                    }
                } else {
                    color[node] = BLACK;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    fn check_hierarchy(&self) -> Result<(), TopologyError> {
        // Every non-tier-1 AS must transitively reach a tier-1 via providers.
        let n = self.n_ases();
        // reach[i] = true if i reaches tier1 via provider edges.
        let mut reach: Vec<bool> = self.ases.iter().map(|info| info.role == AsRole::Tier1).collect();
        // Fixed-point: propagate down customer edges (provider reach implies
        // customer reach). Iterate until stable; the provider DAG bounds the
        // iteration count by the hierarchy depth.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if reach[i] {
                    continue;
                }
                let provs = self.provider_edges(AsIdx(i as u32));
                if provs.iter().any(|p| reach[p.peer.usize()]) {
                    reach[i] = true;
                    changed = true;
                }
            }
        }
        for (i, ok) in reach.iter().enumerate() {
            if !ok {
                return Err(TopologyError::Disconnected(self.asn(AsIdx(i as u32))));
            }
        }
        Ok(())
    }

    fn check_connected(&self) -> Result<(), TopologyError> {
        let n = self.n_ases();
        if n == 0 {
            return Ok(());
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for adj in self.neighbors(AsIdx(u as u32)) {
                let v = adj.peer.usize();
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        for (i, s) in seen.iter().enumerate() {
            if !s {
                return Err(TopologyError::Disconnected(self.asn(AsIdx(i as u32))));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asys::AsClass;
    use crate::geo::{countries, Country, Region};
    use crate::links::LinkStability;

    fn mk_as(asn: u32, role: AsRole) -> AsInfo {
        AsInfo {
            asn: Asn(asn),
            name: format!("AS{asn}"),
            country: CountryCode::new("US"),
            class: AsClass::TransitAccess,
            role,
        }
    }

    fn tiny() -> Topology {
        // T1(1) <- N(2) <- S(3), plus peer link 2-4 where 4 is another
        // national under the same tier-1.
        let mut t = Topology::new(countries(5));
        t.add_as(mk_as(1, AsRole::Tier1)).unwrap();
        t.add_as(mk_as(2, AsRole::NationalTransit)).unwrap();
        t.add_as(mk_as(3, AsRole::Stub)).unwrap();
        t.add_as(mk_as(4, AsRole::NationalTransit)).unwrap();
        t.add_link(Link::transit(Asn(2), Asn(1), LinkStability::stable())).unwrap();
        t.add_link(Link::transit(Asn(3), Asn(2), LinkStability::stable())).unwrap();
        t.add_link(Link::transit(Asn(4), Asn(1), LinkStability::stable())).unwrap();
        t.add_link(Link::peering(Asn(2), Asn(4), LinkStability::stable())).unwrap();
        t
    }

    #[test]
    fn build_and_query() {
        let t = tiny();
        assert_eq!(t.n_ases(), 4);
        assert_eq!(t.n_links(), 4);
        let i2 = t.idx(Asn(2)).unwrap();
        let provs: Vec<_> = t.providers(i2).map(|p| t.asn(p)).collect();
        assert_eq!(provs, vec![Asn(1)]);
        let custs: Vec<_> = t.customers(i2).map(|p| t.asn(p)).collect();
        assert_eq!(custs, vec![Asn(3)]);
        let peers: Vec<_> = t.peers(i2).map(|p| t.asn(p)).collect();
        assert_eq!(peers, vec![Asn(4)]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn freeze_preserves_queries_and_validation() {
        let mut t = tiny();
        assert!(!t.is_frozen());
        let before: Vec<Vec<Adjacency>> =
            (0..t.n_ases()).map(|i| t.neighbors(AsIdx(i as u32)).to_vec()).collect();
        assert!(t.is_frozen(), "a query builds the CSR");
        t.freeze();
        assert!(t.is_frozen());
        t.freeze(); // idempotent
        for (i, want) in before.iter().enumerate() {
            let idx = AsIdx(i as u32);
            assert_eq!(t.neighbors(idx), &want[..]);
            // The kind slices partition the run in grouped order.
            let run = t.neighbors(idx);
            let (p, r, c) =
                (t.provider_edges(idx), t.peer_edges(idx), t.customer_edges(idx));
            assert_eq!(p.len() + r.len() + c.len(), run.len());
            let kinds = t.edge_runs(idx).map(|(kind, run)| (kind, run.len()));
            let want = [EdgeKind::ToProvider, EdgeKind::ToPeer, EdgeKind::ToCustomer];
            assert_eq!(kinds, [(want[0], p.len()), (want[1], r.len()), (want[2], c.len())]);
            assert_eq!(run[..p.len()], *p);
            assert_eq!(run[p.len()..p.len() + r.len()], *r);
            assert_eq!(run[p.len() + r.len()..], *c);
        }
        assert!(t.validate().is_ok());
    }

    #[test]
    fn freezing_releases_the_pair_set() {
        let mut t = tiny();
        let keys = t.link_keys.as_ref().expect("adding links builds the pair set");
        let key_bytes = table_bytes(keys.capacity(), size_of::<u64>());
        assert!(key_bytes > 0);
        let building = t.heap_bytes();
        t.freeze();
        assert!(t.link_keys.is_none());
        let csr_bytes = t.csr.get().map_or(0, Csr::heap_bytes);
        assert!(csr_bytes > 0);
        assert_eq!(t.heap_bytes(), building - key_bytes + csr_bytes);
        // A query does not bring it back; only the next `add_link` does,
        // rebuilt from the link list, so duplicates are still caught.
        assert!(t.validate().is_ok());
        assert!(t.link_keys.is_none());
        assert_eq!(
            t.add_link(Link::peering(Asn(4), Asn(2), LinkStability::stable())),
            Err(TopologyError::DuplicateLink(Asn(4), Asn(2)))
        );
        assert_eq!(t.link_keys.as_ref().map(FxSet::len), Some(t.n_links()));
        assert!(t.is_frozen(), "a rejected link changes nothing");
    }

    #[test]
    fn a_link_record_is_12_bytes_and_a_csr_entry_8() {
        assert_eq!(size_of::<LinkRecord>(), 12);
        assert_eq!(size_of::<Adjacency>(), 8);
    }

    #[test]
    fn links_read_back_as_added_with_one_profile_entry_each() {
        let t = tiny();
        let want = [
            Link::transit(Asn(2), Asn(1), LinkStability::stable()),
            Link::transit(Asn(3), Asn(2), LinkStability::stable()),
            Link::transit(Asn(4), Asn(1), LinkStability::stable()),
            Link::peering(Asn(2), Asn(4), LinkStability::stable()),
        ];
        assert_eq!(t.links().collect::<Vec<_>>(), want);
        assert_eq!(t.link(LinkId(3)), want[3]);
        assert_eq!(t.profiles(), [LinkStability::stable()]);
        // A NaN profile interns by its bits, like any other.
        let mut t = tiny();
        let nan = LinkStability { flap_rate: f64::NAN, mean_downtime_days: 1.0 };
        t.add_as(mk_as(5, AsRole::Stub)).unwrap();
        t.add_link(Link::transit(Asn(5), Asn(2), nan)).unwrap();
        t.add_link(Link::transit(Asn(5), Asn(4), nan)).unwrap();
        assert_eq!(t.profiles().len(), 2);
        assert_eq!(t.link_profile(LinkId(4)), 1);
        assert_eq!(t.link_profile(LinkId(5)), 1);
        assert!(t.link(LinkId(5)).stability.flap_rate.is_nan());
    }

    #[test]
    fn the_profile_table_refuses_its_65537th_profile() {
        // 363 ASes have 65,703 pairs: one link each for 65,537 profiles.
        let mut t = Topology::new(countries(2));
        for asn in 0..363 {
            t.add_as(mk_as(asn, AsRole::NationalTransit)).unwrap();
        }
        let pairs = (0..363u32).flat_map(|a| (a + 1..363).map(move |b| (Asn(a), Asn(b))));
        let mut added = 0usize;
        for (k, (a, b)) in pairs.take(1 << 16).enumerate() {
            let stability = LinkStability { flap_rate: k as f64, mean_downtime_days: 1.0 };
            t.add_link(Link::peering(a, b, stability)).unwrap();
            added += 1;
        }
        assert_eq!((added, t.profiles().len()), (1 << 16, 1 << 16));
        let last = LinkId(added as u32 - 1);
        assert_eq!(t.link_profile(last), u16::MAX as usize);
        assert_eq!(t.link(last).stability.flap_rate, (added - 1) as f64);
        // One more distinct profile does not fit the u16 index ...
        let fresh = LinkStability { flap_rate: -1.0, mean_downtime_days: 1.0 };
        assert_eq!(
            t.add_link(Link::peering(Asn(361), Asn(362), fresh)),
            Err(TopologyError::TooMany { what: "stability profiles", count: (1 << 16) + 1 })
        );
        // ... and changed nothing; a known profile still links.
        assert_eq!((t.n_links(), t.profiles().len()), (added, 1 << 16));
        let known = LinkStability { flap_rate: 7.0, mean_downtime_days: 1.0 };
        assert_eq!(t.add_link(Link::peering(Asn(361), Asn(362), known)), Ok(LinkId(added as u32)));
        assert_eq!(t.link_profile(LinkId(added as u32)), 7);
    }

    #[test]
    fn widths_are_checked_at_the_u32_boundary() {
        let max = u32::MAX as usize;
        assert_eq!(checked_u32(max, "links"), Ok(u32::MAX));
        assert_eq!(
            checked_u32(max + 1, "links"),
            Err(TopologyError::TooMany { what: "links", count: max + 1 })
        );
        // Two CSR entries a link: the last link count that fits, the first
        // that does not, and one whose doubling would overflow `usize`.
        assert_eq!(csr_len(max / 2), Ok(u32::MAX - 1));
        assert_eq!(
            csr_len(max / 2 + 1),
            Err(TopologyError::TooMany { what: "adjacency entries", count: max + 1 })
        );
        assert!(matches!(csr_len(usize::MAX), Err(TopologyError::TooMany { .. })));
        assert_eq!(
            checked_u32(max + 1, "ASes").unwrap_err().to_string(),
            format!("{} ASes do not fit a u32 index", max + 1)
        );
    }

    #[test]
    fn mutation_after_freeze_thaws() {
        let mut t = tiny();
        t.freeze();
        let i5 = t.add_as(mk_as(5, AsRole::Stub)).unwrap();
        assert!(!t.is_frozen());
        t.add_link(Link::transit(Asn(5), Asn(2), LinkStability::stable())).unwrap();
        assert_eq!(t.providers(i5).count(), 1);
        t.freeze();
        assert!(t.validate().is_ok());
        // The pre-freeze duplicate guard still sees pre-thaw links.
        assert_eq!(
            t.add_link(Link::peering(Asn(2), Asn(4), LinkStability::stable())),
            Err(TopologyError::DuplicateLink(Asn(2), Asn(4)))
        );
    }

    #[test]
    fn duplicate_asn_rejected() {
        let mut t = Topology::new(countries(2));
        t.add_as(mk_as(1, AsRole::Tier1)).unwrap();
        assert_eq!(t.add_as(mk_as(1, AsRole::Stub)), Err(TopologyError::DuplicateAsn(Asn(1))));
    }

    #[test]
    fn self_link_rejected() {
        let mut t = Topology::new(countries(2));
        t.add_as(mk_as(1, AsRole::Tier1)).unwrap();
        assert_eq!(
            t.add_link(Link::peering(Asn(1), Asn(1), LinkStability::stable())),
            Err(TopologyError::SelfLink(Asn(1)))
        );
    }

    #[test]
    fn duplicate_link_rejected() {
        let mut t = tiny();
        assert_eq!(
            t.add_link(Link::peering(Asn(4), Asn(2), LinkStability::stable())),
            Err(TopologyError::DuplicateLink(Asn(4), Asn(2)))
        );
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut t = tiny();
        assert_eq!(
            t.add_link(Link::peering(Asn(2), Asn(99), LinkStability::stable())),
            Err(TopologyError::UnknownAsn(Asn(99)))
        );
    }

    #[test]
    fn provider_cycle_detected() {
        let mut t = Topology::new(countries(2));
        t.add_as(mk_as(1, AsRole::Tier1)).unwrap();
        t.add_as(mk_as(2, AsRole::NationalTransit)).unwrap();
        t.add_as(mk_as(3, AsRole::RegionalIsp)).unwrap();
        t.add_link(Link::transit(Asn(2), Asn(3), LinkStability::stable())).unwrap();
        t.add_link(Link::transit(Asn(3), Asn(2), LinkStability::stable())).unwrap_err();
        // The duplicate-pair guard catches the two-node cycle; build a
        // 3-node provider loop instead.
        let mut t = Topology::new(countries(2));
        t.add_as(mk_as(1, AsRole::NationalTransit)).unwrap();
        t.add_as(mk_as(2, AsRole::NationalTransit)).unwrap();
        t.add_as(mk_as(3, AsRole::NationalTransit)).unwrap();
        t.add_link(Link::transit(Asn(1), Asn(2), LinkStability::stable())).unwrap();
        t.add_link(Link::transit(Asn(2), Asn(3), LinkStability::stable())).unwrap();
        t.add_link(Link::transit(Asn(3), Asn(1), LinkStability::stable())).unwrap();
        assert!(matches!(t.validate(), Err(TopologyError::ProviderCycle(_))));
    }

    #[test]
    fn orphan_detected() {
        let mut t = tiny();
        t.add_as(mk_as(99, AsRole::Stub)).unwrap();
        assert!(matches!(t.validate(), Err(TopologyError::Disconnected(Asn(99)))));
    }

    #[test]
    fn stub_without_provider_path_detected() {
        // Stub 3 peers with national 2 but has no provider at all.
        let mut t = Topology::new(countries(2));
        t.add_as(mk_as(1, AsRole::Tier1)).unwrap();
        t.add_as(mk_as(2, AsRole::NationalTransit)).unwrap();
        t.add_as(mk_as(3, AsRole::Stub)).unwrap();
        t.add_link(Link::transit(Asn(2), Asn(1), LinkStability::stable())).unwrap();
        t.add_link(Link::peering(Asn(3), Asn(2), LinkStability::stable())).unwrap();
        assert!(matches!(t.validate(), Err(TopologyError::Disconnected(Asn(3)))));
    }

    #[test]
    fn country_lookup() {
        let t = Topology::new(vec![Country::new("CN", "China", Region::EastAsia)]);
        assert_eq!(t.country(CountryCode::new("CN")).unwrap().name, "China");
        assert!(t.country(CountryCode::new("ZZ")).is_none());
    }

    #[test]
    fn select_filters() {
        let t = tiny();
        let stubs = t.select(|a| a.role == AsRole::Stub);
        assert_eq!(stubs.len(), 1);
        assert_eq!(t.asn(stubs[0]), Asn(3));
    }
}
