//! IPv4 prefixes and address arithmetic.
//!
//! Each AS in the generated world announces one or more prefixes; the
//! traceroute simulator assigns router interface addresses from the
//! prefixes of the AS each hop belongs to, and the IP-to-AS database
//! ([`crate::ip2as`]) answers longest-prefix-match queries over the
//! resulting allocation — mirroring how the paper maps traceroute hops to
//! ASes via CAIDA's routed-prefix dataset.
//!
//! A world's announcements are one [`PrefixTable`]: every AS's prefixes
//! in one flat array, a row per AS in [`AsIdx`] order, so the hop
//! expander reads an AS's prefixes off the AS-index path the router
//! produced with two offset loads. At Huge (62,169 ASes, one prefix
//! each) it holds 1.2 MB, where a hash map of one-prefix vectors held
//! 4.8 MB.

use crate::asys::Asn;
use crate::graph::AsIdx;
use crate::TopologyError;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 prefix in CIDR notation (`addr/len`), host bits zeroed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    /// Network address as a big-endian integer, host bits all zero.
    addr: u32,
    /// Prefix length, `0..=32`.
    len: u8,
}

impl Ipv4Prefix {
    /// Construct a prefix; host bits of `addr` are masked off.
    /// Errors if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Result<Self, TopologyError> {
        if len > 32 {
            return Err(TopologyError::BadPrefixLen(len));
        }
        Ok(Ipv4Prefix { addr: addr & Self::mask(len), len })
    }

    /// Construct from dotted-quad parts.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8, len: u8) -> Result<Self, TopologyError> {
        Self::new(u32::from_be_bytes([a, b, c, d]), len)
    }

    /// The network mask for a prefix length.
    #[inline]
    pub fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// Network address (integer form).
    #[inline]
    pub fn network(&self) -> u32 {
        self.addr
    }

    /// Prefix length.
    // A prefix length is not a container size; `is_empty` would be
    // meaningless here.
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered (saturating; /0 reports `u32::MAX`).
    pub fn size(&self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len as u32)
        }
    }

    /// True if the prefix covers `ip`.
    #[inline]
    pub fn contains(&self, ip: u32) -> bool {
        ip & Self::mask(self.len) == self.addr
    }

    /// True if the two prefixes share any address.
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        let l = self.len.min(other.len);
        (self.addr & Self::mask(l)) == (other.addr & Self::mask(l))
    }

    /// The `i`-th address inside the prefix (wrapping within the block),
    /// skipping the all-zeros host so generated router interfaces look
    /// plausible.
    pub fn nth_host(&self, i: u32) -> u32 {
        if self.len >= 31 {
            return self.addr | (i & !Self::mask(self.len));
        }
        let span = self.size() - 1; // exclude network address
        self.addr + 1 + (i % span)
    }

    /// Split the prefix into 2^(new_len - len) subprefixes of `new_len`.
    /// Errors if `new_len` is not longer than `len` or exceeds 32.
    pub fn subdivide(&self, new_len: u8) -> Result<Vec<Ipv4Prefix>, TopologyError> {
        if new_len > 32 {
            return Err(TopologyError::BadPrefixLen(new_len));
        }
        if new_len <= self.len {
            return Err(TopologyError::BadPrefixLen(new_len));
        }
        let count = 1u32 << (new_len - self.len).min(31);
        let step = 1u32 << (32 - new_len as u32);
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count {
            out.push(Ipv4Prefix { addr: self.addr + i * step, len: new_len });
        }
        Ok(out)
    }

    /// Dotted-quad of the network address.
    pub fn network_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }
}

impl std::fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.network_addr(), self.len)
    }
}

impl std::fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ipv4Prefix({self})")
    }
}

impl FromStr for Ipv4Prefix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, len) = s.split_once('/').ok_or_else(|| format!("missing '/' in {s:?}"))?;
        let ip: Ipv4Addr = ip.parse().map_err(|e| format!("bad address in {s:?}: {e}"))?;
        let len: u8 = len.parse().map_err(|e| format!("bad length in {s:?}: {e}"))?;
        Ipv4Prefix::new(u32::from(ip), len).map_err(|e| e.to_string())
    }
}

/// Every AS's announced prefixes, flat: row `i` — the AS of index
/// `AsIdx(i)` in the topology the table was built beside — holds
/// `prefixes[offsets[i]..offsets[i + 1]]`. A sorted `(ASN, row)` index
/// answers [`PrefixTable::of_asn`] for callers that hold only ASNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixTable {
    offsets: Vec<u32>,
    prefixes: Vec<Ipv4Prefix>,
    by_asn: Vec<(Asn, AsIdx)>,
}

impl Default for PrefixTable {
    fn default() -> Self {
        PrefixTable::with_capacity(0, 0)
    }
}

impl PrefixTable {
    /// An empty table with room for `ases` rows and `prefixes` prefixes.
    pub fn with_capacity(ases: usize, prefixes: usize) -> Self {
        let mut offsets = Vec::with_capacity(ases + 1);
        offsets.push(0);
        let (prefixes, by_asn) = (Vec::with_capacity(prefixes), Vec::with_capacity(ases));
        PrefixTable { offsets, prefixes, by_asn }
    }

    /// Append `asn`'s row and return its index. Errors if `asn` already
    /// has a row, or past `u32::MAX` rows or prefixes (the table is left
    /// as it was).
    pub fn push(
        &mut self,
        asn: Asn,
        prefixes: impl IntoIterator<Item = Ipv4Prefix>,
    ) -> Result<AsIdx, TopologyError> {
        let Err(at) = self.by_asn.binary_search_by_key(&asn, |&(a, _)| a) else {
            return Err(TopologyError::DuplicateAsn(asn));
        };
        let too_many = |what, count| TopologyError::TooMany { what, count };
        let row = u32::try_from(self.len()).map_err(|_| too_many("prefix rows", self.len() + 1))?;
        let before = self.prefixes.len();
        self.prefixes.extend(prefixes);
        let Ok(end) = u32::try_from(self.prefixes.len()) else {
            let count = self.prefixes.len();
            self.prefixes.truncate(before);
            return Err(too_many("prefixes", count));
        };
        self.offsets.push(end);
        self.by_asn.insert(at, (asn, AsIdx(row)));
        Ok(AsIdx(row))
    }

    /// Number of rows (ASes).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The prefixes of row `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no such row.
    #[inline]
    pub fn of(&self, idx: AsIdx) -> &[Ipv4Prefix] {
        let i = idx.usize();
        &self.prefixes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The prefixes `asn` announces: empty if it has no row.
    pub fn of_asn(&self, asn: Asn) -> &[Ipv4Prefix] {
        match self.by_asn.binary_search_by_key(&asn, |&(a, _)| a) {
            Ok(at) => self.of(self.by_asn[at].1),
            Err(_) => &[],
        }
    }

    /// Every row with its ASN, in ascending ASN order.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, &[Ipv4Prefix])> + '_ {
        self.by_asn.iter().map(|&(asn, idx)| (asn, self.of(idx)))
    }

    /// Bytes the table holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>()
            + self.prefixes.capacity() * size_of::<Ipv4Prefix>()
            + self.by_asn.capacity() * size_of::<(Asn, AsIdx)>()
    }
}

/// Rows in iteration order.
///
/// # Panics
///
/// Panics where [`PrefixTable::push`] errors.
impl<P: IntoIterator<Item = Ipv4Prefix>> FromIterator<(Asn, P)> for PrefixTable {
    fn from_iter<I: IntoIterator<Item = (Asn, P)>>(rows: I) -> Self {
        let mut table = PrefixTable::default();
        for (asn, prefixes) in rows {
            if let Err(e) = table.push(asn, prefixes) {
                panic!("cannot build the prefix table: {e}");
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_prefix_table_reads_back_by_row_and_by_asn() {
        let px = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
        let mut t = PrefixTable::default();
        assert!(t.is_empty());
        // Rows out of ASN order, one of them empty.
        assert_eq!(t.push(Asn(30), [px("10.0.0.0/16"), px("10.1.0.0/16")]), Ok(AsIdx(0)));
        assert_eq!(t.push(Asn(10), []), Ok(AsIdx(1)));
        assert_eq!(t.push(Asn(20), [px("11.0.0.0/8")]), Ok(AsIdx(2)));
        assert_eq!(t.push(Asn(20), [px("12.0.0.0/8")]), Err(TopologyError::DuplicateAsn(Asn(20))));
        assert_eq!(t.len(), 3);
        assert_eq!(t.of(AsIdx(0)), [px("10.0.0.0/16"), px("10.1.0.0/16")]);
        assert_eq!(t.of(AsIdx(1)), []);
        assert_eq!(t.of_asn(Asn(20)), [px("11.0.0.0/8")]);
        assert_eq!(t.of_asn(Asn(30)), t.of(AsIdx(0)));
        assert_eq!(t.of_asn(Asn(99)), []);
        let rows: Vec<(Asn, usize)> = t.iter().map(|(a, ps)| (a, ps.len())).collect();
        assert_eq!(rows, [(Asn(10), 0), (Asn(20), 1), (Asn(30), 2)]);
        let collected: PrefixTable = [
            (Asn(30), vec![px("10.0.0.0/16"), px("10.1.0.0/16")]),
            (Asn(10), vec![]),
            (Asn(20), vec![px("11.0.0.0/8")]),
        ]
        .into_iter()
        .collect();
        assert_eq!(collected, t);
    }

    #[test]
    fn construction_masks_host_bits() {
        let p = Ipv4Prefix::from_octets(10, 1, 2, 3, 16).unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn bad_len_rejected() {
        assert!(Ipv4Prefix::new(0, 33).is_err());
    }

    #[test]
    fn contains_boundaries() {
        let p: Ipv4Prefix = "192.168.4.0/22".parse().unwrap();
        assert!(p.contains(u32::from(Ipv4Addr::new(192, 168, 4, 0))));
        assert!(p.contains(u32::from(Ipv4Addr::new(192, 168, 7, 255))));
        assert!(!p.contains(u32::from(Ipv4Addr::new(192, 168, 8, 0))));
        assert!(!p.contains(u32::from(Ipv4Addr::new(192, 168, 3, 255))));
    }

    #[test]
    fn overlap_rules() {
        let a: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Ipv4Prefix = "10.5.0.0/16".parse().unwrap();
        let c: Ipv4Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn subdivide_counts() {
        let p: Ipv4Prefix = "10.0.0.0/14".parse().unwrap();
        let subs = p.subdivide(16).unwrap();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0].to_string(), "10.0.0.0/16");
        assert_eq!(subs[3].to_string(), "10.3.0.0/16");
        for s in &subs {
            assert!(p.overlaps(s));
        }
        assert!(p.subdivide(14).is_err());
        assert!(p.subdivide(10).is_err());
        assert!(p.subdivide(40).is_err());
    }

    #[test]
    fn nth_host_stays_inside() {
        let p: Ipv4Prefix = "172.16.10.0/24".parse().unwrap();
        for i in [0u32, 1, 100, 253, 254, 255, 256, 100_000] {
            let h = p.nth_host(i);
            assert!(p.contains(h), "host {} escaped {p}", Ipv4Addr::from(h));
            assert_ne!(h, p.network(), "network address must be skipped");
        }
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_errors() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("banana/8".parse::<Ipv4Prefix>().is_err());
    }

    proptest! {
        #[test]
        fn prop_display_parse_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
            let p = Ipv4Prefix::new(addr, len).unwrap();
            let back: Ipv4Prefix = p.to_string().parse().unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn prop_contains_consistent_with_overlap(addr in any::<u32>(), len in 8u8..=28, ip in any::<u32>()) {
            let p = Ipv4Prefix::new(addr, len).unwrap();
            let host = Ipv4Prefix::new(ip, 32).unwrap();
            prop_assert_eq!(p.contains(ip), p.overlaps(&host));
        }

        #[test]
        fn prop_subdivide_partition(addr in any::<u32>(), len in 4u8..=20) {
            let p = Ipv4Prefix::new(addr, len).unwrap();
            let subs = p.subdivide(len + 4).unwrap();
            prop_assert_eq!(subs.len(), 16);
            // Disjoint and covering: sizes sum to parent size and none overlap.
            for (i, a) in subs.iter().enumerate() {
                prop_assert!(p.overlaps(a));
                for b in subs.iter().skip(i + 1) {
                    prop_assert!(!a.overlaps(b), "{} overlaps {}", a, b);
                }
            }
            let total: u64 = subs.iter().map(|s| s.size() as u64).sum();
            prop_assert_eq!(total, p.size() as u64);
        }

        #[test]
        fn prop_nth_host_contained(addr in any::<u32>(), len in 8u8..=30, i in any::<u32>()) {
            let p = Ipv4Prefix::new(addr, len).unwrap();
            prop_assert!(p.contains(p.nth_host(i)));
        }
    }
}
