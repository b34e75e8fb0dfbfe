//! IP-to-AS longest-prefix-match database.
//!
//! This is the stand-in for CAIDA's routed-prefix IP-to-AS mapping that the
//! paper uses to turn IP-level traceroutes into AS-level paths (§3.1). The
//! real mapping is imperfect — prefixes go unmapped or stale — and the
//! paper's first elimination rule ("IP-to-AS mapping was not possible")
//! exists precisely because of that, so [`Ip2AsNoise`] lets scenarios
//! degrade the database deliberately.
//!
//! Conversion asks this table ~30 questions per measurement, so the
//! answer is precomputed. A database is built once, from its whole entry
//! list, into **sorted disjoint ranges**: a stack sweep over the sorted
//! prefixes cuts the address space at every point where the longest
//! covering prefix changes, giving `starts[i] → owners[i]` (an unmapped
//! stretch owns `None`; neighbours with one owner are merged). A
//! first-level **index on the address's top bits** — taken relative to
//! the first cut, over the stretch that has cuts in it — says which range
//! holds each bucket's first address, so a lookup is a subtract, a
//! shift, two index reads and a search of the handful of ranges that
//! start inside the bucket. The index is sized from the table — about
//! four slots a range, a power of two, at most 2^16 — so a 600-range
//! table builds in ~15 µs and a 78k-range one in ~1 ms and 1.2 MB. There
//! is no incremental insert: the table is immutable once built and
//! shared by reference count, so every engine, shard worker and restore
//! reads the one copy.
//!
//! Measured on the Small study's own hop addresses (586 ranges) a lookup
//! costs 5.4 ns against 11.3 ns for a plain binary search over the
//! ranges and ~45 ns for the node-per-bit trie this replaced; on the
//! Huge table (77,774 ranges, random routed addresses) 10.8 ns against
//! 30.6 ns and ~150 ns. The index is kept.

use crate::asys::Asn;
use crate::prefix::Ipv4Prefix;
use crate::TopologyError;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Degradation knobs for the IP-to-AS database.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ip2AsNoise {
    /// Fraction of prefixes silently removed (lookup returns `None`).
    pub drop_frac: f64,
    /// Fraction of prefixes remapped to a different (wrong) AS, simulating
    /// stale registry data.
    pub stale_frac: f64,
}

impl Ip2AsNoise {
    /// A perfectly clean database.
    pub fn none() -> Self {
        Ip2AsNoise { drop_frac: 0.0, stale_frac: 0.0 }
    }

    /// Mild realistic imperfection.
    pub fn realistic() -> Self {
        Ip2AsNoise { drop_frac: 0.01, stale_frac: 0.003 }
    }
}

/// Index slots per range (before rounding up to a power of two): enough
/// that most buckets see at most one range start.
const INDEX_SLOTS_PER_RANGE: usize = 4;

/// Ceiling on the first-level index, as a bit count: 2^16 slots.
const MAX_INDEX_BITS: u32 = 16;

/// The compiled form of an entry list (see the module docs).
#[derive(Debug)]
struct Table {
    /// The mappings, sorted by (network, length), each prefix once.
    entries: Vec<(Ipv4Prefix, Asn)>,
    /// First address of each range, ascending; `starts[0] == 0`. Range
    /// `i` runs up to `starts[i + 1]` (the last one to the end of the
    /// address space).
    starts: Vec<u32>,
    /// Longest-match answer for every address of range `i`.
    owners: Vec<Option<Asn>>,
    /// `index[b]` is the range holding bucket `b`'s first address; one
    /// trailing slot holds the last range, so bucket `b`'s candidates are
    /// always `index[b] ..= index[b + 1]`. (Range numbers fit: starts
    /// are distinct `u32`s.)
    index: Vec<u32>,
    /// An address's bucket is `(ip - base) >> shift`, saturating at both
    /// ends of the index.
    base: u32,
    shift: u32,
}

impl Table {
    /// Compile sorted, prefix-unique entries.
    fn compile(entries: Vec<(Ipv4Prefix, Asn)>) -> Table {
        // The sweep: `open` is the chain of prefixes covering the current
        // position, outermost first, each with its exclusive end. CIDR
        // prefixes nest or are disjoint, and a parent sorts before its
        // children, so a prefix that ends at or before the next network
        // address is closed for good — and the space after it belongs to
        // whatever is still open underneath.
        let mut ranges = Ranges { starts: vec![0], owners: vec![None] };
        let mut open: Vec<(u64, Asn)> = Vec::new();
        for &(prefix, asn) in &entries {
            let start = u64::from(prefix.network());
            ranges.close_until(&mut open, start);
            ranges.cut(start, Some(asn));
            open.push((start + (1u64 << (32 - u32::from(prefix.len()))), asn));
        }
        ranges.close_until(&mut open, u64::MAX);
        let Ranges { starts, owners } = ranges;

        // The index covers only the stretch that has cuts in it —
        // `base`, the first cut, to the last — because routed space
        // clusters (a generated world allocates upward from 1.0.0.0;
        // nothing real is routed in 0/8 or above 224/4) and slots spent
        // on empty space are slots not telling ranges apart. Below
        // `base` everything is range 0, past the last cut the last range.
        let slots = (starts.len() * INDEX_SLOTS_PER_RANGE)
            .next_power_of_two()
            .min(1 << MAX_INDEX_BITS);
        let base = starts.get(1).copied().unwrap_or(0);
        let span = u64::from(starts[starts.len() - 1] - base);
        let shift = (u64::BITS - span.leading_zeros()).saturating_sub(slots.trailing_zeros());
        let mut index = Vec::with_capacity(slots + 1);
        let mut range = 0usize;
        for bucket in 0..slots as u64 {
            let first = u64::from(base) + (bucket << shift);
            while starts.get(range + 1).is_some_and(|&s| u64::from(s) <= first) {
                range += 1;
            }
            index.push(range as u32);
        }
        index[0] = 0; // bucket 0 also takes every address below `base`
        index.push((starts.len() - 1) as u32);
        Table { entries, starts, owners, index, base, shift }
    }
}

/// The range list under construction.
struct Ranges {
    starts: Vec<u32>,
    owners: Vec<Option<Asn>>,
}

impl Ranges {
    /// From `start` on, the answer is `owner`. A cut at the previous
    /// cut's address replaces it (a child sharing its parent's network
    /// address, or a prefix beginning where its sibling ended); a cut
    /// that does not change the answer is dropped, which is what merges
    /// adjacent same-AS neighbours.
    fn cut(&mut self, start: u64, owner: Option<Asn>) {
        let Ok(start) = u32::try_from(start) else {
            return; // past the last address: nothing left to describe
        };
        if self.starts.last() == Some(&start) {
            self.starts.pop();
            self.owners.pop();
        }
        if self.owners.last() != Some(&owner) {
            self.starts.push(start);
            self.owners.push(owner);
        }
    }

    /// Close every open prefix that ends at or before `until`, handing
    /// the space after each back to its parent.
    fn close_until(&mut self, open: &mut Vec<(u64, Asn)>, until: u64) {
        while let Some(&(end, _)) = open.last() {
            if end > until {
                break;
            }
            open.pop();
            self.cut(end, open.last().map(|&(_, asn)| asn));
        }
    }
}

/// Longest-prefix-match IP→AS database: an immutable flat table (sorted
/// disjoint ranges behind a top-bits index — see the module docs) built
/// from the whole entry list at once. Cloning shares the table.
///
/// ```
/// use churnlab_topology::{Asn, Ip2AsDb};
///
/// let db = Ip2AsDb::from_entries([
///     ("10.0.0.0/8".parse().unwrap(), Asn(100)),
///     ("10.5.0.0/16".parse().unwrap(), Asn(200)),
/// ]).unwrap();
/// // Longest prefix wins, unmapped space returns None.
/// assert_eq!(db.lookup(u32::from_be_bytes([10, 1, 0, 1])), Some(Asn(100)));
/// assert_eq!(db.lookup(u32::from_be_bytes([10, 5, 9, 9])), Some(Asn(200)));
/// assert_eq!(db.lookup(u32::from_be_bytes([11, 0, 0, 1])), None);
/// ```
#[derive(Debug, Clone)]
pub struct Ip2AsDb {
    table: Arc<Table>,
}

impl Ip2AsDb {
    /// Build from an entry list. Errors if the same exact prefix maps to
    /// two different ASes; a mapping listed twice counts once.
    pub fn from_entries(
        entries: impl IntoIterator<Item = (Ipv4Prefix, Asn)>,
    ) -> Result<Self, TopologyError> {
        // Canonicalize the order: callers often feed HashMap iterations,
        // whose per-instance order would otherwise leak into everything
        // downstream that walks `entries()` while consuming an RNG (e.g.
        // [`Ip2AsDb::degraded`]) and silently break run-to-run determinism.
        let mut entries: Vec<(Ipv4Prefix, Asn)> = entries.into_iter().collect();
        entries.sort();
        entries.dedup();
        if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(TopologyError::PrefixConflict(w[0].0));
        }
        Ok(Self::from_sorted(entries))
    }

    /// Compile entries already sorted and prefix-unique.
    fn from_sorted(entries: Vec<(Ipv4Prefix, Asn)>) -> Self {
        Ip2AsDb { table: Arc::new(Table::compile(entries)) }
    }

    /// Longest-prefix-match lookup.
    #[inline]
    pub fn lookup(&self, ip: u32) -> Option<Asn> {
        let t = &*self.table;
        let bucket = ((ip.saturating_sub(t.base) >> t.shift) as usize).min(t.index.len() - 2);
        // The bucket's first address lies in range `lo`, the next
        // bucket's in `hi`: `ip` is in the last of `lo..=hi` that starts
        // at or before it.
        let (lo, hi) = (t.index[bucket] as usize, t.index[bucket + 1] as usize);
        let range = lo + t.starts[lo + 1..hi + 1].partition_point(|&start| start <= ip);
        t.owners[range]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.table.entries.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.table.entries.is_empty()
    }

    /// Iterate over all (prefix, asn) entries, sorted by prefix.
    pub fn entries(&self) -> impl Iterator<Item = &(Ipv4Prefix, Asn)> {
        self.table.entries.iter()
    }

    /// The same prefixes, each owned by `owner` of its owner — what
    /// [`Ip2AsDb::from_entries`] builds from the remapped entries,
    /// without sorting them again (the order is the prefixes').
    pub fn with_owners(&self, owner: impl Fn(Asn) -> Asn) -> Self {
        Self::from_sorted(self.table.entries.iter().map(|&(p, a)| (p, owner(a))).collect())
    }

    /// Bytes the table holds on the heap (shared by every clone).
    pub fn heap_bytes(&self) -> usize {
        let t = &*self.table;
        t.entries.capacity() * std::mem::size_of::<(Ipv4Prefix, Asn)>()
            + t.starts.capacity() * std::mem::size_of::<u32>()
            + t.owners.capacity() * std::mem::size_of::<Option<Asn>>()
            + t.index.capacity() * std::mem::size_of::<u32>()
    }

    /// Produce a degraded copy of the database, dropping and remapping
    /// entries according to `noise`. `all_asns` supplies the pool of wrong
    /// answers for stale entries. Deterministic given the RNG state.
    pub fn degraded<R: Rng>(&self, noise: Ip2AsNoise, all_asns: &[Asn], rng: &mut R) -> Self {
        let mut kept = Vec::with_capacity(self.len());
        for &(p, a) in &self.table.entries {
            let roll: f64 = rng.gen();
            if roll < noise.drop_frac {
                continue; // unmapped prefix
            }
            let asn = if roll < noise.drop_frac + noise.stale_frac && all_asns.len() > 1 {
                // Pick a wrong AS deterministically.
                loop {
                    let cand = *all_asns.choose(rng).expect("non-empty pool");
                    if cand != a {
                        break cand;
                    }
                }
            } else {
                a
            };
            kept.push((p, asn));
        }
        // A subsequence of sorted unique prefixes is sorted and unique.
        Self::from_sorted(kept)
    }
}

impl Default for Ip2AsDb {
    /// The empty database: every lookup is `None`.
    fn default() -> Self {
        Self::from_sorted(Vec::new())
    }
}

/// The structures the flat table replaced, kept as differential oracles:
/// a node-per-bit binary trie and a linear scan for the longest match.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    const NO_NODE: u32 = u32::MAX;

    struct TrieNode {
        child: [u32; 2],
        asn: Option<Asn>,
    }

    /// The pre-table implementation: one node per prefix bit, lookups
    /// walk at most 32 nodes.
    pub(crate) struct Trie {
        nodes: Vec<TrieNode>,
    }

    impl Trie {
        pub(crate) fn of(db: &Ip2AsDb) -> Trie {
            let mut trie = Trie { nodes: vec![TrieNode { child: [NO_NODE; 2], asn: None }] };
            for &(prefix, asn) in db.entries() {
                trie.insert(prefix, asn);
            }
            trie
        }

        fn insert(&mut self, prefix: Ipv4Prefix, asn: Asn) {
            let mut node = 0u32;
            let addr = prefix.network();
            for bit_i in 0..prefix.len() {
                let bit = ((addr >> (31 - bit_i as u32)) & 1) as usize;
                let next = self.nodes[node as usize].child[bit];
                let next = if next == NO_NODE {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(TrieNode { child: [NO_NODE; 2], asn: None });
                    self.nodes[node as usize].child[bit] = id;
                    id
                } else {
                    next
                };
                node = next;
            }
            self.nodes[node as usize].asn = Some(asn);
        }

        pub(crate) fn lookup(&self, ip: u32) -> Option<Asn> {
            let mut node = 0u32;
            let mut best = self.nodes[0].asn;
            for bit_i in 0..32 {
                let bit = ((ip >> (31 - bit_i)) & 1) as usize;
                let next = self.nodes[node as usize].child[bit];
                if next == NO_NODE {
                    break;
                }
                node = next;
                if let Some(a) = self.nodes[node as usize].asn {
                    best = Some(a);
                }
            }
            best
        }
    }

    /// Linear scan for the longest matching prefix.
    pub(crate) fn lookup_linear(db: &Ip2AsDb, ip: u32) -> Option<Asn> {
        db.entries().filter(|(p, _)| p.contains(ip)).max_by_key(|(p, _)| p.len()).map(|&(_, a)| a)
    }

    /// Every address at which the answer can change: each prefix's
    /// `network − 1`, `network`, `last` and `last + 1` (wrapping, so the
    /// ends of the address space are probed too).
    pub(crate) fn boundaries(db: &Ip2AsDb) -> impl Iterator<Item = u32> + '_ {
        db.entries().flat_map(|&(prefix, _)| {
            let last = prefix.network() | !Ipv4Prefix::mask(prefix.len());
            [prefix.network().wrapping_sub(1), prefix.network(), last, last.wrapping_add(1)]
        })
    }

    /// The table, the trie and the scan give one answer at every
    /// boundary. The scan makes this quadratic: for tables of a few
    /// thousand prefixes.
    pub(crate) fn assert_agrees(db: &Ip2AsDb) {
        let trie = Trie::of(db);
        for ip in boundaries(db) {
            let got = db.lookup(ip);
            assert_eq!(got, trie.lookup(ip), "table vs trie at {ip:#010x}");
            assert_eq!(got, lookup_linear(db, ip), "table vs scan at {ip:#010x}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> u32 {
        u32::from(s.parse::<Ipv4Addr>().unwrap())
    }

    fn px(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn longest_prefix_wins() {
        let db = Ip2AsDb::from_entries([
            (px("10.0.0.0/8"), Asn(100)),
            (px("10.5.0.0/16"), Asn(200)),
            (px("10.5.7.0/24"), Asn(300)),
        ])
        .unwrap();
        assert_eq!(db.lookup(ip("10.1.1.1")), Some(Asn(100)));
        assert_eq!(db.lookup(ip("10.5.1.1")), Some(Asn(200)));
        assert_eq!(db.lookup(ip("10.5.7.9")), Some(Asn(300)));
        assert_eq!(db.lookup(ip("11.0.0.1")), None);
        oracle::assert_agrees(&db);
    }

    #[test]
    fn from_entries_order_canonical() {
        // Regression: callers feed HashMap iterations whose order varies
        // per instance; the db (and anything walking entries() with an
        // RNG, like degraded()) must not depend on it.
        let mut entries: Vec<(Ipv4Prefix, Asn)> =
            (0u32..64).map(|i| (Ipv4Prefix::new(i << 20, 12).unwrap(), Asn(i))).collect();
        let a = Ip2AsDb::from_entries(entries.clone()).unwrap();
        entries.reverse();
        let b = Ip2AsDb::from_entries(entries).unwrap();
        let ea: Vec<_> = a.entries().collect();
        let eb: Vec<_> = b.entries().collect();
        assert_eq!(ea, eb, "entry order must be canonical");
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let pool: Vec<Asn> = (0..64).map(Asn).collect();
        let noise = Ip2AsNoise { drop_frac: 0.2, stale_frac: 0.2 };
        let da: Vec<_> = a.degraded(noise, &pool, &mut r1).entries().copied().collect();
        let db_: Vec<_> = b.degraded(noise, &pool, &mut r2).entries().copied().collect();
        assert_eq!(da, db_, "degradation must be input-order independent");
    }

    #[test]
    fn exact_conflict_rejected_identical_ok() {
        let twice = [(px("10.0.0.0/8"), Asn(1)), (px("10.0.0.0/8"), Asn(1))];
        let db = Ip2AsDb::from_entries(twice).unwrap(); // idempotent
        assert_eq!(db.len(), 1);
        assert_eq!(
            Ip2AsDb::from_entries(twice.into_iter().chain([(px("10.0.0.0/8"), Asn(2))])).err(),
            Some(TopologyError::PrefixConflict(px("10.0.0.0/8")))
        );
    }

    #[test]
    fn default_route_matches_everything() {
        let db = Ip2AsDb::from_entries([(px("0.0.0.0/0"), Asn(7))]).unwrap();
        assert_eq!(db.lookup(0), Some(Asn(7)));
        assert_eq!(db.lookup(u32::MAX), Some(Asn(7)));
        assert_eq!(Ip2AsDb::default().lookup(0), None);
        assert_eq!(Ip2AsDb::default().lookup(u32::MAX), None);
    }

    #[test]
    fn adjacent_same_as_siblings_merge_into_one_range() {
        // Two halves of 10.0.0.0/8 owned by one AS, a hole, then a third
        // prefix: the halves need no cut between them.
        let db = Ip2AsDb::from_entries([
            (px("10.0.0.0/9"), Asn(1)),
            (px("10.128.0.0/9"), Asn(1)),
            (px("12.0.0.0/8"), Asn(2)),
        ])
        .unwrap();
        let cuts = ["0.0.0.0", "10.0.0.0", "11.0.0.0", "12.0.0.0", "13.0.0.0"];
        assert_eq!(db.table.starts, cuts.map(ip));
        assert_eq!(db.table.owners, [None, Some(Asn(1)), None, Some(Asn(2)), None]);
        oracle::assert_agrees(&db);
    }

    #[test]
    fn index_is_sized_from_the_table() {
        let table_of = |n_prefixes: u32| {
            Ip2AsDb::from_entries(
                (1..=n_prefixes).map(|i| (Ipv4Prefix::new(i << 12, 24).unwrap(), Asn(i))),
            )
            .unwrap()
        };
        let shape = |db: &Ip2AsDb| (db.table.starts.len(), db.table.index.len() - 1);
        assert_eq!(shape(&table_of(0)), (1, 4));
        // 2n + 1 ranges (a hole before and after every /24), four slots a
        // range rounded up to a power of two.
        let db = table_of(100);
        assert_eq!(shape(&db), (201, 1024));
        oracle::assert_agrees(&db);
        // ... and never past 2^16 slots, however many ranges there are.
        let db = table_of(20_000);
        assert_eq!(shape(&db), (40_001, 1 << 16));
        let trie = oracle::Trie::of(&db);
        for ip in oracle::boundaries(&db) {
            assert_eq!(db.lookup(ip), trie.lookup(ip), "at {ip:#010x}");
        }
    }

    #[test]
    fn degraded_drops_and_remaps() {
        let entries: Vec<_> =
            (0u32..200).map(|i| (Ipv4Prefix::new(i << 16, 16).unwrap(), Asn(1000 + i))).collect();
        let db = Ip2AsDb::from_entries(entries).unwrap();
        let pool: Vec<Asn> = (0..200).map(|i| Asn(1000 + i)).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let noisy =
            db.degraded(Ip2AsNoise { drop_frac: 0.2, stale_frac: 0.2 }, &pool, &mut rng);
        assert!(noisy.len() < db.len(), "some prefixes must be dropped");
        let remapped = noisy
            .entries()
            .filter(|(p, a)| db.lookup(p.network()) != Some(*a))
            .count();
        assert!(remapped > 0, "some prefixes must be stale");
        oracle::assert_agrees(&noisy);
    }

    #[test]
    fn degraded_deterministic() {
        let entries: Vec<_> =
            (0u32..50).map(|i| (Ipv4Prefix::new(i << 20, 12).unwrap(), Asn(i))).collect();
        let db = Ip2AsDb::from_entries(entries).unwrap();
        let pool: Vec<Asn> = (0..50).map(Asn).collect();
        let a = db.degraded(Ip2AsNoise::realistic(), &pool, &mut StdRng::seed_from_u64(9));
        let b = db.degraded(Ip2AsNoise::realistic(), &pool, &mut StdRng::seed_from_u64(9));
        let ea: Vec<_> = a.entries().collect();
        let eb: Vec<_> = b.entries().collect();
        assert_eq!(ea, eb);
    }

    /// Prefix tables built to hit the sweep's corners: a `/0` under
    /// everything, `/32`s, chains nested on one network address and on
    /// their parent's last address, and split siblings that may or may
    /// not share an AS.
    fn arb_table() -> impl Strategy<Value = Vec<(Ipv4Prefix, Asn)>> {
        let asn = || (0u32..4).prop_map(Asn);
        let anywhere = (any::<u32>(), 0u8..=32, asn())
            .prop_map(|(addr, len, a)| vec![(Ipv4Prefix::new(addr, len).unwrap(), a)]);
        let links = proptest::collection::vec((0u8..=32, asn()), 1..6);
        let chain = (any::<u32>(), any::<bool>(), links).prop_map(|(addr, at_end, links)| {
            // Every length over one address nests; over the all-ones
            // host address the children sit at their parents' ends.
            let addr = if at_end { addr | 0xffff } else { addr };
            links.into_iter().map(|(len, a)| (Ipv4Prefix::new(addr, len).unwrap(), a)).collect()
        });
        let siblings = (any::<u32>(), 1u8..=32, asn(), asn()).prop_map(|(addr, len, a, b)| {
            let left = Ipv4Prefix::new(addr, len).unwrap();
            let right = Ipv4Prefix::new(left.network() ^ (1 << (32 - u32::from(len))), len).unwrap();
            vec![(left, a), (right, b)]
        });
        proptest::collection::vec(prop_oneof![anywhere, chain, siblings], 1..24)
            .prop_map(|groups| groups.concat())
    }

    proptest! {
        #[test]
        fn prop_trie_matches_linear(
            entries in arb_table(),
            probes in proptest::collection::vec(any::<u32>(), 32),
        ) {
            // Exact conflicts: first mapping wins.
            let mut seen = std::collections::HashSet::new();
            let db = Ip2AsDb::from_entries(entries.into_iter().filter(|(p, _)| seen.insert(*p)))
                .unwrap();
            oracle::assert_agrees(&db);
            let trie = oracle::Trie::of(&db);
            for probe in probes {
                prop_assert_eq!(db.lookup(probe), trie.lookup(probe));
                prop_assert_eq!(db.lookup(probe), oracle::lookup_linear(&db, probe));
            }
        }
    }
}
