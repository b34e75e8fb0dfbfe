//! Shard-local AS-path interning.
//!
//! Path churn means the engine re-sees *few distinct paths, observed many
//! times* (the committed smoke bench: ~72% of per-cell observations are
//! duplicates). The [`PathTable`] exploits that: each distinct path is
//! hashed and copied **once per shard**, yielding a dense
//! [`PathId`] plus a precomputed flat slice into a single [`Asn`] arena
//! (CSR layout: one arena, one offset per path). Everything
//! downstream — per-instance dedup, clause storage, report cells — then
//! works on the `u32` id: the duplicate-dominated observe path drops from
//! O(path-len) hashing per instance cell to an O(1) integer probe.
//!
//! The table also keeps each distinct path's churn hash
//! ([`churnlab_core::churnstats::path_hash`], the 64 bits churn accounting
//! stores per path), computed when the path is first interned: the shard
//! reads it back by id for every later measurement over the same path, so
//! the FNV pass over the ASNs runs once per distinct path, not once per
//! measurement. It is derived state — not checkpointed, recomputed when a
//! restore re-interns the arena.
//!
//! Id stability: ids are dense, assigned in first-intern order, and never
//! reassigned, so an id held by a retired cell or a checkpoint resolves
//! to the same path for the table's whole life (see [`PathId`]'s
//! guarantees).

use churnlab_core::churnstats::path_hash;
use churnlab_core::obs::PathId;
use churnlab_topology::{Asn, FxMap};
use serde::{Deserialize, Serialize};

/// Interner work counters (hit rate = how duplicate-dominated the stream
/// was at *measurement* granularity, before the instance fan-out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InternStats {
    /// Distinct paths interned (arena entries).
    pub distinct_paths: u64,
    /// Intern calls answered from the table (duplicates at measurement
    /// granularity).
    pub hits: u64,
}

impl InternStats {
    /// Fold another counter set into this one (shard fan-in; the sums are
    /// per-shard tallies, so a path crossing shards counts once *per
    /// shard* it is distinct in).
    pub fn merge(&mut self, other: InternStats) {
        self.distinct_paths += other.distinct_paths;
        self.hits += other.hits;
    }

    /// Fraction of intern calls answered from the table.
    pub fn hit_rate(&self) -> f64 {
        let total = self.distinct_paths + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The shard-local path interner: distinct AS paths stored once in a CSR
/// arena, addressed by dense [`PathId`]s.
#[derive(Debug, Default, Clone)]
pub struct PathTable {
    /// Path → id. Keyed by an owned copy but probed by slice
    /// (`Box<[Asn]>: Borrow<[Asn]>`), so the frequent duplicate intern
    /// hashes the path once and allocates nothing.
    ids: FxMap<Box<[Asn]>, PathId>,
    /// Concatenated paths (CSR values).
    arena: Vec<Asn>,
    /// Path `i` occupies `arena[offsets[i] .. offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Concatenated per-path *distinct-AS* lists (first-occurrence order)
    /// — the variable set each path contributes to an instance, so the
    /// fan-out never re-dedups ASes within a path.
    distinct_arena: Vec<Asn>,
    /// Distinct list `i` occupies
    /// `distinct_arena[distinct_offsets[i] .. distinct_offsets[i + 1]]`.
    distinct_offsets: Vec<u32>,
    /// Path `i`'s churn hash.
    churn_hashes: Vec<u64>,
    /// Intern calls answered from the table.
    hits: u64,
}

/// Ids and CSR offsets are `u32`: a count or arena length that no longer
/// fits must stop the shard, not wrap into an id some other path owns.
fn checked_u32(n: usize, what: &str) -> Result<u32, String> {
    u32::try_from(n)
        .map_err(|_| format!("PathTable: {what} is {n}, past the u32 limit of {}", u32::MAX))
}

impl PathTable {
    /// Fresh empty table.
    pub fn new() -> Self {
        PathTable {
            ids: FxMap::default(),
            arena: Vec::new(),
            offsets: vec![0],
            distinct_arena: Vec::new(),
            distinct_offsets: vec![0],
            churn_hashes: Vec::new(),
            hits: 0,
        }
    }

    /// Intern one path: one hash probe; a copy into the arena only the
    /// first time this exact path is seen.
    ///
    /// # Panics
    ///
    /// When the table outgrows its `u32` ids or offsets (2^32 − 1 paths
    /// or arena entries).
    pub fn intern(&mut self, path: &[Asn]) -> PathId {
        if let Some(&id) = self.ids.get(path) {
            self.hits += 1;
            return id;
        }
        let checked = |n, what| checked_u32(n, what).unwrap_or_else(|e| panic!("{e}"));
        let id = PathId(checked(self.len(), "the path count"));
        self.arena.extend_from_slice(path);
        self.offsets.push(checked(self.arena.len(), "the path arena's length"));
        self.derive(id);
        self.ids.insert(path.into(), id);
        id
    }

    /// Append what the table derives from path `id`, the last one in the
    /// arena: its distinct-AS sublist and its churn hash.
    fn derive(&mut self, id: PathId) {
        let Self { arena, offsets, distinct_arena, distinct_offsets, churn_hashes, .. } = self;
        let i = id.usize();
        let path = &arena[offsets[i] as usize..offsets[i + 1] as usize];
        // Paths are short, so a linear scan over the part already
        // appended beats hashing.
        let start = distinct_arena.len();
        for a in path {
            if !distinct_arena[start..].contains(a) {
                distinct_arena.push(*a);
            }
        }
        // Never past the path arena's length, which `offsets` holds.
        distinct_offsets.push(distinct_arena.len() as u32);
        churn_hashes.push(path_hash(path));
    }

    /// The interned path, vantage AS first.
    #[inline]
    pub fn path(&self, id: PathId) -> &[Asn] {
        let i = id.usize();
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The path's distinct ASes, first-occurrence order.
    #[inline]
    pub fn distinct(&self, id: PathId) -> &[Asn] {
        let i = id.usize();
        &self.distinct_arena[self.distinct_offsets[i] as usize..self.distinct_offsets[i + 1] as usize]
    }

    /// The path's churn hash: [`path_hash`] of [`PathTable::path`].
    #[inline]
    pub fn churn_hash(&self, id: PathId) -> u64 {
        self.churn_hashes[id.usize()]
    }

    /// Number of distinct paths interned.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if nothing was interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table's work counters.
    pub fn stats(&self) -> InternStats {
        InternStats { distinct_paths: self.len() as u64, hits: self.hits }
    }
}

impl PathTable {
    /// Serialize the table for a checkpoint: the CSR arena, offsets, and
    /// hit counter. The dedup map and distinct lists are derivable, so
    /// they are rebuilt at decode time.
    pub(crate) fn encode(&self, e: &mut crate::ckpt::Enc) {
        e.u64(self.hits);
        e.u32s(&self.offsets);
        e.asns(&self.arena);
    }

    /// Rebuild a table from its stored arena, every path keeping its id —
    /// ids are dense and assigned in first-intern order, so path `i` is
    /// id `i` and every `PathId` referenced elsewhere in the checkpoint
    /// stays valid. The decoded arena and offsets are adopted as they
    /// are; the map and the derived lists are reserved whole up front.
    pub(crate) fn decode(d: &mut crate::ckpt::Dec) -> Result<PathTable, String> {
        let hits = d.u64()?;
        let offsets = d.u32s()?;
        let arena = d.asns()?;
        if offsets.first() != Some(&0) {
            return Err("path arena offsets must start at 0".to_string());
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("path arena offsets must be monotone".to_string());
        }
        if offsets.last().copied().unwrap_or(0) as usize != arena.len() {
            return Err("path arena offsets do not cover the arena".to_string());
        }
        let n = offsets.len() - 1;
        let mut t = PathTable {
            ids: FxMap::with_capacity_and_hasher(n, Default::default()),
            distinct_arena: Vec::with_capacity(arena.len()),
            distinct_offsets: Vec::with_capacity(n + 1),
            churn_hashes: Vec::with_capacity(n),
            arena,
            offsets,
            hits,
        };
        t.distinct_offsets.push(0);
        for i in 0..n {
            let id = PathId(i as u32);
            if t.ids.insert(t.path(id).into(), id).is_some() {
                return Err(format!("duplicate path in arena at id {i}"));
            }
            t.derive(id);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|x| Asn(*x)).collect()
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = PathTable::new();
        let a = t.intern(&asns(&[1, 2, 3]));
        let b = t.intern(&asns(&[4, 5]));
        let a2 = t.intern(&asns(&[1, 2, 3]));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.0, b.0), (0, 1), "ids are dense, first-intern order");
        assert_eq!(t.len(), 2);
        assert_eq!(t.path(a), asns(&[1, 2, 3]).as_slice());
        assert_eq!(t.path(b), asns(&[4, 5]).as_slice());
        assert_eq!(t.churn_hash(b), path_hash(&asns(&[4, 5])), "hashed once, read back by id");
        assert_eq!(t.stats(), InternStats { distinct_paths: 2, hits: 1 });
    }

    #[test]
    fn distinct_list_dedups_repeated_ases_in_order() {
        let mut t = PathTable::new();
        let id = t.intern(&asns(&[7, 3, 7, 9, 3]));
        assert_eq!(t.path(id), asns(&[7, 3, 7, 9, 3]).as_slice(), "full path kept verbatim");
        assert_eq!(t.distinct(id), asns(&[7, 3, 9]).as_slice(), "first-occurrence dedup");
    }

    #[test]
    fn lengths_past_u32_are_refused_by_name() {
        assert_eq!(checked_u32(0, "the path count"), Ok(0));
        assert_eq!(checked_u32(u32::MAX as usize, "the path count"), Ok(u32::MAX));
        let err = checked_u32(u32::MAX as usize + 1, "the path arena's length").unwrap_err();
        assert!(err.contains("the path arena's length is 4294967296"), "{err}");
        assert!(err.contains("u32 limit of 4294967295"), "{err}");
    }

    #[test]
    fn prefix_paths_are_distinct_entries() {
        // CSR slicing must not confuse a path with its prefix.
        let mut t = PathTable::new();
        let long = t.intern(&asns(&[1, 2, 3]));
        let short = t.intern(&asns(&[1, 2]));
        assert_ne!(long, short);
        assert_eq!(t.path(short), asns(&[1, 2]).as_slice());
    }
}
