//! Checkpoint codec: the versioned, length-prefixed little-endian binary
//! format the engine snapshots its full state into.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "CHRNCKPT" | version u32 | reserved u32
//! cursor u64 | user blob (len-prefixed)
//! pipeline-config JSON (len-prefixed) | shard count u32 | horizon opt<u32>
//! engine retired state (churn tallies + frontier + findings + trivial)
//! shard blob count u32 | per shard: blob (len-prefixed) + FNV-1a checksum u64
//! ```
//!
//! Every collection is written in a sorted order, so checkpointing the
//! same logical state twice produces byte-identical files. Decoding
//! validates lengths, enum tags, and per-shard checksums — and, in the
//! engine's retired state, which carries no checksum, the order every
//! list is written in and that each churn tally adds up; any violation
//! surfaces as [`RestoreError::Corrupt`] rather than a panic. A list is
//! written with its room reserved once and read as one checked slice.

use churnlab_bgp::{Granularity, TimeWindow};
use churnlab_core::accumulate::FindingsAccumulator;
use churnlab_core::pipeline::CensorFinding;
use churnlab_core::{ChurnTally, RetiredChurn};
use churnlab_platform::{AnomalySet, AnomalyType};
use churnlab_topology::Asn;

/// File magic, first eight bytes of every checkpoint.
pub(crate) const MAGIC: [u8; 8] = *b"CHRNCKPT";

/// Current format version. Bump on any layout change; restore refuses
/// versions it does not know.
pub(crate) const VERSION: u32 = 1;

/// An error restoring an engine from a checkpoint.
#[derive(Debug)]
pub enum RestoreError {
    /// Reading the checkpoint stream failed.
    Io(std::io::Error),
    /// The stream is not a well-formed checkpoint (bad magic, unknown
    /// version, truncated section, checksum mismatch, invalid tag).
    Corrupt(String),
    /// The checkpoint is well-formed but was taken by an engine with a
    /// different configuration (pipeline config, shard count, or window
    /// horizon) than the one restoring it.
    Mismatch(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Io(e) => write!(f, "checkpoint read failed: {e}"),
            RestoreError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            RestoreError::Mismatch(m) => write!(f, "checkpoint/config mismatch: {m}"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Encoder: appends little-endian primitives to a byte buffer.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }

    /// Hand `ship` what has been written once it reaches `at` bytes, and
    /// go on writing into a fresh buffer of `at` twice over: a blob
    /// encoded this way leaves in pieces while the rest is still being
    /// written.
    pub(crate) fn ship_at(&mut self, at: usize, ship: &mut impl FnMut(Vec<u8>)) {
        if self.buf.len() >= at {
            ship(std::mem::replace(&mut self.buf, Vec::with_capacity(2 * at)));
        }
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A count-prefixed list, its room reserved once for the whole list.
    fn list<T: Copy, const N: usize>(&mut self, v: &[T], le: impl Fn(T) -> [u8; N]) {
        self.buf.reserve(8 + N * v.len());
        self.u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&le(x));
        }
    }

    pub(crate) fn u32s(&mut self, v: &[u32]) {
        self.list(v, u32::to_le_bytes);
    }

    pub(crate) fn u64s(&mut self, v: &[u64]) {
        self.list(v, u64::to_le_bytes);
    }

    pub(crate) fn asns(&mut self, v: &[Asn]) {
        self.list(v, |a| a.0.to_le_bytes());
    }

    pub(crate) fn window(&mut self, w: TimeWindow) {
        self.u8(granularity_tag(w.granularity));
        self.u32(w.index);
    }
}

/// Decoder over a checkpoint byte slice; every read is bounds-checked.
#[derive(Debug)]
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(le_u32(self.take(4)?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(le_u64(self.take(8)?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn opt_u32(&mut self) -> Result<Option<u32>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(format!("bad option tag {t}")),
        }
    }

    /// A length prefix used to size an upcoming collection read: bounded
    /// by the remaining bytes so a corrupt length cannot trigger an
    /// enormous allocation.
    pub(crate) fn len(&mut self) -> Result<usize, String> {
        self.count(1)
    }

    /// [`Dec::len`] for a collection whose every item takes at least
    /// `width` bytes: the count is bounded by what the remaining bytes can
    /// hold, so the collection may be reserved whole up front.
    pub(crate) fn count(&mut self, width: usize) -> Result<usize, String> {
        let n = self.u64()?;
        match usize::try_from(n).ok().and_then(|n| n.checked_mul(width)) {
            Some(bytes) if bytes <= self.buf.len() - self.pos => Ok(n as usize),
            _ => Err(format!("implausible collection length {n}")),
        }
    }

    /// A count-prefixed list of `width`-byte items, as one checked slice.
    fn list(&mut self, width: usize) -> Result<&'a [u8], String> {
        let n = self.count(width)?;
        self.take(n * width)
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.len()?;
        self.take(n)
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| "invalid UTF-8 string".to_string())
    }

    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>, String> {
        Ok(self.list(4)?.chunks_exact(4).map(le_u32).collect())
    }

    pub(crate) fn asns(&mut self) -> Result<Vec<Asn>, String> {
        Ok(self.list(4)?.chunks_exact(4).map(|b| Asn(le_u32(b))).collect())
    }

    /// A `u64` list as its items, without collecting them.
    pub(crate) fn u64_items(&mut self) -> Result<impl ExactSizeIterator<Item = u64> + 'a, String> {
        Ok(self.list(8)?.chunks_exact(8).map(le_u64))
    }

    pub(crate) fn window(&mut self) -> Result<TimeWindow, String> {
        let granularity = granularity_from(self.u8()?)?;
        let index = self.u32()?;
        Ok(TimeWindow { granularity, index })
    }

    pub(crate) fn anomaly_set(&mut self) -> Result<AnomalySet, String> {
        let bits = self.u8()?;
        if bits as usize >= 1 << AnomalyType::ALL.len() {
            return Err(format!("bad anomaly-set bits {bits:#x}"));
        }
        let mut set = AnomalySet::empty();
        for (i, a) in AnomalyType::ALL.into_iter().enumerate() {
            if bits & (1 << i) != 0 {
                set.insert(a);
            }
        }
        Ok(set)
    }

    /// True when the whole buffer has been consumed.
    pub(crate) fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after checkpoint body", self.buf.len() - self.pos))
        }
    }
}

/// A little-endian `u32` from a 4-byte chunk.
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("a 4-byte chunk"))
}

/// A little-endian `u64` from an 8-byte chunk.
pub(crate) fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte chunk"))
}

/// `Err` unless `v` is strictly ascending: every list an encoder writes
/// sorted, read back.
pub(crate) fn ascending<T: Ord>(v: &[T], what: &str) -> Result<(), String> {
    if v.is_sorted_by(|a, b| a < b) {
        Ok(())
    } else {
        Err(format!("{what} are not strictly ascending"))
    }
}

/// `Err` unless `next` comes strictly after the item before it in a
/// sorted list; remembers `next` for the item after.
fn strictly_after<T: Ord + Copy + std::fmt::Debug>(
    prev: &mut Option<T>,
    next: T,
    what: &str,
) -> Result<(), String> {
    if prev.is_some_and(|p| p >= next) {
        return Err(format!("{what} not strictly ascending at {next:?}"));
    }
    *prev = Some(next);
    Ok(())
}

/// Granularity → stable wire tag (index in [`Granularity::ALL`]).
pub(crate) fn granularity_tag(g: Granularity) -> u8 {
    Granularity::ALL.iter().position(|x| *x == g).expect("known granularity") as u8
}

/// Wire tag → granularity.
pub(crate) fn granularity_from(tag: u8) -> Result<Granularity, String> {
    Granularity::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| format!("bad granularity tag {tag}"))
}

/// Anomaly type → stable wire tag (index in [`AnomalyType::ALL`]).
pub(crate) fn anomaly_tag(a: AnomalyType) -> u8 {
    AnomalyType::ALL.iter().position(|x| *x == a).expect("known anomaly") as u8
}

/// Wire tag → anomaly type.
pub(crate) fn anomaly_from(tag: u8) -> Result<AnomalyType, String> {
    AnomalyType::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| format!("bad anomaly tag {tag}"))
}

/// Encode retired churn tallies (sorted rows, so bytes are canonical).
pub(crate) fn encode_retired_churn(e: &mut Enc, r: &RetiredChurn) {
    let rows = r.entries_sorted();
    e.u64(rows.len() as u64);
    for (g, dest, tally) in rows {
        e.u8(granularity_tag(g));
        e.u32(dest.0);
        for b in tally.buckets {
            e.u64(b);
        }
        e.u64(tally.total);
    }
}

/// Decode retired churn tallies. The section carries no checksum, so
/// what the encoder guarantees is checked instead: rows strictly
/// ascending by (granularity, destination), and each tally's five
/// buckets summing to its total.
pub(crate) fn decode_retired_churn(d: &mut Dec) -> Result<RetiredChurn, String> {
    const ROW: usize = 1 + 4 + 6 * 8;
    let n = d.count(ROW)?;
    let mut r = RetiredChurn::default();
    let mut prev = None;
    for _ in 0..n {
        let g = granularity_from(d.u8()?)?;
        let dest = Asn(d.u32()?);
        strictly_after(&mut prev, (g, dest), "retired churn rows")?;
        let mut buckets = [0u64; 5];
        for b in &mut buckets {
            *b = d.u64()?;
        }
        let total = d.u64()?;
        if buckets.iter().try_fold(0u64, |sum, &b| sum.checked_add(b)) != Some(total) {
            return Err(format!(
                "retired churn tally ({g}, {dest}): buckets {buckets:?} do not sum to {total}"
            ));
        }
        r.insert(g, dest, ChurnTally { buckets, total });
    }
    Ok(r)
}

/// Encode a findings accumulator (engine-held drained findings), every
/// map/set sorted.
pub(crate) fn encode_findings(e: &mut Enc, f: &FindingsAccumulator) {
    let mut censors: Vec<&CensorFinding> = f.censor_findings.values().collect();
    censors.sort_by_key(|c| c.asn);
    e.u64(censors.len() as u64);
    for c in censors {
        e.u32(c.asn.0);
        let mut bits = 0u8;
        for a in &c.anomalies {
            bits |= 1 << anomaly_tag(*a);
        }
        e.u8(bits);
        let urls: Vec<u32> = c.url_ids.iter().copied().collect();
        e.u32s(&urls);
        e.u64(c.n_instances);
    }
    let mut victims: Vec<(Asn, Vec<u32>)> = f
        .leakage
        .victims_by_censor
        .iter()
        .map(|(censor, set)| {
            let mut v: Vec<u32> = set.iter().map(|a| a.0).collect();
            v.sort_unstable();
            (*censor, v)
        })
        .collect();
    victims.sort_by_key(|(c, _)| *c);
    e.u64(victims.len() as u64);
    for (censor, v) in victims {
        e.u32(censor.0);
        e.u32s(&v);
    }
    let mut countries: Vec<(Asn, Vec<&String>)> = f
        .leakage
        .victim_countries_by_censor
        .iter()
        .map(|(censor, set)| {
            let mut v: Vec<&String> = set.iter().collect();
            v.sort();
            (*censor, v)
        })
        .collect();
    countries.sort_by_key(|(c, _)| *c);
    e.u64(countries.len() as u64);
    for (censor, v) in countries {
        e.u32(censor.0);
        e.u64(v.len() as u64);
        for s in v {
            e.str(s);
        }
    }
    let mut horizon: Vec<u32> = f.on_censored_path.iter().map(|a| a.0).collect();
    horizon.sort_unstable();
    e.u32s(&horizon);
}

/// Decode a findings accumulator. Like the retired churn tallies this
/// section carries no checksum, so every list must come back in the
/// strictly ascending order the encoder writes it in.
pub(crate) fn decode_findings(d: &mut Dec) -> Result<FindingsAccumulator, String> {
    let mut f = FindingsAccumulator::new();
    let n = d.len()?;
    let mut prev = None;
    for _ in 0..n {
        let asn = Asn(d.u32()?);
        strictly_after(&mut prev, asn, "censor findings")?;
        let set = d.anomaly_set()?;
        let anomalies = AnomalyType::ALL.into_iter().filter(|a| set.contains(*a)).collect();
        let url_ids = d.u32s()?;
        ascending(&url_ids, "a censor's url ids")?;
        let n_instances = d.u64()?;
        let url_ids = url_ids.into_iter().collect();
        f.censor_findings.insert(asn, CensorFinding { asn, anomalies, url_ids, n_instances });
    }
    let n = d.len()?;
    let mut prev = None;
    for _ in 0..n {
        let censor = Asn(d.u32()?);
        strictly_after(&mut prev, censor, "leakage victim lists")?;
        let victims = d.asns()?;
        ascending(&victims, "a censor's victims")?;
        f.leakage.victims_by_censor.insert(censor, victims.into_iter().collect());
    }
    let n = d.len()?;
    let mut prev = None;
    for _ in 0..n {
        let censor = Asn(d.u32()?);
        strictly_after(&mut prev, censor, "victim country lists")?;
        let m = d.len()?;
        let countries = (0..m).map(|_| d.str()).collect::<Result<Vec<_>, _>>()?;
        ascending(&countries, "a censor's victim countries")?;
        f.leakage.victim_countries_by_censor.insert(censor, countries.into_iter().collect());
    }
    let horizon = d.asns()?;
    ascending(&horizon, "the observability horizon's ASes")?;
    f.on_censored_path = horizon.into_iter().collect();
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::default();
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 3);
        e.f64(0.125);
        e.opt_u32(None);
        e.opt_u32(Some(42));
        e.str("hello");
        e.u32s(&[1, 2, 3]);
        e.u64s(&[9]);
        e.window(TimeWindow { granularity: Granularity::Week, index: 5 });
        e.u8(1 << anomaly_tag(AnomalyType::Dns)); // a one-anomaly set
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), 0.125);
        assert_eq!(d.opt_u32().unwrap(), None);
        assert_eq!(d.opt_u32().unwrap(), Some(42));
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.u64_items().unwrap().collect::<Vec<_>>(), vec![9]);
        assert_eq!(
            d.window().unwrap(),
            TimeWindow { granularity: Granularity::Week, index: 5 }
        );
        let back = d.anomaly_set().unwrap();
        assert!(back.contains(AnomalyType::Dns));
        d.done().unwrap();
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        let mut e = Enc::default();
        e.u64(u64::MAX); // implausible collection length
        let mut d = Dec::new(&e.buf);
        assert!(d.len().is_err());
        let mut d = Dec::new(&[1, 2]);
        assert!(d.u32().is_err(), "truncated u32");
        assert!(granularity_from(9).is_err());
        assert!(anomaly_from(200).is_err());
        let mut d = Dec::new(&[0xff]);
        assert!(d.anomaly_set().is_err(), "out-of-range anomaly bits");
    }

    #[test]
    fn retired_churn_round_trips_canonically() {
        let mut r = RetiredChurn::default();
        r.record(Granularity::Day, Asn(9), 3);
        r.record(Granularity::Month, Asn(2), 1);
        r.record(Granularity::Day, Asn(9), 7);
        let mut e = Enc::default();
        encode_retired_churn(&mut e, &r);
        let mut d = Dec::new(&e.buf);
        let back = decode_retired_churn(&mut d).unwrap();
        d.done().unwrap();
        assert_eq!(back.entries_sorted(), r.entries_sorted());
        let mut e2 = Enc::default();
        encode_retired_churn(&mut e2, &back);
        assert_eq!(e.buf, e2.buf, "encoding is canonical");
    }

    /// A retired churn section of `(destination, buckets, total)` day
    /// rows, in the order given.
    fn tally_rows(rows: &[(u32, [u64; 5], u64)]) -> Result<RetiredChurn, String> {
        let mut e = Enc::default();
        e.u64(rows.len() as u64);
        for &(dest, buckets, total) in rows {
            e.u8(granularity_tag(Granularity::Day));
            e.u32(dest);
            buckets.into_iter().for_each(|b| e.u64(b));
            e.u64(total);
        }
        decode_retired_churn(&mut Dec::new(&e.buf))
    }

    #[test]
    fn retired_churn_rows_ascend_and_tallies_add_up() {
        let ok = [1, 0, 2, 0, 0];
        assert!(tally_rows(&[(2, ok, 3), (9, ok, 3)]).is_ok());
        let out_of_order = tally_rows(&[(9, ok, 3), (2, ok, 3)]).unwrap_err();
        assert!(out_of_order.contains("not strictly ascending"), "{out_of_order}");
        assert!(tally_rows(&[(2, ok, 3), (2, ok, 3)]).is_err(), "a repeated row");
        let short = tally_rows(&[(2, ok, 4)]).unwrap_err();
        assert!(short.contains("do not sum to 4"), "{short}");
        assert!(tally_rows(&[(2, [u64::MAX, 1, 0, 0, 0], 0)]).is_err(), "buckets that overflow");
    }

    /// A findings section: censors with their url ids, victims and victim
    /// countries per censor, then the horizon.
    fn findings(
        censors: &[(u32, &[u32])],
        victims: &[(u32, &[u32])],
        countries: &[(u32, &[&str])],
        horizon: &[u32],
    ) -> Result<FindingsAccumulator, String> {
        let mut e = Enc::default();
        e.u64(censors.len() as u64);
        for &(asn, urls) in censors {
            e.u32(asn);
            e.u8(1);
            e.u32s(urls);
            e.u64(1);
        }
        e.u64(victims.len() as u64);
        for &(asn, v) in victims {
            e.u32(asn);
            e.u32s(v);
        }
        e.u64(countries.len() as u64);
        for &(asn, cs) in countries {
            e.u32(asn);
            e.u64(cs.len() as u64);
            cs.iter().for_each(|c| e.str(c));
        }
        e.u32s(horizon);
        let mut d = Dec::new(&e.buf);
        let f = decode_findings(&mut d)?;
        d.done()?;
        Ok(f)
    }

    #[test]
    fn every_findings_list_must_ascend() {
        let ok = findings(&[(3, &[1, 2])], &[(3, &[1, 4])], &[(3, &["DE", "PL"])], &[1, 3, 4]);
        let f = ok.expect("sorted lists decode");
        assert_eq!(f.censor_findings[&Asn(3)].url_ids.len(), 2);
        assert_eq!(f.on_censored_path.len(), 3);
        let faults = [
            ("censors", findings(&[(5, &[]), (3, &[])], &[], &[], &[])),
            ("url ids", findings(&[(3, &[2, 1])], &[], &[], &[])),
            ("victim lists", findings(&[], &[(5, &[]), (3, &[])], &[], &[])),
            ("victims", findings(&[], &[(3, &[4, 4])], &[], &[])),
            ("country lists", findings(&[], &[], &[(5, &[]), (5, &[])], &[])),
            ("countries", findings(&[], &[], &[(3, &["PL", "DE"])], &[])),
            ("horizon", findings(&[], &[], &[], &[4, 1])),
        ];
        for (what, decoded) in faults {
            let err = decoded.err().unwrap_or_else(|| panic!("unsorted {what} decoded"));
            assert!(err.contains("not strictly ascending"), "{what}: {err}");
        }
    }
}
