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
//! validates lengths, enum tags, and per-shard checksums; any violation
//! surfaces as [`RestoreError::Corrupt`] rather than a panic.

use churnlab_bgp::{Granularity, TimeWindow};
use churnlab_core::accumulate::FindingsAccumulator;
use churnlab_core::pipeline::CensorFinding;
use churnlab_core::{ChurnTally, RetiredChurn};
use churnlab_platform::{AnomalySet, AnomalyType};
use churnlab_topology::Asn;
use std::collections::BTreeSet;

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

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub(crate) fn u32s(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for x in v {
            self.u32(*x);
        }
    }

    pub(crate) fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for x in v {
            self.u64(*x);
        }
    }

    pub(crate) fn asns(&mut self, v: &[Asn]) {
        self.u64(v.len() as u64);
        for a in v {
            self.u32(a.0);
        }
    }

    pub(crate) fn window(&mut self, w: TimeWindow) {
        self.u8(granularity_tag(w.granularity));
        self.u32(w.index);
    }

    pub(crate) fn anomaly_set(&mut self, set: AnomalySet) {
        let mut bits = 0u8;
        for (i, a) in AnomalyType::ALL.into_iter().enumerate() {
            if set.contains(a) {
                bits |= 1 << i;
            }
        }
        self.u8(bits);
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
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
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
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
        let n = self.u64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(format!("implausible collection length {n}"));
        }
        Ok(n as usize)
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
        let n = self.len()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }

    pub(crate) fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    pub(crate) fn asns(&mut self) -> Result<Vec<Asn>, String> {
        Ok(self.u32s()?.into_iter().map(Asn).collect())
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

/// Decode retired churn tallies.
pub(crate) fn decode_retired_churn(d: &mut Dec) -> Result<RetiredChurn, String> {
    let n = d.len()?;
    let mut r = RetiredChurn::default();
    for _ in 0..n {
        let g = granularity_from(d.u8()?)?;
        let dest = Asn(d.u32()?);
        let mut buckets = [0u64; 5];
        for b in &mut buckets {
            *b = d.u64()?;
        }
        let total = d.u64()?;
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

/// Decode a findings accumulator.
pub(crate) fn decode_findings(d: &mut Dec) -> Result<FindingsAccumulator, String> {
    let mut f = FindingsAccumulator::new();
    let n = d.len()?;
    for _ in 0..n {
        let asn = Asn(d.u32()?);
        let bits = d.u8()?;
        let mut anomalies = BTreeSet::new();
        for (i, a) in AnomalyType::ALL.into_iter().enumerate() {
            if bits & (1 << i) != 0 {
                anomalies.insert(a);
            }
        }
        let url_ids: BTreeSet<u32> = d.u32s()?.into_iter().collect();
        let n_instances = d.u64()?;
        f.censor_findings.insert(asn, CensorFinding { asn, anomalies, url_ids, n_instances });
    }
    let n = d.len()?;
    for _ in 0..n {
        let censor = Asn(d.u32()?);
        let victims = d.u32s()?.into_iter().map(Asn).collect();
        f.leakage.victims_by_censor.insert(censor, victims);
    }
    let n = d.len()?;
    for _ in 0..n {
        let censor = Asn(d.u32()?);
        let m = d.len()?;
        let mut set = std::collections::HashSet::new();
        for _ in 0..m {
            set.insert(d.str()?);
        }
        f.leakage.victim_countries_by_censor.insert(censor, set);
    }
    f.on_censored_path = d.u32s()?.into_iter().map(Asn).collect();
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
        let mut set = AnomalySet::empty();
        set.insert(AnomalyType::Dns);
        e.anomaly_set(set);
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), 0.125);
        assert_eq!(d.opt_u32().unwrap(), None);
        assert_eq!(d.opt_u32().unwrap(), Some(42));
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.u32s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.u64s().unwrap(), vec![9]);
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
}
