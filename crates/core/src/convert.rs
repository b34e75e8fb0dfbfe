//! Traceroute → AS-level path conversion with the paper's elimination
//! rules (§3.1).
//!
//! A test is discarded when:
//!
//! 1. IP-to-AS mapping was not possible for the IPs observed;
//! 2. traceroutes were not possible due to errors;
//! 3. AS inference was not possible — a non-responsive (or unmappable)
//!    hop run is flanked by *different* ASes on the two sides;
//! 4. the test's three traceroutes convert to more than one distinct
//!    AS-level path.
//!
//! The vantage point's own AS is known to the platform operator (it is in
//! the record) and anchors the front of every converted path.
//!
//! Every measurement of a study passes through here before a clause is
//! written, so conversion is one streaming pass per traceroute
//! ([`convert_traceroutes`]): each hop is looked up as it is read and
//! collapsed straight into the AS sequence — the first traceroute into a
//! caller-owned [`ConvertScratch`], the second and third compared
//! against it in place. No per-hop vector, no per-traceroute path, no
//! sort to learn that three paths agree, and — with the scratch reused —
//! no allocation. The pass reads *borrowed* hop slices, so it runs the
//! same over a [`Measurement`]'s own vectors ([`convert_into`]) and over
//! a flat hop arena that holds many measurements' traceroutes end to end
//! (the engine's wire block). [`convert_measurement`] is the same pass
//! handing back an owned path.

use churnlab_platform::Measurement;
use churnlab_topology::{Asn, Ip2AsDb};
use serde::{Deserialize, Serialize};

/// Why a test was discarded (maps 1:1 to the paper's four rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiscardReason {
    /// Rule 1: no IP in the traceroute could be mapped.
    MappingImpossible,
    /// Rule 2: the traceroute run errored (failed or truncated), or the
    /// test could not run at all.
    TracerouteError,
    /// Rule 3: a non-responsive/unmappable run flanked by different ASes.
    InferenceAmbiguous,
    /// Rule 4: the three traceroutes yielded >1 distinct AS-level path.
    MultipleAsPaths,
}

impl DiscardReason {
    /// Stable label for stats output.
    pub fn label(self) -> &'static str {
        match self {
            DiscardReason::MappingImpossible => "rule1-mapping",
            DiscardReason::TracerouteError => "rule2-error",
            DiscardReason::InferenceAmbiguous => "rule3-inference",
            DiscardReason::MultipleAsPaths => "rule4-multipath",
        }
    }
}

/// Conversion counters, accumulated across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConversionStats {
    /// Tests successfully converted.
    pub converted: u64,
    /// Tests discarded, by rule.
    pub discarded: [u64; 4],
}

impl ConversionStats {
    /// Record a discard.
    pub fn discard(&mut self, r: DiscardReason) {
        let i = match r {
            DiscardReason::MappingImpossible => 0,
            DiscardReason::TracerouteError => 1,
            DiscardReason::InferenceAmbiguous => 2,
            DiscardReason::MultipleAsPaths => 3,
        };
        self.discarded[i] += 1;
    }

    /// Fold another counter set into this one (shard fan-in).
    pub fn merge(&mut self, other: ConversionStats) {
        self.converted += other.converted;
        for (d, o) in self.discarded.iter_mut().zip(other.discarded) {
            *d += o;
        }
    }

    /// Total discards.
    pub fn total_discarded(&self) -> u64 {
        self.discarded.iter().sum()
    }

    /// Fraction of tests converted.
    pub fn conversion_rate(&self) -> f64 {
        let total = self.converted + self.total_discarded();
        if total == 0 {
            0.0
        } else {
            self.converted as f64 / total as f64
        }
    }
}

/// Caller-owned working memory for [`convert_into`]: the converted path
/// of the last call. Reused across calls, so steady-state conversion
/// allocates nothing.
#[derive(Debug, Default)]
pub struct ConvertScratch {
    path: Vec<Asn>,
}

impl ConvertScratch {
    /// Give up the buffer: the path of the last successful
    /// [`convert_into`] call, owned.
    pub fn into_path(self) -> Vec<Asn> {
        self.path
    }
}

/// Map and collapse one traceroute — its hops, and whether the run
/// errored — in a single pass: each hop goes through `db` as it is read
/// and every AS boundary crossed is handed to `emit` — the vantage AS
/// itself is the implied first element and is not emitted.
/// Non-responsive and unmappable hops both count as unknown; a run of
/// them is absorbed when the same AS flanks it and is ambiguous (rule 3)
/// otherwise, as is an unknown final hop — the destination server,
/// without which the path has no endpoint.
fn collapse(
    hops: &[Option<u32>],
    errored: bool,
    vp_asn: Asn,
    db: &Ip2AsDb,
    mut emit: impl FnMut(Asn),
) -> Result<(), DiscardReason> {
    if errored || hops.is_empty() {
        return Err(DiscardReason::TracerouteError);
    }
    let mut last = vp_asn;
    let mut any_mapped = false;
    let mut pending_gap = false;
    for hop in hops {
        match hop.and_then(|ip| db.lookup(ip)) {
            None => pending_gap = true,
            Some(asn) => {
                any_mapped = true;
                if asn != last {
                    if pending_gap {
                        // Unknown hops between two different ASes: cannot
                        // infer who owns them.
                        return Err(DiscardReason::InferenceAmbiguous);
                    }
                    emit(asn);
                    last = asn;
                }
                pending_gap = false; // a gap inside one AS is absorbed
            }
        }
    }
    if !any_mapped {
        Err(DiscardReason::MappingImpossible)
    } else if pending_gap {
        Err(DiscardReason::InferenceAmbiguous) // the final hop is unknown
    } else {
        Ok(())
    }
}

/// Convert one test — whether it `failed` outright, its vantage AS and
/// its traceroutes, each as (hops, errored) — under the paper's rules,
/// into `scratch`: the first traceroute that converts is written to the
/// scratch buffer, and every later one is checked against it hop by hop
/// as it streams past — nothing else is stored, sorted or compared.
/// Returns the AS-level path, vantage AS first, borrowed from `scratch`
/// until the next call; `None` (with the reason counted in `stats`) when
/// a rule discards the test. This is the one conversion;
/// [`convert_into`], [`convert_measurement`] and
/// [`crate::obs::ConvertedObs::from_measurement`] wrap it.
pub fn convert_traceroutes<'t, 's>(
    failed: bool,
    vp_asn: Asn,
    traceroutes: impl IntoIterator<Item = (&'t [Option<u32>], bool)>,
    db: &Ip2AsDb,
    stats: &mut ConversionStats,
    scratch: &'s mut ConvertScratch,
) -> Option<&'s [Asn]> {
    if failed {
        stats.discard(DiscardReason::TracerouteError);
        return None;
    }
    let path = &mut scratch.path;
    let mut have_path = false;
    let mut diverged = false;
    let mut first_err: Option<DiscardReason> = None;
    for (hops, errored) in traceroutes {
        let converted = if have_path {
            // Walk the kept path in step with this traceroute's.
            let mut at = 1;
            let mut same = true;
            let r = collapse(hops, errored, vp_asn, db, |asn| {
                same &= path.get(at) == Some(&asn);
                at += 1;
            });
            // A traceroute that errors is no second path, whatever it
            // emitted on the way.
            diverged |= r.is_ok() && !(same && at == path.len());
            r
        } else {
            path.clear();
            path.push(vp_asn);
            let r = collapse(hops, errored, vp_asn, db, |asn| path.push(asn));
            have_path = r.is_ok();
            r
        };
        if let Err(e) = converted {
            first_err = first_err.or(Some(e));
        }
    }
    if !have_path {
        stats.discard(first_err.unwrap_or(DiscardReason::TracerouteError));
        return None;
    }
    if diverged {
        stats.discard(DiscardReason::MultipleAsPaths);
        return None;
    }
    stats.converted += 1;
    Some(path)
}

/// [`convert_traceroutes`] over a [`Measurement`]'s own vectors.
pub fn convert_into<'s>(
    m: &Measurement,
    db: &Ip2AsDb,
    stats: &mut ConversionStats,
    scratch: &'s mut ConvertScratch,
) -> Option<&'s [Asn]> {
    let traceroutes = m.traceroutes.iter().map(|tr| (tr.hops.as_slice(), tr.error.is_some()));
    convert_traceroutes(m.failed, m.vp_asn, traceroutes, db, stats, scratch)
}

/// [`convert_into`] for callers that want the path owned.
pub fn convert_measurement(
    m: &Measurement,
    db: &Ip2AsDb,
    stats: &mut ConversionStats,
) -> Option<Vec<Asn>> {
    // Room for a typical path up front: one allocation, not a growth chain.
    let mut scratch = ConvertScratch { path: Vec::with_capacity(8) };
    convert_into(m, db, stats, &mut scratch)?;
    Some(scratch.into_path())
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_platform::{AnomalySet, TracerouteRecord};
    use churnlab_topology::Ipv4Prefix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn db() -> Ip2AsDb {
        Ip2AsDb::from_entries([
            (Ipv4Prefix::from_octets(1, 0, 0, 0, 8).unwrap(), Asn(10)),
            (Ipv4Prefix::from_octets(2, 0, 0, 0, 8).unwrap(), Asn(20)),
            (Ipv4Prefix::from_octets(3, 0, 0, 0, 8).unwrap(), Asn(30)),
        ])
        .unwrap()
    }

    fn ip(top: u8, low: u8) -> u32 {
        u32::from_be_bytes([top, 0, 0, low])
    }

    fn tr(hops: Vec<Option<u32>>) -> TracerouteRecord {
        TracerouteRecord { hops, error: None }
    }

    fn measurement(trs: Vec<TracerouteRecord>) -> Measurement {
        Measurement {
            vp_id: 0,
            vp_asn: Asn(10),
            url_id: 0,
            dest_asn: Asn(30),
            day: 0,
            epoch: 0,
            detected: AnomalySet::empty(),
            traceroutes: trs,
            failed: false,
        }
    }

    #[test]
    fn clean_conversion() {
        let m = measurement(vec![
            tr(vec![Some(ip(1, 1)), Some(ip(2, 1)), Some(ip(2, 2)), Some(ip(3, 1))]);
            3
        ]);
        let mut stats = ConversionStats::default();
        let path = convert_measurement(&m, &db(), &mut stats).unwrap();
        assert_eq!(path, vec![Asn(10), Asn(20), Asn(30)]);
        assert_eq!(stats.converted, 1);
        assert_eq!(stats.total_discarded(), 0);
    }

    #[test]
    fn gap_inside_one_as_absorbed() {
        // 1.x (AS10), *, 2.x 2.y (AS20), *, 2.z (AS20 again), 3.x (AS30):
        // the second gap is flanked by AS20 on both sides — absorbed.
        let m = measurement(vec![
            tr(vec![
                Some(ip(1, 1)),
                Some(ip(2, 1)),
                None,
                Some(ip(2, 3)),
                Some(ip(3, 1)),
            ]);
            3
        ]);
        let mut stats = ConversionStats::default();
        let path = convert_measurement(&m, &db(), &mut stats).unwrap();
        assert_eq!(path, vec![Asn(10), Asn(20), Asn(30)]);
    }

    #[test]
    fn rule1_no_mappable_hops() {
        let m = measurement(vec![tr(vec![Some(ip(9, 1)), Some(ip(9, 2))]); 3]);
        let mut stats = ConversionStats::default();
        assert!(convert_measurement(&m, &db(), &mut stats).is_none());
        assert_eq!(stats.discarded[0], 1, "rule 1 must fire");
    }

    #[test]
    fn rule2_traceroute_errors() {
        let m = measurement(vec![TracerouteRecord::failed(); 3]);
        let mut stats = ConversionStats::default();
        assert!(convert_measurement(&m, &db(), &mut stats).is_none());
        assert_eq!(stats.discarded[1], 1, "rule 2 must fire");
        // A failed test (no route) is also rule 2.
        let mut m2 = measurement(vec![]);
        m2.failed = true;
        assert!(convert_measurement(&m2, &db(), &mut stats).is_none());
        assert_eq!(stats.discarded[1], 2);
    }

    #[test]
    fn rule3_gap_between_different_ases() {
        // AS10, *, AS30 — the unknown hop could be AS10, AS30, or neither.
        let m = measurement(vec![tr(vec![Some(ip(1, 1)), None, Some(ip(3, 1))]); 3]);
        let mut stats = ConversionStats::default();
        assert!(convert_measurement(&m, &db(), &mut stats).is_none());
        assert_eq!(stats.discarded[2], 1, "rule 3 must fire");
    }

    #[test]
    fn rule3_unmapped_hop_between_ases() {
        // A responsive hop whose prefix is missing from the (stale) DB acts
        // like a non-responsive hop.
        let m = measurement(vec![tr(vec![Some(ip(1, 1)), Some(ip(9, 9)), Some(ip(3, 1))]); 3]);
        let mut stats = ConversionStats::default();
        assert!(convert_measurement(&m, &db(), &mut stats).is_none());
        assert_eq!(stats.discarded[2], 1);
    }

    #[test]
    fn rule3_unknown_destination() {
        let m = measurement(vec![tr(vec![Some(ip(1, 1)), Some(ip(2, 1)), None]); 3]);
        let mut stats = ConversionStats::default();
        assert!(convert_measurement(&m, &db(), &mut stats).is_none());
        assert_eq!(stats.discarded[2], 1);
    }

    #[test]
    fn rule4_divergent_traceroutes() {
        let m = measurement(vec![
            tr(vec![Some(ip(1, 1)), Some(ip(2, 1)), Some(ip(3, 1))]),
            tr(vec![Some(ip(1, 1)), Some(ip(2, 1)), Some(ip(3, 1))]),
            tr(vec![Some(ip(1, 1)), Some(ip(3, 1))]), // different path
        ]);
        let mut stats = ConversionStats::default();
        assert!(convert_measurement(&m, &db(), &mut stats).is_none());
        assert_eq!(stats.discarded[3], 1, "rule 4 must fire");
    }

    #[test]
    fn one_good_traceroute_suffices() {
        let m = measurement(vec![
            TracerouteRecord::failed(),
            tr(vec![Some(ip(1, 1)), Some(ip(2, 1)), Some(ip(3, 1))]),
            TracerouteRecord::failed(),
        ]);
        let mut stats = ConversionStats::default();
        let path = convert_measurement(&m, &db(), &mut stats).unwrap();
        assert_eq!(path, vec![Asn(10), Asn(20), Asn(30)]);
    }

    #[test]
    fn leading_hop_in_foreign_as_extends_path() {
        // First mapped hop is AS20 (vantage egress already outside AS10):
        // the path is anchored at the vantage AS.
        let m = measurement(vec![tr(vec![Some(ip(2, 1)), Some(ip(3, 1))]); 3]);
        let mut stats = ConversionStats::default();
        let path = convert_measurement(&m, &db(), &mut stats).unwrap();
        assert_eq!(path, vec![Asn(10), Asn(20), Asn(30)]);
    }

    #[test]
    fn conversion_rate_math() {
        let mut s = ConversionStats { converted: 3, ..Default::default() };
        s.discard(DiscardReason::MappingImpossible);
        assert!((s.conversion_rate() - 0.75).abs() < 1e-9);
        assert_eq!(ConversionStats::default().conversion_rate(), 0.0);
    }

    /// The conversion [`convert_into`] replaced, verbatim: a mapped vector
    /// and a path vector per traceroute, then sort + dedup to learn that
    /// the paths agree.
    mod oracle {
        use super::*;

        /// Convert a single traceroute to an AS-level path.
        fn convert_one(
            tr: &TracerouteRecord,
            vp_asn: Asn,
            db: &Ip2AsDb,
        ) -> Result<Vec<Asn>, DiscardReason> {
            if tr.error.is_some() || tr.hops.is_empty() {
                return Err(DiscardReason::TracerouteError);
            }
            // Map each hop; non-responsive and unmappable hops both become None.
            let mapped: Vec<Option<Asn>> = tr
                .hops
                .iter()
                .map(|h| h.and_then(|ip| db.lookup(ip)))
                .collect();
            if mapped.iter().all(|m| m.is_none()) {
                return Err(DiscardReason::MappingImpossible);
            }
            // The final hop is the destination server; if it can't be identified
            // the path's endpoint is unknown (inference impossible).
            if mapped.last().expect("non-empty").is_none() {
                return Err(DiscardReason::InferenceAmbiguous);
            }
            // Collapse into an AS sequence anchored at the vantage AS, checking
            // that every None-run is flanked by the same AS on both sides.
            let mut path = vec![vp_asn];
            let mut pending_gap = false;
            for m in &mapped {
                match m {
                    None => pending_gap = true,
                    Some(asn) => {
                        let last = *path.last().expect("anchored at vp");
                        if *asn == last {
                            pending_gap = false; // gap inside one AS: absorbed
                        } else {
                            if pending_gap {
                                // Unknown hops between two different ASes: cannot
                                // infer who owns them.
                                return Err(DiscardReason::InferenceAmbiguous);
                            }
                            path.push(*asn);
                        }
                    }
                }
            }
            Ok(path)
        }

        /// Convert a full measurement (three traceroutes) under the paper's rules.
        pub fn convert_measurement(
            m: &Measurement,
            db: &Ip2AsDb,
            stats: &mut ConversionStats,
        ) -> Option<Vec<Asn>> {
            if m.failed {
                stats.discard(DiscardReason::TracerouteError);
                return None;
            }
            let mut paths: Vec<Vec<Asn>> = Vec::with_capacity(3);
            let mut first_err: Option<DiscardReason> = None;
            for tr in &m.traceroutes {
                match convert_one(tr, m.vp_asn, db) {
                    Ok(p) => paths.push(p),
                    Err(e) => first_err = first_err.or(Some(e)),
                }
            }
            if paths.is_empty() {
                stats.discard(first_err.unwrap_or(DiscardReason::TracerouteError));
                return None;
            }
            paths.sort();
            paths.dedup();
            if paths.len() > 1 {
                stats.discard(DiscardReason::MultipleAsPaths);
                return None;
            }
            stats.converted += 1;
            paths.pop()
        }
    }

    /// One seeded traceroute over the test database's three ASes (10, 20,
    /// 30) plus an unmapped /8: mostly the clean 10 → 20 → 30 walk, with
    /// every way of going wrong mixed in.
    fn arb_traceroute(rng: &mut StdRng) -> TracerouteRecord {
        let mut ases: Vec<u8> = vec![1, 2, 3];
        match rng.gen_range(0..10) {
            0 => ases = vec![1, 3],                       // a different path
            1 => ases = vec![2, 3],                       // leaves the vantage AS at once
            2 => ases = vec![1, 2, 9, 2, 3],              // unmapped inside one AS
            3 => ases = vec![1, 9, 2, 3],                 // unmapped between two
            4 => ases = vec![9, 9],                       // nothing maps
            _ => {}
        }
        let mut hops: Vec<Option<u32>> = Vec::new();
        for top in ases {
            for _ in 0..rng.gen_range(1..4) {
                hops.push(Some(ip(top, rng.gen())));
            }
        }
        // `None` runs at the head, in the middle, at the tail.
        for _ in 0..rng.gen_range(0..3) {
            let run = rng.gen_range(1..3);
            let at = match rng.gen_range(0..4) {
                0 => 0,
                1 => hops.len(),
                _ => rng.gen_range(0..=hops.len()),
            };
            hops.splice(at..at, std::iter::repeat_n(None, run));
        }
        match rng.gen_range(0..12) {
            0 => TracerouteRecord::failed(),
            1 => TracerouteRecord { hops, ..TracerouteRecord::failed() }, // errored, with output
            2 => tr(Vec::new()),
            _ => tr(hops),
        }
    }

    #[test]
    fn streaming_conversion_matches_the_oracle_call_by_call() {
        let db = db();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut stats, mut want_stats) = (ConversionStats::default(), ConversionStats::default());
        let mut flat_stats = ConversionStats::default();
        let mut scratch = ConvertScratch::default();
        // Every case's hops end to end in one arena, the way a wire block
        // carries them: the conversion reads slices wherever they live.
        let mut arena: Vec<Option<u32>> = Vec::new();
        for case in 0..4_000 {
            let n = rng.gen_range(0..=3);
            let mut m = measurement((0..n).map(|_| arb_traceroute(&mut rng)).collect());
            m.failed = rng.gen_range(0..20) == 0;
            let want = oracle::convert_measurement(&m, &db, &mut want_stats);
            let got = convert_into(&m, &db, &mut stats, &mut scratch);
            assert_eq!(got, want.as_deref(), "case {case}: {m:?}");
            assert_eq!(stats, want_stats, "case {case}: {m:?}");
            assert_eq!(convert_measurement(&m, &db, &mut ConversionStats::default()), want);

            let mut start = arena.len();
            let ends: Vec<(usize, bool)> = (m.traceroutes.iter())
                .map(|tr| {
                    arena.extend_from_slice(&tr.hops);
                    (arena.len(), tr.error.is_some())
                })
                .collect();
            let borrowed = ends.iter().map(|&(end, errored)| {
                let hops = &arena[start..end];
                start = end;
                (hops, errored)
            });
            let (failed, vp) = (m.failed, m.vp_asn);
            let flat = convert_traceroutes(failed, vp, borrowed, &db, &mut flat_stats, &mut scratch);
            assert_eq!(flat, want.as_deref(), "case {case}, off the arena: {m:?}");
            assert_eq!(flat_stats, want_stats, "case {case}, off the arena: {m:?}");
        }
        // The mix reached every outcome.
        assert!(stats.converted > 500, "{stats:?}");
        assert!(stats.discarded.iter().all(|&d| d > 50), "{stats:?}");
    }
}
