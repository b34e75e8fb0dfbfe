//! The per-test measurement record.
//!
//! §3.1 of the paper: "Each record in the ICLab dataset contains: (1) the
//! vantage point AS, (2) the URL being tested, (3) the anomaly being
//! tested (and whether it was detected or not), (4) three traceroutes
//! between the vantage point and the URL at the time of testing, and (5)
//! the time at which the test was performed." [`Measurement`] is exactly
//! that tuple (all five anomaly types are tested in one record).
//!
//! A study holds its records by the million, so the tuple is laid out for
//! size: the scalars inline (a `Measurement` is 56 bytes) and every
//! traceroute run in one heap block ([`Traceroutes`]) at 4 bytes a hop.
//! A test with no route owns no heap at all; a routed one owns exactly
//! that one block, so cloning it is one allocation.

use crate::anomaly::AnomalySet;
use churnlab_net::TracerouteError;
use churnlab_topology::Asn;
use std::fmt;

/// Most runs one [`Traceroutes`] holds: each run's status takes two bits
/// of a `u32`.
pub const MAX_RUNS: usize = 16;

/// Most hops one [`Traceroutes`] holds, over all its runs: a run's end is
/// a `u16` offset.
pub const MAX_HOPS: usize = u16::MAX as usize;

/// A set of runs wider than [`Traceroutes`] packs. The generator cannot
/// produce one (three runs over a path of at most 256 hops); an import
/// can, and counts it as a malformed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceroutesTooWide {
    /// More than [`MAX_RUNS`] runs.
    Runs(usize),
    /// More than [`MAX_HOPS`] hops over all runs.
    Hops(usize),
}

impl fmt::Display for TraceroutesTooWide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceroutesTooWide::Runs(n) => write!(f, "{n} traceroute runs; at most {MAX_RUNS} fit"),
            TraceroutesTooWide::Hops(n) => write!(f, "{n} traceroute hops; at most {MAX_HOPS} fit"),
        }
    }
}

impl std::error::Error for TraceroutesTooWide {}

/// A run's two status bits: 0 marks "no run here".
fn status_code(error: Option<TracerouteError>) -> u32 {
    match error {
        None => 1,
        Some(TracerouteError::Failed) => 2,
        Some(TracerouteError::Truncated) => 3,
    }
}

fn status_error(code: u32) -> Option<TracerouteError> {
    match code {
        2 => Some(TracerouteError::Failed),
        3 => Some(TracerouteError::Truncated),
        _ => None,
    }
}

/// Runs in a status word: two bits a run, every run's nonzero.
fn run_count(status: u32) -> usize {
    (32 - status.leading_zeros() as usize).div_ceil(2)
}

/// Where the responded mask and the hops start in a block of `runs` runs
/// and `hops` hops, and the block's length.
fn layout(runs: usize, hops: usize) -> (usize, usize, usize) {
    let mask = runs.div_ceil(2);
    let first_hop = mask + hops.div_ceil(32);
    (mask, first_hop, first_hop + hops)
}

/// Every traceroute run of one measurement, in one heap block: per run
/// its end offset and its error, then all hops at 4 bytes each. A `*`
/// hop (no answer) is a clear bit in a responded mask, so every address
/// — `0.0.0.0` and `255.255.255.255` included — is a hop value. Read it
/// through borrowed per-run views ([`TracerouteRun`]); build it with
/// [`Traceroutes::from_runs`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Traceroutes {
    /// Two bits a run, run 0 lowest: 1 complete, 2 failed, 3 truncated;
    /// 0 past the last run.
    status: u32,
    /// `ceil(runs / 2)` words of `u16` run ends (run `2k`'s in the low
    /// half of word `k`), `ceil(hops / 32)` words of responded bits (hop
    /// `j` is bit `j % 32` of word `j / 32`), then one word a hop (0 for
    /// a `*`). Empty, and so unallocated, when no run has a hop: every
    /// end is then 0.
    words: Box<[u32]>,
}

impl Traceroutes {
    /// What a test with no route records: three failed runs with no
    /// output. Owns no heap.
    pub fn no_route() -> Self {
        let failed = status_code(Some(TracerouteError::Failed));
        let status = (0..3).fold(0, |s, i| s | (failed << (2 * i)));
        Traceroutes { status, words: Box::default() }
    }

    /// Pack `runs` — each its hops in order (`None` = `*`) and its error
    /// — into one block, allocated only if a run has a hop.
    pub fn from_runs<H: IntoIterator<Item = Option<u32>>>(
        runs: impl IntoIterator<Item = (H, Option<TracerouteError>)>,
    ) -> Result<Self, TraceroutesTooWide> {
        let mut builder = TraceroutesBuilder::default();
        for (hops, error) in runs {
            hops.into_iter().for_each(|hop| builder.hop(hop));
            builder.end_run(error);
        }
        builder.finish()
    }

    /// The record, borrowed.
    pub fn view(&self) -> TraceroutesRef<'_> {
        TraceroutesRef { status: self.status, words: &self.words }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        run_count(self.status)
    }

    /// True if there are no runs.
    pub fn is_empty(&self) -> bool {
        self.status == 0
    }

    /// The runs, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TracerouteRun<'_>> {
        self.view().iter()
    }
}

impl From<TraceroutesRef<'_>> for Traceroutes {
    /// Own a borrowed record: one allocation, none when it has no hop.
    fn from(r: TraceroutesRef<'_>) -> Self {
        Traceroutes { status: r.status, words: r.words.into() }
    }
}

impl fmt::Debug for Traceroutes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.view(), f)
    }
}

/// A [`Traceroutes`] borrowed — from its owner or from any flat buffer
/// its [`parts`](TraceroutesRef::parts) were copied into.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct TraceroutesRef<'a> {
    status: u32,
    words: &'a [u32],
}

impl<'a> TraceroutesRef<'a> {
    /// The record as a status word and its block's words: what a flat
    /// buffer copies to carry it.
    pub fn parts(self) -> (u32, &'a [u32]) {
        (self.status, self.words)
    }

    /// A record from what [`parts`](TraceroutesRef::parts) gave.
    ///
    /// # Panics
    /// If `words` is not as long as `status` and the run ends in it say.
    pub fn from_parts(status: u32, words: &'a [u32]) -> Self {
        let r = TraceroutesRef { status, words };
        let runs = run_count(status);
        let fits = words.is_empty()
            || (runs > 0 && words.len() > runs.div_ceil(2) && {
                let hops = r.end(runs - 1);
                hops > 0 && layout(runs, hops).2 == words.len()
            });
        assert!(fits, "{} words do not hold a record of {runs} runs", words.len());
        r
    }

    /// Hops over all runs.
    fn hop_count(self) -> usize {
        match run_count(self.status) {
            0 => 0,
            runs => self.end(runs - 1),
        }
    }

    /// Where run `i`'s hops end.
    fn end(self, i: usize) -> usize {
        match self.words.get(i / 2) {
            Some(&w) => ((w >> (16 * (i % 2))) & 0xffff) as usize,
            None => 0,
        }
    }

    /// The runs, in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = TracerouteRun<'a>> {
        let runs = run_count(self.status);
        let (mask, first_hop, _) = layout(runs, self.hop_count());
        let (mask, hops) = match self.words.get(mask..) {
            Some(rest) => rest.split_at(first_hop - mask),
            None => (&[][..], &[][..]), // no run has a hop
        };
        (0..runs).map(move |i| {
            let start = if i == 0 { 0 } else { self.end(i - 1) };
            TracerouteRun {
                hops: &hops[start..self.end(i)],
                mask,
                first: start,
                error: status_error((self.status >> (2 * i)) & 3),
            }
        })
    }
}

impl fmt::Debug for TraceroutesRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One traceroute run, borrowed from its record.
#[derive(Clone, Copy)]
pub struct TracerouteRun<'a> {
    /// This run's hop words.
    hops: &'a [u32],
    /// The whole record's responded mask.
    mask: &'a [u32],
    /// This run's first hop's index in the record (its bit in `mask`).
    first: usize,
    error: Option<TracerouteError>,
}

impl<'a> TracerouteRun<'a> {
    /// Set when the run failed or truncated.
    pub fn error(&self) -> Option<TracerouteError> {
        self.error
    }

    /// Each hop's responding address, in order; `None` for a `*`.
    pub fn hops(&self) -> impl ExactSizeIterator<Item = Option<u32>> + 'a {
        let (mask, first) = (self.mask, self.first);
        self.hops.iter().enumerate().map(move |(j, &ip)| {
            let bit = first + j;
            ((mask[bit / 32] >> (bit % 32)) & 1 != 0).then_some(ip)
        })
    }
}

impl fmt::Debug for TracerouteRun<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracerouteRun")
            .field("hops", &self.hops().collect::<Vec<_>>())
            .field("error", &self.error)
            .finish()
    }
}

/// Runs recorded hop by hop, then packed by
/// [`finish`](TraceroutesBuilder::finish) into one right-sized block. A
/// campaign worker keeps one across tests: once grown it allocates
/// nothing but the block it hands out.
#[derive(Debug, Default)]
pub(crate) struct TraceroutesBuilder {
    /// The status bits of the first [`MAX_RUNS`] runs.
    status: u32,
    /// Where each run ended in `hops`.
    ends: Vec<usize>,
    /// Responded bits, 32 hops a word.
    mask: Vec<u32>,
    /// Every hop so far (0 for a `*`).
    hops: Vec<u32>,
}

impl TraceroutesBuilder {
    /// Record the open run's next hop (`None` = `*`).
    pub(crate) fn hop(&mut self, hop: Option<u32>) {
        let j = self.hops.len();
        if j.is_multiple_of(32) {
            self.mask.push(0);
        }
        if hop.is_some() {
            self.mask[j / 32] |= 1 << (j % 32);
        }
        self.hops.push(hop.unwrap_or(0));
    }

    /// Close the open run with its error.
    pub(crate) fn end_run(&mut self, error: Option<TracerouteError>) {
        let i = self.ends.len();
        if i < MAX_RUNS {
            self.status |= status_code(error) << (2 * i);
        }
        self.ends.push(self.hops.len());
    }

    /// Pack the runs ended so far into one block — allocated only if a
    /// run has a hop — and empty the builder, keeping its capacity.
    /// Hops after the last ended run are dropped.
    pub(crate) fn finish(&mut self) -> Result<Traceroutes, TraceroutesTooWide> {
        let runs = self.ends.len();
        let hops = self.ends.last().copied().unwrap_or(0);
        let packed = if runs > MAX_RUNS {
            Err(TraceroutesTooWide::Runs(runs))
        } else if hops > MAX_HOPS {
            Err(TraceroutesTooWide::Hops(hops))
        } else if hops == 0 {
            Ok(Traceroutes { status: self.status, words: Box::default() })
        } else {
            let mut words = Vec::with_capacity(layout(runs, hops).2);
            words.extend(self.ends.chunks(2).map(|pair| {
                pair.iter().rev().fold(0, |w, &end| (w << 16) | end as u32)
            }));
            words.extend_from_slice(&self.mask[..hops.div_ceil(32)]);
            if !hops.is_multiple_of(32) {
                // Bits of hops past the last ended run.
                *words.last_mut().expect("a mask word") &= (1 << (hops % 32)) - 1;
            }
            words.extend_from_slice(&self.hops[..hops]);
            Ok(Traceroutes { status: self.status, words: words.into_boxed_slice() })
        };
        self.status = 0;
        self.ends.clear();
        self.mask.clear();
        self.hops.clear();
        packed
    }
}

/// One measurement (one vantage point testing one URL at one time).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Vantage point identifier. Distinguishes exits of multi-country VPN
    /// providers that share one registered AS (the paper's ~1,000 vantage
    /// points live in only 539 ASes); per-pair path-churn accounting keys
    /// on this, since "source" in Figure 3 is the vantage point.
    pub vp_id: u32,
    /// Vantage point AS, as registered: what whois reports for the vantage
    /// address. PoPs of one hosting organization share this.
    pub vp_asn: Asn,
    /// URL id (resolve via the corpus).
    pub url_id: u32,
    /// Destination (hosting) AS of the URL — known to the platform
    /// operators, as it is to ICLab who picked the servers.
    pub dest_asn: Asn,
    /// Simulation day of the test.
    pub day: u32,
    /// Routing epoch the test ran in.
    pub epoch: u32,
    /// Detected anomalies (post detector-noise).
    pub detected: AnomalySet,
    /// The three traceroutes run alongside the test.
    pub traceroutes: Traceroutes,
    /// True if the test could not run at all (no route to destination);
    /// such records carry failed traceroutes and no anomaly verdicts.
    pub failed: bool,
}

impl Measurement {
    /// True if any anomaly was detected.
    pub fn anomalous(&self) -> bool {
        !self.detected.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyType;

    #[test]
    fn anomalous_flag() {
        let mut m = Measurement {
            vp_id: 0,
            vp_asn: Asn(1),
            url_id: 0,
            dest_asn: Asn(2),
            day: 0,
            epoch: 0,
            detected: AnomalySet::empty(),
            traceroutes: Traceroutes::default(),
            failed: false,
        };
        assert!(!m.anomalous());
        m.detected.insert(AnomalyType::Dns);
        assert!(m.anomalous());
    }

    #[test]
    fn a_measurement_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Measurement>(), 56);
    }

    type Runs = Vec<(Vec<Option<u32>>, Option<TracerouteError>)>;

    fn unpack(t: &Traceroutes) -> Runs {
        t.iter().map(|run| (run.hops().collect(), run.error())).collect()
    }

    #[test]
    fn failed_traceroute_record() {
        let t = Traceroutes::no_route();
        assert_eq!(unpack(&t), vec![(vec![], Some(TracerouteError::Failed)); 3]);
        assert!(t.words.is_empty());
        assert_eq!(t.view().hop_count(), 0);
    }

    #[test]
    fn runs_pack_losslessly_with_no_reserved_hop_value() {
        let runs: Runs = vec![
            (vec![Some(0), None, Some(u32::MAX), None], None),
            (vec![], Some(TracerouteError::Failed)),
            (
                (0..70).map(|i| (i % 3 != 0).then_some(i)).collect(),
                Some(TracerouteError::Truncated),
            ),
            (vec![None], None),
        ];
        let t = Traceroutes::from_runs(runs.clone()).unwrap();
        assert_eq!(unpack(&t), runs);
        assert_eq!(t.len(), 4);
        assert_eq!(t.view().hop_count(), 75);
        // 2 end words, 3 mask words, 75 hop words.
        assert_eq!(t.words.len(), 80);
        let copied = TraceroutesRef::from_parts(t.view().parts().0, t.view().parts().1);
        assert_eq!(Traceroutes::from(copied), t);
    }

    #[test]
    fn a_builder_is_reused_cleanly() {
        let mut b = TraceroutesBuilder::default();
        (0..40).for_each(|i| b.hop(Some(i)));
        b.end_run(None);
        let first = b.finish().unwrap();
        b.hop(None);
        b.end_run(Some(TracerouteError::Truncated));
        b.hop(Some(9)); // no run ends it: dropped
        let second = b.finish().unwrap();
        assert_eq!(unpack(&second), vec![(vec![None], Some(TracerouteError::Truncated))]);
        assert_eq!(first.len(), 1);
        assert_eq!(b.finish().unwrap(), Traceroutes::default());
    }

    #[test]
    fn widths_are_typed_errors_at_the_boundary() {
        let fits = Traceroutes::from_runs(vec![(vec![], None); MAX_RUNS]).unwrap();
        assert_eq!(fits.len(), MAX_RUNS);
        assert_eq!(
            Traceroutes::from_runs(vec![(vec![], None); MAX_RUNS + 1]),
            Err(TraceroutesTooWide::Runs(MAX_RUNS + 1))
        );
        let hops = |n| vec![(vec![Some(7); n], None)];
        let widest = Traceroutes::from_runs(hops(MAX_HOPS)).unwrap();
        assert_eq!(unpack(&widest), hops(MAX_HOPS));
        assert_eq!(
            Traceroutes::from_runs(hops(MAX_HOPS + 1)),
            Err(TraceroutesTooWide::Hops(MAX_HOPS + 1))
        );
    }

    #[test]
    #[should_panic(expected = "do not hold a record of 1 runs")]
    fn parts_that_do_not_fit_panic() {
        TraceroutesRef::from_parts(1, &[3, 0]);
    }
}
