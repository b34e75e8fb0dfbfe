//! The feeder→shard wire: a flat, recycled [`Block`] of measurements.
//!
//! A [`Measurement`] is four heap blocks — its traceroute vector and
//! three hop vectors — and handing one to another thread to free is what
//! costs: glibc's cross-thread free path showed up as a third of the
//! fused generator's on-CPU time, while the same allocations freed on
//! the thread that made them are nearly free. So a measurement does not
//! cross the channel. A feeder *copies* it into its current block — the
//! scalar fields into one vector of [`Head`]s, every hop of every
//! traceroute into one arena, with an end offset (and the run's error)
//! per traceroute and a traceroute end per measurement — and drops it
//! right there. A full block is the one ingest message; the shard
//! converts straight off the arena
//! ([`churnlab_core::convert::convert_traceroutes`] reads borrowed hop
//! slices), folds, clears the block and returns it to the engine's
//! [`BlockPool`], from which the feeder draws its next one. In steady
//! state nothing on the wire is allocated or freed at all.
//!
//! A block is lossless — [`Block::drain_into`] gives back the
//! measurements pushed, `==` and in order, whatever their shape (0, 1 or
//! 3 traceroutes, empty hop lists, errored runs) — which is what
//! [`crate::Feeder::take_pending`] hands a checkpointing caller. Blocks
//! are never serialised.

use churnlab_core::convert::{convert_traceroutes, ConversionStats, ConvertScratch};
use churnlab_obs::Counter;
use churnlab_platform::{AnomalySet, Measurement, TracerouteError, TracerouteRecord};
use churnlab_topology::{Asn, Ip2AsDb};
use std::sync::Mutex;

/// A measurement's scalar fields, as a block carries them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Head {
    pub vp_id: u32,
    pub vp_asn: Asn,
    pub url_id: u32,
    pub dest_asn: Asn,
    pub day: u32,
    pub epoch: u32,
    pub detected: AnomalySet,
    pub failed: bool,
    /// Where this measurement's traceroutes end in
    /// [`Block::traceroutes`] (they start where the previous head's end).
    traceroutes_end: u32,
}

/// Measurements flattened into three vectors that keep their capacity
/// from one trip over the wire to the next.
#[derive(Debug, Default)]
pub(crate) struct Block {
    heads: Vec<Head>,
    /// Per traceroute: where its hops end in `hops` (they start where the
    /// previous traceroute's end) and the run's error.
    traceroutes: Vec<(u32, Option<TracerouteError>)>,
    /// Every hop of every traceroute, end to end.
    hops: Vec<Option<u32>>,
}

/// Offsets into a block are `u32`: a count that does not fit is a loud
/// failure, never a wrapped offset.
fn offset(count: usize, what: &str) -> u32 {
    u32::try_from(count)
        .unwrap_or_else(|_| panic!("wire block: {count} {what} do not fit its u32 offsets"))
}

impl Block {
    /// Measurements held.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Copy `m` in. The caller still owns `m` — and drops it on its own
    /// thread, which is the point.
    pub(crate) fn push(&mut self, m: &Measurement) {
        for tr in &m.traceroutes {
            self.hops.extend_from_slice(&tr.hops);
            self.traceroutes.push((offset(self.hops.len(), "hops"), tr.error));
        }
        self.heads.push(Head {
            vp_id: m.vp_id,
            vp_asn: m.vp_asn,
            url_id: m.url_id,
            dest_asn: m.dest_asn,
            day: m.day,
            epoch: m.epoch,
            detected: m.detected,
            failed: m.failed,
            traceroutes_end: offset(self.traceroutes.len(), "traceroutes"),
        });
    }

    /// Forget the contents, keep the capacity.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.traceroutes.clear();
        self.hops.clear();
    }

    /// The `i`-th measurement's scalar fields.
    pub(crate) fn head(&self, i: usize) -> &Head {
        &self.heads[i]
    }

    /// The measurements, in push order, each a borrowed view.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let mut first_traceroute = 0;
        let mut first_hop = 0;
        self.heads.iter().map(move |head| {
            let end = head.traceroutes_end as usize;
            let row = Row {
                head,
                traceroutes: &self.traceroutes[first_traceroute..end],
                hops: &self.hops,
                first_hop,
            };
            first_traceroute = end;
            if let Some(&(hops_end, _)) = row.traceroutes.last() {
                first_hop = hops_end as usize;
            }
            row
        })
    }

    /// Rebuild the measurements pushed, in order, onto `out`, and clear
    /// the block.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<Measurement>) {
        out.extend(self.rows().map(|row| row.to_measurement()));
        self.clear();
    }
}

/// One measurement inside a [`Block`].
pub(crate) struct Row<'b> {
    pub head: &'b Head,
    traceroutes: &'b [(u32, Option<TracerouteError>)],
    /// The whole block's arena; `traceroutes` holds offsets into it.
    hops: &'b [Option<u32>],
    first_hop: usize,
}

impl<'b> Row<'b> {
    /// Convert the measurement (the §3.1 rules) straight off the block's
    /// arena: [`churnlab_core::convert::convert_into`]'s result, without
    /// the [`Measurement`].
    pub(crate) fn convert<'s>(
        &self,
        db: &Ip2AsDb,
        stats: &mut ConversionStats,
        scratch: &'s mut ConvertScratch,
    ) -> Option<&'s [Asn]> {
        let traceroutes = self.traceroutes().map(|(hops, error)| (hops, error.is_some()));
        convert_traceroutes(self.head.failed, self.head.vp_asn, traceroutes, db, stats, scratch)
    }

    /// The measurement's traceroutes: each run's hops and its error.
    fn traceroutes(
        &self,
    ) -> impl Iterator<Item = (&'b [Option<u32>], Option<TracerouteError>)> + 'b {
        let hops = self.hops;
        let mut start = self.first_hop;
        self.traceroutes.iter().map(move |&(end, error)| {
            let run = &hops[start..end as usize];
            start = end as usize;
            (run, error)
        })
    }

    fn to_measurement(&self) -> Measurement {
        let Head { vp_id, vp_asn, url_id, dest_asn, day, epoch, detected, failed, .. } = *self.head;
        let traceroutes = self
            .traceroutes()
            .map(|(hops, error)| TracerouteRecord { hops: hops.to_vec(), error })
            .collect();
        Measurement { vp_id, vp_asn, url_id, dest_asn, day, epoch, detected, traceroutes, failed }
    }
}

/// How many spent blocks the engine keeps for its feeders. A feeder and
/// a shard that keep pace circulate two or three; past the bound a spent
/// block is simply freed.
const POOL_BLOCKS: usize = 8;

/// The engine's spent blocks. Shard workers [`give`](BlockPool::give)
/// back every block they have folded; feeders
/// [`take`](BlockPool::take) their next one here, so a block's three
/// vectors are grown once and then reused — also by a feeder that
/// flushes short blocks every few hundred measurements. One mutex,
/// touched once a block.
pub(crate) struct BlockPool {
    spent: Mutex<Vec<Block>>,
    /// `churnlab_wire_blocks_total{source="pool"}` and `{source="fresh"}`;
    /// `None` in the stripped engine.
    taken: Option<(Counter, Counter)>,
}

impl BlockPool {
    pub(crate) fn new(taken: Option<(Counter, Counter)>) -> Self {
        BlockPool { spent: Mutex::new(Vec::with_capacity(POOL_BLOCKS)), taken }
    }

    /// The pool stays valid at every step of `take` and `give`, so a
    /// lock poisoned by a panicking feeder or worker is still good.
    fn spent(&self) -> std::sync::MutexGuard<'_, Vec<Block>> {
        self.spent.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An empty block: a spent one if the pool has any, a new one (which
    /// allocates nothing until it is pushed into) otherwise.
    pub(crate) fn take(&self) -> Block {
        let spent = self.spent().pop();
        if let Some((pool, fresh)) = &self.taken {
            if spent.is_some() { pool } else { fresh }.inc();
        }
        spent.unwrap_or_default()
    }

    /// Return a block, contents and all; it is cleared here and kept
    /// unless the pool is full.
    pub(crate) fn give(&self, mut block: Block) {
        block.clear();
        let mut spent = self.spent();
        if spent.len() < POOL_BLOCKS {
            spent.push(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, EngineObs};
    use churnlab_bgp::{ChurnConfig, RoutingSim};
    use churnlab_censor::{CensorConfig, CensorshipScenario};
    use churnlab_core::convert::convert_into;
    use churnlab_core::pipeline::PipelineConfig;
    use churnlab_obs::Registry;
    use churnlab_platform::{AnomalyType, Platform, PlatformConfig, PlatformScale};
    use churnlab_topology::{generator, Ipv4Prefix, WorldConfig, WorldScale};
    use proptest::prelude::*;

    /// Hops over four /8s, three of them mapped (ASes 10, 20, 30), with
    /// `None`, `Some(0)` and runs of one AS all likely.
    fn arb_hops() -> impl Strategy<Value = Vec<Option<u32>>> {
        let hop = prop_oneof![
            Just(None),
            Just(Some(0)),
            (1u32..5, 0u32..4).prop_map(|(top, low)| Some(top << 24 | low)),
            (1u32..4, 0u32..4).prop_map(|(top, low)| Some(top << 24 | low)),
        ];
        proptest::collection::vec(hop, 0..9)
    }

    fn arb_traceroute() -> impl Strategy<Value = TracerouteRecord> {
        let error = prop_oneof![
            Just(None),
            Just(None),
            Just(None),
            Just(Some(TracerouteError::Failed)),
            Just(Some(TracerouteError::Truncated)),
        ];
        (arb_hops(), error).prop_map(|(hops, error)| TracerouteRecord { hops, error })
    }

    /// Measurements of every shape an import or the platform produces:
    /// 0, 1 or 3 traceroutes, empty hop lists, errored runs with and
    /// without output, tests that failed outright.
    fn arb_measurement() -> impl Strategy<Value = Measurement> {
        let traceroutes = prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(arb_traceroute(), 1),
            proptest::collection::vec(arb_traceroute(), 3),
        ];
        let scalars = (any::<u32>(), 1u32..4, 0u32..6, 0u32..60, any::<u32>(), 0u8..32, 0u32..10);
        (scalars, traceroutes).prop_map(|(s, traceroutes)| {
            let (vp_id, vp_as, url_id, day, epoch, anomalies, failed) = s;
            Measurement {
                vp_id,
                vp_asn: Asn(vp_as * 10),
                url_id,
                dest_asn: Asn(30),
                day,
                epoch,
                detected: (AnomalyType::ALL.into_iter().enumerate())
                    .filter_map(|(bit, a)| (anomalies & (1 << bit) != 0).then_some(a))
                    .collect(),
                traceroutes,
                failed: failed == 0,
            }
        })
    }

    fn db() -> Ip2AsDb {
        Ip2AsDb::from_entries([
            (Ipv4Prefix::from_octets(1, 0, 0, 0, 8).unwrap(), Asn(10)),
            (Ipv4Prefix::from_octets(2, 0, 0, 0, 8).unwrap(), Asn(20)),
            (Ipv4Prefix::from_octets(3, 0, 0, 0, 8).unwrap(), Asn(30)),
        ])
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// What goes into a block comes out of it, `==` and in order —
        /// and the block is empty, capacity kept, for its next trip.
        #[test]
        fn a_block_is_lossless(ms in proptest::collection::vec(arb_measurement(), 0..40)) {
            let mut block = Block::default();
            for round in 0..2 {
                ms.iter().for_each(|m| block.push(m));
                prop_assert_eq!(block.len(), ms.len());
                let mut back = Vec::new();
                block.drain_into(&mut back);
                prop_assert_eq!(&back, &ms, "round {}", round);
                prop_assert!(block.is_empty());
            }
        }

        /// Conversion off a block is the conversion of the measurements
        /// pushed into it: the same path or the same discard, one by one.
        #[test]
        fn conversion_off_a_block_is_the_same_conversion(
            ms in proptest::collection::vec(arb_measurement(), 0..40),
        ) {
            let db = db();
            let mut block = Block::default();
            ms.iter().for_each(|m| block.push(m));
            let mut stats = [ConversionStats::default(); 2];
            let mut scratch = [ConvertScratch::default(), ConvertScratch::default()];
            for (m, row) in ms.iter().zip(block.rows()) {
                let [stats, want_stats] = &mut stats;
                let [scratch, want_scratch] = &mut scratch;
                let want = convert_into(m, &db, want_stats, want_scratch);
                let got = row.convert(&db, stats, scratch);
                prop_assert_eq!(got, want, "{:?}", m);
                prop_assert_eq!(stats, want_stats, "{:?}", m);
            }
        }
    }

    #[test]
    fn the_pool_is_bounded_and_hands_back_what_it_was_given() {
        let pool = BlockPool::new(None);
        let m = Measurement {
            vp_id: 1,
            vp_asn: Asn(10),
            url_id: 0,
            dest_asn: Asn(30),
            day: 0,
            epoch: 0,
            detected: AnomalySet::empty(),
            traceroutes: vec![TracerouteRecord { hops: vec![Some(7); 5], error: None }],
            failed: false,
        };
        for _ in 0..POOL_BLOCKS + 3 {
            let mut block = Block::default();
            block.push(&m);
            pool.give(block);
        }
        assert_eq!(pool.spent().len(), POOL_BLOCKS, "a full pool frees what it is given");
        let block = pool.take();
        assert!(block.is_empty(), "a pooled block comes back cleared");
        assert!(block.hops.capacity() >= 5, "and keeps what it grew");
        assert_eq!(pool.spent().len(), POOL_BLOCKS - 1);
    }

    /// A 9k-measurement smoke study and an instrumented two-shard engine
    /// over it, handed to `drive` with the study; returns how many blocks
    /// feeders took from the pool and how many fresh.
    fn wire_blocks(drive: impl FnOnce(&Engine<'_>, Vec<Measurement>)) -> (u64, u64) {
        let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, 5));
        let mut censor_cfg = CensorConfig::scaled_for(world.topology.countries().len());
        let platform_cfg = PlatformConfig::preset(PlatformScale::Smoke, 6);
        censor_cfg.total_days = platform_cfg.total_days;
        let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
        let platform = Platform::new(&world, &scenario, platform_cfg.clone());
        let churn_cfg =
            ChurnConfig { total_days: platform_cfg.total_days, ..ChurnConfig::default() };
        let sim = RoutingSim::new(&world.topology, &churn_cfg);
        let (ms, _) = platform.run_collect_parallel(&sim, 1);

        let registry = Registry::new();
        let cfg = EngineConfig::new(PipelineConfig::paper(platform_cfg.total_days))
            .with_shards(SHARDS)
            .with_obs(EngineObs::new(registry.clone()));
        let engine = Engine::new(&platform, cfg);
        drive(&engine, ms);
        let snap = registry.scrape();
        let taken =
            |source| snap.counter("churnlab_wire_blocks_total", &[("source", source)]).unwrap_or(0);
        (taken("pool"), taken("fresh"))
    }

    const SHARDS: usize = 2;

    /// A feeder shipping full chunks to shards that keep pace (a snapshot
    /// after every chunk's worth makes them) draws fresh blocks only
    /// until as many circulate as it can have out at once — one a shard
    /// in its hands, one a shard in flight — however many it ships.
    #[test]
    fn a_feeder_shipping_full_chunks_recycles_its_blocks() {
        let (pool, fresh) = wire_blocks(|engine, ms| {
            let mut feeder = engine.feeder().with_chunk(64);
            for chunk in ms.chunks(64) {
                chunk.iter().for_each(|m| feeder.ingest_owned(m.clone()));
                engine.snapshot();
            }
        });
        assert!(pool + fresh >= 50, "{pool} + {fresh} taken");
        assert!(fresh <= 2 * SHARDS as u64, "{fresh} fresh, {pool} pooled");
    }

    /// The serving pattern — flush a short tail and snapshot, every 200
    /// measurements — reuses its blocks too: the feeder's next block is
    /// drawn from the pool at every flush, not regrown from nothing.
    #[test]
    fn a_feeder_flushing_every_200_recycles_its_blocks() {
        let (pool, fresh) = wire_blocks(|engine, ms| {
            let mut feeder = engine.feeder();
            for chunk in ms.chunks(200) {
                chunk.iter().for_each(|m| feeder.ingest_owned(m.clone()));
                feeder.flush();
                engine.snapshot();
            }
        });
        assert!(pool + fresh >= 50, "{pool} + {fresh} taken");
        assert!(fresh <= 2 * SHARDS as u64, "{fresh} fresh, {pool} pooled");
    }

    #[test]
    #[should_panic(expected = "do not fit its u32 offsets")]
    fn an_offset_past_u32_fails_loudly() {
        offset(u32::MAX as usize + 1, "hops");
    }
}
