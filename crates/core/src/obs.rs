//! The converted observation — the unit of work of the sharded
//! `churnlab-engine`.
//!
//! A [`ConvertedObs`] is a [`churnlab_platform::Measurement`] that survived
//! the §3.1 elimination rules: the traceroutes collapsed to a single
//! AS-level path. It carries everything any downstream consumer needs —
//! clause formulation (`path` + `detected`), churn accounting
//! (`vp_asn`/`dest_asn`/`day`), and the total test order
//! (`day`/`vp_id`/`epoch`) that the Figure-4 first-path ablation keys on.

use churnlab_platform::{AnomalySet, Measurement};
use churnlab_topology::{Asn, Ip2AsDb};
use serde::{Deserialize, Serialize};

use crate::convert::{convert_measurement, ConversionStats};

/// Dense identifier of an interned AS path.
///
/// Path churn means the tomography grind re-sees *few distinct paths,
/// observed many times*; consumers that intern each distinct path once
/// (`churnlab-engine`'s shard-local `PathTable`) hand out a `PathId` and
/// do all downstream bookkeeping — dedup, clause storage, report cells —
/// on this `u32` instead of re-hashing the path per instance cell.
///
/// Stability guarantees, relied on across snapshot boundaries:
///
/// * ids are assigned densely from `0` in first-intern order and **never
///   reassigned** — a `PathId` resolved at one snapshot still names the
///   same path at every later snapshot of the same table;
/// * the id is only meaningful against the table (or table snapshot)
///   that issued it — ids from different shards are unrelated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PathId(pub u32);

impl PathId {
    /// The id as a usize index (dense ids double as vector indices).
    #[inline]
    pub fn usize(self) -> usize {
        self.0 as usize
    }
}

/// One converted (AS-level) observation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvertedObs {
    /// Vantage point identifier (tie-breaker inside a testing day).
    pub vp_id: u32,
    /// Vantage point AS as registered (clause + churn source key).
    pub vp_asn: Asn,
    /// URL under test.
    pub url_id: u32,
    /// Destination (hosting) AS (churn pair key).
    pub dest_asn: Asn,
    /// Simulation day of the test.
    pub day: u32,
    /// Routing epoch the test ran in.
    pub epoch: u32,
    /// The converted AS-level path, vantage AS first.
    pub path: Vec<Asn>,
    /// Anomalies detected on this test.
    pub detected: AnomalySet,
}

impl ConvertedObs {
    /// Convert a measurement, recording the outcome in `stats`. Returns
    /// `None` when one of the paper's four elimination rules discards the
    /// test.
    pub fn from_measurement(
        m: &Measurement,
        db: &Ip2AsDb,
        stats: &mut ConversionStats,
    ) -> Option<ConvertedObs> {
        Some(Self::with_path(m, convert_measurement(m, db, stats)?))
    }

    /// The observation of `m`, given the path it converted to.
    pub fn with_path(m: &Measurement, path: Vec<Asn>) -> ConvertedObs {
        ConvertedObs {
            vp_id: m.vp_id,
            vp_asn: m.vp_asn,
            url_id: m.url_id,
            dest_asn: m.dest_asn,
            day: m.day,
            epoch: m.epoch,
            path,
            detected: m.detected,
        }
    }

    /// The total order in which the platform runner performs tests within
    /// one URL: testing day, then vantage index, then routing epoch. The
    /// first-path ablation's notion of "first distinct path" is defined
    /// against this order, so an order-independent consumer can restore it
    /// by sorting.
    pub fn test_order(&self) -> (u32, u32, u32) {
        (self.day, self.vp_id, self.epoch)
    }
}
