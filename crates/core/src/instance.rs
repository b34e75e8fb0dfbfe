//! The identity of one tomography instance (§3.1): one CNF per URL,
//! anomaly type and time window. Every converted AS-level path becomes
//! a clause over per-AS boolean variables — asserted True (*someone* on
//! the path censored) when the anomaly was observed, or False (unit
//! negations: nobody on the path censored) when it wasn't. Repeated
//! identical observations add no logical content; *contradictory* ones
//! (the same path both True and False inside one window) make the CNF
//! unsatisfiable, as the paper describes for policy changes and noise.
//! The engine's instance groups (`churnlab-engine`) build the CNFs.

use churnlab_bgp::TimeWindow;
use churnlab_platform::AnomalyType;
use serde::{Deserialize, Serialize};

/// Identity of one CNF. The derived ordering (URL, then anomaly, then
/// window) is the canonical report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceKey {
    /// The URL under test.
    pub url_id: u32,
    /// The anomaly type this CNF localizes.
    pub anomaly: AnomalyType,
    /// The time window.
    pub window: TimeWindow,
}
