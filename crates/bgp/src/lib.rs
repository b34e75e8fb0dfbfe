//! # churnlab-bgp
//!
//! Gao–Rexford (valley-free) interdomain routing with a path-churn event
//! process — the substitute for the real Internet's BGP dynamics that the
//! paper's technique feeds on.
//!
//! The paper's core observation is that **network-level path churn
//! substitutes for strategically placed tomography monitors**: between an
//! ICLab vantage point and a destination, routes change over time (25% of
//! pairs within a day, 67% within a year — Figure 3), and each distinct
//! path contributes a differently-shaped boolean clause, making the SAT
//! instances solvable. This crate produces exactly that behaviour:
//!
//! * [`policy`] — route classes and Gao–Rexford preference (customer >
//!   peer > provider, then shortest AS path, then a salted tiebreak).
//! * [`compute`] — per-destination routing trees via the standard
//!   three-stage valley-free propagation (customer routes up, one peer
//!   hop, provider routes down), parameterised by live link state.
//! * [`churn`] — the event process: per-link up/down timelines (two-state
//!   Markov chains driven by each link's [`churnlab_topology::LinkStability`])
//!   plus per-AS traffic-engineering shifts that re-roll equal-cost
//!   tiebreaks, mirroring hot-potato and TE-induced churn in real BGP.
//! * [`sim`] — [`sim::RoutingSim`], the epoch-indexed path oracle used by
//!   the measurement platform, with a sharded cache of demand-driven
//!   route trees (eager provider cone and peers; provider stage and next
//!   hops resolved for the ASes lookups walk through).
//! * [`mod@reference`] — the pre-CSR compute path, retained as the benchmark
//!   baseline and differential oracle for the scratch-reused fast path.
//! * [`stats`] — distinct-path counting over time windows (Figure 3's
//!   statistic) and churn summaries.
//! * [`time`] — simulation time: epochs, days, and the day/week/month/year
//!   windows the paper slices CNFs by.
//!
//! Everything is deterministic given the seed in [`churn::ChurnConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod compute;
mod demand;
pub mod policy;
pub mod reference;
pub mod sim;
pub mod stats;
pub mod time;

pub use churn::{ChurnConfig, ChurnConfigError, ChurnTimeline};
pub use compute::{RouteTree, SelectedRoute, TreeScratch};
pub use reference::{ReferenceRouter, ReferenceTree};
pub use policy::RouteClass;
pub use sim::RoutingSim;
pub use time::{Day, Epoch, Granularity, TimeWindow};

pub use churnlab_topology::mix64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Consecutive inputs should differ in many bits.
        let d = (mix64(100) ^ mix64(101)).count_ones();
        assert!(d > 10, "poor diffusion: {d} bits");
    }
}
