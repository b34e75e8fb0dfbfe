//! Figure 3's statistic: the distribution of distinct AS-level paths a
//! (vantage point, destination) pair shows within each day, week, month
//! and the full year. The paper reports the fraction of pairs with ≥2
//! (i.e. any churn) and the distribution of distinct-path counts;
//! `churnlab_core::churnstats::ChurnAccumulator` counts them over the
//! measured (traceroute-derived) paths.

use crate::time::Granularity;
use serde::{Deserialize, Serialize};

/// Distribution of distinct-path counts per pair for one granularity:
/// `dist[k]` = number of (pair, window) combos that observed exactly
/// `k+1` distinct paths; the final bucket aggregates `5+`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistinctPathDist {
    /// The granularity this distribution was computed at.
    pub granularity: Granularity,
    /// Buckets for 1, 2, 3, 4, 5+ distinct paths.
    pub buckets: [u64; 5],
    /// Total (pair, window) combos counted.
    pub total: u64,
}

impl DistinctPathDist {
    /// Fraction of combos with at least `k` distinct paths (k in 1..=5).
    pub fn frac_at_least(&self, k: usize) -> f64 {
        assert!((1..=5).contains(&k));
        if self.total == 0 {
            return 0.0;
        }
        let n: u64 = self.buckets[k - 1..].iter().sum();
        n as f64 / self.total as f64
    }

    /// Fraction of combos with ≥2 distinct paths — the headline "pairs
    /// observed to change" number (25/30/38/67% in the paper).
    pub fn churn_fraction(&self) -> f64 {
        self.frac_at_least(2)
    }
}
