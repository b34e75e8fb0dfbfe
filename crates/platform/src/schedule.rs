//! Fleet-sampling schedule: bounded per-day work on huge fleets.
//!
//! At the Paper tier every (url, testing-day) sees the entire vantage
//! fleet. On a Huge world (tens of thousands of vantage ASes) that
//! enumeration is the scaling wall: per-day work is O(fleet × urls).
//! This module replaces "everyone tests everything" with a deterministic
//! rotating k-subset per (url, testing-day):
//!
//! * Each URL gets its own pseudorandom permutation of the fleet, seeded
//!   from (seed, url) — so the subsets of different URLs are decorrelated
//!   and the union coverage across a corpus approaches the whole fleet
//!   after a handful of testing days.
//! * Testing day `d` of a URL takes the contiguous block of `k` entries
//!   starting at offset `(d·k) mod fleet` in that permutation, wrapping
//!   around. Consecutive blocks tile the circle, so over `D` testing days
//!   every vantage point is picked either `⌊D·k/fleet⌋` or `⌈D·k/fleet⌉`
//!   times — an *exact* coverage floor, not an expectation. That floor is
//!   what [`FleetSchedule::guaranteed_day_picks`] reports and what the
//!   platform's `tests_per_pair_floor` config is validated against.
//!
//! Subsets are emitted sorted ascending, so a sampled day iterates its
//! vantage points in the same relative order as a full-fleet day — the
//! parallel runner's byte-equality argument does not depend on sampling
//! being on or off.

use churnlab_topology::mix64;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The campaign-wide sampling schedule: which k of the fleet's vantage
/// points test a given URL on a given testing day.
#[derive(Debug, Clone)]
pub struct FleetSchedule {
    seed: u64,
    fleet: usize,
    k: usize,
}

impl FleetSchedule {
    /// Build a schedule over a fleet of `fleet` vantage points, sampling
    /// `sample` of them per (url, testing-day). `sample == 0` (or any
    /// value ≥ the fleet size) means no sampling: every day sees the
    /// whole fleet, byte-identical to the pre-sampling runner.
    pub fn new(seed: u64, fleet: usize, sample: usize) -> Self {
        let k = if sample == 0 || sample >= fleet { fleet } else { sample };
        FleetSchedule { seed, fleet, k }
    }

    /// Vantage points sampled per (url, testing-day).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total fleet size.
    pub fn fleet(&self) -> usize {
        self.fleet
    }

    /// Whether the schedule actually subsets the fleet.
    pub fn is_sampling(&self) -> bool {
        self.k < self.fleet
    }

    /// How many times each (vp, url) pair is *guaranteed* to be picked
    /// over `testing_days` testing days: ⌊D·k/fleet⌋. Exact — contiguous
    /// rotation blocks tile the permutation circle, so pick counts differ
    /// by at most one across the fleet.
    pub fn guaranteed_day_picks(&self, testing_days: u32) -> u32 {
        if self.fleet == 0 {
            return 0;
        }
        ((u64::from(testing_days) * self.k as u64) / self.fleet as u64) as u32
    }

    /// Lower bound on *distinct* vantage points a URL has seen after
    /// `testing_days` testing days: min(D·k, fleet).
    pub fn covered_after(&self, testing_days: u32) -> usize {
        (u64::from(testing_days) * self.k as u64).min(self.fleet as u64) as usize
    }

    /// The per-URL plan: the seeded fleet permutation this URL's rotation
    /// walks. Build once per URL, then take day subsets from it.
    pub fn plan_for_url(&self, url_id: u32) -> UrlFleetPlan {
        if !self.is_sampling() {
            // Full fleet: the identity plan, no shuffle needed.
            return UrlFleetPlan { perm: Vec::new(), fleet: self.fleet, k: self.k };
        }
        let mut perm: Vec<u32> = (0..self.fleet as u32).collect();
        let mut rng = StdRng::seed_from_u64(mix64(
            self.seed ^ (u64::from(url_id) << 20) ^ 0x5eed_f1ee,
        ));
        perm.shuffle(&mut rng);
        UrlFleetPlan { perm, fleet: self.fleet, k: self.k }
    }
}

/// One URL's rotation through the fleet.
#[derive(Debug, Clone, Default)]
pub struct UrlFleetPlan {
    /// Seeded permutation of 0..fleet (empty when not sampling).
    perm: Vec<u32>,
    fleet: usize,
    k: usize,
}

impl UrlFleetPlan {
    /// Fill `out` with the vantage indices tested on testing day
    /// `day_index` (the 0-based count of this URL's testing days so far),
    /// sorted ascending so day iteration order matches a full-fleet day.
    pub fn day_subset_into(&self, day_index: u32, out: &mut Vec<usize>) {
        out.clear();
        if self.perm.is_empty() {
            // Full fleet.
            out.extend(0..self.fleet);
            return;
        }
        let v = self.perm.len();
        let start = (u64::from(day_index) * self.k as u64 % v as u64) as usize;
        for i in 0..self.k {
            out.push(self.perm[(start + i) % v] as usize);
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_fleet_when_sample_zero_or_large() {
        for sample in [0, 10, 11, 100] {
            let s = FleetSchedule::new(7, 10, sample);
            assert!(!s.is_sampling());
            assert_eq!(s.k(), 10);
            let plan = s.plan_for_url(3);
            let mut out = Vec::new();
            plan.day_subset_into(5, &mut out);
            assert_eq!(out, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn subsets_are_sorted_sized_and_deterministic() {
        let s = FleetSchedule::new(42, 100, 7);
        let plan = s.plan_for_url(9);
        let plan2 = s.plan_for_url(9);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for d in 0..30 {
            plan.day_subset_into(d, &mut a);
            plan2.day_subset_into(d, &mut b);
            assert_eq!(a, b);
            assert_eq!(a.len(), 7);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(a.iter().all(|&v| v < 100));
        }
    }

    #[test]
    fn rotation_meets_exact_floor() {
        // Adversarial-ish sizes: k and fleet coprime, k dividing fleet,
        // k = 1, k = fleet-1.
        for (fleet, k) in [(10, 3), (12, 4), (97, 13), (50, 1), (8, 7)] {
            let s = FleetSchedule::new(1, fleet, k);
            for days in [1u32, 2, 5, 23] {
                let plan = s.plan_for_url(0);
                let mut counts = vec![0u32; fleet];
                let mut out = Vec::new();
                for d in 0..days {
                    plan.day_subset_into(d, &mut out);
                    for &vi in &out {
                        counts[vi] += 1;
                    }
                }
                let floor = s.guaranteed_day_picks(days);
                let lo = *counts.iter().min().unwrap();
                let hi = *counts.iter().max().unwrap();
                assert!(lo >= floor, "fleet={fleet} k={k} days={days}: min {lo} < floor {floor}");
                assert!(hi - lo <= 1, "tiling must balance within 1: {lo}..{hi}");
            }
        }
    }

    proptest::proptest! {
        /// The satellite property test: for adversarial (fleet, k, days,
        /// seed) combinations the rotation meets its exact per-pair
        /// floor, subsets stay well-formed, and pick counts never spread
        /// by more than one across the fleet.
        #[test]
        fn rotation_floor_holds_for_adversarial_shapes(
            fleet in 1usize..180,
            k in 0usize..200,
            days in 1u32..60,
            seed in 0u64..1_000,
            url in 0u32..10_000,
        ) {
            let s = FleetSchedule::new(seed, fleet, k);
            let plan = s.plan_for_url(url);
            let mut counts = vec![0u32; fleet];
            let mut out = Vec::new();
            for d in 0..days {
                plan.day_subset_into(d, &mut out);
                proptest::prop_assert_eq!(out.len(), s.k());
                proptest::prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
                for &vi in &out {
                    proptest::prop_assert!(vi < fleet);
                    counts[vi] += 1;
                }
            }
            let floor = s.guaranteed_day_picks(days);
            let lo = *counts.iter().min().unwrap();
            let hi = *counts.iter().max().unwrap();
            proptest::prop_assert!(lo >= floor, "min picks {} < floor {}", lo, floor);
            proptest::prop_assert!(hi - lo <= 1, "pick spread {}..{}", lo, hi);
            let distinct = counts.iter().filter(|&&c| c > 0).count();
            proptest::prop_assert!(distinct >= s.covered_after(days));
        }
    }

    #[test]
    fn different_urls_get_different_permutations() {
        let s = FleetSchedule::new(3, 64, 8);
        let mut a = Vec::new();
        let mut b = Vec::new();
        s.plan_for_url(0).day_subset_into(0, &mut a);
        s.plan_for_url(1).day_subset_into(0, &mut b);
        assert_ne!(a, b, "day-0 subsets of distinct URLs should differ");
    }
}
