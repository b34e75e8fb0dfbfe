//! Simulation time: epochs, days, and CNF time windows.
//!
//! The measurement period mirrors the paper's (Table 1): one year,
//! 2016-05-01 through 2017-04-30. Days index from 0; an *epoch* is a
//! sub-day routing interval (default 6 per day, i.e. 4-hour slots) so that
//! intra-day path churn — which the paper observes for 25% of pairs — is
//! representable. CNFs are split at four granularities (§3.1): day, week,
//! month, and year.

use serde::{Deserialize, Serialize};

/// A simulation day, 0-based from the start of the measurement period.
pub type Day = u32;

/// A routing epoch (sub-day interval), global index across the whole
/// simulation.
pub type Epoch = u32;

/// Number of days simulated by default (the paper's 2016-05 .. 2017-05).
pub const DEFAULT_TOTAL_DAYS: u32 = 365;

/// CNF time granularities from §3.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Granularity {
    /// One calendar day.
    Day,
    /// Seven days.
    Week,
    /// Thirty days (the paper's "month" slices; the 366th-day remainder
    /// folds into the last month).
    Month,
    /// The whole measurement period.
    Year,
}

impl Granularity {
    /// All granularities, finest first.
    pub const ALL: [Granularity; 4] =
        [Granularity::Day, Granularity::Week, Granularity::Month, Granularity::Year];

    /// Granularities shown in Figure 1a / Figure 4 (the paper plots day,
    /// week, month).
    pub const SUB_YEAR: [Granularity; 3] =
        [Granularity::Day, Granularity::Week, Granularity::Month];

    /// Window length in days (`None` = everything).
    pub fn days(self) -> Option<u32> {
        match self {
            Granularity::Day => Some(1),
            Granularity::Week => Some(7),
            Granularity::Month => Some(30),
            Granularity::Year => None,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Granularity::Day => "day",
            Granularity::Week => "week",
            Granularity::Month => "month",
            Granularity::Year => "year",
        }
    }
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A concrete time window: a granularity plus its index within the
/// measurement period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TimeWindow {
    /// The granularity.
    pub granularity: Granularity,
    /// Window index (day number, week number, …; always 0 for `Year`).
    pub index: u32,
}

impl TimeWindow {
    /// The window containing `day` at `granularity`, given the total
    /// simulation length (needed to fold the trailing partial month/week
    /// into the final full one, as the paper's slicing does).
    pub fn of(day: Day, granularity: Granularity, total_days: u32) -> TimeWindow {
        let index = match granularity.days() {
            None => 0,
            Some(len) => {
                let n_windows = (total_days / len).max(1);
                (day / len).min(n_windows - 1)
            }
        };
        TimeWindow { granularity, index }
    }

    /// Number of windows of `granularity` in a period of `total_days`.
    pub fn count(granularity: Granularity, total_days: u32) -> u32 {
        match granularity.days() {
            None => 1,
            Some(len) => (total_days / len).max(1),
        }
    }

    /// Last day this window can absorb, or `None` for windows that stay
    /// open for the rest of the stream: the `Year` window, and the final
    /// window of every granularity (it takes the trailing partial slice
    /// *and*, under [`TimeWindow::of`]'s clamping, every day past
    /// `total_days`). A `None` window can never retire under a lateness
    /// horizon; a `Some(end)` window receives no day later than `end`.
    pub fn end_day(self, total_days: u32) -> Option<Day> {
        let len = self.granularity.days()?;
        let n_windows = (total_days / len).max(1);
        if self.index + 1 >= n_windows {
            None
        } else {
            Some((self.index + 1) * len - 1)
        }
    }

    /// Whether this window closed below `watermark` under a lateness
    /// `horizon` (days): it can end, and `end_day + horizon < watermark`.
    /// The one retirement rule — the shard retires cells by it, the churn
    /// store folds and prunes by it.
    pub fn closed_below(self, total_days: u32, horizon: u32, watermark: Day) -> bool {
        self.end_day(total_days)
            .is_some_and(|end| u64::from(end) + u64::from(horizon) < u64::from(watermark))
    }
}

impl std::fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.granularity, self.index)
    }
}

/// Maps (day, slot) to a global epoch index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochMapper {
    /// Routing epochs per day.
    pub epochs_per_day: u32,
}

impl EpochMapper {
    /// Construct; panics on zero epochs per day.
    pub fn new(epochs_per_day: u32) -> Self {
        assert!(epochs_per_day > 0, "need at least one epoch per day");
        EpochMapper { epochs_per_day }
    }

    /// Epoch of `slot` (0-based) within `day`; panics, naming the day,
    /// if the index does not fit the `u32` epoch clock.
    pub fn epoch(&self, day: Day, slot: u32) -> Epoch {
        day.checked_mul(self.epochs_per_day)
            .and_then(|e| e.checked_add(slot % self.epochs_per_day))
            .unwrap_or_else(|| {
                panic!(
                    "day {day} at {} epochs per day exceeds the u32 epoch clock",
                    self.epochs_per_day
                )
            })
    }

    /// The day an epoch belongs to.
    pub fn day_of(&self, epoch: Epoch) -> Day {
        epoch / self.epochs_per_day
    }

    /// Total epochs in `total_days`, or `None` if the count does not fit
    /// the `u32` epoch clock.
    pub fn checked_total_epochs(&self, total_days: u32) -> Option<u32> {
        total_days.checked_mul(self.epochs_per_day)
    }

    /// Total epochs in `total_days`; panics, naming both factors, if the
    /// count does not fit the `u32` epoch clock
    /// ([`EpochMapper::checked_total_epochs`] asks first).
    pub fn total_epochs(&self, total_days: u32) -> u32 {
        self.checked_total_epochs(total_days).unwrap_or_else(|| {
            panic!(
                "{total_days} days at {} epochs per day exceed the u32 epoch clock",
                self.epochs_per_day
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_of_day_granularity_is_identity() {
        let w = TimeWindow::of(17, Granularity::Day, 365);
        assert_eq!(w.index, 17);
    }

    #[test]
    fn week_and_month_bucketing() {
        assert_eq!(TimeWindow::of(0, Granularity::Week, 365).index, 0);
        assert_eq!(TimeWindow::of(6, Granularity::Week, 365).index, 0);
        assert_eq!(TimeWindow::of(7, Granularity::Week, 365).index, 1);
        assert_eq!(TimeWindow::of(29, Granularity::Month, 365).index, 0);
        assert_eq!(TimeWindow::of(30, Granularity::Month, 365).index, 1);
    }

    #[test]
    fn trailing_partial_window_folds_into_last() {
        // 365 days = 52 full weeks + 1 day; day 364 joins week 51.
        assert_eq!(TimeWindow::count(Granularity::Week, 365), 52);
        assert_eq!(TimeWindow::of(364, Granularity::Week, 365).index, 51);
        // 365 days = 12 months of 30 + 5 days; day 360..364 joins month 11.
        assert_eq!(TimeWindow::count(Granularity::Month, 365), 12);
        assert_eq!(TimeWindow::of(364, Granularity::Month, 365).index, 11);
    }

    #[test]
    fn year_window_is_single() {
        assert_eq!(TimeWindow::count(Granularity::Year, 365), 1);
        assert_eq!(TimeWindow::of(200, Granularity::Year, 365).index, 0);
    }

    #[test]
    fn end_day_marks_closable_windows() {
        // Interior windows end exactly where the next one starts − 1.
        assert_eq!(TimeWindow::of(0, Granularity::Day, 60).end_day(60), Some(0));
        assert_eq!(TimeWindow::of(8, Granularity::Week, 60).end_day(60), Some(13));
        assert_eq!(TimeWindow::of(5, Granularity::Month, 60).end_day(60), Some(29));
        // The final window of every granularity absorbs the trailing
        // slice (and clamped future days), so it never closes.
        assert_eq!(TimeWindow::of(59, Granularity::Day, 60).end_day(60), None);
        assert_eq!(TimeWindow::of(59, Granularity::Week, 60).end_day(60), None);
        assert_eq!(TimeWindow::of(59, Granularity::Month, 60).end_day(60), None);
        assert_eq!(TimeWindow::of(3, Granularity::Year, 60).end_day(60), None);
        // Clamped future days land in the last (open) window.
        assert_eq!(TimeWindow::of(1000, Granularity::Day, 60).end_day(60), None);
    }

    #[test]
    fn closed_below_is_strict_and_never_for_a_last_window() {
        let day3 = TimeWindow::of(3, Granularity::Day, 60);
        assert!(!day3.closed_below(60, 2, 5), "3 + 2 < 5 is false");
        assert!(day3.closed_below(60, 2, 6));
        assert!(!TimeWindow::of(59, Granularity::Day, 60).closed_below(60, 0, u32::MAX));
        assert!(!TimeWindow::of(3, Granularity::Year, 60).closed_below(60, 0, u32::MAX));
        // The sum is taken wide: a huge horizon never wraps into "closed".
        assert!(!day3.closed_below(60, u32::MAX, u32::MAX));
    }

    #[test]
    fn epoch_mapping_roundtrip() {
        let m = EpochMapper::new(6);
        assert_eq!(m.epoch(0, 0), 0);
        assert_eq!(m.epoch(1, 0), 6);
        assert_eq!(m.epoch(2, 5), 17);
        assert_eq!(m.day_of(17), 2);
        assert_eq!(m.total_epochs(365), 2190);
        // Slot overflow wraps within the day rather than spilling over.
        assert_eq!(m.epoch(3, 7), m.epoch(3, 1));
    }

    #[test]
    fn epoch_clock_overflow_is_refused_not_wrapped() {
        let m = EpochMapper::new(24);
        // The last day that fits, and the first that does not.
        let last = u32::MAX / 24;
        assert_eq!(m.checked_total_epochs(last), Some(last * 24));
        assert_eq!(m.checked_total_epochs(last + 1), None);
        assert_eq!(m.epoch(last - 1, 23), last * 24 - 1);
        for wraps in [
            std::panic::catch_unwind(|| m.total_epochs(last + 1)),
            std::panic::catch_unwind(|| m.epoch(last + 1, 0)),
            // The multiply fits, the slot's add does not.
            std::panic::catch_unwind(|| EpochMapper::new(u32::MAX).epoch(1, u32::MAX - 1)),
        ] {
            let msg = *wraps.expect_err("must not wrap").downcast::<String>().unwrap();
            assert!(msg.contains("exceed") && msg.contains("u32 epoch clock"), "{msg}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_epochs_rejected() {
        EpochMapper::new(0);
    }

    #[test]
    fn windows_are_ordered() {
        let a = TimeWindow::of(3, Granularity::Day, 365);
        let b = TimeWindow::of(4, Granularity::Day, 365);
        assert!(a < b);
    }
}
