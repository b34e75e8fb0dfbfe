//! Order statistics for timing samples: medians, percentiles under the
//! "at least ten samples beyond" rule, and the quartile spread the
//! steadiness check uses.

/// Samples that must lie beyond a reported tail percentile before it is
/// trusted; with fewer, the tail is mostly the run's one or two outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The median of the better half of `samples` — the smaller half when
/// `lower_is_better`, else the larger; the middle sample of an odd count
/// belongs to the better half.
///
/// On a shared host a disturbed pass only ever reads worse, never
/// better, so the worse half of a run's passes is mostly the host's
/// doing and the median of the rest is the code's. Measured on the
/// reference box over fifty 0.3 s passes a run, this value moved 2–3%
/// run to run where the plain median moved 10%.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn steady(samples: &[f64], lower_is_better: bool) -> f64 {
    assert!(!samples.is_empty(), "steady value of no samples");
    let mut v = sorted(samples);
    if !lower_is_better {
        v.reverse();
    }
    median(&v[..v.len().div_ceil(2)])
}

/// The highest percentile not above `want` (in `0..=1`) that still has
/// [`MIN_BEYOND`] samples beyond it, never below the median. Returns the
/// percentile actually used and its nearest-rank value, so the caller
/// can state both.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn supported_percentile(samples: &[f64], want: f64) -> (f64, f64) {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    let n = v.len();
    let rank = |p: f64| ((p * n as f64).ceil() as usize).clamp(1, n);
    let wanted = rank(want);
    if n >= wanted + MIN_BEYOND {
        return (want, v[wanted - 1]);
    }
    let used = n.saturating_sub(MIN_BEYOND).max(rank(0.5));
    (used as f64 / n as f64, v[used - 1])
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread `--compare` holds against a bound.
/// `None` with fewer than two samples or a zero median.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let v = sorted(samples);
    // The exclusive method (Python's `statistics.quantiles(v, n=4)`),
    // which extrapolates when the clamped rank is off the ends.
    let q = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    let med = median(&v);
    (med != 0.0).then(|| (q(3) - q(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn steady_is_the_median_of_the_better_half() {
        // Times: the three smallest of five are 1, 2, 3.
        assert_eq!(steady(&[5.0, 1.0, 9.0, 3.0, 2.0], true), 2.0);
        // Rates: the two largest of four are 9 and 5.
        assert_eq!(steady(&[5.0, 1.0, 9.0, 3.0], false), 7.0);
        assert_eq!(steady(&[4.0], true), 4.0);
        // A disturbed minority moves the plain median, not this.
        let clean = [10.0, 10.1, 9.9, 10.0, 10.2, 10.1];
        let mut disturbed = clean.to_vec();
        disturbed.extend([14.0, 15.0, 13.0, 16.0, 12.5]);
        assert!((steady(&disturbed, true) - median(&clean)).abs() < 0.11);
        assert!(median(&disturbed) > 10.15);
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        // 381 samples: rank ceil(0.95·381) = 362 leaves 19 beyond.
        let many: Vec<f64> = (1..=381).map(f64::from).collect();
        assert_eq!(supported_percentile(&many, 0.95), (0.95, 362.0));
        // 200 samples: rank 190 leaves exactly ten beyond.
        let edge: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_percentile(&edge, 0.95), (0.95, 190.0));
        // 100 samples: p95 would leave five; the 90th leaves ten.
        let fewer: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&fewer, 0.95), (0.90, 90.0));
    }

    #[test]
    fn short_series_fall_back_to_the_median() {
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        let (p, v) = supported_percentile(&few, 0.95);
        assert_eq!((p, v), (0.5, 6.0));
        assert_eq!(supported_percentile(&[5.0], 0.95), (1.0, 5.0));
    }

    #[test]
    fn quartile_spread_matches_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).expect("ten samples");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past both ends on two samples.
        let two = quartile_spread(&[1.0, 2.0]).expect("two samples");
        assert!((two - 1.0).abs() < 1e-12, "{two}");
    }
}
