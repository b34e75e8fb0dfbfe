//! Batch clause formulation for one URL's observation buffer — the §3.1
//! splitting logic of the batch [`crate::pipeline::Pipeline`], with its
//! Figure-4 first-path filter.

use crate::instance::{InstanceBuilder, InstanceKey};
use crate::obs::ConvertedObs;
use crate::pipeline::ChurnMode;
use churnlab_bgp::{Granularity, TimeWindow};
use churnlab_platform::AnomalyType;
use churnlab_topology::Asn;
use std::collections::HashMap;

/// Apply the [`ChurnMode::FirstPathOnly`] ablation filter in place: keep
/// only observations over each *vantage AS*'s first distinct path to this
/// URL. `buffer` must be in test order ([`ConvertedObs::test_order`]) —
/// keying by the record's source field (the vantage AS, like the paper's
/// records) means a multi-exit provider's whole footprint collapses onto
/// whichever exit's path was seen first, removing exactly the AS-level
/// path diversity the paper's Figure 4 removes.
pub fn first_path_filter(buffer: &mut Vec<ConvertedObs>) {
    let mut first: HashMap<Asn, Vec<Asn>> = HashMap::new();
    buffer.retain(|o| {
        let entry = first.entry(o.vp_asn).or_insert_with(|| o.path.clone());
        *entry == o.path
    });
}

/// Apply the churn-mode filter to one URL's observation buffer, then
/// split it into instances — one per (granularity window × anomaly type)
/// — and hand each non-empty builder to `emit`, in the pipeline's
/// deterministic order: granularities in `granularities` order, windows
/// sorted, anomalies in [`AnomalyType::ALL`] order. In
/// [`ChurnMode::FirstPathOnly`], `buffer` must be in test order (see
/// [`first_path_filter`]).
pub fn split_url_buffer(
    url_id: u32,
    mut buffer: Vec<ConvertedObs>,
    churn_mode: ChurnMode,
    granularities: &[Granularity],
    total_days: u32,
    mut emit: impl FnMut(InstanceBuilder),
) {
    if churn_mode == ChurnMode::FirstPathOnly {
        first_path_filter(&mut buffer);
    }
    for &g in granularities {
        // Group observation indices by window.
        let mut windows: HashMap<TimeWindow, Vec<usize>> = HashMap::new();
        for (i, o) in buffer.iter().enumerate() {
            windows.entry(TimeWindow::of(o.day, g, total_days)).or_default().push(i);
        }
        let mut window_keys: Vec<TimeWindow> = windows.keys().copied().collect();
        window_keys.sort();
        for w in window_keys {
            let members = &windows[&w];
            for anomaly in AnomalyType::ALL {
                let key = InstanceKey { url_id, anomaly, window: w };
                let mut builder = InstanceBuilder::new(key);
                for &i in members {
                    let o = &buffer[i];
                    builder.observe(&o.path, o.detected.contains(anomaly));
                }
                if builder.is_empty() {
                    continue;
                }
                emit(builder);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churnlab_platform::AnomalySet;

    fn obs(vp_asn: u32, day: u32, path: &[u32]) -> ConvertedObs {
        ConvertedObs {
            vp_id: vp_asn,
            vp_asn: Asn(vp_asn),
            url_id: 0,
            dest_asn: Asn(*path.last().unwrap()),
            day,
            epoch: day,
            path: path.iter().map(|a| Asn(*a)).collect(),
            detected: AnomalySet::empty(),
        }
    }

    #[test]
    fn first_path_filter_keeps_only_first_distinct_path() {
        let mut buf = vec![
            obs(1, 0, &[1, 5, 9]),
            obs(1, 1, &[1, 6, 9]), // churned away: dropped
            obs(1, 2, &[1, 5, 9]), // back on the first path: kept
            obs(2, 0, &[2, 6, 9]), // other vantage: its own first path
        ];
        first_path_filter(&mut buf);
        assert_eq!(buf.len(), 3);
        assert!(buf.iter().all(|o| o.vp_asn != Asn(1) || o.path[1] == Asn(5)));
    }

    #[test]
    fn instances_emitted_in_deterministic_order() {
        let buf = vec![obs(1, 0, &[1, 9]), obs(1, 40, &[1, 9])];
        let mut keys = Vec::new();
        let gs = [Granularity::Day, Granularity::Year];
        split_url_buffer(7, buf, ChurnMode::Normal, &gs, 60, |b| keys.push(b.key()));
        // 2 day windows + 1 year window, each × 5 anomaly types.
        assert_eq!(keys.len(), 15);
        assert!(keys.windows(2).all(|w| w[0] < w[1] || w[0].window != w[1].window));
        assert!(keys.iter().all(|k| k.url_id == 7));
    }
}
