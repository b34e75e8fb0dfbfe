//! Golden test: the Prometheus exposition format is a public interface.
//!
//! Dashboards and scrape configs key on metric names, label shapes, and
//! the `HELP`/`TYPE` framing. This test pins the exact rendered text for
//! a representative registry — if it fails, either fix the regression or
//! consciously update the golden string *and* the README's
//! "Observability" section together.

use churnlab_obs::{render_prometheus, Registry};

#[test]
fn exposition_format_is_stable() {
    let reg = Registry::new();
    reg.counter(
        "churnlab_measurements_total",
        "raw measurements ingested, per shard",
        &[("shard", "0")],
    )
    .add(1200);
    reg.counter(
        "churnlab_measurements_total",
        "raw measurements ingested, per shard",
        &[("shard", "1")],
    )
    .add(1100);
    reg.gauge("churnlab_windows_open", "churn windows currently open", &[]).set(5);
    let h = reg.histogram("churnlab_resolve_nanos", "incremental re-solve latency", &[]);
    h.observe(0);
    h.observe(3);
    h.observe(900);
    reg.counter(
        "churnlab_phase_nanos_total",
        "on-CPU nanoseconds by phase",
        &[("phase", "convert"), ("shard", "0")],
    )
    .add(42_000);
    reg.counter(
        "churnlab_route_nodes_resolved_total",
        "ASes whose next hop a lookup resolved in a cached tree",
        &[],
    )
    .add(740);
    reg.gauge(
        "churnlab_route_timeline_build_nanos",
        "Wall nanoseconds the churn timeline took to build",
        &[],
    )
    .set(25_900_000);
    for (kind, events) in [("link", 402_117), ("te", 2_731_446)] {
        reg.gauge(
            "churnlab_route_timeline_events",
            "Events of the churn timeline over the whole period, by kind",
            &[("kind", kind)],
        )
        .set(events);
    }
    let s = reg.histogram(
        "churnlab_snapshot_nanos",
        "wall nanoseconds of each Engine::snapshot call, collect + merge",
        &[],
    );
    s.observe(600);
    s.observe(1000);

    let text = render_prometheus(&reg.scrape());

    let golden = "\
# HELP churnlab_measurements_total raw measurements ingested, per shard
# TYPE churnlab_measurements_total counter
churnlab_measurements_total{shard=\"0\"} 1200
churnlab_measurements_total{shard=\"1\"} 1100
# HELP churnlab_phase_nanos_total on-CPU nanoseconds by phase
# TYPE churnlab_phase_nanos_total counter
churnlab_phase_nanos_total{phase=\"convert\",shard=\"0\"} 42000
# HELP churnlab_resolve_nanos incremental re-solve latency
# TYPE churnlab_resolve_nanos histogram
churnlab_resolve_nanos_bucket{le=\"0\"} 1
churnlab_resolve_nanos_bucket{le=\"1\"} 1
churnlab_resolve_nanos_bucket{le=\"3\"} 2
churnlab_resolve_nanos_bucket{le=\"7\"} 2
churnlab_resolve_nanos_bucket{le=\"15\"} 2
churnlab_resolve_nanos_bucket{le=\"31\"} 2
churnlab_resolve_nanos_bucket{le=\"63\"} 2
churnlab_resolve_nanos_bucket{le=\"127\"} 2
churnlab_resolve_nanos_bucket{le=\"255\"} 2
churnlab_resolve_nanos_bucket{le=\"511\"} 2
churnlab_resolve_nanos_bucket{le=\"1023\"} 3
churnlab_resolve_nanos_bucket{le=\"+Inf\"} 3
churnlab_resolve_nanos_sum 903
churnlab_resolve_nanos_count 3
# HELP churnlab_route_nodes_resolved_total ASes whose next hop a lookup resolved in a cached tree
# TYPE churnlab_route_nodes_resolved_total counter
churnlab_route_nodes_resolved_total 740
# HELP churnlab_route_timeline_build_nanos Wall nanoseconds the churn timeline took to build
# TYPE churnlab_route_timeline_build_nanos gauge
churnlab_route_timeline_build_nanos 25900000
# HELP churnlab_route_timeline_events Events of the churn timeline over the whole period, by kind
# TYPE churnlab_route_timeline_events gauge
churnlab_route_timeline_events{kind=\"link\"} 402117
churnlab_route_timeline_events{kind=\"te\"} 2731446
# HELP churnlab_snapshot_nanos wall nanoseconds of each Engine::snapshot call, collect + merge
# TYPE churnlab_snapshot_nanos histogram
churnlab_snapshot_nanos_bucket{le=\"0\"} 0
churnlab_snapshot_nanos_bucket{le=\"1\"} 0
churnlab_snapshot_nanos_bucket{le=\"3\"} 0
churnlab_snapshot_nanos_bucket{le=\"7\"} 0
churnlab_snapshot_nanos_bucket{le=\"15\"} 0
churnlab_snapshot_nanos_bucket{le=\"31\"} 0
churnlab_snapshot_nanos_bucket{le=\"63\"} 0
churnlab_snapshot_nanos_bucket{le=\"127\"} 0
churnlab_snapshot_nanos_bucket{le=\"255\"} 0
churnlab_snapshot_nanos_bucket{le=\"511\"} 0
churnlab_snapshot_nanos_bucket{le=\"1023\"} 2
churnlab_snapshot_nanos_bucket{le=\"+Inf\"} 2
churnlab_snapshot_nanos_sum 1600
churnlab_snapshot_nanos_count 2
# HELP churnlab_windows_open churn windows currently open
# TYPE churnlab_windows_open gauge
churnlab_windows_open 5
";
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted — metric names/label shapes are a public interface"
    );
}
