//! What the benchmark runs and what it reports: the workload table, the
//! load-shape constants, and every metric's name, unit, direction and
//! bound. `BENCHMARK.json` at the repository root declares the same
//! names; a test holds the two equal.

use churnlab_platform::PlatformScale;
use churnlab_topology::WorldScale;

/// Generator/feeder threads. A constant, not `nproc`: the load shape is
/// part of the benchmark.
pub const THREADS: usize = 1;
/// Engine shards. With [`THREADS`], at most two threads are ever busy.
pub const SHARDS: usize = 1;
/// An untraced run is this many rounds, each a set-up phase and then
/// timed passes on the study just set up — so the set-ups are spread
/// over the whole run like the passes, not a burst at its start (the
/// Small world assembles in half a millisecond: twenty-five of those in
/// the process's first 12 ms read 27% apart between two sets of runs).
/// Every round makes at least one set-up and one pass, however short
/// `--seconds` is.
pub const ROUNDS: usize = 10;
/// Share of `--seconds` that goes into the set-up phases; the passes get
/// the rest. A set-up longer than a round's share still runs once a
/// round.
pub const SETUP_SHARE: f64 = 0.2;
/// Quiescent `snapshot()` → digest calls timed after each pass's stream.
pub const REPORTS_PER_PASS: usize = 3;
/// Lateness horizon of the `service-small` engine, days.
pub const SERVICE_HORIZON_DAYS: u32 = 7;
/// `service-small`: measurements between two mid-stream snapshots —
/// 241 a pass, so each pass's own p95 has twelve samples beyond it.
pub const SNAPSHOT_EVERY: usize = 200;
/// `service-small`: checkpoint → drop → restore cuts, evenly spaced.
pub const CHECKPOINT_CUTS: usize = 4;
/// Fewest untraced/traced pass pairs a traced run alternates through.
pub const MIN_TRACED_PAIRS: usize = 2;
/// Inputs per layer span in the traced run's replays.
pub const TRACE_BATCH: usize = 128;
/// Measurements the interop round trip covers at most.
pub const INTEROP_RECORDS: usize = 100_000;

/// How a workload drives the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `campaign::run_fused`: generator thread streaming into the engine.
    Fused,
    /// A study collected at set-up, shuffled, fed through one `Feeder`.
    Replay,
    /// A collected study in day order through a retiring engine, with
    /// mid-stream snapshots and checkpoint → restore cuts.
    Service,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the set.
    pub why: &'static str,
    pub kind: Kind,
    pub world: WorldScale,
    pub platform: PlatformScale,
    /// Trims applied to the platform preset.
    pub n_urls: usize,
    pub total_days: u32,
    pub tests_per_pair: u32,
    /// Canonical-report digest of the seed-42 study. A run at seed 42
    /// must reproduce it; any other seed is held to the serial reference
    /// alone.
    pub pin_seed42: u64,
}

pub const PIN_SEED: u64 = 42;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fused-small",
        why: "whole wire, generator-bound: flow synthesis, censors and detection do the work; routes are cache hits and 92% of paths repeat",
        kind: Kind::Fused,
        world: WorldScale::Small,
        platform: PlatformScale::Small,
        n_urls: 12,
        total_days: 70,
        tests_per_pair: 28,
        pin_seed42: 0x141b_703e_0c10_88f2,
    },
    Workload {
        name: "fused-huge",
        why: "same wire on the 62k-AS world, route-miss-bound: 14 cold route trees per URL dominate and most observed paths are distinct",
        kind: Kind::Fused,
        world: WorldScale::Huge,
        platform: PlatformScale::Huge,
        n_urls: 4,
        total_days: 60,
        tests_per_pair: 4,
        pin_seed42: 0xb787_58ad_6c77_8c9b,
    },
    Workload {
        name: "replay-small",
        why: "bypasses the generator: the fused-small study collected, shuffled and fed through one feeder, so the shard worker (convert, churn, intern, observe, re-solve, merge) is the critical path",
        kind: Kind::Replay,
        world: WorldScale::Small,
        platform: PlatformScale::Small,
        n_urls: 12,
        total_days: 70,
        tests_per_pair: 28,
        pin_seed42: 0x141b_703e_0c10_88f2,
    },
    Workload {
        name: "service-small",
        why: "reads beside writes: the fused-small study in day order through a retiring engine, snapshotted every 200 measurements and checkpointed/restored four times",
        kind: Kind::Service,
        world: WorldScale::Small,
        platform: PlatformScale::Small,
        n_urls: 12,
        total_days: 70,
        tests_per_pair: 28,
        pin_seed42: 0x141b_703e_0c10_88f2,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same driver on the Smoke world and platform preset, for tests:
    /// seconds, not minutes, and no digest pin.
    pub fn smoke(self) -> Workload {
        Workload {
            world: WorldScale::Smoke,
            platform: PlatformScale::Smoke,
            n_urls: 8,
            total_days: 60,
            tests_per_pair: 24,
            pin_seed42: 0,
            ..self
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before it
    /// counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one.
///
/// The bounds on the three host-dependent metrics are the widest the
/// contract allows: the reference box is a shared two-core VM whose speed
/// drifts by 10–30% over minutes, which no estimator inside a 28 s run
/// can see past.
pub const END_TO_END: [Metric; 5] = [
    e2e("meas_per_s", "meas/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("delivered_frac", "ratio", Better::Higher, 0.05),
    e2e("digest_ok", "0/1", Better::Higher, 0.01),
];

/// The ledger: one layer each, taken in the traced run.
pub const PER_LAYER: [Metric; 86] = [
    lo("process.cpu_us_per_meas", "us"),
    lo("topology.generate_s", "s"),
    lo("topology.n_ases", "count"),
    lo("topology.n_links", "count"),
    lo("bgp.route_lookups", "count"),
    hi("bgp.cache_hits", "count"),
    lo("bgp.cache_misses", "count"),
    lo("bgp.cache_evictions", "count"),
    hi("bgp.cache_hit_ratio", "ratio"),
    lo("bgp.lookup_s", "s"),
    lo("bgp.tree_compute_us_p50", "us"),
    lo("bgp.tree_compute_us_p90", "us"),
    lo("bgp.failed_routes", "count"),
    lo("net.flows", "count"),
    lo("net.flow_s", "s"),
    lo("net.flow_us_per_meas", "us"),
    lo("net.packets_per_flow", "count"),
    lo("censor.armed_flows", "count"),
    lo("censor.armed_frac", "ratio"),
    lo("censor.busy_s", "s"),
    lo("platform.generate_s", "s"),
    hi("platform.meas_per_s_alone", "meas/s"),
    lo("platform.detect_s", "s"),
    lo("platform.schedule_s", "s"),
    lo("platform.self_s", "s"),
    lo("platform.collect_s", "s"),
    lo("core.convert_s", "s"),
    lo("core.churn_s", "s"),
    hi("core.converted", "count"),
    lo("core.discarded", "count"),
    hi("core.conversion_rate", "ratio"),
    hi("core.precision", "ratio"),
    hi("core.recall", "ratio"),
    hi("engine.meas_per_s_alone", "meas/s"),
    lo("engine.shard_busy_s", "s"),
    lo("engine.merge_busy_s", "s"),
    lo("engine.observations", "count"),
    lo("engine.updates", "count"),
    hi("engine.duplicates", "count"),
    hi("engine.duplicate_ratio", "ratio"),
    hi("engine.direct_updates", "count"),
    lo("engine.resolves", "count"),
    hi("engine.unsat_skips", "count"),
    lo("engine.intern_s", "s"),
    hi("engine.intern_hit_ratio", "ratio"),
    lo("engine.distinct_paths", "count"),
    lo("engine.observe_s", "s"),
    lo("engine.feeder_wait_s", "s"),
    lo("engine.report_ms", "ms"),
    lo("engine.snapshot_ms_p50", "ms"),
    lo("engine.snapshot_ms_p95", "ms"),
    lo("engine.finish_s", "s"),
    lo("engine.canonical_s", "s"),
    lo("engine.windows_retired", "count"),
    lo("engine.cells_retired", "count"),
    lo("engine.late_dropped", "count"),
    lo("engine.snapshot_total_s", "s"),
    lo("engine.checkpoint_ms", "ms"),
    lo("engine.restore_ms", "ms"),
    lo("engine.checkpoint_bytes", "bytes"),
    lo("sat.censuses", "count"),
    lo("sat.census_models", "count"),
    lo("sat.propagations", "count"),
    lo("sat.backtracks", "count"),
    lo("interop.records", "count"),
    lo("interop.bytes", "bytes"),
    lo("interop.parse_s", "s"),
    hi("interop.mb_per_s", "MB/s"),
    lo("interop.write_s", "s"),
    lo("interop.malformed", "count"),
    hi("trace.generator_closure", "ratio"),
    hi("trace.engine_closure", "ratio"),
    lo("trace.overhead_frac", "ratio"),
    lo("trace.pass_s", "s"),
    lo("trace.spans", "count"),
    lo("share.generator_busy", "ratio"),
    lo("share.shard_busy", "ratio"),
    lo("share.route_lookup", "ratio"),
    lo("share.flow_synthesis", "ratio"),
    lo("share.censor", "ratio"),
    lo("share.detect", "ratio"),
    lo("share.convert", "ratio"),
    lo("share.churn", "ratio"),
    lo("share.intern", "ratio"),
    lo("share.observe", "ratio"),
    lo("share.snapshot", "ratio"),
];

/// The closure band outside which a side of the ledger is printed as
/// `unresolved`: the outside view explains too little or too much.
pub const CLOSURE_BAND: (f64, f64) = (0.7, 1.1);

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{key}`"))
    }

    fn rows(doc: &Value, key: &str) -> Vec<Value> {
        field(doc, key).as_array().expect("a list").to_vec()
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(
                well_formed(name),
                "`{name}` does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{}` of `{}`",
                m.unit,
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of `{}`",
                w.name
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let doc = declared();
        let workloads = rows(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (d, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(d, "name").as_str(), Some(w.name));
            assert_eq!(field(d, "why").as_str(), Some(w.why));
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = rows(&doc, key);
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(field(d, "name").as_str(), Some(m.name), "{key}");
                assert_eq!(field(d, "unit").as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    field(d, "better").as_str(),
                    Some(m.better.label()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    d.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        assert_eq!(
            field(&doc, "paths").as_array().map(<[Value]>::len),
            Some(1),
            "one benchmark directory"
        );
    }

    #[test]
    fn bounds_fit_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is reported");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
