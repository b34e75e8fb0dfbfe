//! Engine-side observability: the handles shard workers and the merge
//! publish through.
//!
//! The engine itself stays obs-optional: constructed plainly it holds no
//! registry, takes no atomic ops, and emits nothing — that *stripped*
//! configuration is the baseline the bench's overhead gate compares
//! against. Constructed from a configuration carrying an [`EngineObs`]
//! ([`crate::EngineConfig::with_obs`]), each shard worker gets a
//! [`ShardObs`] of pre-registered handles:
//!
//! * `churnlab_measurements_total{shard}` — raw measurements routed in;
//! * `churnlab_observations_total{shard}` — conversions that survived
//!   the §3.1 elimination rules (one relaxed `fetch_add` per
//!   measurement — the only per-measurement instrumentation);
//! * `churnlab_phase_nanos_total{phase,shard}` — on-CPU time by phase:
//!   a block's four passes, lapped once each per block — `convert` (the
//!   §3.1 rules), `intern` (paths to ids), `churn` (the block's churn
//!   batch, window by window), `observe` (watermark, groups, retirement;
//!   it contains `resolve`) — then `resolve` per re-solve, `snapshot` per
//!   shard report, plus the merge thread's `phase="merge"` series. The
//!   four passes and `snapshot` sum to the shards' busy time, short of
//!   compaction, pruning and checkpoint encoding;
//! * `churnlab_snapshot_groups_total{result,shard}` — live (URL × window)
//!   groups a report served from their cached solved cells
//!   (`result="reused"`) or had to re-solve because an effective
//!   observation hit them since the last report (`result="rebuilt"`);
//! * `churnlab_snapshot_nanos` — wall time of each
//!   [`crate::Engine::snapshot`] on the calling thread, collecting the
//!   shards' reports and merging them: the read latency a caller sees;
//! * `churnlab_wire_blocks_total{source}` — blocks feeders drew for the
//!   feeder→shard wire: `source="pool"` recycled from the engine's pool
//!   of spent blocks, `source="fresh"` new (a feeder and a shard that
//!   keep pace stop drawing fresh ones after the first few);
//! * `churnlab_windows_open{shard}` — live (URL × window) groups;
//! * `churnlab_resolve_nanos{shard}` — re-solve latency distribution
//!   (wall-timed: re-solves are rare enough that an `Instant` pair per
//!   call is noise).
//!
//! The optional [`Journal`] records the run's narrative — window
//! opened/closed, cell solved, worker panic — precisely enough that the
//! event stream *reconciles* with the final report (see the
//! `journal_reconcile` integration test).

use churnlab_bgp::TimeWindow;
use churnlab_core::analyze::InstanceOutcome;
use churnlab_obs::{Counter, Gauge, Histogram, Journal, Registry};

/// Names/help shared by every series the engine registers, so the shard
/// workers and the merging thread agree on them.
const PHASE_NANOS: (&str, &str) = ("churnlab_phase_nanos_total", "on-CPU nanoseconds by phase");

const SNAPSHOT_GROUPS: (&str, &str) =
    ("churnlab_snapshot_groups_total", "live groups a shard report reused from cache or re-solved");

/// Observability context for one [`crate::Engine`]: a metrics registry
/// plus an optional event journal. Cheap to construct; the engine clones
/// per-shard handles out of it at spawn time.
pub struct EngineObs {
    registry: Registry,
    journal: Option<Journal>,
    /// The merging thread's `phase="merge"` series.
    pub(crate) phase_merge: Counter,
    /// Wall time of each whole `snapshot()` call.
    pub(crate) snapshot_nanos: Histogram,
    /// Wire blocks feeders took, `source="pool"` then `source="fresh"`.
    pub(crate) wire_blocks: (Counter, Counter),
}

impl std::fmt::Debug for EngineObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineObs").field("journal", &self.journal).finish_non_exhaustive()
    }
}

impl EngineObs {
    /// Observability over `registry`, with no journal.
    pub fn new(registry: Registry) -> Self {
        let phase_merge = registry.counter(PHASE_NANOS.0, PHASE_NANOS.1, &[("phase", "merge")]);
        let snapshot_nanos = registry.histogram(
            "churnlab_snapshot_nanos",
            "wall nanoseconds of each Engine::snapshot call, collect + merge",
            &[],
        );
        let wire_blocks = |source| {
            registry.counter(
                "churnlab_wire_blocks_total",
                "wire blocks taken by feeders: recycled from the engine's pool, or new",
                &[("source", source)],
            )
        };
        let wire_blocks = (wire_blocks("pool"), wire_blocks("fresh"));
        EngineObs { registry, journal: None, phase_merge, snapshot_nanos, wire_blocks }
    }

    /// Attach an event journal.
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The registry every engine series is registered in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event journal, if one is attached.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Record a worker panic: journal event plus a counter, so the
    /// metrics surface shows it even when no journal is attached.
    pub(crate) fn worker_panic(&self, shard: usize, message: &str) {
        self.registry
            .counter("churnlab_worker_panics_total", "shard workers lost to panics", &[])
            .inc();
        if let Some(j) = &self.journal {
            j.emit_tagged(
                "worker_panic",
                &[("shard", shard as u64)],
                &[("message", message)],
            );
        }
    }
}

/// Per-shard observation handles, cloned out of an [`EngineObs`] before
/// the worker thread spawns. Everything here is pre-registered: the hot
/// path never touches the registry lock.
#[derive(Debug)]
pub(crate) struct ShardObs {
    shard: u64,
    journal: Option<Journal>,
    pub(crate) measurements: Counter,
    pub(crate) observations: Counter,
    pub(crate) phase_convert: Counter,
    pub(crate) phase_intern: Counter,
    pub(crate) phase_churn: Counter,
    pub(crate) phase_observe: Counter,
    pub(crate) phase_snapshot: Counter,
    pub(crate) groups_reused: Counter,
    pub(crate) groups_rebuilt: Counter,
    pub(crate) windows_open: Gauge,
    pub(crate) resolve: ResolveObs,
}

impl ShardObs {
    /// Register shard `shard`'s series and clone out the handles.
    pub(crate) fn new(obs: &EngineObs, shard: usize) -> ShardObs {
        let reg = &obs.registry;
        let s = shard.to_string();
        let shard_label: &[(&str, &str)] = &[("shard", &s)];
        let phase =
            |phase| reg.counter(PHASE_NANOS.0, PHASE_NANOS.1, &[("phase", phase), ("shard", &s)]);
        ShardObs {
            shard: shard as u64,
            journal: obs.journal.clone(),
            measurements: reg.counter(
                "churnlab_measurements_total",
                "raw measurements ingested, per shard",
                shard_label,
            ),
            observations: reg.counter(
                "churnlab_observations_total",
                "converted observations folded into shard state",
                shard_label,
            ),
            phase_convert: phase("convert"),
            phase_intern: phase("intern"),
            phase_churn: phase("churn"),
            phase_observe: phase("observe"),
            phase_snapshot: phase("snapshot"),
            groups_reused: reg.counter(
                SNAPSHOT_GROUPS.0,
                SNAPSHOT_GROUPS.1,
                &[("result", "reused"), ("shard", &s)],
            ),
            groups_rebuilt: reg.counter(
                SNAPSHOT_GROUPS.0,
                SNAPSHOT_GROUPS.1,
                &[("result", "rebuilt"), ("shard", &s)],
            ),
            windows_open: reg.gauge(
                "churnlab_windows_open",
                "churn windows (URL x window groups) currently open",
                shard_label,
            ),
            resolve: ResolveObs {
                latency: reg.histogram(
                    "churnlab_resolve_nanos",
                    "incremental re-solve latency, nanoseconds",
                    shard_label,
                ),
                nanos: phase("resolve"),
            },
        }
    }

    /// A fresh (URL × window) group came into existence.
    pub(crate) fn window_opened(&self, url_id: u32, window: TimeWindow) {
        self.windows_open.add(1);
        if let Some(j) = &self.journal {
            j.emit_tagged(
                "window_opened",
                &[
                    ("shard", self.shard),
                    ("url_id", u64::from(url_id)),
                    ("window_index", u64::from(window.index)),
                ],
                &[("granularity", &format!("{:?}", window.granularity))],
            );
        }
    }

    /// A group reached the final report: its per-cell tallies are fixed.
    pub(crate) fn window_closed(
        &self,
        url_id: u32,
        window: TimeWindow,
        cells_reported: u64,
        cells_trivial: u64,
    ) {
        self.windows_open.add(-1);
        if let Some(j) = &self.journal {
            j.emit_tagged(
                "window_closed",
                &[
                    ("shard", self.shard),
                    ("url_id", u64::from(url_id)),
                    ("window_index", u64::from(window.index)),
                    ("cells_reported", cells_reported),
                    ("cells_trivial", cells_trivial),
                ],
                &[("granularity", &format!("{:?}", window.granularity))],
            );
        }
    }

    /// One analysed cell crossed into the final report.
    pub(crate) fn cell_solved(&self, outcome: &InstanceOutcome) {
        if let Some(j) = &self.journal {
            j.emit_tagged(
                "cell_solved",
                &[
                    ("shard", self.shard),
                    ("url_id", u64::from(outcome.key.url_id)),
                    ("window_index", u64::from(outcome.key.window.index)),
                    ("censors", outcome.censors.len() as u64),
                    ("potential_censors", outcome.potential_censors.len() as u64),
                ],
                &[
                    ("anomaly", &format!("{:?}", outcome.key.anomaly)),
                    ("solvability", &format!("{:?}", outcome.solvability)),
                ],
            );
        }
    }
}

/// Re-solve timing handles threaded into the worker's
/// [`crate::SolveScratch`], so `IncrementalInstance::resolve` can time
/// itself without knowing anything else about the shard.
#[derive(Debug, Clone)]
pub(crate) struct ResolveObs {
    pub(crate) latency: Histogram,
    pub(crate) nanos: Counter,
}
