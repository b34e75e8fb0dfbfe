//! `churnlab-obs` — hand-rolled observability for the streaming engine.
//!
//! Everything upstream of a report used to be invisible: the engine's
//! work counters surfaced only at `finish`, and the on-CPU accounting
//! lived as a private helper inside the shard worker. This crate turns
//! both into a first-class, dependency-free layer the whole workspace
//! shares:
//!
//! * [`metrics`] — a [`Registry`] of named counters,
//!   gauges, and log2-bucketed histograms. The observe path is built for
//!   the per-measurement hot loop: a counter increment is a single
//!   relaxed `fetch_add` on a cache-padded per-thread slot (no locks, no
//!   hashing — slots are aggregated only at scrape time).
//! * [`cpu`] — the per-thread on-CPU clock
//!   (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, then
//!   `/proc/thread-self/schedstat`), hoisted out of `churnlab-engine`'s
//!   shard worker, with the parse unit-tested and a process-wide test
//!   override forcing the wall-clock fallback.
//! * [`span`] — the chained phase timer ([`Stopwatch`]) attributing
//!   on-CPU nanoseconds to named phases (convert, intern, snapshot,
//!   feeder-parse), and the [`BusyTimer`] busy-accounting abstraction the
//!   engine's scaling-efficiency model runs on.
//! * [`snapshot`] — a serializable point-in-time [`Snapshot`] of every
//!   registered series, with [`delta`](Snapshot::delta)/rate computation
//!   between scrapes.
//! * [`prom`] — Prometheus text-format exposition over a snapshot
//!   (stable names, sorted series — golden-tested).
//! * [`journal`] — a JSONL event journal (window opened/closed, cell
//!   solved, worker panic, gate armed/skipped) that parses back into
//!   [`JournalEvent`]s, so a run's event stream
//!   can be reconciled against its final report.
//!
//! No external crates beyond the workspace `serde` shim; every
//! primitive is `std` atomics and `std::sync::Mutex` on cold paths only.

pub mod cpu;
pub mod journal;
pub mod metrics;
pub mod prom;
pub mod rss;
pub mod snapshot;
pub mod span;

pub use cpu::{force_wall_clock_for_tests, parse_schedstat, thread_cpu_nanos, CpuClock};
pub use rss::rss_bytes;
pub use journal::{parse_jsonl, Journal, JournalEvent, MemorySink};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use prom::render_prometheus;
pub use snapshot::{HistogramSample, Sample, SampleValue, Snapshot};
pub use span::{BusyTimer, Stopwatch};
