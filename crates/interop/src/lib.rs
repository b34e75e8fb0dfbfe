//! # churnlab-interop
//!
//! Record-level interoperability for the tomography pipeline.
//!
//! The paper's "problem reformulation" contribution explicitly claims
//! portability: *"Our approach carries over to other measurement databases
//! such as those generated by the OONI and the M-Lab platforms."* This
//! crate makes that claim concrete for churnlab:
//!
//! * [`record`] — a self-contained, serializable measurement record
//!   ([`NativeRecord`]) mirroring the paper's §3.1 tuple: vantage AS, URL,
//!   per-anomaly verdicts, three traceroutes, and the test time.
//! * [`jsonl`] — streaming JSON-lines export/import with malformed-line
//!   accounting (external datasets are never clean).
//! * [`ooni`] — an OONI `web_connectivity`-flavoured schema and its lossy
//!   mapping onto churnlab anomaly types.
//! * [`prefix2as`] — the CAIDA Routeviews `prefix2as` text format for
//!   IP-to-AS databases (what the paper feeds its traceroute conversion).
//! * [`export`] — dump a full simulated study to JSONL in constant
//!   memory, with a [`StudyManifest`] sidecar naming the seed/scale.
//! * [`ingest`] — the replay bridge: stream a JSONL dump through multiple
//!   parallel feeder threads into the sharded
//!   [`churnlab_engine::Engine`], merging per-feeder [`ImportStats`] into
//!   a [`ReplayReport`]. The disk-to-report path: `replay_jsonl` at any
//!   feeder/shard count reproduces the direct in-memory run's
//!   `CanonicalReport` byte-for-byte.
//!
//! Records imported here are fed to
//! [`churnlab_engine::Engine::with_context`], which accepts any IP-to-AS
//! database and topology rather than a simulated platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod ingest;
pub mod jsonl;
pub mod ooni;
pub mod prefix2as;
pub mod record;

pub use export::{export_study, StudyManifest};
pub use ingest::{
    replay_jsonl, replay_jsonl_resumable, ReplayFormat, ReplayReport, ResumableReplay,
    ResumeReplayOptions,
};
pub use jsonl::{read_jsonl, read_ooni_jsonl, write_jsonl, ImportStats};
pub use ooni::OoniRecord;
pub use prefix2as::{parse_prefix2as, render_prefix2as, Prefix2AsStats};
pub use record::NativeRecord;
