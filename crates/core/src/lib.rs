//! # churnlab-core
//!
//! The paper's contribution: **localizing censorship via boolean network
//! tomography over path churn** (Cho et al., CoNExT 2017).
//!
//! Pipeline (§3):
//!
//! 1. [`convert`] — IP-level traceroutes → AS-level paths via the
//!    (possibly stale) IP-to-AS database, discarding inconclusive tests
//!    under the paper's four elimination rules.
//! 2. [`instance`] — clause formulation: each AS-level path becomes a
//!    boolean clause over per-AS literals, True if the measurement
//!    observed the anomaly, False otherwise; one CNF per
//!    (URL × time-window × anomaly-type).
//! 3. [`churnstats`] — distinct-path accounting per (vantage,
//!    destination) pair and window (Figure 3), computed from the
//!    *measured* paths in one per-window store: the batch pipeline here
//!    and every `churnlab-engine` shard, merge and checkpoint count in it.
//! 4. [`analyze`] — solving and solution analysis: Unsat / Unique /
//!    Multiple classification, censor extraction from unique models,
//!    potential-censor sets and candidate-set reduction from backbones
//!    (Figures 1, 2, 4).
//! 5. [`leakage`] — §3.3's censorship-leakage identification: upstream,
//!    False-assigned, foreign ASes on censored paths inherit the censor's
//!    policy (Tables 3, Figure 5).
//! 6. [`report`] — Table-2/3-style report rendering.
//! 7. [`validate`] — ground-truth precision/recall (possible only because
//!    our substrate is simulated; the paper could not do this).
//! 8. [`pipeline`] — the streaming orchestrator gluing 1–7 together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulate;
pub mod analyze;
pub mod batch;
pub mod churnstats;
pub mod convert;
pub mod instance;
pub mod leakage;
pub mod obs;
pub mod pipeline;
pub mod report;
pub mod validate;

pub use accumulate::FindingsAccumulator;
pub use analyze::{InstanceOutcome, SolveConfig};
pub use churnstats::{
    BatchOrder, ChurnAccumulator, ChurnImport, ChurnImportError, ChurnObs, ChurnTally,
    ChurnWindowEntry, RetiredChurn,
};
pub use convert::{
    convert_into, convert_measurement, convert_traceroutes, ConversionStats, ConvertScratch,
    DiscardReason,
};
pub use instance::{InstanceBuilder, InstanceKey, TomographyInstance};
pub use leakage::{CountryFlow, LeakageReport};
pub use obs::{ConvertedObs, PathId};
pub use pipeline::{CensorFinding, ChurnMode, Pipeline, PipelineConfig, PipelineResults};
pub use report::{CanonicalReport, CensorshipReport};
pub use validate::ValidationReport;
