//! # churnlab-core
//!
//! The paper's contribution: **localizing censorship via boolean network
//! tomography over path churn** (Cho et al., CoNExT 2017).
//!
//! The steps of §3, as this crate defines them:
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
//!    *measured* paths in one per-window store that every
//!    `churnlab-engine` shard, merge and checkpoint counts in.
//! 4. [`analyze`] — what solving yields: Unsat / Unique / Multiple
//!    classification, censors pinned by the backbone, potential-censor
//!    sets and candidate-set reduction (Figures 1, 2, 4).
//! 5. [`leakage`] — §3.3's censorship-leakage identification: upstream,
//!    False-assigned, foreign ASes on censored paths inherit the censor's
//!    policy (Tables 3, Figure 5).
//! 6. [`report`] — Table-2/3-style report rendering, and the canonical
//!    report every equivalence test compares.
//! 7. [`validate`] — ground-truth precision/recall (possible only because
//!    our substrate is simulated; the paper could not do this).
//! 8. [`pipeline`] — the configuration a localization runs under and the
//!    results it produces. The one localizer is `churnlab-engine`'s
//!    sharded, incremental engine; the repo's `churnlab-oracle` crate is
//!    an executable specification of these steps that tests hold the
//!    engine against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulate;
pub mod analyze;
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
pub use instance::InstanceKey;
pub use leakage::{CountryFlow, LeakageReport};
pub use obs::{ConvertedObs, PathId};
pub use pipeline::{CensorFinding, ChurnMode, PipelineConfig, PipelineResults};
pub use report::{CanonicalReport, CensorshipReport};
pub use validate::ValidationReport;
