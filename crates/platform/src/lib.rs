//! # churnlab-platform
//!
//! The measurement platform: churnlab's stand-in for ICLab (§2.1).
//!
//! ICLab repeatedly runs censorship tests between ~1K vantage points (539
//! ASes) and web servers hosting 774 regionally sensitive URLs, recording
//! for each test: DNS lookups through two resolvers, an HTTP GET with full
//! packet capture, blockpage matching, and three traceroutes. This crate
//! reproduces that pipeline over the simulated Internet:
//!
//! * [`urls`] — the URL corpus: 774 synthetic sensitive URLs with
//!   McAfee-style categories, hosted in content/enterprise ASes.
//! * [`vantage`] — vantage-point placement: VPN vantage points in content
//!   ASes (as ICLab's mostly are) plus a handful of residential
//!   (Raspberry-Pi-style) nodes in access networks.
//! * [`anomaly`] — the five anomaly types of Table 1 (DNS, SEQNO, TTL,
//!   RESET, Blockpage).
//! * [`detect`] — the detectors. They consume *packet captures only*:
//!   duplicate DNS responses inside the 2-second window, TTL disagreement
//!   with the SYNACK, overlapping/gapped sequence ranges, spurious RSTs,
//!   and blockpage fingerprint/length matching (Jones et al. style, with
//!   a censor-free US control body).
//! * [`fingerprint`] — the blockpage fingerprint list compiled into a
//!   one-pass multi-pattern scan over raw payload bytes.
//! * [`noise`] — measurement imperfection: detector false
//!   positives/negatives, organic server RSTs (the paper's explanation for
//!   unsolvable RST CNFs), organic loss/retransmission, traceroute
//!   failures, IP-to-AS staleness.
//! * [`measurement`] — the per-test record (§3.1's tuple: vantage AS, URL,
//!   anomaly verdicts, three traceroutes, time).
//! * [`runner`] — the scheduler + executor producing a year of
//!   measurements, streamed to a sink to keep paper-scale runs in memory
//!   bounds.
//! * [`stats`] — Table-1-style dataset statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod detect;
pub mod fingerprint;
pub mod measurement;
pub mod noise;
mod obs;
pub mod runner;
pub mod schedule;
pub mod stats;
pub mod urls;
pub mod vantage;

pub use anomaly::{AnomalySet, AnomalyType};
pub use fingerprint::FingerprintSet;
// A [`TracerouteRecord`] field's type: re-exported so a consumer of
// measurements can name it without depending on `churnlab-net`.
pub use churnlab_net::TracerouteError;
pub use measurement::{Measurement, TracerouteRecord};
pub use noise::NoiseConfig;
pub use runner::{CampaignBusy, ParallelRun, Platform, PlatformConfig, PlatformScale};
pub use schedule::{FleetSchedule, UrlFleetPlan};
pub use stats::DatasetStats;
pub use urls::{UrlCorpus, UrlEntry};
pub use vantage::VantagePoint;
