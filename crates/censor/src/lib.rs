//! # churnlab-censor
//!
//! The censorship engine: who censors, what, when, and with which packet
//! mechanics.
//!
//! The paper localizes ASes that *introduce censorship anomalies*; to
//! reproduce it we need ASes that actually introduce them, at the packet
//! level, so the platform's detectors work from evidence rather than
//! ground truth:
//!
//! * [`urlcat`] — a McAfee-style URL category taxonomy (the paper uses the
//!   McAfee URL categorization database to characterise what censors
//!   block: Online Shopping and Classifieds top the list, with several
//!   European ASes exclusively censoring ad vendors).
//! * [`mechanism`] — the four implemented censorship mechanisms and their
//!   per-censor fingerprint profiles (initial TTL, sequence-number fuzz,
//!   TTL mimicry).
//! * [`blockpage`] — a corpus of blockpage templates with distinctive
//!   signatures (the OONI-fingerprints analogue the detector matches
//!   against).
//! * [`policy`] — per-AS censorship policies with *schedules*: policies
//!   turn on/off or change targets mid-year, which is precisely what makes
//!   coarse-granularity CNFs unsolvable in the paper (§3.2).
//! * [`engine`] — [`engine::ActiveCensor`], an
//!   [`churnlab_net::OnPathObserver`] that parses forward packets off the
//!   wire (DNS qnames, HTTP Host headers) and injects forged responses
//!   with the mechanics real injectors use (sequence numbers derived from
//!   the client's ACK field, TTLs betraying the injector's position).
//! * [`scenario`] — seeded generation of a world-wide censorship layout
//!   (heavy / medium / light / ad-blocking countries) with ground truth
//!   for validation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockpage;
pub mod engine;
pub mod mechanism;
pub mod policy;
pub mod scenario;
pub mod urlcat;

pub use blockpage::BlockpageTemplate;
pub use engine::{ActiveCensor, FlowNames, TestContext};
pub use mechanism::{Mechanism, MechanismProfile};
pub use policy::{CensorPolicy, CompiledCensor, PolicyPhase};
pub use scenario::{CensorConfig, CensorshipScenario};
pub use urlcat::UrlCategory;
