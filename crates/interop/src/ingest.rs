//! The replay bridge: stream a JSONL measurement dump straight into the
//! sharded [`churnlab_engine::Engine`].
//!
//! This is the repo's disk-to-report path — the shape every real-data
//! backend (ICLab dumps, OONI exports joined with path measurements)
//! reuses: a reader thread pulls lines off any [`BufRead`] and deals
//! them, in batches, to `feeders` worker threads; each worker parses its
//! lines (so deserialization scales with the feeder count), keeps its own
//! [`ImportStats`], and ingests surviving measurements through its own
//! buffering [`churnlab_engine::Feeder`] handle. Line order across
//! feeders is irrelevant by construction: the engine is order-independent
//! (its `CanonicalReport` is proven byte-identical under shuffling), so a
//! replay at any feeder/shard count reproduces the direct in-memory run
//! exactly.
//!
//! All feeder handles are flushed (dropped) before [`replay_jsonl`]
//! returns, so a following [`churnlab_engine::Engine::snapshot`] or
//! `finish` sees every replayed record.

use crate::jsonl::{import_native_line, import_ooni_line, ImportStats};
use churnlab_engine::Engine;
use churnlab_obs::{Counter, Stopwatch};
use serde::{Deserialize, Serialize};
use std::io::BufRead;
use std::sync::mpsc::sync_channel;

/// Which record dialect the replayed lines are in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplayFormat {
    /// [`crate::record::NativeRecord`] lines (churnlab's own dumps).
    Native,
    /// [`crate::ooni::OoniRecord`] lines (OONI `web_connectivity` with a
    /// traceroute annotation).
    Ooni,
}

impl ReplayFormat {
    /// Parse from CLI text (`native` / `ooni`).
    pub fn parse(s: &str) -> Option<ReplayFormat> {
        match s {
            "native" => Some(ReplayFormat::Native),
            "ooni" => Some(ReplayFormat::Ooni),
            _ => None,
        }
    }

    /// The CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            ReplayFormat::Native => "native",
            ReplayFormat::Ooni => "ooni",
        }
    }

    fn import_line(&self, line: &str, stats: &mut ImportStats) -> Option<(churnlab_platform::Measurement, String)> {
        match self {
            ReplayFormat::Native => import_native_line(line, stats),
            ReplayFormat::Ooni => import_ooni_line(line, stats),
        }
    }
}

/// What a replay did: line counts plus the merged and per-feeder import
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Record dialect replayed.
    pub format: ReplayFormat,
    /// Feeder threads used.
    pub feeders: usize,
    /// Total lines read (including blank and malformed ones).
    pub lines: u64,
    /// Merged import accounting (`stats.ok` measurements reached the
    /// engine).
    pub stats: ImportStats,
    /// Per-feeder accounting, in feeder index order (their sum is
    /// `stats`; the split shows how evenly the deal spread the work).
    pub per_feeder: Vec<ImportStats>,
}

/// Lines dealt to a feeder per channel send; big enough to amortize the
/// channel synchronization, small enough to keep all feeders busy at the
/// tail of a file.
const DEAL_BATCH: usize = 256;

/// Per-feeder metric handles and the stopwatch that laps them, built
/// (cold path) on the feeder thread before it starts chewing lines — a
/// stopwatch is bound to the thread that made it, and one per thread
/// means one clock probe per feeder. Present only when the engine was
/// built with an [`churnlab_engine::EngineObs`]; the stripped replay path
/// takes no atomic ops.
struct FeederObs {
    /// `churnlab_phase_nanos_total{phase="feeder_parse",feeder=i}` — the
    /// feeder's on-CPU parse/deserialize time, accumulated per dealt
    /// batch (two clock reads per [`DEAL_BATCH`] lines).
    parse_nanos: Counter,
    /// `churnlab_feeder_records_total{feeder=i}` — lines this feeder
    /// processed, showing how evenly the deal spread the work.
    records: Counter,
    sw: Stopwatch,
}

impl FeederObs {
    fn new(engine: &Engine<'_>, feeder: usize) -> Option<FeederObs> {
        let obs = engine.obs()?;
        let reg = obs.registry();
        let f = feeder.to_string();
        Some(FeederObs {
            parse_nanos: reg.counter(
                "churnlab_phase_nanos_total",
                "on-CPU nanoseconds by phase",
                &[("phase", "feeder_parse"), ("feeder", &f)],
            ),
            records: reg.counter(
                "churnlab_feeder_records_total",
                "replay lines processed, per feeder thread",
                &[("feeder", &f)],
            ),
            sw: Stopwatch::new(),
        })
    }
}

/// Replay a JSONL dump into an engine through `feeders` parallel feeder
/// threads. Blank/malformed/unconvertible lines are counted per the
/// lossy-import policy, never fed. I/O errors abort (after the feeders
/// drain what was already dealt). The engine is left running — call
/// [`churnlab_engine::Engine::finish`] (or `snapshot`) afterwards for the
/// report.
pub fn replay_jsonl<R: BufRead>(
    r: R,
    engine: &Engine<'_>,
    feeders: usize,
    format: ReplayFormat,
) -> std::io::Result<ReplayReport> {
    let n = feeders.max(1);
    let mut it = r.lines();
    let (lines, per_feeder, _eof) = deal_lines(&mut it, engine, n, format, u64::MAX)?;
    let mut stats = ImportStats::default();
    for s in &per_feeder {
        stats.merge(*s);
    }
    Ok(ReplayReport { format, feeders: n, lines, stats, per_feeder })
}

/// Deal up to `cap` lines from `it` to `n` scoped feeder threads and
/// block until every feeder has parsed, ingested, and **flushed** its
/// share — on return the engine's queues hold everything dealt, so a
/// following `Engine::checkpoint` (which drains per-shard queues) cuts
/// exactly at the line boundary. Returns `(lines_read, per_feeder
/// stats, reached_eof)`.
fn deal_lines<I: Iterator<Item = std::io::Result<String>>>(
    it: &mut I,
    engine: &Engine<'_>,
    n: usize,
    format: ReplayFormat,
    cap: u64,
) -> std::io::Result<(u64, Vec<ImportStats>, bool)> {
    let mut lines = 0u64;
    let mut eof = false;
    let mut io_err: Option<std::io::Error> = None;
    let mut per_feeder: Vec<ImportStats> = Vec::with_capacity(n);

    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = sync_channel::<Vec<String>>(4);
            senders.push(tx);
            handles.push(scope.spawn(move || {
                let mut stats = ImportStats::default();
                let mut feeder = engine.feeder();
                let mut obs = FeederObs::new(engine, i);
                while let Ok(batch) = rx.recv() {
                    if let Some(o) = &mut obs {
                        o.sw.restart();
                    }
                    for line in &batch {
                        if let Some((m, _domain)) = format.import_line(line, &mut stats) {
                            feeder.ingest_owned(m);
                        }
                    }
                    if let Some(o) = &mut obs {
                        o.sw.lap(&o.parse_nanos);
                        o.records.add(batch.len() as u64);
                    }
                }
                stats
                // `feeder` drops here: its buffered tail is flushed before
                // the scope (and thus `replay_jsonl`) returns.
            }));
        }

        let mut next = 0usize;
        let mut batch = Vec::with_capacity(DEAL_BATCH);
        while lines < cap {
            match it.next() {
                Some(Ok(l)) => {
                    lines += 1;
                    batch.push(l);
                    if batch.len() == DEAL_BATCH {
                        let full = std::mem::replace(&mut batch, Vec::with_capacity(DEAL_BATCH));
                        senders[next].send(full).expect("feeder thread alive");
                        next = (next + 1) % n;
                    }
                }
                Some(Err(e)) => {
                    io_err = Some(e);
                    break;
                }
                None => {
                    eof = true;
                    break;
                }
            }
        }
        if !batch.is_empty() {
            senders[next].send(batch).expect("feeder thread alive");
        }
        drop(senders); // feeders exit their recv loops
        for h in handles {
            per_feeder.push(h.join().expect("feeder thread panicked"));
        }
    });

    if let Some(e) = io_err {
        return Err(e);
    }
    Ok((lines, per_feeder, eof))
}

/// Resume/checkpoint controls for [`replay_jsonl_resumable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ResumeReplayOptions {
    /// Input lines already ingested by a previous run (the restored
    /// checkpoint's cursor): skipped without parsing, counted into the
    /// report's `lines` so accounting stays whole-stream.
    pub skip_lines: u64,
    /// Import accounting for the skipped prefix (the restored
    /// checkpoint's user blob), folded into the report's merged stats.
    pub prior: ImportStats,
    /// Checkpoint after every this many ingested lines; `None` never
    /// checkpoints (plain replay with resume-skip semantics).
    pub checkpoint_every: Option<u64>,
    /// Stop (leaving the engine un-finished) after writing this many
    /// checkpoints — the crash-injection hook the resume round-trip CI
    /// lane kills the "process" with.
    pub halt_after_checkpoints: Option<u64>,
}

/// What a resumable replay did.
#[derive(Debug)]
pub struct ResumableReplay {
    /// Line/import accounting; `lines` and `stats` cover the **whole**
    /// stream including any resumed prefix, while `per_feeder` covers
    /// only this run's work.
    pub report: ReplayReport,
    /// Checkpoints written via the callback.
    pub checkpoints: u64,
    /// True when the run stopped early at `halt_after_checkpoints` —
    /// the engine then holds a partial stream and must not be finished
    /// into a report.
    pub halted: bool,
}

/// [`replay_jsonl`] with a resume cursor and periodic checkpoint cuts.
///
/// The stream is ingested in chunks of `checkpoint_every` lines; between
/// chunks every feeder has flushed (the chunk's scoped threads joined),
/// so `on_checkpoint(cursor, stats)` runs at a quiesced line boundary:
/// exactly `cursor` input lines are in the engine, with `stats` the
/// import accounting over them. The callback owns the actual
/// `Engine::checkpoint` call and file handling. No checkpoint fires at
/// end-of-stream — an uninterrupted finish needs none.
///
/// With a finite retirement horizon, digest-identical resume requires
/// `feeders == 1` (retirement is watermark-ordered, and multi-feeder
/// parse order is nondeterministic); without a horizon any feeder count
/// reproduces the uninterrupted digest.
pub fn replay_jsonl_resumable<R: BufRead>(
    r: R,
    engine: &Engine<'_>,
    feeders: usize,
    format: ReplayFormat,
    opts: &ResumeReplayOptions,
    mut on_checkpoint: impl FnMut(u64, ImportStats) -> std::io::Result<()>,
) -> std::io::Result<ResumableReplay> {
    let n = feeders.max(1);
    let mut it = r.lines();
    for skipped in 0..opts.skip_lines {
        match it.next() {
            Some(Ok(_)) => {}
            Some(Err(e)) => return Err(e),
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "resume cursor {} is beyond the input ({} lines) — wrong dump for \
                         this checkpoint?",
                        opts.skip_lines, skipped
                    ),
                ))
            }
        }
    }

    let mut lines = opts.skip_lines;
    let mut stats = opts.prior;
    let mut per_feeder: Vec<ImportStats> = vec![ImportStats::default(); n];
    let chunk = opts.checkpoint_every.unwrap_or(u64::MAX).max(1);
    let mut checkpoints = 0u64;
    let mut halted = false;
    loop {
        let (read, chunk_stats, eof) = deal_lines(&mut it, engine, n, format, chunk)?;
        lines += read;
        for (total, s) in per_feeder.iter_mut().zip(&chunk_stats) {
            stats.merge(*s);
            total.merge(*s);
        }
        if eof {
            break;
        }
        if opts.checkpoint_every.is_some() {
            on_checkpoint(lines, stats)?;
            checkpoints += 1;
            if opts.halt_after_checkpoints.is_some_and(|h| checkpoints >= h) {
                halted = true;
                break;
            }
        }
    }
    Ok(ResumableReplay {
        report: ReplayReport { format, feeders: n, lines, stats, per_feeder },
        checkpoints,
        halted,
    })
}
