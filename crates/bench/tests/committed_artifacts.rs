//! The committed records, and what the repo says about them:
//!
//! * every committed JSON record — the `BENCH_*.json` gate baselines at the
//!   repo root and each line of `benchmark/results/*.jsonl` — is exactly
//!   the text the serializer writes for the value it parses to. That pins
//!   the writer's bytes (number formatting, escapes, key order) to files
//!   written by earlier builds;
//! * `README.md`'s *Committed numbers* section is exactly what [`render`]
//!   makes of the `BENCH_*.json` records, each parsed through the report
//!   type `bench` writes it with, and the rest of the README quotes no
//!   throughput or speedup figure of its own. On a mismatch the test
//!   prints the section as it should read;
//! * no production item sits below a source file's first top-level
//!   `#[cfg(test)]`, the line the non-test line count stops at.

use churnlab_bench::longhaul::LonghaulReport;
use churnlab_bench::routebench::RouteBenchReport;
use churnlab_topology::hash::fnv1a;
use serde_json::Value;
use std::fmt::Write;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(file: &Path) -> String {
    std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()))
}

fn files_in(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(&keep))
        .collect();
    files.sort();
    files
}

/// The records that must exist; a deleted one fails by name.
const RECORDS: [&str; 5] = [
    "BENCH_longhaul.json",
    "BENCH_route.json",
    "benchmark/results/reference.jsonl",
    "benchmark/results/set-a.jsonl",
    "benchmark/results/set-b.jsonl",
];

#[test]
fn committed_json_rewrites_byte_identically() {
    let root = root();
    let mut files = files_in(&root, |n| n.starts_with("BENCH_") && n.ends_with(".json"));
    files.extend(files_in(&root.join("benchmark/results"), |n| n.ends_with(".jsonl")));
    for record in RECORDS {
        assert!(files.contains(&root.join(record)), "the committed record {record} is missing");
    }
    for file in &files {
        let text = read(file);
        for (i, line) in text.lines().enumerate() {
            let value: Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("{}:{}: {e}", file.display(), i + 1));
            assert_eq!(
                serde_json::to_string(&value).unwrap(),
                line,
                "{}:{} does not re-serialize to itself",
                file.display(),
                i + 1
            );
        }
    }
}

const BEGIN: &str = "<!-- committed numbers: begin. Rendered from the BENCH_*.json records by \
                     crates/bench/tests/committed_artifacts.rs; change the records, not this. -->";
const END: &str = "<!-- committed numbers: end -->";

fn parse<T: serde::Deserialize>(root: &Path, name: &str) -> T {
    serde_json::from_str(&read(&root.join(name))).unwrap_or_else(|e| panic!("parse {name}: {e}"))
}

/// A record named with the command that writes it and a digest of its
/// bytes, so the section goes stale with any edit to the record.
fn source(root: &Path, name: &str, writer: &str) -> String {
    let digest = fnv1a(read(&root.join(name)).into_bytes());
    format!("`{name}` (`{writer}`, FNV-1a `{digest:016x}`)")
}

/// A whole number with thousands separators: `1261440.4` → `1,261,440`.
fn count(x: f64) -> String {
    let digits = format!("{x:.0}");
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// `x` to `places` decimals.
fn fixed(x: f64, places: usize) -> String {
    format!("{x:.places$}")
}

fn times(x: f64) -> String {
    format!("{x:.2}×")
}

fn mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
}

/// A Markdown table and the blank line after it.
fn table(out: &mut String, head: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    writeln!(out, "| {} |", head.join(" | ")).unwrap();
    writeln!(out, "|{}", "---|".repeat(head.len())).unwrap();
    for row in rows {
        writeln!(out, "| {} |", row.join(" | ")).unwrap();
    }
    out.push('\n');
}

/// The README's *Committed numbers* section, markers included.
fn render(root: &Path) -> String {
    let mut s = String::new();
    writeln!(s, "{BEGIN}\n## Committed numbers\n").unwrap();
    s.push_str(
        "Every measured figure this README cites, as the committed records hold it. \
         `cargo test -p churnlab-bench --test committed_artifacts` fails when this \
         section and the records differ, and prints the section to paste. Each record \
         is named with the command that writes it and a digest of its bytes. The records \
         are gate baselines; end-to-end throughput lives in `benchmark/`.\n\n",
    );

    let route: RouteBenchReport = parse(root, "BENCH_route.json");
    let src = source(root, "BENCH_route.json", "bench route");
    writeln!(
        s,
        "**Routing.** {src}: path lookups through one `Routes` set, cleared between \
         (dst, epoch) runs, and off full route trees, seed {}, best of {}:\n",
        route.seed, route.repeats
    )
    .unwrap();
    let rows = route.rows.iter().map(|r| {
        vec![
            r.scale.clone(),
            count(r.n_ases as f64),
            count(r.n_links as f64),
            count(r.paths_per_sec),
            count(r.full_tree_paths_per_sec),
            times(r.speedup),
            fixed(r.cache_hit_rate, 3),
            fixed(r.reachability, 4),
            count(r.peak_tree_bytes as f64),
            count(r.steady_state_allocs as f64),
        ]
    });
    let head = [
        "tier",
        "ASes",
        "links",
        "cached paths/s",
        "full-tree paths/s",
        "speedup",
        "cache hit rate",
        "reachability",
        "largest cached tree bytes",
        "steady-state allocations",
    ];
    table(&mut s, &head, rows);
    s.push_str("Churn timelines (*What a timeline costs*):\n\n");
    let rows = route.timelines.iter().map(|t| {
        vec![
            t.scale.clone(),
            t.days.to_string(),
            count(t.link_events as f64),
            count(t.te_events as f64),
            fixed(t.timeline_build_ms, 3),
            fixed(t.timeline_mb, 3),
        ]
    });
    table(&mut s, &["tier", "days", "link events", "TE events", "build ms", "held MB"], rows);

    let l: LonghaulReport = parse(root, "BENCH_longhaul.json");
    writeln!(
        s,
        "**Long haul.** {}: the `{}` study (seed {}) looped {} times: {} measurements, {} days, a \
         {}-day horizon, {} shards, {} meas/s. {} windows and {} cells retired, {} outcomes \
         drained, {} RSS samples.",
        source(root, "BENCH_longhaul.json", "bench longhaul"),
        l.scale,
        l.seed,
        count(l.loops as f64),
        count(l.measurements as f64),
        count(l.total_days as f64),
        l.horizon,
        l.shards,
        count(l.meas_per_sec),
        count(l.windows_retired as f64),
        count(l.cells_retired as f64),
        count(l.outcomes_drained as f64),
        count(l.rss_samples.len() as f64)
    )
    .unwrap();
    if let Some(p) = l.plateau {
        writeln!(
            s,
            "Past {} warmup samples, RSS peaks at {} in the first quartile and {} in the last \
             (growth {}); {} over the whole run.",
            count(p.warmup_samples as f64),
            mib(p.early_max_bytes),
            mib(p.late_max_bytes),
            fixed(p.growth_ratio, 4),
            mib(p.peak_bytes)
        )
        .unwrap();
    }
    s.push('\n');
    s.push_str(END);
    s
}

/// The hand-written figure on `line`, if any: a number right before
/// `meas/s`, or a speedup — a digit directly before `×`, or before an `x`
/// that ends a word (so `0x1f` is not one).
fn hand_written_figure(line: &str) -> Option<String> {
    for (at, _) in line.match_indices("meas/s") {
        let word = line[..at].split_whitespace().next_back().unwrap_or("");
        if word.contains(|c: char| c.is_ascii_digit()) {
            return Some(format!("{word} meas/s"));
        }
    }
    let chars: Vec<char> = line.chars().collect();
    for (i, pair) in chars.windows(2).enumerate() {
        let ends_word = chars.get(i + 2).is_none_or(|c| !c.is_alphanumeric());
        if pair[0].is_ascii_digit() && (pair[1] == '×' || (pair[1] == 'x' && ends_word)) {
            return Some(chars[i.saturating_sub(6)..i + 2].iter().collect());
        }
    }
    None
}

#[test]
fn readme_numbers_are_the_committed_records() {
    let root = root();
    let readme = read(&root.join("README.md"));
    let expected = render(&root);
    let begin = readme.find(BEGIN);
    let end = begin.and_then(|b| readme[b..].find(END).map(|e| b + e + END.len()));
    let (Some(begin), Some(end)) = (begin, end) else {
        panic!("README.md has no committed-numbers section; put this in it:\n\n{expected}\n");
    };
    assert!(
        readme[begin..end] == expected,
        "README.md's committed-numbers section is not what the records say; replace it with:\n\n{expected}\n"
    );
    let outside = format!("{}{}", &readme[..begin], &readme[end..]);
    let figures: Vec<String> = outside
        .lines()
        .filter_map(|line| hand_written_figure(line).map(|f| format!("`{f}` in: {line}")))
        .collect();
    assert!(
        figures.is_empty(),
        "README.md quotes figures outside its committed-numbers section:\n{}",
        figures.join("\n")
    );
}

#[test]
fn the_figure_check_catches_throughput_and_speedups() {
    for line in ["engine/1 runs 280k meas/s", "a 3.7× speedup", "≥2x trees/s", "took it 4x"] {
        assert!(hand_written_figure(line).is_some(), "{line}");
    }
    for line in ["prints records/s + meas/s", "(URL × window)", "digest 0x1f", "`bench route` --min-speedup 2"] {
        assert_eq!(hand_written_figure(line), None, "{line}");
    }
}

const ITEM_KEYWORDS: [&str; 16] = [
    "pub", "fn", "mod", "use", "impl", "struct", "enum", "union", "const", "static", "type", "trait",
    "macro_rules!", "extern", "unsafe", "async",
];

/// The non-test line count (CI's "Non-test line counts" step) counts
/// the lines of `crates/*/src/*.rs` and of the spec crate's
/// `oracle/src/*.rs` above each file's first top-level `#[cfg(test)]`. Production code below that line goes uncounted, so
/// every top-level item there must itself be `#[cfg(test)]`-gated.
#[test]
fn no_production_item_below_the_test_boundary() {
    let mut stray = Vec::new();
    let mut krates = files_in(&root().join("crates"), |_| true);
    krates.push(root().join("oracle"));
    for krate in krates {
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        for file in files_in(&src, |n| n.ends_with(".rs")) {
            let text = read(&file);
            let lines: Vec<&str> = text.lines().collect();
            let Some(boundary) = lines.iter().position(|l| l.starts_with("#[cfg(test)]")) else { continue };
            for (i, line) in lines.iter().enumerate().skip(boundary) {
                // A top-level item starts in column 0 with its keyword
                // (text in a multi-line string literal may start there
                // too); its attributes and doc comments sit right above.
                if !ITEM_KEYWORDS.contains(&line.split([' ', '(', '<']).next().unwrap_or("")) {
                    continue;
                }
                let gated = lines[..i]
                    .iter()
                    .rev()
                    .take_while(|l| l.starts_with("#[") || l.starts_with("//"))
                    .any(|l| l.starts_with("#[cfg(test)]"));
                if !gated {
                    stray.push(format!("{}:{}: {line}", file.display(), i + 1));
                }
            }
        }
    }
    assert!(stray.is_empty(), "production items below a file's first top-level #[cfg(test)]:\n{}", stray.join("\n"));
}
