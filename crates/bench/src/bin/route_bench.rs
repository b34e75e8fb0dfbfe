//! Internet-scale routing bench: scratch-reused CSR compute vs the
//! retained pre-CSR reference, cached query throughput, and the
//! zero-allocation steady-state proof, as one JSON document
//! (`BENCH_route.json`) so CI accumulates a perf trajectory next to
//! `BENCH_intern.json`.
//!
//! ```text
//! cargo run --release -p churnlab-bench --bin route_bench                       # small tier, JSON on stdout
//! cargo run --release -p churnlab-bench --bin route_bench -- --scale both --out BENCH_route.json
//! cargo run --release -p churnlab-bench --bin route_bench -- --min-speedup 2 --max-steady-allocs 0
//! cargo run --release -p churnlab-bench --bin route_bench -- --scale huge --min-reachability 0.95
//! ```
//!
//! Gates (exit 1 on failure, 2 on bad arguments):
//!
//! * `--min-speedup X` — the fast path must beat the reference by ≥ X×
//!   per tree on every tier that ran a reference pass. Both contenders
//!   run in this process, so the ratio is machine-relative and always
//!   armed (the `path_intern_bench` mould).
//! * `--max-steady-allocs N` — heap allocations during the timed
//!   steady-state pass must not exceed N (the design claim is 0).
//! * `--min-reachability R` — sampled (src, dst, epoch) queries must
//!   route at rate ≥ R on every tier (the Huge smoke floor is 0.95).
//!
//! Always on, gate or no gate: every sampled query's path through
//! `RoutingSim` must equal the path read off the full `compute_into`
//! tree for its (dest, epoch), or the run panics.
//!
//! The allocation count comes from a counting global allocator wrapped
//! around the system one; only this binary carries it, the library
//! crates all remain `forbid(unsafe_code)`.

use churnlab_bench::routebench::{run_tier, RouteBenchReport, RouteBenchRow};
use churnlab_topology::WorldScale;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator behind an allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic
// with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(Clone, Copy, PartialEq)]
enum ScaleArg {
    Small,
    Huge,
    Both,
}

struct Args {
    seed: u64,
    repeats: usize,
    scale: ScaleArg,
    trees: Option<usize>,
    queries: Option<usize>,
    min_speedup: Option<f64>,
    min_reachability: Option<f64>,
    max_steady_allocs: Option<u64>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        repeats: 3,
        scale: ScaleArg::Small,
        trees: None,
        queries: None,
        min_speedup: None,
        min_reachability: None,
        max_steady_allocs: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--repeats" => {
                let v = it.next().ok_or("--repeats needs a value")?;
                args.repeats = v.parse().map_err(|_| format!("bad repeat count `{v}`"))?;
            }
            "--scale" => {
                args.scale = match it.next().ok_or("--scale needs a value")?.as_str() {
                    "small" => ScaleArg::Small,
                    "huge" => ScaleArg::Huge,
                    "both" => ScaleArg::Both,
                    other => return Err(format!("bad scale `{other}` (small|huge|both)")),
                };
            }
            "--trees" => {
                let v = it.next().ok_or("--trees needs a value")?;
                args.trees = Some(v.parse().map_err(|_| format!("bad tree count `{v}`"))?);
            }
            "--queries" => {
                let v = it.next().ok_or("--queries needs a value")?;
                args.queries = Some(v.parse().map_err(|_| format!("bad query count `{v}`"))?);
            }
            "--min-speedup" => {
                let v = it.next().ok_or("--min-speedup needs a value")?;
                args.min_speedup =
                    Some(v.parse().map_err(|_| format!("bad speedup floor `{v}`"))?);
            }
            "--min-reachability" => {
                let v = it.next().ok_or("--min-reachability needs a value")?;
                args.min_reachability =
                    Some(v.parse().map_err(|_| format!("bad reachability floor `{v}`"))?);
            }
            "--max-steady-allocs" => {
                let v = it.next().ok_or("--max-steady-allocs needs a value")?;
                args.max_steady_allocs =
                    Some(v.parse().map_err(|_| format!("bad alloc ceiling `{v}`"))?);
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: route_bench [--seed N] [--repeats N] [--scale small|huge|both] \
                     [--trees N] [--queries N] [--min-speedup X] [--min-reachability R] \
                     [--max-steady-allocs N] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// Per-tier workload sizes: (scale, label, timed trees, reference trees,
/// path queries). Huge trees cost tens of milliseconds each, so its
/// counts are small; the Small ratio is what the speedup gate reads.
fn tiers(args: &Args) -> Vec<(WorldScale, &'static str, usize, usize, usize)> {
    let small = (
        WorldScale::Small,
        "small",
        args.trees.unwrap_or(60),
        args.trees.unwrap_or(60),
        args.queries.unwrap_or(2_000),
    );
    let huge = (
        WorldScale::Huge,
        "huge",
        args.trees.unwrap_or(8),
        args.trees.unwrap_or(8).min(4),
        args.queries.unwrap_or(1_000),
    );
    match args.scale {
        ScaleArg::Small => vec![small],
        ScaleArg::Huge => vec![huge],
        ScaleArg::Both => vec![small, huge],
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    let mut rows: Vec<RouteBenchRow> = Vec::new();
    let mut gate_failed = false;
    for (scale, label, trees, ref_trees, queries) in tiers(&args) {
        eprintln!("route_bench: assembling {label} world…");
        let (mut row, mut harness) =
            run_tier(label, scale, args.seed, trees, ref_trees, queries, args.repeats);

        // Steady-state allocation audit: everything is warm after
        // run_tier, so a fresh timed pass must not touch the allocator.
        let before = ALLOCS.load(Relaxed);
        let (_, _) = harness.fast_pass(trees);
        row.steady_state_allocs = ALLOCS.load(Relaxed) - before;

        eprintln!(
            "{:<6} {:>6} ASes {:>7} links  reference {:>7.1} trees/s  fast {:>8.1} trees/s  \
             speedup {:>5.2}x  {:>9.0} paths/s  hit {:>5.1}%  reach {:>5.1}%  tree {} KB  \
             steady allocs {}",
            row.scale,
            row.n_ases,
            row.n_links,
            row.reference_trees_per_sec,
            row.trees_per_sec,
            row.speedup,
            row.paths_per_sec,
            row.cache_hit_rate * 100.0,
            row.reachability * 100.0,
            row.peak_tree_bytes / 1024,
            row.steady_state_allocs,
        );

        if let Some(floor) = args.min_speedup {
            if row.speedup > 0.0 && row.speedup < floor {
                eprintln!(
                    "route_bench: FAIL — {label} speedup {:.2}x is below the {floor}x floor",
                    row.speedup
                );
                gate_failed = true;
            }
        }
        if let Some(floor) = args.min_reachability {
            if row.reachability < floor {
                eprintln!(
                    "route_bench: FAIL — {label} reachability {:.3} is below the {floor} floor",
                    row.reachability
                );
                gate_failed = true;
            }
        }
        if let Some(ceiling) = args.max_steady_allocs {
            if row.steady_state_allocs > ceiling {
                eprintln!(
                    "route_bench: FAIL — {label} steady-state pass performed {} allocations \
                     (ceiling {ceiling})",
                    row.steady_state_allocs
                );
                gate_failed = true;
            }
        }
        rows.push(row);
    }

    let report = RouteBenchReport { seed: args.seed, repeats: args.repeats, rows };
    let json = serde_json::to_string(&report).expect("report serializes");
    match &args.out {
        Some(path) => {
            std::fs::write(path, format!("{json}\n")).expect("write report");
            eprintln!("route_bench: wrote {path}");
        }
        None => println!("{json}"),
    }
    if gate_failed {
        std::process::exit(1);
    }
}
