//! `bench` — the one harness binary. Every subcommand, its flag table and
//! its gates live in the `churnlab_bench` library (`bench --help` lists
//! them); this file only adds what a library that forbids `unsafe` cannot
//! hold: the counting global allocator behind `bench route`'s
//! zero-allocation steady-state proof.

use churnlab_bench::routebench::{ALLOCS, COUNTING};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;

/// The system allocator behind a counter that counts only while
/// `bench route` has [`COUNTING`] set: otherwise an allocation costs one
/// relaxed load of a flag nobody writes, so the shard workers of
/// `bench engine --assert-scaling` never contend on the counter's cache
/// line.
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the flag and the counter are
// relaxed atomics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: as for `dealloc`; the caller upholds the size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    churnlab_bench::cli::main(&argv)
}

#[cfg(test)]
mod tests {
    use churnlab_bench::routebench::counting_allocs;
    use churnlab_bench::Bench;
    use churnlab_platform::Platform;
    use churnlab_topology::WorldScale;

    /// What a measurement owns, counted by this binary's allocator: a
    /// routed test's record is one heap block — cloning it is one
    /// allocation — and a test with no route owns none. The only test in
    /// this binary, since the counter sees every thread's allocations.
    #[test]
    fn a_measurement_is_one_allocation() {
        let bench = Bench::assemble(WorldScale::Smoke, 42);
        let platform = Platform::new(&bench.world, &bench.scenario, bench.platform_cfg.clone());
        let mut ms = Vec::new();
        platform.run(&bench.sim(), |m| ms.push(m));
        let no_route = ms.iter().filter(|m| m.failed).count();
        let tests = ms.len();
        assert!(no_route > 0 && no_route < tests, "{no_route} of {tests} tests had no route");
        for m in &ms {
            let (copy, allocs) = counting_allocs(|| m.clone());
            assert_eq!(copy, *m);
            assert_eq!(allocs, u64::from(!m.failed), "{m:?}");
        }
    }
}
