//! Per-thread on-CPU time, via Linux `schedstat`.
//!
//! `/proc/thread-self/schedstat` field 0 is the calling thread's
//! cumulative on-CPU nanoseconds. This — not wall time around a piece of
//! work — is what busy-time attribution must be built on: when threads
//! outnumber cores the OS time-slices them, and a wall interval silently
//! includes every other thread's turn on the core, inflating each
//! worker's apparent busy time toward the whole run. On-CPU time is
//! immune to descheduling, so the engine's scaling-efficiency model
//! stays honest on machines of any core count.
//!
//! Hoisted out of `churnlab-engine`'s shard worker (which re-exports it
//! for compatibility) so every crate shares one clock and one tested
//! parse.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide test override: when set, [`thread_cpu_nanos`] reports
/// the clock as unavailable, forcing every consumer down its wall-clock
/// fallback path — the only way to exercise the non-Linux /
/// schedstat-absent behavior deterministically on a Linux box.
static FORCE_WALL: AtomicBool = AtomicBool::new(false);

/// Force (or stop forcing) the wall-clock fallback for tests. Affects
/// the whole process: use from a dedicated integration-test binary, not
/// alongside unrelated concurrent tests that want the real clock.
pub fn force_wall_clock_for_tests(on: bool) {
    FORCE_WALL.store(on, Ordering::SeqCst);
}

/// Parse a `schedstat` line: the first whitespace-separated field is
/// cumulative on-CPU nanoseconds. `None` on anything malformed — a
/// malformed pseudo-file must degrade to the wall fallback, never panic
/// a shard worker.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

thread_local! {
    /// The calling thread's clock, opened at its first reading and
    /// re-read in place after that. Per thread because
    /// `/proc/thread-self` binds to whichever thread opens it; opened
    /// whatever the test override says, which [`CpuClock::now`] checks
    /// at every reading.
    static THREAD_CLOCK: RefCell<CpuClock> = RefCell::new(CpuClock::open());
}

/// Cumulative on-CPU time of the calling thread, in nanoseconds. `None`
/// where `/proc/thread-self/schedstat` is absent or unreadable (non-Linux
/// hosts), or while the test override forces the fallback. One `pread`
/// a call: the thread's schedstat stays open between calls, because an
/// open, a read and a close cost ~40 µs and callers read the clock per
/// engine snapshot and per shard report.
pub fn thread_cpu_nanos() -> Option<u64> {
    // `try_with`: a reading taken while the thread's locals are being
    // torn down falls back to wall time instead of panicking.
    THREAD_CLOCK.try_with(|clock| clock.borrow_mut().now()).ok().flatten()
}

/// A reusable handle on the calling thread's on-CPU clock: the
/// schedstat pseudo-file opened once and re-read in place (`pread` at
/// offset 0 — the kernel regenerates a seq_file on every read from the
/// start), so each reading costs one syscall. [`thread_cpu_nanos`] reads
/// through one of these kept per thread; a per-batch phase timer holds
/// its own and skips the thread-local lookup.
///
/// `/proc/thread-self` resolves to the *opening* thread's entry at open
/// time, so a clock must stay on the thread that built it — keep it in
/// worker-local state, never in shared handles.
#[derive(Debug)]
pub struct CpuClock {
    file: Option<std::fs::File>,
}

impl CpuClock {
    /// Open the calling thread's schedstat, if it exists (and the test
    /// override isn't forcing the wall fallback).
    pub fn detect() -> CpuClock {
        if FORCE_WALL.load(Ordering::Relaxed) {
            return CpuClock { file: None };
        }
        CpuClock::open()
    }

    fn open() -> CpuClock {
        CpuClock { file: std::fs::File::open("/proc/thread-self/schedstat").ok() }
    }

    /// Cumulative on-CPU nanoseconds of the owning thread; `None` where
    /// the clock is unavailable (or the test override is active).
    pub fn now(&mut self) -> Option<u64> {
        if FORCE_WALL.load(Ordering::Relaxed) {
            return None;
        }
        let file = self.file.as_ref()?;
        read_fresh(file)
    }
}

#[cfg(unix)]
fn read_fresh(file: &std::fs::File) -> Option<u64> {
    use std::os::unix::fs::FileExt;
    // 3 u64 fields + separators tops out well under 80 bytes.
    let mut buf = [0u8; 80];
    let n = file.read_at(&mut buf, 0).ok()?;
    parse_schedstat(std::str::from_utf8(&buf[..n]).ok()?)
}

#[cfg(not(unix))]
fn read_fresh(_file: &std::fs::File) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The override is process-wide and the harness runs tests on
    /// several threads: every test that sets it or reads a clock holds
    /// this.
    static OVERRIDE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn override_lock() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parses_well_formed_line() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123456789));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        // Leading whitespace is fine; only the first field matters.
        assert_eq!(parse_schedstat("  987 1 2"), Some(987));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("   \n"), None);
        assert_eq!(parse_schedstat("not-a-number 1 2"), None);
        assert_eq!(parse_schedstat("-5 1 2"), None); // u64: no negatives
        assert_eq!(parse_schedstat("1.5 1 2"), None); // integer field
        assert_eq!(parse_schedstat("99999999999999999999999999 1 2"), None); // overflow
    }

    #[test]
    fn cpu_clock_rereads_fresh_values() {
        let _guard = override_lock();
        let mut clock = CpuClock::detect();
        let Some(first) = clock.now() else {
            return; // no schedstat on this host: nothing to assert
        };
        // Burn enough CPU that the tick-granular clock must advance,
        // then confirm the re-read (same fd, pread at 0) sees it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(60);
        let mut acc = 0u64;
        while std::time::Instant::now() < deadline {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        let second = clock.now().expect("clock stays readable");
        assert!(
            second > first,
            "pread at 0 must regenerate schedstat: {first} then {second}"
        );
        // The handle agrees with the one-shot path (both only ever grow).
        let oneshot = thread_cpu_nanos().expect("one-shot clock readable");
        assert!(oneshot >= second, "one-shot read after: {oneshot} < {second}");
    }

    #[test]
    fn cpu_clock_honors_wall_override() {
        let _guard = override_lock();
        let mut live = CpuClock::detect();
        force_wall_clock_for_tests(true);
        assert_eq!(CpuClock::detect().now(), None, "detect under override");
        assert_eq!(live.now(), None, "override applies to open handles too");
        force_wall_clock_for_tests(false);
    }

    #[test]
    fn missing_file_falls_back_to_none() {
        // Simulate the file being absent via the test override: every
        // consumer must treat `None` as "use the wall clock". A thread
        // whose first reading happened under the override still finds
        // the clock once it lifts.
        let _guard = override_lock();
        std::thread::spawn(|| {
            force_wall_clock_for_tests(true);
            assert_eq!(thread_cpu_nanos(), None);
            force_wall_clock_for_tests(false);
            assert_eq!(thread_cpu_nanos().is_some(), CpuClock::detect().now().is_some());
        })
        .join()
        .expect("no panic");
    }
}
