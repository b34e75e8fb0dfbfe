//! Per-thread on-CPU time.
//!
//! On-CPU time — not wall time around a piece of work — is what
//! busy-time attribution must be built on: when threads outnumber cores
//! the OS time-slices them, and a wall interval silently includes every
//! other thread's turn on the core, inflating each worker's apparent
//! busy time toward the whole run. On-CPU time is immune to
//! descheduling, so the engine's scaling-efficiency model stays honest
//! on machines of any core count.
//!
//! Three sources, in order:
//!
//! 1. `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` — exact: it adds the
//!    slice the thread is running right now, so a 9k-measurement run
//!    reads non-zero phases and a worker that blocks between messages
//!    loses nothing. One real syscall a reading (it is not in the vDSO),
//!    so callers lap at chunk granularity, never per measurement.
//! 2. `/proc/thread-self/schedstat` field 0 — the thread's runtime *as
//!    of its last scheduler event*, so tick-granular: short phases read
//!    zero. Used where the first is missing.
//! 3. Nothing (`None`): the caller falls back to wall time.
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
    /// The calling thread's clock, probed at its first reading and
    /// re-read in place after that. Per thread because
    /// `/proc/thread-self` binds to whichever thread opens it; probed
    /// whatever the test override says, which [`CpuClock::now`] checks
    /// at every reading.
    static THREAD_CLOCK: RefCell<CpuClock> = RefCell::new(CpuClock::open());
}

/// Cumulative on-CPU time of the calling thread, in nanoseconds. `None`
/// where neither the thread CPU-time clock nor
/// `/proc/thread-self/schedstat` can be read (non-Linux hosts), or while
/// the test override forces the fallback. One syscall a call: where the
/// schedstat fallback is in use its file stays open between calls,
/// because an open, a read and a close cost ~40 µs and callers read the
/// clock per engine snapshot and per shard report.
pub fn thread_cpu_nanos() -> Option<u64> {
    // `try_with`: a reading taken while the thread's locals are being
    // torn down falls back to wall time instead of panicking.
    THREAD_CLOCK.try_with(|clock| clock.borrow_mut().now()).ok().flatten()
}

/// A reusable handle on the calling thread's on-CPU clock, each reading
/// one syscall: `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` where it
/// answers, else the schedstat pseudo-file opened once and re-read in
/// place (`pread` at offset 0 — the kernel regenerates a seq_file on
/// every read from the start). [`thread_cpu_nanos`] reads through one of
/// these kept per thread; a per-batch phase timer holds its own and
/// skips the thread-local lookup.
///
/// Both sources bind to a thread — `clock_gettime` to the caller,
/// `/proc/thread-self` to the *opening* thread's entry at open time — so
/// a clock must stay on the thread that built it: keep it in
/// worker-local state, never in shared handles.
#[derive(Debug)]
pub struct CpuClock {
    source: Source,
}

/// Where a [`CpuClock`] reads from, probed once when it is built.
#[derive(Debug)]
enum Source {
    /// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`.
    ThreadCpuTime,
    /// The opening thread's `/proc/thread-self/schedstat`.
    Schedstat(std::fs::File),
    /// No per-thread clock: callers use wall time.
    Wall,
}

impl CpuClock {
    /// Probe the calling thread's clock (unless the test override is
    /// forcing the wall fallback).
    pub fn detect() -> CpuClock {
        if FORCE_WALL.load(Ordering::Relaxed) {
            return CpuClock { source: Source::Wall };
        }
        CpuClock::open()
    }

    fn open() -> CpuClock {
        let source = if thread_cputime_nanos().is_some() {
            Source::ThreadCpuTime
        } else {
            match std::fs::File::open("/proc/thread-self/schedstat") {
                Ok(file) => Source::Schedstat(file),
                Err(_) => Source::Wall,
            }
        };
        CpuClock { source }
    }

    /// Cumulative on-CPU nanoseconds of the owning thread; `None` where
    /// the clock is unavailable (or the test override is active).
    pub fn now(&mut self) -> Option<u64> {
        if FORCE_WALL.load(Ordering::Relaxed) {
            return None;
        }
        match &self.source {
            Source::ThreadCpuTime => thread_cputime_nanos(),
            Source::Schedstat(file) => read_fresh(file),
            Source::Wall => None,
        }
    }
}

/// The calling thread's `CLOCK_THREAD_CPUTIME_ID` reading. 64-bit Linux
/// only, where `time_t` and `long` are both 64 bits wide and the layout
/// below is the kernel's; elsewhere the schedstat file or the wall clock
/// stands in.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cputime_nanos() -> Option<u64> {
    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_THREAD_CPUTIME_ID` in `<linux/time.h>`.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` is the libc function std already links
    // (int clock_gettime(clockid_t, struct timespec *), `clockid_t` an
    // `int`); `ts` is a live, exclusively borrowed `struct timespec` of
    // this target's layout, which the call only writes to, and nothing
    // is retained past it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return None;
    }
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    secs.checked_mul(1_000_000_000)?.checked_add(nanos)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cputime_nanos() -> Option<u64> {
    None
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

    fn burn(d: std::time::Duration) {
        let deadline = std::time::Instant::now() + d;
        let mut acc = 0u64;
        while std::time::Instant::now() < deadline {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn cpu_clock_rereads_fresh_values() {
        let _guard = override_lock();
        // The detected clock, and the schedstat fallback behind it where
        // the host has one.
        let schedstat = std::fs::File::open("/proc/thread-self/schedstat")
            .ok()
            .map(|file| CpuClock { source: Source::Schedstat(file) });
        for mut clock in [Some(CpuClock::detect()), schedstat].into_iter().flatten() {
            let Some(first) = clock.now() else {
                continue; // no per-thread clock on this host: nothing to assert
            };
            // Burn enough CPU that even the tick-granular schedstat must
            // advance, then confirm the re-read (same handle; for the
            // file, same fd and a pread at 0) sees it.
            burn(std::time::Duration::from_millis(60));
            let second = clock.now().expect("clock stays readable");
            assert!(second > first, "{clock:?} must re-read fresh: {first} then {second}");
        }
        // The one-shot path reads the same clock (both only ever grow).
        let mut clock = CpuClock::detect();
        if let Some(held) = clock.now() {
            let oneshot = thread_cpu_nanos().expect("one-shot clock readable");
            assert!(oneshot >= held, "one-shot read after: {oneshot} < {held}");
        }
    }

    /// What the first source is for: a burn far shorter than a scheduler
    /// tick, with no scheduler event in it, still reads as time spent.
    #[test]
    fn thread_cpu_time_sees_a_burn_shorter_than_a_tick() {
        let _guard = override_lock();
        let mut clock = CpuClock::detect();
        if !matches!(clock.source, Source::ThreadCpuTime) {
            return; // not 64-bit Linux: the coarser sources stand in
        }
        for _ in 0..20 {
            let first = clock.now().expect("clock readable");
            burn(std::time::Duration::from_micros(200));
            let second = clock.now().expect("clock readable");
            assert!(second > first, "a 200 µs burn read as nothing: {first} then {second}");
        }
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
