//! Phase timers over the on-CPU clock.
//!
//! Two shapes:
//!
//! * [`Stopwatch`] — chained laps: one clock read per phase *boundary*
//!   instead of two per phase, for worker loops that run several phases
//!   back to back over one batch.
//! * [`BusyTimer`] — cumulative busy accounting for a whole worker
//!   thread: on-CPU time where a per-thread clock exists, accumulated wall
//!   intervals elsewhere (overstated under core oversubscription, but
//!   better than nothing on non-Linux hosts). This is the abstraction
//!   `churnlab-engine`'s scaling-efficiency model runs on; the wall
//!   fallback is testable via
//!   [`crate::cpu::force_wall_clock_for_tests`].

use crate::cpu::{thread_cpu_nanos, CpuClock};
use crate::metrics::Counter;
use std::time::Instant;

/// Chained phase laps: `lap(counter)` attributes everything since the
/// previous boundary (construction, last lap, or last [`restart`]) to
/// `counter` — one clock read per boundary, through a held [`CpuClock`]
/// (one syscall, no open/close). CPU-mode when a per-thread clock
/// exists, wall otherwise; the mode is probed once at construction.
///
/// Hot loops should build one stopwatch per worker thread and
/// [`restart`] it per batch, so the clock is probed once per thread,
/// not once per batch. The held clock binds the stopwatch to
/// its constructing thread — don't move one across threads.
///
/// [`restart`]: Stopwatch::restart
pub struct Stopwatch {
    clock: CpuClock,
    /// Last boundary's on-CPU reading, or `None` in wall mode.
    cpu_last: Option<u64>,
    wall_last: Instant,
}

impl Stopwatch {
    /// Start a stopwatch at the first boundary.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Stopwatch {
        let mut clock = CpuClock::detect();
        let cpu_last = clock.now();
        Stopwatch { clock, cpu_last, wall_last: Instant::now() }
    }

    /// Open a fresh boundary now, discarding any time since the last
    /// one — for reusing one stopwatch across loop iterations whose
    /// inter-iteration time (a blocked channel `recv`, other message
    /// arms) belongs to no phase.
    pub fn restart(&mut self) {
        if self.cpu_last.is_some() {
            self.cpu_last = self.clock.now();
        }
        self.wall_last = Instant::now();
    }

    /// Close the current phase into `counter` and open the next.
    pub fn lap(&mut self, counter: &Counter) {
        let nanos = match self.cpu_last {
            Some(c0) => match self.clock.now() {
                Some(c1) => {
                    self.cpu_last = Some(c1);
                    c1.saturating_sub(c0)
                }
                // Clock vanished mid-run (never observed in practice);
                // degrade to a wall interval rather than lose the lap.
                None => {
                    self.cpu_last = None;
                    self.wall_last.elapsed().as_nanos() as u64
                }
            },
            None => self.wall_last.elapsed().as_nanos() as u64,
        };
        self.wall_last = Instant::now();
        counter.add(nanos);
    }
}

/// Cumulative busy accounting for one worker thread.
///
/// In CPU mode, `busy_nanos` is simply the thread's cumulative on-CPU
/// time (a blocked `recv` costs no CPU, so a message-loop worker's whole
/// on-CPU time *is* its busy time). In wall mode, the caller brackets
/// each unit of work with [`BusyTimer::interval`] and the accumulated
/// intervals stand in — overstated when threads outnumber cores, but
/// monotone and usable.
#[derive(Debug)]
pub enum BusyTimer {
    /// Clock-backed: read the cumulative on-CPU clock on demand.
    Cpu,
    /// Wall fallback: accumulate measured intervals.
    Wall {
        /// Total accumulated busy nanoseconds.
        accumulated: u64,
    },
}

impl BusyTimer {
    /// Probe the CPU clock once and pick the mode.
    pub fn detect() -> BusyTimer {
        if thread_cpu_nanos().is_some() {
            BusyTimer::Cpu
        } else {
            BusyTimer::Wall { accumulated: 0 }
        }
    }

    /// Run one unit of work, accumulating its wall interval in fallback
    /// mode (a no-op wrapper in CPU mode).
    pub fn interval<R>(&mut self, f: impl FnOnce() -> R) -> R {
        match self {
            BusyTimer::Cpu => f(),
            BusyTimer::Wall { accumulated } => {
                let t0 = Instant::now();
                let out = f();
                *accumulated += t0.elapsed().as_nanos() as u64;
                out
            }
        }
    }

    /// The thread's busy time so far, nanoseconds.
    pub fn busy_nanos(&self) -> u64 {
        match self {
            BusyTimer::Cpu => thread_cpu_nanos().unwrap_or(0),
            BusyTimer::Wall { accumulated } => *accumulated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn spin(mut n: u64) -> u64 {
        let mut acc = 0u64;
        while n > 0 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(n);
            n -= 1;
        }
        acc
    }

    /// Spin for at least `ms` of wall time — long enough that even the
    /// tick-granular schedstat clock observably advances.
    fn spin_for_ms(ms: u64) {
        let deadline = Instant::now() + std::time::Duration::from_millis(ms);
        while Instant::now() < deadline {
            std::hint::black_box(spin(10_000));
        }
    }

    #[test]
    fn stopwatch_laps_split_phases() {
        let reg = Registry::new();
        let a = reg.counter("a_nanos_total", "test", &[]);
        let b = reg.counter("b_nanos_total", "test", &[]);
        let mut sw = Stopwatch::new();
        spin_for_ms(30);
        sw.lap(&a);
        spin_for_ms(30);
        sw.lap(&b);
        // Both phases saw real work; wall or cpu, both laps land.
        assert!(a.value() > 0, "first lap records time");
        assert!(b.value() > 0, "second lap records time");
    }

    #[test]
    fn stopwatch_restart_discards_elapsed_time() {
        let reg = Registry::new();
        let c = reg.counter("restart_nanos_total", "test", &[]);
        let mut sw = Stopwatch::new();
        spin_for_ms(80);
        sw.restart();
        sw.lap(&c);
        // The 80ms before the restart must not land in the lap; allow
        // generous slack for tick-granular clocks.
        assert!(
            c.value() < 40_000_000,
            "restart leaked pre-boundary time: {}ns",
            c.value()
        );
    }

    #[test]
    fn wall_busy_timer_accumulates_monotonically() {
        let mut t = BusyTimer::Wall { accumulated: 0 };
        let first = {
            t.interval(|| std::hint::black_box(spin(200_000)));
            t.busy_nanos()
        };
        assert!(first > 0);
        t.interval(|| std::hint::black_box(spin(200_000)));
        assert!(t.busy_nanos() >= first, "busy accounting is monotone");
    }
}
