//! What the benchmark reads from the machine: process CPU time, peak
//! resident memory, and the facts the output header records.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// reports them in `USER_HZ`, which is 100 on every supported target.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, all threads.
/// `None` where `/proc` is absent.
pub fn process_cpu_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|t| t as f64 / TICKS_PER_SEC)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name
/// (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in MiB. `None` where `/proc` is absent.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `unknown` if it cannot
/// be run here (the benchmark also runs in checkouts that are not git
/// repositories).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers of a run were taken.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    /// Whether busy times come from the per-thread on-CPU clock rather
    /// than the wall-clock fallback.
    pub busy_on_cpu: bool,
}

impl Machine {
    pub fn detect() -> Machine {
        Machine {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: first_line_of("rustc", &["-V"]),
            git_commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            busy_on_cpu: churnlab_obs::thread_cpu_nanos().is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 2 0 100 0 0";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_is_measurable() {
        assert!(process_cpu_secs().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(nproc() >= 1);
    }
}
