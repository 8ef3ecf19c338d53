//! Process accounting read from `/proc`; every reader returns `None`
//! where `/proc` is missing (anything but Linux), never a made-up zero.

use std::fs;

/// Kernel clock ticks per second. `USER_HZ` is 100 on every Linux
/// architecture this benchmark runs on; `sysconf` is not reachable
/// without libc.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) this process has used, all threads.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// Fields 14 and 15 of a `/proc/<pid>/stat` line. The command name
/// (field 2) may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Nanoseconds each live thread of this process has spent on a CPU, by
/// thread id, from `/proc/self/task/<tid>/schedstat`: the scheduler's own
/// count, where `/proc/self/stat` moves in 10 ms ticks. Threads that have
/// exited are gone from it, so compare two readings with
/// [`cpu_seconds_between`].
pub fn thread_cpu_ns() -> Option<Vec<(u64, u64)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path();
        let tid = path.file_name()?.to_str()?.parse().ok()?;
        // A thread may exit between the listing and the read.
        if let Ok(stat) = fs::read_to_string(path.join("schedstat")) {
            out.push((tid, parse_schedstat_ns(&stat)?));
        }
    }
    Some(out)
}

/// First field of a `schedstat` line: time spent on the CPU, in ns.
fn parse_schedstat_ns(stat: &str) -> Option<u64> {
    stat.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU seconds used between two [`thread_cpu_ns`] readings by the threads
/// alive at the second (a thread started in between counts in full; one
/// that exited in between is not seen).
pub fn cpu_seconds_between(before: &[(u64, u64)], after: &[(u64, u64)]) -> f64 {
    let ns: u64 = after
        .iter()
        .map(|(tid, ns)| {
            let was = before.iter().find(|(t, _)| t == tid).map_or(0, |(_, n)| *n);
            ns.saturating_sub(was)
        })
        .sum();
    ns as f64 / 1e9
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_counted_after_the_command_name() {
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194560 120 0 0 0 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn thread_cpu_is_compared_thread_by_thread() {
        assert_eq!(parse_schedstat_ns("8123456 2222 17\n"), Some(8_123_456));
        assert_eq!(parse_schedstat_ns(""), None);
        let before = [(1, 1_000_000_000), (2, 500_000_000)];
        // Thread 2 exited, thread 3 started: 0.25 s + 0.125 s.
        let after = [(1, 1_250_000_000), (3, 125_000_000)];
        assert_eq!(cpu_seconds_between(&before, &after), 0.375);
        assert_eq!(cpu_seconds_between(&after, &after), 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn live_readers_degrade_to_none_off_linux() {
        let on_linux = std::path::Path::new("/proc/self/stat").exists();
        assert_eq!(cpu_seconds().is_some(), on_linux);
        assert_eq!(peak_rss_mb().is_some(), on_linux);
        assert_eq!(thread_cpu_ns().is_some(), on_linux);
        if let Some(threads) = thread_cpu_ns() {
            assert!(!threads.is_empty());
        }
        assert!(cores() >= 1);
    }
}
