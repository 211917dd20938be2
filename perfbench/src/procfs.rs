//! Readers for the Linux `/proc` files the benchmark samples: peak
//! resident set (`VmHWM`), bytes passed to write calls (`wchar`) and CPU
//! time. Parsing is split from reading so the parsers can be tested on
//! fixture text.

use std::path::Path;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`: Linux exports them in `USER_HZ`, which is 100.
const USER_HZ: f64 = 100.0;

/// One sample of a process's counters (summed over processes by
/// [`sample_all`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Peak resident set size in bytes.
    pub peak_rss_bytes: u64,
    /// Bytes passed to write-like system calls.
    pub wchar: u64,
    /// User plus system CPU time in milliseconds.
    pub cpu_ms: f64,
}

/// `VmHWM` in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Field `key` from `/proc/<pid>/io` text.
pub fn parse_io_field(io: &str, key: &str) -> Option<u64> {
    io.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() == key {
            v.trim().parse().ok()
        } else {
            None
        }
    })
}

/// `utime + stime` in clock ticks from `/proc/<pid>/stat` text.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) is parenthesised and may itself hold
    // spaces or parentheses, so fields are counted after the last `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name, the state is field 3; utime is 14 and stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Filesystem type of the mount holding absolute `path`, from
/// `/proc/self/mountinfo` text: the entry with the longest mount point
/// that contains `path`.
pub fn parse_mount_fs(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split_whitespace().nth(4)?;
            let fs = right.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

fn read(pid: Option<u32>, file: &str) -> Option<String> {
    let dir = pid.map_or_else(|| "self".to_owned(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{dir}/{file}")).ok()
}

/// Samples process `pid` (`None`: this process). A counter whose file
/// cannot be read counts as 0.
pub fn sample(pid: Option<u32>) -> ProcSample {
    let hwm_kb = read(pid, "status")
        .and_then(|s| parse_vm_hwm_kb(&s))
        .unwrap_or(0);
    let wchar = read(pid, "io")
        .and_then(|s| parse_io_field(&s, "wchar"))
        .unwrap_or(0);
    let ticks = read(pid, "stat")
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .unwrap_or(0);
    ProcSample {
        peak_rss_bytes: hwm_kb * 1024,
        wchar,
        cpu_ms: ticks as f64 * 1000.0 / USER_HZ,
    }
}

/// The sum of [`sample`] over `pids`.
pub fn sample_all(pids: &[u32]) -> ProcSample {
    pids.iter()
        .map(|&pid| sample(Some(pid)))
        .fold(ProcSample::default(), |a, b| ProcSample {
            peak_rss_bytes: a.peak_rss_bytes + b.peak_rss_bytes,
            wchar: a.wchar + b.wchar,
            cpu_ms: a.cpu_ms + b.cpu_ms,
        })
}

/// Filesystem type under `path`, or `"unknown"`.
pub fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    read(None, "mountinfo")
        .and_then(|m| parse_mount_fs(&m, &abs))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_from_status() {
        let status = "Name:\tlsi-perfbench\nVmPeak:\t  912340 kB\nVmHWM:\t  402112 kB\nVmRSS:\t  350000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(402_112));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn wchar_from_io() {
        let io = "rchar: 123\nwchar: 98765\nsyscr: 4\nsyscw: 5\nread_bytes: 0\nwrite_bytes: 4096\n";
        assert_eq!(parse_io_field(io, "wchar"), Some(98_765));
        assert_eq!(parse_io_field(io, "write_bytes"), Some(4096));
        assert_eq!(parse_io_field(io, "missing"), None);
    }

    #[test]
    fn cpu_ticks_from_stat_with_an_awkward_name() {
        let stat = "4242 (perf (bench) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 12345 1000 200";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_stat_cpu_ticks("4242 (short) S 1"), None);
    }

    #[test]
    fn mount_fs_picks_the_longest_prefix() {
        let info = "22 1 0:21 / / rw,relatime - overlay overlay rw\n\
                    30 22 0:30 / /tmp rw,nosuid - tmpfs tmpfs rw\n\
                    31 22 8:1 / /data rw - ext4 /dev/sda1 rw\n";
        assert_eq!(
            parse_mount_fs(info, Path::new("/tmp/x")),
            Some("tmpfs".into())
        );
        assert_eq!(
            parse_mount_fs(info, Path::new("/data")),
            Some("ext4".into())
        );
        assert_eq!(
            parse_mount_fs(info, Path::new("/tmpx/y")),
            Some("overlay".into())
        );
    }

    #[test]
    fn own_process_is_readable() {
        let own = sample(None);
        assert!(own.peak_rss_bytes > 0);
    }
}
