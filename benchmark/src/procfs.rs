//! What the benchmark reads about its own process and host from `/proc`:
//! CPU time, peak resident memory, the filesystem under the work directory.

use std::path::Path;

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports; there is no libc here to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`, ...) in KiB.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User plus system CPU seconds this process (all threads, including those
/// already joined) has consumed so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |(u, s)| (u + s) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Filesystem type of the mount holding `path`, from the text of
/// `/proc/self/mountinfo`: the entry with the longest mount point that is a
/// prefix of `path` wins.
pub fn parse_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <type> <src> <opts>"
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (head.split(' ').nth(4), tail.split(' ').next())
        else {
            continue;
        };
        if path.starts_with(mount_point) {
            let len = mount_point.len();
            if best.as_ref().is_none_or(|(l, _)| len >= *l) {
                best = Some((len, fs_type.to_string()));
            }
        }
    }
    best.map(|(_, t)| t)
}

/// Filesystem type under `path` (`"unknown"` when `/proc` cannot say).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|m| parse_fs_type(&m, &path))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        let plain = "4242 (dsbench) S 1 4242 4242 0 -1 4194304 120 0 0 0 37 5 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_ticks(plain), Some((37, 5)));
        // A command name with spaces and parentheses must not shift fields.
        let hostile = "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 1200 34 0 0 20 0 1 0 9 9 9";
        assert_eq!(parse_stat_ticks(hostile), Some((1200, 34)));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None, "truncated");
    }

    #[test]
    fn status_fields_are_matched_exactly() {
        let status = "Name:\tdsbench\nVmPeak:\t  900 kB\nVmHWM:\t   52340 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(52340));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "Vm"), None, "prefix is no match");
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_proc_reads_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn longest_mount_prefix_names_the_filesystem() {
        let mountinfo = "\
22 1 254:0 / / rw,relatime shared:1 - ext4 /dev/vda rw
30 22 0:26 / /tmp rw,nosuid shared:5 - tmpfs tmpfs rw
31 22 0:27 / /tmp/deep/mount rw - xfs /dev/vdb rw
";
        let fs = |p: &str| parse_fs_type(mountinfo, Path::new(p));
        assert_eq!(fs("/root/repo/target").as_deref(), Some("ext4"));
        assert_eq!(fs("/tmp/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/tmp/deep/mount/y").as_deref(), Some("xfs"));
        // "/tmpfoo" is not under the "/tmp" mount.
        assert_eq!(fs("/tmpfoo").as_deref(), Some("ext4"));
    }
}
