//! `/proc` readers for CPU time, peak resident memory and the filesystem
//! a path lives on. Every reader returns `None` where `/proc` is absent,
//! and the metric it feeds is then left out, never reported as zero.

use std::path::Path;

/// Kernel clock ticks per second behind `utime`/`stime`. `USER_HZ` is
/// 100 on every Linux ABI; reading it properly needs `sysconf`, which
/// would need a libc dependency this workspace does not have.
const CLK_TCK: f64 = 100.0;

/// `(utime, stime)` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// The filesystem type of the longest mount point that prefixes `path`,
/// from the text of `/proc/self/mountinfo`.
pub fn parse_mount_fs_type(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> [tags] - <fstype> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (
            head.split_ascii_whitespace().nth(4),
            tail.split_ascii_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() >= b.0) {
            best = Some((mount_point.len(), fs_type.to_string()));
        }
    }
    best.map(|(_, fs_type)| fs_type)
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (utime, stime) = parse_stat_cpu_ticks(&stat)?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 / 1024.0)
}

/// Filesystem type `path` (made absolute first) is mounted on.
pub fn fs_type_of(path: &Path) -> Option<String> {
    let abs = std::fs::canonicalize(path).ok()?;
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    parse_mount_fs_type(&mountinfo, &abs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (sys bench) (x)) R 1 4242 4242 0 -1 4194304 931 0 0 0 \
                    1234 56 0 0 20 0 1 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((1234, 56)));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_the_kb_figure() {
        let status = "Name:\tsysbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn mountinfo_parser_prefers_the_longest_prefix() {
        let info = "22 1 254:0 / / rw,relatime shared:1 - ext4 /dev/vda rw\n\
                    30 22 0:25 / /dev/shm rw,relatime - tmpfs tmpfs rw\n";
        let fs = |p: &str| parse_mount_fs_type(info, Path::new(p));
        assert_eq!(fs("/dev/shm/fixture").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo").as_deref(), Some("ext4"));
        assert_eq!(parse_mount_fs_type("", Path::new("/")), None);
    }
}
