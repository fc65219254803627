//! Process-level measurements for the experiment harness.

/// Peak resident set size of this process in bytes, if the platform exposes
/// it. On Linux this reads `VmHWM` from `/proc/self/status` — the high-water
/// mark over the whole process lifetime, so sample it after the workload of
/// interest. Other platforms return `None`.
pub fn peak_rss() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// `peak_rss` as mebibytes for display, or `None` off-Linux: one `VmHWM`
/// read, converted.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss().map(bytes_to_mib)
}

fn bytes_to_mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// CPU cores this process can actually use.
///
/// [`std::thread::available_parallelism`] is the primary source — it honors
/// cgroup CPU quotas and affinity masks, which is exactly the number that
/// bounds wall-clock speedup in a container. When it is unavailable the
/// Linux fallback counts `processor` stanzas in `/proc/cpuinfo`; the final
/// fallback is 1. Perf snapshots persist this so readers (and the ratcheted
/// speedup gate) can interpret parallel timings relative to what the host
/// could ever deliver.
pub fn usable_cores() -> usize {
    if let Ok(n) = std::thread::available_parallelism() {
        return n.get();
    }
    #[cfg(target_os = "linux")]
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        let n = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        if n > 0 {
            return n;
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_plausible_value() {
        // touch some memory so the high-water mark is comfortably nonzero
        let v = vec![1u8; 4 << 20];
        std::hint::black_box(&v);
        let rss = peak_rss().expect("VmHWM available on Linux");
        assert!(rss > 1 << 20, "peak RSS {rss} implausibly small");
        assert!(rss < 1 << 42, "peak RSS {rss} implausibly large");
    }

    #[test]
    fn usable_cores_is_at_least_one() {
        let n = usable_cores();
        assert!(n >= 1);
        assert!(n < 1 << 16, "usable_cores {n} implausibly large");
    }

    #[test]
    fn peak_rss_mb_matches_bytes() {
        // the conversion on fixed values: two live `VmHWM` reads can
        // straddle a page fault and differ, so they are never compared
        assert_eq!(bytes_to_mib(0), 0.0);
        assert_eq!(bytes_to_mib(1 << 20), 1.0);
        assert_eq!(bytes_to_mib(34 * (1 << 20) + (1 << 19)), 34.5);
        assert_eq!(peak_rss().is_some(), peak_rss_mb().is_some());
    }
}
