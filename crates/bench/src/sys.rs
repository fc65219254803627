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
    fn peak_rss_mb_matches_bytes() {
        // the conversion on fixed values: two live `VmHWM` reads can
        // straddle a page fault and differ, so they are never compared
        assert_eq!(bytes_to_mib(0), 0.0);
        assert_eq!(bytes_to_mib(1 << 20), 1.0);
        assert_eq!(bytes_to_mib(34 * (1 << 20) + (1 << 19)), 34.5);
        assert_eq!(peak_rss().is_some(), peak_rss_mb().is_some());
    }
}
