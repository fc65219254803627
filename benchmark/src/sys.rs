//! Process-level measurements and the host stamp.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::Command;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cpu_clock {
    /// `struct timespec` on 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    }

    pub const PROCESS: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

    /// Seconds on a CPU-time clock. `/proc/self/stat` holds the same totals
    /// but in 10 ms ticks, which is 1–2 % of one benchmark course.
    pub fn seconds(clock_id: i32) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `timespec` of the layout 64-bit
        // Linux defines, and `clock_gettime` writes nothing else; both clock
        // ids exist on every Linux this cfg admits.
        let rc = unsafe { clock_gettime(clock_id, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    }
}

/// Off 64-bit Linux there is no CPU clock to read: CPU times read 0.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod cpu_clock {
    pub const PROCESS: i32 = 2;
    pub const THREAD: i32 = 3;
    pub fn seconds(_clock_id: i32) -> f64 {
        0.0
    }
}

/// User + system CPU seconds of the whole process so far, all threads,
/// including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    cpu_clock::seconds(cpu_clock::PROCESS)
}

/// CPU seconds of the calling thread so far.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock::seconds(cpu_clock::THREAD)
}

/// Peak resident set size of this process: `VmHWM` of `/proc/self/status`
/// (0 off Linux).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Where and on what a result was measured.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostStamp {
    /// Cores this process may use (cgroup quota and affinity applied).
    pub cores: u64,
    pub cpu_model: String,
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside a repository.
    pub git_commit: String,
    /// FNV-1a over the benchmark's own sources and manifest.
    pub source_hash: String,
    /// 1-minute load average when the run started.
    pub load1: f64,
    /// The load average exceeded the core count: timings may be inflated.
    pub load_high: bool,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    // git must not look for a repository above this checkout
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .env("GIT_CEILING_DIRECTORIES", dir.parent()?.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over `Cargo.toml` and every file under `src/`, in name order.
fn source_hash(manifest_dir: &Path) -> String {
    let mut files = vec![manifest_dir.join("Cargo.toml")];
    if let Ok(dir) = std::fs::read_dir(manifest_dir.join("src")) {
        files.extend(dir.filter_map(|e| e.ok()).map(|e| e.path()));
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

impl HostStamp {
    pub fn collect() -> Self {
        let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let load1 = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
            .unwrap_or(0.0);
        Self {
            cores,
            cpu_model,
            rustc: command_line("rustc", &["--version"], manifest_dir)
                .unwrap_or_else(|| "unknown".to_string()),
            git_commit: command_line("git", &["rev-parse", "HEAD"], manifest_dir)
                .unwrap_or_else(|| "unknown".to_string()),
            source_hash: source_hash(manifest_dir),
            load1,
            load_high: load1 > cores as f64,
        }
    }
}
