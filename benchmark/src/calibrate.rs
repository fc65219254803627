//! Host-speed calibration.
//!
//! The reference host is a shared 2-vCPU VM whose speed drifts by tens of
//! percent over minutes (other tenants on the same cores): the same course
//! measured 0.42 s and 0.70 s half an hour apart, with CPU time moving in
//! step. A regression bound cannot be held against that, so every timed
//! piece is bracketed by a fixed piece of work of the benchmark's own and
//! its timings are scaled to the speed the host had *while it ran*.
//!
//! What this cannot mend: for minutes at a time the VM gets little more
//! than one CPU, and a two-thread course (`femnist_par`, `bus_femnist`) then
//! takes its CPU time in wall time. One thread's speed says nothing about
//! that, and scaling by a two-thread kernel over-corrects (tried: -28 % under
//! a local hog), because once the threads are serialized the wall no longer
//! holds the parallel time at all. Such a run shows as raw CPU over raw wall
//! near 1 on those two workloads; repeat it.
//!
//! The kernel is ordinary branchy, allocating code (a `BTreeMap` of small
//! vectors churned by a xorshift stream) because that is what tracked the
//! courses: tight arithmetic or streaming loops run out of the loop buffer
//! and barely notice a busy sibling thread, and left 15–20 % of spread where
//! this one leaves 2–7 %. It calls only `std`; it shares the process's
//! allocator with the program, so a change of global allocator moves it too
//! and must be judged on the raw values the result file keeps.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one kernel call takes on the reference host in its quiet spells
/// (the fastest tenth of 2 000 calls; `benchmark calibrate` prints the same
/// for any host). Scaled timings read as if the host ran at this speed
/// throughout.
pub const REFERENCE_S: f64 = 0.0021;
/// Runs the kernel once and returns its wall seconds.
pub fn kernel_seconds() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, vec![i as f32; 16 + (x % 64) as usize]);
        if i % 3 == 0 {
            map.remove(&((x >> 20) % 4096));
        }
    }
    black_box(&map);
    t.elapsed().as_secs_f64()
}

/// One look at the host: the median of three kernel calls.
pub fn sample() -> f64 {
    let mut s = [kernel_seconds(), kernel_seconds(), kernel_seconds()];
    s.sort_by(f64::total_cmp);
    s[1]
}

/// Host speed relative to the reference while a piece of work ran, from the
/// samples taken just before and just after it (1 = reference speed, 0.7 =
/// the host ran at 70 % of it).
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S / ((before_s + after_s) / 2.0)
}

/// Scales a duration of which `busy` (0..=1) was spent computing: computing
/// stretches with a slow host, waiting on a timer or a socket does not.
pub fn at_reference_speed(seconds: f64, busy: f64, speed: f64) -> f64 {
    let busy = busy.clamp(0.0, 1.0);
    seconds * (1.0 - busy + busy * speed)
}
