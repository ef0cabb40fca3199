//! Host-speed calibration.
//!
//! Shared hosts drift between faster and slower phases that last
//! minutes, moving every timing of a run together. A fixed kernel, the
//! same in every version of the program, is timed between passes; the
//! end-to-end timings are scaled by `NOMINAL_MS / median(kernel ms)`,
//! so they read as times on a host where the kernel takes
//! [`NOMINAL_MS`]. A change to the program moves its timings and not
//! the kernel's, so the scaled figures compare versions; per-layer
//! timings stay raw.

use std::time::Duration;

use crate::stats::host_clock;

/// Kernel time on the host the benchmark was calibrated on (a 2-vCPU
/// Intel Xeon VM), in ms.
pub const NOMINAL_MS: f64 = 40.0;

/// Time between kernel runs during a measurement.
pub const INTERVAL: Duration = Duration::from_millis(500);

/// Kernel runs before set-up, so a run always has samples.
pub const WARM_RUNS: usize = 3;

const N: usize = 1 << 20;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host milliseconds of one kernel run: fill and sort 8 MiB of
/// pseudo-random words, then chase 2^20 dependent loads through a
/// 4 MiB index (allocation, compute and memory latency, like the
/// simulator's own mix).
pub fn reference_ms() -> f64 {
    let t = host_clock();
    let mut v: Vec<u64> = (0..N as u64).map(mix).collect();
    v.sort_unstable();
    let mut idx = vec![0u32; N];
    for (i, x) in v.iter().enumerate() {
        idx[(*x as usize) & (N - 1)] = i as u32;
    }
    let (mut acc, mut j) = (0u64, 0usize);
    for _ in 0..N {
        j = idx[j] as usize;
        acc = acc.wrapping_add(v[j]);
        j = (j + 1) & (N - 1);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}
