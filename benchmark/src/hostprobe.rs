//! A fixed unit of host work, timed between measured chunks, and the
//! host-speed correction built on it.
//!
//! The sandbox this benchmark runs in shares its cores: whole minutes run
//! 5-25 % faster or slower than their neighbours, for every workload at
//! once (README, "Host drift"). The probe is harness code only (nothing
//! from `crates/*`), so its rate moves with the host and never with the
//! simulator; dividing a chunk's rate by the probe rate measured around it
//! takes most of the drift out and leaves a simulator change in full.

use std::time::Instant;

/// Probe rate of the reference box on a quiet minute, steps per second.
/// Corrected rates are scaled by it, so on that box they read as plain
/// target MHz; anywhere else they are MHz *as if* the host ran the probe
/// at this rate.
pub const REFERENCE_RATE: f64 = 4.0e8;
/// Steps per probe: ~8 ms on the reference box.
const STEPS: u64 = 3_000_000;
/// Words in the probe's buffer: 256 KiB, L2-resident.
const WORDS: usize = 32 * 1024;

/// Integer mixing plus dependent loads and stores over a cache-resident
/// buffer, on the calling thread; steps per host second. One thread even
/// for the two-thread workloads: two short-lived probe threads often land
/// on one vCPU and halve each other, which says nothing about the host.
pub fn rate() -> f64 {
    let mut buf = vec![0u64; WORDS];
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut idx = 0usize;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        idx = (idx + (x as usize & 0xff) * 8 + 1) & (WORDS - 1);
        buf[idx] = buf[idx].wrapping_add(x);
    }
    std::hint::black_box(&buf);
    STEPS as f64 / t0.elapsed().as_secs_f64()
}

/// `chunk_mhz[i]` scaled to [`REFERENCE_RATE`] by the mean of the probe
/// rates measured just before and just after chunk `i`
/// (`probe.len() == chunk_mhz.len() + 1`).
pub fn corrected(chunk_mhz: &[f64], probe: &[f64]) -> Vec<f64> {
    chunk_mhz
        .iter()
        .zip(probe.windows(2))
        .map(|(mhz, around)| mhz * REFERENCE_RATE / ((around[0] + around[1]) / 2.0))
        .collect()
}
