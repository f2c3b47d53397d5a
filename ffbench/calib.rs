//! Host speed, measured by a fixed calibration loop.
//!
//! The benchmark host is shared, and other tenants slow every program on
//! it, at times by half or more, for minutes at a time. A run measures too
//! briefly to average that out, so every timed end-to-end metric is
//! reported at a reference host speed instead: its measured time is scaled by
//! ([`REFERENCE_NS_PER_OP`] ÷ the calibration loop's time per operation)
//! raised to [`SLOPE`], with the loop timed right before and right after
//! the work it scales. The loop is this benchmark's own code, not the
//! simulator's, so a change to the simulator moves the metrics in full;
//! only a change in host speed is divided out.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// About the loop's host nanoseconds per operation on the host described
/// under Baseline in `README.md` while no other tenant is busy.
pub const REFERENCE_NS_PER_OP: f64 = 9.7;

/// How much more than the loop a simulation slows as the host gets busier:
/// the log-log slope of simulation time against the loop's. In
/// ten-minute traces of GAP and SPEC-like simulations, each bracketed by
/// probes, on a host loaded enough to slow the loop by 30–60%, the slope
/// of each kernel × technique ranged from 0.8 to 1.9 and averaged 1.2
/// (GAP) and 1.4 (SPEC-like). Over 30-second windows of those traces,
/// 1.2 gave the narrowest spreads of the per-window medians on both.
pub const SLOPE: f64 = 1.2;

/// Operations one probe times: about 20 ms.
const PROBE_OPS: u64 = 1 << 21;

/// Bytecode length (a power of two).
const CODE_LEN: usize = 4096;

/// Words of the loop's data table (a power of two): 4 MiB, twice a
/// core's L2 on the reference host, so the loop contends for the shared
/// last-level cache as the simulations do. In ten-minute traces of
/// simulations each followed by probes, the simulations' time moved about
/// in proportion to the loop's as host speed changed (log-log slope 0.7
/// to 1.3 per kernel, mean 1.0); with a 256 KiB table they moved about
/// 1.6 times as much as the loop, and with 2 MiB 1.2 times.
const TABLE_WORDS: usize = 1 << 19;

/// The table's resident size, which `peak_rss_mib` leaves out.
pub const TABLE_MIB: f64 = (TABLE_WORDS * 8) as f64 / (1 << 20) as f64;

/// A small register-machine interpreter over fixed random bytecode: the
/// same mix of unpredictable dispatch, arithmetic and table loads and
/// stores as a functional simulator's inner loop.
#[derive(Debug)]
pub struct Calibration {
    code: Vec<u8>,
    table: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let code = (0..CODE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        Calibration {
            code,
            table: vec![1; TABLE_WORDS],
        }
    }
}

impl Calibration {
    /// Runs the loop once; host nanoseconds per operation. The table is
    /// read through first, untimed, so that the cache footprint of
    /// whatever ran before does not change the probe's time.
    pub fn probe(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u64, |a, w| a.wrapping_add(*w)));
        let start = Instant::now();
        black_box(self.run(black_box(PROBE_OPS)));
        start.elapsed().as_nanos() as f64 / PROBE_OPS as f64
    }

    fn run(&mut self, ops: u64) -> u64 {
        let mut r = [1u64; 8];
        let mut pc = 0;
        for _ in 0..ops {
            let op = self.code[pc];
            let a = usize::from(op >> 3) & 7;
            match op & 7 {
                0 => r[a] = r[a].wrapping_add(r[(a + 1) & 7]),
                1 => r[a] ^= r[a] << 7,
                2 => r[a] = self.table[r[a] as usize & (TABLE_WORDS - 1)],
                3 => self.table[r[(a + 3) & 7] as usize & (TABLE_WORDS - 1)] = r[a],
                4 if r[a] & 1 == 1 => pc = (pc + 7) & (CODE_LEN - 1),
                5 => r[a] = r[a].wrapping_mul(0x9E37_79B9_7F4A_7C15),
                6 => r[a] = r[a].rotate_left(13) ^ r[(a + 5) & 7],
                7 => r[a] = r[a] >> 3 | 1,
                _ => {}
            }
            pc = (pc + 1) & (CODE_LEN - 1);
        }
        r.iter().fold(0, |acc, v| acc.wrapping_add(*v))
    }
}

/// How much faster than measured the reference host is, judged by the
/// median of `probes` (the loop's ns per operation): multiply a measured
/// time by it, or divide a measured rate by it. 1 without probes.
pub fn speed_scale(probes: &[f64]) -> f64 {
    if probes.is_empty() {
        1.0
    } else {
        (REFERENCE_NS_PER_OP / median(probes)).powf(SLOPE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_times_the_loop_and_scale_follows_its_median() {
        let mut cal = Calibration::default();
        let probes: Vec<f64> = (0..3).map(|_| cal.probe()).collect();
        assert!(probes.iter().all(|p| p.is_finite() && *p > 0.0));
        assert_eq!(speed_scale(&[]), 1.0);
        assert_eq!(speed_scale(&[REFERENCE_NS_PER_OP]), 1.0);
        let half = REFERENCE_NS_PER_OP / 2.0;
        assert_eq!(speed_scale(&[half, 100.0, 0.1]), 2f64.powf(SLOPE));
    }
}
