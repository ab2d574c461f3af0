//! Sample statistics, the pass loop, the host-speed probe, peak-RSS
//! readings and seed derivation.

use crate::layers::Spans;
use schematic_benchsuite::inputs::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// Derives an independent 64-bit seed for one input stream (kernel
/// inputs, one stochastic supply, ...) from the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BBB5)).next_u64()
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 <= q <= 1`) of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest sample with at least [`TAIL_BEYOND`] samples above it,
/// with its percentile. `None` when there are too few samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = v.len() - 1 - TAIL_BEYOND;
    Some((v[i], 100.0 * (i + 1) as f64 / v.len() as f64))
}

/// A fixed integer loop that depends on nothing the repository's code
/// does: its time tracks host speed only. Returns milliseconds.
pub fn host_probe_ms() -> f64 {
    let t = Instant::now();
    let mut g = SplitMix64::new(0x5EED);
    let mut acc = 0u64;
    for _ in 0..(1 << 20) {
        acc = acc.rotate_left(7) ^ black_box(g.next_u64());
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall times of the passes of one run.
#[derive(Debug, Default)]
pub struct Passes {
    /// Seconds of each untraced pass.
    pub walls: Vec<f64>,
    /// Seconds of each traced pass (traced runs only).
    pub traced_walls: Vec<f64>,
    /// Host-probe milliseconds taken before each pass.
    pub probes: Vec<f64>,
}

/// Runs `pass` back to back until `seconds` have elapsed and, in an
/// untraced run, until there are enough passes for a tail (a pass
/// slower than expected lengthens the run instead of dropping the
/// metric). `pass` returns the seconds its timed part took. In a
/// traced run every second pass records layer spans, so untraced and
/// traced passes interleave and their medians give the tracing
/// overhead.
pub fn run_passes(
    seconds: f64,
    traced: bool,
    spans: &mut Spans,
    mut pass: impl FnMut(&mut Spans) -> Result<f64, String>,
) -> Result<Passes, String> {
    let min_passes = if traced { 2 } else { TAIL_BEYOND + 1 };
    let mut passes = Passes::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i < min_passes || start.elapsed().as_secs_f64() < seconds {
        passes.probes.push(host_probe_ms());
        let instrumented = traced && i % 2 == 1;
        spans.set_enabled(instrumented);
        let wall = pass(spans)?;
        if instrumented {
            passes.traced_walls.push(wall);
        } else {
            passes.walls.push(wall);
        }
        i += 1;
    }
    spans.set_enabled(traced);
    Ok(passes)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set in MB of the largest waited-for descendant
/// (`getrusage(RUSAGE_CHILDREN)`; it covers grandchildren whose parent
/// waited for them, such as `gridd`'s workers).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s of two longs each, then fourteen longs), and
    // `usage` is a valid, exclusively borrowed destination for the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        assert_eq!(tail(&xs[..10]), None);
        assert_eq!(tail(&xs[..11]).map(|t| t.0), Some(1.0));
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
    }
}
