//! What the harness measures about the machine it runs on, and how it keeps
//! the environment from leaking into a run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Pool width every workload runs at: the two hardware threads of the
/// reference machine, with the caller taking part in joins.
pub const POOL_THREADS: usize = 2;

/// Removes every `GILLIS_*` variable and pins the pool width, so no knob of
/// the caller's shell reaches a policy, the chaos injector or the kernels.
/// Call before anything touches the library: `GILLIS_THREADS` and
/// `GILLIS_NO_SIMD` are read once and cached.
pub fn scrub_environment() {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("GILLIS_"))
        .collect();
    for key in stale {
        std::env::remove_var(key);
    }
    std::env::set_var("GILLIS_THREADS", POOL_THREADS.to_string());
}

/// Seconds one fixed integer spin loop takes. The loop's work never changes,
/// so the ratio between two calls is how much the host's speed moved.
pub fn calibration_spin() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..12_000_000_u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Slowest over fastest of a workload's calibration spins; above 1.10 the
/// run is flagged noisy.
pub fn calibration_spread(spins: &[f64]) -> f64 {
    let lo = spins.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = spins.iter().copied().fold(0.0, f64::max);
    hi / lo
}

const FMA_LANES: usize = 64;

#[inline(always)]
fn fma_chains(iters: u32) -> f32 {
    // 64 independent accumulators: eight 8-wide vectors, enough chains to
    // cover the FMA latency on two issue ports.
    let mut acc = [1.0_f32; FMA_LANES];
    let a = black_box(1.000_001_f32);
    let b = black_box(1e-9_f32);
    for _ in 0..iters {
        for v in acc.iter_mut() {
            *v = v.mul_add(a, b);
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u32) -> f32 {
    fma_chains(iters)
}

/// Single-core fused-multiply-add peak in GFLOP/s (best of five bursts): the
/// compute roof `tensor.conv_roofline_frac` is measured against. Without
/// AVX2+FMA the loop still runs, through whatever `mul_add` lowers to.
pub fn fma_peak_gflops() -> f64 {
    const ITERS: u32 = 2_000_000;
    let mut best = 0.0_f64;
    for _ in 0..5 {
        let start = Instant::now();
        #[cfg(target_arch = "x86_64")]
        let sum = if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the two CPU features the function is compiled for were
            // just detected on this machine.
            unsafe { fma_chains_avx2(ITERS) }
        } else {
            fma_chains(ITERS)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let sum = fma_chains(ITERS);
        let secs = start.elapsed().as_secs_f64();
        black_box(sum);
        best = best.max(2.0 * FMA_LANES as f64 * f64::from(ITERS) / secs / 1e9);
    }
    best
}

/// Read bandwidth in GB/s with every pool thread streaming its own 64 MB
/// buffer (best of three passes): the memory roof for the GEMV-shaped dense
/// and LSTM kernels, which read each weight once per use.
pub fn stream_gbps() -> f64 {
    const WORDS: usize = 16 << 20;
    let buffers: Vec<Vec<f32>> = (0..POOL_THREADS)
        .map(|t| vec![t as f32 + 0.5; WORDS])
        .collect();
    let mut best = 0.0_f64;
    for _ in 0..3 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for buf in &buffers {
                scope.spawn(move || {
                    let mut acc = [0.0_f32; 16];
                    for chunk in buf.chunks_exact(16) {
                        for (a, x) in acc.iter_mut().zip(chunk) {
                            *a += x;
                        }
                    }
                    black_box(acc);
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        best = best.max((POOL_THREADS * WORDS * 4) as f64 / secs / 1e9);
    }
    best
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` does
/// not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process allocator: `System`, plus a count of allocations while a
/// traced run asks for one. Untraced runs never switch counting on, so for
/// them each allocation costs one relaxed load more than plain `System`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation is delegated to `System` unchanged; the counter is
// a relaxed atomic and allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations (on every thread) while `f` runs.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_slowest_over_fastest() {
        assert!((calibration_spread(&[0.02, 0.025, 0.021]) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn allocations_inside_the_closure_are_counted() {
        let (v, n) = count_allocs(|| vec![0_u8; 4096]);
        assert!(n >= 1);
        assert_eq!(v.len(), 4096);
    }
}
