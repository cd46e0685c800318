//! int8 symmetric per-output-channel quantization: weight format, the
//! int8×int8→i32 matrix kernels, and the activation payload helpers the
//! fork-join wire format uses.
//!
//! # Format
//!
//! Weights quantize per output channel (matrix row): row `r` of an `m`×`k`
//! f32 matrix is stored as `k` signed bytes plus one f32 scale
//! `s_r = max|row| / 127`, so `w[r][c] ≈ q[r][c] · s_r` with
//! `|w − q·s| ≤ s_r / 2` per element. A zero row gets scale `0` and all-zero
//! bytes (dequantizes exactly). Activations quantize per tensor with the
//! same symmetric rule, at run time.
//!
//! # Accumulation
//!
//! The inner product runs entirely in `i32` (`q_w · q_x` summed), then one
//! f32 multiply by `s_r · s_x` converts back. Integer addition is
//! associative, so the quantized kernels are *exactly* deterministic: the
//! same result for any thread count and for the SIMD and scalar dot-product
//! paths — only the quantization itself loses precision. Lane accumulators
//! bound `k` at [`MAX_QUANT_K`] (asserted at quantization time), far above
//! any layer in the model zoo (VGG fc6 has `k = 25088`).
//!
//! # Error bound
//!
//! For inputs with `max|x| = X`, `max|w_r| = W` along a row of length `k`,
//! the absolute output error of `qdot` is at most
//! `k · (W·X/127) · (1/2 + 1/2 + 1/(2·127))` — each operand contributes up
//! to half a quantization step — i.e. roughly `k · W · X / 120`. The
//! proptests below check a slightly looser bound to absorb f32 rounding of
//! the scale product.

use crate::simd::dot_i8;
use gillis_pool::{Pool, Task};
use std::cell::RefCell;

/// Maximum reduction length for int8 kernels: per-step products are
/// ≤ 127², and the AVX2 lane accumulators sum `k/16` pair-sums of two
/// products each, so `k < 2³¹ / (2 · 127²) / 16 ≈ 4.1M`. `1 << 20` leaves
/// a wide margin and still covers every model in the zoo.
pub const MAX_QUANT_K: usize = 1 << 20;

/// Quantization maximum: symmetric int8 uses `[-127, 127]` (not −128) so
/// negation stays in range and scales are symmetric.
pub const QMAX: f32 = 127.0;

/// An `m`×`k` f32 matrix quantized row-wise to int8 with per-row scales —
/// the deployment-time weight format of quantized compiled partitions.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes the row-major `m`×`k` matrix `a` with per-row symmetric
    /// scales.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k` or `k > MAX_QUANT_K`.
    pub fn quantize(m: usize, k: usize, a: &[f32]) -> Self {
        assert_eq!(a.len(), m * k, "A must be m*k");
        assert!(k <= MAX_QUANT_K, "reduction length {k} exceeds int8 bound");
        let mut data = vec![0i8; m * k];
        let mut scales = vec![0.0f32; m];
        for r in 0..m {
            let row = &a[r * k..(r + 1) * k];
            let max_abs = row.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            if max_abs == 0.0 {
                continue; // scale 0, all-zero bytes: dequantizes exactly
            }
            let scale = max_abs / QMAX;
            scales[r] = scale;
            let inv = QMAX / max_abs;
            for (q, v) in data[r * k..(r + 1) * k].iter_mut().zip(row.iter()) {
                *q = (v * inv).round().clamp(-QMAX, QMAX) as i8;
            }
        }
        QuantizedMatrix {
            rows: m,
            cols: k,
            data,
            scales,
        }
    }

    /// Row count (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column (reduction) count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row quantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Storage footprint in bytes (int8 payload + f32 scales) — what a
    /// panel cache accounts against memory, and ~¼ of the f32 original.
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Dequantizes row `r` into `out` (length `cols`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `out.len() != cols`.
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols);
        let s = self.scales[r];
        for (o, q) in out
            .iter_mut()
            .zip(&self.data[r * self.cols..(r + 1) * self.cols])
        {
            *o = *q as f32 * s;
        }
    }

    fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Quantizes an f32 slice symmetrically with one per-tensor scale, writing
/// int8 into `out` (cleared and resized — reuse a scratch buffer to stay
/// allocation-free after warmup). Returns the scale (`0.0` for all-zero
/// input, which round-trips exactly).
pub fn quantize_payload(x: &[f32], out: &mut Vec<i8>) -> f32 {
    out.clear();
    out.resize(x.len(), 0);
    let max_abs = x.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
    if max_abs == 0.0 {
        return 0.0;
    }
    let inv = QMAX / max_abs;
    for (q, v) in out.iter_mut().zip(x.iter()) {
        *q = (v * inv).round().clamp(-QMAX, QMAX) as i8;
    }
    max_abs / QMAX
}

/// Dequantizes an int8 payload into an existing f32 slot — the join-buffer
/// write of the quantized wire format. Never allocates.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dequantize_payload_into(q: &[i8], scale: f32, out: &mut [f32]) {
    assert_eq!(q.len(), out.len(), "payload length mismatch");
    for (o, v) in out.iter_mut().zip(q.iter()) {
        *o = *v as f32 * scale;
    }
}

/// Simulates the int8 wire round trip in place on a join-buffer slot:
/// quantize with a per-payload scale, dequantize back into the same slot.
/// Uses a thread-local int8 scratch buffer, so after warmup the per-query
/// hot path performs no allocation.
pub fn wire_roundtrip_in_place(slot: &mut [f32]) {
    WIRE_SCRATCH.with(|s| {
        let mut buf = s.borrow_mut().take();
        let scale = quantize_payload(slot, &mut buf);
        dequantize_payload_into(&buf, scale, slot);
        s.borrow_mut().put(buf);
    });
}

/// One reusable int8 buffer per thread for wire-format round trips and
/// activation quantization inside [`qgemv`] — mirrors `scratch::Scratch`
/// but for `Vec<i8>`.
#[derive(Debug, Default)]
struct QuantScratch {
    slot: Vec<i8>,
}

impl QuantScratch {
    fn take(&mut self) -> Vec<i8> {
        std::mem::take(&mut self.slot)
    }

    fn put(&mut self, buf: Vec<i8>) {
        if buf.capacity() > self.slot.capacity() {
            self.slot = buf;
        }
    }
}

thread_local! {
    static WIRE_SCRATCH: RefCell<QuantScratch> = RefCell::new(QuantScratch::default());
    static ACT_SCRATCH: RefCell<QuantScratch> = RefCell::new(QuantScratch::default());
    static COL_SCRATCH: RefCell<QuantScratch> = RefCell::new(QuantScratch::default());
}

/// `out += dequant(Q·quant(x))`: quantized matrix–vector product behind
/// quantized dense layers and LSTM gates. `out` must be pre-initialized
/// (zeros or bias). The input is quantized per-tensor on the fly into a
/// thread-local scratch buffer; each row's i32 dot is exact, so results are
/// bit-identical across thread counts and SIMD/scalar dispatch.
///
/// # Panics
///
/// Panics if the slice lengths do not match the quantized dimensions.
pub fn qgemv(q: &QuantizedMatrix, x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), q.cols, "x must be cols");
    assert_eq!(out.len(), q.rows, "out must be rows");
    ACT_SCRATCH.with(|s| {
        let mut qx = s.borrow_mut().take();
        let sx = quantize_payload(x, &mut qx);
        for (r, o) in out.iter_mut().enumerate() {
            let acc = dot_i8(q.row(r), &qx);
            *o += acc as f32 * (q.scales[r] * sx);
        }
        s.borrow_mut().put(qx);
    });
}

/// `C += dequant(Q·quant(B))` with `B` row-major `k`×`n` and `C` row-major
/// `m`×`n` — the quantized counterpart of `gemm` for convolutions
/// whose weights were quantized at compile time. `B` (the im2col matrix) is
/// quantized per-tensor into a transposed `n`×`k` int8 scratch so every
/// `(row, column)` pair reduces over two contiguous byte runs.
///
/// Threads split output rows exactly like `gemm`; integer accumulation
/// keeps results bit-identical for any thread count.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn qgemm(q: &QuantizedMatrix, n: usize, b: &[f32], c: &mut [f32]) {
    let (m, k) = (q.rows, q.cols);
    assert_eq!(b.len(), k * n, "B must be k*n");
    assert_eq!(c.len(), m * n, "C must be m*n");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    COL_SCRATCH.with(|s| {
        let mut bt = s.borrow_mut().take();
        // Transpose-quantize B into n-major rows of length k.
        bt.clear();
        bt.resize(k * n, 0);
        let max_abs = b.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
        let sb = if max_abs == 0.0 { 0.0 } else { max_abs / QMAX };
        if sb != 0.0 {
            let inv = QMAX / max_abs;
            for (kk, brow) in b.chunks_exact(n).enumerate() {
                for (j, v) in brow.iter().enumerate() {
                    bt[j * k + kk] = (v * inv).round().clamp(-QMAX, QMAX) as i8;
                }
            }
        }
        let threads = crate::gemm::gemm_threads(m.saturating_mul(n).saturating_mul(k)).clamp(1, m);
        if threads == 1 {
            qgemm_rows(q, 0, n, &bt, sb, c);
        } else {
            let rows_per = m.div_ceil(threads);
            let bt_ref: &[i8] = &bt;
            let tasks: Vec<Task> = c
                .chunks_mut(rows_per * n)
                .enumerate()
                .map(|(t, c_chunk)| -> Task {
                    let row0 = t * rows_per;
                    Box::new(move || qgemm_rows(q, row0, n, bt_ref, sb, c_chunk))
                })
                .collect();
            Pool::global().join_all(tasks);
        }
        s.borrow_mut().put(bt);
    });
}

/// Quantized kernel over output rows `row0 .. row0 + c.len()/n` against the
/// transposed int8 `B` (`n` rows of length `k`).
fn qgemm_rows(q: &QuantizedMatrix, row0: usize, n: usize, bt: &[i8], sb: f32, c: &mut [f32]) {
    let k = q.cols;
    let rows = c.len() / n;
    for r in 0..rows {
        let qrow = q.row(row0 + r);
        let scale = q.scales[row0 + r] * sb;
        let c_row = &mut c[r * n..(r + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            let acc = dot_i8(qrow, &bt[j * k..(j + 1) * k]);
            *cv += acc as f32 * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pseudo(i: usize, seed: u32, span: f32) -> f32 {
        (((i as u32 ^ seed).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0) * span
    }

    #[test]
    fn zero_matrix_roundtrips_exactly() {
        let q = QuantizedMatrix::quantize(3, 5, &[0.0; 15]);
        assert_eq!(q.scales(), &[0.0, 0.0, 0.0]);
        let mut row = [1.0f32; 5];
        q.dequantize_row_into(0, &mut row);
        assert_eq!(row, [0.0; 5]);
    }

    #[test]
    fn bytes_are_quarter_of_f32() {
        let q = QuantizedMatrix::quantize(8, 256, &vec![1.0; 8 * 256]);
        let f32_bytes = 8 * 256 * 4;
        assert!(q.bytes() * 4 <= f32_bytes + 4 * q.rows() * 4);
    }

    #[test]
    fn payload_roundtrip_zero_is_exact() {
        let mut buf = Vec::new();
        let scale = quantize_payload(&[0.0; 9], &mut buf);
        assert_eq!(scale, 0.0);
        let mut out = [5.0f32; 9];
        dequantize_payload_into(&buf, scale, &mut out);
        assert_eq!(out, [0.0; 9]);
    }

    #[test]
    fn wire_roundtrip_reuses_scratch() {
        let mut slot: Vec<f32> = (0..64).map(|i| i as f32 - 32.0).collect();
        wire_roundtrip_in_place(&mut slot);
        // Second call must reuse the warmed thread-local capacity.
        let mut slot2: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        wire_roundtrip_in_place(&mut slot2);
        for (i, v) in slot.iter().enumerate() {
            let want = i as f32 - 32.0;
            assert!(
                (v - want).abs() <= 32.0 / QMAX * 0.5 + 1e-6,
                "{v} vs {want}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Round-trip error is bounded by half a quantization step per
        /// element, across per-channel scales, zero rows, and extreme
        /// magnitudes (1e-6 .. 1e6 spans).
        #[test]
        fn quantize_dequantize_roundtrip_bound(
            (m, k) in (1usize..8, 1usize..64),
            seed in 0u32..1000,
            span_exp in -6i32..7,
            zero_row in 0usize..8,
        ) {
            let span = 10.0f32.powi(span_exp);
            let a: Vec<f32> = (0..m * k)
                .map(|i| {
                    if i / k == zero_row { 0.0 } else { pseudo(i, seed, span) }
                })
                .collect();
            let q = QuantizedMatrix::quantize(m, k, &a);
            let mut row = vec![0.0f32; k];
            for r in 0..m {
                q.dequantize_row_into(r, &mut row);
                let orig = &a[r * k..(r + 1) * k];
                let max_abs = orig.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
                // Half a step, plus ulp slack on the scale multiply.
                let tol = max_abs / QMAX * 0.5 * (1.0 + 1e-5) + f32::MIN_POSITIVE;
                for (got, want) in row.iter().zip(orig) {
                    prop_assert!((got - want).abs() <= tol,
                        "row {}: {} vs {} (tol {})", r, got, want, tol);
                }
            }
        }

        /// Activation payload round trip obeys the same half-step bound.
        #[test]
        fn payload_roundtrip_bound(
            len in 1usize..128,
            seed in 0u32..1000,
            span_exp in -6i32..7,
        ) {
            let span = 10.0f32.powi(span_exp);
            let x: Vec<f32> = (0..len).map(|i| pseudo(i, seed, span)).collect();
            let mut buf = Vec::new();
            let scale = quantize_payload(&x, &mut buf);
            let mut back = vec![0.0f32; len];
            dequantize_payload_into(&buf, scale, &mut back);
            let max_abs = x.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let tol = max_abs / QMAX * 0.5 * (1.0 + 1e-5) + f32::MIN_POSITIVE;
            for (got, want) in back.iter().zip(&x) {
                prop_assert!((got - want).abs() <= tol, "{} vs {}", got, want);
            }
        }

        /// qgemv tracks the f32 product within the documented kernel error
        /// bound, and is bit-identical across thread counts trivially
        /// (integer accumulation) — checked by running it twice.
        #[test]
        fn qgemv_tracks_f32_within_bound(
            (rows, cols) in (1usize..10, 1usize..96),
            seed in 0u32..1000,
        ) {
            let w: Vec<f32> = (0..rows * cols).map(|i| pseudo(i, seed, 1.0)).collect();
            let x: Vec<f32> = (0..cols).map(|i| pseudo(i, seed ^ 0xf00, 1.0)).collect();
            let q = QuantizedMatrix::quantize(rows, cols, &w);
            let mut got = vec![0.0f32; rows];
            qgemv(&q, &x, &mut got);
            let mut again = vec![0.0f32; rows];
            qgemv(&q, &x, &mut again);
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                again.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let xmax = x.iter().fold(0.0f32, |a, v| a.max(v.abs()));
            for r in 0..rows {
                let want: f32 = w[r * cols..(r + 1) * cols]
                    .iter().zip(&x).map(|(a, b)| a * b).sum();
                let wmax = w[r * cols..(r + 1) * cols]
                    .iter().fold(0.0f32, |a, v| a.max(v.abs()));
                let tol = cols as f32 * wmax * xmax / 100.0 + 1e-5;
                prop_assert!((got[r] - want).abs() <= tol,
                    "row {}: {} vs {} (tol {})", r, got[r], want, tol);
            }
        }

        /// qgemm agrees with quantizing both operands and computing the
        /// product in exact integer arithmetic (the reference semantics of
        /// the kernel), and is deterministic across thread counts.
        #[test]
        fn qgemm_matches_integer_reference_across_threads(
            (m, n, k) in (1usize..8, 1usize..24, 1usize..48),
            seed in 0u32..1000,
        ) {
            let a: Vec<f32> = (0..m * k).map(|i| pseudo(i, seed, 2.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|i| pseudo(i, seed ^ 0x9e37, 2.0)).collect();
            let q = QuantizedMatrix::quantize(m, k, &a);
            let mut base = vec![0.0f32; m * n];
            qgemm(&q, n, &b, &mut base);
            // Thread-count invariance: force the pooled path indirectly by
            // re-running; integer accumulation makes order irrelevant.
            let mut again = vec![0.0f32; m * n];
            qgemm(&q, n, &b, &mut again);
            prop_assert_eq!(
                base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                again.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            // Reference: dequantized integer dot with the same scales.
            let bmax = b.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let sb = if bmax == 0.0 { 0.0 } else { bmax / QMAX };
            for r in 0..m {
                for j in 0..n {
                    let mut acc = 0i32;
                    for kk in 0..k {
                        let qa = q.row(r)[kk] as i32;
                        let qb = if sb == 0.0 { 0 } else {
                            // Same rounding expression as the kernel.
                            (b[kk * n + j] * (QMAX / bmax)).round().clamp(-QMAX, QMAX) as i32
                        };
                        acc += qa * qb;
                    }
                    let want = acc as f32 * (q.scales()[r] * sb);
                    prop_assert!((base[r * n + j] - want).abs() <= 1e-4_f32.max(want.abs() * 1e-5),
                        "({}, {}): {} vs {}", r, j, base[r * n + j], want);
                }
            }
        }
    }
}
