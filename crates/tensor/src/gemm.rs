//! The blocked f32 GEMM driver every convolution lowers to, plus the
//! matrix–vector products behind `dense` and the LSTM gates.
//!
//! [`conv_gemm_with_threads`] and [`gemm`] are one driver over two layouts of
//! the `B` operand: the im2col matrix of a CHW image, which is never
//! materialised, and an explicit row-major matrix. The naive kernels the
//! driver replaces live on in `ops` as test-only references.
//!
//! # What is packed where
//!
//! The driver walks `NC` columns → `KC` reduction steps → batch items. For
//! each such block it packs `KC × NC` values of `B` into `NR`-wide
//! micro-panels in one bounded per-thread buffer
//! ([`Site::PackB`](crate::scratch::Site), at most `KC·NC` floats), straight
//! from the image or the matrix, and sweeps `MR` rows of `A` at a time over
//! every panel through one `MR × NR` micro-kernel. `A` — a filter bank — is
//! read in place from the caller's row-major rows: nothing about it is
//! copied, at compile time or per call. Batch items share the `A` slab of a
//! `KC` step while it is cache-hot and write their own output buffers.
//!
//! # Determinism contract
//!
//! Every output element starts from the value the caller put in `C` (zeros
//! or a bias) and takes one multiply-add per `k`, in ascending order, inside
//! one thread. A micro-kernel tile holds that element in a register for `KC`
//! steps and stores it as an `f32` in between, which changes nothing; edge
//! tiles run the same kernel with fewer rows or on a padded copy of the
//! tile. So an element's history does not depend on `MR`, `NR`, `KC`, `NC`,
//! on where the element sits in a tile, on the batch it rode in, or on how
//! threads split the output: results are bit-identical across
//! `GILLIS_THREADS` settings and batch widths, and equal to a naive
//! `acc += a[i][k] * b[k][j]` loop — the accumulation order of the reference
//! convolution (padding taps are explicit `0.0` entries of `B`, which only
//! affect the sign of a zero).
//!
//! With the `simd` cargo feature enabled *and* AVX2+FMA reported at runtime
//! (see [`crate::simd::simd_active`]) the multiply-add is fused. That changes
//! each step's rounding — outputs equal a scalar `f32::mul_add` loop, not
//! the `mul` + `add` one — and nothing else above. Set `GILLIS_NO_SIMD=1` to
//! force the scalar kernel at runtime.
//!
//! # Threading
//!
//! Multi-threaded calls run on the process-wide persistent pool
//! ([`gillis_pool::Pool::global`]). The output is cut into one chunk per
//! thread along whichever dimension has more micro-tiles — `NR`-aligned
//! columns when `n` is wide, `MR`-aligned rows otherwise — and each thread
//! packs only the `B` it consumes. Small problems skip the pool: below
//! [`GEMM_PAR_MIN_MNK`] / [`GEMV_PAR_MIN_CELLS`] the dispatch overhead
//! exceeds the parallel win (the `*_with_threads` entry points honour the
//! caller's count unconditionally — results are bit-identical either way).

use std::ops::Range;

use gillis_pool::{Pool, Task};

use crate::scratch::{self, Site};

/// Rows of `A` per micro-kernel tile.
const MR: usize = 6;
/// Columns of `B` per micro-kernel tile: two AVX vectors, so a full tile
/// keeps `2·MR = 12` independent accumulators in flight.
const NR: usize = 16;
/// Reduction steps per packed block: one micro-panel (`KC × NR` floats) stays
/// in L1 while the rows of `A` sweep over it.
const KC: usize = 256;
/// Columns per packed block: `KC × NC` floats (512 KiB) is all the working
/// memory a thread ever holds.
const NC: usize = 512;

/// Small-GEMM cutoff on `m·n·k` (multiply-add count). Below this the whole
/// product finishes in roughly the time a pool round trip costs, so [`gemm`]
/// stays single-threaded. `128·32·32 = 131072` MACs is ~60–100 µs of blocked
/// kernel on one core — comfortably above batch-dispatch latency but small
/// enough that splitting it buys nothing.
pub const GEMM_PAR_MIN_MNK: usize = 1 << 17;

/// Small-GEMV cutoff on `rows·cols` (weight cells). A matrix–vector product
/// is memory-bound — one pass over the weight matrix — so the parallel win
/// only covers dispatch once the matrix is a few megabytes. `1 << 19` cells
/// (2 MiB of f32 weights) keeps the LSTM gate GEMVs (`1024×256`) and other
/// sub-megabyte products on the calling thread while the VGG classifier
/// head (`1000×4096`, 16 MiB) still fans out.
pub const GEMV_PAR_MIN_CELLS: usize = 1 << 19;

/// Worker-thread count for the kernels in this crate — re-exported from
/// [`gillis_pool::gillis_threads`] (the `GILLIS_THREADS` environment
/// variable, or the machine's available parallelism).
pub fn gillis_threads() -> usize {
    gillis_pool::gillis_threads()
}

/// Thread count for `macs` multiply-adds: one below [`GEMM_PAR_MIN_MNK`],
/// [`gillis_threads`] from there on.
pub(crate) fn gemm_threads(macs: usize) -> usize {
    if macs < GEMM_PAR_MIN_MNK {
        1
    } else {
        gillis_threads()
    }
}

/// Thread count for a `rows × cols` matrix–vector product: one below
/// [`GEMV_PAR_MIN_CELLS`], [`gillis_threads`] from there on.
pub(crate) fn gemv_threads(rows: usize, cols: usize) -> usize {
    if rows.saturating_mul(cols) < GEMV_PAR_MIN_CELLS {
        1
    } else {
        gillis_threads()
    }
}

/// The geometry of a convolution's im2col matrix over one CHW image: row
/// `(ic·kh + ky)·kw + kx`, column `oy·out_w + ox` is the input value that tap
/// touches for that output position, or `0.0` where it falls in the padding.
/// Bottom and right padding are implied by `out_hw`. The
/// `(channels·kh·kw) × (out_h·out_w)` matrix multiplies against the
/// `[out_c, in_c·kh·kw]` weight matrix — the weights' native layout.
#[derive(Debug, Clone, Copy)]
pub struct Im2col {
    /// Input channels.
    pub channels: usize,
    /// Input height and width.
    pub in_hw: (usize, usize),
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Vertical and horizontal stride.
    pub stride: (usize, usize),
    /// Zero rows above and zero columns left of the input.
    pub pad_tl: (usize, usize),
    /// Output height and width.
    pub out_hw: (usize, usize),
}

impl Im2col {
    /// Rows of the matrix: the reduction length of the convolution.
    pub fn k(&self) -> usize {
        self.channels * self.kernel.0 * self.kernel.1
    }

    /// Columns of the matrix: output positions.
    pub fn n(&self) -> usize {
        self.out_hw.0 * self.out_hw.1
    }

    /// Whether the matrix is the image itself (a 1×1, stride-1, unpadded
    /// convolution), so the image can be read as a row-major `B`.
    pub fn is_image(&self) -> bool {
        self.kernel == (1, 1)
            && self.stride == (1, 1)
            && self.pad_tl == (0, 0)
            && self.out_hw == self.in_hw
    }

    /// The taps `(ic, ky, kx)` of rows `r0, r0 + 1, ..` of the matrix. (An
    /// iterator, because dividing `r` back into a tap costs more than a short
    /// row of the matrix does.)
    fn taps(&self, r0: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        let (kh, kw) = self.kernel;
        let mut next = (r0 / (kh * kw), r0 / kw % kh, r0 % kw);
        std::iter::repeat_with(move || {
            let tap = next;
            next = match next {
                (ic, ky, kx) if kx + 1 < kw => (ic, ky, kx + 1),
                (ic, ky, _) if ky + 1 < kh => (ic, ky + 1, 0),
                (ic, ..) => (ic + 1, 0, 0),
            };
            tap
        })
    }

    /// Writes `dst.len()` columns of the row of tap `(ic, ky, kx)` of the
    /// matrix of `input` into `dst`, starting at output position `(oy, ox0)`,
    /// padding taps as `0.0`.
    fn row(
        &self,
        input: &[f32],
        (ic, ky, kx): (usize, usize, usize),
        (mut oy, mut ox0): (usize, usize),
        mut dst: &mut [f32],
    ) {
        let (in_h, in_w) = self.in_hw;
        let (sh, sw) = self.stride;
        let out_w = self.out_hw.1;
        let plane = &input[ic * in_h * in_w..][..in_h * in_w];
        // Zero once, then copy what the input covers: cheaper than zeroing
        // the two ends of every output row.
        dst.fill(0.0);
        if self.stride == (1, 1) && out_w == in_w {
            return self.shifted_row(plane, ky, kx, oy * out_w + ox0, dst);
        }
        while !dst.is_empty() {
            // One output row (or what is left of it) per step.
            let (seg, rest) = dst.split_at_mut((out_w - ox0).min(dst.len()));
            let iy = oy * sh + ky;
            if iy >= self.pad_tl.0 && iy - self.pad_tl.0 < in_h {
                let src = &plane[(iy - self.pad_tl.0) * in_w..][..in_w];
                // Output column `ox0 + t` reads input column `ix0 + t·sw`,
                // which lies inside the row for `t` in `lo .. hi`.
                let ix0 = (ox0 * sw + kx) as isize - self.pad_tl.1 as isize;
                // (No division on the stride-1 path: it runs per output row.)
                let steps = |d: isize| match sw {
                    1 => d.max(0) as usize,
                    _ => (d.max(0) as usize).div_ceil(sw),
                };
                let lo = steps(-ix0).min(seg.len());
                let hi = steps(in_w as isize - ix0).min(seg.len());
                if lo < hi {
                    let src = &src[(ix0 + (lo * sw) as isize) as usize..];
                    if sw == 1 {
                        seg[lo..hi].copy_from_slice(&src[..hi - lo]);
                    } else {
                        for (d, x) in seg[lo..hi].iter_mut().zip(src.iter().step_by(sw)) {
                            *d = *x;
                        }
                    }
                }
            }
            (oy, ox0, dst) = (oy + 1, 0, rest);
        }
    }

    /// [`Im2col::row`] from column `j0` on when stride is 1 and the output is
    /// as wide as the input (any "same" convolution and its row slices): the
    /// row is then the plane shifted by a constant, so it is one copy into
    /// the zeroed `dst` instead of one per output row — a short plane spends
    /// more time between those copies than in them — followed by zeroing the
    /// columns that wrapped around the left or right edge.
    fn shifted_row(&self, plane: &[f32], ky: usize, kx: usize, j0: usize, dst: &mut [f32]) {
        let (in_h, w) = self.in_hw;
        let (top, left) = self.pad_tl;
        // Column `j` reads `plane[j + shift]`, if its input row is on the
        // image: that bounds the copy to `lo .. hi`.
        let shift = (ky as isize - top as isize) * w as isize + kx as isize - left as isize;
        let lo = (top.saturating_sub(ky) * w).max((-shift).max(0) as usize);
        let hi = ((in_h + top).saturating_sub(ky) * w)
            .min((plane.len() as isize - shift).max(0) as usize);
        let (lo, hi) = (lo.max(j0), hi.min(j0 + dst.len()));
        if lo >= hi {
            return;
        }
        dst[lo - j0..hi - j0].copy_from_slice(&plane[(lo as isize + shift) as usize..][..hi - lo]);
        let wrapped = (0..left.saturating_sub(kx)).chain(w - kx.saturating_sub(left).min(w)..w);
        for ox in wrapped {
            let first = lo + (ox + w - lo % w) % w;
            if first < hi {
                dst[first - j0..hi - j0]
                    .iter_mut()
                    .step_by(w)
                    .for_each(|d| *d = 0.0);
            }
        }
    }
}

/// Materialises the im2col matrix of `input` in `col` (cleared and resized):
/// the reference the packed driver's gather is tested against.
#[cfg(test)]
pub(crate) fn im2col(input: &[f32], geom: &Im2col, col: &mut Vec<f32>) {
    let n = geom.n();
    col.clear();
    col.resize(geom.k() * n, 0.0);
    if n > 0 {
        for (row, tap) in col.chunks_exact_mut(n).zip(geom.taps(0)) {
            geom.row(input, tap, (0, 0), row);
        }
    }
}

/// Where the driver reads one item's `k × n` operand `B` from.
#[derive(Clone, Copy)]
enum Operand<'a> {
    /// An explicit row-major matrix.
    Matrix,
    /// The im2col matrix of a CHW image, packed block by block and never
    /// materialised.
    Image(&'a Im2col),
}

impl Operand<'_> {
    /// Packs rows `k0 .. k0 + kc`, columns `j0 .. j0 + nc` of `input`'s `B`
    /// into `buf` as `NR`-wide micro-panels: panel `p` holds columns
    /// `j0 + p·NR ..`, one group of `NR` per row, zeros past `nc`.
    #[allow(clippy::too_many_arguments)]
    fn pack(
        &self,
        input: &[f32],
        n: usize,
        k0: usize,
        kc: usize,
        j0: usize,
        nc: usize,
        buf: &mut [f32],
    ) {
        let mut scatter = |kk: usize, row: &[f32]| {
            let mut groups = row.chunks_exact(NR);
            for (p, cols) in groups.by_ref().enumerate() {
                buf[(p * kc + kk) * NR..][..NR].copy_from_slice(cols);
            }
            let rest = groups.remainder();
            if !rest.is_empty() {
                let dst = &mut buf[(nc / NR * kc + kk) * NR..][..NR];
                dst[..rest.len()].copy_from_slice(rest);
                dst[rest.len()..].fill(0.0);
            }
        };
        match self {
            Operand::Matrix => {
                for kk in 0..kc {
                    scatter(kk, &input[(k0 + kk) * n + j0..][..nc]);
                }
            }
            Operand::Image(geom) => {
                let mut row = [0.0f32; NC];
                let at = (j0 / geom.out_hw.1, j0 % geom.out_hw.1);
                for (kk, tap) in geom.taps(k0).take(kc).enumerate() {
                    geom.row(input, tap, at, &mut row[..nc]);
                    scatter(kk, &row[..nc]);
                }
            }
        }
    }
}

/// The output of one driver call, shared by its tasks.
#[derive(Clone, Copy)]
struct OutPtr(*mut f32);

// SAFETY: the pointer is only dereferenced in `Driver::block`, and the tasks
// of one call are handed disjoint (row, column) regions of the buffer it
// points into (see `Driver::run`), which outlives them: `join_all` returns
// only once every task has finished.
unsafe impl Send for OutPtr {}
// SAFETY: as above — sharing the pointer shares no element.
unsafe impl Sync for OutPtr {}

/// One call of the driver: `C[item] += A · B[item]` for `batch` items, with
/// `A` row-major `m × k`, every `B` a `k × n` [`Operand`] over its slice of
/// `inputs`, and every `C` row-major `m × n` in `out`.
struct Driver<'a> {
    m: usize,
    n: usize,
    k: usize,
    a: &'a [f32],
    operand: Operand<'a>,
    inputs: &'a [f32],
    batch: usize,
    out: OutPtr,
}

impl Driver<'_> {
    /// Runs the whole product on `threads` threads: one chunk of whole
    /// micro-tiles per thread, along the dimension that has more of them.
    fn run(&self, threads: usize) {
        let (m, n) = (self.m, self.n);
        if m == 0 || n == 0 || self.k == 0 || self.batch == 0 {
            return;
        }
        let by_cols = n.div_ceil(NR) >= m.div_ceil(MR);
        let (len, tile) = if by_cols { (n, NR) } else { (m, MR) };
        let threads = threads.clamp(1, len.div_ceil(tile));
        if threads == 1 {
            return self.block(0..m, 0..n);
        }
        let per = len.div_ceil(tile).div_ceil(threads) * tile;
        let tasks: Vec<Task> = (0..len)
            .step_by(per)
            .map(|lo| -> Task {
                let chunk = lo..(lo + per).min(len);
                if by_cols {
                    Box::new(move || self.block(0..m, chunk))
                } else {
                    Box::new(move || self.block(chunk, 0..n))
                }
            })
            .collect();
        Pool::global().join_all(tasks);
    }

    /// Computes output rows `rows` × columns `cols` of every item on the
    /// calling thread. `rows.start` is `MR`-aligned and `cols.start`
    /// `NR`-aligned, or 0.
    fn block(&self, rows: Range<usize>, cols: Range<usize>) {
        let (m, n, k) = (self.m, self.n, self.k);
        let mut buf = scratch::take(Site::PackB);
        let need = k.min(KC) * cols.len().min(NC).next_multiple_of(NR);
        if buf.len() < need {
            buf.resize(need, 0.0);
        }
        let item_len = self.inputs.len() / self.batch;
        for j0 in cols.clone().step_by(NC) {
            let nc = NC.min(cols.end - j0);
            for k0 in (0..k).step_by(KC) {
                let kc = KC.min(k - k0);
                for item in 0..self.batch {
                    let input = &self.inputs[item * item_len..][..item_len];
                    self.operand.pack(input, n, k0, kc, j0, nc, &mut buf);
                    let panels = buf[..kc * nc.next_multiple_of(NR)].chunks_exact(kc * NR);
                    for (p, panel) in panels.enumerate() {
                        let j = j0 + p * NR;
                        for i0 in rows.clone().step_by(MR) {
                            let a = &self.a[i0 * k + k0..];
                            let (mr, nr) = (MR.min(rows.end - i0), NR.min(cols.end - j));
                            // SAFETY: `a` holds rows `i0 .. i0 + mr` of `A`
                            // from column `k0` on at stride `k`, `panel` is
                            // `kc × NR`, and the tile — `mr` rows of `nr`
                            // elements at stride `n` from element
                            // `(item, i0, j)` — lies inside this task's
                            // region of `out`, which no other task touches.
                            unsafe {
                                let c = self.out.0.add((item * m + i0) * n + j);
                                tile(mr, nr, kc, a, k, panel, c, n);
                            }
                        }
                    }
                }
            }
        }
        scratch::put(Site::PackB, buf);
    }
}

/// Calls the `$mr`-row instance of a micro-kernel.
macro_rules! micro_rows {
    ($mr:expr, $kernel:ident, $args:tt) => {
        match $mr {
            1 => $kernel::<1> $args,
            2 => $kernel::<2> $args,
            3 => $kernel::<3> $args,
            4 => $kernel::<4> $args,
            5 => $kernel::<5> $args,
            _ => $kernel::<MR> $args,
        }
    };
}

/// Updates one `mr × nr` output tile at `c` (row stride `ldc`) with `kc`
/// reduction steps: `a` holds the tile's rows of `A` at stride `lda`, `b`
/// one packed `kc × NR` micro-panel. A tile narrower than `NR` runs the same
/// kernel on a padded copy, so its elements keep their history.
///
/// # Safety
///
/// `a` must hold `(mr - 1)·lda + kc` elements and `b` `kc·NR`, with
/// `1 <= mr <= MR`; `c` must be valid for reads and writes of `mr` rows of
/// `nr <= NR` elements at stride `ldc`, and nothing else may access them
/// during the call.
#[allow(clippy::too_many_arguments)]
unsafe fn tile(
    mr: usize,
    nr: usize,
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: *mut f32,
    ldc: usize,
) {
    if nr == NR {
        return micro(mr, kc, a, lda, b, c, ldc);
    }
    let mut padded = [0.0f32; MR * NR];
    for r in 0..mr {
        std::ptr::copy_nonoverlapping(c.add(r * ldc), padded.as_mut_ptr().add(r * NR), nr);
    }
    micro(mr, kc, a, lda, b, padded.as_mut_ptr(), NR);
    for r in 0..mr {
        std::ptr::copy_nonoverlapping(padded.as_ptr().add(r * NR), c.add(r * ldc), nr);
    }
}

/// One full-width tile through the `mr`-row micro-kernel of the active mode.
///
/// # Safety
///
/// As [`tile`], with `nr = NR`.
unsafe fn micro(mr: usize, kc: usize, a: &[f32], lda: usize, b: &[f32], c: *mut f32, ldc: usize) {
    assert!(a.len() >= (mr - 1) * lda + kc && b.len() >= kc * NR);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::simd::simd_active() {
        use crate::simd::micro_fma;
        // SAFETY: simd_active() verified AVX2+FMA at runtime, the assertion
        // above the operand lengths, and the caller the tile at `c`.
        return micro_rows!(mr, micro_fma, (kc, a.as_ptr(), lda, b.as_ptr(), c, ldc));
    }
    micro_rows!(mr, micro_scalar, (kc, a, lda, b, c, ldc))
}

/// The scalar `M × NR` micro-kernel: every element of the tile takes
/// `acc += a·b` once per `k`, ascending. It works through the tile in two
/// half-width passes so the `M × NR/2` accumulators fit the sixteen SSE
/// registers of a baseline x86-64 build.
///
/// # Safety
///
/// As [`tile`], with `nr = NR`.
unsafe fn micro_scalar<const M: usize>(
    kc: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    c: *mut f32,
    ldc: usize,
) {
    const HALF: usize = NR / 2;
    for h in [0, HALF] {
        let mut acc = [[0.0f32; HALF]; M];
        for (r, acc) in acc.iter_mut().enumerate() {
            acc.copy_from_slice(std::slice::from_raw_parts(c.add(r * ldc + h), HALF));
        }
        for (kk, brow) in b[..kc * NR].chunks_exact(NR).enumerate() {
            let brow = &brow[h..h + HALF];
            for (r, acc) in acc.iter_mut().enumerate() {
                let av = a[r * lda + kk];
                for (acc, bv) in acc.iter_mut().zip(brow) {
                    *acc += av * *bv;
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            std::slice::from_raw_parts_mut(c.add(r * ldc + h), HALF).copy_from_slice(acc);
        }
    }
}

/// Checks the operand lengths every entry point shares and runs the driver.
#[allow(clippy::too_many_arguments)]
fn drive(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    operand: Operand,
    inputs: &[f32],
    batch: usize,
    c: &mut [f32],
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "A must be m*k");
    assert_eq!(c.len(), batch * m * n, "C must be m*n per item");
    let driver = Driver {
        m,
        n,
        k,
        a,
        operand,
        inputs,
        batch,
        out: OutPtr(c.as_mut_ptr()),
    };
    driver.run(threads);
}

/// `C += A·B` with `A` row-major `m`×`k`, `B` row-major `k`×`n`, `C`
/// row-major `m`×`n`. `C` must be pre-initialized by the caller (zeros, or a
/// broadcast bias).
///
/// Uses [`gillis_threads`] workers above the [`GEMM_PAR_MIN_MNK`] cutoff; see
/// the module docs for the determinism contract.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let threads = gemm_threads(m.saturating_mul(n).saturating_mul(k));
    gemm_with_threads(m, n, k, a, b, c, threads);
}

/// [`gemm`] with an explicit worker count — the entry point tests use to
/// check bit-identical results across thread counts without racing on the
/// process environment.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemm_with_threads(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    assert_eq!(b.len(), k * n, "B must be k*n");
    drive(m, n, k, a, Operand::Matrix, b, 1, c, threads);
}

/// The convolution GEMM: `C[i] += A · im2col(inputs[i])` for `batch` CHW
/// images laid out back to back in `inputs`, with `A` the row-major
/// `m × geom.k()` filter rows and every `C[i]` a row-major `m × geom.n()`
/// output, back to back in `c` and pre-initialized by the caller (bias).
///
/// Each item's output is bit-identical to running it alone, at any thread
/// count (see the module docs).
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn conv_gemm_with_threads(
    m: usize,
    a: &[f32],
    geom: &Im2col,
    inputs: &[f32],
    batch: usize,
    c: &mut [f32],
    threads: usize,
) {
    let in_len = geom.channels * geom.in_hw.0 * geom.in_hw.1;
    assert_eq!(inputs.len(), batch * in_len, "inputs must be batch CHW");
    let operand = if geom.is_image() {
        Operand::Matrix
    } else {
        Operand::Image(geom)
    };
    drive(m, geom.n(), geom.k(), a, operand, inputs, batch, c, threads);
}

/// `out += W·x` with `W` row-major `rows`×`cols`: the matrix–vector product
/// behind `dense` and the LSTM gate pre-activations. `out` must be
/// pre-initialized (zeros or bias).
///
/// Each row's dot product runs over eight independent accumulator lanes
/// (reassociating the sum, so results differ from a serial dot by normal f32
/// rounding), then lanes are combined in a fixed order — deterministic for a
/// given length, and identical across thread counts because each output row
/// is owned by one thread.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemv(rows: usize, cols: usize, w: &[f32], x: &[f32], out: &mut [f32]) {
    gemv_with_threads(rows, cols, w, x, out, gemv_threads(rows, cols));
}

/// [`gemv`] with an explicit worker count, bypassing the small-work
/// threshold — the entry point tests use to check bit-identical results
/// across thread counts.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemv_with_threads(
    rows: usize,
    cols: usize,
    w: &[f32],
    x: &[f32],
    out: &mut [f32],
    threads: usize,
) {
    assert_eq!(w.len(), rows * cols, "W must be rows*cols");
    assert_eq!(x.len(), cols, "x must be cols");
    assert_eq!(out.len(), rows, "out must be rows");
    if rows == 0 || cols == 0 {
        return;
    }
    let threads = threads.clamp(1, rows);
    if threads == 1 {
        gemv_rows(cols, w, x, out);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let tasks: Vec<Task> = w
        .chunks(rows_per * cols)
        .zip(out.chunks_mut(rows_per))
        .map(|(w_chunk, out_chunk)| -> Task {
            Box::new(move || gemv_rows(cols, w_chunk, x, out_chunk))
        })
        .collect();
    Pool::global().join_all(tasks);
}

fn gemv_rows(cols: usize, w: &[f32], x: &[f32], out: &mut [f32]) {
    for (r, o) in out.iter_mut().enumerate() {
        *o += row_dots::<1>(&w[r * cols..(r + 1) * cols], x)[0];
    }
}

/// Most right-hand sides one pass over a weight row is dotted against: that
/// many accumulator vectors, the row's and one of `x` fill the sixteen AVX
/// registers, and five independent multiply-add chains hide the latency of
/// one, so the pass waits on memory rather than on its own last result.
const MAX_Q: usize = 5;

/// The eight-lane row dot product behind [`gemv`] *and* [`gemv_multi`], over
/// `Q` right-hand sides (`xs` holds them back to back) in one pass over
/// `row`. Every right-hand side has its own accumulator chain — eight lanes
/// taking one multiply-add per eight columns, ascending, folded in a fixed
/// tree, plus a serial tail — and no chain reads another, so a `(row, query)`
/// pair accumulates identically whatever `Q` it rode in, alone (`Q = 1`)
/// included: that is the whole bit-identity argument for the batched dense
/// path and the hoisted LSTM input projection.
#[inline]
fn row_dots<const Q: usize>(row: &[f32], xs: &[f32]) -> [f32; Q] {
    let cols = row.len();
    assert_eq!(xs.len(), Q * cols, "xs must be Q rows");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::simd::simd_active() {
        // SAFETY: simd_active() verified AVX2+FMA at runtime, and `xs` holds
        // `Q` vectors of `row.len()` elements (asserted above).
        return unsafe { crate::simd::row_dots_fma::<Q>(row, xs) };
    }
    const LANES: usize = 8;
    let body = cols - cols % LANES;
    let mut acc = [[0.0f32; LANES]; Q];
    for j in (0..body).step_by(LANES) {
        let wc = &row[j..j + LANES];
        for (q, acc) in acc.iter_mut().enumerate() {
            let xc = &xs[q * cols + j..][..LANES];
            for l in 0..LANES {
                acc[l] += wc[l] * xc[l];
            }
        }
    }
    std::array::from_fn(|q| {
        let acc = &acc[q];
        let x_tail = &xs[q * cols + body..(q + 1) * cols];
        let tail: f32 = row[body..].iter().zip(x_tail).map(|(a, b)| a * b).sum();
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
    })
}

/// Batched matrix–vector product: `outs[r][q] += W[r] · xs[q]` for `nrhs`
/// right-hand sides sharing one weight matrix. `xs` holds the inputs
/// concatenated (`nrhs` × `cols`); `outs` is row-major `rows` × `nrhs` and
/// must be pre-initialized (zeros or a per-row bias broadcast across the
/// batch).
///
/// Each `(row, q)` dot product uses exactly the [`gemv`] accumulation scheme
/// ([`row_dots`]), so every output is bit-identical to `nrhs` separate `gemv`
/// calls — the batch only amortizes the weight-matrix traversal: each `W`
/// row is streamed from memory once and dotted against all `nrhs` inputs
/// while cache-hot, up to [`MAX_Q`] of them per pass over the row.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
pub fn gemv_multi(rows: usize, cols: usize, w: &[f32], xs: &[f32], outs: &mut [f32], nrhs: usize) {
    gemv_multi_with_threads(rows, cols, w, xs, outs, nrhs, gemv_threads(rows, cols));
}

/// [`gemv_multi`] with an explicit worker count. Threads split weight rows
/// (each `(row, q)` output owned by one thread), so results are bit-identical
/// for any count.
///
/// # Panics
///
/// Panics if the slice lengths do not match the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemv_multi_with_threads(
    rows: usize,
    cols: usize,
    w: &[f32],
    xs: &[f32],
    outs: &mut [f32],
    nrhs: usize,
    threads: usize,
) {
    assert_eq!(w.len(), rows * cols, "W must be rows*cols");
    assert_eq!(xs.len(), nrhs * cols, "xs must be nrhs*cols");
    assert_eq!(outs.len(), rows * nrhs, "outs must be rows*nrhs");
    if rows == 0 || cols == 0 || nrhs == 0 {
        return;
    }
    let threads = threads.clamp(1, rows);
    if threads == 1 {
        gemv_multi_rows(cols, nrhs, w, xs, outs);
        return;
    }
    let rows_per = rows.div_ceil(threads);
    let tasks: Vec<Task> = w
        .chunks(rows_per * cols)
        .zip(outs.chunks_mut(rows_per * nrhs))
        .map(|(w_chunk, out_chunk)| -> Task {
            Box::new(move || gemv_multi_rows(cols, nrhs, w_chunk, xs, out_chunk))
        })
        .collect();
    Pool::global().join_all(tasks);
}

/// `outs[r][q] += W[r] · xs[q]` on the calling thread: each weight row is
/// dotted against the right-hand sides in blocks of at most [`MAX_Q`], as
/// even as they come (ten is 5 + 5, eight 4 + 4).
fn gemv_multi_rows(cols: usize, nrhs: usize, w: &[f32], xs: &[f32], outs: &mut [f32]) {
    fn add<const Q: usize>(row: &[f32], xs: &[f32], out: &mut [f32]) {
        for (o, dot) in out.iter_mut().zip(row_dots::<Q>(row, xs)) {
            *o += dot;
        }
    }
    let blocks = nrhs.div_ceil(MAX_Q);
    for (r, orow) in outs.chunks_exact_mut(nrhs).enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        for b in 0..blocks {
            let qs = b * nrhs / blocks..(b + 1) * nrhs / blocks;
            let (xs, out) = (&xs[qs.start * cols..qs.end * cols], &mut orow[qs.clone()]);
            match qs.len() {
                1 => add::<1>(row, xs, out),
                2 => add::<2>(row, xs, out),
                3 => add::<3>(row, xs, out),
                4 => add::<4>(row, xs, out),
                _ => add::<MAX_Q>(row, xs, out),
            }
        }
    }
}

/// Bytes of one full packed block: the most scratch the driver ever holds.
#[cfg(test)]
pub(crate) const PACKED_BLOCK_BYTES: usize = KC * NC * std::mem::size_of::<f32>();

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::simd::madd;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Textbook triple loop with the driver's per-element history.
    fn gemm_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for kk in 0..k {
                    acc = madd(a[i * k + kk], b[kk * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn pseudo(len: usize, seed: u32, mul: u32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as u32 ^ seed).wrapping_mul(mul) % 997) as f32 * 1e-3 - 0.5)
            .collect()
    }

    #[test]
    fn known_2x2_product() {
        // [[1,2],[3,4]] · [[5,6],[7,8]] = [[19,22],[43,50]]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn bias_preinit_is_added() {
        let a = [1.0, 0.0];
        let b = [2.0, 3.0, 100.0, 100.0];
        let mut c = [10.0, 20.0];
        gemm(1, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [12.0, 23.0]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c = [1.0f32; 4];
        gemm(2, 2, 0, &[], &[], &mut c);
        assert_eq!(c, [1.0; 4]);
        gemm(0, 0, 3, &[], &[], &mut []);
    }

    #[test]
    fn gemv_matches_serial_dot_for_small_rows() {
        // cols < 8 exercises only the tail loop: exact match with naive.
        let w = [1.0, 0.0, 0.0, 0.0, 1.0, 1.0];
        let x = [1.0, 2.0, 3.0];
        let mut out = [10.0, -10.0];
        gemv(2, 3, &w, &x, &mut out);
        assert_eq!(out, [11.0, -5.0]);
    }

    /// A dimension drawn near zero or just around `block`.
    fn around(block: usize) -> impl Strategy<Value = usize> {
        (0usize..2, 1usize..40).prop_map(move |(far, x)| x + far * (block - 20))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn gemm_matches_naive_bitwise(
            (m, n, k) in (1usize..8, 1usize..40, 1usize..20),
            seed in 0u32..1000,
        ) {
            let a = pseudo(m * k, seed, 2654435761);
            let b = pseudo(k * n, seed, 40503);
            let init: Vec<f32> = (0..m * n).map(|i| (i % 7) as f32 * 0.5).collect();
            let mut want = init.clone();
            gemm_naive(m, n, k, &a, &b, &mut want);
            let mut got = init.clone();
            gemm_with_threads(m, n, k, &a, &b, &mut got, 1);
            prop_assert_eq!(bits(&want), bits(&got));
        }

        /// The driver's history is the naive loop's to the bit — in the
        /// `simd` build that of the scalar `mul_add` loop — at every thread
        /// count the repo tests: `m` covers every `MR` remainder under row
        /// and column chunking, `n` every `NR` remainder and the `NC`
        /// boundary, `k` the `KC` boundary.
        #[test]
        fn simd_gemm_matches_scalar_reference_across_threads(
            (m, n, k) in (1usize..20, around(NC), around(KC)),
            seed in 0u32..1000,
        ) {
            let a = pseudo(m * k, seed, 747796405);
            let b = pseudo(k * n, seed, 277803737);
            let init: Vec<f32> = (0..m * n).map(|i| (i % 3) as f32 * 0.5).collect();
            let mut want = init.clone();
            gemm_naive(m, n, k, &a, &b, &mut want);
            for threads in [1usize, 2, 8] {
                let mut got = init.clone();
                gemm_with_threads(m, n, k, &a, &b, &mut got, threads);
                prop_assert_eq!(bits(&want), bits(&got), "threads={}", threads);
            }
        }

        #[test]
        fn gemm_is_bit_identical_across_thread_counts(
            (m, n, k) in (1usize..12, 1usize..30, 1usize..16),
            seed in 0u32..1000,
        ) {
            let a = pseudo(m * k, seed, 747796405);
            let b = pseudo(k * n, seed, 277803737);
            let mut c1 = vec![0.25f32; m * n];
            let mut c8 = c1.clone();
            gemm_with_threads(m, n, k, &a, &b, &mut c1, 1);
            gemm_with_threads(m, n, k, &a, &b, &mut c8, 8);
            prop_assert_eq!(bits(&c1), bits(&c8));
        }

        #[test]
        fn gemv_is_bit_identical_across_thread_counts(
            (rows, cols) in (1usize..24, 1usize..40),
            seed in 0u32..1000,
        ) {
            let w = pseudo(rows * cols, seed, 2891336453);
            let x = pseudo(cols, seed, 1181783497);
            let mut out1 = vec![0.125f32; rows];
            let mut out8 = out1.clone();
            gemv_with_threads(rows, cols, &w, &x, &mut out1, 1);
            gemv_with_threads(rows, cols, &w, &x, &mut out8, 8);
            prop_assert_eq!(bits(&out1), bits(&out8));
        }

        /// Every `nrhs` up to 13 — one block of each width, and every way
        /// the blocks of two and three passes come out — at every thread
        /// count, with `cols` on both sides of the eight-lane body.
        #[test]
        fn gemv_multi_is_bit_identical_to_per_query_gemv(
            (rows, cols) in (1usize..24, 1usize..70),
            seed in 0u32..1000,
        ) {
            let w = pseudo(rows * cols, seed, 2891336453);
            for nrhs in 1usize..=13 {
                let xs = pseudo(nrhs * cols, seed, 1181783497);
                let mut want = vec![0.0f32; rows * nrhs];
                for q in 0..nrhs {
                    let mut out = vec![0.125f32; rows];
                    gemv(rows, cols, &w, &xs[q * cols..(q + 1) * cols], &mut out);
                    for r in 0..rows {
                        want[r * nrhs + q] = out[r];
                    }
                }
                for threads in [1usize, 2, 8] {
                    let mut got = vec![0.125f32; rows * nrhs];
                    gemv_multi_with_threads(rows, cols, &w, &xs, &mut got, nrhs, threads);
                    prop_assert_eq!(bits(&want), bits(&got), "nrhs={} threads={}", nrhs, threads);
                }
            }
        }

        #[test]
        fn gemv_close_to_serial_dot(
            (rows, cols) in (1usize..10, 1usize..70),
            seed in 0u32..1000,
        ) {
            let w = pseudo(rows * cols, seed, 2891336453);
            let x = pseudo(cols, seed, 1181783497);
            let mut got = vec![0.0f32; rows];
            gemv(rows, cols, &w, &x, &mut got);
            for r in 0..rows {
                let want: f32 = w[r * cols..(r + 1) * cols]
                    .iter()
                    .zip(x.iter())
                    .map(|(a, b)| a * b)
                    .sum();
                prop_assert!((got[r] - want).abs() < 1e-4, "row {}: {} vs {}", r, got[r], want);
            }
        }

        /// Every entry of the materialised matrix against the tap it names,
        /// over strides, asymmetric top/left padding and outputs cut short
        /// at the bottom/right (a halo slice), through both the stride-1
        /// copy and the strided gather.
        #[test]
        fn im2col_strided_matches_dense_gather(
            (in_h, in_w) in (3usize..9, 3usize..9),
            (sh, sw) in (1usize..3, 1usize..3),
            (pt, pl, pb, pr) in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
        ) {
            let (kh, kw) = (3, 3);
            let (h, w) = (in_h + pt + pb, in_w + pl + pr);
            let geom = Im2col {
                channels: 2,
                in_hw: (in_h, in_w),
                kernel: (kh, kw),
                stride: (sh, sw),
                pad_tl: (pt, pl),
                out_hw: ((h - kh) / sh + 1, (w - kw) / sw + 1),
            };
            let (out_h, out_w) = geom.out_hw;
            let input: Vec<f32> = (0..2 * in_h * in_w).map(|i| i as f32 + 1.0).collect();
            let mut col = vec![f32::NAN; 3];
            im2col(&input, &geom, &mut col);
            let n = out_h * out_w;
            prop_assert_eq!(col.len(), geom.k() * n);
            for (r, row) in col.chunks_exact(n).enumerate() {
                let (ic, ky, kx) = (r / (kh * kw), r / kw % kh, r % kw);
                for (j, got) in row.iter().enumerate() {
                    let iy = (j / out_w * sh + ky) as isize - pt as isize;
                    let ix = (j % out_w * sw + kx) as isize - pl as isize;
                    let inside = iy >= 0 && iy < in_h as isize && ix >= 0 && ix < in_w as isize;
                    let want = if inside {
                        input[ic * in_h * in_w + iy as usize * in_w + ix as usize]
                    } else {
                        0.0
                    };
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "row {} col {}", r, j);
                }
            }
        }
    }
}
