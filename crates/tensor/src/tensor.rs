//! The dense `f32` tensor and its slicing/stitching primitives.

use serde::{Deserialize, Serialize};

use gillis_pool::{Pool, Task};

use crate::error::TensorError;
use crate::shape::Shape;
use crate::{pages, simd, Result};

/// Small-fill cutoff on element count for [`Tensor::uniform`], the
/// [`crate::gemm::GEMV_PAR_MIN_CELLS`] of the cold path: 2 MiB of `f32` fills
/// in about the time a pool round trip and its wake-ups cost, so bias
/// vectors, conv filters and MobileNet-sized layers stay on the caller.
const FILL_PAR_MIN_LEN: usize = 1 << 19;

/// A dense, row-major `f32` tensor.
///
/// This is the value type flowing through the Gillis fork-join runtime: the
/// master slices inputs with [`Tensor::slice`], ships the pieces to workers,
/// and reassembles worker outputs with [`Tensor::concat`].
///
/// # Examples
///
/// ```
/// use gillis_tensor::{Shape, Tensor};
///
/// # fn main() -> Result<(), gillis_tensor::TensorError> {
/// let t = Tensor::from_vec(Shape::new(vec![2, 4]), (0..8).map(|x| x as f32).collect())?;
/// let halves = [t.slice(1, 0..2)?, t.slice(1, 2..4)?];
/// let back = Tensor::concat(&halves, 1)?;
/// assert_eq!(back, t);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and matching data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if data.len() != shape.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.clone(),
                actual: Shape::new(vec![data.len()]),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a tensor whose elements are produced by `f(flat_index)`.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize) -> f32) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: (0..len).map(&mut f).collect(),
        }
    }

    /// Creates a tensor of uniform pseudo-random values over `[lo, hi]`
    /// drawn from the stream named by `key`: element `i` (flat index, modulo
    /// `2^32`) is `lo + unit(key, i) · (hi − lo)`, where `unit` is 24 bits of
    /// a keyed counter hash scaled into `[0, 1)`. An element is a function of
    /// `(key, i)` alone — not of its neighbours, the tensor's length, the
    /// build's kernels or the pool width — so large tensors are filled in
    /// contiguous chunks on [`Pool::global`] and still equal the one-thread
    /// result to the bit; tensors below `FILL_PAR_MIN_LEN` fill inline.
    pub fn uniform(shape: Shape, key: u64, lo: f32, hi: f32) -> Self {
        let threads = if shape.len() < FILL_PAR_MIN_LEN {
            1
        } else {
            gillis_pool::kernel_threads()
        };
        Tensor::uniform_with_threads(shape, key, lo, hi, threads)
    }

    /// [`Tensor::uniform`] cut into `threads` chunks whatever the length —
    /// the entry point tests use to check the fill width leaves no trace.
    pub(crate) fn uniform_with_threads(
        shape: Shape,
        key: u64,
        lo: f32,
        hi: f32,
        threads: usize,
    ) -> Self {
        let len = shape.len();
        // One allocation, zeroed lazily by the OS and in 2 MiB pages from
        // 4 MiB up: each page is first touched by the task that fills it,
        // and nothing is staged or copied.
        let mut data = pages::untouched_zeros(len);
        let per = len.div_ceil(threads.max(1));
        if per == len {
            simd::fill_uniform(key, 0, lo, hi, &mut data);
        } else {
            let tasks: Vec<Task> = data
                .chunks_mut(per)
                .enumerate()
                .map(|(c, chunk)| -> Task {
                    Box::new(move || simd::fill_uniform(key, c * per, lo, hi, chunk))
                })
                .collect();
            Pool::global().join_all(tasks);
        }
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// A view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access by multi-index.
    ///
    /// # Panics
    ///
    /// Debug-asserts bounds; see [`Shape::offset`].
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(self, shape: Shape) -> Result<Self> {
        if shape.len() != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape,
                actual: self.shape,
            });
        }
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Extracts the sub-tensor `range` along dimension `dim`, copying.
    ///
    /// All other dimensions are kept whole. This is the scatter primitive of
    /// the fork-join master: spatial partitions slice the height/width
    /// dimension (with halos), channel partitions slice the channel dimension.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimOutOfRange`] for a bad `dim` and
    /// [`TensorError::RangeOutOfBounds`] for a bad `range`.
    pub fn slice(&self, dim: usize, range: std::ops::Range<usize>) -> Result<Tensor> {
        let size = self.shape.dim(dim)?;
        if range.start > range.end || range.end > size {
            return Err(TensorError::RangeOutOfBounds {
                dim,
                start: range.start,
                end: range.end,
                size,
            });
        }
        let dims = self.shape.dims();
        // outer = product of dims before `dim`; inner = product after.
        let outer: usize = dims[..dim].iter().product();
        let inner: usize = dims[dim + 1..].iter().product();
        let new_len = range.len();
        let mut out = Vec::with_capacity(outer * new_len * inner);
        for o in 0..outer {
            let base = o * size * inner;
            out.extend_from_slice(&self.data[base + range.start * inner..base + range.end * inner]);
        }
        let new_shape = self.shape.with_dim(dim, new_len)?;
        Tensor::from_vec(new_shape, out)
    }

    /// Concatenates tensors along dimension `dim`, copying.
    ///
    /// This is the gather primitive of the fork-join master: worker outputs
    /// are stitched back into the full tensor. Accepts anything that borrows
    /// a tensor (`&[Tensor]`, `&[&Tensor]`, …), so callers holding references
    /// need not clone the parts first.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `parts` is empty, and
    /// [`TensorError::ShapeMismatch`] if the parts disagree on any dimension
    /// other than `dim`.
    pub fn concat<T: std::borrow::Borrow<Tensor>>(parts: &[T], dim: usize) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of zero tensors".into()))?
            .borrow();
        let rank = first.shape.rank();
        if dim >= rank {
            return Err(TensorError::DimOutOfRange { dim, rank });
        }
        let mut total = 0;
        for p in parts {
            let p = p.borrow();
            if p.shape.rank() != rank {
                return Err(TensorError::ShapeMismatch {
                    expected: first.shape.clone(),
                    actual: p.shape.clone(),
                });
            }
            for d in 0..rank {
                if d != dim && p.shape.dims()[d] != first.shape.dims()[d] {
                    return Err(TensorError::ShapeMismatch {
                        expected: first.shape.clone(),
                        actual: p.shape.clone(),
                    });
                }
            }
            total += p.shape.dims()[dim];
        }
        let out_shape = first.shape.with_dim(dim, total)?;
        let dims = first.shape.dims();
        let outer: usize = dims[..dim].iter().product();
        let inner: usize = dims[dim + 1..].iter().product();
        let mut out = Vec::with_capacity(out_shape.len());
        for o in 0..outer {
            for p in parts {
                let p = p.borrow();
                let psize = p.shape.dims()[dim];
                let base = o * psize * inner;
                out.extend_from_slice(&p.data[base..base + psize * inner]);
            }
        }
        Tensor::from_vec(out_shape, out)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Maximum absolute difference between two tensors of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(shape: Vec<usize>) -> Tensor {
        Tensor::from_fn(Shape::new(shape), |i| i as f32)
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(Shape::new(vec![2, 2]), vec![1.0; 5]).is_err());
    }

    #[test]
    fn uniform_leaves_no_trace_of_the_fill_width() {
        use crate::simd::tests::uniform_element;
        let (key, lo, hi) = (0xfeed_5eed_0bad_cafe_u64, 0.5f32, 1.5f32);
        // Around the parallel threshold and the huge-page one, off the
        // eight-lane grid, not divisible by the widths, the degenerate ones,
        // and one that is no whole number of 2 MiB pages (10 MiB and 28
        // bytes), so its ends cannot both sit on a 2 MiB boundary.
        let lens = [
            0,
            1,
            7,
            8,
            9,
            1003,
            FILL_PAR_MIN_LEN - 1,
            FILL_PAR_MIN_LEN,
            FILL_PAR_MIN_LEN + 13,
            pages::HUGE_MIN_LEN - 1,
            pages::HUGE_MIN_LEN,
            pages::HUGE_MIN_LEN + 13,
            5 * FILL_PAR_MIN_LEN + 7,
        ];
        for len in lens {
            let ambient = Tensor::uniform(Shape::new(vec![len]), key, lo, hi);
            assert_eq!(ambient.shape().dims(), &[len]);
            for threads in [1usize, 2, 3, 8] {
                let t = Tensor::uniform_with_threads(Shape::new(vec![len]), key, lo, hi, threads);
                let same = t
                    .data()
                    .iter()
                    .zip(ambient.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same && t.data().len() == len, "len {len} width {threads}");
                // Both sides of every chunk seam, and the ends.
                let per = len.div_ceil(threads).max(1);
                let seams = (0..len).step_by(per).flat_map(|s| [s.saturating_sub(1), s]);
                for i in seams.chain(len.checked_sub(1)) {
                    let want = uniform_element(key, i, lo, hi);
                    assert_eq!(
                        t.data()[i].to_bits(),
                        want.to_bits(),
                        "len {len} width {threads} element {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_streams_differ_by_key_and_stay_in_range() {
        let shape = || Shape::new(vec![4, 250]);
        let a = Tensor::uniform(shape(), 1, -2.0, 2.0);
        assert_eq!(a, Tensor::uniform(shape(), 1, -2.0, 2.0));
        assert_ne!(a, Tensor::uniform(shape(), 2, -2.0, 2.0));
        assert!(a.data().iter().all(|x| (-2.0..=2.0).contains(x)));
        let mean = a.data().iter().sum::<f32>() / 1000.0;
        // sigma of the mean = 4/sqrt(12 * 1000) = 0.0365.
        assert!(mean.abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn slice_middle_dimension() {
        let t = iota(vec![2, 4, 3]);
        let s = t.slice(1, 1..3).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2, 3]);
        // Row o=0, slice rows 1..3 of dim1.
        assert_eq!(&s.data()[..6], &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        // Row o=1 starts at offset 12 in the original.
        assert_eq!(&s.data()[6..], &[15.0, 16.0, 17.0, 18.0, 19.0, 20.0]);
    }

    #[test]
    fn slice_then_concat_roundtrips() {
        let t = iota(vec![3, 5, 2]);
        for dim in 0..3 {
            let size = t.shape().dims()[dim];
            let mid = size / 2;
            let a = t.slice(dim, 0..mid).unwrap();
            let b = t.slice(dim, mid..size).unwrap();
            let back = Tensor::concat(&[a, b], dim).unwrap();
            assert_eq!(back, t, "roundtrip failed on dim {dim}");
        }
    }

    #[test]
    fn slice_rejects_bad_ranges() {
        let t = iota(vec![2, 3]);
        assert!(matches!(
            t.slice(1, 2..5),
            Err(TensorError::RangeOutOfBounds { .. })
        ));
        assert!(matches!(
            t.slice(5, 0..1),
            Err(TensorError::DimOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_slice_is_allowed() {
        let t = iota(vec![2, 3]);
        let s = t.slice(1, 1..1).unwrap();
        assert_eq!(s.shape().dims(), &[2, 0]);
        assert!(s.data().is_empty());
    }

    #[test]
    fn concat_rejects_mismatched_parts() {
        let a = iota(vec![2, 3]);
        let b = iota(vec![3, 3]);
        // dim 0 concat is fine (other dims equal)...
        assert!(Tensor::concat(&[a.clone(), b.clone()], 0).is_ok());
        // ...but dim 1 concat must reject differing dim 0.
        // Borrowed parts work without cloning.
        assert!(Tensor::concat(&[&a, &b], 1).is_err());
        assert!(Tensor::concat(&[a, b], 1).is_err());
        assert!(Tensor::concat::<Tensor>(&[], 0).is_err());
    }

    #[test]
    fn add_and_map() {
        let a = iota(vec![2, 2]);
        let b = a.add(&a).unwrap();
        assert_eq!(b.data(), &[0.0, 2.0, 4.0, 6.0]);
        let c = a.map(|x| x * 10.0);
        assert_eq!(c.data(), &[0.0, 10.0, 20.0, 30.0]);
        assert!(a.add(&iota(vec![4])).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = iota(vec![2, 6]);
        let r = t.clone().reshape(Shape::new(vec![3, 4])).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(Shape::new(vec![5])).is_err());
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = iota(vec![4]);
        let mut b = a.clone();
        b.data_mut()[2] += 0.5;
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert_eq!(a.max_abs_diff(&a).unwrap(), 0.0);
    }
}
