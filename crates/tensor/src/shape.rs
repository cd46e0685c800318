//! Tensor shapes: dimension lists with row-major stride math.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::TensorError;

/// The shape of a dense, row-major tensor.
///
/// A shape is an ordered list of dimension sizes. Rank-0 shapes (scalars) are
/// permitted and have `len() == 1`.
///
/// # Examples
///
/// ```
/// use gillis_tensor::Shape;
///
/// let s = Shape::new(vec![3, 224, 224]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.len(), 3 * 224 * 224);
/// assert_eq!(s.strides(), vec![224 * 224, 224, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a list of dimension sizes.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// The size of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimOutOfRange`] if `dim >= rank`.
    pub fn dim(&self, dim: usize) -> Result<usize, TensorError> {
        self.0.get(dim).copied().ok_or(TensorError::DimOutOfRange {
            dim,
            rank: self.rank(),
        })
    }

    /// Row-major strides: the element distance between consecutive indices of
    /// each dimension.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-index into a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the index is in bounds; release builds compute the
    /// offset unchecked for speed (used on hot kernel paths).
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.0.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for (i, (&idx, &size)) in index.iter().zip(self.0.iter()).enumerate().rev() {
            debug_assert!(idx < size, "index {idx} out of bounds for dim {i} ({size})");
            let _ = i;
            off += idx * stride;
            stride *= size;
        }
        off
    }

    /// Returns a new shape with dimension `dim` replaced by `size`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimOutOfRange`] if `dim >= rank`.
    pub fn with_dim(&self, dim: usize, size: usize) -> Result<Shape, TensorError> {
        if dim >= self.rank() {
            return Err(TensorError::DimOutOfRange {
                dim,
                rank: self.rank(),
            });
        }
        let mut dims = self.0.clone();
        dims[dim] = size;
        Ok(Shape(dims))
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(vec![]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_matches_manual_computation() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(s.offset(&[0, 1, 1]), 5);
    }

    #[test]
    fn dim_out_of_range_is_reported() {
        let s = Shape::new(vec![2, 3]);
        assert_eq!(s.dim(1), Ok(3));
        assert!(matches!(s.dim(2), Err(TensorError::DimOutOfRange { .. })));
    }

    #[test]
    fn with_dim_replaces_only_one_dimension() {
        let s = Shape::new(vec![2, 3, 4]);
        let t = s.with_dim(1, 7).unwrap();
        assert_eq!(t.dims(), &[2, 7, 4]);
        assert_eq!(s.dims(), &[2, 3, 4]);
        assert!(s.with_dim(3, 1).is_err());
    }

    #[test]
    fn zero_sized_dimension_makes_empty_shape() {
        let s = Shape::new(vec![4, 0, 2]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn display_lists_dims() {
        assert_eq!(Shape::new(vec![3, 5]).to_string(), "[3, 5]");
        assert_eq!(Shape::new(vec![]).to_string(), "[]");
    }
}
