//! Tensor shapes, strides, and broadcasting rules.
//!
//! A [`Shape`] is an ordered list of dimension extents. Shapes follow
//! row-major (C) layout conventions throughout the suite: the last axis is
//! the fastest-varying one.

use std::fmt;

/// The extents of each axis of a tensor, in row-major order.
///
/// A rank-0 shape (no axes) describes a scalar with exactly one element.
///
/// # Examples
///
/// ```
/// use fathom_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.num_elements(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// The scalar shape: rank 0, one element.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// A rank-1 shape with `n` elements.
    pub fn vector(n: usize) -> Self {
        Shape { dims: vec![n] }
    }

    /// A rank-2 shape with `rows * cols` elements.
    pub fn matrix(rows: usize, cols: usize) -> Self {
        Shape { dims: vec![rows, cols] }
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns `true` if this is the rank-0 scalar shape.
    pub fn is_scalar(&self) -> bool {
        self.dims.is_empty()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != self.rank()` or any coordinate is out of
    /// bounds (debug builds only for the bounds check).
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank()
        );
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..self.dims.len()).rev() {
            debug_assert!(index[axis] < self.dims[axis], "index out of bounds");
            off += index[axis] * stride;
            stride *= self.dims[axis];
        }
        off
    }

    /// The result shape of broadcasting `self` with `other` under NumPy
    /// rules: trailing axes are aligned and each pair must be equal or one
    /// of them must be 1.
    ///
    /// Returns `None` if the shapes are not broadcast-compatible.
    ///
    /// # Examples
    ///
    /// ```
    /// use fathom_tensor::Shape;
    ///
    /// let a = Shape::new(vec![4, 1, 3]);
    /// let b = Shape::new(vec![2, 3]);
    /// assert_eq!(a.broadcast(&b), Some(Shape::new(vec![4, 2, 3])));
    /// assert_eq!(Shape::new(vec![2]).broadcast(&Shape::new(vec![3])), None);
    /// ```
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = vec![0; rank];
        for (i, dim) in dims.iter_mut().enumerate() {
            let a = if i < rank - self.rank() { 1 } else { self.dims[i - (rank - self.rank())] };
            let b = if i < rank - other.rank() { 1 } else { other.dims[i - (rank - other.rank())] };
            *dim = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return None;
            };
        }
        Some(Shape::new(dims))
    }

    /// Returns `true` if a tensor of this shape can be broadcast *to*
    /// `target` (i.e. broadcasting is one-directional here).
    pub fn broadcasts_to(&self, target: &Shape) -> bool {
        match self.broadcast(target) {
            Some(result) => &result == target,
            None => false,
        }
    }

    /// Shape with axis `axis` removed (used by reductions with
    /// `keep_dims = false`).
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn without_axis(&self, axis: usize) -> Shape {
        assert!(axis < self.rank(), "axis {axis} out of range for rank {}", self.rank());
        let mut dims = self.dims.clone();
        dims.remove(axis);
        Shape::new(dims)
    }

    /// Shape with axis `axis` collapsed to extent 1 (reductions with
    /// `keep_dims = true`).
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn with_axis_one(&self, axis: usize) -> Shape {
        assert!(axis < self.rank(), "axis {axis} out of range for rank {}", self.rank());
        let mut dims = self.dims.clone();
        dims[axis] = 1;
        Shape::new(dims)
    }

    /// Shape with an extent-1 axis inserted before position `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis > self.rank()`.
    pub fn with_inserted_axis(&self, axis: usize) -> Shape {
        assert!(axis <= self.rank(), "axis {axis} out of range for rank {}", self.rank());
        let mut dims = self.dims.clone();
        dims.insert(axis, 1);
        Shape::new(dims)
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

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert!(s.is_scalar());
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::vector(7).strides(), vec![1]);
        assert_eq!(Shape::matrix(5, 6).strides(), vec![6, 1]);
    }

    #[test]
    fn offset_math() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[1, 0, 2]), 14);
    }

    #[test]
    #[should_panic(expected = "does not match shape rank")]
    fn offset_wrong_rank_panics() {
        Shape::new(vec![2, 3]).offset(&[1]);
    }

    #[test]
    fn broadcast_compatible() {
        let a = Shape::new(vec![4, 1, 3]);
        let b = Shape::new(vec![2, 3]);
        assert_eq!(a.broadcast(&b), Some(Shape::new(vec![4, 2, 3])));
        // scalar broadcasts with anything
        assert_eq!(Shape::scalar().broadcast(&a), Some(a.clone()));
        // identical shapes broadcast to themselves
        assert_eq!(a.broadcast(&a), Some(a.clone()));
    }

    #[test]
    fn broadcast_incompatible() {
        assert_eq!(Shape::new(vec![2]).broadcast(&Shape::new(vec![3])), None);
        assert_eq!(
            Shape::new(vec![2, 2]).broadcast(&Shape::new(vec![3, 2])),
            None
        );
    }

    #[test]
    fn broadcasts_to_is_directional() {
        let small = Shape::new(vec![1, 3]);
        let big = Shape::new(vec![5, 3]);
        assert!(small.broadcasts_to(&big));
        assert!(!big.broadcasts_to(&small));
    }

    #[test]
    fn axis_manipulation() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.without_axis(1), Shape::new(vec![2, 4]));
        assert_eq!(s.with_axis_one(1), Shape::new(vec![2, 1, 4]));
        assert_eq!(s.with_inserted_axis(0), Shape::new(vec![1, 2, 3, 4]));
        assert_eq!(s.with_inserted_axis(3), Shape::new(vec![2, 3, 4, 1]));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
