//! The dense `f32` tensor type used throughout the suite.

use std::fmt;
use std::sync::Arc;

use crate::recycle::Storage;
use crate::rng::Rng;
use crate::shape::Shape;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// `Tensor` is the single value type flowing through the dataflow graph.
/// It is a shape over a shared, copy-on-write buffer: [`Clone`] and
/// [`Tensor::reshaped`] hand out the same buffer under a new owner or a
/// new shape without copying a byte, and [`Tensor::data_mut`] copies only
/// when the buffer has another owner. A buffer drawn from a
/// [`BufferPool`](crate::BufferPool) goes back to that pool when its last
/// owner drops, whichever thread that happens on. There are no strided
/// views: kernels that need strided access compute offsets through
/// [`Shape`].
///
/// # Examples
///
/// ```
/// use fathom_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.shape().num_elements(), 4);
/// let shared = t.clone();
/// assert_eq!(shared.data().as_ptr(), t.data().as_ptr());
/// ```
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    storage: Arc<Storage>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl Tensor {
    fn with_storage(shape: Shape, storage: Storage) -> Self {
        Tensor { shape, storage: Arc::new(storage) }
    }

    /// A tensor of `shape` on a buffer from the thread's installed
    /// [`BufferPool`](crate::BufferPool), or a fresh one. **Contents are
    /// unspecified**: the caller overwrites every element before reading.
    pub(crate) fn pooled(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let storage = Storage::take(shape.num_elements());
        Tensor::with_storage(shape, storage)
    }

    /// Creates a tensor from a flat row-major buffer and a shape. The
    /// buffer is the caller's: it belongs to no pool and is freed when
    /// its last owner drops.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.num_elements(),
            "buffer of {} elements cannot have shape {}",
            data.len(),
            shape
        );
        Tensor::with_storage(shape, Storage::adopt(data))
    }

    /// A tensor filled with zeros. Draws its backing buffer from the
    /// thread's installed [`crate::recycle::BufferPool`], when one is.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Tensor::filled(shape, 0.0)
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::filled(shape, 1.0)
    }

    /// A tensor filled with `value`. Draws its backing buffer from the
    /// thread's installed [`crate::recycle::BufferPool`], when one is.
    pub fn filled(shape: impl Into<Shape>, value: f32) -> Self {
        let mut t = Tensor::pooled(shape);
        t.data_mut().fill(value);
        t
    }

    /// A rank-0 tensor holding a single value. Draws its buffer from the
    /// thread's installed pool: scalars (losses, counters, step flags)
    /// are produced every step, so even they must not touch the
    /// allocator once the pool has warmed up.
    pub fn scalar(value: f32) -> Self {
        Tensor::filled(Shape::scalar(), value)
    }

    /// A tensor with elements drawn from `N(mean, std^2)` using the given
    /// deterministic generator.
    pub fn randn(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut Rng) -> Self {
        let mut t = Tensor::pooled(shape);
        for slot in t.data_mut() {
            *slot = rng.normal() * std + mean;
        }
        t
    }

    /// A tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let mut t = Tensor::pooled(shape);
        for slot in t.data_mut() {
            *slot = rng.uniform() * (hi - lo) + lo;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data().len()
    }

    /// Returns `true` if the tensor has no elements (some axis has extent 0).
    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        self.storage.data()
    }

    /// Mutable access to the flat row-major buffer. When another tensor
    /// shares the buffer, this tensor first moves to a private copy (the
    /// one copy-on-write copy, counted by
    /// [`BufferPool::copied_bytes`](crate::BufferPool::copied_bytes)), so
    /// the other owners never see the write.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.storage).data_mut()
    }

    /// Consumes the tensor and returns its buffer, which leaves any pool
    /// for good. The buffer is taken as it is when this tensor owns it
    /// alone, and copied (counted like [`Tensor::data_mut`]'s copy) when
    /// it is shared.
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.storage) {
            Ok(storage) => storage.into_vec(),
            Err(shared) => shared.to_vec(),
        }
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank does not match the tensor's rank.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data()[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank does not match the tensor's rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data_mut()[off] = value;
    }

    /// The single value of a scalar (or single-element) tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.len(), 1, "scalar_value on tensor of shape {}", self.shape);
        self.data()[0]
    }

    /// The same buffer under a new shape with the same element count:
    /// nothing is copied, and a clone taken before keeps its own shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(mut self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.len(),
            shape.num_elements(),
            "cannot reshape {} elements to {}",
            self.len(),
            shape
        );
        self.shape = shape;
        self
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (negative infinity for empty tensors).
    pub fn max(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for empty tensors).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element along the last axis, returned as a
    /// tensor of the remaining shape (values are indices cast to `f32`).
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors or when the last axis has extent 0.
    pub fn argmax_last_axis(&self) -> Tensor {
        assert!(self.shape.rank() >= 1, "argmax requires rank >= 1");
        let inner = self.shape.dim(self.shape.rank() - 1);
        assert!(inner > 0, "argmax along empty axis");
        let outer = self.len() / inner;
        let mut out = Vec::with_capacity(outer);
        for row in 0..outer {
            let slice = &self.data()[row * inner..(row + 1) * inner];
            let mut best = 0;
            for (i, &v) in slice.iter().enumerate() {
                if v > slice[best] {
                    best = i;
                }
            }
            out.push(best as f32);
        }
        let out_shape = Shape::new(self.shape.dims()[..self.shape.rank() - 1].to_vec());
        Tensor::from_vec(out, out_shape)
    }

    /// Returns `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference with `other`, for approximate equality
    /// checks in tests.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({} ", self.shape)?;
        const PREVIEW: usize = 8;
        let data = self.data();
        if data.len() <= PREVIEW {
            write!(f, "{data:?})")
        } else {
            write!(f, "{:?}...)", &data[..PREVIEW])
        }
    }
}

impl From<f32> for Tensor {
    fn from(value: f32) -> Self {
        Tensor::scalar(value)
    }
}

impl From<Vec<f32>> for Tensor {
    fn from(values: Vec<f32>) -> Self {
        let n = values.len();
        Tensor::from_vec(values, [n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn wrong_size_panics() {
        Tensor::from_vec(vec![1.0, 2.0], [3]);
    }

    #[test]
    fn fills() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::filled([3], 2.5).sum(), 7.5);
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Tensor::scalar(3.25);
        assert!(s.shape().is_scalar());
        assert_eq!(s.scalar_value(), 3.25);
    }

    #[test]
    fn set_and_get() {
        let mut t = Tensor::zeros([2, 2]);
        t.set(&[1, 1], 9.0);
        assert_eq!(t.at(&[1, 1]), 9.0);
        assert_eq!(t.sum(), 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).reshaped([4]);
        assert_eq!(t.shape(), &Shape::vector(4));
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn bad_reshape_panics() {
        let _ = Tensor::zeros([2, 2]).reshaped([3]);
    }

    #[test]
    fn statistics() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 4.0, 5.0], [4]);
        assert_eq!(t.mean(), 2.0);
        assert_eq!(t.max(), 5.0);
        assert_eq!(t.min(), -1.0);
    }

    #[test]
    fn argmax_rows() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5], [2, 3]);
        let a = t.argmax_last_axis();
        assert_eq!(a.data(), &[1.0, 2.0]);
        assert_eq!(a.shape(), &Shape::vector(2));
    }

    #[test]
    fn randn_is_deterministic() {
        let mut r1 = Rng::seeded(7);
        let mut r2 = Rng::seeded(7);
        let a = Tensor::randn([16], 0.0, 1.0, &mut r1);
        let b = Tensor::randn([16], 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
        assert!(a.all_finite());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = Rng::seeded(3);
        let t = Tensor::rand_uniform([1000], -2.0, 3.0, &mut rng);
        assert!(t.min() >= -2.0);
        assert!(t.max() < 3.0);
    }

    /// A pool installed for the test's tensors, so copies are counted.
    fn arena() -> std::sync::Arc<crate::BufferPool> {
        std::sync::Arc::new(crate::BufferPool::new())
    }

    #[test]
    fn clone_shares_the_buffer() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let c = t.clone();
        assert_eq!(c.data().as_ptr(), t.data().as_ptr());
        assert_eq!(c, t);
    }

    #[test]
    fn data_mut_on_a_shared_tensor_copies_once_and_leaves_the_sibling_alone() {
        let pool = arena();
        let _guard = crate::BufferPool::install(&pool);
        let t = Tensor::filled([1024], 1.5);
        let mut c = t.clone();
        c.data_mut()[0] = -2.0;
        assert_eq!(pool.copied_bytes(), 1024 * 4, "one copy of the whole buffer");
        assert_ne!(c.data().as_ptr(), t.data().as_ptr());
        assert!(t.data().iter().all(|v| v.to_bits() == 1.5f32.to_bits()), "the sibling's bits moved");
        assert_eq!((c.data()[0], c.data()[1]), (-2.0, 1.5));
        // Both now own their buffers alone: further writes copy nothing.
        c.data_mut()[1] = 0.0;
        let mut t = t;
        t.set(&[2], 7.0);
        assert_eq!(pool.copied_bytes(), 1024 * 4);
    }

    #[test]
    fn reshaped_shares_the_buffer() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let r = t.clone().reshaped([4]);
        assert_eq!(r.data().as_ptr(), t.data().as_ptr());
        assert_eq!((r.shape(), t.shape()), (&Shape::vector(4), &Shape::matrix(2, 2)));
    }

    #[test]
    fn into_vec_takes_a_unique_buffer_and_copies_a_shared_one() {
        let pool = arena();
        let _guard = crate::BufferPool::install(&pool);
        let t = Tensor::filled([256], 3.0);
        let ptr = t.data().as_ptr();
        let taken = t.into_vec();
        assert_eq!((taken.as_ptr(), pool.copied_bytes()), (ptr, 0), "a unique buffer is taken");
        let t = Tensor::filled([256], 4.0);
        let sibling = t.clone();
        let copied = t.into_vec();
        assert_ne!(copied.as_ptr(), sibling.data().as_ptr());
        assert_eq!(copied, sibling.data());
        assert_eq!(pool.copied_bytes(), 256 * 4, "a shared buffer is copied, and counted");
    }

    #[test]
    fn max_abs_diff_measures_distance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![1.5, 1.0], [2]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}
