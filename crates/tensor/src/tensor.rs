//! The contiguous row-major `f32` tensor type.

use crate::shape::Shape;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single numeric container used throughout the Bioformers
/// stack: network activations, parameters and gradients are all `Tensor`s.
/// The element buffer is always exactly `shape.len()` long.
///
/// # Example
///
/// ```
/// use bioformer_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.data().len(), 6);
/// ```
#[derive(PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }

    /// Copies `src` into this tensor's buffer, which is reused when it is
    /// large enough: layers refresh their training caches this way every
    /// step without allocating.
    fn clone_from(&mut self, src: &Self) {
        self.shape.clone_from(&src.shape);
        self.data.clone_from(&src.data);
    }
}

/// Error returned by [`Tensor::try_from_vec`] when the buffer length does not
/// match the requested shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildTensorError {
    /// Number of elements the shape requires.
    pub expected: usize,
    /// Number of elements the caller provided.
    pub actual: usize,
}

impl fmt::Display for BuildTensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "buffer length {} does not match shape element count {}",
            self.actual, self.expected
        )
    }
}

impl std::error::Error for BuildTensorError {}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the element count of `dims`.
    /// Use [`Tensor::try_from_vec`] for a fallible variant.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        match Self::try_from_vec(data, dims) {
            Ok(t) => t,
            Err(e) => panic!("Tensor::from_vec: {e}"),
        }
    }

    /// Fallible variant of [`Tensor::from_vec`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildTensorError`] if the buffer length does not match the
    /// shape's element count.
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, BuildTensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(BuildTensorError {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor by evaluating `f(flat_index)` for every element.
    pub fn from_fn(dims: &[usize], f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the element buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the element buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.flat_index(index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.shape.flat_index(index);
        self.data[i] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.len(),
            "reshape from {} to {} changes element count",
            self.shape,
            shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// In-place reshape (no data copy).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.len(),
            self.len(),
            "reshape from {} to {} changes element count",
            self.shape,
            shape
        );
        self.shape = shape;
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2 requires a 2-D tensor");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Returns row `r` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row() requires a 2-D tensor");
        let n = self.shape.dim(1);
        &self.data[r * n..(r + 1) * n]
    }

    /// Mutable row view of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.shape.rank(), 2, "row_mut() requires a 2-D tensor");
        let n = self.shape.dim(1);
        &mut self.data[r * n..(r + 1) * n]
    }

    /// Element-wise sum; returns a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference; returns a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product; returns a new tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// In-place element-wise accumulation `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(
            self.shape, rhs.shape,
            "add_assign shape mismatch: {} vs {}",
            self.shape, rhs.shape
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * rhs` (AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(
            self.shape, rhs.shape,
            "axpy shape mismatch: {} vs {}",
            self.shape, rhs.shape
        );
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Tensor {
        self.map(|v| v * scalar)
    }

    /// Multiplies every element by `scalar` in place.
    pub fn scale_in_place(&mut self, scalar: f32) {
        for v in &mut self.data {
            *v *= scalar;
        }
    }

    /// Applies `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` element-wise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shape tensors element-wise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, rhs.shape,
            "element-wise op shape mismatch: {} vs {}",
            self.shape, rhs.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest absolute element (0.0 for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Index of the maximum element along the last axis of a 2-D tensor,
    /// one result per row.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows requires a 2-D tensor");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        assert!(n > 0, "argmax_rows requires at least one column");
        (0..m)
            .map(|r| {
                let row = &self.data[r * n..(r + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Returns `true` when every element differs from `rhs` by at most
    /// `atol` (and the shapes match).
    pub fn allclose(&self, rhs: &Tensor, atol: f32) -> bool {
        self.shape == rhs.shape
            && self
                .data
                .iter()
                .zip(rhs.data.iter())
                .all(|(a, b)| (a - b).abs() <= atol)
    }

    /// Returns `true` when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Stacks 2-D tensors with identical shapes along a new leading axis,
    /// producing a `[count, rows, cols]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or the shapes disagree.
    pub fn stack(items: &[&Tensor]) -> Tensor {
        assert!(
            !items.is_empty(),
            "Tensor::stack requires at least one item"
        );
        let first = items[0].shape().clone();
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.dims());
        let mut data = Vec::with_capacity(first.len() * items.len());
        for t in items {
            assert_eq!(
                *t.shape(),
                first,
                "Tensor::stack shape mismatch: {} vs {}",
                t.shape(),
                first
            );
            data.extend_from_slice(t.data());
        }
        Tensor {
            shape: Shape::from(dims),
            data,
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, …, {:.4}] ({} elems))",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.len()
            )
        }
    }
}

impl Default for Tensor {
    /// An empty 1-D tensor.
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(&[4]);
        assert!(o.data().iter().all(|&v| v == 1.0));
        let f = Tensor::full(&[2], 3.5);
        assert_eq!(f.data(), &[3.5, 3.5]);
    }

    #[test]
    fn eye_matrix() {
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[0, 0]), 1.0);
        assert_eq!(e.at(&[1, 2]), 0.0);
        assert_eq!(e.sum(), 3.0);
    }

    #[test]
    fn try_from_vec_rejects_bad_len() {
        let err = Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(err.expected, 6);
        assert_eq!(err.actual, 5);
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_panics_on_bad_len() {
        Tensor::from_vec(vec![0.0; 3], &[2, 2]);
    }

    #[test]
    fn indexing_and_set() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_wrong_count() {
        Tensor::zeros(&[2, 3]).reshape(&[4, 2]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert!(tt.transpose2().allclose(&t, 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.axpy(0.5, &g);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 4.0, 2.0, -5.0], &[4]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -5.0);
        assert_eq!(t.abs_max(), 5.0);
        assert_eq!(t.norm_sq(), 1.0 + 16.0 + 4.0 + 25.0);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn argmax_rows_ties_pick_last_max() {
        // max_by keeps the last maximal element on ties.
        let t = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        assert_eq!(t.argmax_rows(), vec![1]);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0 + 1e-6, 2.0 - 1e-6], &[2]);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-8));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.set(&[0], f32::NAN);
        assert!(t.has_non_finite());
    }

    #[test]
    fn stack_tensors() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::zeros(&[2, 2]);
        let s = Tensor::stack(&[&a, &b]);
        assert_eq!(s.dims(), &[2, 2, 2]);
        assert_eq!(s.data()[0], 1.0);
        assert_eq!(s.data()[4], 0.0);
    }

    #[test]
    fn rows_views() {
        let mut t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
        t.row_mut(0)[0] = 9.0;
        assert_eq!(t.at(&[0, 0]), 9.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let t = Tensor::zeros(&[16]);
        let s = format!("{t:?}");
        assert!(s.contains("shape"));
    }
}
