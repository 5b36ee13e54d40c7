//! Column-major matrices of `f64`, `bool` and `String`, mirroring Nsp's
//! `Mat`, `BMat` and `SMat` types.
//!
//! A 1×1 matrix — every Nsp scalar, boolean and plain string — keeps its
//! element inline, with no `Vec`: building, copying or decoding one
//! allocates nothing (a string's own text aside).

use std::fmt;

/// A matrix's elements: one inline, or any number on the heap. A
/// matrix of one element always holds it inline, so two matrices of one
/// shape hold their elements the same way.
#[derive(Clone)]
enum Cells<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Cells<T> {
    /// `data` as cells, inline when it holds exactly one element.
    fn from_vec(mut data: Vec<T>) -> Self {
        match data.len() {
            1 => Cells::One(data.pop().expect("one element")),
            _ => Cells::Many(data),
        }
    }

    fn as_slice(&self) -> &[T] {
        match self {
            Cells::One(x) => std::slice::from_ref(x),
            Cells::Many(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Cells::One(x) => std::slice::from_mut(x),
            Cells::Many(v) => v,
        }
    }
}

impl<T: PartialEq> PartialEq for Cells<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for Cells<T> {}

impl<T: fmt::Debug> fmt::Debug for Cells<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A dense real matrix, column-major (Fortran order), like Nsp/Matlab.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Cells<f64>,
}

impl Matrix {
    /// Create from column-major data; panics on shape mismatch.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix {
            rows,
            cols,
            data: Cells::from_vec(data),
        }
    }

    /// Create from row-major data (convenient in Rust source).
    pub fn from_row_major(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = data[r * cols + c];
            }
        }
        Matrix::from_col_major(rows, cols, out)
    }

    /// A zero-filled matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::from_col_major(rows, cols, vec![0.0; rows * cols])
    }

    /// A 1×1 matrix — Nsp scalars are 1×1 matrices.
    pub(crate) fn scalar(x: f64) -> Self {
        Matrix {
            rows: 1,
            cols: 1,
            data: Cells::One(x),
        }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<f64>) -> Self {
        Matrix::from_col_major(1, data.len(), data)
    }

    /// An n×1 column vector.
    pub fn col(data: Vec<f64>) -> Self {
        Matrix::from_col_major(data.len(), 1, data)
    }

    /// The `a:b` range constructor (`1:100` in the paper's Fig. 2 example):
    /// integer-stepped inclusive row vector.
    pub fn range(from: f64, to: f64) -> Self {
        let mut data = Vec::new();
        let mut x = from;
        while x <= to + 1e-12 {
            data.push(x);
            x += 1.0;
        }
        Matrix::row(data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.data().len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }

    /// True for 1×1 values.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Element at (row, column), 0-based.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data()[c * self.rows + r]
    }

    /// Set the element at (row, column), 0-based.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let rows = self.rows;
        self.data_mut()[c * rows + r] = v;
    }

    /// Linear (column-major) indexing, as Nsp's `A(k)`.
    pub fn get_linear(&self, k: usize) -> f64 {
        self.data()[k]
    }

    /// The backing storage (column-major for matrices).
    pub fn data(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable backing storage (column-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "r ({}x{})", self.rows, self.cols)?;
        // A decoded n×0 matrix holds nothing however large n claims to be.
        for r in 0..self.rows.min(self.len()) {
            write!(f, "|")?;
            for c in 0..self.cols {
                write!(f, " {:>10.5}", self.get(r, c))?;
            }
            writeln!(f, " |")?;
        }
        Ok(())
    }
}

/// A boolean matrix (`BMat`), e.g. `%t` is a 1×1 `BoolMatrix`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolMatrix {
    rows: usize,
    cols: usize,
    data: Cells<bool>,
}

impl BoolMatrix {
    /// Build from column-major storage; panics on shape mismatch.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<bool>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        BoolMatrix {
            rows,
            cols,
            data: Cells::from_vec(data),
        }
    }

    /// A 1×1 value.
    pub(crate) fn scalar(b: bool) -> Self {
        BoolMatrix {
            rows: 1,
            cols: 1,
            data: Cells::One(b),
        }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<bool>) -> Self {
        BoolMatrix::from_col_major(1, data.len(), data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at (row, column), 0-based.
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.data()[c * self.rows + r]
    }

    /// The backing storage (column-major for matrices).
    pub fn data(&self) -> &[bool] {
        self.data.as_slice()
    }

    /// True for 1×1 values.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// All entries true (Nsp truthiness of a boolean matrix in `if`).
    pub fn all(&self) -> bool {
        self.data().iter().all(|&b| b)
    }
}

impl fmt::Display for BoolMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "b ({}x{})", self.rows, self.cols)?;
        // A decoded n×0 matrix holds nothing however large n claims to be.
        for r in 0..self.rows.min(self.data().len()) {
            write!(f, "|")?;
            for c in 0..self.cols {
                write!(f, " {}", if self.get(r, c) { "T" } else { "F" })?;
            }
            writeln!(f, " |")?;
        }
        Ok(())
    }
}

/// A matrix of strings (`SMat`); a plain Nsp string is a 1×1 `StrMatrix`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrMatrix {
    rows: usize,
    cols: usize,
    data: Cells<String>,
}

impl StrMatrix {
    /// Build from column-major storage; panics on shape mismatch.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<String>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        StrMatrix {
            rows,
            cols,
            data: Cells::from_vec(data),
        }
    }

    /// A 1×1 value.
    pub(crate) fn scalar<S: Into<String>>(s: S) -> Self {
        StrMatrix {
            rows: 1,
            cols: 1,
            data: Cells::One(s.into()),
        }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<String>) -> Self {
        StrMatrix::from_col_major(1, data.len(), data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at (row, column), 0-based.
    fn get(&self, r: usize, c: usize) -> &str {
        &self.data()[c * self.rows + r]
    }

    /// The backing storage (column-major for matrices).
    pub fn data(&self) -> &[String] {
        self.data.as_slice()
    }

    /// True for 1×1 values.
    fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// The contained string when 1×1.
    pub fn as_scalar(&self) -> Option<&str> {
        match &self.data {
            Cells::One(s) if self.is_scalar() => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for StrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "s ({}x{})", self.rows, self.cols)?;
        // A decoded n×0 matrix holds nothing however large n claims to be.
        for r in 0..self.rows.min(self.data().len()) {
            for c in 0..self.cols {
                write!(f, " {}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_major_layout() {
        // [[1,2],[3,4]] row-major should store as [1,3,2,4] col-major.
        let m = Matrix::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.data(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn scalar_is_1x1() {
        let m = Matrix::scalar(7.5);
        assert!(m.is_scalar());
        assert_eq!(m.get(0, 0), 7.5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn range_matches_nsp_colon() {
        let m = Matrix::range(1.0, 5.0);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let empty = Matrix::range(3.0, 2.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn set_get_round_trip() {
        let mut m = Matrix::zeros(3, 4);
        m.set(2, 3, 9.0);
        assert_eq!(m.get(2, 3), 9.0);
        assert_eq!(m.get_linear(3 * 3 + 2), 9.0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn bool_matrix_all() {
        assert!(BoolMatrix::scalar(true).all());
        assert!(!BoolMatrix::row(vec![true, false]).all());
        assert!(BoolMatrix::row(vec![true, true]).all());
    }

    #[test]
    fn str_matrix_scalar_access() {
        let s = StrMatrix::scalar("hello");
        assert_eq!(s.as_scalar(), Some("hello"));
        let m = StrMatrix::row(vec!["a".into(), "b".into()]);
        assert_eq!(m.as_scalar(), None);
        assert_eq!(m.get(0, 1), "b");
    }

    #[test]
    fn a_one_element_matrix_is_the_same_however_built() {
        assert_eq!(Matrix::from_col_major(1, 1, vec![2.5]), Matrix::scalar(2.5));
        assert_eq!(Matrix::row(vec![2.5]), Matrix::scalar(2.5));
        assert_eq!(Matrix::col(vec![2.5]), Matrix::zeros(1, 1).tap(2.5));
        assert_eq!(BoolMatrix::row(vec![true]), BoolMatrix::scalar(true));
        assert_eq!(StrMatrix::row(vec!["s".into()]), StrMatrix::scalar("s"));
        assert_ne!(Matrix::row(vec![2.5, 1.0]), Matrix::scalar(2.5));
        // The Debug form shows the elements, not how they are held.
        let shown = format!("{:?}", Matrix::scalar(2.5));
        assert_eq!(shown, "Matrix { rows: 1, cols: 1, data: [2.5] }");
        let mut m = Matrix::scalar(1.0);
        m.data_mut()[0] = 4.0;
        m.set(0, 0, m.get(0, 0) + 1.0);
        assert_eq!(m.data(), &[5.0]);
        assert_eq!(StrMatrix::row(vec!["a".into()]).as_scalar(), Some("a"));
        assert_eq!(StrMatrix::row(Vec::new()).as_scalar(), None);
    }

    impl Matrix {
        /// The 1×1 matrix with its element set to `x`.
        fn tap(mut self, x: f64) -> Self {
            self.set(0, 0, x);
            self
        }
    }

    #[test]
    fn display_formats() {
        let m = Matrix::from_row_major(1, 2, &[1.0, 2.0]);
        let s = format!("{m}");
        assert!(s.contains("1x2") || s.contains("(1x2)"));
        let b = format!("{}", BoolMatrix::scalar(true));
        assert!(b.contains('T'));
    }
}
