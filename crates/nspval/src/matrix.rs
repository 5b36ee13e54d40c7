//! Column-major matrices of `f64`, `bool` and `String`, mirroring Nsp's
//! `Mat`, `BMat` and `SMat` types.

use std::fmt;

/// A dense real matrix, column-major (Fortran order), like Nsp/Matlab.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create from column-major data; panics on shape mismatch.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
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
        Matrix {
            rows,
            cols,
            data: out,
        }
    }

    /// A zero-filled matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A 1×1 matrix — Nsp scalars are 1×1 matrices.
    pub(crate) fn scalar(x: f64) -> Self {
        Matrix {
            rows: 1,
            cols: 1,
            data: vec![x],
        }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<f64>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// An n×1 column vector.
    pub fn col(data: Vec<f64>) -> Self {
        let rows = data.len();
        Matrix {
            rows,
            cols: 1,
            data,
        }
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
        self.data.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True for 1×1 values.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// Element at (row, column), 0-based.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[c * self.rows + r]
    }

    /// Set the element at (row, column), 0-based.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[c * self.rows + r] = v;
    }

    /// Linear (column-major) indexing, as Nsp's `A(k)`.
    pub fn get_linear(&self, k: usize) -> f64 {
        self.data[k]
    }

    /// The backing storage (column-major for matrices).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable backing storage (column-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "r ({}x{})", self.rows, self.cols)?;
        // A decoded n×0 matrix holds nothing however large n claims to be.
        for r in 0..self.rows.min(self.data.len()) {
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
    data: Vec<bool>,
}

impl BoolMatrix {
    /// Build from column-major storage; panics on shape mismatch.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<bool>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        BoolMatrix { rows, cols, data }
    }

    /// A 1×1 value.
    pub(crate) fn scalar(b: bool) -> Self {
        BoolMatrix {
            rows: 1,
            cols: 1,
            data: vec![b],
        }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<bool>) -> Self {
        let cols = data.len();
        BoolMatrix {
            rows: 1,
            cols,
            data,
        }
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
        self.data[c * self.rows + r]
    }

    /// The backing storage (column-major for matrices).
    pub fn data(&self) -> &[bool] {
        &self.data
    }

    /// True for 1×1 values.
    pub fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// All entries true (Nsp truthiness of a boolean matrix in `if`).
    pub fn all(&self) -> bool {
        self.data.iter().all(|&b| b)
    }
}

impl fmt::Display for BoolMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "b ({}x{})", self.rows, self.cols)?;
        // A decoded n×0 matrix holds nothing however large n claims to be.
        for r in 0..self.rows.min(self.data.len()) {
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
    data: Vec<String>,
}

impl StrMatrix {
    /// Build from column-major storage; panics on shape mismatch.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<String>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        StrMatrix { rows, cols, data }
    }

    /// A 1×1 value.
    pub(crate) fn scalar<S: Into<String>>(s: S) -> Self {
        StrMatrix {
            rows: 1,
            cols: 1,
            data: vec![s.into()],
        }
    }

    /// A 1×n row vector.
    pub fn row(data: Vec<String>) -> Self {
        let cols = data.len();
        StrMatrix {
            rows: 1,
            cols,
            data,
        }
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
        &self.data[c * self.rows + r]
    }

    /// The backing storage (column-major for matrices).
    pub fn data(&self) -> &[String] {
        &self.data
    }

    /// True for 1×1 values.
    fn is_scalar(&self) -> bool {
        self.rows == 1 && self.cols == 1
    }

    /// The contained string when 1×1.
    pub fn as_scalar(&self) -> Option<&str> {
        if self.is_scalar() {
            Some(&self.data[0])
        } else {
            None
        }
    }
}

impl fmt::Display for StrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "s ({}x{})", self.rows, self.cols)?;
        // A decoded n×0 matrix holds nothing however large n claims to be.
        for r in 0..self.rows.min(self.data.len()) {
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
    fn display_formats() {
        let m = Matrix::from_row_major(1, 2, &[1.0, 2.0]);
        let s = format!("{m}");
        assert!(s.contains("1x2") || s.contains("(1x2)"));
        let b = format!("{}", BoolMatrix::scalar(true));
        assert!(b.contains('T'));
    }
}
