//! Minimal sparse linear-algebra types used by the simplex implementation.
//!
//! The constraint matrix is stored column-wise ([`SparseMatrix`]): the revised
//! simplex needs `B^{-1} A_j` for single columns `A_j` and reduced-cost
//! pricing over columns. The one row-wise consumer — the pivot row
//! `α = ρᵀA` gathered over the non-zeros of `ρ` — reads a [`RowMajor`] copy
//! built once per standard form. [`IndexedVec`] is the dense-vector-plus-
//! non-zero-list the sparse FTRAN/BTRAN kernels exchange with the pivot loops.

/// A sparse vector stored as parallel `(index, value)` arrays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    /// Indices of the non-zero entries (strictly increasing).
    pub indices: Vec<usize>,
    /// Values of the non-zero entries, parallel to `indices`.
    pub values: Vec<f64>,
}

impl SparseVec {
    /// Creates an empty sparse vector.
    pub fn new() -> Self {
        Self {
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates a sparse vector from an unsorted list of `(index, value)`
    /// pairs. Duplicate indices are summed; zero entries are dropped.
    pub fn from_pairs(pairs: &[(usize, f64)]) -> Self {
        Self::from_vec(pairs.to_vec())
    }

    /// Like [`SparseVec::from_pairs`] but consumes the buffer: the sort, the
    /// duplicate merge, and the zero drop all happen in place, with no
    /// additional allocation.
    pub fn from_vec(mut pairs: Vec<(usize, f64)>) -> Self {
        pairs.sort_unstable_by_key(|(i, _)| *i);
        // Merge duplicates and drop zeros in place.
        let mut write = 0usize;
        let mut read = 0usize;
        while read < pairs.len() {
            let (idx, mut sum) = pairs[read];
            read += 1;
            while read < pairs.len() && pairs[read].0 == idx {
                sum += pairs[read].1;
                read += 1;
            }
            if sum != 0.0 {
                pairs[write] = (idx, sum);
                write += 1;
            }
        }
        pairs.truncate(write);
        let mut indices = Vec::with_capacity(write);
        let mut values = Vec::with_capacity(write);
        for (i, v) in pairs {
            indices.push(i);
            values.push(v);
        }
        Self { indices, values }
    }

    /// Number of structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Appends a non-zero entry. The caller must append indices in strictly
    /// increasing order.
    pub fn push(&mut self, index: usize, value: f64) {
        debug_assert!(self.indices.last().is_none_or(|&last| index > last));
        if value != 0.0 {
            self.indices.push(index);
            self.values.push(value);
        }
    }

    /// Dot product with a dense vector.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            acc += v * dense[i];
        }
        acc
    }

    /// Iterates over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Converts to a dense vector of the given length.
    pub fn to_dense(&self, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        for (i, v) in self.iter() {
            out[i] = v;
        }
        out
    }
}

/// A column-major sparse matrix (each column is a [`SparseVec`] over rows).
#[derive(Debug, Clone, Default)]
pub struct SparseMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Columns of the matrix.
    pub cols: Vec<SparseVec>,
}

impl SparseMatrix {
    /// Creates an empty matrix with `rows` rows and no columns.
    pub fn new(rows: usize) -> Self {
        Self {
            rows,
            cols: Vec::new(),
        }
    }

    /// Builds an `rows x ncols` matrix from `(row, col, value)` triplets in
    /// any order. Duplicate positions are summed; explicit zeros are dropped.
    /// One pass distributes the triplets to their columns, so formulation code
    /// can emit coefficients in whatever order is natural instead of building
    /// columns pair by pair.
    pub fn from_triplets(rows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
        for &(r, c, v) in triplets {
            debug_assert!(r < rows && c < ncols, "triplet ({r}, {c}) out of bounds");
            per_col[c].push((r, v));
        }
        Self {
            rows,
            cols: per_col.into_iter().map(SparseVec::from_vec).collect(),
        }
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// Total number of structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.cols.iter().map(|c| c.nnz()).sum()
    }

    /// Appends a column and returns its index.
    pub fn push_col(&mut self, col: SparseVec) -> usize {
        debug_assert!(col.indices.iter().all(|&r| r < self.rows));
        self.cols.push(col);
        self.cols.len() - 1
    }

    /// Returns a reference to column `j`.
    pub fn col(&self, j: usize) -> &SparseVec {
        &self.cols[j]
    }

    /// Computes `y = M x` for a dense `x` (length `ncols`), returning a dense
    /// vector of length `rows`.
    pub fn mul_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols());
        let mut y = vec![0.0; self.rows];
        for (j, col) in self.cols.iter().enumerate() {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for (i, v) in col.iter() {
                y[i] += v * xj;
            }
        }
        y
    }

    /// Computes `y^T M` for a dense row vector `y` (length `rows`), returning a
    /// dense vector of length `ncols` (i.e. `M^T y`).
    pub fn transpose_mul_dense(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows);
        self.cols.iter().map(|c| c.dot_dense(y)).collect()
    }
}

/// A row-major (CSR) copy of a [`SparseMatrix`]: per row, the column indices
/// (ascending) and values of its non-zeros.
#[derive(Debug, Clone, Default)]
pub struct RowMajor {
    ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl RowMajor {
    /// Transposes the storage of `a` with one counting pass and one fill
    /// pass. Columns are visited in ascending order, so every row lists its
    /// entries by ascending column.
    pub fn from_columns(a: &SparseMatrix) -> Self {
        let mut ptr = vec![0usize; a.rows + 1];
        for col in &a.cols {
            for &i in &col.indices {
                ptr[i + 1] += 1;
            }
        }
        for i in 0..a.rows {
            ptr[i + 1] += ptr[i];
        }
        let mut next = ptr[..a.rows].to_vec();
        let mut cols = vec![0u32; ptr[a.rows]];
        let mut vals = vec![0.0; ptr[a.rows]];
        for (j, col) in a.cols.iter().enumerate() {
            for (i, v) in col.iter() {
                cols[next[i]] = j as u32;
                vals[next[i]] = v;
                next[i] += 1;
            }
        }
        RowMajor { ptr, cols, vals }
    }

    /// Iterates over the `(column, value)` non-zeros of row `i`, by ascending
    /// column.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.ptr[i]..self.ptr[i + 1];
        self.cols[span.clone()]
            .iter()
            .map(|&j| j as usize)
            .zip(self.vals[span].iter().copied())
    }
}

/// A dense vector that also knows where its non-zeros are: the currency of
/// the sparse-right-hand-side solves in [`crate::basis::LuFactors`].
///
/// While `dense` is `false`, `nz` is a sorted, duplicate-free **superset** of
/// the positions holding a non-zero (an entry that cancelled to exact zero
/// may stay listed) and every unlisted position is `+0.0`. Once a solve finds
/// the vector too full for the list to pay, it sets `dense` and stops
/// maintaining `nz`; [`IndexedVec::indices`] then walks every position.
#[derive(Debug, Clone, Default)]
pub struct IndexedVec {
    /// The values, one per position.
    pub values: Vec<f64>,
    /// Positions that may hold a non-zero (meaningful while `!dense`).
    pub nz: Vec<usize>,
    /// `nz` is not maintained: any position may hold a non-zero.
    pub dense: bool,
}

/// Positions of an [`IndexedVec`] that may hold a non-zero, ascending.
pub enum Indices<'a> {
    /// Every position (the vector is dense).
    All(std::ops::Range<usize>),
    /// The listed positions.
    Listed(std::slice::Iter<'a, usize>),
}

impl Iterator for Indices<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            Indices::All(r) => r.next(),
            Indices::Listed(it) => it.next().copied(),
        }
    }

    /// Internal iteration (`for_each`, `sum`, …) picks the variant once, not
    /// per position: on a dense vector it compiles to the plain `0..len`
    /// loop the pivot code ran before the lists existed.
    #[inline]
    fn fold<B, F: FnMut(B, usize) -> B>(self, init: B, f: F) -> B {
        match self {
            Indices::All(r) => r.fold(init, f),
            Indices::Listed(it) => it.copied().fold(init, f),
        }
    }
}

impl IndexedVec {
    /// An all-zero vector of length `len`.
    pub fn zeros(len: usize) -> Self {
        IndexedVec {
            values: vec![0.0; len],
            nz: Vec::new(),
            dense: false,
        }
    }

    /// Wraps a dense vector whose non-zero positions are not known.
    pub fn from_dense(values: Vec<f64>) -> Self {
        IndexedVec {
            values,
            nz: Vec::new(),
            dense: true,
        }
    }

    /// Zeroes the vector — over the list when it is maintained, so clearing
    /// costs what the vector holds, not its length.
    pub fn clear(&mut self) {
        if self.dense {
            self.values.fill(0.0);
            self.dense = false;
        } else {
            for &i in &self.nz {
                self.values[i] = 0.0;
            }
        }
        self.nz.clear();
    }

    /// Adds `value` at position `i` and lists the position. A position may
    /// be listed more than once while a right-hand side is being assembled;
    /// the solves drop the duplicates.
    #[inline]
    pub fn add(&mut self, i: usize, value: f64) {
        self.values[i] += value;
        self.nz.push(i);
    }

    /// Makes the vector the unit vector `e_i`.
    pub fn set_unit(&mut self, i: usize) {
        self.clear();
        self.add(i, 1.0);
    }

    /// Makes the vector a copy of `other` (same length).
    pub fn copy_from(&mut self, other: &IndexedVec) {
        if other.dense {
            self.values.copy_from_slice(&other.values);
            self.nz.clear();
            self.dense = true;
        } else {
            self.clear();
            for &i in &other.nz {
                self.values[i] = other.values[i];
            }
            self.nz.extend_from_slice(&other.nz);
        }
    }

    /// The positions that may hold a non-zero, ascending.
    pub fn indices(&self) -> Indices<'_> {
        if self.dense {
            Indices::All(0..self.values.len())
        } else {
            Indices::Listed(self.nz.iter())
        }
    }

    /// Re-derives the index state from the values after a dense kernel wrote
    /// them: the list is rebuilt when at most `cap` positions are non-zero,
    /// otherwise the vector is marked dense. Returns whether it is dense.
    pub(crate) fn reindex(&mut self, cap: usize) -> bool {
        let count = self.values.iter().filter(|v| **v != 0.0).count();
        self.nz.clear();
        self.dense = count > cap;
        if !self.dense {
            let values = &self.values;
            self.nz
                .extend((0..values.len()).filter(|&i| values[i] != 0.0));
        }
        self.dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vec_from_pairs_sorts_merges_and_drops_zeros() {
        let v =
            SparseVec::from_pairs(&[(3, 1.0), (1, 2.0), (3, 2.0), (5, 0.0), (2, 1.0), (2, -1.0)]);
        assert_eq!(v.indices, vec![1, 3]);
        assert_eq!(v.values, vec![2.0, 3.0]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn sparse_vec_dot_dense() {
        let v = SparseVec::from_pairs(&[(0, 1.0), (2, 3.0)]);
        let d = vec![2.0, 5.0, 4.0];
        assert_eq!(v.dot_dense(&d), 2.0 + 12.0);
    }

    #[test]
    fn sparse_vec_to_dense_roundtrip() {
        let v = SparseVec::from_pairs(&[(1, 4.0), (3, -2.0)]);
        assert_eq!(v.to_dense(5), vec![0.0, 4.0, 0.0, -2.0, 0.0]);
    }

    #[test]
    fn sparse_matrix_mul_dense() {
        // M = [1 2; 0 3] stored by columns.
        let mut m = SparseMatrix::new(2);
        m.push_col(SparseVec::from_pairs(&[(0, 1.0)]));
        m.push_col(SparseVec::from_pairs(&[(0, 2.0), (1, 3.0)]));
        let y = m.mul_dense(&[1.0, 2.0]);
        assert_eq!(y, vec![5.0, 6.0]);
        let yt = m.transpose_mul_dense(&[1.0, 1.0]);
        assert_eq!(yt, vec![1.0, 5.0]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.ncols(), 2);
    }
}

#[cfg(test)]
mod indexed_tests {
    use super::*;

    #[test]
    fn row_major_lists_each_row_by_ascending_column() {
        // [1 2 0; 0 3 4] by columns.
        let a = SparseMatrix::from_triplets(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0), (1, 2, 4.0)],
        );
        let r = RowMajor::from_columns(&a);
        assert_eq!(r.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(r.row(1).collect::<Vec<_>>(), vec![(1, 3.0), (2, 4.0)]);
        // A matrix without rows transposes to nothing (the m = 0 solve path).
        let _ = RowMajor::from_columns(&SparseMatrix::new(0));
    }

    #[test]
    fn indexed_vec_clears_by_list_and_reindexes_by_density() {
        let mut v = IndexedVec::zeros(8);
        v.set_unit(3);
        assert_eq!(v.indices().collect::<Vec<_>>(), vec![3]);
        v.values[5] = 2.0; // written by a dense kernel, not listed
        assert!(!v.reindex(2));
        assert_eq!(v.nz, vec![3, 5]);
        assert!(v.reindex(1));
        assert_eq!(v.indices().count(), 8);
        let mut w = IndexedVec::zeros(8);
        w.copy_from(&v);
        assert!(w.dense && w.values == v.values);
        v.clear();
        assert!(!v.dense && v.values.iter().all(|x| *x == 0.0));
        w.reindex(4);
        v.copy_from(&w);
        assert_eq!((v.nz.clone(), v.values[5]), (vec![3, 5], 2.0));
    }
}

#[cfg(test)]
mod triplet_tests {
    use super::*;

    #[test]
    fn from_vec_merges_in_place() {
        let v = SparseVec::from_vec(vec![
            (3, 1.0),
            (1, 2.0),
            (3, 2.0),
            (5, 0.0),
            (2, 1.0),
            (2, -1.0),
        ]);
        assert_eq!(v.indices, vec![1, 3]);
        assert_eq!(v.values, vec![2.0, 3.0]);
    }

    #[test]
    fn from_triplets_builds_columns() {
        // M = [1 2; 0 3] plus a duplicate entry and an explicit zero.
        let m = SparseMatrix::from_triplets(
            2,
            2,
            &[
                (0, 1, 2.0),
                (0, 0, 0.5),
                (1, 1, 3.0),
                (0, 0, 0.5),
                (1, 0, 0.0),
            ],
        );
        assert_eq!(m.col(0).indices, vec![0]);
        assert_eq!(m.col(0).values, vec![1.0]);
        assert_eq!(m.col(1).indices, vec![0, 1]);
        assert_eq!(m.col(1).values, vec![2.0, 3.0]);
        assert_eq!(m.mul_dense(&[1.0, 2.0]), vec![5.0, 6.0]);
    }

    #[test]
    fn from_triplets_empty_columns_allowed() {
        let m = SparseMatrix::from_triplets(3, 4, &[(2, 3, 1.0)]);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.col(0).nnz(), 0);
    }
}
