//! A minimal dense row-major `f64` matrix.
//!
//! The crate intentionally avoids external linear-algebra dependencies; the
//! handful of operations the learners need (row/column access, transpose,
//! matrix multiplication, column statistics) live here.

/// Dense row-major matrix of `f64` values.
///
/// ```
/// use monitorless_learn::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.row(0), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the value at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`: one strided gather and one `Vec` per call.
    /// Tree fits read columns through the presorted training cache
    /// ([`crate::presort::PresortedDataset`]), which gathers every
    /// column once and keeps its values as ranks and distinct values.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Flat row-major view of the underlying data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree for matmul");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(r);
                for (c, &b) in orow.iter().enumerate() {
                    out_row[c] += a * b;
                }
            }
        }
        out
    }

    /// Builds a new matrix keeping only the given column indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                out.set(r, j, self.get(r, c));
            }
        }
        out
    }

    /// Builds a new matrix keeping only the given row indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Horizontally concatenates `self` with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must match for hstack");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertically concatenates `self` with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column counts must match for vstack");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Per-column means. Returns an empty vector for an empty matrix.
    pub fn column_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Per-column population standard deviations.
    pub fn column_stds(&self) -> Vec<f64> {
        let means = self.column_means();
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut vars = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for ((v, x), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = x - m;
                *v += d * d;
            }
        }
        let n = self.rows as f64;
        vars.into_iter().map(|v| (v / n).sqrt()).collect()
    }

    /// Per-column minimum and maximum as `(mins, maxs)`.
    pub fn column_min_max(&self) -> (Vec<f64>, Vec<f64>) {
        let mut mins = vec![f64::INFINITY; self.cols];
        let mut maxs = vec![f64::NEG_INFINITY; self.cols];
        for row in self.iter_rows() {
            for ((mn, mx), &v) in mins.iter_mut().zip(maxs.iter_mut()).zip(row) {
                if v < *mn {
                    *mn = v;
                }
                if v > *mx {
                    *mx = v;
                }
            }
        }
        (mins, maxs)
    }
}

monitorless_std::json_struct!(Matrix { rows, cols, data });

/// Builds a row-major [`Matrix`] by handing out disjoint fixed-capacity
/// row regions of one up-front buffer for callers to fill in place.
///
/// This is the zero-copy assembly path for producers that know an upper
/// bound on their row counts before producing a single value (training
/// episodes: at most `run_seconds` rows each). Each producer writes
/// rows directly into its region — no per-row `Vec`, no
/// [`Matrix::from_rows`] re-copy — and [`MatrixBuilder::finish`]
/// compacts partially filled regions in place (a no-op when every
/// region is full).
///
/// ```
/// use monitorless_learn::MatrixBuilder;
///
/// let mut b = MatrixBuilder::with_regions(2, 2, 3);
/// let mut regions = b.regions_mut();
/// regions.next().unwrap()[..3].copy_from_slice(&[1.0, 2.0, 3.0]);
/// regions.next().unwrap()[..6].copy_from_slice(&[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
/// drop(regions);
/// let m = b.finish(&[1, 2]); // region 0 produced 1 row, region 1 both
/// assert_eq!((m.rows(), m.cols()), (3, 3));
/// assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixBuilder {
    regions: usize,
    region_rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl MatrixBuilder {
    /// Allocates one zeroed row-major buffer of `regions` regions with
    /// capacity for `region_rows` rows of `cols` columns each.
    pub fn with_regions(regions: usize, region_rows: usize, cols: usize) -> Self {
        MatrixBuilder {
            regions,
            region_rows,
            cols,
            data: vec![0.0; regions * region_rows * cols],
        }
    }

    /// Number of regions.
    #[inline]
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Row capacity of each region.
    #[inline]
    pub fn region_rows(&self) -> usize {
        self.region_rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The disjoint mutable regions, in order — one `region_rows *
    /// cols` row-major slice each. Hand one to each producer; the
    /// borrows are independent, so producers may fill them from
    /// different threads.
    pub fn regions_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.data
            .chunks_mut((self.region_rows * self.cols).max(1))
            .take(self.regions)
    }

    /// Compacts the regions in place — keeping the first `used_rows[i]`
    /// rows of region `i` — and returns the finished matrix without
    /// copying into a new buffer. Fully used regions (the common case)
    /// make every `copy_within` a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `used_rows.len() != self.regions()` or any count
    /// exceeds the region capacity.
    pub fn finish(mut self, used_rows: &[usize]) -> Matrix {
        assert_eq!(used_rows.len(), self.regions, "one row count per region");
        let stride = self.region_rows * self.cols;
        let mut write = 0usize;
        for (i, &used) in used_rows.iter().enumerate() {
            assert!(used <= self.region_rows, "region {i} overflows its capacity");
            let start = i * stride;
            let len = used * self.cols;
            if start != write {
                self.data.copy_within(start..start + len, write);
            }
            write += len;
        }
        self.data.truncate(write);
        Matrix::from_vec(used_rows.iter().sum(), self.cols, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(1, 1, 7.5);
        assert_eq!(m.get(1, 1), 7.5);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let id = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.column(0), vec![17.0, 39.0]);
    }

    #[test]
    fn select_columns_and_rows() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let cols = m.select_columns(&[2, 0]);
        assert_eq!(cols.row(0), &[3.0, 1.0]);
        let rows = m.select_rows(&[1]);
        assert_eq!(rows.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn hstack_vstack() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let h = a.hstack(&b);
        assert_eq!(h.row(0), &[1.0, 3.0]);
        let v = a.vstack(&b);
        assert_eq!((v.rows(), v.cols()), (4, 1));
        assert_eq!(v.get(3, 0), 4.0);
    }

    #[test]
    fn column_stats() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
        assert_eq!(m.column_means(), vec![2.0, 10.0]);
        let stds = m.column_stds();
        assert!((stds[0] - 1.0).abs() < 1e-12);
        assert_eq!(stds[1], 0.0);
        let (mins, maxs) = m.column_min_max();
        assert_eq!(mins, vec![1.0, 10.0]);
        assert_eq!(maxs, vec![3.0, 10.0]);
    }

    #[test]
    fn serde_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let s = monitorless_std::json::to_string(&m);
        let back: Matrix = monitorless_std::json::from_str(&s).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn builder_full_regions_match_from_rows() {
        let mut b = MatrixBuilder::with_regions(3, 2, 2);
        assert_eq!((b.regions(), b.region_rows(), b.cols()), (3, 2, 2));
        for (i, region) in b.regions_mut().enumerate() {
            for (j, v) in region.iter_mut().enumerate() {
                *v = (i * 10 + j) as f64;
            }
        }
        let m = b.finish(&[2, 2, 2]);
        assert_eq!((m.rows(), m.cols()), (6, 2));
        assert_eq!(m.row(0), &[0.0, 1.0]);
        assert_eq!(m.row(5), &[22.0, 23.0]);
    }

    #[test]
    fn builder_compacts_partial_regions_in_order() {
        let mut b = MatrixBuilder::with_regions(3, 3, 1);
        {
            let mut regions = b.regions_mut();
            regions.next().unwrap()[0] = 1.0;
            let r1 = regions.next().unwrap();
            r1[0] = 2.0;
            r1[1] = 3.0;
            let _ = regions.next().unwrap(); // region 2 produces nothing
        }
        let m = b.finish(&[1, 2, 0]);
        assert_eq!((m.rows(), m.cols()), (3, 1));
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "overflows its capacity")]
    fn builder_rejects_overfull_region() {
        let _ = MatrixBuilder::with_regions(1, 2, 1).finish(&[3]);
    }
}
