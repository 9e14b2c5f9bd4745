//! Stages 3/5: feature reduction via random-forest filtering or PCA
//! (Section 3.3.4).

use monitorless_learn::pca::ComponentSelection;
use monitorless_learn::{Matrix, Pca, PresortedDataset, RandomForest, RandomForestParams};

use crate::Error;

/// Reduction strategy for a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduction {
    /// Train a random forest per training configuration and keep the
    /// union of each configuration's `top_k` most important features —
    /// the paper uses `top_k = 30`, yielding 117 unique features.
    ForestFilter {
        /// Features kept per configuration.
        top_k: usize,
        /// Trees per filtering forest (the paper uses defaults; smaller
        /// values keep the quick configurations fast).
        n_estimators: usize,
    },
    /// Project onto principal components explaining the given variance
    /// fraction, capped at `max_components` (the paper reduces to 50
    /// components at 99.99% variance).
    Pca {
        /// Cumulative explained-variance target in `(0, 1]`.
        variance: f64,
        /// Upper bound on components.
        max_components: usize,
    },
}

impl Reduction {
    /// The paper's first-stage filter (top-30 per dataset).
    pub fn paper_filter() -> Self {
        Reduction::ForestFilter {
            top_k: 30,
            n_estimators: 50,
        }
    }

    /// The paper's PCA alternative (50 components, 99.99% variance).
    pub fn paper_pca() -> Self {
        Reduction::Pca {
            variance: 0.9999,
            max_components: 50,
        }
    }
}

/// A fitted reduction stage.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedReduction {
    /// Column selection (sorted indices into the stage input).
    Select(Vec<usize>),
    /// PCA projection.
    Pca(Pca),
}

impl FittedReduction {
    /// Fits the reduction on `(x, y, groups)`.
    ///
    /// # Errors
    ///
    /// Propagates learner errors; degenerate groups (single class) are
    /// skipped for forest filtering.
    pub fn fit(
        reduction: Reduction,
        x: &Matrix,
        y: &[u8],
        groups: &[u32],
        seed: u64,
    ) -> Result<Self, Error> {
        match reduction {
            Reduction::Pca {
                variance,
                max_components,
            } => {
                // Fit capped, then trim to the variance target: fitting an
                // uncapped variance fraction first would extract far more
                // components than the stage can ever keep.
                let mut pca = Pca::new(ComponentSelection::Count(max_components));
                pca.fit(x)?;
                let ratios = pca.explained_variance_ratio();
                let mut acc = 0.0;
                let mut keep = ratios.len();
                for (i, r) in ratios.iter().enumerate() {
                    acc += r;
                    if acc >= variance {
                        keep = i + 1;
                        break;
                    }
                }
                pca.truncate(keep.max(1));
                Ok(FittedReduction::Pca(pca))
            }
            Reduction::ForestFilter {
                top_k,
                n_estimators,
            } => {
                let mut distinct: Vec<u32> = groups.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                let mut union: Vec<usize> = Vec::new();
                for g in distinct {
                    let idx: Vec<usize> = (0..x.rows()).filter(|&i| groups[i] == g).collect();
                    let yg: Vec<u8> = idx.iter().map(|&i| y[i]).collect();
                    let n_pos = yg.iter().filter(|&&l| l == 1).count();
                    if n_pos == 0 || n_pos == yg.len() {
                        continue; // degenerate configuration
                    }
                    // Gathered straight from `x`'s rows: no per-group
                    // row copy, and only the columns the forest's
                    // split searches sample are ever sorted.
                    let ps = PresortedDataset::build_rows(x, &idx);
                    let mut rf = RandomForest::new(RandomForestParams {
                        n_estimators,
                        seed: seed ^ u64::from(g),
                        ..RandomForestParams::default()
                    });
                    rf.fit_presorted(&ps, &yg, None)?;
                    union.extend(rf.top_features(top_k));
                }
                union.sort_unstable();
                union.dedup();
                if union.is_empty() {
                    return Err(Error::Invalid(
                        "forest filter found no informative features (all groups degenerate)"
                            .into(),
                    ));
                }
                Ok(FittedReduction::Select(union))
            }
        }
    }

    /// Output width.
    pub fn output_width(&self) -> usize {
        match self {
            FittedReduction::Select(idx) => idx.len(),
            FittedReduction::Pca(p) => p.n_components(),
        }
    }

    /// Output feature names.
    pub fn names(&self, input_names: &[String]) -> Vec<String> {
        match self {
            FittedReduction::Select(idx) => idx.iter().map(|&i| input_names[i].clone()).collect(),
            FittedReduction::Pca(p) => (0..p.n_components()).map(|i| format!("PC{i}")).collect(),
        }
    }

    /// Applies the reduction to a matrix.
    ///
    /// # Errors
    ///
    /// Propagates PCA transform errors.
    pub fn apply(&self, x: &Matrix) -> Result<Matrix, Error> {
        match self {
            FittedReduction::Select(idx) => Ok(x.select_columns(idx)),
            FittedReduction::Pca(p) => Ok(p.transform(x)?),
        }
    }

    /// Applies the reduction to a single row.
    ///
    /// # Errors
    ///
    /// Propagates PCA transform errors.
    pub fn apply_row(&self, row: &[f64]) -> Result<Vec<f64>, Error> {
        match self {
            FittedReduction::Select(idx) => Ok(idx.iter().map(|&i| row[i]).collect()),
            FittedReduction::Pca(p) => {
                let m = Matrix::from_rows(&[row]);
                Ok(p.transform(&m)?.row(0).to_vec())
            }
        }
    }

    /// Applies the reduction to a single row, writing into `out`
    /// (cleared first) — bit-identical to [`FittedReduction::apply_row`]
    /// but allocation-free once `out` has capacity.
    ///
    /// # Errors
    ///
    /// Propagates PCA transform errors.
    pub fn apply_row_into(&self, row: &[f64], out: &mut Vec<f64>) -> Result<(), Error> {
        match self {
            FittedReduction::Select(idx) => {
                out.clear();
                out.reserve(idx.len());
                out.extend(idx.iter().map(|&i| row[i]));
            }
            FittedReduction::Pca(p) => p.transform_row_into(row, out)?,
        }
        Ok(())
    }
}

impl monitorless_std::json::ToJson for Reduction {
    fn to_json(&self) -> monitorless_std::json::Json {
        use monitorless_std::json::Json;
        match self {
            Reduction::ForestFilter {
                top_k,
                n_estimators,
            } => Json::Obj(vec![(
                "ForestFilter".into(),
                Json::Obj(vec![
                    ("top_k".into(), top_k.to_json()),
                    ("n_estimators".into(), n_estimators.to_json()),
                ]),
            )]),
            Reduction::Pca {
                variance,
                max_components,
            } => Json::Obj(vec![(
                "Pca".into(),
                Json::Obj(vec![
                    ("variance".into(), variance.to_json()),
                    ("max_components".into(), max_components.to_json()),
                ]),
            )]),
        }
    }
}

impl monitorless_std::json::FromJson for Reduction {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::{field, Json, JsonError};
        match json {
            Json::Obj(members) => match members.first().map(|(k, v)| (k.as_str(), v)) {
                Some(("ForestFilter", body)) => Ok(Reduction::ForestFilter {
                    top_k: field(body, "top_k")?,
                    n_estimators: field(body, "n_estimators")?,
                }),
                Some(("Pca", body)) => Ok(Reduction::Pca {
                    variance: field(body, "variance")?,
                    max_components: field(body, "max_components")?,
                }),
                _ => Err(JsonError("unknown Reduction variant".into())),
            },
            _ => Err(JsonError("expected Reduction".into())),
        }
    }
}

impl monitorless_std::json::ToJson for FittedReduction {
    fn to_json(&self) -> monitorless_std::json::Json {
        use monitorless_std::json::Json;
        match self {
            FittedReduction::Select(idx) => Json::Obj(vec![("Select".into(), idx.to_json())]),
            FittedReduction::Pca(p) => Json::Obj(vec![("Pca".into(), p.to_json())]),
        }
    }
}

impl monitorless_std::json::FromJson for FittedReduction {
    fn from_json(
        json: &monitorless_std::json::Json,
    ) -> Result<Self, monitorless_std::json::JsonError> {
        use monitorless_std::json::{field, Json, JsonError};
        match json {
            Json::Obj(members) => match members.first().map(|(k, _)| k.as_str()) {
                Some("Select") => Ok(FittedReduction::Select(field(json, "Select")?)),
                Some("Pca") => Ok(FittedReduction::Pca(field(json, "Pca")?)),
                _ => Err(JsonError("unknown FittedReduction variant".into())),
            },
            _ => Err(JsonError("expected FittedReduction".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Matrix, Vec<u8>, Vec<u32>) {
        // Feature 0 informative in group 0, feature 1 in group 1,
        // feature 2 pure noise.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for i in 0..40 {
            let label = u8::from(i % 2 == 1);
            rows.push(vec![label as f64, 0.5, (i % 7) as f64]);
            y.push(label);
            groups.push(0);
        }
        for i in 0..40 {
            let label = u8::from(i % 2 == 1);
            rows.push(vec![0.5, label as f64, (i % 5) as f64]);
            y.push(label);
            groups.push(1);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), y, groups)
    }

    #[test]
    fn forest_filter_unions_per_group_tops() {
        let (x, y, groups) = toy();
        let fitted = FittedReduction::fit(
            Reduction::ForestFilter {
                top_k: 1,
                n_estimators: 15,
            },
            &x,
            &y,
            &groups,
            0,
        )
        .unwrap();
        match &fitted {
            FittedReduction::Select(idx) => {
                assert!(idx.contains(&0), "group 0 top feature");
                assert!(idx.contains(&1), "group 1 top feature");
                assert!(!idx.contains(&2), "noise feature filtered: {idx:?}");
            }
            other => panic!("expected Select, got {other:?}"),
        }
        let reduced = fitted.apply(&x).unwrap();
        assert_eq!(reduced.cols(), 2);
    }

    #[test]
    fn pca_caps_components() {
        let (x, y, groups) = toy();
        let fitted = FittedReduction::fit(
            Reduction::Pca {
                variance: 1.0,
                max_components: 2,
            },
            &x,
            &y,
            &groups,
            0,
        )
        .unwrap();
        assert_eq!(fitted.output_width(), 2);
        assert_eq!(fitted.apply(&x).unwrap().cols(), 2);
        assert_eq!(fitted.names(&["a".into(), "b".into(), "c".into()]), vec!["PC0", "PC1"]);
    }

    #[test]
    fn apply_row_matches_matrix_apply() {
        let (x, y, groups) = toy();
        for reduction in [
            Reduction::ForestFilter {
                top_k: 2,
                n_estimators: 10,
            },
            Reduction::Pca {
                variance: 0.99,
                max_components: 3,
            },
        ] {
            let fitted = FittedReduction::fit(reduction, &x, &y, &groups, 1).unwrap();
            let whole = fitted.apply(&x).unwrap();
            let row = fitted.apply_row(x.row(5)).unwrap();
            for (a, b) in row.iter().zip(whole.row(5)) {
                assert!((a - b).abs() < 1e-9);
            }
            // The buffer-reusing variant is bit-identical to apply_row.
            let mut buffered = vec![f64::NAN; 1];
            fitted.apply_row_into(x.row(5), &mut buffered).unwrap();
            assert_eq!(buffered.len(), row.len());
            for (a, b) in buffered.iter().zip(&row) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn degenerate_groups_are_skipped() {
        // Group 1 has a single class; only group 0 contributes.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let mut groups = Vec::new();
        for i in 0..20 {
            rows.push(vec![(i % 2) as f64, 0.0]);
            y.push((i % 2) as u8);
            groups.push(0);
        }
        for _ in 0..10 {
            rows.push(vec![0.0, 1.0]);
            y.push(0);
            groups.push(1);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let fitted = FittedReduction::fit(
            Reduction::ForestFilter {
                top_k: 1,
                n_estimators: 10,
            },
            &x,
            &y,
            &groups,
            0,
        )
        .unwrap();
        match fitted {
            FittedReduction::Select(idx) => assert_eq!(idx, vec![0]),
            other => panic!("expected Select, got {other:?}"),
        }
    }
}

// Both reduction enums carry data, so they keep the externally tagged
// encoding by hand.
