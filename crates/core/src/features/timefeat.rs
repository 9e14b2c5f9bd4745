//! Stage 4a: time-dependent `X-AVG` / `X-LAG` features (Section 3.3.5).
//!
//! `X-AVG` averages the last `X + 1` samples including the current one;
//! `X-LAG` is the value `X` samples ago. The paper uses `X = 1, 5, 15`
//! (a 15-second window proved sufficient).
//!
//! [`TimeExpander`] fixes the layout of the time span of a stage-D row
//! (its width and names). The values themselves are computed by the
//! pipeline's one stage-D evaluator, as `Avg`/`Lag` plan cells, at fit
//! time, in the batch transform and in the online push alike;
//! [`TimeExpander::expand_at`] is the retained row-cloning reference
//! that evaluator is proven bit-identical against.

/// The lag distances used by the paper.
pub const TIME_LAGS: [usize; 3] = [1, 5, 15];

/// The time span of a stage-D row for `width` stage-C features: the
/// originals, then one AVG band and one LAG band per lag distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeExpander {
    width: usize,
}

impl TimeExpander {
    /// Creates an expander for vectors of `width` features.
    pub fn new(width: usize) -> Self {
        TimeExpander { width }
    }

    /// Input width.
    pub fn input_width(&self) -> usize {
        self.width
    }

    /// Output width: original + (AVG + LAG) per lag distance.
    pub fn output_width(&self) -> usize {
        self.width * (1 + 2 * TIME_LAGS.len())
    }

    /// Names for the expanded features given input `names`.
    pub fn names(&self, names: &[String]) -> Vec<String> {
        let mut out: Vec<String> = names.to_vec();
        for x in TIME_LAGS {
            out.extend(names.iter().map(|n| format!("{n}-AVG{x}")));
        }
        for x in TIME_LAGS {
            out.extend(names.iter().map(|n| format!("{n}-LAG{x}")));
        }
        out
    }

    /// Expands sample `i` of a chronologically ordered block `rows`
    /// (each of `width` features). History before the block start is
    /// padded with the earliest available sample, as for a container
    /// that just started.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or a row has the wrong width.
    pub fn expand_at(&self, rows: &[Vec<f64>], i: usize) -> Vec<f64> {
        assert!(i < rows.len(), "sample index out of range");
        assert_eq!(rows[i].len(), self.width, "row width");
        let mut out = Vec::with_capacity(self.output_width());
        out.extend_from_slice(&rows[i]);
        for x in TIME_LAGS {
            // AVG over the last x+1 samples (clamped at block start).
            let start = i.saturating_sub(x);
            let n = (i - start + 1) as f64;
            for f in 0..self.width {
                let mut acc = 0.0;
                for row in rows.iter().take(i + 1).skip(start) {
                    acc += row[f];
                }
                out.push(acc / n);
            }
        }
        for x in TIME_LAGS {
            let j = i.saturating_sub(x);
            out.extend_from_slice(&rows[j]);
        }
        out
    }
}

monitorless_std::json_struct!(TimeExpander { width });

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Vec<Vec<f64>> {
        (0..20).map(|i| vec![i as f64, 100.0 - i as f64]).collect()
    }

    #[test]
    fn widths_and_names() {
        let e = TimeExpander::new(2);
        assert_eq!(e.output_width(), 2 * 7);
        let names = e.names(&["a".into(), "b".into()]);
        assert_eq!(names.len(), 14);
        assert!(names.contains(&"a-AVG15".to_string()));
        assert!(names.contains(&"b-LAG5".to_string()));
    }

    #[test]
    fn lag_picks_past_value() {
        let e = TimeExpander::new(2);
        let rows = block();
        let v = e.expand_at(&rows, 10);
        // Layout: [orig(2), avg1(2), avg5(2), avg15(2), lag1(2), lag5(2), lag15(2)]
        assert_eq!(v[0], 10.0);
        let lag1 = v[8];
        let lag5 = v[10];
        assert_eq!(lag1, 9.0);
        assert_eq!(lag5, 5.0);
    }

    #[test]
    fn avg_is_window_mean() {
        let e = TimeExpander::new(2);
        let rows = block();
        let v = e.expand_at(&rows, 10);
        let avg1 = v[2];
        let avg5 = v[4];
        assert!((avg1 - 9.5).abs() < 1e-12); // mean of 9, 10
        assert!((avg5 - 7.5).abs() < 1e-12); // mean of 5..=10
    }

    #[test]
    fn early_samples_are_padded() {
        let e = TimeExpander::new(2);
        let rows = block();
        let v = e.expand_at(&rows, 0);
        // Everything collapses to the first value.
        assert!(v.iter().step_by(2).all(|&x| x == 0.0));
        let v2 = e.expand_at(&rows, 2);
        let lag15 = v2[12];
        assert_eq!(lag15, 0.0, "clamped to block start");
    }
}
