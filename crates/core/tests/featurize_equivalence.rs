//! Property tests pinning the streaming feature-pipeline kernels to the
//! retained legacy paths.
//!
//! The streaming implementations are *exact* reimplementations: for
//! every input — arbitrary group layouts (length-1 groups, groups
//! shorter than the 16-sample window), NaN cells, products on/off, time
//! features on/off, any worker count — stage D, the batch transform and
//! the online per-instance transform must be bit-for-bit identical to
//! the legacy row-cloning code.

use std::sync::{Arc, OnceLock};

use monitorless::features::pipeline::{
    expand_stage_d, expand_stage_d_legacy, FeaturePipeline, FittedPipeline, InstanceTransformer,
    PipelineConfig, WINDOW_LEN,
};
use monitorless::features::{RawLayout, Reduction, TimeExpander};
use monitorless::Error;
use monitorless_learn::Matrix;
use monitorless_metrics::catalog::Catalog;
use monitorless_metrics::signals::{ContainerSignals, HostSignals};
use proptest::prelude::*;

/// SplitMix64 — a tiny deterministic generator so each proptest case can
/// expand one seed into a full messy dataset.
struct Mix(u64);

impl Mix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A random group vector for `rows` rows: consecutive blocks with sizes
/// from 1 up to 24 — deliberately covering length-1 groups and groups
/// shorter than the 16-sample window (the first two blocks are forced to
/// size 1 and size 3 when the row budget allows).
fn messy_groups(seed: u64, rows: usize) -> Vec<u32> {
    let mut rng = Mix(seed ^ 0x6060);
    let mut groups = Vec::with_capacity(rows);
    let mut g = 0u32;
    while groups.len() < rows {
        let size = match g {
            0 => 1,
            1 => 3,
            _ => 1 + rng.below(24) as usize,
        };
        for _ in 0..size.min(rows - groups.len()) {
            groups.push(g);
        }
        g += 1;
    }
    groups
}

/// A messy stage-C-like matrix: duplicate-heavy values and NaN cells.
fn messy_matrix(seed: u64, rows: usize, cols: usize, allow_nan: bool) -> Matrix {
    let mut rng = Mix(seed);
    let palette = [-3.0, 0.0, 0.5, 1.0, 2.5];
    let mut data = vec![0.0; rows * cols];
    for v in data.iter_mut() {
        *v = if allow_nan && rng.below(12) == 0 {
            f64::NAN
        } else if rng.below(2) == 0 {
            palette[rng.below(palette.len() as u64) as usize]
        } else {
            rng.next_f64() * 20.0 - 10.0
        };
    }
    Matrix::from_vec(rows, cols, data)
}

/// Random raw metric rows in catalog shape, with occasional NaN cells —
/// the shape `transform_batch` sees in production.
fn messy_raw(seed: u64, rows: usize, width: usize, allow_nan: bool) -> Matrix {
    let mut rng = Mix(seed ^ 0x7171);
    let mut data = vec![0.0; rows * width];
    for v in data.iter_mut() {
        *v = if allow_nan && rng.below(40) == 0 {
            f64::NAN
        } else {
            rng.next_f64() * 120.0
        };
    }
    Matrix::from_vec(rows, width, data)
}

/// Builds a toy labeled run (same shape as the pipeline unit tests).
fn toy_raw(n: usize, seed: u64) -> (Matrix, Vec<u8>, Vec<u32>) {
    let catalog = Catalog::standard();
    let mut rows = Vec::new();
    let mut y = Vec::new();
    let mut groups = Vec::new();
    for g in 0..2u32 {
        for t in 0..n {
            let util = (t as f64 / n as f64).min(1.0);
            let host = HostSignals {
                cpu_util: util * 0.9,
                tcp_estab: 50.0 + 100.0 * util,
                net_in_bytes: 1e6 * util,
                ..HostSignals::default()
            };
            let ctr = ContainerSignals {
                cpu_util: util,
                mem_util: 0.4,
                tcp_conns: 20.0 * util,
                ..ContainerSignals::default()
            };
            let mut v = catalog.expand_host(&host, t as u64, seed ^ u64::from(g));
            v.extend(catalog.expand_container(&ctr, t as u64, seed ^ u64::from(g) ^ 1));
            rows.push(v);
            y.push(u8::from(util > 0.85));
            groups.push(g);
        }
    }
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    (Matrix::from_rows(&refs), y, groups)
}

fn layout() -> RawLayout {
    RawLayout::from_catalog(&Catalog::standard()).unwrap()
}

/// Pipeline variants fitted once and shared across all proptest cases:
/// the quick Select/Select shape, time features off, products off, a
/// PCA second stage (which exercises the full-stage-D fallback instead
/// of the selective plan), a PCA first stage (stages 1–3 over every
/// base column, then the projection) and no standardization.
fn fitted_variants() -> &'static Vec<(&'static str, Arc<FittedPipeline>)> {
    static CELL: OnceLock<Vec<(&'static str, Arc<FittedPipeline>)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let (x, y, groups) = toy_raw(40, 3);
        let quick = PipelineConfig::quick();
        let configs: Vec<(&'static str, PipelineConfig)> = vec![
            ("quick", quick),
            (
                "no_time",
                PipelineConfig {
                    time_features: false,
                    ..quick
                },
            ),
            (
                "no_products",
                PipelineConfig {
                    products: false,
                    ..quick
                },
            ),
            (
                "pca2",
                PipelineConfig {
                    reduce2: Reduction::Pca {
                        variance: 0.999,
                        max_components: 8,
                    },
                    ..quick
                },
            ),
            (
                "pca1",
                PipelineConfig {
                    reduce1: Reduction::Pca {
                        variance: 0.999,
                        max_components: 8,
                    },
                    ..quick
                },
            ),
            (
                "no_normalize",
                PipelineConfig {
                    normalize: false,
                    ..quick
                },
            ),
        ];
        configs
            .into_iter()
            .map(|(name, config)| {
                let (fitted, _) = FeaturePipeline::new(config)
                    .fit_transform(&x, &y, &groups, layout())
                    .unwrap_or_else(|e| panic!("fitting {name}: {e:?}"));
                (name, Arc::new(fitted))
            })
            .collect()
    })
}

/// Case count for the properties: `PROPTEST_CASES` when set (a nightly
/// run raises it to search more group layouts and NaN patterns),
/// otherwise `default`.
fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

fn assert_matrices_bit_identical(
    a: &Matrix,
    b: &Matrix,
    what: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.rows(), b.rows(), "{}: row count", what);
    prop_assert_eq!(a.cols(), b.cols(), "{}: col count", what);
    for r in 0..a.rows() {
        for (c, (x, y)) in a.row(r).iter().zip(b.row(r)).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "{}: cell ({}, {})", what, r, c);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases(32))]

    /// The streaming stage-D kernel (any worker count) is bit-identical
    /// to the legacy row-cloning expansion.
    #[test]
    fn streaming_stage_d_matches_legacy(
        seed in 0u64..1_000_000,
        rows in 1usize..80,
        cols in 1usize..6,
        variant in 0u8..4,
    ) {
        let (with_time, with_products) = (variant & 1 != 0, variant & 2 != 0);
        let c = messy_matrix(seed, rows, cols, true);
        let groups = messy_groups(seed, rows);
        let names: Vec<String> = (0..cols).map(|i| format!("f{i}")).collect();
        let time = with_time.then(|| TimeExpander::new(cols));
        let mut pairs = Vec::new();
        if with_products {
            let mut rng = Mix(seed ^ 0x8282);
            for _ in 0..rng.below(6) + 1 {
                let i = rng.below(cols as u64) as usize;
                let j = rng.below(cols as u64) as usize;
                pairs.push((i.min(j), i.max(j)));
            }
        }
        let (legacy, legacy_names) = expand_stage_d_legacy(&c, &groups, time.as_ref(), &pairs, &names);
        for n_jobs in [1usize, 2, 5] {
            let (fast, fast_names) = expand_stage_d(&c, &groups, time.as_ref(), &pairs, &names, n_jobs);
            prop_assert_eq!(&fast_names, &legacy_names);
            assert_matrices_bit_identical(&fast, &legacy, &format!("stage D, n_jobs={n_jobs}"))?;
        }
    }
}

proptest! {
    #![proptest_config(cases(12))]

    /// The fused batch transform is bit-identical to the legacy
    /// stage-by-stage transform on arbitrary raw inputs and group
    /// layouts, for every fitted variant.
    #[test]
    fn streaming_batch_transform_matches_legacy(
        seed in 0u64..1_000_000,
        rows in 1usize..48,
    ) {
        let variants = fitted_variants();
        let (name, fitted) = &variants[(seed % variants.len() as u64) as usize];
        let raw = messy_raw(seed, rows, layout().raw_len(), true);
        let groups = messy_groups(seed, rows);
        let fast = fitted.transform_batch(&raw, &groups).unwrap();
        let legacy = fitted.transform_batch_legacy(&raw, &groups).unwrap();
        assert_matrices_bit_identical(&fast, &legacy, name)?;
    }

    /// The online transformer matches the batch transform bit for bit at
    /// every tick of every group — warmup ticks included, because the
    /// truncated window clamps exactly like a training block's first
    /// seconds — and the zero-allocation push matches the legacy
    /// row-cloning push.
    #[test]
    fn online_matches_batch_for_every_group(
        seed in 0u64..1_000_000,
        rows in 1usize..48,
    ) {
        let variants = fitted_variants();
        let (name, fitted) = &variants[(seed % variants.len() as u64) as usize];
        let raw = messy_raw(seed, rows, layout().raw_len(), true);
        let groups = messy_groups(seed, rows);
        let batch = fitted.transform_batch(&raw, &groups).unwrap();
        let mut r = 0;
        while r < rows {
            let g = groups[r];
            let mut online = InstanceTransformer::new(Arc::clone(fitted));
            let mut online_legacy = InstanceTransformer::new(Arc::clone(fitted));
            let mut t = 0;
            while r < rows && groups[r] == g {
                let legacy = online_legacy.push_legacy(raw.row(r)).unwrap();
                let out = online.push(raw.row(r)).unwrap();
                prop_assert_eq!(out.len(), batch.cols());
                for (c, ((a, b), l)) in out.iter().zip(batch.row(r)).zip(&legacy).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(),
                        "{}: group {} tick {} col {} vs batch", name, g, t, c);
                    prop_assert_eq!(a.to_bits(), l.to_bits(),
                        "{}: group {} tick {} col {} vs legacy push", name, g, t, c);
                }
                r += 1;
                t += 1;
            }
            prop_assert_eq!(online.warmup(), t.min(WINDOW_LEN));
        }
    }
}

/// One long group wraps the online ring several times: for every
/// variant, at every tick, the ring-window push equals the legacy
/// sliding-window push and the batch transform bit for bit.
#[test]
fn online_ring_wraps_match_legacy_and_batch() {
    let rows = 3 * WINDOW_LEN + 7;
    let raw = messy_raw(77, rows, layout().raw_len(), true);
    let groups = vec![0u32; rows];
    for (name, fitted) in fitted_variants() {
        let batch = fitted.transform_batch(&raw, &groups).unwrap();
        let mut online = InstanceTransformer::new(Arc::clone(fitted));
        let mut online_legacy = InstanceTransformer::new(Arc::clone(fitted));
        for t in 0..rows {
            let legacy = online_legacy.push_legacy(raw.row(t)).unwrap();
            let out = online.push(raw.row(t)).unwrap();
            for (c, ((a, b), l)) in out.iter().zip(batch.row(t)).zip(&legacy).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: tick {t} col {c} vs batch");
                assert_eq!(a.to_bits(), l.to_bits(), "{name}: tick {t} col {c} vs legacy");
            }
        }
        assert_eq!(online.warmup(), WINDOW_LEN);
    }
}

/// A raw sample of the wrong width is rejected with an error by the
/// online and batch paths, and leaves the online window untouched.
#[test]
fn wrong_width_samples_are_rejected() {
    let (_, fitted) = &fitted_variants()[0];
    let raw = messy_raw(5, 3, layout().raw_len(), false);
    let mut online = InstanceTransformer::new(Arc::clone(fitted));
    let mut twin = InstanceTransformer::new(Arc::clone(fitted));
    online.push(raw.row(0)).unwrap();
    twin.push(raw.row(0)).unwrap();
    let short = &raw.row(1)[..layout().raw_len() - 1];
    assert!(online.push(short).is_err());
    assert_eq!(online.warmup(), 1);
    let a = online.push(raw.row(2)).unwrap().to_vec();
    let b = twin.push(raw.row(2)).unwrap();
    assert_eq!(a, b);
    let narrow = messy_raw(5, 3, layout().raw_len() - 1, false);
    assert!(fitted.transform_batch(&narrow, &[0, 0, 0]).is_err());
}

/// Asserts that every fitted variant rejects a 3-row batch carrying
/// `groups` with [`Error::Invalid`].
fn assert_group_ids_rejected(groups: &[u32]) {
    let raw = messy_raw(5, 3, layout().raw_len(), false);
    for (name, fitted) in fitted_variants() {
        match fitted.transform_batch(&raw, groups) {
            Err(Error::Invalid(msg)) => {
                let want = format!("{} group ids for 3 rows", groups.len());
                assert!(msg.contains(&want), "{name}: {msg}");
            }
            Err(e) => panic!("{name}: expected Error::Invalid, got {e:?}"),
            Ok(_) => panic!("{name}: {} group ids for 3 rows transformed", groups.len()),
        }
    }
}

/// A batch with one group id too few is an error, not a last output
/// row of zeros.
#[test]
fn one_group_id_too_few_is_rejected() {
    assert_group_ids_rejected(&[0, 0]);
}

/// A batch with one group id too many is an error, not a panic.
#[test]
fn one_group_id_too_many_is_rejected() {
    assert_group_ids_rejected(&[0, 0, 0, 0]);
}

/// Fitting and transforming are independent of the worker count: the
/// same data fitted with `n_jobs = 1` and `n_jobs = 3` yields bitwise
/// identical training matrices, fitted parameters and batch transforms.
#[test]
fn fit_and_transform_are_n_jobs_independent() {
    let (x, y, groups) = toy_raw(40, 5);
    let serial_cfg = PipelineConfig {
        n_jobs: 1,
        ..PipelineConfig::quick()
    };
    let parallel_cfg = PipelineConfig {
        n_jobs: 3,
        ..PipelineConfig::quick()
    };
    let (serial, xt_serial) = FeaturePipeline::new(serial_cfg)
        .fit_transform(&x, &y, &groups, layout())
        .unwrap();
    let (parallel, xt_parallel) = FeaturePipeline::new(parallel_cfg)
        .fit_transform(&x, &y, &groups, layout())
        .unwrap();
    assert_eq!(xt_serial.rows(), xt_parallel.rows());
    for r in 0..xt_serial.rows() {
        for (a, b) in xt_serial.row(r).iter().zip(xt_parallel.row(r)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert_eq!(serial.feature_names(), parallel.feature_names());
    let raw = messy_raw(11, 33, layout().raw_len(), true);
    let probe_groups = messy_groups(11, 33);
    let a = serial.transform_batch(&raw, &probe_groups).unwrap();
    let b = parallel.transform_batch(&raw, &probe_groups).unwrap();
    for r in 0..a.rows() {
        for (x, y) in a.row(r).iter().zip(b.row(r)) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
