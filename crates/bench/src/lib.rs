//! Shared helpers for the experiment-regeneration binaries.
//!
//! Every `tableN_*` / `figN_*` binary accepts:
//!
//! * `--full` — run at paper scale (long runs, full grids, 250-tree
//!   forests) instead of the laptop-scale defaults;
//! * `--seed <n>` — override the base seed (default 7);
//! * `--telemetry <off|jsonl|prom>` — enable self-telemetry (also via
//!   the `MONITORLESS_OBS` env var; the flag wins). `jsonl` streams
//!   span/progress events to stderr as the run proceeds; both formats
//!   end with a counter/histogram snapshot on stderr and a copy under
//!   `target/telemetry-<binary>.txt`;
//! * `--trace <off|ring|jsonl>` — the causal journal's trace mode (also
//!   via the `MONITORLESS_TRACE` env var; the flag wins). In `ring` mode
//!   the binary ends by draining the journal's newest records (up to
//!   [`obs::journal::JOURNAL_CAPACITY`]) into
//!   `target/audit-<binary>.jsonl`, one JSON record per line.
//!
//! The eight perf-gate binaries also take `--check <path>` and
//! `--out <path>`; [`harness`] documents how those two combine. A
//! binary that asserts zero allocations opts in to the counting
//! allocator with one item,
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`
//! ([`harness::CountingAlloc`]); every other binary keeps the system
//! allocator.
//!
//! A flag that takes a value exits the binary with status 2, before
//! anything runs, when the value is missing (the flag ends the command
//! line or is followed by another `--` flag) or does not parse (a
//! `--seed` that is not an unsigned integer, an unknown `--telemetry`
//! format or `--trace` mode). Other arguments are left to the binary
//! (`fig2_kneedle`'s `--csv`).
//!
//! Binaries that need a trained model reuse a cached one from
//! `target/monitorless-model-<scale>-<seed>-<digest>.json` when present,
//! so the full table series can be regenerated without retraining each
//! time. The digest covers the training options, the model options and
//! a model format version, so a model trained with other options or by
//! older code is not reused.

pub mod harness;
pub mod snapshot;
pub mod synth;

use std::path::Path;
use std::sync::Arc;

use monitorless::experiments::scenario::EvalOptions;
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::training::{generate_training_data, TrainingData, TrainingOptions};
use monitorless_learn::RandomForestParams;
use monitorless_obs as obs;

/// Parsed command-line scale options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Paper scale (`--full`) vs laptop scale.
    pub full: bool,
    /// Base seed.
    pub seed: u64,
}

impl Scale {
    /// Parses `--full` and `--seed <n>` from `std::env::args`, and
    /// installs the process-wide telemetry configuration from the
    /// `MONITORLESS_OBS`/`MONITORLESS_TRACE` env vars and/or the
    /// `--telemetry <fmt>`/`--trace <mode>` flags.
    /// Exits with status 2 on a malformed flag (see the crate docs).
    pub fn from_args() -> Self {
        Args::from_env().scale
    }

    /// `"full"` or `"quick"`, as every perf snapshot records it.
    pub fn label(&self) -> &'static str {
        if self.full {
            "full"
        } else {
            "quick"
        }
    }

    /// Training options for this scale.
    pub fn training_options(&self) -> TrainingOptions {
        if self.full {
            TrainingOptions::paper(self.seed)
        } else {
            TrainingOptions::quick(self.seed)
        }
    }

    /// Model options for this scale.
    pub fn model_options(&self) -> ModelOptions {
        if self.full {
            ModelOptions::paper()
        } else {
            ModelOptions::quick()
        }
    }

    /// Evaluation-scenario options for this scale.
    pub fn eval_options(&self, seed_offset: u64) -> EvalOptions {
        EvalOptions {
            duration: if self.full { 7000 } else { 500 },
            ramp_seconds: if self.full { 800 } else { 250 },
            seed: self.seed ^ seed_offset,
            record_raw: false,
        }
    }

    fn cache_path(&self) -> std::path::PathBuf {
        model_cache_path(
            self.label(),
            self.seed,
            &self.training_options(),
            &self.model_options(),
            MODEL_FORMAT_VERSION,
        )
    }
}

/// Version of the cached model: bump it whenever a change alters the
/// model [`MonitorlessModel::train`] fits from the same options, or the
/// file [`MonitorlessModel::save`] writes, so caches written before the
/// change are retrained instead of reused.
const MODEL_FORMAT_VERSION: u32 = 1;

/// Where [`trained_model`] caches the model for `scale` and `seed`:
/// the file name ends in a digest of the format `version`, the training
/// options and the model options ([`digest_path`]).
fn model_cache_path(
    scale: &str,
    seed: u64,
    training: &TrainingOptions,
    model: &ModelOptions,
    version: u32,
) -> std::path::PathBuf {
    digest_path(&format!("monitorless-model-{scale}-{seed}"), version, &[training, model])
}

/// Where `table_tick` caches its grafted model for `seed`: keyed like
/// [`trained_model`]'s cache by the format version and the base model's
/// training and model options, plus the graft forest's parameters and
/// the row count of its fit set.
pub fn tick_model_cache_path(
    seed: u64,
    training: &TrainingOptions,
    model: &ModelOptions,
    forest: &RandomForestParams,
    rows: usize,
) -> std::path::PathBuf {
    digest_path(
        &format!("monitorless-tickmodel-{seed}"),
        MODEL_FORMAT_VERSION,
        &[training, model, forest, &rows],
    )
}

/// `target/<stem>-<digest>.json`, where the digest is a 64-bit FNV-1a
/// hash of the format `version` and the `Debug` form of every input, so
/// a cache written from other inputs or by older code is not found.
fn digest_path(stem: &str, version: u32, inputs: &[&dyn std::fmt::Debug]) -> std::path::PathBuf {
    let key = inputs
        .iter()
        .fold(version.to_string(), |key, input| format!("{key} {input:?}"));
    let digest = key
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    std::path::PathBuf::from(format!("target/{stem}-{digest:016x}.json"))
}

/// Parsed command line: the scale plus the perf-gate binaries'
/// `--check` and `--out` paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Args {
    /// `--full` and `--seed <n>`.
    pub scale: Scale,
    /// `--check <path>`: the committed snapshot to gate against.
    pub check: Option<String>,
    /// `--out <path>`: where to write the fresh report.
    pub out: Option<String>,
}

impl Args {
    /// Parses the arguments after the program name. Unknown arguments
    /// are skipped; a value flag whose value is missing or malformed is
    /// an error naming the flag.
    ///
    /// # Errors
    ///
    /// Returns the message to print before exiting with status 2.
    pub(crate) fn parse<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let mut parsed = Args {
            scale: Scale {
                full: false,
                seed: 7,
            },
            check: None,
            out: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--full" {
                parsed.scale.full = true;
            }
            if !matches!(flag, "--seed" | "--telemetry" | "--trace" | "--check" | "--out") {
                continue;
            }
            let value = match args.next() {
                Some(value) if !value.starts_with("--") => value,
                _ => return Err(format!("{flag} needs a value")),
            };
            match flag {
                "--seed" => {
                    parsed.scale.seed = value
                        .parse()
                        .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
                }
                // Validated here, applied by `obs::TelemetryConfig`.
                "--telemetry" => {
                    value
                        .parse::<obs::ExportFormat>()
                        .map_err(|e| format!("--telemetry: {e}"))?;
                }
                "--trace" => {
                    value
                        .parse::<obs::TraceMode>()
                        .map_err(|e| format!("--trace: {e}"))?;
                }
                "--check" => parsed.check = Some(value.to_owned()),
                _ => parsed.out = Some(value.to_owned()),
            }
        }
        Ok(parsed)
    }

    /// Parses `std::env::args` and installs the telemetry configuration;
    /// prints the error and exits with status 2 on a malformed flag.
    pub(crate) fn from_env() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let args = Args::parse(argv.iter().map(String::as_str)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
        obs::init(&obs::TelemetryConfig::from_env_and_args(argv.iter().map(String::as_str)));
        args
    }

    /// Where a perf-gate binary writes its fresh report: `--out`, else
    /// `results/<file>` — except that `--check` without `--out` writes
    /// nothing, so a check run never overwrites the committed baseline.
    pub(crate) fn report_path(&self, file: &str) -> Option<String> {
        match (&self.out, &self.check) {
            (Some(out), _) => Some(out.clone()),
            (None, Some(_)) => None,
            (None, None) => Some(format!("results/{file}")),
        }
    }
}

/// Generates training data at the selected scale, with progress output.
pub fn training_data(scale: &Scale) -> TrainingData {
    obs::progress(&format!(
        "generating training data ({} s per configuration)...",
        scale.training_options().run_seconds
    ));
    generate_training_data(&scale.training_options()).expect("training-data generation")
}

/// Trains (or loads a cached) monitorless model at the selected scale.
pub fn trained_model(scale: &Scale) -> Arc<MonitorlessModel> {
    cached_model(&scale.cache_path(), || {
        let data = training_data(scale);
        obs::progress(&format!("training monitorless model on {} samples...", data.dataset.len()));
        MonitorlessModel::train(&data, &scale.model_options()).expect("model training")
    })
}

/// Loads the model cached at `path`, or builds it with `train` and
/// caches it there. A model that cannot be saved is still returned,
/// and the failed save is reported on stderr, since the next run would
/// train it again.
pub fn cached_model(
    path: &Path,
    train: impl FnOnce() -> MonitorlessModel,
) -> Arc<MonitorlessModel> {
    if let Ok(model) = MonitorlessModel::load(path) {
        obs::progress(&format!("loaded cached model from {}", path.display()));
        return Arc::new(model);
    }
    let model = train();
    match model.save(path) {
        Ok(()) => obs::progress(&format!("cached model at {}", path.display())),
        Err(e) => eprintln!("warning: model not cached at {}: {e}", path.display()),
    }
    Arc::new(model)
}

/// Writes the experiment's telemetry summary: the final counter/histogram
/// snapshot goes to stderr and to `target/telemetry-<name>.txt` next to
/// the cached models, and in `--trace ring` mode the journal's records
/// are drained into `target/audit-<name>.jsonl`. No-op when telemetry
/// and tracing are both off.
pub fn telemetry_report(name: &str) {
    if obs::enabled() {
        obs::report_to_stderr();
        let path = std::path::PathBuf::from(format!("target/telemetry-{name}.txt"));
        match obs::write_report(&path) {
            Ok(()) => obs::progress(&format!("telemetry snapshot written to {}", path.display())),
            Err(e) => obs::progress(&format!("telemetry snapshot not written: {e}")),
        }
    }
    if obs::trace_mode() == obs::TraceMode::Ring {
        let path = std::path::PathBuf::from(format!("target/audit-{name}.jsonl"));
        // Read before the drain: a full ring keeps only the newest
        // records, and the file alone cannot say how many it lost.
        let stats = obs::journal_stats();
        match obs::write_audit(&path) {
            Ok(kept) => {
                obs::progress(&format!("audit trail written to {}", path.display()));
                obs::progress(&format!(
                    "kept {kept} of {} journaled records, {} overwritten by the {}-record ring",
                    stats.records,
                    stats.overwritten,
                    obs::journal::JOURNAL_CAPACITY
                ));
            }
            Err(e) => obs::progress(&format!("audit trail not written: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        let s = Scale {
            full: false,
            seed: 7,
        };
        assert_eq!(s.training_options().run_seconds, 150);
        assert_eq!(s.eval_options(0).duration, 500);
    }

    #[test]
    fn full_scale_is_paper_sized() {
        let s = Scale {
            full: true,
            seed: 7,
        };
        assert!(s.training_options().run_seconds >= 2000);
        assert_eq!(s.model_options().forest.n_estimators, 250);
    }

    #[test]
    fn model_cache_path_changes_with_every_input() {
        let scale = Scale {
            full: false,
            seed: 7,
        };
        let (training, model) = (scale.training_options(), scale.model_options());
        let path =
            |t: &TrainingOptions, m: &ModelOptions, v: u32| model_cache_path("quick", 7, t, m, v);
        let base = path(&training, &model, MODEL_FORMAT_VERSION);
        assert_eq!(base, scale.cache_path());
        let (same_training, same_model) = (scale.training_options(), scale.model_options());
        assert_eq!(base, path(&same_training, &same_model, MODEL_FORMAT_VERSION));
        let name = base.to_str().unwrap();
        assert!(name.starts_with("target/monitorless-model-quick-7-"), "{name}");
        let longer_runs = TrainingOptions {
            run_seconds: training.run_seconds + 1,
            ..training
        };
        let other_threshold = ModelOptions {
            threshold: 0.5,
            ..model.clone()
        };
        let no_time = ModelOptions {
            pipeline: monitorless::features::PipelineConfig {
                time_features: false,
                ..model.pipeline
            },
            ..model.clone()
        };
        for (what, other) in [
            ("training options", path(&longer_runs, &model, MODEL_FORMAT_VERSION)),
            ("model threshold", path(&training, &other_threshold, MODEL_FORMAT_VERSION)),
            ("pipeline config", path(&training, &no_time, MODEL_FORMAT_VERSION)),
            ("format version", path(&training, &model, MODEL_FORMAT_VERSION + 1)),
            ("scale", model_cache_path("full", 7, &training, &model, MODEL_FORMAT_VERSION)),
            ("seed", model_cache_path("quick", 8, &training, &model, MODEL_FORMAT_VERSION)),
        ] {
            assert_ne!(base, other, "{what}");
        }
    }

    #[test]
    fn tick_model_cache_path_changes_with_every_input() {
        let training = TrainingOptions::quick(7);
        let model = ModelOptions::quick();
        let forest = RandomForestParams::paper_selected();
        let path = tick_model_cache_path(7, &training, &model, &forest, 12_000);
        assert_eq!(path, tick_model_cache_path(7, &training, &model, &forest.clone(), 12_000));
        let name = path.to_str().unwrap();
        assert!(name.starts_with("target/monitorless-tickmodel-7-"), "{name}");
        let stem = "monitorless-tickmodel-7";
        let inputs: [&dyn std::fmt::Debug; 4] = [&training, &model, &forest, &12_000_usize];
        assert_eq!(path, digest_path(stem, MODEL_FORMAT_VERSION, &inputs));
        let other_forest = RandomForestParams {
            min_samples_leaf: forest.min_samples_leaf + 1,
            ..forest.clone()
        };
        let other_model = ModelOptions {
            threshold: 0.5,
            ..model.clone()
        };
        for (what, other) in [
            ("format version", digest_path(stem, MODEL_FORMAT_VERSION + 1, &inputs)),
            ("seed", tick_model_cache_path(8, &training, &model, &forest, 12_000)),
            (
                "training options",
                tick_model_cache_path(7, &TrainingOptions::quick(8), &model, &forest, 12_000),
            ),
            ("model options", tick_model_cache_path(7, &training, &other_model, &forest, 12_000)),
            (
                "forest parameters",
                tick_model_cache_path(7, &training, &model, &other_forest, 12_000),
            ),
            ("row count", tick_model_cache_path(7, &training, &model, &forest, 12_001)),
        ] {
            assert_ne!(path, other, "{what}");
        }
    }

    fn parse(args: &str) -> Result<Args, String> {
        Args::parse(args.split_whitespace())
    }

    #[test]
    fn flags_parse_with_their_values() {
        let args = parse(
            "--full --seed 11 --telemetry prom --trace ring --csv --check a.json --out b.json",
        )
        .unwrap();
        assert_eq!(
            args.scale,
            Scale {
                full: true,
                seed: 11
            }
        );
        assert_eq!(args.check.as_deref(), Some("a.json"));
        assert_eq!(args.out.as_deref(), Some("b.json"));
        assert_eq!(
            parse("").unwrap().scale,
            Scale {
                full: false,
                seed: 7
            }
        );
    }

    #[test]
    fn a_check_without_its_path_is_an_error() {
        assert_eq!(parse("--check").unwrap_err(), "--check needs a value");
        assert_eq!(parse("--check --out x.json").unwrap_err(), "--check needs a value");
    }

    #[test]
    fn a_trailing_out_is_an_error() {
        assert_eq!(parse("--check a.json --out").unwrap_err(), "--out needs a value");
        assert_eq!(parse("--out --full").unwrap_err(), "--out needs a value");
    }

    #[test]
    fn a_seed_that_is_missing_or_not_a_number_is_an_error() {
        assert_eq!(parse("--seed abc").unwrap_err(), "--seed \"abc\" is not an unsigned integer");
        assert!(parse("--seed -3").is_err());
        assert_eq!(parse("--full --seed").unwrap_err(), "--seed needs a value");
    }

    #[test]
    fn a_telemetry_format_that_is_missing_or_unknown_is_an_error() {
        for (flag, what) in [
            ("--telemetry", "telemetry format"),
            ("--trace", "trace mode"),
        ] {
            let missing = format!("{flag} needs a value");
            assert_eq!(parse(flag).unwrap_err(), missing);
            assert_eq!(parse(&format!("{flag} --full")).unwrap_err(), missing);
            let unknown = parse(&format!("{flag} bogus")).unwrap_err();
            assert!(unknown.contains(&format!("unknown {what}")), "{unknown}");
            assert!(parse(&format!("{flag} off")).is_ok());
        }
    }

    #[test]
    fn a_check_run_writes_only_to_an_explicit_out() {
        let file = "BENCH_x.json";
        assert_eq!(parse("--check a.json").unwrap().report_path(file), None);
        assert_eq!(
            parse("--check a.json --out b.json")
                .unwrap()
                .report_path(file)
                .as_deref(),
            Some("b.json")
        );
        assert_eq!(parse("--out b.json").unwrap().report_path(file).as_deref(), Some("b.json"));
        assert_eq!(parse("").unwrap().report_path(file).as_deref(), Some("results/BENCH_x.json"));
    }

    #[test]
    fn telemetry_report_is_noop_when_disabled() {
        // Must not create files or panic with telemetry off (default).
        if !obs::enabled() {
            telemetry_report("bench-test-noop");
            assert!(!std::path::Path::new("target/telemetry-bench-test-noop.txt").exists());
        }
    }
}
