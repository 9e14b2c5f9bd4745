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
//!   `target/telemetry-<binary>.txt`.
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
//! format). Other arguments are left to the binary (`fig2_kneedle`'s
//! `--csv`) or to the telemetry layer (`--trace <mode>`).
//!
//! Binaries that need a trained model reuse a cached one from
//! `target/monitorless-model-<scale>-<seed>.json` when present, so the
//! full table series can be regenerated without retraining each time.

pub mod harness;
pub mod snapshot;
pub mod synth;

use std::sync::Arc;

use monitorless::experiments::scenario::EvalOptions;
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::training::{generate_training_data, TrainingData, TrainingOptions};
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
    /// `MONITORLESS_OBS` env var and/or the `--telemetry <fmt>` flag.
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
        let scale = self.label();
        std::path::PathBuf::from(format!("target/monitorless-model-{scale}-{}.json", self.seed))
    }
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
            if !matches!(flag, "--seed" | "--telemetry" | "--check" | "--out") {
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
    let path = scale.cache_path();
    if let Ok(model) = MonitorlessModel::load(&path) {
        obs::progress(&format!("loaded cached model from {}", path.display()));
        return Arc::new(model);
    }
    let data = training_data(scale);
    obs::progress(&format!("training monitorless model on {} samples...", data.dataset.len()));
    let model = MonitorlessModel::train(&data, &scale.model_options()).expect("model training");
    if model.save(&path).is_ok() {
        obs::progress(&format!("cached model at {}", path.display()));
    }
    Arc::new(model)
}

/// Writes the experiment's telemetry summary: the final counter/histogram
/// snapshot goes to stderr and to `target/telemetry-<name>.txt` next to
/// the cached models. No-op when telemetry is disabled.
pub fn telemetry_report(name: &str) {
    if !obs::enabled() {
        return;
    }
    obs::report_to_stderr();
    let path = std::path::PathBuf::from(format!("target/telemetry-{name}.txt"));
    match obs::write_report(&path) {
        Ok(()) => obs::progress(&format!("telemetry snapshot written to {}", path.display())),
        Err(e) => obs::progress(&format!("telemetry snapshot not written: {e}")),
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
        assert_eq!(parse("--telemetry").unwrap_err(), "--telemetry needs a value");
        assert!(parse("--telemetry bogus")
            .unwrap_err()
            .contains("unknown telemetry format"));
        assert!(parse("--telemetry off").is_ok());
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
