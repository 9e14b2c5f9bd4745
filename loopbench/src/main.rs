//! `loopbench` — the closed-loop control benchmark of the monitorless
//! workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path loopbench/Cargo.toml -- \
//!     --workload fleet_1k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run trains the quick model from `--seed`, drives one workload
//! through the layers' public APIs for at least `--seconds` and at least
//! one full pass over its inputs, checks the outputs, prints every
//! metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! JSON carries the end-to-end metrics. With `--trace 1` it carries the
//! per-layer split, read from the benchmark's own spans around each
//! layer call (written to
//! `target/loopbench/<workload>-seed<n>.spans.jsonl`) and from the
//! `obs` spans and counters the program already emits; traced and
//! untraced ticks (rounds, on `retrain`: passes) alternate.
//!
//! Workloads:
//!
//! * `fleet_1k` — a ~1k-instance fleet of 100 applications under the
//!   closed loop: per-instance work dominates each tick.
//! * `hostile_pack` — three draws of the four full-length hostile
//!   scenarios, each a 3-node bake-off cell: fixed per-tick cost
//!   dominates, and scaling decisions (cold starts, scale-to-zero) are
//!   frequent. Every scenario's outcome is checked against
//!   `autoscale::bakeoff::run_cell`.
//! * `retrain` — shadow-retrain rounds (label → ingest → challenger
//!   fit → promotion decision) on fresh episodes: none of the loop's
//!   layers run.

mod alloc;
mod closed_loop;
mod cpu;
mod loop_run;
mod retrain_run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use monitorless::adapt::{LabeledEpisode, ShadowRetrainer};
use monitorless::autoscale::backend::MonitorlessScaler;
use monitorless::autoscale::bakeoff::{run_cell, BakeoffOptions, CellOutcome};
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::training::{
    generate_training_data, run_fresh_episode, TrainingData, TrainingOptions,
};
use monitorless_obs as obs;

use stats::{median, Digest, Failures};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `op_ms_tail` is this percentile, or a lower one when fewer than ten
/// ops lie beyond it. The p99 of a run's 1000 ticks tracks the shared
/// host's interference bursts more than the program; the p90 does not.
const TAIL_CAP: f64 = 0.90;

/// At most this share of a traced op's wall time may fall outside its
/// layer spans.
const MAX_UNACCOUNTED_PCT: f64 = 5.0;

const USAGE: &str = "usage: loopbench --workload <fleet_1k|hostile_pack|retrain> \
                     --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fleet1k,
    HostilePack,
    Retrain,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Fleet1k => "fleet_1k",
            Workload::HostilePack => "hostile_pack",
            Workload::Retrain => "retrain",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = match value("--workload")? {
        "fleet_1k" => Workload::Fleet1k,
        "hostile_pack" => Workload::HostilePack,
        "retrain" => Workload::Retrain,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

const fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
#[derive(Debug)]
struct Outcome {
    end_to_end: Vec<Metric>,
    /// The op figures again under the workload's own names
    /// (`tick_ms_p50`, `retrain_ms_p50`, ...), and `fail_ratio`.
    aliases: Vec<Metric>,
    per_layer: Vec<Metric>,
    fails: Failures,
    digest: u64,
    check: Result<(), String>,
    notes: Vec<String>,
}

/// Workers for every parallel layer the benchmark configures: never
/// more than the host has.
fn n_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

fn host_line(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let j = n_jobs();
    format!(
        "host available_parallelism={} cpu=\"{cpu}\" seed={seed} \
         n_jobs training={j} forest_fit={j} retrain_fit={j} orchestrator=1 sim=1",
        std::thread::available_parallelism().map_or(1, usize::from),
    )
}

/// Resident memory of this process, MiB.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn obs_on(on: bool) {
    if on {
        obs::init(&obs::TelemetryConfig::with_format(obs::ExportFormat::Prom));
    } else {
        obs::init(&obs::TelemetryConfig::off());
    }
}

/// Sum (µs) and count of an `obs` span histogram.
fn obs_span(name: &str) -> (f64, u64) {
    obs::histogram_summary(name).map_or((0.0, 0), |h| (h.sum, h.count))
}

/// An `obs` counter.
fn obs_counter(name: &str) -> f64 {
    obs::counter_value(name) as f64
}

/// The trained set-up model and the time each half took.
struct Trained {
    data: TrainingData,
    model: Arc<MonitorlessModel>,
    generate_ms: f64,
    train_ms: f64,
}

/// Quick-scale training data generated from `seed`.
fn training_data(seed: u64) -> TrainingData {
    let opts = TrainingOptions {
        n_jobs: n_jobs(),
        ..TrainingOptions::quick(seed)
    };
    generate_training_data(&opts).expect("training data generates")
}

/// Trains the quick model from `seed`, as every set-up does.
fn train(seed: u64) -> Trained {
    let t0 = Instant::now();
    let data = training_data(seed);
    let t1 = Instant::now();
    let mut model_opts = ModelOptions::quick();
    model_opts.forest.n_jobs = n_jobs();
    let model = MonitorlessModel::train(&data, &model_opts).expect("model trains");
    let t2 = Instant::now();
    Trained {
        data,
        model: Arc::new(model),
        generate_ms: (t1 - t0).as_secs_f64() * 1e3,
        train_ms: (t2 - t1).as_secs_f64() * 1e3,
    }
}

fn model_digest(model: &MonitorlessModel) -> u64 {
    let mut d = Digest::default();
    d.bytes(monitorless_std::json::to_string(model).as_bytes());
    d.value()
}

/// Set-up layer metrics, shared by every workload.
#[derive(Debug, Default)]
struct SetupTimes {
    /// On-CPU seconds of each set-up.
    total_s: Vec<f64>,
    /// Wall seconds of each set-up.
    wall_s: Vec<f64>,
    generate_ms: Vec<f64>,
    train_ms: Vec<f64>,
    model_digests: Vec<u64>,
    pipeline_fit_ms: f64,
    forest_fit_ms: f64,
}

impl SetupTimes {
    /// Records a set-up that started at `started` (wall) and `cpu_ns`
    /// (process CPU time) and has just finished.
    fn push(&mut self, started: Instant, cpu_ns: u64, trained: &Trained) {
        self.total_s.push(cpu::ms(cpu_ns, cpu::process_ns()) / 1e3);
        self.wall_s.push(started.elapsed().as_secs_f64());
        self.generate_ms.push(trained.generate_ms);
        self.train_ms.push(trained.train_ms);
        self.model_digests.push(model_digest(&trained.model));
    }

    /// Reads the `obs` training spans recorded over every set-up.
    fn read_obs(&mut self) {
        let n = self.total_s.len().max(1) as f64;
        self.pipeline_fit_ms = obs_span("pipeline.fit").0 / 1e3 / n;
        self.forest_fit_ms = obs_span("forest.fit").0 / 1e3 / n;
        obs::reset();
    }

    fn check(&self) -> Result<(), String> {
        if self.model_digests.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("same seed trained different models: {:x?}", self.model_digests));
        }
        Ok(())
    }

    fn layer_metrics(&self) -> [Metric; 4] {
        [
            m("training.generate_ms", median(&self.generate_ms), "ms"),
            m("model.train_ms", median(&self.train_ms), "ms"),
            m("pipeline.fit_ms", self.pipeline_fit_ms, "ms"),
            m("forest.fit_ms", self.forest_fit_ms, "ms"),
        ]
    }
}

/// Options for single fresh episodes (retrain inputs, the held-out
/// episode).
fn episode_options(seed: u64) -> TrainingOptions {
    TrainingOptions {
        n_jobs: 1,
        ..TrainingOptions::quick(seed)
    }
}

/// The fixed held-out episode, labeled by the retrainer's Kneedle
/// pipeline.
fn labeled_holdout(
    retrainer: &ShadowRetrainer,
    seed: u64,
) -> Result<LabeledEpisode, monitorless::Error> {
    let (config, salt) = workloads::holdout_episode();
    retrainer.label_episode(&run_fresh_episode(&config, &episode_options(seed), salt)?)
}

/// A model's F1 on a labeled episode at its decision threshold, as the
/// retrainer's promotion gate scores it.
fn holdout_f1(
    model: &MonitorlessModel,
    holdout: &LabeledEpisode,
) -> Result<f64, monitorless::Error> {
    let groups = vec![holdout.group; holdout.raw.rows()];
    let x = model.pipeline().transform_batch(&holdout.raw, &groups)?;
    let threshold = model.threshold();
    let pred: Vec<u8> = model
        .flat()
        .predict_proba(&x, model.forest().params().n_jobs)
        .into_iter()
        .map(|p| u8::from(p >= threshold))
        .collect();
    Ok(monitorless_learn::metrics::f1_score(&holdout.labels, &pred))
}

/// A model's `MonitorlessScaler` through every `hostile_pack`
/// scenario, cell by cell from the library bake-off, in workload order.
/// The cells are independent, so they run on every available worker.
fn bakeoff_cells(
    model: &Arc<MonitorlessModel>,
    seed: u64,
) -> Result<Vec<CellOutcome>, monitorless::Error> {
    let scenarios = workloads::hostile(seed);
    let mut cells: Vec<Option<Result<CellOutcome, monitorless::Error>>> =
        (0..scenarios.len()).map(|_| None).collect();
    monitorless_std::pool::for_each_item_mut(&mut cells, n_jobs(), |i, cell| {
        let (sc, spec) = &scenarios[i];
        let mut backend = MonitorlessScaler::with_threshold(model.threshold());
        *cell = Some(run_cell(&mut backend, sc, model, &BakeoffOptions::standard(spec.seed)));
    });
    cells
        .into_iter()
        .map(|c| c.expect("every cell ran"))
        .collect()
}

/// The loop's per-scenario outcome must equal the library bake-off's.
fn bakeoff_cross_check(
    model: &Arc<MonitorlessModel>,
    seed: u64,
    cells: &[CellOutcome],
) -> Result<(), String> {
    let reference = bakeoff_cells(model, seed).map_err(|e| e.to_string())?;
    if reference.len() != cells.len() {
        return Err(format!("{} cells for {} scenarios", cells.len(), reference.len()));
    }
    for (cell, reference) in cells.iter().zip(&reference) {
        if reference != cell {
            return Err(format!("loop {cell:?} != run_cell {reference:?}"));
        }
    }
    Ok(())
}

/// Per-layer metrics of the loop layers, in output order. Times are per
/// traced tick. The simulator's and autoscaler's counts cover the pass;
/// `obs` counts cover its traced ticks.
const LOOP_LAYERS: [(&str, &str); 26] = [
    ("sim.step_ms", "ms"),
    ("sim.container_evals", "count"),
    ("sim.cache_hit_ratio", "ratio"),
    ("sim.events", "count"),
    ("sim.allocs_per_tick", "count"),
    ("sim.live_mb", "MB"),
    ("agent.collect_us", "us"),
    ("agent.collections", "count"),
    ("orchestrator.gather_ms", "ms"),
    ("features.push_us", "us"),
    ("orchestrator.predict_ms", "ms"),
    ("predict.rows_per_call", "rows"),
    ("orchestrator.step_ms", "ms"),
    ("orchestrator.fanout_ms", "ms"),
    ("orchestrator.predictions", "count"),
    ("drift.checks", "count"),
    ("drift.alerts", "count"),
    ("orchestrator.allocs_per_tick", "count"),
    ("orchestrator.live_kb_per_instance", "KB"),
    ("autoscale.decide_us", "us"),
    ("autoscale.scale_outs", "count"),
    ("autoscale.scale_ins", "count"),
    ("autoscale.flips", "count"),
    ("autoscale.cold_starts", "count"),
    ("autoscale.scale_failed", "count"),
    ("autoscale.lag_p99_s", "s"),
];

/// Per-layer metrics of the retrain layers, in output order: times are
/// per round.
const ADAPT_LAYERS: [(&str, &str); 6] = [
    ("adapt.label_ms", "ms"),
    ("adapt.ingest_ms", "ms"),
    ("adapt.fit_ms", "ms"),
    ("adapt.promotion_ratio", "ratio"),
    ("adapt.train_rows", "rows"),
    ("adapt.live_mb", "MB"),
];

/// Every per-layer metric, the same list on every workload: a layer the
/// workload does not run reads 0.
fn layer_metrics(
    loop_values: &[f64; LOOP_LAYERS.len()],
    adapt_values: &[f64; ADAPT_LAYERS.len()],
    setup: &SetupTimes,
    overhead_pct: f64,
    unaccounted_pct: f64,
) -> Vec<Metric> {
    let named = |names: &[(&'static str, &'static str)], values: &[f64]| -> Vec<Metric> {
        names
            .iter()
            .zip(values)
            .map(|(&(name, unit), &value)| m(name, value, unit))
            .collect()
    };
    let mut out = named(&LOOP_LAYERS, loop_values);
    out.extend(named(&ADAPT_LAYERS, adapt_values));
    out.extend(setup.layer_metrics());
    out.push(m("obs.overhead_pct", overhead_pct, "%"));
    out.push(m("loop.unaccounted_pct", unaccounted_pct, "%"));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(args.seed));
    println!(
        "workload {} seconds {} trace {}",
        args.workload.name(),
        args.seconds,
        u8::from(args.trace)
    );
    let result = match args.workload {
        Workload::Fleet1k | Workload::HostilePack => loop_run::run_loop(&args, process_start),
        Workload::Retrain => retrain_run::run_retrain(&args, process_start),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loopbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("digest {:016x}", outcome.digest);
    let all = outcome.end_to_end.iter().chain(&outcome.aliases);
    for x in all.chain(&outcome.per_layer) {
        println!("metric {} {} {}", x.name, json_number(x.value), x.unit);
    }
    if let Err(e) = &outcome.check {
        println!("check failed: {e}");
    }
    let shown = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics: Vec<String> = shown
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.check.is_ok(),
        outcome.fails.attempted,
        outcome.fails.failed(),
        metrics.join(", ")
    );
    if outcome.check.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload retrain --seed 9 --seconds 5 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Retrain);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 5.0, true));
        assert!(args("--workload nope --seed 1 --seconds 5 --trace 0").is_err());
        assert!(args("--workload fleet_1k --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload fleet_1k --seconds 5 --trace 0").is_err());
    }
}
