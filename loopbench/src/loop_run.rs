//! The two loop workloads, `fleet_1k` and `hostile_pack`.

use std::sync::Arc;
use std::time::Instant;

use monitorless::adapt::{RetrainParams, ShadowRetrainer};
use monitorless::autoscale::bakeoff::CellOutcome;

use crate::closed_loop::{AppOutcome, Episode, EpisodeSpec, WARMUP_TICKS};
use crate::cpu;
use crate::spans::Spans;
use crate::stats::{median, percentile, tail, Digest, Failures};
use crate::{
    bakeoff_cross_check, holdout_f1, labeled_holdout, layer_metrics, m, obs_counter, obs_on,
    obs_span, rss_mb, train, Args, Outcome, SetupTimes, Workload, ADAPT_LAYERS,
    MAX_UNACCOUNTED_PCT, SETUPS, TAIL_CAP,
};

/// What one pass over a loop workload's episodes measured.
#[derive(Debug)]
struct LoopPass {
    /// Trace every other timed tick.
    trace: bool,
    /// Untraced timed ticks, wall ms.
    tick_ms: Vec<f64>,
    /// Untraced timed ticks, CPU ms.
    tick_cpu_ms: Vec<f64>,
    /// Traced timed ticks, CPU ms.
    traced_cpu_ms: Vec<f64>,
    outcomes: Vec<AppOutcome>,
    cells: Vec<CellOutcome>,
    digest: Digest,
    fails: Failures,
    check: Result<(), String>,
    container_evals: u64,
    cached_ticks: u64,
    events: u64,
    cold_starts: u64,
    sim_allocs: u64,
    orch_allocs: u64,
    sim_bytes: i64,
    orch_bytes: i64,
    tracked: usize,
    rss_mb: f64,
}

impl LoopPass {
    fn new(trace: bool) -> Self {
        LoopPass {
            trace,
            tick_ms: Vec::new(),
            tick_cpu_ms: Vec::new(),
            traced_cpu_ms: Vec::new(),
            outcomes: Vec::new(),
            cells: Vec::new(),
            digest: Digest::default(),
            fails: Failures::default(),
            check: Ok(()),
            container_evals: 0,
            cached_ticks: 0,
            events: 0,
            cold_starts: 0,
            sim_allocs: 0,
            orch_allocs: 0,
            sim_bytes: 0,
            orch_bytes: 0,
            tracked: 0,
            rss_mb: 0.0,
        }
    }

    /// Runs an episode's warm-up ticks: accounted, not timed.
    fn warm_up(&mut self, ep: &mut Episode) -> Result<(), monitorless::Error> {
        while ep.running() && ep.time() < WARMUP_TICKS {
            ep.tick(&mut self.digest, &mut self.fails, &mut self.check)?;
        }
        Ok(())
    }

    /// Runs an episode to its end, timing every tick after the warm-up,
    /// then folds its outcome into the pass. When tracing, every other
    /// timed tick runs with the `obs` spans on and records its layer
    /// spans, so traced and untraced ticks interleave under the same
    /// conditions.
    fn drive(
        &mut self,
        mut ep: Episode,
        scenario: Option<&str>,
        spans: &mut Spans,
        op: &mut u64,
    ) -> Result<(), monitorless::Error> {
        self.warm_up(&mut ep)?;
        while ep.running() {
            let traced = self.trace && *op % 2 == 1;
            obs_on(traced);
            spans.set_on(traced);
            let times = ep.tick(&mut self.digest, &mut self.fails, &mut self.check)?;
            obs_on(false);
            if traced {
                self.traced_cpu_ms.push(times.cpu_ms());
                ep.record(&times, spans, *op);
            } else {
                self.tick_ms.push(times.ms());
                self.tick_cpu_ms.push(times.cpu_ms());
                self.sim_allocs += times.sim_allocs;
                self.orch_allocs += times.orch_allocs;
            }
            *op += 1;
        }
        self.outcomes.extend(ep.outcomes().cloned());
        if let Some(name) = scenario {
            self.cells.push(ep.cell_outcome(name));
        }
        let cs = ep.sim().cluster_stats();
        self.container_evals += cs.container_evals;
        self.cached_ticks += cs.cached_ticks;
        let es = ep.sim().stats();
        self.events += es.events;
        self.cold_starts += es.cold_starts;
        self.rss_mb = rss_mb();
        let (sim_bytes, orch_bytes, tracked) = ep.into_owned_bytes();
        self.sim_bytes = self.sim_bytes.max(sim_bytes);
        self.orch_bytes += orch_bytes;
        self.tracked += tracked;
        Ok(())
    }

    /// The deterministic part of the pass, for same-seed comparisons.
    fn fingerprint(&self) -> (u64, &[AppOutcome], &[CellOutcome], [u64; 4]) {
        (
            self.digest.value(),
            &self.outcomes,
            &self.cells,
            [
                self.container_evals,
                self.cached_ticks,
                self.events,
                self.cold_starts,
            ],
        )
    }
}

/// A loop workload's episodes for one pass, with the scenario name of
/// each (for the bake-off cross-check).
fn loop_specs(workload: Workload, seed: u64) -> Vec<(Option<&'static str>, EpisodeSpec)> {
    match workload {
        Workload::Fleet1k => vec![(None, crate::workloads::fleet(seed))],
        _ => crate::workloads::hostile(seed)
            .into_iter()
            .map(|(sc, spec)| (Some(sc.name), spec))
            .collect(),
    }
}

/// Runs `fleet_1k` or `hostile_pack`: [`SETUPS`] set-ups (train, build
/// the first episode, warm up), then passes over the workload's
/// episodes until `--seconds` is used, at least one.
pub(crate) fn run_loop(args: &Args, process_start: Instant) -> Result<Outcome, monitorless::Error> {
    let mut setup = SetupTimes::default();
    obs_on(args.trace);
    let mut prepared = None;
    for i in 0..SETUPS {
        drop(prepared.take());
        let (started, started_cpu) = if i == 0 {
            (process_start, 0)
        } else {
            (Instant::now(), cpu::process_ns())
        };
        let trained = train(args.seed);
        let mut specs = loop_specs(args.workload, args.seed);
        let (name, first) = specs.remove(0);
        let mut ep = Episode::new(first, &trained.model);
        let mut pass = LoopPass::new(args.trace);
        pass.warm_up(&mut ep)?;
        setup.push(started, started_cpu, &trained);
        prepared = Some((trained, ep, name, specs, pass));
    }
    setup.read_obs();
    obs_on(false);
    let (trained, ep, name, rest, pass) = prepared.expect("at least one set-up");
    let model = Arc::clone(&trained.model);

    let mut spans = Spans::new(process_start, false);
    let mut op = 0u64;
    let mut passes: Vec<LoopPass> = Vec::new();
    let mut first = Some((ep, name, rest, pass));
    let measure_start = Instant::now();
    loop {
        let (ep, name, rest, mut pass) = match first.take() {
            Some(prepared) => prepared,
            None => {
                let mut specs = loop_specs(args.workload, args.seed);
                let (name, spec) = specs.remove(0);
                let pass = LoopPass::new(args.trace);
                (Episode::new(spec, &model), name, specs, pass)
            }
        };
        pass.drive(ep, name, &mut spans, &mut op)?;
        for (name, spec) in rest {
            pass.drive(Episode::new(spec, &model), name, &mut spans, &mut op)?;
        }
        passes.push(pass);
        let elapsed = measure_start.elapsed().as_secs_f64();
        if args.trace || elapsed * (passes.len() + 1) as f64 / passes.len() as f64 > args.seconds {
            break;
        }
    }

    // Checks: per-tick outputs, same-seed agreement, and the library
    // bake-off's verdict on every hostile scenario.
    let mut check = setup.check();
    let base = &passes[0];
    for p in &passes {
        check = check.and(p.check.clone());
        if p.fingerprint() != base.fingerprint() {
            check = check.and(Err("same-seed passes disagree".into()));
        }
    }
    if args.workload == Workload::HostilePack {
        check = check.and(bakeoff_cross_check(&model, args.seed, &base.cells));
    }
    // The held-out episode is labeled the way the retrainer labels it.
    let retrainer =
        ShadowRetrainer::new((*model).clone(), &trained.data, RetrainParams::from_model(&model))?;
    let f1 = holdout_f1(&model, &labeled_holdout(&retrainer, args.seed)?)?;
    drop((retrainer, trained));

    let mut fails = Failures::default();
    for p in &passes {
        fails.add(&p.fails);
    }
    let sorted_of = |f: fn(&LoopPass) -> &[f64]| {
        let mut v: Vec<f64> = passes.iter().flat_map(|p| f(p).iter().copied()).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let wall = sorted_of(|p| &p.tick_ms);
    let sorted = sorted_of(|p| &p.tick_cpu_ms);
    let t = tail(&sorted, TAIL_CAP).expect("a pass times more than ten ticks");
    let p99 = tail(&wall, 0.99).expect("a pass times more than ten ticks");
    if !args.trace && p99.percentile < 99.0 {
        check = check.and(Err(format!("only {} ticks timed: no p99", sorted.len())));
    }
    let outcomes = &base.outcomes;
    let slo: u64 = outcomes.iter().map(|o| o.slo_violation_s).sum();
    let over: f64 = outcomes.iter().map(|o| o.overprovision_inst_s).sum();
    let instances: f64 = outcomes
        .iter()
        .map(|o| o.instance_s / o.ticks.max(1) as f64)
        .sum();
    let mut notes = vec![format!(
        "ticks timed={} passes={} op_ms_tail=p{:.2} over {} samples; on-CPU share of tick \
         wall time {:.1}%; mean ready instances {:.1}",
        sorted.len(),
        passes.len(),
        t.percentile,
        t.samples,
        100.0 * sorted.iter().sum::<f64>() / wall.iter().sum::<f64>(),
        instances,
    )];
    let tick_p50 = percentile(&sorted, 0.50);
    let end_to_end = vec![
        m("setup_s", median(&setup.total_s), "s"),
        m("op_ms_p50", tick_p50, "ms"),
        m("op_ms_tail", t.value, "ms"),
        m("rss_mb", base.rss_mb, "MB"),
        m("slo_violation_s", slo as f64, "app-s"),
        m("overprovision_inst_s", over, "inst-s"),
        m("holdout_f1", f1, "F1"),
    ];
    let aliases = vec![
        m("setup_wall_s", median(&setup.wall_s), "s"),
        m("tick_ms_p50", percentile(&wall, 0.50), "ms"),
        m("tick_ms_p99", p99.value, "ms"),
        m("fail_ratio", fails.ratio(), "ratio"),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        let ticks = base.traced_cpu_ms.len() as f64;
        let per_tick = |name: &str| spans.total(name).0 / ticks;
        let (gather_us, _) = obs_span("orchestrator.gather");
        let (predict_us, predict_calls) = obs_span("orchestrator.predict");
        let (agent_us, _) = obs_span("agent.collect");
        let (push_us, pushes) = obs_span("pipeline.transform_online");
        let step_ms = per_tick("orchestrator.step");
        let gather_ms = gather_us / 1e3 / ticks;
        let predict_ms = predict_us / 1e3 / ticks;
        let mut traced = base.traced_cpu_ms.clone();
        traced.sort_by(f64::total_cmp);
        let overhead = 100.0 * (percentile(&traced, 0.5) / tick_p50 - 1.0);
        let unaccounted = spans.unaccounted_pct();
        if unaccounted.abs() > MAX_UNACCOUNTED_PCT {
            check = check.and(Err(format!("layer spans leave {unaccounted:.2}% unaccounted")));
        }
        if gather_ms + predict_ms > step_ms {
            check = check.and(Err("gather + predict exceed the orchestrator step".into()));
        }
        let mut lags: Vec<f64> = outcomes
            .iter()
            .flat_map(|o| o.lags.iter().map(|&l| l as f64))
            .collect();
        lags.sort_by(f64::total_cmp);
        let sum = |f: fn(&AppOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
        let untraced_ticks = base.tick_cpu_ms.len() as f64;
        let loop_values = [
            per_tick("sim.step"),
            base.container_evals as f64,
            base.cached_ticks as f64 / (base.container_evals + base.cached_ticks).max(1) as f64,
            base.events as f64,
            base.sim_allocs as f64 / untraced_ticks,
            base.sim_bytes as f64 / 1048576.0,
            agent_us / ticks,
            obs_counter("agent.collections"),
            gather_ms,
            push_us / pushes.max(1) as f64,
            predict_ms,
            obs_counter("predict.rows") / predict_calls.max(1) as f64,
            step_ms,
            step_ms - gather_ms - predict_ms,
            obs_counter("orchestrator.predictions"),
            obs_counter("drift.checks"),
            obs_counter("drift.alerts"),
            base.orch_allocs as f64 / untraced_ticks,
            base.orch_bytes as f64 / 1024.0 / base.tracked.max(1) as f64,
            per_tick("autoscale.decide") * 1e3,
            sum(|o| o.scale_outs),
            sum(|o| o.scale_ins),
            sum(|o| o.flips),
            base.cold_starts as f64,
            base.fails.scale_failed as f64,
            if lags.is_empty() {
                0.0
            } else {
                percentile(&lags, 0.99)
            },
        ];
        per_layer =
            layer_metrics(&loop_values, &[0.0; ADAPT_LAYERS.len()], &setup, overhead, unaccounted);
        let path =
            format!("target/loopbench/{}-seed{}.spans.jsonl", args.workload.name(), args.seed);
        match spans.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => notes.push(format!("spans written to {path}")),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
    }
    Ok(Outcome {
        end_to_end,
        aliases,
        per_layer,
        fails,
        digest: base.digest.value(),
        check,
        notes,
    })
}
