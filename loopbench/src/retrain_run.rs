//! The `retrain` workload: shadow-retrain rounds from a recorded window
//! to a promotion decision.

use std::sync::Arc;
use std::time::Instant;

use monitorless::adapt::{
    EpisodeRun, LabeledEpisode, RetrainParams, RetrainReport, ShadowRetrainer,
};
use monitorless::training::run_fresh_episode;

use crate::cpu;
use crate::spans::Spans;
use crate::stats::{median, percentile, tail, Digest, Failures};
use crate::workloads::{chain_seed, retrain_episode, CHAIN_ROUNDS, RETRAIN_CHAINS, RETRAIN_ROUNDS};
use crate::{
    alloc, bakeoff_cells, episode_options, holdout_f1, labeled_holdout, layer_metrics, m,
    obs_counter, obs_on, rss_mb, train, training_data, Args, Outcome, SetupTimes, LOOP_LAYERS,
    MAX_UNACCOUNTED_PCT, SETUPS, TAIL_CAP,
};

/// One round's wall time per step, and its process CPU time, ms.
#[derive(Debug, Clone, Copy)]
struct Round {
    label_ms: f64,
    ingest_ms: f64,
    fit_ms: f64,
    total_ms: f64,
    cpu_ms: f64,
}

/// One pass: [`RETRAIN_ROUNDS`] rounds from the seeded retrainer.
#[derive(Debug)]
struct RetrainPass {
    traced: bool,
    rounds: Vec<Round>,
    digest: u64,
    last: RetrainReport,
    promotions: u64,
    rss_mb: f64,
    live_mb: f64,
    champion: Arc<monitorless::model::MonitorlessModel>,
}

/// Passes an untraced retrain run makes at least, so its tail
/// percentile has more than ten rounds behind it.
const MIN_PASSES: usize = 2;

/// Runs [`CHAIN_ROUNDS`] rounds on a clone of each seeded retrainer.
/// Each round's fresh episode is its input: generated once, untimed.
#[allow(clippy::too_many_arguments)]
fn pass(
    seeded: &[ShadowRetrainer],
    holdout: &LabeledEpisode,
    episodes: &mut Vec<EpisodeRun>,
    args: &Args,
    traced: bool,
    spans: &mut Spans,
    op: &mut u64,
    fails: &mut Failures,
) -> Result<RetrainPass, monitorless::Error> {
    let mut rounds = Vec::with_capacity(RETRAIN_ROUNDS);
    let mut digest = Digest::default();
    let mut promotions = 0u64;
    let mut first = None;
    spans.set_on(traced);
    for (chain, base) in seeded.iter().enumerate() {
        let mut r = base.clone();
        let mut last = None;
        for k in chain * CHAIN_ROUNDS..(chain + 1) * CHAIN_ROUNDS {
            if episodes.len() == k {
                let (config, salt) = retrain_episode(k);
                episodes.push(run_fresh_episode(&config, &episode_options(args.seed), salt)?);
            }
            obs_on(traced);
            let c0 = cpu::process_ns();
            let t0 = Instant::now();
            let result = r.label_episode(&episodes[k]).and_then(|labeled| {
                let t1 = Instant::now();
                r.ingest(&labeled)?;
                let t2 = Instant::now();
                let report = r.retrain(holdout)?;
                Ok((t1, t2, report))
            });
            let t3 = Instant::now();
            let c1 = cpu::process_ns();
            obs_on(false);
            fails.round(result.is_ok());
            let (t1, t2, report) = result?;
            let root = spans.push("round", None, *op, t0, t3);
            spans.push("adapt.label", root, *op, t0, t1);
            spans.push("adapt.ingest", root, *op, t1, t2);
            spans.push("adapt.retrain", root, *op, t2, t3);
            *op += 1;
            let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
            rounds.push(Round {
                label_ms: ms(t0, t1),
                ingest_ms: ms(t1, t2),
                fit_ms: ms(t2, t3),
                total_ms: ms(t0, t3),
                cpu_ms: cpu::ms(c0, c1),
            });
            digest.word(u64::from(report.promoted));
            digest.float(report.champion_f1);
            digest.float(report.challenger_f1);
            digest.word(report.train_rows as u64);
            promotions += u64::from(report.promoted);
            last = Some(report);
        }
        if chain == 0 {
            let champion = Arc::new(r.champion().clone());
            let rss = rss_mb();
            let live_mb = alloc::owned_bytes(r) as f64 / 1048576.0;
            first = Some((last.expect("a chain runs rounds"), champion, rss, live_mb));
        }
    }
    let (last, champion, rss_mb, live_mb) = first.expect("at least one chain");
    Ok(RetrainPass {
        traced,
        rounds,
        digest: digest.value(),
        last,
        promotions,
        rss_mb,
        live_mb,
        champion,
    })
}

/// Runs `retrain`: [`SETUPS`] set-ups (train, seed the retrainers,
/// label the held-out episode), then passes until `--seconds` is used,
/// at least [`MIN_PASSES`].
pub(crate) fn run_retrain(
    args: &Args,
    process_start: Instant,
) -> Result<Outcome, monitorless::Error> {
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
        let params = RetrainParams::from_model(&trained.model);
        let champion = (*trained.model).clone();
        let mut seeded = vec![ShadowRetrainer::new(
            champion.clone(),
            &trained.data,
            params.clone(),
        )?];
        for chain in 1..RETRAIN_CHAINS {
            let data = training_data(chain_seed(args.seed, chain));
            seeded.push(ShadowRetrainer::new(champion.clone(), &data, params.clone())?);
        }
        let holdout = labeled_holdout(&seeded[0], args.seed)?;
        setup.push(started, started_cpu, &trained);
        prepared = Some((seeded, holdout));
    }
    setup.read_obs();
    obs_on(false);
    let (seeded, holdout) = prepared.expect("at least one set-up");

    let mut spans = Spans::new(process_start, false);
    let mut episodes = Vec::new();
    let mut passes: Vec<RetrainPass> = Vec::new();
    let mut fails = Failures::default();
    let mut op = 0u64;
    let measure_start = Instant::now();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let p =
            pass(&seeded, &holdout, &mut episodes, args, traced, &mut spans, &mut op, &mut fails)?;
        passes.push(p);
        let elapsed = measure_start.elapsed().as_secs_f64();
        let done = passes.len() >= MIN_PASSES
            && elapsed * (passes.len() + 1) as f64 / passes.len() as f64 > args.seconds;
        if done || (args.trace && traced) {
            break;
        }
    }

    let base = &passes[0];
    let last = &base.last;
    let reported_f1 = if last.promoted {
        last.challenger_f1
    } else {
        last.champion_f1
    };
    let f1 = holdout_f1(&base.champion, &holdout)?;
    let mut check = setup.check();
    if passes.iter().any(|p| p.digest != base.digest) {
        check = check.and(Err("same-seed retrain passes disagree".into()));
    }
    if f1.to_bits() != reported_f1.to_bits() {
        check = check.and(Err(format!("champion F1 {f1} but the round reported {reported_f1}")));
    }
    // The promoted champion's decisions when it serves: the hostile
    // packs through the library bake-off, untimed.
    let cells = bakeoff_cells(&base.champion, args.seed)?;
    let slo: u64 = cells.iter().map(|c| c.slo_violation_s).sum();
    let over: f64 = cells.iter().map(|c| c.overprovision_inst_s).sum();

    let sorted_of = |f: fn(&Round) -> f64| {
        let mut v: Vec<f64> = passes
            .iter()
            .filter(|p| !p.traced)
            .flat_map(|p| p.rounds.iter().map(f))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let wall = sorted_of(|r| r.total_ms);
    let sorted = sorted_of(|r| r.cpu_ms);
    let t = tail(&sorted, TAIL_CAP).expect("two passes time more than ten rounds");
    let notes = vec![format!(
        "rounds timed={} passes={} op_ms_tail=p{:.2} over {} samples; CPU time over round wall \
         time {:.1}%; promotions per pass {}; final cache {} rows",
        sorted.len(),
        passes.len(),
        t.percentile,
        t.samples,
        100.0 * sorted.iter().sum::<f64>() / wall.iter().sum::<f64>(),
        base.promotions,
        last.train_rows,
    )];
    let round_p50 = percentile(&sorted, 0.5);
    let end_to_end = vec![
        m("setup_s", median(&setup.total_s), "s"),
        m("op_ms_p50", round_p50, "ms"),
        m("op_ms_tail", t.value, "ms"),
        m("rss_mb", base.rss_mb, "MB"),
        m("slo_violation_s", slo as f64, "app-s"),
        m("overprovision_inst_s", over, "inst-s"),
        m("holdout_f1", f1, "F1"),
    ];
    let aliases = vec![
        m("setup_wall_s", median(&setup.wall_s), "s"),
        m("retrain_ms_p50", percentile(&wall, 0.5), "ms"),
        m("fail_ratio", fails.ratio(), "ratio"),
    ];

    let mut per_layer = Vec::new();
    if let Some(tp) = passes.iter().find(|p| p.traced) {
        let mean =
            |f: fn(&Round) -> f64| tp.rounds.iter().map(f).sum::<f64>() / tp.rounds.len() as f64;
        let mut traced: Vec<f64> = tp.rounds.iter().map(|r| r.cpu_ms).collect();
        traced.sort_by(f64::total_cmp);
        let overhead = 100.0 * (median(&traced) / round_p50 - 1.0);
        let unaccounted = spans.unaccounted_pct();
        if unaccounted.abs() > MAX_UNACCOUNTED_PCT {
            check = check.and(Err(format!("round spans leave {unaccounted:.2}% unaccounted")));
        }
        let adapt_values = [
            mean(|r| r.label_ms),
            mean(|r| r.ingest_ms),
            mean(|r| r.fit_ms),
            obs_counter("adapt.promotions") / obs_counter("adapt.retrains").max(1.0),
            tp.last.train_rows as f64,
            tp.live_mb,
        ];
        per_layer =
            layer_metrics(&[0.0; LOOP_LAYERS.len()], &adapt_values, &setup, overhead, unaccounted);
    }
    Ok(Outcome {
        end_to_end,
        aliases,
        per_layer,
        fails,
        digest: base.digest,
        check,
        notes,
    })
}
