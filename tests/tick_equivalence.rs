//! Property suite for the one-pass fleet serving tick (ISSUE 7).
//!
//! `Orchestrator::step` gathers the whole fleet into one feature
//! matrix, scores it with one blocked ensemble pass and fans the
//! results back out; `Orchestrator::step_legacy` is the retained
//! per-instance reference. This suite pins the equivalence contract:
//!
//! 1. **Bit-identical predictions** — probabilities and thresholded
//!    decisions match the legacy path bit for bit, across fleet sizes
//!    1 / 7 / 64 / 1000.
//! 2. **Scale-out / scale-in** — the gather matrix grows and shrinks
//!    mid-episode without disturbing surviving instances' windows.
//! 3. **Observability equivalence** — under ring tracing, both paths
//!    journal the same record sequence (names, fields, labels) and the
//!    same drift-alert set; drift detector state ends identical.
//! 4. **Malformed input** — a tick with a host or container vector of
//!    the wrong width, or with one instance id listed twice, is
//!    refused with an error before any window or drift state moves.
//! 5. **Drift alert records** — each `drift.alert` record a tick
//!    journals names a newly alerted split feature and carries the
//!    detector's PSI and tail shares and the model profile's mean and
//!    std for it.
//! 6. **Drift row sample** — a tick of up to 32 instances feeds the
//!    detector every served row; a larger one feeds exactly the rows
//!    the sampling rule picks; a tick without instances feeds none; a
//!    forest of leaves alone serves and never alerts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use monitorless::drift::{DriftDetector, CHECK_EVERY, WINDOW};
use monitorless::features::InstanceTransformer;
use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::orchestrator::{InstancePrediction, Orchestrator};
use monitorless::training::{generate_training_data, TrainingOptions};
use monitorless_metrics::catalog::Catalog;
use monitorless_metrics::{InstanceId, NodeId, Observation};
use monitorless_obs as obs;
use monitorless_sim::apps::build_single;
use monitorless_sim::{Cluster, ContainerLimits, NodeSpec, ServiceProfile};
use monitorless_std::json::{FromJson as _, Json, ToJson as _};

/// Serializes tests that flip process-global telemetry state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// One quick model shared by every test (training dominates runtime).
fn model() -> Arc<MonitorlessModel> {
    static MODEL: OnceLock<Arc<MonitorlessModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let data = generate_training_data(&TrainingOptions {
            run_seconds: 30,
            ramp_seconds: 100,
            seed: 7,
            n_jobs: 1,
        })
        .unwrap();
        Arc::new(MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap())
    }))
}

/// Deterministic catalog-width observations for one tick: `n`
/// instances spread over up to 3 nodes, metric values varying by
/// instance, metric index and tick so windows evolve.
fn observations(n: usize, t: u64) -> Vec<Observation> {
    let catalog = Catalog::standard();
    let nodes = n.clamp(1, 3);
    let mut out: Vec<Observation> = (0..nodes)
        .map(|node| Observation {
            node: NodeId(node as u32),
            time: t,
            host: (0..catalog.host_len())
                .map(|m| value(node as u64, m as u64, t))
                .collect(),
            containers: Vec::new(),
        })
        .collect();
    for i in 0..n {
        let node = i % nodes;
        let container = (0..catalog.container_len())
            .map(|m| value(1000 + i as u64, m as u64, t))
            .collect();
        out[node].containers.push((InstanceId(i as u32), container));
    }
    out
}

/// Bounded deterministic metric value (hash-mixed, no global RNG).
fn value(entity: u64, metric: u64, t: u64) -> f64 {
    let mut h = entity
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(metric.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(t.wrapping_mul(0x94d0_49bb_1331_11eb));
    h ^= h >> 31;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^= h >> 27;
    (h % 10_000) as f64 / 100.0
}

fn assert_ticks_equal(tick: u64, batched: &[InstancePrediction], legacy: &[InstancePrediction]) {
    assert_eq!(batched.len(), legacy.len(), "tick {tick}: prediction count");
    for (b, l) in batched.iter().zip(legacy) {
        assert_eq!(b.instance, l.instance, "tick {tick}: instance order");
        assert_eq!(
            b.probability.to_bits(),
            l.probability.to_bits(),
            "tick {tick} {}: probability {} != legacy {}",
            b.instance,
            b.probability,
            l.probability
        );
        assert_eq!(b.saturated, l.saturated, "tick {tick} {}: decision", b.instance);
    }
}

#[test]
fn batched_tick_matches_legacy_across_fleet_sizes() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = model();
    for n in [1usize, 7, 64, 1000] {
        let ticks = if n >= 1000 { 6 } else { 20 };
        let mut batched = Orchestrator::new(Arc::clone(&model));
        let mut legacy = Orchestrator::new(Arc::clone(&model));
        for t in 0..ticks {
            let observed = observations(n, t);
            let b = batched.step(&observed).unwrap().to_vec();
            let l = legacy.step_legacy(&observed).unwrap().to_vec();
            assert_eq!(b.len(), n, "fleet {n}: one prediction per instance");
            assert_ticks_equal(t, &b, &l);
        }
        // Drift detectors consumed identical rows → identical state.
        assert_eq!(batched.drift().scores(), legacy.drift().scores(), "fleet {n}: drift scores");
        if n == 1000 {
            // 32 sampled rows a tick: the first check runs at the end
            // of the fourth tick, so the equality above compares
            // scored state.
            assert!(scored(batched.drift()), "fleet {n}: the detector never scored");
        }
    }
}

#[test]
fn scale_out_and_in_keep_surviving_windows_identical() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = model();
    let mut batched = Orchestrator::new(Arc::clone(&model));
    let mut legacy = Orchestrator::new(Arc::clone(&model));
    // Fleet size per tick: warm up at 4, burst to 9 (gather matrix
    // grows), shrink to 3 (scale-in drops windows), regrow to 6.
    let sizes = [4usize, 4, 4, 9, 9, 3, 3, 6, 6, 6];
    for (t, &n) in sizes.iter().enumerate() {
        let observed = observations(n, t as u64);
        let b = batched.step(&observed).unwrap().to_vec();
        let l = legacy.step_legacy(&observed).unwrap().to_vec();
        assert_ticks_equal(t as u64, &b, &l);
        assert_eq!(batched.tracked_instances(), n);
        assert_eq!(legacy.tracked_instances(), n);
    }
}

#[test]
fn journal_sequence_matches_legacy_under_ring_tracing() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = model();
    obs::init(&obs::TelemetryConfig::with_format(obs::format()).with_trace(obs::TraceMode::Ring));
    let _ = obs::drain();
    let run = |use_legacy: bool| {
        let mut orch = Orchestrator::new(Arc::clone(&model));
        let mut records = Vec::new();
        for t in 0..12u64 {
            let observed = observations(7, t);
            if use_legacy {
                orch.step_legacy(&observed).unwrap();
            } else {
                orch.step(&observed).unwrap();
            }
            let trace = orch.last_trace();
            assert_ne!(trace, 0, "tracing mints a nonzero id per tick");
            for r in obs::drain() {
                // The minted trace id differs between the two runs by
                // construction; the causal chain must not: every tick
                // record carries that tick's single id.
                assert_eq!(r.trace, trace, "record outside its tick's trace");
                records.push((r.name, r.fields.clone(), r.labels.clone()));
            }
        }
        records
    };
    let batched = run(false);
    let legacy = run(true);
    obs::init(&obs::TelemetryConfig::with_format(obs::format()).with_trace(obs::TraceMode::Off));
    let _ = obs::drain();
    assert!(
        batched
            .iter()
            .any(|(name, _, _)| *name == "orchestrator.predict"),
        "ring must hold prediction records"
    );
    assert_eq!(batched.len(), legacy.len(), "journal record count");
    for (b, l) in batched.iter().zip(&legacy) {
        assert_eq!(b, l, "journal records must match name, fields and labels");
    }
}

#[test]
fn malformed_observation_is_rejected_and_leaves_windows_untouched() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = model();
    let mut orch = Orchestrator::new(Arc::clone(&model));
    let mut twin = Orchestrator::new(Arc::clone(&model));
    let mut legacy = Orchestrator::new(Arc::clone(&model));
    for t in 0..5 {
        let observed = observations(7, t);
        orch.step(&observed).unwrap();
        twin.step(&observed).unwrap();
        legacy.step_legacy(&observed).unwrap();
    }
    // One container vector one metric short, a host vector one metric
    // long, and one instance listed twice (on its own node, then on a
    // second node): both paths refuse each tick before any window moves.
    let mut short = observations(7, 5);
    short[1].containers[0].1.pop();
    let mut long = observations(7, 5);
    long[2].host.push(1.0);
    let mut twice_on_one_node = observations(7, 5);
    let entry = twice_on_one_node[0].containers[0].clone();
    twice_on_one_node[0].containers.push(entry);
    let mut twice_on_two_nodes = observations(7, 5);
    let entry = twice_on_two_nodes[0].containers[0].clone();
    twice_on_two_nodes[1].containers.push(entry);
    for (bad, names) in [
        (short, "instance1 container vector"),
        (long, "host vector"),
        (twice_on_one_node, "instance0 is listed more than once"),
        (twice_on_two_nodes, "instance0 is listed more than once"),
    ] {
        for err in [
            orch.step(&bad).unwrap_err(),
            legacy.step_legacy(&bad).unwrap_err(),
        ] {
            assert!(matches!(err, monitorless::Error::Invalid(_)), "{err}");
            assert!(err.to_string().contains(names), "{err}");
        }
        assert_eq!(orch.tracked_instances(), 7);
        assert_eq!(legacy.tracked_instances(), 7);
    }
    // Enough ticks for the drift detectors to score (7 rows per tick).
    for t in 5..25 {
        let observed = observations(7, t);
        let a = orch.step(&observed).unwrap().to_vec();
        let b = twin.step(&observed).unwrap().to_vec();
        let c = legacy.step_legacy(&observed).unwrap().to_vec();
        assert_ticks_equal(t, &a, &b);
        assert_ticks_equal(t, &a, &c);
    }
    assert_eq!(orch.drift().scores(), twin.drift().scores());
    assert_eq!(legacy.drift().scores(), twin.drift().scores());
}

/// Drives one instance through a load step until drift alerts fire and
/// checks every `drift.alert` record of that tick against the detector
/// and the model's profile. One instance is one row per tick, so the
/// alerting check is the tick's last push: the detector's state after
/// the tick is the state the records were written from.
#[test]
fn drift_alert_records_match_the_detector_and_the_profile() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = model();
    obs::init(&obs::TelemetryConfig::with_format(obs::format()).with_trace(obs::TraceMode::Ring));
    let _ = obs::drain();
    let mut orch = Orchestrator::new(Arc::clone(&model));
    let mut cluster = Cluster::new(vec![NodeSpec::training_server()], 17);
    let (app, _) = build_single(
        &mut cluster,
        ServiceProfile::test_cpu_bound("svc", 10.0),
        ContainerLimits::cpu(1.0),
        NodeId(0),
    );
    let mut alerts = Vec::new();
    let mut before = Vec::new();
    for t in 0..1000 {
        let load = if t < 100 { 20.0 } else { 90.0 };
        before = orch.drift().alerted_features();
        let report = cluster.step(&[(app, load)]);
        orch.step(&report.observations).unwrap();
        alerts = obs::drain()
            .into_iter()
            .filter(|r| r.name == "drift.alert")
            .collect();
        if !alerts.is_empty() {
            break;
        }
    }
    obs::init(&obs::TelemetryConfig::with_format(obs::format()).with_trace(obs::TraceMode::Off));
    let _ = obs::drain();
    assert!(!alerts.is_empty(), "no drift alert in 1000 ticks");
    let det = orch.drift();
    let profile = model.drift_profile();
    let names = model.pipeline().feature_names();
    let split = model.flat().split_features();
    let mut newly: Vec<usize> = det
        .alerted_features()
        .into_iter()
        .filter(|f| !before.contains(f))
        .collect();
    let mut recorded = Vec::new();
    for r in &alerts {
        let field = |key: &str| {
            r.fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("drift.alert lacks {key}"))
        };
        let f = field("feature_index") as usize;
        let (low, high) = det.tail_shares(f);
        let reference = &profile.features[f];
        let want = [
            ("psi", det.scores()[f]),
            ("low_share", low),
            ("high_share", high),
            ("ref_mean", reference.mean),
            ("ref_std", reference.std),
        ];
        for (key, value) in want {
            assert_eq!(field(key).to_bits(), value.to_bits(), "feature {f}: {key}");
        }
        assert_eq!(r.labels, vec![("feature", names[f].clone())], "feature {f}: label");
        assert!(split.binary_search(&f).is_ok(), "feature {f} is not a split feature");
        recorded.push(f);
    }
    recorded.sort_unstable();
    newly.sort_unstable();
    assert_eq!(recorded, newly, "one record per newly alerted feature");
}

/// Whether `det` has scored at least one check.
fn scored(det: &DriftDetector) -> bool {
    det.scores().iter().any(|&s| s > 0.0)
}

/// A detector over the model's profile and split features, as every
/// orchestrator builds one, for the test to feed itself.
fn twin_detector(model: &MonitorlessModel) -> DriftDetector {
    DriftDetector::new(model.drift_profile(), &model.flat().split_features())
}

/// Asserts two detectors hold the same state: scores to the bit, tail
/// shares of every feature and the alerted set.
fn assert_same_detector(got: &DriftDetector, want: &DriftDetector, what: &str) {
    assert_eq!(got.scores().len(), want.scores().len(), "{what}: feature count");
    for (f, (g, w)) in got.scores().iter().zip(want.scores()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: feature {f} score {g} != {w}");
        assert_eq!(got.tail_shares(f), want.tail_shares(f), "{what}: feature {f} tail shares");
    }
    assert_eq!(got.alerted_features(), want.alerted_features(), "{what}: alerted features");
}

/// The feature rows each tick serves, in gather order, computed by
/// windows of the test's own that start cold and are dropped with
/// their instance, as the orchestrator's are.
struct ServedRows {
    model: Arc<MonitorlessModel>,
    windows: HashMap<InstanceId, (u64, InstanceTransformer)>,
    ticks: u64,
    raw: Vec<f64>,
}

impl ServedRows {
    fn new(model: &Arc<MonitorlessModel>) -> Self {
        ServedRows {
            model: Arc::clone(model),
            windows: HashMap::new(),
            ticks: 0,
            raw: Vec::new(),
        }
    }

    fn tick(&mut self, observations: &[Observation]) -> Vec<Vec<f64>> {
        self.ticks += 1;
        let tick = self.ticks;
        let mut rows = Vec::new();
        for o in observations {
            for id in o.instances() {
                assert!(o.instance_vector_into(id, &mut self.raw));
                let (seen, window) = self
                    .windows
                    .entry(id)
                    .or_insert_with(|| (tick, self.model.transformer()));
                *seen = tick;
                rows.push(window.push(&self.raw).unwrap().to_vec());
            }
        }
        self.windows.retain(|_, (seen, _)| *seen == tick);
        rows
    }
}

#[test]
fn fleets_of_up_to_32_feed_the_detector_every_served_row() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = model();
    for n in [1usize, 7, 32] {
        let mut batched = Orchestrator::new(Arc::clone(&model));
        let mut legacy = Orchestrator::new(Arc::clone(&model));
        let mut served = ServedRows::new(&model);
        let mut twin = twin_detector(&model);
        // Two windows of rows: checks while the window fills and after
        // its ring wrapped.
        for t in 0..(2 * WINDOW / n + 1) as u64 {
            let observed = observations(n, t);
            batched.step(&observed).unwrap();
            legacy.step_legacy(&observed).unwrap();
            for row in served.tick(&observed) {
                twin.push(&row);
            }
        }
        assert!(scored(&twin), "fleet {n}: the detector never scored");
        assert_same_detector(batched.drift(), &twin, &format!("fleet {n}, step"));
        assert_same_detector(legacy.drift(), &twin, &format!("fleet {n}, step_legacy"));
    }
}

/// The rule spelled out: with `stride = max(1, ⌈n / 32⌉)`, the
/// orchestrator's `tick`-th tick (counted from 1) feeds row `k` when
/// `k % stride == tick % stride`.
#[test]
fn a_fleet_of_1000_feeds_the_detector_exactly_the_rows_the_rule_picks() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = model();
    let n = 1000usize;
    let stride = n.div_ceil(CHECK_EVERY).max(1);
    let mut orch = Orchestrator::new(Arc::clone(&model));
    let mut served = ServedRows::new(&model);
    let mut picked = twin_detector(&model);
    let mut every = twin_detector(&model);
    let mut picked_rows = 0;
    for t in 0..40u64 {
        let tick = t + 1;
        let observed = observations(n, t);
        orch.step(&observed).unwrap();
        for (k, row) in served.tick(&observed).iter().enumerate() {
            if k % stride == (tick % stride as u64) as usize {
                picked.push(row);
                picked_rows += 1;
            }
            every.push(row);
        }
    }
    // 40 ticks of 31 or 32 rows: about 36 checks.
    assert!((40 * (CHECK_EVERY - 1)..=40 * CHECK_EVERY).contains(&picked_rows));
    assert!(scored(&picked), "the sampled detector never scored");
    assert_same_detector(orch.drift(), &picked, "fleet 1000");
    assert_ne!(orch.drift().scores(), every.scores(), "fleet 1000 fed every row");
}

#[test]
fn a_tick_without_instances_feeds_the_detector_nothing() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = model();
    let mut batched = Orchestrator::new(Arc::clone(&model));
    let mut legacy = Orchestrator::new(Arc::clone(&model));
    let mut served = ServedRows::new(&model);
    let mut twin = twin_detector(&model);
    for t in 0..60u64 {
        if t % 5 == 4 {
            // No nodes at all, then one node with no containers; both
            // drop every window, as the test's own windows are dropped.
            for empty in [Vec::new(), observations(0, t)] {
                assert!(batched.step(&empty).unwrap().is_empty());
                assert!(legacy.step_legacy(&empty).unwrap().is_empty());
                assert!(served.tick(&empty).is_empty());
            }
            assert_eq!(batched.tracked_instances(), 0);
            continue;
        }
        let observed = observations(7, t);
        batched.step(&observed).unwrap();
        legacy.step_legacy(&observed).unwrap();
        for row in served.tick(&observed) {
            twin.push(&row);
        }
    }
    assert!(scored(&twin), "the detector never scored");
    assert_same_detector(batched.drift(), &twin, "step");
    assert_same_detector(legacy.drift(), &twin, "step_legacy");
}

/// The shared model with every tree cut down to one leaf: its forest
/// splits on nothing, so its detector scores nothing.
fn leaves_only(model: &MonitorlessModel) -> MonitorlessModel {
    fn member<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(members) = json else {
            panic!("expected an object holding {key}")
        };
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }
    let mut json = model.to_json();
    let Json::Arr(trees) = member(member(&mut json, "forest"), "trees") else {
        panic!("forest trees must be an array")
    };
    let leaf = Json::Obj(vec![("proba".into(), Json::Num(0.25))]);
    for tree in trees {
        *member(tree, "nodes") = Json::Arr(vec![Json::Obj(vec![("Leaf".into(), leaf.clone())])]);
    }
    MonitorlessModel::from_json(&json).unwrap()
}

#[test]
fn a_forest_of_leaves_serves_and_never_alerts() {
    let _guard = OBS_LOCK.lock().unwrap();
    let model = Arc::new(leaves_only(&model()));
    assert!(model.flat().split_features().is_empty());
    let mut batched = Orchestrator::new(Arc::clone(&model));
    let mut legacy = Orchestrator::new(Arc::clone(&model));
    for t in 0..80u64 {
        let observed = observations(7, t);
        let b = batched.step(&observed).unwrap().to_vec();
        let l = legacy.step_legacy(&observed).unwrap().to_vec();
        assert_ticks_equal(t, &b, &l);
        assert!(b.iter().all(|p| p.probability == 0.25), "tick {t}: {b:?}");
    }
    for orch in [&batched, &legacy] {
        assert!(!orch.drift().drifting());
        assert!(orch.drift().scores().iter().all(|&s| s == 0.0));
    }
}
