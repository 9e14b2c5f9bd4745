//! Online inference: the orchestrator of Figure 1.
//!
//! The orchestrator receives per-node observations every second, keeps a
//! rolling feature window per container, predicts saturation per
//! instance and aggregates instance predictions to application level
//! with a logical OR (Section 4).
//!
//! [`Orchestrator::step`] serves the whole fleet in one pass per tick:
//! a gather phase writes every instance's transformed feature row into
//! one reused row-major matrix ([`InstanceTransformer::push_into`]
//! reading each entry's host and container vectors in place, with a
//! single shared [`TransformScratch`]), one blocked
//! [`FlatEnsemble::predict_rows_into`][flat] call scores the matrix on
//! the calling thread, and a fan-out phase turns the probability vector
//! back into per-instance decisions, journal records and drift checks.
//! Before any of that, the tick is checked whole: every host and
//! container vector at the pipeline's raw width, every column the model
//! reads collected, and every instance id listed at most once. The
//! retired per-instance loop survives as [`Orchestrator::step_legacy`]
//! — the reference the batched path is proven bit-identical against
//! (`tests/tick_equivalence.rs`, `table_tick`).
//!
//! [`Orchestrator::step_report`] serves a simulator tick: the
//! orchestrator's own [`Collector`], subscribed to the raw columns the
//! model reads ([`FittedPipeline::serving_columns`]), collects those
//! columns from the report's signal frames and nothing else. A
//! collected value depends only on its column, the second, the node's
//! seed and that column's counter history, so an orchestrator built
//! with its cluster serves every tick to the same bits as one stepped
//! with full collections.
//!
//! [`FittedPipeline::serving_columns`]: crate::features::FittedPipeline::serving_columns
//!
//! [flat]: monitorless_learn::FlatEnsemble::predict_rows_into
//!
//! Beyond predicting, [`Orchestrator::step`] is the seam where model
//! observability hangs off the serving loop:
//!
//! * every tick mints a trace id (when tracing is on — see
//!   [`monitorless_obs::TraceMode`]) and journals observation ingest,
//!   each prediction (with its top-k feature attribution for saturated
//!   calls) and drift alerts under that id, so one `trace_id` joins a
//!   raw observation to the autoscaler decision it caused;
//! * a bounded sample of each tick's transformed feature rows — every
//!   row of a tick of up to 32, an evenly strided 32 or fewer of a
//!   larger one ([`drift::samples_row`]) — is fed to a streaming
//!   [`DriftDetector`] over the model's drift profile and the features
//!   its forest splits on. Every model carries a profile, so every
//!   orchestrator scores drift, and a serving distribution that wanders
//!   from the training profile raises `drift.alerts` and a
//!   `drift.alert` journal record per newly alerted feature without any
//!   extra plumbing at the call site;
//! * the per-tick scratch buffers (feature row, prediction vector,
//!   attribution vector) are owned by the orchestrator and reused
//!   across ticks — with tracing off, a steady-state tick performs no
//!   allocation (`table_obs` asserts this).

use std::collections::HashMap;
use std::sync::Arc;

use monitorless_metrics::{Catalog, Collector, InstanceId, Observation, Subscription};
use monitorless_obs as obs;

use crate::drift::{self, DriftCheck, DriftDetector};
use crate::features::{InstanceTransformer, TransformScratch};
use crate::model::MonitorlessModel;
use crate::Error;
use monitorless_sim::TickReport;

/// How instance predictions are combined into an application
/// prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// Any saturated instance saturates the application (the paper's
    /// choice — right for scaling decisions).
    #[default]
    Or,
    /// All instances must be saturated.
    And,
    /// More than half of the instances must be saturated.
    Majority,
}

impl Aggregation {
    /// Combines instance-level boolean predictions.
    pub fn combine(self, predictions: &[u8]) -> u8 {
        if predictions.is_empty() {
            return 0;
        }
        let pos = predictions.iter().filter(|&&p| p == 1).count();
        let result = match self {
            Aggregation::Or => pos > 0,
            Aggregation::And => pos == predictions.len(),
            Aggregation::Majority => 2 * pos > predictions.len(),
        };
        u8::from(result)
    }
}

/// Per-instance prediction for one second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstancePrediction {
    /// The instance.
    pub instance: InstanceId,
    /// Saturation probability.
    pub probability: f64,
    /// Thresholded label.
    pub saturated: u8,
}

/// The online orchestrator.
#[derive(Debug)]
pub struct Orchestrator {
    model: Arc<MonitorlessModel>,
    /// The model's columns, collected from simulator ticks by
    /// [`Orchestrator::step_report`].
    collector: Collector,
    /// `step_report`'s observation buffers, reused across ticks.
    collected: Vec<Observation>,
    /// Per-instance rolling windows, each stamped with the last tick
    /// that saw its instance.
    transformers: HashMap<InstanceId, (u64, InstanceTransformer)>,
    /// Ticks served so far: the stamp that marks an instance live.
    ticks: u64,
    /// Streaming drift detector over a sample of the served rows.
    drift: DriftDetector,
    /// Trace id minted for the most recent tick (0 when tracing is off).
    last_trace: u64,
    // Per-tick scratch, reused across ticks (zero-alloc steady state).
    live: Vec<InstanceId>,
    /// The tick's instance ids, sorted to find one listed twice.
    ids: Vec<InstanceId>,
    predictions: Vec<InstancePrediction>,
    /// Concatenated host ++ container vector (`step_legacy` only).
    raw: Vec<f64>,
    contrib: Vec<f64>,
    /// Row-major fleet feature matrix, one row per live instance.
    fleet: Vec<f64>,
    /// One probability per fleet row.
    probs: Vec<f64>,
    /// Stage-1–3 working space shared by every instance's transformer.
    scratch: TransformScratch,
}

/// Journal label keys for the top-k attribution of one prediction.
const TOP_K_KEYS: [&str; 3] = ["top1", "top2", "top3"];

impl Orchestrator {
    /// Creates an orchestrator around a trained model, with a drift
    /// detector over the model's reference profile that scores the
    /// features its forest splits on, and a collector subscribed to the
    /// raw columns the model reads.
    pub fn new(model: Arc<MonitorlessModel>) -> Self {
        let drift = DriftDetector::new(model.drift_profile(), &model.flat().split_features());
        let n_features = model.flat().n_features();
        let scratch = TransformScratch::for_pipeline(model.pipeline());
        let collector = Collector::new(Arc::new(Self::subscription(&model)));
        Orchestrator {
            model,
            collector,
            collected: Vec::new(),
            transformers: HashMap::new(),
            ticks: 0,
            drift,
            last_trace: 0,
            live: Vec::new(),
            ids: Vec::new(),
            predictions: Vec::new(),
            raw: Vec::new(),
            contrib: vec![0.0; n_features],
            fleet: Vec::new(),
            probs: Vec::new(),
            scratch,
        }
    }

    /// The columns `model` reads from the standard catalog. A model laid
    /// out for other widths cannot serve standard observations, so it
    /// subscribes to every column and the width check refuses its ticks.
    fn subscription(model: &MonitorlessModel) -> Subscription {
        let catalog = Catalog::standard();
        if model.pipeline().raw_widths() != (catalog.host_len(), catalog.container_len()) {
            return Subscription::all(&catalog);
        }
        let (host, ctr) = model.pipeline().serving_columns();
        Subscription::new(&catalog, host, ctr)
    }

    /// The model driving predictions.
    pub fn model(&self) -> &Arc<MonitorlessModel> {
        &self.model
    }

    /// The collector [`Orchestrator::step_report`] collects through.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Number of instances currently tracked.
    pub fn tracked_instances(&self) -> usize {
        self.transformers.len()
    }

    /// The streaming drift detector over the sampled served rows.
    pub fn drift(&self) -> &DriftDetector {
        &self.drift
    }

    /// Trace id of the most recent tick (0 when tracing is off or no
    /// tick has run) — downstream consumers (the autoscaler) stamp their
    /// decision records with it to join the tick's causal chain.
    pub fn last_trace(&self) -> u64 {
        self.last_trace
    }

    /// Ingests one second of observations from all nodes and returns
    /// per-instance predictions (borrowed from internal scratch, valid
    /// until the next call). Rolling windows for instances that
    /// disappeared (scale-in) are dropped; new instances start cold.
    ///
    /// One tick is three phases over the whole fleet: gather every
    /// instance's feature row into the reused fleet matrix, score the
    /// matrix with one blocked ensemble pass, then fan the probability
    /// vector back out to decisions, journal records and the drift
    /// sample ([`drift::samples_row`]) in gather order — so records,
    /// counters and alerts arrive in the exact sequence the
    /// per-instance loop ([`Orchestrator::step_legacy`]) produced, and
    /// every probability is bit-identical to it. With tracing off, a
    /// steady-state tick performs no heap allocation (`table_tick`
    /// asserts this).
    ///
    /// # Errors
    ///
    /// [`Error::Invalid`] when any entry's host or container vector is
    /// not the pipeline's raw width, when an observation was collected
    /// without a column the model reads (naming the node and the
    /// column), or when one instance id is listed twice (on one node or
    /// on two); every entry is checked before any window, drift or trace
    /// state changes, so a rejected tick leaves the orchestrator as it
    /// was. Propagates feature-pipeline errors.
    pub fn step(&mut self, observations: &[Observation]) -> Result<&[InstancePrediction], Error> {
        self.check_observations(observations)?;
        self.ticks += 1;
        let tick = self.ticks;
        self.live.clear();
        self.predictions.clear();
        let tracing = obs::trace_enabled();
        let trace = if tracing { obs::next_trace() } else { 0 };
        self.last_trace = trace;
        let _scope = tracing.then(|| obs::enter_trace(trace));
        if tracing {
            obs::record(
                "orchestrator.observe",
                trace,
                &[
                    ("time", observations.first().map_or(-1.0, |o| o.time as f64)),
                    ("nodes", observations.len() as f64),
                ],
                &[],
            );
        }
        let width = self.model.pipeline().output_width();
        let total: usize = observations.iter().map(Observation::n_instances).sum();
        // Steady state the fleet buffers are already at capacity and
        // these resizes touch lengths only.
        self.fleet.resize(total * width, 0.0);
        self.probs.resize(total, 0.0);
        // Phase 1: gather — one transformed feature row per instance,
        // written straight into the fleet matrix.
        let gather_span = obs::Span::enter("orchestrator.gather");
        let mut row = 0usize;
        for observation in observations {
            for (instance, ctr) in &observation.containers {
                self.live.push(*instance);
                let (seen, transformer) = self
                    .transformers
                    .entry(*instance)
                    .or_insert_with(|| (tick, self.model.transformer()));
                *seen = tick;
                let out = &mut self.fleet[row * width..(row + 1) * width];
                transformer.push_into(&observation.host, ctr, &mut self.scratch, out)?;
                row += 1;
            }
        }
        debug_assert_eq!(row, total, "every observation entry gathered");
        drop(gather_span);
        // Phase 2: one blocked lockstep pass over the whole fleet.
        let predict_span = obs::Span::enter("orchestrator.predict");
        self.model
            .predict_fleet_into(&self.fleet[..total * width], &mut self.probs[..total]);
        drop(predict_span);
        // Phase 3: fan out, in gather order.
        for (k, &instance) in self.live.iter().enumerate() {
            let probability = self.probs[k];
            let saturated = self.model.decide(probability);
            let features = &self.fleet[k * width..(k + 1) * width];
            obs::counter_add("orchestrator.predictions", 1);
            if saturated == 1 {
                obs::counter_add("orchestrator.predicted_saturated", 1);
            }
            if tracing {
                Self::journal_prediction(
                    &self.model,
                    &mut self.contrib,
                    trace,
                    instance,
                    features,
                    probability,
                    saturated,
                );
            }
            if drift::samples_row(k, total, tick) {
                if let Some(check) = self.drift.push(features) {
                    Self::journal_drift_check(&self.model, &self.drift, trace, &check);
                }
            }
            self.predictions.push(InstancePrediction {
                instance,
                probability,
                saturated,
            });
        }
        self.transformers.retain(|_, (seen, _)| *seen == tick);
        Ok(&self.predictions)
    }

    /// [`Error::Invalid`] naming the first observation entry whose host
    /// or container vector is not the pipeline's raw width, the first
    /// column the model reads that an observation was collected without,
    /// or an instance id listed more than once in the tick.
    fn check_observations(&mut self, observations: &[Observation]) -> Result<(), Error> {
        let (host_len, ctr_len) = self.model.pipeline().raw_widths();
        let read = self.collector.subscription();
        self.ids.clear();
        for o in observations {
            if o.host.len() != host_len {
                return Err(Error::Invalid(format!(
                    "{} at t={}: host vector has {} metrics, expected {host_len}",
                    o.node,
                    o.time,
                    o.host.len()
                )));
            }
            if let Some((id, ctr)) = o.containers.iter().find(|(_, c)| c.len() != ctr_len) {
                return Err(Error::Invalid(format!(
                    "{} at t={}: {id} container vector has {} metrics, expected {ctr_len}",
                    o.node,
                    o.time,
                    ctr.len()
                )));
            }
            let partial = o
                .subscription
                .as_ref()
                .filter(|g| !Arc::ptr_eq(g, read) && !g.is_full());
            if let Some(got) = partial {
                let missing = (read.host_columns().find(|&i| !got.has_host(i))).or_else(|| {
                    (read.container_columns())
                        .find(|&i| !got.has_container(i))
                        .map(|i| host_len + i)
                });
                if let Some(i) = missing {
                    let names = self.model.pipeline().raw_names();
                    return Err(Error::Invalid(format!(
                        "{} at t={}: column {} is not collected, and the model reads it",
                        o.node,
                        o.time,
                        names.get(i).map_or("?", String::as_str)
                    )));
                }
            }
            self.ids.extend(o.containers.iter().map(|(id, _)| *id));
        }
        self.ids.sort_unstable();
        if let Some(pair) = self.ids.windows(2).find(|p| p[0] == p[1]) {
            return Err(Error::Invalid(format!(
                "{} is listed more than once in one tick",
                pair[0]
            )));
        }
        Ok(())
    }

    /// Ingests a simulator tick directly: collects the columns the model
    /// reads from the report's signal frames through the orchestrator's
    /// own collector, then serves them with [`Orchestrator::step`]. This
    /// is the natural coupling with [`monitorless_sim::EventSim`], whose
    /// [`TickReport`]s arrive only at monitoring boundaries.
    ///
    /// The collector starts each node's counters at the first tick it
    /// sees, so an orchestrator should see its cluster's ticks from the
    /// first: one that joins later reads a first interval of 0 on every
    /// counter, as a freshly attached agent would. With tracing off, a
    /// steady-state tick performs no heap allocation.
    ///
    /// # Errors
    ///
    /// As [`Orchestrator::step`].
    pub fn step_report(&mut self, report: &TickReport) -> Result<&[InstancePrediction], Error> {
        let mut collected = std::mem::take(&mut self.collected);
        self.collector
            .collect_into(report.time, &report.frames, &mut collected);
        let served = self.step(&collected).map(|_| ());
        self.collected = collected;
        served?;
        Ok(&self.predictions)
    }

    /// The original per-instance serving loop — transform one instance,
    /// predict one row, journal, repeat — retained as the reference
    /// [`Orchestrator::step`] is proven bit-identical against
    /// (probabilities, decisions, drift alerts and journal record
    /// sequence). Maintains the same rolling windows and drift state,
    /// so the two paths cannot be interleaved on one orchestrator —
    /// build twins from the same model to compare.
    ///
    /// # Errors
    ///
    /// As [`Orchestrator::step`]: a tick it refuses leaves the
    /// orchestrator as it was.
    pub fn step_legacy(
        &mut self,
        observations: &[Observation],
    ) -> Result<&[InstancePrediction], Error> {
        self.check_observations(observations)?;
        self.live.clear();
        self.predictions.clear();
        let tracing = obs::trace_enabled();
        let trace = if tracing { obs::next_trace() } else { 0 };
        self.last_trace = trace;
        let _scope = tracing.then(|| obs::enter_trace(trace));
        if tracing {
            obs::record(
                "orchestrator.observe",
                trace,
                &[
                    ("time", observations.first().map_or(-1.0, |o| o.time as f64)),
                    ("nodes", observations.len() as f64),
                ],
                &[],
            );
        }
        self.ticks += 1;
        let tick = self.ticks;
        let total: usize = observations.iter().map(Observation::n_instances).sum();
        for observation in observations {
            for instance in observation.instances() {
                let k = self.live.len();
                self.live.push(instance);
                let ok = observation.instance_vector_into(instance, &mut self.raw);
                debug_assert!(ok, "instance listed by the observation");
                let (seen, transformer) = self
                    .transformers
                    .entry(instance)
                    .or_insert_with(|| (tick, self.model.transformer()));
                *seen = tick;
                let predict_span = obs::Span::enter("orchestrator.predict");
                let features = transformer.push(&self.raw)?;
                let (probability, saturated) = self.model.predict_features(features);
                drop(predict_span);
                obs::counter_add("orchestrator.predictions", 1);
                if saturated == 1 {
                    obs::counter_add("orchestrator.predicted_saturated", 1);
                }
                if tracing {
                    Self::journal_prediction(
                        &self.model,
                        &mut self.contrib,
                        trace,
                        instance,
                        features,
                        probability,
                        saturated,
                    );
                }
                if drift::samples_row(k, total, tick) {
                    if let Some(check) = self.drift.push(features) {
                        Self::journal_drift_check(&self.model, &self.drift, trace, &check);
                    }
                }
                self.predictions.push(InstancePrediction {
                    instance,
                    probability,
                    saturated,
                });
            }
        }
        self.transformers.retain(|_, (seen, _)| *seen == tick);
        Ok(&self.predictions)
    }

    /// Journals one prediction with its top-k feature attribution
    /// (saturated calls only — the audit question is "which platform
    /// metrics drove this saturated call").
    fn journal_prediction(
        model: &MonitorlessModel,
        contrib: &mut [f64],
        trace: u64,
        instance: InstanceId,
        features: &[f64],
        probability: f64,
        saturated: u8,
    ) {
        let mut labels: Vec<(&'static str, String)> = Vec::new();
        if saturated == 1 {
            let attributed = model.flat().predict_row_attributed(features, contrib);
            debug_assert_eq!(
                attributed.to_bits(),
                probability.to_bits(),
                "attributed walk must be bit-identical"
            );
            let names = model.pipeline().feature_names();
            let top = monitorless_learn::top_k_contributions(contrib, TOP_K_KEYS.len());
            for (slot, (feature, delta)) in TOP_K_KEYS.iter().copied().zip(top) {
                labels.push((slot, format!("{}:{delta:+.4}", names[feature])));
            }
        }
        let labels: Vec<(&'static str, &str)> =
            labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        obs::record(
            "orchestrator.predict",
            trace,
            &[
                ("instance", instance.0 as f64),
                ("probability", probability),
                ("saturated", saturated as f64),
            ],
            &labels,
        );
    }

    /// Journals drift-alert transitions and streams them as discrete
    /// events; steady-state checks journal nothing. A record carries the
    /// feature's PSI, the window's shares in its lowest and highest
    /// reference bin (0.1 each when it looks like training, so they say
    /// which way it moved) and its training mean and std.
    fn journal_drift_check(
        model: &MonitorlessModel,
        det: &DriftDetector,
        trace: u64,
        check: &DriftCheck,
    ) {
        for &feature in &check.new_alerts {
            let names = model.pipeline().feature_names();
            let name = names.get(feature).map_or("?", |n| n.as_str());
            let (low_share, high_share) = det.tail_shares(feature);
            let reference = &model.drift_profile().features[feature];
            obs::record(
                "drift.alert",
                trace,
                &[
                    ("feature_index", feature as f64),
                    ("psi", det.scores()[feature]),
                    ("low_share", low_share),
                    ("high_share", high_share),
                    ("ref_mean", reference.mean),
                    ("ref_std", reference.std),
                ],
                &[("feature", name)],
            );
            obs::event(
                "drift.alert",
                &[
                    ("feature_index", feature as f64),
                    ("psi", det.scores()[feature]),
                ],
            );
        }
    }

    /// Aggregates predictions for the given application instances.
    pub fn application_prediction(
        predictions: &[InstancePrediction],
        app_instances: &[InstanceId],
        aggregation: Aggregation,
    ) -> u8 {
        let labels: Vec<u8> = predictions
            .iter()
            .filter(|p| app_instances.contains(&p.instance))
            .map(|p| p.saturated)
            .collect();
        let combined = aggregation.combine(&labels);
        if combined == 1 {
            obs::counter_add("orchestrator.agg.saturated", 1);
        } else {
            obs::counter_add("orchestrator.agg.healthy", 1);
        }
        combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelOptions;
    use crate::training::{generate_training_data, TrainingOptions};
    use monitorless_metrics::{Collector, NodeId};
    use monitorless_sim::apps::build_single;
    use monitorless_sim::{Cluster, ContainerLimits, NodeSpec, ServiceProfile};

    fn trained_model() -> Arc<MonitorlessModel> {
        let data = generate_training_data(&TrainingOptions {
            run_seconds: 30,
            ramp_seconds: 100,
            seed: 7,
            n_jobs: 4,
        })
        .unwrap();
        Arc::new(MonitorlessModel::train(&data, &ModelOptions::quick()).unwrap())
    }

    #[test]
    fn aggregation_rules() {
        assert_eq!(Aggregation::Or.combine(&[0, 0, 1]), 1);
        assert_eq!(Aggregation::Or.combine(&[0, 0]), 0);
        assert_eq!(Aggregation::And.combine(&[1, 1]), 1);
        assert_eq!(Aggregation::And.combine(&[1, 0]), 0);
        assert_eq!(Aggregation::Majority.combine(&[1, 1, 0]), 1);
        assert_eq!(Aggregation::Majority.combine(&[1, 0]), 0);
        assert_eq!(Aggregation::Or.combine(&[]), 0);
    }

    #[test]
    fn orchestrator_tracks_and_forgets_instances() {
        let model = trained_model();
        let mut orch = Orchestrator::new(model);
        let mut cluster = Cluster::new(vec![NodeSpec::training_server()], 9);
        let (app, _) = build_single(
            &mut cluster,
            ServiceProfile::test_cpu_bound("svc", 10.0),
            ContainerLimits::cpu(1.0),
            NodeId(0),
        );
        let report = cluster.step(&[(app, 10.0)]);
        let preds = orch.step_report(&report).unwrap().to_vec();
        assert_eq!(preds.len(), 1);
        assert_eq!(orch.tracked_instances(), 1);
        assert!((0.0..=1.0).contains(&preds[0].probability));
        // Scale out: second instance appears next tick.
        cluster.scale_out(app, "svc", NodeId(0)).unwrap();
        let report = cluster.step(&[(app, 10.0)]);
        let preds = orch.step_report(&report).unwrap().to_vec();
        assert_eq!(preds.len(), 2);
        assert_eq!(orch.tracked_instances(), 2);
    }

    /// A two-node fleet episode with scale-outs and scale-ins: the
    /// subscribed `step_report` serves every tick to the bits `step`
    /// serves from full collections, decisions and drift state included,
    /// while collecting a fraction of the cells.
    #[test]
    fn step_report_matches_step() {
        let model = trained_model();
        let mut by_obs = Orchestrator::new(Arc::clone(&model));
        let mut by_report = Orchestrator::new(model);
        let nodes = vec![NodeSpec::training_server(), NodeSpec::m2()];
        let mut c1 = Cluster::new(nodes, 23);
        let mut full = Collector::full(c1.catalog());
        let mut observed = Vec::new();
        let (a, _) = build_single(
            &mut c1,
            ServiceProfile::test_cpu_bound("svc", 10.0),
            ContainerLimits::cpu(1.0),
            NodeId(0),
        );
        let (b, _) = build_single(
            &mut c1,
            ServiceProfile::test_cpu_bound("svc", 6.0),
            ContainerLimits::cpu(0.5),
            NodeId(1),
        );
        for t in 0..60u64 {
            match t {
                10 | 25 => drop(c1.scale_out(a, "svc", NodeId(1)).unwrap()),
                18 => drop(c1.scale_out(b, "svc", NodeId(0)).unwrap()),
                35 | 50 => assert!(c1.scale_in(c1.app(a).instances()[0])),
                _ => {}
            }
            let load = if t % 20 < 10 { 30.0 } else { 85.0 };
            let report = c1.step(&[(a, load), (b, 40.0)]);
            full.collect_into(report.time, &report.frames, &mut observed);
            let want = by_obs.step(&observed).unwrap().to_vec();
            let got = by_report.step_report(&report).unwrap();
            assert_eq!(want.len(), got.len(), "t {t}");
            for (x, y) in want.iter().zip(got) {
                assert_eq!(x.instance, y.instance, "t {t}");
                assert_eq!(x.probability.to_bits(), y.probability.to_bits(), "t {t}");
                assert_eq!(x.saturated, y.saturated, "t {t}");
            }
            let bits = |o: &Orchestrator| {
                o.drift()
                    .scores()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&by_obs), bits(&by_report), "t {t}: drift scores");
            assert_eq!(by_obs.drift().alerted_features(), by_report.drift().alerted_features());
        }
        assert!(by_report.collector().cells() * 5 < full.cells(), "subscribed collection is small");
    }

    #[test]
    fn application_prediction_uses_only_app_instances() {
        let preds = vec![
            InstancePrediction {
                instance: InstanceId(0),
                probability: 0.9,
                saturated: 1,
            },
            InstancePrediction {
                instance: InstanceId(1),
                probability: 0.1,
                saturated: 0,
            },
        ];
        // Application B contains only the healthy instance.
        let a = Orchestrator::application_prediction(&preds, &[InstanceId(0)], Aggregation::Or);
        let b = Orchestrator::application_prediction(&preds, &[InstanceId(1)], Aggregation::Or);
        assert_eq!(a, 1);
        assert_eq!(b, 0);
    }
}
