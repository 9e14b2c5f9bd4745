//! Training-data generation: the 25 configurations of Table 1.
//!
//! Each configuration runs one service (Solr, Memcache or Cassandra
//! under a YCSB class) with specific container limits and a traffic
//! pattern, optionally co-located with a partner configuration to learn
//! interference effects. Before the measured run, a linearly increasing
//! load test calibrates the saturation threshold `Υ` via Kneedle
//! (Section 2.2); the measured run's samples are then labeled by
//! comparing the per-second KPI against `Υ`.

use monitorless_label::kneedle::KneedleParams;
use monitorless_label::{SaturationDirection, SaturationThreshold};
use monitorless_learn::{Dataset, MatrixBuilder};
use monitorless_metrics::{Collector, InstanceId, NodeId};
use monitorless_obs as obs;
use monitorless_sim::apps::{build_single, cassandra_profile, memcache_profile, solr_profile};
use monitorless_sim::{AppId, Bottleneck, Cluster, ContainerLimits, NodeSpec, ServiceProfile};
use monitorless_std::pool;
use monitorless_workload::{
    ConstantProfile, LoadProfile, NoisyProfile, RampProfile, SineProfile, SteppedProfile, YcsbClass,
};

use crate::features::RawLayout;
use crate::Error;

/// Which training service a configuration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// Apache Solr enterprise search.
    Solr,
    /// Memcache object cache.
    Memcache,
    /// Apache Cassandra under the given YCSB class.
    Cassandra(YcsbClass),
}

impl ServiceKind {
    /// The demand profile for this service.
    pub fn profile(self) -> ServiceProfile {
        match self {
            ServiceKind::Solr => solr_profile(),
            ServiceKind::Memcache => memcache_profile(),
            ServiceKind::Cassandra(class) => cassandra_profile(class),
        }
    }

    /// Short display name as in Table 1. Static — the table printers
    /// call this per row and need no allocation.
    pub fn short_name(self) -> &'static str {
        match self {
            ServiceKind::Solr => "Solr",
            ServiceKind::Memcache => "Memc.",
            ServiceKind::Cassandra(YcsbClass::A) => "Cass. A",
            ServiceKind::Cassandra(YcsbClass::B) => "Cass. B",
            ServiceKind::Cassandra(YcsbClass::D) => "Cass. D",
            ServiceKind::Cassandra(YcsbClass::F) => "Cass. F",
        }
    }
}

/// Traffic pattern of a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpec {
    /// LIMBO `sin1000`.
    Sin1000,
    /// LIMBO `sinnoise1000` (noisy sine).
    SinNoise1000,
    /// Several constant target levels spanning `[lo, hi]` req/s.
    Range {
        /// Lowest target rate.
        lo: f64,
        /// Highest target rate.
        hi: f64,
    },
    /// One constant target rate.
    Constant(f64),
}

impl TrafficSpec {
    /// Maximum rate of the pattern (used to size the calibration ramp).
    pub fn max_rate(&self) -> f64 {
        match self {
            TrafficSpec::Sin1000 | TrafficSpec::SinNoise1000 => 1000.0,
            TrafficSpec::Range { hi, .. } => *hi,
            TrafficSpec::Constant(r) => *r,
        }
    }

    /// Builds the load profile for a run of `duration` seconds.
    pub fn profile(&self, duration: u64, seed: u64) -> Box<dyn LoadProfile> {
        match *self {
            TrafficSpec::Sin1000 => Box::new(SineProfile::sin1000(duration)),
            TrafficSpec::SinNoise1000 => {
                Box::new(NoisyProfile::<SineProfile>::sinnoise1000(duration, seed))
            }
            TrafficSpec::Range { lo, hi } => {
                Box::new(SteppedProfile::range(lo, hi, 6, (duration / 6).max(1)))
            }
            TrafficSpec::Constant(r) => Box::new(ConstantProfile::new(r, duration)),
        }
    }

    /// Compact description as printed in Table 1.
    pub fn describe(&self) -> String {
        match self {
            TrafficSpec::Sin1000 => "sin1000".into(),
            TrafficSpec::SinNoise1000 => "sinnoise1000".into(),
            TrafficSpec::Range { lo, hi } => format!("{lo:.0}-{hi:.0} R/s"),
            TrafficSpec::Constant(r) => format!("{r:.0} R/s"),
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Row number (1-25).
    pub id: u32,
    /// Service under test.
    pub service: ServiceKind,
    /// Container limits (`CPU, MEM` column).
    pub limits: ContainerLimits,
    /// Partner row id for co-located runs (`Par` column).
    pub parallel_with: Option<u32>,
    /// Traffic pattern.
    pub traffic: TrafficSpec,
    /// Bottleneck the paper reports for this row.
    pub expected_bottleneck: Bottleneck,
}

/// The 25 training configurations of Table 1.
pub fn table1() -> Vec<TrainingConfig> {
    use Bottleneck as B;
    use ServiceKind as S;
    use TrafficSpec as T;
    let row = |id, service, limits, parallel_with, traffic, expected_bottleneck| TrainingConfig {
        id,
        service,
        limits,
        parallel_with,
        traffic,
        expected_bottleneck,
    };
    let cl = ContainerLimits::cpu;
    let ml = ContainerLimits::memory;
    let cm = ContainerLimits::cpu_and_memory;
    let un = ContainerLimits::unlimited();
    vec![
        row(1, S::Solr, cl(3.0), None, T::Sin1000, B::ContainerCpu),
        row(2, S::Solr, un, None, T::Sin1000, B::HostCpu),
        row(3, S::Solr, ml(8.0), Some(18), T::SinNoise1000, B::IoBandwidth),
        row(4, S::Solr, ml(8.0), Some(19), T::SinNoise1000, B::IoBandwidth),
        row(5, S::Solr, cm(3.0, 8.0), Some(20), T::SinNoise1000, B::IoBandwidth),
        row(6, S::Solr, cm(1.5, 8.0), Some(22), T::SinNoise1000, B::ContainerCpu),
        row(7, S::Memcache, un, None, T::Range { lo: 2e3, hi: 50e3 }, B::MemBandwidth),
        row(8, S::Memcache, cl(1.0), None, T::Range { lo: 20e3, hi: 85e3 }, B::ContainerCpu),
        row(9, S::Memcache, ml(8.0), None, T::Range { lo: 39e3, hi: 45e3 }, B::IoQueue),
        row(10, S::Memcache, ml(4.0), Some(23), T::Range { lo: 10e3, hi: 65e3 }, B::IoQueue),
        row(
            11,
            S::Cassandra(YcsbClass::A),
            un,
            None,
            T::Range {
                lo: 30e3,
                hi: 100e3,
            },
            B::Network,
        ),
        row(12, S::Cassandra(YcsbClass::B), un, None, T::Range { lo: 20e3, hi: 70e3 }, B::HostCpu),
        row(13, S::Cassandra(YcsbClass::D), un, None, T::Range { lo: 40e3, hi: 90e3 }, B::Network),
        row(
            14,
            S::Cassandra(YcsbClass::A),
            cm(20.0, 30.0),
            None,
            T::Range {
                lo: 300.0,
                hi: 1200.0,
            },
            B::IoBandwidth,
        ),
        row(
            15,
            S::Cassandra(YcsbClass::B),
            cm(20.0, 30.0),
            None,
            T::Range {
                lo: 100.0,
                hi: 900.0,
            },
            B::IoBandwidth,
        ),
        row(
            16,
            S::Cassandra(YcsbClass::B),
            cm(20.0, 30.0),
            None,
            T::Range {
                lo: 700.0,
                hi: 1000.0,
            },
            B::IoBandwidth,
        ),
        row(
            17,
            S::Cassandra(YcsbClass::B),
            cm(20.0, 30.0),
            None,
            T::Range {
                lo: 100.0,
                hi: 1000.0,
            },
            B::IoBandwidth,
        ),
        row(
            18,
            S::Cassandra(YcsbClass::A),
            cl(6.0),
            Some(3),
            T::Range { lo: 15e3, hi: 25e3 },
            B::ContainerCpu,
        ),
        row(
            19,
            S::Cassandra(YcsbClass::B),
            cl(6.0),
            Some(4),
            T::Range { lo: 10e3, hi: 15e3 },
            B::ContainerCpu,
        ),
        row(
            20,
            S::Cassandra(YcsbClass::D),
            cl(6.0),
            Some(5),
            T::Range { lo: 10e3, hi: 25e3 },
            B::ContainerCpu,
        ),
        row(
            21,
            S::Cassandra(YcsbClass::A),
            cl(6.0),
            None,
            T::Range { lo: 5e3, hi: 20e3 },
            B::ContainerCpu,
        ),
        row(
            22,
            S::Cassandra(YcsbClass::B),
            cl(6.0),
            Some(6),
            T::Range { lo: 5e3, hi: 20e3 },
            B::ContainerCpu,
        ),
        row(23, S::Cassandra(YcsbClass::B), cl(6.0), Some(10), T::Constant(10e3), B::ContainerCpu),
        row(24, S::Cassandra(YcsbClass::F), cl(1.0), None, T::Constant(200.0), B::IoWait),
        row(25, S::Cassandra(YcsbClass::F), cl(1.0), None, T::Constant(20.0), B::IoWait),
    ]
}

/// Options controlling training-data generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingOptions {
    /// Length of each measured run in seconds.
    pub run_seconds: u64,
    /// Length of the Υ calibration ramp in seconds.
    pub ramp_seconds: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads scheduling the calibration sims and episode
    /// batches. Every per-cell seed derives from the configuration id
    /// alone, so the assembled dataset is byte-identical for every
    /// value — `n_jobs` only changes wall time.
    pub n_jobs: usize,
}

impl TrainingOptions {
    /// Laptop-scale configuration (~3-4k samples over the 25 runs).
    pub fn quick(seed: u64) -> Self {
        TrainingOptions {
            run_seconds: 150,
            ramp_seconds: 200,
            seed,
            n_jobs: 4,
        }
    }

    /// Paper-scale configuration (~63k samples, as in Section 3.4).
    pub fn paper(seed: u64) -> Self {
        TrainingOptions {
            run_seconds: 2500,
            ramp_seconds: 600,
            seed,
            n_jobs: 8,
        }
    }
}

/// Output of [`generate_training_data`].
#[derive(Debug, Clone)]
pub struct TrainingData {
    /// Raw 1040-metric samples with labels and group ids (group = Table 1
    /// row). Samples are chronological within each group.
    pub dataset: Dataset,
    /// Layout of the raw vectors.
    pub layout: RawLayout,
    /// Calibrated `Υ` per configuration id (`None` when the ramp never
    /// found a knee — the configuration then contributes only negative
    /// samples, which the paper's iterative-improvement loop would flag).
    pub thresholds: Vec<(u32, Option<f64>)>,
    /// Bottleneck most frequently observed while saturated, per
    /// configuration (for the Table 1 regeneration binary).
    pub observed_bottlenecks: Vec<(u32, Bottleneck)>,
    /// Overprovisioning labels (one per dataset row): 1 when the service
    /// ran far below its knee with zero failures — training targets for
    /// the Section 5 scale-in classifier.
    pub scalein_labels: Vec<u8>,
}

/// Calibrates `Υ` for one configuration by running a linear ramp against
/// an isolated instance and applying Kneedle to (offered, throughput).
pub fn calibrate_threshold(
    config: &TrainingConfig,
    opts: &TrainingOptions,
) -> Result<Option<SaturationThreshold>, Error> {
    let mut cluster = Cluster::new(vec![NodeSpec::training_server()], opts.seed ^ 0xCA11);
    let (app, _) = build_single(&mut cluster, config.service.profile(), config.limits, NodeId(0));
    let ramp = RampProfile::new(1.0, config.traffic.max_rate() * 1.3, opts.ramp_seconds);
    let mut offered = Vec::new();
    let mut throughput = Vec::new();
    for t in 0..opts.ramp_seconds {
        let load = ramp.intensity(t);
        let report = cluster.step(&[(app, load)]);
        let kpi = report.kpi(app).expect("app exists");
        offered.push(load);
        throughput.push(kpi.throughput_rps);
    }
    match SaturationThreshold::calibrate(
        &offered,
        &throughput,
        &KneedleParams::default(),
        SaturationDirection::Above,
    ) {
        Ok(t) => Ok(Some(t)),
        Err(monitorless_label::Error::NoKnee) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Labels one second of application KPIs: saturated when the throughput
/// exceeds `Υ` *or* requests are failing.
///
/// The paper logs "individual response times and failed request rates …
/// every second to label the training data" (Section 3.2.1): a service
/// whose achievable throughput is pushed *below* the calibrated knee
/// (e.g. by co-located interference) still saturates — visible as
/// dropped requests rather than as throughput above `Υ`.
pub fn saturation_label(
    kpi: &monitorless_sim::AppKpi,
    threshold: Option<&monitorless_label::SaturationThreshold>,
) -> u8 {
    saturation_label_parts(kpi.throughput_rps, kpi.failure_fraction(), threshold)
}

/// [`saturation_label`] from the raw per-tick KPI scalars — the form
/// the shadow retrainer uses to label fresh episodes it recorded as
/// plain `(throughput, failure fraction)` series rather than full
/// [`monitorless_sim::AppKpi`] values.
pub fn saturation_label_parts(
    throughput_rps: f64,
    failure_fraction: f64,
    threshold: Option<&monitorless_label::SaturationThreshold>,
) -> u8 {
    let by_threshold = threshold.map_or(0, |t| t.label(throughput_rps));
    let by_failures = u8::from(failure_fraction > 0.05);
    by_threshold.max(by_failures)
}

/// Labels one second as *overprovisioned*: the service runs far below its
/// calibrated knee and nothing is failing, so it could conservatively be
/// scaled in (the additional classifier proposed in Section 5, "Using
/// monitorless for autoscaling").
pub fn overprovision_label(
    kpi: &monitorless_sim::AppKpi,
    threshold: Option<&monitorless_label::SaturationThreshold>,
) -> u8 {
    match threshold {
        Some(t) => {
            u8::from(kpi.throughput_rps < 0.25 * t.upsilon() && kpi.failure_fraction() < 1e-9)
        }
        None => 0,
    }
}

/// One episode's output channel: a disjoint region of the final
/// row-major dataset buffer plus the small per-tick side arrays. The
/// simulation writes each raw sample straight into `region` — no
/// per-row `Vec`, no assembly re-copy.
struct EpisodeSink<'a> {
    /// `region_rows * width` row-major slice of the final buffer.
    region: &'a mut [f64],
    /// Rows written so far (a tick with no observation writes none).
    rows: usize,
    labels: Vec<u8>,
    scalein_labels: Vec<u8>,
    /// Tick tally per bottleneck (saturated or non-`None` ticks only),
    /// indexed by [`Bottleneck::index`].
    bottleneck_counts: [u32; Bottleneck::COUNT],
}

/// Runs one configuration (with its partner, if any) and streams each
/// participating configuration's labeled raw samples into its sink.
fn run_configs(
    configs: &[&TrainingConfig],
    thresholds: &[Option<SaturationThreshold>],
    opts: &TrainingOptions,
    width: usize,
    sinks: &mut [EpisodeSink<'_>],
) -> Result<(), Error> {
    let mut cluster = Cluster::new(vec![NodeSpec::training_server()], opts.seed);
    let mut apps: Vec<(AppId, InstanceId)> = Vec::new();
    for config in configs {
        apps.push(build_single(&mut cluster, config.service.profile(), config.limits, NodeId(0)));
    }
    let profiles: Vec<Box<dyn LoadProfile>> = configs
        .iter()
        .map(|c| {
            c.traffic
                .profile(opts.run_seconds, opts.seed ^ u64::from(c.id))
        })
        .collect();

    let mut collector = Collector::full(cluster.catalog());
    let mut observed = Vec::new();
    let mut loads: Vec<(AppId, f64)> = Vec::with_capacity(apps.len());
    for t in 0..opts.run_seconds {
        loads.clear();
        loads.extend(
            apps.iter()
                .zip(&profiles)
                .map(|((app, _), p)| (*app, p.intensity(t))),
        );
        let report = cluster.step(&loads);
        collector.collect_into(report.time, &report.frames, &mut observed);
        for (((app, inst), threshold), sink) in apps.iter().zip(thresholds).zip(sinks.iter_mut()) {
            let row = &mut sink.region[sink.rows * width..(sink.rows + 1) * width];
            if !observed.iter().any(|o| o.instance_vector_write(*inst, row)) {
                continue;
            }
            let kpi = report.kpi(*app).expect("app exists");
            let label = saturation_label(kpi, threshold.as_ref());
            sink.rows += 1;
            sink.labels.push(label);
            sink.scalein_labels
                .push(overprovision_label(kpi, threshold.as_ref()));
            let bottleneck = report
                .container(*inst)
                .map_or(Bottleneck::None, |c| c.bottleneck);
            if label == 1 || bottleneck != Bottleneck::None {
                sink.bottleneck_counts[bottleneck.index()] += 1;
            }
        }
    }
    Ok(())
}

/// Most frequent non-`None` bottleneck of a tick tally (declaration
/// order breaks ties), or `None` when nothing ever saturated.
fn dominant_bottleneck(counts: &[u32; Bottleneck::COUNT]) -> Bottleneck {
    let mut best = Bottleneck::None;
    let mut best_count = 0u32;
    for (b, &c) in Bottleneck::ALL.iter().zip(counts).skip(1) {
        if c > best_count {
            best_count = c;
            best = *b;
        }
    }
    best
}

/// The co-location batches in sequential visit order: each batch holds
/// indices into `configs`, pairs run once when visiting the lower-id
/// member. Flattening the batches yields the dataset's group order.
fn plan_batches(configs: &[TrainingConfig]) -> Vec<Vec<usize>> {
    let mut visited = vec![false; configs.len()];
    let mut batches = Vec::new();
    for i in 0..configs.len() {
        if visited[i] {
            continue;
        }
        let mut batch_idx = vec![i];
        if let Some(par) = configs[i].parallel_with {
            if let Some(j) = configs.iter().position(|c| c.id == par) {
                if !visited[j] {
                    batch_idx.push(j);
                }
            }
        }
        for &j in &batch_idx {
            visited[j] = true;
        }
        batches.push(batch_idx);
    }
    batches
}

/// Generates the full Table 1 training dataset.
///
/// The 25 calibration sims and the co-location episode batches are
/// independent, so both phases schedule over
/// [`monitorless_std::pool`]'s dynamic work queue with
/// [`TrainingOptions::n_jobs`] workers. Every seed derives from the
/// configuration id alone and results are stitched back in the
/// sequential visit order, so the assembled dataset is byte-identical
/// for every `n_jobs` (`tests/train_equivalence.rs` pins this; the
/// `table_train` bench asserts it on every run).
///
/// Episodes write their raw samples directly into disjoint regions of
/// the final row-major buffer ([`MatrixBuilder`]); no intermediate
/// per-row allocation exists on the assembly path.
///
/// # Errors
///
/// Propagates simulation/labeling errors.
pub fn generate_training_data(opts: &TrainingOptions) -> Result<TrainingData, Error> {
    let span = obs::Span::enter("training.generate");
    let configs = table1();
    let layout = RawLayout::from_catalog(&monitorless_metrics::Catalog::standard())?;
    let width = layout.names().len();
    let n_jobs = opts.n_jobs.max(1);
    let workers =
        obs::WorkerTelemetry::new(n_jobs, "training.worker_busy_us", "training.worker_utilization");

    // Phase 1: calibrate every configuration in isolation. Ramp costs
    // vary per service, so the dynamic queue (not static chunks) keeps
    // every worker busy until the queue drains.
    let mut calibrations: Vec<Option<Result<Option<SaturationThreshold>, Error>>> =
        configs.iter().map(|_| None).collect();
    pool::for_each_item_mut(&mut calibrations, n_jobs, |i, slot| {
        *slot = Some(workers.time(|| calibrate_threshold(&configs[i], opts)));
    });
    let mut thresholds = Vec::with_capacity(configs.len());
    for slot in calibrations {
        thresholds.push(slot.expect("calibration slot filled by worker")?);
    }

    // Phase 2: plan the batches, size the dataset buffer up front and
    // hand each episode its disjoint region of the final matrix.
    let batches = plan_batches(&configs);
    let episodes: usize = batches.iter().map(Vec::len).sum();
    let run_rows = opts.run_seconds as usize;
    let mut builder = MatrixBuilder::with_regions(episodes, run_rows, width);

    let mut labels: Vec<u8> = Vec::new();
    let mut scalein_labels: Vec<u8> = Vec::new();
    let mut groups: Vec<u32> = Vec::new();
    let mut observed = Vec::new();
    let mut used_rows: Vec<usize> = Vec::with_capacity(episodes);
    {
        struct BatchJob<'a> {
            members: &'a [usize],
            sinks: Vec<EpisodeSink<'a>>,
            err: Option<Error>,
        }
        let mut regions = builder.regions_mut();
        let mut jobs: Vec<BatchJob<'_>> = batches
            .iter()
            .map(|members| BatchJob {
                members,
                sinks: members
                    .iter()
                    .map(|_| EpisodeSink {
                        region: regions.next().expect("one region per episode"),
                        rows: 0,
                        labels: Vec::with_capacity(run_rows),
                        scalein_labels: Vec::with_capacity(run_rows),
                        bottleneck_counts: [0u32; Bottleneck::COUNT],
                    })
                    .collect(),
                err: None,
            })
            .collect();

        // Phase 3: run the batches over the same dynamic queue
        // (co-located pairs cost ~2x an isolated run).
        pool::for_each_item_mut(&mut jobs, n_jobs, |_, job| {
            let batch: Vec<&TrainingConfig> = job.members.iter().map(|&j| &configs[j]).collect();
            let batch_thresholds: Vec<Option<SaturationThreshold>> =
                job.members.iter().map(|&j| thresholds[j]).collect();
            let run = || run_configs(&batch, &batch_thresholds, opts, width, &mut job.sinks);
            job.err = workers.time(run).err();
        });

        // Phase 4: stitch the outputs back in the deterministic
        // sequential order (batch visit order, partner inline after
        // its primary) — identical for every worker count.
        for job in jobs {
            if let Some(e) = job.err {
                return Err(e);
            }
            for (k, sink) in job.sinks.into_iter().enumerate() {
                let config = &configs[job.members[k]];
                observed.push((config.id, dominant_bottleneck(&sink.bottleneck_counts)));
                groups.extend(std::iter::repeat_n(config.id, sink.rows));
                labels.extend(sink.labels);
                scalein_labels.extend(sink.scalein_labels);
                used_rows.push(sink.rows);
            }
        }
    }

    let x = builder.finish(&used_rows);
    let names = layout.names().to_vec();
    let dataset = Dataset::new(x, labels, names, groups)?;
    observed.sort_by_key(|(id, _)| *id);

    workers.finish(&span);
    drop(span);
    obs::counter_add("training.episodes", episodes as u64);

    Ok(TrainingData {
        dataset,
        layout,
        thresholds: configs
            .iter()
            .zip(&thresholds)
            .map(|(c, t)| (c.id, t.map(|t| t.upsilon())))
            .collect(),
        observed_bottlenecks: observed,
        scalein_labels,
    })
}

/// Runs one configuration in isolation for `opts.run_seconds` ticks
/// under a salted seed and returns the raw episode with its per-tick
/// KPI series — a fresh, *unlabeled* serving window of the kind a
/// drift alert flags, ready for
/// [`crate::adapt::ShadowRetrainer::label_episode`].
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_fresh_episode(
    config: &TrainingConfig,
    opts: &TrainingOptions,
    salt: u64,
) -> Result<crate::adapt::EpisodeRun, Error> {
    let layout = RawLayout::from_catalog(&monitorless_metrics::Catalog::standard())?;
    let width = layout.names().len();
    let mut cluster = Cluster::new(vec![NodeSpec::training_server()], opts.seed ^ salt);
    let (app, inst) =
        build_single(&mut cluster, config.service.profile(), config.limits, NodeId(0));
    let profile = config
        .traffic
        .profile(opts.run_seconds, opts.seed ^ salt ^ u64::from(config.id));

    let run_rows = opts.run_seconds as usize;
    let mut collector = Collector::full(cluster.catalog());
    let mut observed = Vec::new();
    let mut builder = MatrixBuilder::with_regions(1, run_rows, width);
    let mut offered_rps = Vec::with_capacity(run_rows);
    let mut throughput_rps = Vec::with_capacity(run_rows);
    let mut failure_fraction = Vec::with_capacity(run_rows);
    let mut rows = 0usize;
    {
        let mut regions = builder.regions_mut();
        let region = regions.next().expect("one region");
        for t in 0..opts.run_seconds {
            let load = profile.intensity(t);
            let report = cluster.step(&[(app, load)]);
            collector.collect_into(report.time, &report.frames, &mut observed);
            let row = &mut region[rows * width..(rows + 1) * width];
            if !observed.iter().any(|o| o.instance_vector_write(inst, row)) {
                continue;
            }
            let kpi = report.kpi(app).expect("app exists");
            rows += 1;
            offered_rps.push(load);
            throughput_rps.push(kpi.throughput_rps);
            failure_fraction.push(kpi.failure_fraction());
        }
    }
    Ok(crate::adapt::EpisodeRun {
        group: config.id,
        raw: builder.finish(&[rows]),
        offered_rps,
        throughput_rps,
        failure_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_25_rows_matching_paper_structure() {
        let t = table1();
        assert_eq!(t.len(), 25);
        assert_eq!(t[0].service, ServiceKind::Solr);
        assert_eq!(t[7].limits.cpu_cores, Some(1.0));
        assert_eq!(t[2].parallel_with, Some(18));
        // Every parallel reference resolves to an existing row.
        for c in &t {
            if let Some(p) = c.parallel_with {
                assert!(t.iter().any(|o| o.id == p), "row {} partner {p}", c.id);
            }
        }
        // Six Solr, four Memcache, fifteen Cassandra rows.
        let solr = t.iter().filter(|c| c.service == ServiceKind::Solr).count();
        let memc = t
            .iter()
            .filter(|c| c.service == ServiceKind::Memcache)
            .count();
        assert_eq!(solr, 6);
        assert_eq!(memc, 4);
        assert_eq!(t.len() - solr - memc, 15);
    }

    #[test]
    fn calibration_finds_knee_for_limited_solr() {
        let config = &table1()[0]; // Solr, 3 cores, sin1000
        let opts = TrainingOptions {
            run_seconds: 50,
            ramp_seconds: 150,
            seed: 1,
            n_jobs: 4,
        };
        let th = calibrate_threshold(config, &opts).unwrap().unwrap();
        // 3 cores / 65 ms = ~46 req/s capacity; the knee is below that.
        assert!(th.upsilon() > 10.0 && th.upsilon() < 60.0, "{}", th.upsilon());
    }

    #[test]
    fn quick_generation_produces_balanced_groups() {
        let opts = TrainingOptions {
            run_seconds: 40,
            ramp_seconds: 120,
            seed: 2,
            n_jobs: 4,
        };
        let data = generate_training_data(&opts).unwrap();
        assert_eq!(data.dataset.n_features(), 1040);
        // 25 configurations × 40 s.
        assert_eq!(data.dataset.len(), 25 * 40);
        assert_eq!(data.dataset.distinct_groups().len(), 25);
        // A meaningful share of samples is saturated (paper: 26%).
        let pos = data.dataset.positive_fraction();
        assert!(pos > 0.05 && pos < 0.7, "positive fraction {pos}");
        // At least some thresholds were calibrated.
        let calibrated = data.thresholds.iter().filter(|(_, t)| t.is_some()).count();
        assert!(calibrated > 15, "only {calibrated} thresholds found");
    }

    #[test]
    fn traffic_specs_build_profiles() {
        for spec in [
            TrafficSpec::Sin1000,
            TrafficSpec::SinNoise1000,
            TrafficSpec::Range {
                lo: 10.0,
                hi: 100.0,
            },
            TrafficSpec::Constant(42.0),
        ] {
            let p = spec.profile(60, 1);
            assert!(p.intensity(30) >= 0.0);
            assert!(!spec.describe().is_empty());
        }
        assert_eq!(TrafficSpec::Constant(42.0).max_rate(), 42.0);
    }
}
