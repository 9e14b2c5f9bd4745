//! The Section 4.2.2 autoscaling loop.
//!
//! On a saturation signal the orchestrator scales out; replicas live for
//! 120 seconds and are then scaled in again (avoiding endless
//! out-scaling). For the Table 7 comparison every policy is tied to
//! scaling the Recommender and Auth services together, and SLO
//! violations are counted per second: average response time above
//! 750 ms, any dropped request, or more than 10% failed requests.
//!
//! Beyond the paper's Table 7 loop, [`backend`] defines the
//! [`backend::ScalingBackend`] trait with reactive (HPA-style),
//! predictive (trend-extrapolating) and Monitorless model-driven
//! implementations, and [`bakeoff`] drives any backend through the
//! event-driven simulator against the hostile scenario pack in
//! `monitorless_workload::scenario`.

pub mod backend;
pub mod bakeoff;

use std::borrow::Cow;
use std::sync::Arc;

use monitorless_metrics::{InstanceId, NodeId};
use monitorless_obs as obs;
use monitorless_workload::LoadProfile;

use crate::baselines::ThresholdBaseline;
use crate::model::MonitorlessModel;
use crate::orchestrator::Orchestrator;
use crate::Error;
use monitorless_sim::apps::{build_sockshop, build_teastore};
use monitorless_sim::{Cluster, NodeSpec};

/// A scaling policy under comparison.
#[derive(Debug)]
pub enum Policy {
    /// Never scale (the worst-case reference).
    NoScaling,
    /// Monitorless predictions drive scaling.
    Monitorless(Arc<MonitorlessModel>),
    /// A static-threshold detector drives scaling.
    Threshold(ThresholdBaseline),
    /// The response-time (optimal) autoscaler: scales when the measured
    /// end-to-end response time exceeds the threshold.
    RtBased {
        /// RT trigger in milliseconds.
        rt_threshold_ms: f64,
    },
}

impl Policy {
    /// Display name matching Table 7.
    ///
    /// Borrowed for every variant except `Threshold`, whose name embeds
    /// the baseline kind — callers that label per-tick journal records
    /// should hoist the name out of the loop rather than re-format it
    /// every second.
    pub fn name(&self) -> Cow<'static, str> {
        match self {
            Policy::NoScaling => Cow::Borrowed("No Scaling (baseline)"),
            Policy::Monitorless(_) => Cow::Borrowed("monitorless"),
            Policy::Threshold(b) => Cow::Owned(format!("A-posteriori {}", b.kind)),
            Policy::RtBased { .. } => Cow::Borrowed("RT-based (optimal)"),
        }
    }
}

/// Options for [`run_teastore_autoscale`].
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleOptions {
    /// Run length in seconds.
    pub duration: u64,
    /// Replica lifespan in seconds (paper: 120).
    pub replica_lifespan: u64,
    /// SLO response-time limit in milliseconds (paper: 750).
    pub rt_slo_ms: f64,
    /// Background Sockshop load (req/s) for multi-tenant interference.
    pub background_rps: f64,
    /// Simulation seed.
    pub seed: u64,
}

impl AutoscaleOptions {
    /// Laptop-scale defaults.
    pub fn quick(seed: u64) -> Self {
        AutoscaleOptions {
            duration: 600,
            replica_lifespan: 120,
            rt_slo_ms: 750.0,
            background_rps: 80.0,
            seed,
        }
    }
}

/// Outcome of one autoscaling run (a Table 7 row).
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleResult {
    /// Policy name.
    pub policy: String,
    /// Average extra provisioning relative to the unscaled deployment,
    /// in percent.
    pub provisioning_pct: f64,
    /// Number of seconds violating the SLO.
    pub slo_violations: usize,
    /// Number of scale-out events.
    pub scale_out_events: usize,
    /// Run length in seconds.
    pub ticks: u64,
}

/// The services every policy is allowed to scale (Section 4.2.2 ties all
/// approaches to scaling Recommender and Auth together).
pub const SCALED_SERVICES: [&str; 2] = ["recommender", "auth"];

/// Runs the TeaStore autoscaling scenario under `policy` with the given
/// TeaStore load profile.
///
/// # Errors
///
/// Propagates orchestrator errors.
pub fn run_teastore_autoscale(
    policy: &mut Policy,
    profile: &dyn LoadProfile,
    opts: &AutoscaleOptions,
) -> Result<AutoscaleResult, Error> {
    let mut cluster = Cluster::new(vec![NodeSpec::m1(), NodeSpec::m2(), NodeSpec::m3()], opts.seed);
    let tea = build_teastore(&mut cluster, NodeId(0), NodeId(1), NodeId(2));
    let sock = build_sockshop(&mut cluster, NodeId(0), NodeId(1), NodeId(2));
    let baseline_containers = cluster.app(tea).instances().len() as f64;

    let mut orchestrator = match policy {
        Policy::Monitorless(model) => Some(Orchestrator::new(Arc::clone(model))),
        _ => None,
    };

    // Hoisted: the journal labels every per-tick decision record with
    // the policy name; formatting it inside the loop would allocate
    // every second for the Threshold variant.
    let policy_name = policy.name();

    // Active replicas: (instance, expiry-time).
    let mut replicas: Vec<(InstanceId, u64)> = Vec::new();
    let mut slo_violations = 0usize;
    let mut scale_out_events = 0usize;
    let mut provisioning_acc = 0.0;

    for t in 0..opts.duration {
        let load = profile.intensity(t);
        let report = cluster.step(&[(tea, load), (sock, opts.background_rps)]);

        // --- SLO accounting ---
        let kpi = report.kpi(tea).expect("teastore exists");
        if kpi.violates_slo(opts.rt_slo_ms) {
            slo_violations += 1;
            obs::counter_add("autoscale.slo_violations", 1);
        }
        let current = cluster.app(tea).instances().len() as f64;
        provisioning_acc += (current - baseline_containers) / baseline_containers;

        // --- detection ---
        let triggered = match policy {
            Policy::NoScaling => false,
            Policy::RtBased { rt_threshold_ms } => kpi.response_ms > *rt_threshold_ms,
            Policy::Threshold(baseline) => {
                // Flag when any instance of the scaled services crosses
                // the thresholds, using relative container utilizations.
                let mut flagged = false;
                for service in SCALED_SERVICES {
                    for inst in cluster.app(tea).instances_of(service) {
                        if let Some(tick) = report.container(inst) {
                            let util =
                                (tick.signals.cpu_util * 100.0, tick.signals.mem_util * 100.0);
                            flagged |= baseline.instance_saturated(util);
                        }
                    }
                }
                flagged
            }
            Policy::Monitorless(_) => {
                let orch = orchestrator.as_mut().expect("created above");
                let preds = orch.step_report(&report)?;
                SCALED_SERVICES.iter().any(|service| {
                    let instances = cluster.app(tea).instances_of(service);
                    preds
                        .iter()
                        .any(|p| instances.contains(&p.instance) && p.saturated == 1)
                })
            }
        };

        // --- scale-in expired replicas ---
        replicas.retain(|&(inst, expiry)| {
            if t >= expiry {
                cluster.scale_in(inst);
                false
            } else {
                true
            }
        });

        // --- scale-out (both tied services together) ---
        if obs::trace_enabled() {
            // Stamp the decision with the prediction tick's trace id so
            // the audit trail joins observation → predict → decision.
            let trace = orchestrator.as_ref().map_or(0, |o| o.last_trace());
            obs::record(
                "autoscale.decision",
                trace,
                &[
                    ("t", t as f64),
                    ("triggered", f64::from(triggered)),
                    ("response_ms", kpi.response_ms),
                    ("containers", cluster.app(tea).instances().len() as f64),
                ],
                &[("policy", policy_name.as_ref())],
            );
        }
        if triggered {
            if replicas.is_empty() {
                for service in SCALED_SERVICES {
                    let inst = cluster.scale_out(tea, service, NodeId(1))?;
                    replicas.push((inst, t + opts.replica_lifespan));
                }
                scale_out_events += 1;
                obs::counter_add("autoscale.scale_out_events", 1);
                if obs::enabled() {
                    obs::event(
                        "autoscale.scale_out",
                        &[
                            ("t", t as f64),
                            ("load", load),
                            ("response_ms", kpi.response_ms),
                            ("containers", cluster.app(tea).instances().len() as f64),
                        ],
                    );
                }
                if obs::trace_enabled() {
                    let trace = orchestrator.as_ref().map_or(0, |o| o.last_trace());
                    obs::record(
                        "autoscale.scale_out",
                        trace,
                        &[
                            ("t", t as f64),
                            ("load", load),
                            ("containers", cluster.app(tea).instances().len() as f64),
                        ],
                        &[],
                    );
                }
            } else {
                // Still saturated: keep the replicas alive.
                for (_, expiry) in &mut replicas {
                    *expiry = t + opts.replica_lifespan;
                }
            }
        }
    }

    Ok(AutoscaleResult {
        policy: policy_name.into_owned(),
        provisioning_pct: 100.0 * provisioning_acc / opts.duration as f64,
        slo_violations,
        scale_out_events,
        ticks: opts.duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use monitorless_workload::DailyPatternProfile;

    fn trace() -> DailyPatternProfile {
        DailyPatternProfile::new(80.0, 500.0, 200, 400, 3)
    }

    fn opts() -> AutoscaleOptions {
        AutoscaleOptions {
            duration: 400,
            replica_lifespan: 120,
            rt_slo_ms: 750.0,
            background_rps: 60.0,
            seed: 13,
        }
    }

    #[test]
    fn no_scaling_has_zero_provisioning_and_most_violations() {
        let mut policy = Policy::NoScaling;
        let r = run_teastore_autoscale(&mut policy, &trace(), &opts()).unwrap();
        assert_eq!(r.provisioning_pct, 0.0);
        assert_eq!(r.scale_out_events, 0);
        assert!(r.slo_violations > 0, "the trace must stress the store");
    }

    #[test]
    fn rt_based_scaling_reduces_violations() {
        let mut none = Policy::NoScaling;
        let baseline = run_teastore_autoscale(&mut none, &trace(), &opts()).unwrap();
        let mut rt = Policy::RtBased {
            rt_threshold_ms: 500.0,
        };
        let scaled = run_teastore_autoscale(&mut rt, &trace(), &opts()).unwrap();
        assert!(scaled.slo_violations < baseline.slo_violations);
        assert!(scaled.provisioning_pct > 0.0);
        assert!(scaled.scale_out_events > 0);
    }

    #[test]
    fn threshold_policy_scales_on_cpu() {
        let mut policy = Policy::Threshold(ThresholdBaseline {
            kind: crate::baselines::BaselineKind::Cpu,
            cpu_threshold: 90.0,
            mem_threshold: 100.0,
        });
        let r = run_teastore_autoscale(&mut policy, &trace(), &opts()).unwrap();
        assert!(r.scale_out_events > 0);
        assert!(r.provisioning_pct > 0.0);
    }

    #[test]
    fn policy_names_match_table7() {
        assert_eq!(Policy::NoScaling.name(), "No Scaling (baseline)");
        assert!(Policy::RtBased {
            rt_threshold_ms: 1.0
        }
        .name()
        .contains("optimal"));
    }
}
