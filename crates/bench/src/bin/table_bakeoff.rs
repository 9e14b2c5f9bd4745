//! Autoscaler bake-off: every scaling backend × every hostile
//! scenario, head to head on the event-driven simulator.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table_bakeoff --release [-- --full]
//! ```
//!
//! Rows are backend × scenario cells from
//! `monitorless::autoscale::bakeoff::run_cell`: SLO-violation seconds,
//! over-provisioned instance-seconds, scaling lag (p50/p99 of
//! request-to-capacity episodes), cold-start count and oscillation
//! flips. The default quick scale runs the short scenario pack;
//! `--full` runs the hour-long variants with the paper-scale model.
//!
//! Unlike the timing benches this matrix is *behavioral*: a cell is a
//! pure function of `(seed, scale)`, so the committed
//! `results/BENCH_bakeoff.json` (quick scale — exactly what CI
//! replays) is reproducible, not a measurement with noise.
//!
//! `--check <path>` re-runs the matrix at the current scale and fails
//! when (a) the Monitorless backend no longer beats the reactive
//! threshold on at least two scenarios — fewer SLO-violation seconds
//! at equal-or-lower over-provisioned instance-seconds — in either the
//! fresh run or the committed snapshot, or (b) same-scale cells
//! drifted grossly from the committed baseline (beyond small
//! cross-platform float slack).

use std::sync::Arc;

use monitorless::autoscale::backend::{
    MonitorlessScaler, PredictiveTrend, ReactiveThreshold, ScalingBackend,
};
use monitorless::autoscale::bakeoff::{run_cell, BakeoffOptions, CellOutcome};
use monitorless::model::MonitorlessModel;
use monitorless_bench::harness::Harness;
use monitorless_bench::snapshot::bakeoff::BenchReport;
use monitorless_bench::{trained_model, Scale};
use monitorless_obs as obs;
use monitorless_workload::scenario::Scenario;

/// Fresh backend instances, in report order.
fn backends(model: &Arc<MonitorlessModel>) -> Vec<Box<dyn ScalingBackend>> {
    vec![
        Box::new(ReactiveThreshold::hpa_cpu()),
        Box::new(PredictiveTrend::with_horizon(30)),
        Box::new(MonitorlessScaler::with_threshold(model.threshold())),
    ]
}

fn run_matrix(scale: &Scale, model: &Arc<MonitorlessModel>) -> BenchReport {
    let opts = BakeoffOptions::standard(scale.seed);
    let scenarios = Scenario::pack(scale.seed, !scale.full);
    let mut cells = Vec::new();
    for scenario in &scenarios {
        for mut backend in backends(model) {
            let cell =
                run_cell(backend.as_mut(), scenario, model, &opts).expect("bake-off cell runs");
            obs::progress(&format!(
                "{:<20} {:<18} slo {:>5} s  over {:>8.0} inst-s  lag p99 {:>4.0} s  \
                 flips {:>3}  cold {:>3}",
                cell.scenario,
                cell.backend,
                cell.slo_violation_s,
                cell.overprovision_inst_s,
                cell.lag_p99_s,
                cell.flips,
                cell.cold_starts,
            ));
            cells.push(cell);
        }
    }
    BenchReport {
        scale: scale.label().into(),
        seed: scale.seed,
        slo_ms: opts.slo_ms,
        capacity_rps: opts.capacity_rps(),
        cells,
    }
}

fn cell<'r>(report: &'r BenchReport, backend: &str, scenario: &str) -> Option<&'r CellOutcome> {
    report
        .cells
        .iter()
        .find(|c| c.backend == backend && c.scenario == scenario)
}

/// Scenarios where `monitorless` strictly beats `reactive_threshold`
/// on SLO-violation seconds at equal-or-lower over-provisioning.
fn monitorless_wins(report: &BenchReport) -> Vec<String> {
    let mut wins = Vec::new();
    let mut scenarios: Vec<&str> = report.cells.iter().map(|c| c.scenario.as_str()).collect();
    scenarios.dedup();
    for scenario in scenarios {
        let (Some(mono), Some(reactive)) =
            (cell(report, "monitorless", scenario), cell(report, "reactive_threshold", scenario))
        else {
            continue;
        };
        if mono.slo_violation_s < reactive.slo_violation_s
            && mono.overprovision_inst_s <= reactive.overprovision_inst_s
        {
            wins.push(scenario.to_string());
        }
    }
    wins
}

fn check(report: &BenchReport, committed: &BenchReport) -> Result<(), String> {
    // The headline claim must hold in the committed snapshot AND keep
    // reproducing in the fresh run.
    for (who, rep) in [("committed snapshot", committed), ("fresh run", report)] {
        let wins = monitorless_wins(rep);
        if wins.len() < 2 {
            return Err(format!(
                "{who}: monitorless beats reactive_threshold (fewer SLO-violation seconds at \
                 equal-or-lower over-provisioning) on only {} scenario(s) {:?}; need >= 2",
                wins.len(),
                wins
            ));
        }
    }

    // Same-scale cells are pure functions of the seed: allow only
    // small cross-platform float slack, fail on gross drift.
    if committed.scale == report.scale && committed.seed == report.seed {
        for fresh in &report.cells {
            let Some(base) = cell(committed, &fresh.backend, &fresh.scenario) else {
                return Err(format!(
                    "committed snapshot is missing cell {} x {}",
                    fresh.backend, fresh.scenario
                ));
            };
            let slo_slack = (0.25 * base.slo_violation_s as f64).max(15.0);
            if (fresh.slo_violation_s as f64 - base.slo_violation_s as f64).abs() > slo_slack {
                return Err(format!(
                    "{} x {}: SLO-violation seconds drifted {} -> {} (allowed +-{:.0})",
                    fresh.backend,
                    fresh.scenario,
                    base.slo_violation_s,
                    fresh.slo_violation_s,
                    slo_slack
                ));
            }
            let over_slack = (0.25 * base.overprovision_inst_s).max(30.0);
            if (fresh.overprovision_inst_s - base.overprovision_inst_s).abs() > over_slack {
                return Err(format!(
                    "{} x {}: over-provisioning drifted {:.0} -> {:.0} (allowed +-{:.0})",
                    fresh.backend,
                    fresh.scenario,
                    base.overprovision_inst_s,
                    fresh.overprovision_inst_s,
                    over_slack
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let harness = Harness::start("table_bakeoff");
    let model = trained_model(&harness.scale);
    let report = run_matrix(&harness.scale, &model);
    let wins = monitorless_wins(&report);
    obs::progress(&format!("monitorless wins on {} scenario(s): {:?}", wins.len(), wins));
    harness.finish(&report, check);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> BenchReport {
        monitorless_std::json::from_str(include_str!("../../../../results/BENCH_bakeoff.json"))
            .expect("committed snapshot parses")
    }

    fn cell_mut<'r>(
        report: &'r mut BenchReport,
        backend: &str,
        scenario: &str,
    ) -> &'r mut CellOutcome {
        report
            .cells
            .iter_mut()
            .find(|c| c.backend == backend && c.scenario == scenario)
            .unwrap()
    }

    #[test]
    fn committed_snapshot_wins_exactly_two_scenarios() {
        let base = committed();
        assert_eq!(monitorless_wins(&base), ["scale_to_zero", "flash_crowd"]);
        assert_eq!(check(&base, &base), Ok(()));
    }

    #[test]
    fn a_win_needs_fewer_slo_seconds_at_equal_or_lower_overprovisioning() {
        let base = committed();
        let mut fresh = base.clone();
        // Equal over-provisioning still counts as a win.
        cell_mut(&mut fresh, "monitorless", "scale_to_zero").overprovision_inst_s = 921.0;
        assert_eq!(check(&fresh, &base), Ok(()));
        cell_mut(&mut fresh, "monitorless", "scale_to_zero").overprovision_inst_s =
            921f64.next_up();
        assert!(check(&fresh, &base).unwrap_err().contains("fresh run"));
        // Equal SLO seconds do not.
        let mut fresh = base.clone();
        cell_mut(&mut fresh, "monitorless", "flash_crowd").slo_violation_s = 94;
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("on only 1 scenario"));
        // The committed snapshot is held to the same rule.
        assert!(check(&base, &fresh)
            .unwrap_err()
            .contains("committed snapshot"));
    }

    #[test]
    fn slo_drift_slack_is_a_quarter_or_fifteen_seconds() {
        let base = committed();
        let mut fresh = base.clone();
        // 25% of the committed 164 s is 41 s.
        cell_mut(&mut fresh, "monitorless", "scale_to_zero").slo_violation_s = 164 - 41;
        assert_eq!(check(&fresh, &base), Ok(()));
        cell_mut(&mut fresh, "monitorless", "scale_to_zero").slo_violation_s = 164 - 42;
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("SLO-violation seconds drifted"));
        // A committed 0 s allows the 15 s floor.
        let mut fresh = base.clone();
        cell_mut(&mut fresh, "reactive_threshold", "slow_ramp").slo_violation_s = 15;
        assert_eq!(check(&fresh, &base), Ok(()));
        cell_mut(&mut fresh, "reactive_threshold", "slow_ramp").slo_violation_s = 16;
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("SLO-violation seconds drifted"));
    }

    #[test]
    fn overprovisioning_drift_slack_is_a_quarter_or_thirty_instance_seconds() {
        let mut base = committed();
        let mut fresh = base.clone();
        // 25% of the committed 1571 inst-s.
        let over = cell_mut(&mut fresh, "predictive_trend", "diurnal_trace");
        over.overprovision_inst_s = 1571.0 + 0.25 * 1571.0;
        assert_eq!(check(&fresh, &base), Ok(()));
        let over = cell_mut(&mut fresh, "predictive_trend", "diurnal_trace");
        over.overprovision_inst_s = over.overprovision_inst_s.next_up();
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("over-provisioning drifted"));
        // Below 120 inst-s the 30 inst-s floor applies.
        cell_mut(&mut base, "predictive_trend", "diurnal_trace").overprovision_inst_s = 100.0;
        cell_mut(&mut fresh, "predictive_trend", "diurnal_trace").overprovision_inst_s = 130.0;
        assert_eq!(check(&fresh, &base), Ok(()));
        cell_mut(&mut fresh, "predictive_trend", "diurnal_trace").overprovision_inst_s =
            130f64.next_up();
        assert!(check(&fresh, &base)
            .unwrap_err()
            .contains("over-provisioning drifted"));
    }

    #[test]
    fn drift_is_only_compared_at_the_same_scale_and_seed() {
        let base = committed();
        let mut fresh = base.clone();
        cell_mut(&mut fresh, "predictive_trend", "slow_ramp").slo_violation_s = 500;
        fresh.seed += 1;
        assert_eq!(check(&fresh, &base), Ok(()));
        fresh.seed = base.seed;
        fresh.scale = "full".into();
        assert_eq!(check(&fresh, &base), Ok(()));
    }

    #[test]
    fn a_cell_missing_from_the_committed_snapshot_fails() {
        let mut base = committed();
        let fresh = base.clone();
        base.cells
            .retain(|c| !(c.backend == "predictive_trend" && c.scenario == "slow_ramp"));
        assert!(check(&fresh, &base).unwrap_err().contains("missing cell"));
    }
}
