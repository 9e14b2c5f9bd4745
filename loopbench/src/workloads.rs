//! The workloads' inputs, generated from the seed alone.

use monitorless::training::{table1, TrainingConfig};
use monitorless_metrics::NodeId;
use monitorless_std::rng::{Rng, StdRng};
use monitorless_workload::scenario::Scenario;
use monitorless_workload::trace::TraceInterp;
use monitorless_workload::{LoadProfile, SteppedProfile, TraceProfile};

use crate::closed_loop::{AppSpec, EpisodeSpec, WARMUP_TICKS};

/// `fleet_1k`: applications, one per node.
pub const FLEET_APPS: usize = 100;
/// Offered load range of a `fleet_1k` application, req/s; one instance
/// serves ~100.
const LOAD_LO: f64 = 350.0;
const LOAD_HI: f64 = 1050.0;
/// Initial instances per 100 req/s of an application's initial load:
/// sized to it, so the episode starts near its steady state with ~10
/// instances per application.
const INITIAL_PER_100_RPS: f64 = 1.2;
/// Timed ticks of one `fleet_1k` episode, after the warm-up: enough
/// for a p99 with ten samples beyond it.
pub const FLEET_TICKS: u64 = 1000;

/// The `fleet_1k` episode: ~100 nodes × 10 containers, one
/// single-service application per node with its own seeded load. Even
/// applications follow a linearly interpolated trace, whose load moves
/// every second; odd ones follow a stepped profile, whose load holds
/// between steps so settled containers can hit the simulator's
/// fixed-point cache.
pub fn fleet(seed: u64) -> EpisodeSpec {
    let duration = WARMUP_TICKS + FLEET_TICKS;
    let apps = (0..FLEET_APPS)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xF1EE_7000 + i as u64));
            let profile: Box<dyn LoadProfile> = if i % 2 == 0 {
                let mut points = Vec::new();
                let mut t = 0u64;
                while t <= duration {
                    points.push((t, rng.gen_range(LOAD_LO..LOAD_HI)));
                    t += rng.gen_range(30u64..120);
                }
                Box::new(TraceProfile::new(points, TraceInterp::Linear))
            } else {
                let levels = (0..20).map(|_| rng.gen_range(LOAD_LO..LOAD_HI)).collect();
                Box::new(SteppedProfile::new(levels, rng.gen_range(60u64..180)))
            };
            let initial = (profile.intensity(0) / 100.0 * INITIAL_PER_100_RPS).ceil() as u32;
            AppSpec {
                name: format!("app{i}"),
                profile,
                initial: initial.clamp(2, 16),
                ring: vec![NodeId(i as u32)],
                min: 2,
                max: 16,
                cold_start_s: 15,
            }
        })
        .collect();
    EpisodeSpec {
        name: "fleet_1k".into(),
        nodes: FLEET_APPS,
        seed,
        duration,
        apps,
    }
}

/// Hostile packs per `hostile_pack` pass: the seed's own and two more
/// derived from it, so one run's figures average over three draws of
/// each scenario.
pub const PACKS: u64 = 3;

/// `hostile_pack`: [`PACKS`] draws of the four full-length hostile
/// scenarios, each a one-application episode shaped exactly like a
/// bake-off cell, with the pack seed it was drawn with.
pub fn hostile(seed: u64) -> Vec<(Scenario, EpisodeSpec)> {
    (0..PACKS).flat_map(|j| pack(seed ^ (j << 40))).collect()
}

fn pack(seed: u64) -> Vec<(Scenario, EpisodeSpec)> {
    Scenario::pack(seed, false)
        .into_iter()
        .map(|sc| {
            let spec = EpisodeSpec {
                name: sc.name.to_string(),
                nodes: 3,
                seed,
                duration: sc.duration,
                apps: vec![AppSpec {
                    name: "bakeoff".into(),
                    profile: sc.profile_box(),
                    initial: 1,
                    ring: (0..3).map(NodeId).collect(),
                    min: sc.min_instances,
                    max: sc.max_instances,
                    cold_start_s: sc.cold_start_s,
                }],
            };
            (sc, spec)
        })
        .collect()
}

/// Retrainers per `retrain` pass. The first is seeded with the set-up
/// model and its training data; the others with the same model and the
/// training data of seeds derived from it, so one run's round times
/// average over several training sets.
pub const RETRAIN_CHAINS: usize = 3;
/// Rounds each retrainer runs per pass: its cache grows by one episode
/// per round.
pub const CHAIN_ROUNDS: usize = 4;
/// Retrain rounds per pass.
pub const RETRAIN_ROUNDS: usize = RETRAIN_CHAINS * CHAIN_ROUNDS;

/// The training-data seed of retrainer `chain`.
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    seed ^ ((chain as u64) << 40)
}

/// The configuration and seed salt of retrain round `k`'s fresh
/// episode: the training configurations in turn.
pub fn retrain_episode(k: usize) -> (TrainingConfig, u64) {
    let configs = table1();
    (configs[k % configs.len()].clone(), 0xF00D + k as u64)
}

/// The configuration and salt of the fixed held-out episode.
pub fn holdout_episode() -> (TrainingConfig, u64) {
    (table1()[3].clone(), 0xBEEF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use monitorless::training::{run_fresh_episode, TrainingOptions};

    fn load_digest(profile: &dyn LoadProfile, duration: u64) -> Vec<u64> {
        (0..duration)
            .map(|t| profile.intensity(t).to_bits())
            .collect()
    }

    #[test]
    fn the_seed_reaches_every_workloads_inputs() {
        let loads = |seed| -> Vec<Vec<u64>> {
            let spec = fleet(seed);
            spec.apps
                .iter()
                .map(|a| load_digest(a.profile.as_ref(), spec.duration))
                .collect()
        };
        assert_eq!(loads(1), loads(1));
        let (a, b) = (loads(1), loads(2));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y), "every fleet app's load moves");

        let packs = |seed| -> Vec<Vec<u64>> {
            hostile(seed)
                .iter()
                .map(|(sc, spec)| load_digest(spec.apps[0].profile.as_ref(), sc.duration))
                .collect()
        };
        assert_eq!(packs(1), packs(1));
        let (a, b) = (packs(1), packs(2));
        assert_eq!(a.len(), 4 * PACKS as usize);
        // The slow ramp is seed-free by design; the other three move.
        assert_eq!(a.iter().zip(&b).filter(|(x, y)| x != y).count(), 3 * PACKS as usize);

        let episode = |seed, (config, salt): (TrainingConfig, u64)| {
            let opts = TrainingOptions {
                n_jobs: 1,
                ..TrainingOptions::quick(seed)
            };
            let run = run_fresh_episode(&config, &opts, salt).expect("episode runs");
            run.raw
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(episode(1, retrain_episode(3)), episode(1, retrain_episode(3)));
        assert_ne!(episode(1, retrain_episode(3)), episode(2, retrain_episode(3)));
        assert_ne!(episode(1, retrain_episode(3)), episode(1, retrain_episode(4)));
        assert_ne!(episode(1, holdout_episode()), episode(2, holdout_episode()));

        // Retrainer training sets: the first is the set-up's own.
        assert_eq!(chain_seed(5, 0), 5);
        assert_ne!(chain_seed(5, 1), chain_seed(6, 1));
        assert_ne!(chain_seed(5, 1), chain_seed(5, 2));
    }
}
