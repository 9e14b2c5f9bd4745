//! Quickstart: train a monitorless model and detect saturation in a
//! service it has never seen — without touching application KPIs at
//! inference time.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

use std::sync::Arc;

use monitorless::model::{ModelOptions, MonitorlessModel};
use monitorless::orchestrator::{Aggregation, Orchestrator};
use monitorless::training::{generate_training_data, TrainingOptions};
use monitorless_metrics::NodeId;
use monitorless_sim::apps::{build_single, solr_profile};
use monitorless_sim::{Cluster, ContainerLimits, NodeSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate labeled training data from the paper's 25 training
    //    configurations (Solr / Memcache / Cassandra under different
    //    limits and traffic; Table 1).
    println!("generating training data (25 configurations)...");
    let data = generate_training_data(&TrainingOptions::quick(7))?;
    println!(
        "  {} samples, {} raw metrics, {:.0}% saturated",
        data.dataset.len(),
        data.dataset.n_features(),
        100.0 * data.dataset.positive_fraction()
    );

    // 2. Train the model: feature pipeline (binary levels, log scaling,
    //    normalization, forest filtering, time and product features) +
    //    random forest with the paper's 0.4 decision threshold.
    println!("training the monitorless model...");
    let model = Arc::new(MonitorlessModel::train(&data, &ModelOptions::quick())?);
    println!(
        "  pipeline: {} model features; forest: {} trees",
        model.pipeline().output_width(),
        model.forest().trees().len()
    );

    // 3. Deploy an *unseen* configuration and watch it saturate.
    let mut cluster = Cluster::new(vec![NodeSpec::training_server()], 99);
    let (app, _instance) = build_single(
        &mut cluster,
        solr_profile(),
        ContainerLimits::cpu(2.0), // ~30 req/s capacity
        NodeId(0),
    );
    let mut orchestrator = Orchestrator::new(Arc::clone(&model));

    println!("\n  t  offered  throughput  rt_ms  predicted");
    for t in 0..60u64 {
        // Ramp right through the knee.
        let offered = 2.0 + t as f64;
        let report = cluster.step(&[(app, offered)]);
        let kpi = report.kpi(app).expect("app exists");
        let predictions = orchestrator.step_report(&report)?;
        let saturated = Orchestrator::application_prediction(
            predictions,
            cluster.app(app).instances(),
            Aggregation::Or,
        );
        if t % 5 == 0 || saturated == 1 {
            println!(
                "{:>3}  {:>7.1}  {:>10.1}  {:>5.0}  {}",
                t,
                offered,
                kpi.throughput_rps,
                kpi.response_ms,
                if saturated == 1 { "SATURATED" } else { "ok" }
            );
        }
    }
    Ok(())
}
