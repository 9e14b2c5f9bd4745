//! Regenerates Table 3: training time, per-sample classification time
//! and F1₂ on the first validation set (the three-tier application) for
//! all six classifiers. Stdout holds the algorithm and F1₂ columns,
//! identical across runs at one seed; the two timing columns, which
//! move from run to run, go to stderr.
//!
//! ```sh
//! cargo run -p monitorless-bench --bin table3_algorithms --release [-- --full]
//! ```

use monitorless::experiments::table2::GridScale;
use monitorless::experiments::table3;
use monitorless::features::PipelineConfig;
use monitorless_bench::{telemetry_report, training_data, Scale};

fn main() {
    let scale = Scale::from_args();
    let data = training_data(&scale);
    let pipeline_cfg = if scale.full {
        PipelineConfig::paper_default()
    } else {
        PipelineConfig::quick()
    };
    let rows = table3::run(
        &data,
        pipeline_cfg,
        &scale.eval_options(0x33),
        if scale.full {
            GridScale::Full
        } else {
            GridScale::Quick
        },
    )
    .expect("table 3 harness");
    println!("Table 3 — classifier comparison (validation: three-tier app)\n");
    print!("{}", table3::format(&rows));
    println!("\n(paper: Random Forest wins with F1_2 = 0.997; tree ensembles lead)");
    eprint!("{}", table3::format_times(&rows));
    telemetry_report("table3_algorithms");
}
