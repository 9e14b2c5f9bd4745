//! The committed perf snapshots: one report type per
//! `results/BENCH_*.json`, listed once. Each gate binary writes its
//! type and gates a fresh run against the committed file parsed into
//! it; `check_snapshots` parses every committed file into its type.

use monitorless::autoscale::bakeoff::CellOutcome;
use monitorless_std::json::{FromJson, ToJson};

/// Declares a report struct with public fields and its JSON encoding
/// from one field list; the JSON keys keep the declaration order.
macro_rules! report {
    ($(#[$doc:meta])* $name:ident { $($(#[$field_doc:meta])* $field:ident: $ty:ty,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$field_doc])* pub $field: $ty,)+
        }

        monitorless_std::json_struct!($name { $($field),+ });
    };
}

/// A report committed as `results/<FILE>`.
pub trait Snapshot: ToJson + FromJson {
    /// File name under `results/`.
    const FILE: &'static str;
    /// Key of the row array: `sizes` for the timing sweeps, `cells` for
    /// the bake-off matrix.
    const ROWS: &'static str;
    /// Rows the committed sweep carries at least.
    const MIN_ROWS: usize;
}

/// `BENCH_table3.json`, written by `table3_treefit`.
pub mod table3 {
    use super::*;

    report! {
        /// One dataset size's forest-fit measurement.
        SizeResult {
            rows: usize,
            cols: usize,
            n_trees: usize,
            legacy_ms: f64,
            presorted_ms: f64,
            speedup: f64,
        }
    }

    report! {
        /// Grid-search scaling measurement (candidates x folds on worker threads).
        GridResult {
            candidates: usize,
            folds: usize,
            jobs1_ms: f64,
            jobs4_ms: f64,
            parallel_speedup: f64,
            worker_utilization: f64,
        }
    }

    report! {
        /// The whole snapshot.
        BenchReport {
            scale: String,
            seed: u64,
            sizes: Vec<SizeResult>,
            grid: GridResult,
        }
    }

    impl Snapshot for BenchReport {
        const FILE: &'static str = "BENCH_table3.json";
        const ROWS: &'static str = "sizes";
        const MIN_ROWS: usize = 3;
    }
}

/// `BENCH_predict.json`, written by `table7_predict`.
pub mod predict {
    use super::*;

    report! {
        /// One matrix size's batched-predict measurement.
        SizeResult {
            rows: usize,
            cols: usize,
            n_trees: usize,
            n_nodes: usize,
            legacy_ms: f64,
            flat_ms: f64,
            flat_par_ms: f64,
            compile_ms: f64,
            speedup: f64,
        }
    }

    report! {
        /// Single-row autoscaler-tick latency (microseconds per tick).
        TickResult {
            legacy_us: f64,
            flat_us: f64,
            legacy_allocs_per_tick: f64,
            flat_allocs_per_tick: f64,
        }
    }

    report! {
        /// The whole snapshot.
        BenchReport {
            scale: String,
            seed: u64,
            sizes: Vec<SizeResult>,
            tick: TickResult,
        }
    }

    impl Snapshot for BenchReport {
        const FILE: &'static str = "BENCH_predict.json";
        const ROWS: &'static str = "sizes";
        const MIN_ROWS: usize = 4;
    }
}

/// `BENCH_featurize.json`, written by `table1_featurize`.
pub mod featurize {
    use super::*;

    report! {
        /// One matrix size's batch-transform measurement.
        SizeResult {
            rows: usize,
            raw_width: usize,
            out_width: usize,
            groups: usize,
            legacy_ms: f64,
            streaming_ms: f64,
            speedup: f64,
        }
    }

    report! {
        /// Online per-instance tick latency (microseconds per push).
        TickResult {
            instances: usize,
            legacy_us: f64,
            streaming_us: f64,
            legacy_allocs_per_push: f64,
            streaming_allocs_per_push: f64,
        }
    }

    report! {
        /// The whole snapshot.
        BenchReport {
            scale: String,
            seed: u64,
            sizes: Vec<SizeResult>,
            tick: TickResult,
        }
    }

    impl Snapshot for BenchReport {
        const FILE: &'static str = "BENCH_featurize.json";
        const ROWS: &'static str = "sizes";
        const MIN_ROWS: usize = 3;
    }
}

/// `BENCH_obs.json`, written by `table_obs`.
pub mod obs {
    use super::*;

    report! {
        /// One matrix size's serving-path measurement.
        SizeResult {
            rows: usize,
            cols: usize,
            n_trees: usize,
            n_nodes: usize,
            /// `predict_row` loop, tracing off (ms for the whole matrix).
            plain_ms: f64,
            /// `predict_row` plus one ring-journal record per row (ms).
            traced_ms: f64,
            /// `predict_row_attributed` loop, reused contribution buffer (ms).
            attributed_ms: f64,
            /// Same-run `(traced - plain) / plain`, in percent: the cost of the
            /// audit trail with attribution off.
            journal_overhead_pct: f64,
            /// Same-run `attributed / plain` ratio.
            attribution_ratio: f64,
            /// Allocation events per row in the plain loop (must be 0).
            plain_allocs_per_row: f64,
        }
    }

    report! {
        /// Raw journal append throughput.
        JournalResult {
            /// Microseconds per `obs::record` append in ring mode.
            record_us: f64,
            /// Microseconds per `obs::record` call with tracing off (the no-op
            /// guard everyone pays in production defaults).
            record_off_us: f64,
            /// Records appended in the micro-section.
            appended: f64,
            /// Records still in the ring afterwards (capacity bound).
            queued: f64,
            /// Records evicted by overwrite (appended beyond capacity).
            overwritten: f64,
        }
    }

    report! {
        /// The whole snapshot.
        BenchReport {
            scale: String,
            seed: u64,
            sizes: Vec<SizeResult>,
            journal: JournalResult,
        }
    }

    impl Snapshot for BenchReport {
        const FILE: &'static str = "BENCH_obs.json";
        const ROWS: &'static str = "sizes";
        const MIN_ROWS: usize = 2;
    }
}

/// `BENCH_tick.json`, written by `table_tick`.
pub mod tick {
    use super::*;

    report! {
        /// One fleet size's interleaved measurement.
        SizeResult {
            instances: usize,
            measured_ticks: usize,
            legacy_us_per_instance: f64,
            batched_us_per_instance: f64,
            batched_par_us_per_instance: f64,
            speedup: f64,
            batched_allocs_per_tick: f64,
        }
    }

    report! {
        /// The whole snapshot.
        BenchReport {
            scale: String,
            seed: u64,
            n_trees: usize,
            n_nodes: usize,
            feature_width: usize,
            packed: bool,
            walk_bytes: usize,
            sizes: Vec<SizeResult>,
        }
    }

    impl Snapshot for BenchReport {
        const FILE: &'static str = "BENCH_tick.json";
        const ROWS: &'static str = "sizes";
        const MIN_ROWS: usize = 3;
    }
}

/// `BENCH_sim.json`, written by `table_sim`.
pub mod sim {
    use super::*;

    report! {
        /// One fleet size's interleaved measurement.
        SizeResult {
            nodes: usize,
            containers: usize,
            measured_ticks: usize,
            dense_ms_per_tick: f64,
            event_ms_per_tick: f64,
            event_par_ms_per_tick: f64,
            /// Simulated seconds per wall-clock second at 1 Hz monitoring.
            dense_sim_per_wall: f64,
            event_sim_per_wall: f64,
            speedup: f64,
            event_us_per_container_second: f64,
            evals_per_tick: f64,
            cached_per_tick: f64,
            event_allocs_per_tick: f64,
        }
    }

    report! {
        /// The whole snapshot.
        BenchReport {
            scale: String,
            seed: u64,
            monitor_hz: f64,
            par_jobs: usize,
            sizes: Vec<SizeResult>,
        }
    }

    impl Snapshot for BenchReport {
        const FILE: &'static str = "BENCH_sim.json";
        const ROWS: &'static str = "sizes";
        const MIN_ROWS: usize = 3;
    }
}

/// `BENCH_train.json`, written by `table_train`.
pub mod train {
    use super::*;

    report! {
        /// One phase's measurement. `fast_allocs` is the fast path's heap
        /// allocation count where the phase carries a 0-alloc contract
        /// (assembly) and 0 elsewhere; `identical` is 1.0 iff the phase's
        /// bit-identity assertion ran and passed this run.
        PhaseResult {
            phase: String,
            rows: usize,
            baseline_ms: f64,
            fast_ms: f64,
            speedup: f64,
            fast_allocs: f64,
            identical: f64,
        }
    }

    report! {
        /// The whole snapshot.
        BenchReport {
            scale: String,
            seed: u64,
            /// Hardware threads the measuring host reported; the generation
            /// speedup gate only arms at >= 4.
            workers: usize,
            sizes: Vec<PhaseResult>,
        }
    }

    impl Snapshot for BenchReport {
        const FILE: &'static str = "BENCH_train.json";
        const ROWS: &'static str = "sizes";
        const MIN_ROWS: usize = 4;
    }
}

/// `BENCH_bakeoff.json`, written by `table_bakeoff`.
pub mod bakeoff {
    use super::*;

    report! {
        /// The whole snapshot: one row per backend × scenario cell.
        BenchReport {
            scale: String,
            seed: u64,
            slo_ms: f64,
            capacity_rps: f64,
            cells: Vec<CellOutcome>,
        }
    }

    impl Snapshot for BenchReport {
        const FILE: &'static str = "BENCH_bakeoff.json";
        const ROWS: &'static str = "cells";
        const MIN_ROWS: usize = 12;
    }
}
