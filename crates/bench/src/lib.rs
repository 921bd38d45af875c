//! Shared fixtures for the Criterion benches.
//!
//! The benches are organized as:
//!
//! * `pipeline` — throughput of each pipeline stage (allocation, mapping
//!   per strategy, simulation) plus the end-to-end [`rats::Pipeline`] run;
//! * `maxmin` — the max-min fairness solver under growing flow counts;
//! * `redistribution` — block-redistribution matrix construction,
//!   alignment and estimation;
//! * `artifacts` — one benchmark per paper table/figure, regenerating a
//!   quick-scale version of each artifact end to end;
//! * `ablation` — cost of the design alternatives documented on the
//!   `rats-sched` knobs (candidate policies, area policies,
//!   comm-inclusive critical path).

use rats::Pipeline;
use rats_dag::TaskGraph;
use rats_daggen::{fft_dag, irregular_dag, DagParams};
use rats_model::CostParams;
use rats_platform::{ClusterSpec, Platform};

/// The paper's mid-size cluster (47 processors), used by most benches.
pub fn grillon() -> Platform {
    Platform::from_spec(&ClusterSpec::grillon())
}

/// A full pipeline on grillon with the paper's default policy chain.
pub fn grillon_pipeline() -> Pipeline {
    Pipeline::from_spec(&ClusterSpec::grillon())
}

/// A 95-task FFT graph with paper-scale costs.
pub fn fft16() -> TaskGraph {
    fft_dag(16, &CostParams::paper(), 0xBEEF)
}

/// A 50-task irregular graph with paper-scale costs.
pub fn irregular50() -> TaskGraph {
    irregular_dag(
        &DagParams {
            n: 50,
            width: 0.5,
            regularity: 0.5,
            density: 0.5,
            jump: 2,
        },
        &CostParams::paper(),
        0xF00D,
    )
}
