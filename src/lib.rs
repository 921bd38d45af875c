//! # rats — Redistribution Aware Two-Step Scheduling
//!
//! A from-scratch Rust reproduction of Hunold, Rauber and Suter,
//! *"Redistribution Aware Two-Step Scheduling for Mixed-Parallel
//! Applications"* (IEEE CLUSTER 2008).
//!
//! This umbrella crate adds the [`Pipeline`] façade over the subsystem
//! crates and re-exports their public APIs:
//!
//! * [`model`] — Amdahl speedup and task cost model,
//! * [`dag`] — mixed-parallel task graphs,
//! * [`platform`] — homogeneous cluster and network topology model,
//! * [`simnet`] — flow-level max-min fair network simulator,
//! * [`redist`] — 1-D block data redistribution,
//! * [`daggen`] — random / FFT / Strassen task-graph generators,
//! * [`sched`] — CPA/HCPA allocation and the pluggable mapping policies,
//! * [`sim`] — discrete-event schedule execution,
//! * [`workloads`] — declarative workload synthesis: custom DAG
//!   populations (distribution-driven families) and generated cluster
//!   topologies (flat/hierarchical/star/bus, heterogeneous-speed sweeps)
//!   plugged into campaigns via `suite = "custom"`,
//! * [`experiments`] — the paper's evaluation campaign, driven by
//!   serializable [`experiments::spec::ExperimentSpec`]s and executable as
//!   sharded, resumable jobs ([`experiments::shard`]),
//! * [`journal`] — append-only, hash-chained campaign event journal with
//!   deterministic replay and cross-run diff (the `campaign replay` and
//!   `campaign diff` subcommands),
//! * [`telemetry`] — process-wide metrics registry (counters, gauges,
//!   histograms) and RAII phase spans, rendered as Prometheus text or
//!   JSON (the `campaign profile` subcommand and the server's
//!   `/metrics` endpoint),
//! * [`dispatch`] — fault-tolerant multi-worker dispatch of those shards
//!   over a filesystem work queue (host inventories, lease heartbeats,
//!   shared scenario cache; the `campaign dispatch` subcommand).
//!
//! Single [`Run`]s serialize too: [`RunArtifact`] is the JSONL projection
//! of a run (provenance + simulated numbers), round-trippable bit-exactly.
//!
//! ## Quickstart
//!
//! One [`Pipeline`] call covers the whole chain the paper evaluates —
//! HCPA allocation, a mapping policy, and contention simulation — and the
//! returned [`Run`] carries the schedule, the simulated outcome and a
//! provenance record:
//!
//! ```
//! use rats::prelude::*;
//!
//! // A 3-cluster platform preset from the paper and a small FFT task graph.
//! let dag = fft_dag(4, &CostParams::tiny(), 42);
//!
//! let run = Pipeline::from_spec(&ClusterSpec::grillon())
//!     .policy(MappingStrategy::rats_time_cost(0.5, true))
//!     .seed(42)
//!     .run(&dag);
//!
//! assert!(run.makespan() > 0.0);
//! assert_eq!(run.provenance.policy, "time-cost");
//! ```
//!
//! ## Plugging in a custom mapping policy
//!
//! The mapping step is open: implement
//! [`MappingPolicy`](sched::MappingPolicy) on your own type and hand it to
//! [`Pipeline::policy`] (see `examples/custom_policy.rs` and the
//! [`sched::policy`] module docs). The shipped policies are
//! [`Hcpa`](sched::Hcpa) and the parameter types
//! [`DeltaParams`](sched::DeltaParams),
//! [`TimeCostParams`](sched::TimeCostParams) and
//! [`CombinedParams`](sched::CombinedParams); the
//! [`MappingStrategy`](sched::MappingStrategy) enum names one of them as a
//! single `Copy` value, handy for sweeps.

#![forbid(unsafe_code)]

pub use rats_dag as dag;
pub use rats_daggen as daggen;
pub use rats_dispatch as dispatch;
pub use rats_experiments as experiments;
pub use rats_journal as journal;
pub use rats_model as model;
pub use rats_platform as platform;
pub use rats_redist as redist;
pub use rats_sched as sched;
pub use rats_sim as sim;
pub use rats_simnet as simnet;
pub use rats_telemetry as telemetry;
pub use rats_workloads as workloads;

mod pipeline;
mod record;

pub use pipeline::{Pipeline, Provenance, Run};
pub use record::RunArtifact;

/// Convenient single-import surface for the most common types.
pub mod prelude {
    pub use crate::pipeline::{Pipeline, Provenance, Run};
    pub use crate::record::RunArtifact;
    pub use rats_dag::{EdgeId, TaskGraph, TaskId};
    pub use rats_daggen::{fft_dag, irregular_dag, layered_dag, strassen_dag, DagParams};
    pub use rats_model::{AmdahlLaw, CostParams, TaskCost};
    pub use rats_platform::{ClusterSpec, Platform, ProcSet};
    pub use rats_sched::{
        AreaPolicy, Hcpa, MappingPolicy, MappingStrategy, Schedule, Scheduler, StrategyError,
    };
    pub use rats_sim::{simulate, SimOutcome};
    pub use rats_workloads::{
        Dist, FamilyKind, FamilySpec, IntDist, TopoKind, TopologyGenSpec, WorkloadSpec,
    };
}
