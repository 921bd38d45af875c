//! Mixed-parallel application model: DAGs of moldable data-parallel tasks.
//!
//! A mixed-parallel application is a Directed Acyclic Graph `G = (N, E)`
//! whose nodes are data-parallel *tasks* and whose edges carry the amount of
//! data (in bytes) a task must send to a successor (CLUSTER 2008 paper,
//! section II-A). Tasks are *moldable*: the execution time on `p` processors
//! comes from the task's [`TaskCost`](rats_model::TaskCost) via Amdahl's law.
//!
//! The crate provides:
//!
//! * [`TaskGraph`] — a compact adjacency-list DAG with typed [`TaskId`] /
//!   [`EdgeId`] indices, suited to the dense side-arrays used by schedulers;
//! * structural queries: entries, exits, topological order, depth levels,
//!   validation ([`DagError`]);
//! * scheduling analyses: top/bottom levels and the critical path for a given
//!   vector of task execution times (see [`bottom_levels`], [`critical_path`]);
//! * event-driven readiness tracking for list schedulers: a flattened
//!   successor view plus Kahn-style in-degree counters, so placing a task
//!   discovers newly ready successors in O(out-degree) instead of a
//!   per-round full-graph re-scan ([`ReadyTracker`], [`SuccessorView`]);
//! * Graphviz DOT export for debugging ([`TaskGraph::to_dot`]).

#![forbid(unsafe_code)]

mod analysis;
mod graph;
mod ids;
mod ready;
mod serialize;
mod stats;

pub use analysis::{bottom_levels, critical_path, critical_path_length, top_levels};
pub use graph::{DagError, Edge, TaskGraph, TaskNode};
pub use ids::{EdgeId, TaskId};
pub use ready::{ReadyTracker, SuccessorView};
pub use serialize::{from_text, to_text, ParseError};
pub use stats::GraphStats;
