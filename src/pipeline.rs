//! The one-stop scheduling pipeline: platform → allocation → mapping →
//! contention simulation, with provenance.
//!
//! Every consumer of this workspace used to hand-wire the same four calls
//! (`Platform::from_spec`, `allocate`, `Scheduler::schedule`, `simulate`).
//! [`Pipeline`] packages that chain behind a builder, and [`Run`] bundles
//! everything a result needs to be interpreted later: the schedule, the
//! simulated outcome, and a [`Provenance`] record (policy name, allocation
//! parameters, seed) that experiment artifacts can print alongside numbers.
//!
//! ```
//! use rats::prelude::*;
//!
//! let dag = fft_dag(4, &CostParams::tiny(), 42);
//! let run = Pipeline::from_spec(&ClusterSpec::grillon())
//!     .policy(MappingStrategy::rats_time_cost(0.5, true))
//!     .seed(42)
//!     .run(&dag);
//! assert!(run.makespan() > 0.0);
//! assert_eq!(run.provenance.policy, "time-cost");
//! ```

use std::sync::Arc;

use rats_dag::TaskGraph;
use rats_platform::{ClusterSpec, Platform};
use rats_sched::{
    allocate, AllocParams, Allocation, CandidatePolicy, MappingPolicy, MappingStrategy, Schedule,
    Scheduler,
};
use rats_sim::{simulate, SimOutcome};

/// Where a [`Run`]'s numbers came from: the platform, the mapping policy's
/// display name, the allocation parameters and the seed. The policy's own
/// parameters and the [`CandidatePolicy`] are not recorded, so two runs
/// with different `minrho` share a provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Platform (cluster) name.
    pub platform: String,
    /// Mapping policy display name.
    pub policy: String,
    /// Allocation-step parameters the pipeline was configured with (for
    /// [`Pipeline::run_with_allocation`] with an externally-built
    /// allocation, these describe the pipeline, not the allocation).
    pub alloc_params: AllocParams,
    /// The caller's workload seed (recorded verbatim; the pipeline itself
    /// is deterministic).
    pub seed: u64,
}

/// The result of one pipeline run: the schedule (step two's estimates), the
/// simulated outcome (the paper's reported numbers), and provenance.
#[derive(Debug, Clone)]
pub struct Run {
    /// The mapped schedule with contention-free estimates.
    pub schedule: Schedule,
    /// The discrete-event simulation of that schedule under contention.
    pub outcome: SimOutcome,
    /// How this run was produced.
    pub provenance: Provenance,
}

impl Run {
    /// The simulated makespan in seconds (the paper's headline metric).
    pub fn makespan(&self) -> f64 {
        self.outcome.makespan
    }

    /// Total work in processor-seconds (the paper's cost metric).
    pub fn total_work(&self) -> f64 {
        self.outcome.total_work
    }

    /// Bytes that crossed the network — what redistribution-aware mapping
    /// tries to minimize.
    pub fn network_bytes(&self) -> f64 {
        self.outcome.network_bytes
    }
}

/// Builder for the full two-step-plus-simulation pipeline.
///
/// Defaults reproduce the paper's baseline: HCPA allocation
/// ([`AllocParams::default`]) and the non-adopting HCPA mapping. Swap the
/// mapping policy with [`Pipeline::policy`] — any [`MappingPolicy`]
/// implementation, shipped or external, or a [`MappingStrategy`] value.
#[derive(Clone)]
pub struct Pipeline {
    platform: Platform,
    alloc_params: AllocParams,
    policy: Arc<dyn MappingPolicy>,
    candidates: CandidatePolicy,
    seed: u64,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("platform", &self.platform.name())
            .field("alloc_params", &self.alloc_params)
            .field("policy", &self.policy.name())
            .field("candidates", &self.candidates)
            .field("seed", &self.seed)
            .finish()
    }
}

impl Pipeline {
    /// A pipeline targeting `platform`, with the paper's default policy
    /// chain (HCPA allocation, HCPA mapping).
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            alloc_params: AllocParams::default(),
            policy: Arc::new(rats_sched::Hcpa),
            candidates: CandidatePolicy::default(),
            seed: 0,
        }
    }

    /// Shorthand: build the platform from a cluster spec.
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        Self::new(Platform::from_spec(spec))
    }

    /// Configures the allocation step (step one).
    pub fn allocator(mut self, params: AllocParams) -> Self {
        self.alloc_params = params;
        self
    }

    /// Selects the mapping policy (step two): a [`MappingStrategy`] value
    /// or any [`MappingPolicy`] implementation.
    pub fn policy(mut self, policy: impl Into<Box<dyn MappingPolicy>>) -> Self {
        self.policy = Arc::from(policy.into());
        self
    }

    /// Backward-compatible alias of [`Self::policy`] for the closed enum.
    pub fn strategy(self, strategy: MappingStrategy) -> Self {
        self.policy(strategy)
    }

    /// Selects the default-mapping candidate policy (ablation knob).
    pub fn candidate_policy(mut self, candidates: CandidatePolicy) -> Self {
        self.candidates = candidates;
        self
    }

    /// Records the workload seed in the run's provenance.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The target platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The active policy's display name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    fn scheduler(&self) -> Scheduler<'_> {
        Scheduler::new(&self.platform)
            .allocator(self.alloc_params)
            .shared_policy(Arc::clone(&self.policy))
            .candidate_policy(self.candidates)
    }

    fn provenance(&self) -> Provenance {
        Provenance {
            platform: self.platform.name().to_string(),
            policy: self.policy.name().to_string(),
            alloc_params: self.alloc_params,
            seed: self.seed,
        }
    }

    /// Step one only: the HCPA-family allocation for `dag`.
    pub fn allocate(&self, dag: &TaskGraph) -> Allocation {
        allocate(dag, &self.platform, self.alloc_params)
    }

    /// Steps one and two only: the mapped schedule, without simulation.
    pub fn schedule(&self, dag: &TaskGraph) -> Schedule {
        self.scheduler().schedule(dag)
    }

    /// Runs the full chain: allocate, map, simulate.
    pub fn run(&self, dag: &TaskGraph) -> Run {
        let alloc = self.allocate(dag);
        self.run_with_allocation(dag, &alloc)
    }

    /// Runs mapping + simulation on a precomputed allocation (how the
    /// experiments compare policies on identical step-one output).
    ///
    /// The returned provenance records *this pipeline's* configuration;
    /// if `alloc` was produced elsewhere (different [`AllocParams`], or
    /// [`Allocation::from_counts`]), `provenance.alloc_params` describes
    /// the pipeline, not the external allocation's origin.
    pub fn run_with_allocation(&self, dag: &TaskGraph, alloc: &Allocation) -> Run {
        let schedule = self.scheduler().schedule_with_allocation(dag, alloc);
        let outcome = simulate(dag, &schedule, &self.platform);
        Run {
            schedule,
            outcome,
            provenance: self.provenance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rats_daggen::fft_dag;
    use rats_model::CostParams;

    #[test]
    fn pipeline_matches_hand_wired_chain() {
        let spec = ClusterSpec::grillon();
        let dag = fft_dag(4, &CostParams::tiny(), 9);
        let strategy = MappingStrategy::rats_delta(0.5, 0.5);

        let run = Pipeline::from_spec(&spec)
            .strategy(strategy)
            .seed(9)
            .run(&dag);

        let platform = Platform::from_spec(&spec);
        let schedule = Scheduler::new(&platform).strategy(strategy).schedule(&dag);
        let outcome = simulate(&dag, &schedule, &platform);
        assert_eq!(run.makespan().to_bits(), outcome.makespan.to_bits());
        assert_eq!(run.schedule.entries.len(), schedule.entries.len());
        for (a, b) in run.schedule.entries.iter().zip(&schedule.entries) {
            assert_eq!(a.procs, b.procs);
        }
    }

    #[test]
    fn provenance_records_the_chain() {
        let run = Pipeline::from_spec(&ClusterSpec::chti())
            .strategy(MappingStrategy::Hcpa)
            .seed(123)
            .run(&fft_dag(2, &CostParams::tiny(), 123));
        assert_eq!(run.provenance.platform, "chti");
        assert_eq!(run.provenance.policy, "HCPA");
        assert_eq!(run.provenance.seed, 123);
        assert_eq!(run.provenance.alloc_params, AllocParams::default());
    }

    #[test]
    fn run_with_allocation_shares_step_one() {
        let spec = ClusterSpec::grillon();
        let dag = fft_dag(4, &CostParams::tiny(), 5);
        let pipeline = Pipeline::from_spec(&spec);
        let alloc = pipeline.allocate(&dag);
        let a = pipeline.run_with_allocation(&dag, &alloc);
        let b = pipeline.run(&dag);
        assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
    }
}
