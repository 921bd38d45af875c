//! Quality ablations for the design alternatives (rationale on the
//! `rats-sched` types `CandidatePolicy`, `AreaPolicy` and `AllocParams`):
//! candidate policies, the combined strategy, area policies, and the
//! communication-inclusive critical path.

#![forbid(unsafe_code)]

use rats_experiments::artifacts::{cli_opts_thin, load_suite};
use rats_experiments::campaign::PreparedScenario;
use rats_platform::{ClusterSpec, Platform};

fn main() {
    let (quick, threads, thin) = cli_opts_thin();
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    let prepared: Vec<PreparedScenario> =
        PreparedScenario::prepare(load_suite(quick), &platform, threads)
            .into_iter()
            .step_by(thin)
            .collect();
    print!(
        "{}",
        rats_experiments::ablation::run(&prepared, &platform, threads)
    );
}
