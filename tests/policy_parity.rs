//! Parity between the closed `MappingStrategy` enum and the open
//! `MappingPolicy` trait impls: for every variant, both forms must produce
//! **byte-identical** schedules over the FFT/Strassen/random suite, whether
//! driven through `Scheduler` or through `Pipeline`, and must select the
//! same engine hooks.

use rats::prelude::*;
use rats::sched::{
    allocate, AllocParams, CombinedParams, DeltaParams, MappingStrategy, TimeCostParams,
};

/// (enum form, trait form) pairs covering every variant.
fn pairs() -> Vec<(MappingStrategy, Box<dyn MappingPolicy>)> {
    vec![
        (MappingStrategy::Hcpa, Box::new(Hcpa)),
        (
            MappingStrategy::rats_delta(0.5, 0.5),
            Box::new(DeltaParams::new(0.5, 0.5).unwrap()),
        ),
        (
            MappingStrategy::rats_delta(0.75, 1.0),
            Box::new(DeltaParams::new(-0.75, 1.0).unwrap()),
        ),
        (
            MappingStrategy::rats_time_cost(0.5, true),
            Box::new(TimeCostParams::new(0.5, true).unwrap()),
        ),
        (
            MappingStrategy::rats_time_cost(0.2, false),
            Box::new(TimeCostParams::new(0.2, false).unwrap()),
        ),
        (
            MappingStrategy::rats_combined(0.5, 1.0, 0.4),
            Box::new(CombinedParams::new(DeltaParams::new(0.5, 1.0).unwrap(), 0.4).unwrap()),
        ),
    ]
}

fn assert_identical(a: &Schedule, b: &Schedule, context: &str) {
    assert_eq!(a.entries.len(), b.entries.len(), "{context}: entry count");
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(x.task, y.task, "{context}: task order");
        assert_eq!(x.procs, y.procs, "{context}: processor sets");
        assert_eq!(
            x.est_start.to_bits(),
            y.est_start.to_bits(),
            "{context}: start bits"
        );
        assert_eq!(
            x.est_finish.to_bits(),
            y.est_finish.to_bits(),
            "{context}: finish bits"
        );
    }
    assert_eq!(a.order, b.order, "{context}: mapping order");
}

#[test]
fn enum_and_trait_forms_schedule_identically() {
    let platform = Platform::from_spec(&ClusterSpec::grillon());
    for scenario in rats::daggen::suite::mini_suite(&CostParams::paper(), 17) {
        let alloc = allocate(&scenario.dag, &platform, AllocParams::default());
        for (strategy, policy) in pairs() {
            let via_enum = Scheduler::new(&platform)
                .strategy(strategy)
                .schedule_with_allocation(&scenario.dag, &alloc);
            let via_trait = Scheduler::new(&platform)
                .policy(policy)
                .schedule_with_allocation(&scenario.dag, &alloc);
            assert_identical(
                &via_enum,
                &via_trait,
                &format!("{} / {}", scenario.name, strategy.name()),
            );
        }
    }
}

#[test]
fn pipeline_matches_scheduler_for_every_variant() {
    let spec = ClusterSpec::chti();
    let platform = Platform::from_spec(&spec);
    let dag = fft_dag(8, &CostParams::paper(), 23);
    for (strategy, policy) in pairs() {
        let via_scheduler = Scheduler::new(&platform).strategy(strategy).schedule(&dag);
        let run = Pipeline::from_spec(&spec).policy(policy).run(&dag);
        assert_identical(&via_scheduler, &run.schedule, strategy.name());
        let direct = simulate(&dag, &via_scheduler, &platform);
        assert_eq!(run.makespan().to_bits(), direct.makespan.to_bits());
    }
}

#[test]
fn policy_names_match_enum_names() {
    for (strategy, policy) in pairs() {
        let selected: Box<dyn MappingPolicy> = strategy.into();
        let name = strategy.name();
        assert_eq!(name, policy.name());
        assert_eq!(selected.name(), policy.name());
        assert_eq!(selected.secondary_sort(), policy.secondary_sort(), "{name}");
        assert_eq!(
            selected.repeats_estimates(),
            policy.repeats_estimates(),
            "{name}: engine path"
        );
        assert_eq!(
            selected.memoize_data_ready(),
            policy.memoize_data_ready(),
            "{name}: data_ready memo"
        );
    }
}
