//! Cost of the design alternatives documented on the `rats-sched` knobs
//! (`CandidatePolicy`, `AreaPolicy`, `AllocParams::cp_includes_comm`).

use criterion::{criterion_group, criterion_main, Criterion};
use rats_bench::{grillon, irregular50};
use rats_sched::{allocate, AllocParams, AreaPolicy, CandidatePolicy, MappingStrategy, Scheduler};
use std::hint::black_box;

fn bench_area_policies(c: &mut Criterion) {
    let platform = grillon();
    let dag = irregular50();
    let mut g = c.benchmark_group("ablation/area_policy");
    g.sample_size(20);
    for (name, policy) in [
        ("cpa", AreaPolicy::CpaClassic),
        ("hcpa", AreaPolicy::Hcpa),
        ("mcpa", AreaPolicy::Mcpa),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                allocate(
                    black_box(&dag),
                    &platform,
                    AllocParams {
                        policy,
                        ..AllocParams::default()
                    },
                )
            })
        });
    }
    // The comm-inclusive critical path (rejected default; see
    // `AllocParams::cp_includes_comm`).
    g.bench_function("hcpa_comm_cp", |b| {
        b.iter(|| {
            allocate(
                black_box(&dag),
                &platform,
                AllocParams {
                    policy: AreaPolicy::Hcpa,
                    cp_includes_comm: true,
                },
            )
        })
    });
    g.finish();
}

fn bench_candidate_policies(c: &mut Criterion) {
    let platform = grillon();
    let dag = irregular50();
    let alloc = allocate(&dag, &platform, AllocParams::default());
    let mut g = c.benchmark_group("ablation/candidate_policy");
    g.sample_size(20);
    for (name, policy) in [
        ("earliest_k", CandidatePolicy::EarliestK),
        ("parent_aware", CandidatePolicy::ParentAware),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                Scheduler::new(&platform)
                    .candidate_policy(policy)
                    .schedule_with_allocation(black_box(&dag), &alloc)
            })
        });
    }
    g.finish();
}

fn bench_secondary_sorts(c: &mut Criterion) {
    // The two RATS variants differ in their ready-list secondary sort;
    // benchmark the mapping cost of each against plain HCPA.
    let platform = grillon();
    let dag = irregular50();
    let alloc = allocate(&dag, &platform, AllocParams::default());
    let mut g = c.benchmark_group("ablation/strategy_cost");
    g.sample_size(20);
    for strategy in [
        MappingStrategy::Hcpa,
        MappingStrategy::rats_delta(0.75, 1.0),
        MappingStrategy::rats_time_cost(0.2, true),
    ] {
        g.bench_function(strategy.name(), |b| {
            b.iter(|| {
                Scheduler::new(&platform)
                    .strategy(strategy)
                    .schedule_with_allocation(black_box(&dag), &alloc)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_area_policies,
    bench_candidate_policies,
    bench_secondary_sorts
);
criterion_main!(benches);
