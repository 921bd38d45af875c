//! Parameter tuning: the paper's section IV-C.
//!
//! Tuning sweeps are ordinary campaigns: each grid point is a
//! [`MappingStrategy`] value, the points are evaluated by the same executor
//! as the headline comparison
//! ([`evaluate_strategies`](crate::evaluate_strategies)) — and therefore by
//! the same sharded job grid — and the figures/tables are pure assemblies
//! over the per-strategy results ([`sweep_tables`]). In-process and
//! merged-from-shards paths share the assembly code, so they agree bit for
//! bit.

use std::cell::RefCell;

use rats_daggen::suite::AppFamily;
use rats_platform::Platform;
use rats_sched::{DeltaParams, MappingStrategy};

use crate::campaign::{AlgoResults, PreparedScenario, RunResult};
use crate::runner::parallel_map;
use crate::spec::StrategySpec;

/// The `mindelta` grid of Figure 4 (magnitudes of the paper's negative
/// values −0.75 … 0).
pub const MINDELTA_GRID: [f64; 4] = [0.0, 0.25, 0.5, 0.75];
/// The `maxdelta` grid of Figure 4 (1 is tested for stretching only — "
/// allowing to remove all the processors of an allocation … does not make
/// sense").
pub const MAXDELTA_GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// The `minrho` grid of Figure 5.
pub const MINRHO_GRID: [f64; 6] = [0.2, 0.4, 0.5, 0.6, 0.8, 1.0];

/// A tuned RATS parameter triple, as listed per (application type, cluster)
/// in the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedParams {
    /// Packing bound magnitude (paper writes it negative).
    pub mindelta: f64,
    /// Stretching bound.
    pub maxdelta: f64,
    /// Time-cost efficiency threshold.
    pub minrho: f64,
}

/// The delta-strategy grid points of Figure 4, `mindelta`-major
/// (`MINDELTA_GRID[i] × MAXDELTA_GRID[j]` flattens to index
/// `i * MAXDELTA_GRID.len() + j`).
pub fn delta_strategies() -> Vec<MappingStrategy> {
    MINDELTA_GRID
        .iter()
        .flat_map(|&mind| {
            MAXDELTA_GRID
                .iter()
                .map(move |&maxd| MappingStrategy::rats_delta(mind, maxd))
        })
        .collect()
}

/// The time-cost grid points of Figure 5: every [`MINRHO_GRID`] value with
/// packing enabled, then the same values with packing disabled.
pub fn rho_strategies() -> Vec<MappingStrategy> {
    [true, false]
        .iter()
        .flat_map(|&packing| {
            MINRHO_GRID
                .iter()
                .map(move |&rho| MappingStrategy::rats_time_cost(rho, packing))
        })
        .collect()
}

/// The full tuning sweep as one flat strategy list — the HCPA baseline
/// first, then [`delta_strategies`], then [`rho_strategies`] — ready to run
/// through the campaign job grid, in-process or sharded. [`sweep_tables`]
/// reassembles Figure 4/5 and Table IV from results in this order.
pub fn sweep_strategies() -> Vec<MappingStrategy> {
    let mut out = vec![MappingStrategy::Hcpa];
    out.extend(delta_strategies());
    out.extend(rho_strategies());
    out
}

/// [`sweep_strategies`] in data form, ready to drop into an
/// [`ExperimentSpec`](crate::spec::ExperimentSpec)'s strategy list.
pub fn sweep_specs() -> Vec<StrategySpec> {
    sweep_strategies()
        .into_iter()
        .map(StrategySpec::from_strategy)
        .collect()
}

/// Mean of `makespan / baseline` over one strategy's scenario-ordered runs
/// — the single summation both the in-process and the merged paths use, so
/// their averages are bit-identical.
fn mean_relative(runs: &[RunResult], base: &[f64]) -> f64 {
    assert_eq!(runs.len(), base.len(), "misaligned sweep");
    runs.iter()
        .zip(base)
        .map(|(r, &b)| r.makespan / b)
        .sum::<f64>()
        / base.len() as f64
}

/// Baseline (HCPA) makespans for a prepared set.
pub fn hcpa_baseline(
    prepared: &[PreparedScenario],
    platform: &Platform,
    threads: usize,
) -> Vec<f64> {
    parallel_map(prepared, threads, |_, p| {
        p.evaluate(platform, MappingStrategy::Hcpa).makespan
    })
}

/// The distinct step-one allocation sizes occurring anywhere in a prepared
/// scenario set, ascending. [`DeltaParams`](rats_sched::DeltaParams) only
/// ever indexes its structural bounds at these sizes, so they are the whole
/// domain a delta grid point's behaviour is sampled on.
fn distinct_alloc_sizes(prepared: &[PreparedScenario]) -> Vec<u32> {
    let mut sizes: Vec<u32> = prepared
        .iter()
        .flat_map(|p| p.alloc.as_slice().iter().copied())
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// The decision-relevant restriction of a delta grid point: the integer
/// stretch/pack bounds at every allocation size the scenario set uses. The
/// delta policy's choices are a pure function of these tables, so two grid
/// points with equal fingerprints schedule — and therefore simulate — every
/// scenario bit-identically.
fn delta_fingerprint(params: DeltaParams, sizes: &[u32]) -> DeltaFingerprint {
    sizes
        .iter()
        .map(|&k| (params.delta_max(k), params.delta_min_magnitude(k)))
        .collect()
}

/// `(δmax, |δmin|)` per distinct allocation size — see
/// [`delta_fingerprint`].
type DeltaFingerprint = Vec<(u32, u32)>;

/// A scenario set prepared for tuning sweeps: the step-one allocations
/// (carried by [`PreparedScenario`]) and the HCPA baseline makespans are
/// computed **once** at construction and shared by every grid point the
/// sweeps visit — a 26-cell `tune_family` sweep (or a combined
/// figure-4 + figure-5 regeneration) evaluates the baseline exactly once
/// instead of re-deriving it per entry point.
///
/// Delta grid points additionally share whole result vectors: the delta
/// strategy only sees its parameters through `⌊maxdelta·k⌋` /
/// `⌊mindelta·k⌋` at the allocation sizes `k` the set actually contains,
/// so grid points whose integer bounds coincide are evaluated once and the
/// full per-scenario [`RunResult`]s (mapping *and* simulation) are reused.
#[derive(Debug)]
pub struct TuningSet<'a> {
    prepared: &'a [PreparedScenario],
    platform: &'a Platform,
    base: Vec<f64>,
    /// Ascending distinct allocation sizes — the delta fingerprint domain.
    alloc_sizes: Vec<u32>,
    /// Evaluated delta grid points: fingerprint → scenario-ordered results.
    delta_cache: RefCell<Vec<(DeltaFingerprint, Vec<RunResult>)>>,
    /// Delta evaluations answered from the cache (for tests/diagnostics).
    shared_hits: std::cell::Cell<usize>,
}

impl<'a> TuningSet<'a> {
    /// Computes the shared HCPA baseline for a prepared scenario set.
    pub fn new(prepared: &'a [PreparedScenario], platform: &'a Platform, threads: usize) -> Self {
        Self {
            prepared,
            platform,
            base: hcpa_baseline(prepared, platform, threads),
            alloc_sizes: distinct_alloc_sizes(prepared),
            delta_cache: RefCell::new(Vec::new()),
            shared_hits: std::cell::Cell::new(0),
        }
    }

    /// The shared HCPA baseline makespans, in scenario order.
    pub fn baseline(&self) -> &[f64] {
        &self.base
    }

    /// How many delta grid-point evaluations were answered by reusing a
    /// previously computed schedule (equal integer-bound fingerprints)
    /// instead of re-mapping and re-simulating.
    pub fn shared_delta_evaluations(&self) -> usize {
        self.shared_hits.get()
    }

    /// Evaluates one strategy over the set, scenario-ordered. Delta grid
    /// points route through the fingerprint cache; everything else (HCPA,
    /// time-cost — whose `minrho` guard compares continuous work ratios and
    /// admits no finite fingerprint) is evaluated directly.
    fn strategy_runs(&self, strategy: MappingStrategy, threads: usize) -> Vec<RunResult> {
        if let MappingStrategy::RatsDelta(params) = strategy {
            let fp = delta_fingerprint(params, &self.alloc_sizes);
            if let Some((_, runs)) = self
                .delta_cache
                .borrow()
                .iter()
                .find(|(cached, _)| *cached == fp)
            {
                self.shared_hits.set(self.shared_hits.get() + 1);
                return runs.clone();
            }
            let runs = parallel_map(self.prepared, threads, |_, p| {
                p.evaluate(self.platform, strategy)
            });
            self.delta_cache.borrow_mut().push((fp, runs.clone()));
            runs
        } else {
            parallel_map(self.prepared, threads, |_, p| {
                p.evaluate(self.platform, strategy)
            })
        }
    }

    /// Average of `rats_makespan / base_makespan` over the scenario set.
    pub fn avg_relative_makespan(&self, strategy: MappingStrategy, threads: usize) -> f64 {
        mean_relative(&self.strategy_runs(strategy, threads), &self.base)
    }

    /// Runs a grid of strategies through the shared campaign executor and
    /// returns one average per strategy, in order.
    fn sweep_means(&self, strategies: &[MappingStrategy], threads: usize) -> Vec<f64> {
        strategies
            .iter()
            .map(|&s| mean_relative(&self.strategy_runs(s, threads), &self.base))
            .collect()
    }

    /// Figure 4: the average relative makespan of the delta strategy for
    /// every `(mindelta, maxdelta)` grid point. Returns `grid[i][j]` for
    /// `MINDELTA_GRID[i]` × `MAXDELTA_GRID[j]`.
    pub fn delta_grid(&self, threads: usize) -> Vec<Vec<f64>> {
        delta_grid_rows(&self.sweep_means(&delta_strategies(), threads))
    }

    /// Figure 5: the average relative makespan of the time-cost strategy as
    /// `minrho` varies, with and without packing. Returns
    /// `(with_packing, without_packing)`, one value per [`MINRHO_GRID`]
    /// entry.
    pub fn rho_curves(&self, threads: usize) -> (Vec<f64>, Vec<f64>) {
        let means = self.sweep_means(&rho_strategies(), threads);
        let (with_packing, without_packing) = means.split_at(MINRHO_GRID.len());
        (with_packing.to_vec(), without_packing.to_vec())
    }

    /// Table IV for one application family on one platform: the
    /// `(mindelta, maxdelta)` pair minimizing the delta strategy's average
    /// relative makespan, and the `minrho` minimizing the time-cost
    /// strategy's (packing enabled, which the paper found always
    /// preferable).
    pub fn tune_family(&self, threads: usize) -> TunedParams {
        let delta_means = self.sweep_means(&delta_strategies(), threads);
        let packing_strategies: Vec<MappingStrategy> = MINRHO_GRID
            .iter()
            .map(|&rho| MappingStrategy::rats_time_cost(rho, true))
            .collect();
        let rho_means = self.sweep_means(&packing_strategies, threads);
        tuned_from_means(&delta_means, &rho_means)
    }
}

/// Folds flat `mindelta`-major delta averages into Figure 4's
/// `grid[mindelta][maxdelta]` rows.
fn delta_grid_rows(means: &[f64]) -> Vec<Vec<f64>> {
    assert_eq!(means.len(), MINDELTA_GRID.len() * MAXDELTA_GRID.len());
    means
        .chunks(MAXDELTA_GRID.len())
        .map(<[f64]>::to_vec)
        .collect()
}

/// Argmin selection of Table IV from the grid averages (strict `<`, grid
/// order — identical on every path that feeds it).
fn tuned_from_means(delta_means: &[f64], rho_with_packing_means: &[f64]) -> TunedParams {
    assert_eq!(delta_means.len(), MINDELTA_GRID.len() * MAXDELTA_GRID.len());
    assert_eq!(rho_with_packing_means.len(), MINRHO_GRID.len());
    let mut best_delta = (f64::INFINITY, 0.0, 0.0);
    for (i, &mind) in MINDELTA_GRID.iter().enumerate() {
        for (j, &maxd) in MAXDELTA_GRID.iter().enumerate() {
            let avg = delta_means[i * MAXDELTA_GRID.len() + j];
            if avg < best_delta.0 {
                best_delta = (avg, mind, maxd);
            }
        }
    }
    let mut best_rho = (f64::INFINITY, MINRHO_GRID[0]);
    for (&rho, &avg) in MINRHO_GRID.iter().zip(rho_with_packing_means) {
        if avg < best_rho.0 {
            best_rho = (avg, rho);
        }
    }
    TunedParams {
        mindelta: best_delta.1,
        maxdelta: best_delta.2,
        minrho: best_rho.1,
    }
}

/// Figure 4, Figure 5 and Table IV, reassembled from per-strategy sweep
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTables {
    /// Figure 4's `grid[mindelta][maxdelta]` of average relative makespans.
    pub delta_grid: Vec<Vec<f64>>,
    /// Figure 5's curve with packing enabled, one value per [`MINRHO_GRID`]
    /// entry.
    pub rho_with_packing: Vec<f64>,
    /// Figure 5's curve with packing disabled.
    pub rho_without_packing: Vec<f64>,
    /// Table IV's tuned parameter triple.
    pub tuned: TunedParams,
}

/// Assembles [`SweepTables`] from scenario-aligned results in
/// [`sweep_strategies`] order (`results[0]` is the HCPA baseline) — e.g.
/// the merged output of a sharded tuning campaign. Bit-identical to the
/// in-process [`TuningSet`] sweeps over the same scenarios.
///
/// # Panics
/// Panics if the result list does not have the sweep's shape.
pub fn sweep_tables(results: &[AlgoResults]) -> SweepTables {
    let n_delta = MINDELTA_GRID.len() * MAXDELTA_GRID.len();
    let n_rho = MINRHO_GRID.len();
    assert_eq!(
        results.len(),
        1 + n_delta + 2 * n_rho,
        "results are not in sweep_strategies() order"
    );
    let base: Vec<f64> = results[0].makespans();
    let means: Vec<f64> = results[1..]
        .iter()
        .map(|algo| mean_relative(&algo.runs, &base))
        .collect();
    let (delta_means, rho_means) = means.split_at(n_delta);
    let (rho_with, rho_without) = rho_means.split_at(n_rho);
    SweepTables {
        delta_grid: delta_grid_rows(delta_means),
        rho_with_packing: rho_with.to_vec(),
        rho_without_packing: rho_without.to_vec(),
        tuned: tuned_from_means(delta_means, rho_with),
    }
}

/// Table IV tuning over a prepared set (see [`TuningSet::tune_family`];
/// this convenience constructor derives the shared baseline first).
pub fn tune_family(
    prepared: &[PreparedScenario],
    platform: &Platform,
    threads: usize,
) -> TunedParams {
    TuningSet::new(prepared, platform, threads).tune_family(threads)
}

/// The tuned values the **paper** reports in Table IV, used by the
/// tuned-comparison binaries (`fig6_7`, `table5`, `table6`) so they can run
/// without first re-tuning. (`mindelta` is stored as a magnitude.)
pub fn paper_tuned(family: AppFamily, cluster: &str) -> TunedParams {
    let (mindelta, maxdelta, minrho) = match (cluster, family) {
        ("chti", AppFamily::Fft) => (0.5, 1.0, 0.2),
        ("chti", AppFamily::Strassen) => (0.25, 0.5, 0.5),
        ("chti", AppFamily::Layered) => (0.5, 1.0, 0.2),
        ("chti", AppFamily::Irregular) => (0.75, 1.0, 0.5),
        ("grillon", AppFamily::Fft) => (0.5, 1.0, 0.2),
        ("grillon", AppFamily::Strassen) => (0.0, 1.0, 0.4),
        ("grillon", AppFamily::Layered) => (0.25, 1.0, 0.2),
        ("grillon", AppFamily::Irregular) => (0.75, 1.0, 0.5),
        ("grelon", AppFamily::Fft) => (0.25, 0.75, 0.4),
        ("grelon", AppFamily::Strassen) => (0.25, 1.0, 0.5),
        ("grelon", AppFamily::Layered) => (0.5, 1.0, 0.2),
        ("grelon", AppFamily::Irregular) => (0.75, 1.0, 0.4),
        (c, f) => panic!("no paper-tuned parameters for cluster {c:?}, family {f:?}"),
    };
    TunedParams {
        mindelta,
        maxdelta,
        minrho,
    }
}

/// Evaluates one scenario under family/cluster-specific tuned parameters,
/// returning `(hcpa, delta, time_cost)` makespans and works.
pub fn evaluate_tuned(
    p: &PreparedScenario,
    platform: &Platform,
    params: TunedParams,
) -> [crate::campaign::RunResult; 3] {
    [
        p.evaluate(platform, MappingStrategy::Hcpa),
        p.evaluate(
            platform,
            MappingStrategy::rats_delta(params.mindelta, params.maxdelta),
        ),
        p.evaluate(
            platform,
            MappingStrategy::rats_time_cost(params.minrho, true),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::evaluate_strategies;
    use rats_daggen::suite::mini_suite;
    use rats_model::CostParams;
    use rats_platform::ClusterSpec;

    #[test]
    fn grids_match_paper_sizes() {
        assert_eq!(MINDELTA_GRID.len(), 4);
        assert_eq!(MAXDELTA_GRID.len(), 5);
        assert_eq!(MINRHO_GRID.len(), 6);
    }

    #[test]
    fn sweep_strategy_list_has_the_documented_shape() {
        let sweep = sweep_strategies();
        assert_eq!(sweep.len(), 1 + 4 * 5 + 2 * 6);
        assert_eq!(sweep[0], MappingStrategy::Hcpa);
        // mindelta-major delta block: the second entry moves maxdelta.
        assert_eq!(sweep[1], MappingStrategy::rats_delta(0.0, 0.0));
        assert_eq!(sweep[2], MappingStrategy::rats_delta(0.0, 0.25));
        // rho block: packing-enabled first.
        assert_eq!(sweep[21], MappingStrategy::rats_time_cost(0.2, true));
        assert_eq!(sweep[27], MappingStrategy::rats_time_cost(0.2, false));
        // The data form mirrors the strategies one-to-one.
        let specs = sweep_specs();
        for (spec, strategy) in specs.iter().zip(&sweep) {
            assert_eq!(spec.to_strategy().unwrap(), *strategy);
        }
    }

    #[test]
    fn sweep_tables_match_in_process_sweeps_bit_for_bit() {
        let platform = Platform::from_spec(&ClusterSpec::chti());
        let prepared: Vec<PreparedScenario> =
            PreparedScenario::prepare(mini_suite(&CostParams::tiny(), 8), &platform, 2)
                .into_iter()
                .take(3)
                .collect();
        let strategies = sweep_strategies();
        let results: Vec<AlgoResults> = strategies
            .iter()
            .zip(evaluate_strategies(&prepared, &platform, &strategies, 2))
            .map(|(s, runs)| AlgoResults {
                name: s.name().to_string(),
                runs,
            })
            .collect();
        let tables = sweep_tables(&results);

        let set = TuningSet::new(&prepared, &platform, 2);
        let grid = set.delta_grid(2);
        for (row_a, row_b) in tables.delta_grid.iter().zip(&grid) {
            for (a, b) in row_a.iter().zip(row_b) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let (with_packing, without_packing) = set.rho_curves(2);
        for (a, b) in tables.rho_with_packing.iter().zip(&with_packing) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in tables.rho_without_packing.iter().zip(&without_packing) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(tables.tuned, set.tune_family(2));
        // `tune_family` revisits the same 20 delta grid points that
        // `delta_grid` already evaluated, so every one of its delta
        // evaluations must have been served from the fingerprint cache —
        // and the assertions above proved the reuse is bit-exact.
        assert!(
            set.shared_delta_evaluations() >= delta_strategies().len(),
            "expected the second delta sweep to reuse cached schedules, \
             got {} shared evaluations",
            set.shared_delta_evaluations()
        );
    }

    #[test]
    fn delta_grid_points_share_schedules_when_integer_bounds_collide() {
        // On a 2-processor platform every allocation is 1 or 2, so
        // `⌊maxdelta·k⌋` cannot tell 0.0 from 0.25 (nor 0.5 from 0.75)
        // apart and Figure 4's 20 grid points collapse onto a handful of
        // distinct integer-bound fingerprints.
        let platform = Platform::from_spec(&ClusterSpec::flat("duo", 2, 1.0));
        let prepared: Vec<PreparedScenario> =
            PreparedScenario::prepare(mini_suite(&CostParams::tiny(), 8), &platform, 2)
                .into_iter()
                .take(4)
                .collect();
        let sizes = distinct_alloc_sizes(&prepared);
        assert!(
            sizes.iter().all(|&k| (1..=2).contains(&k)),
            "sizes {sizes:?}"
        );
        let strategies = delta_strategies();
        // Oracle: every grid point mapped and simulated independently.
        let naive = evaluate_strategies(&prepared, &platform, &strategies, 2);

        let set = TuningSet::new(&prepared, &platform, 2);
        let grid = set.delta_grid(2);

        // Exactly the colliding points were answered from the cache.
        let distinct: std::collections::BTreeSet<Vec<(u32, u32)>> = strategies
            .iter()
            .map(|s| match s {
                MappingStrategy::RatsDelta(p) => delta_fingerprint(*p, &sizes),
                _ => unreachable!("delta_strategies yields only delta points"),
            })
            .collect();
        assert!(distinct.len() < strategies.len(), "no collisions to share");
        assert_eq!(
            set.shared_delta_evaluations(),
            strategies.len() - distinct.len()
        );

        // And the shared results are bit-identical to the oracle's.
        for (i, runs) in naive.iter().enumerate() {
            let mean = mean_relative(runs, set.baseline());
            let cached = grid[i / MAXDELTA_GRID.len()][i % MAXDELTA_GRID.len()];
            assert_eq!(cached.to_bits(), mean.to_bits(), "grid point {i}");
        }
    }

    #[test]
    fn paper_tuned_covers_all_combinations() {
        for cluster in ["chti", "grillon", "grelon"] {
            for family in AppFamily::PAPER {
                let t = paper_tuned(family, cluster);
                assert!(t.maxdelta <= 1.0 && t.minrho > 0.0);
            }
        }
    }

    #[test]
    fn tune_family_returns_grid_values() {
        let platform = Platform::from_spec(&ClusterSpec::chti());
        let prepared: Vec<PreparedScenario> =
            PreparedScenario::prepare(mini_suite(&CostParams::tiny(), 4), &platform, 2)
                .into_iter()
                .take(3)
                .collect();
        let t = tune_family(&prepared, &platform, 2);
        assert!(MINDELTA_GRID.contains(&t.mindelta));
        assert!(MAXDELTA_GRID.contains(&t.maxdelta));
        assert!(MINRHO_GRID.contains(&t.minrho));
    }

    #[test]
    fn delta_grid_has_expected_shape() {
        let platform = Platform::from_spec(&ClusterSpec::chti());
        let prepared: Vec<PreparedScenario> =
            PreparedScenario::prepare(mini_suite(&CostParams::tiny(), 5), &platform, 2)
                .into_iter()
                .take(2)
                .collect();
        let set = TuningSet::new(&prepared, &platform, 2);
        let grid = set.delta_grid(2);
        assert_eq!(grid.len(), MINDELTA_GRID.len());
        for row in &grid {
            assert_eq!(row.len(), MAXDELTA_GRID.len());
            for &v in row {
                assert!(v.is_finite() && v > 0.0);
            }
        }
    }

    #[test]
    fn tuning_set_shares_one_baseline_across_sweeps() {
        let platform = Platform::from_spec(&ClusterSpec::chti());
        let prepared: Vec<PreparedScenario> =
            PreparedScenario::prepare(mini_suite(&CostParams::tiny(), 6), &platform, 2)
                .into_iter()
                .take(2)
                .collect();
        let set = TuningSet::new(&prepared, &platform, 2);
        assert_eq!(set.baseline().len(), prepared.len());
        assert_eq!(set.baseline(), hcpa_baseline(&prepared, &platform, 2));
        // Both sweeps run off the same baseline; HCPA-relative HCPA is 1.
        let rel = set.avg_relative_makespan(MappingStrategy::Hcpa, 2);
        assert!((rel - 1.0).abs() < 1e-12, "rel = {rel}");
        let (with_packing, without_packing) = set.rho_curves(2);
        assert_eq!(with_packing.len(), MINRHO_GRID.len());
        assert_eq!(without_packing.len(), MINRHO_GRID.len());
    }
}
