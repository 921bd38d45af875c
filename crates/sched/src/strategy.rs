//! Mapping strategies and their tunable parameters (paper, section III).
//!
//! Each parameter type *is* its policy: [`DeltaParams`], [`TimeCostParams`]
//! and [`CombinedParams`] implement [`crate::MappingPolicy`] in
//! [`crate::policy`], next to the parameterless [`crate::Hcpa`]. Parameter
//! validation lives in their `Result` constructors ([`DeltaParams::new`]
//! and friends) returning [`StrategyError`].
//!
//! [`MappingStrategy`] is the closed, `Copy` enumeration of the shipped
//! policies — handy for sweeps and tables. Its one conversion to a policy
//! object is `From<MappingStrategy> for Box<dyn MappingPolicy>`; its
//! short-hand constructors panic on invalid input for ergonomic literals in
//! examples and tests.

use std::fmt;

use crate::policy::{Hcpa, MappingPolicy};

/// A rejected strategy parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyError {
    /// `mindelta` magnitude outside `[0, 1]` (or NaN).
    Mindelta(f64),
    /// `maxdelta` negative, infinite or NaN.
    Maxdelta(f64),
    /// `minrho` outside `(0, 1]` (or NaN).
    Minrho(f64),
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::Mindelta(v) => {
                write!(f, "mindelta magnitude must be in [0, 1], got {v}")
            }
            StrategyError::Maxdelta(v) => {
                write!(
                    f,
                    "maxdelta must be a finite non-negative fraction, got {v}"
                )
            }
            StrategyError::Minrho(v) => write!(f, "minrho must be in (0, 1], got {v}"),
        }
    }
}

impl std::error::Error for StrategyError {}

/// The **delta** strategy, as its parameters: purely structural bounds on
/// how far an allocation may move to adopt a predecessor's processor set.
/// A [`MappingPolicy`] (its decision rule is documented on that impl).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaParams {
    /// Fraction of the original allocation that may be *removed* when
    /// packing (the paper's `mindelta`, given here as a magnitude: `0.5`
    /// means the packed allocation has at least `⌈0.5·Np(t)⌉` processors;
    /// `0` disables packing).
    pub mindelta: f64,
    /// Fraction of the original allocation that may be *added* when
    /// stretching (`maxdelta`; `0` disables stretching beyond equal-size
    /// predecessors).
    pub maxdelta: f64,
}

impl DeltaParams {
    /// Validated constructor; `mindelta` may be given as the paper's
    /// negative value or as a magnitude — the sign is dropped.
    pub fn new(mindelta: f64, maxdelta: f64) -> Result<Self, StrategyError> {
        let mindelta = mindelta.abs();
        if !(0.0..=1.0).contains(&mindelta) {
            return Err(StrategyError::Mindelta(mindelta));
        }
        if !(maxdelta >= 0.0 && maxdelta.is_finite()) {
            return Err(StrategyError::Maxdelta(maxdelta));
        }
        Ok(Self { mindelta, maxdelta })
    }

    /// The paper's naive starting point: `mindelta = maxdelta = 0.5`.
    pub fn naive() -> Self {
        Self {
            mindelta: 0.5,
            maxdelta: 0.5,
        }
    }

    /// Largest allowed stretch in processors for a task currently allocated
    /// `np` processors: `δmax = ⌊maxdelta · np⌋`.
    pub fn delta_max(&self, np: u32) -> u32 {
        (self.maxdelta * f64::from(np)).floor() as u32
    }

    /// Largest allowed shrink in processors: `|δmin| = ⌊mindelta · np⌋`
    /// (the paper writes `δmin` as a negative number; we keep magnitudes).
    pub fn delta_min_magnitude(&self, np: u32) -> u32 {
        let m = (self.mindelta * f64::from(np)).floor() as u32;
        // Packing may never remove *all* processors.
        m.min(np.saturating_sub(1))
    }
}

/// The **time-cost** strategy, as its parameters: work-efficiency driven.
/// A [`MappingPolicy`] (its decision rule is documented on that impl).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeCostParams {
    /// Minimal acceptable work ratio `ρ = (T(t,n)·n)/(T(t,n')·n') ∈ (0, 1]`
    /// for stretching onto a larger predecessor allocation. The closer to
    /// 1, the stricter the efficiency requirement.
    pub minrho: f64,
    /// Whether packing (shrinking onto a smaller predecessor allocation) is
    /// allowed; a packed mapping is only taken when it does not worsen the
    /// task's estimated finish time.
    pub allow_packing: bool,
}

impl TimeCostParams {
    /// Validated constructor.
    pub fn new(minrho: f64, allow_packing: bool) -> Result<Self, StrategyError> {
        if !(minrho > 0.0 && minrho <= 1.0) {
            return Err(StrategyError::Minrho(minrho));
        }
        Ok(Self {
            minrho,
            allow_packing,
        })
    }

    /// The paper's naive starting point: packing on, `minrho = 0.5`.
    pub fn naive() -> Self {
        Self {
            minrho: 0.5,
            allow_packing: true,
        }
    }
}

/// The secondary, *stable* sort applied to ready tasks of equal bottom-level
/// priority (paper, section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondarySort {
    /// No secondary criterion (plain HCPA).
    None,
    /// Increasing `δ(t) = min(δ⁺, −δ⁻)`: tasks needing the smallest
    /// allocation modification first.
    DeltaAscending,
    /// Decreasing `gain(t) = maxᵢ (T(t, Np(t)) − T(t, Np(predᵢ)))`: tasks
    /// with the most to gain from a parent's allocation first.
    GainDescending,
}

/// How the default (non-adopting) mapping chooses candidate processor
/// sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidatePolicy {
    /// Map onto the `k` earliest-available processors only — the CPA/HCPA
    /// list-scheduling placement of the paper's era. Redistribution costs
    /// are *accounted for* in the finish-time estimate, but the placement
    /// does not search for redistribution-avoiding alternatives: that gap
    /// is precisely what RATS closes.
    #[default]
    EarliestK,
    /// Additionally evaluate one candidate derived from each predecessor's
    /// processor set (its prefix, or the set padded with the earliest free
    /// processors) and keep the best estimated finish. A *stronger*
    /// baseline than the paper's HCPA, provided for ablation studies.
    ParentAware,
}

/// The **combined** strategy, as its parameters (an extension beyond the
/// paper, in the direction of its future-work "automatic tuning"):
/// candidate predecessors are gated structurally like *delta*, but the
/// adoption is validated with finish-time estimates like *time-cost*. A
/// [`MappingPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombinedParams {
    /// Structural bounds (pack/stretch fractions), as in the delta strategy.
    pub delta: DeltaParams,
    /// Minimal acceptable work ratio for stretching, as in time-cost.
    pub minrho: f64,
}

impl CombinedParams {
    /// Validated constructor.
    pub fn new(delta: DeltaParams, minrho: f64) -> Result<Self, StrategyError> {
        if !(minrho > 0.0 && minrho <= 1.0) {
            return Err(StrategyError::Minrho(minrho));
        }
        Ok(Self { delta, minrho })
    }
}

/// Which mapping procedure step two runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MappingStrategy {
    /// Baseline list scheduling with untouched allocations (HCPA's mapping,
    /// redistribution costs included in the finish-time estimates).
    Hcpa,
    /// RATS with the delta strategy.
    RatsDelta(DeltaParams),
    /// RATS with the time-cost strategy.
    RatsTimeCost(TimeCostParams),
    /// RATS with the combined strategy (extension; see [`CombinedParams`]).
    RatsCombined(CombinedParams),
}

impl MappingStrategy {
    /// Delta strategy; `mindelta` may be given as the paper's negative value
    /// or as a magnitude — the sign is dropped. See [`DeltaParams::new`]
    /// for the non-panicking form.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn rats_delta(mindelta: f64, maxdelta: f64) -> Self {
        DeltaParams::new(mindelta, maxdelta)
            .map(Self::RatsDelta)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Time-cost strategy. See [`TimeCostParams::new`] for the
    /// non-panicking form.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn rats_time_cost(minrho: f64, allow_packing: bool) -> Self {
        TimeCostParams::new(minrho, allow_packing)
            .map(Self::RatsTimeCost)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Combined strategy: delta bounds + time-cost estimate validation
    /// (`mindelta` sign is dropped, as in [`Self::rats_delta`]). See
    /// [`CombinedParams::new`] for the non-panicking form.
    ///
    /// # Panics
    /// Panics if the parameters are invalid.
    pub fn rats_combined(mindelta: f64, maxdelta: f64, minrho: f64) -> Self {
        DeltaParams::new(mindelta, maxdelta)
            .and_then(|delta| CombinedParams::new(delta, minrho))
            .map(Self::RatsCombined)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Short display name used by the experiment tables: the selected
    /// policy's [`MappingPolicy::name`].
    pub fn name(&self) -> &str {
        match self {
            MappingStrategy::Hcpa => Hcpa.name(),
            MappingStrategy::RatsDelta(p) => p.name(),
            MappingStrategy::RatsTimeCost(p) => p.name(),
            MappingStrategy::RatsCombined(p) => p.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_bounds_follow_paper_example() {
        // Np(t) = 6, maxdelta = 0.5 → at most 9 processors, δmax = 3.
        let p = DeltaParams::new(0.5, 0.5).unwrap();
        assert_eq!(p.delta_max(6), 3);
        // mindelta = 0.5 → at least 3 processors, |δmin| = 3.
        assert_eq!(p.delta_min_magnitude(6), 3);
    }

    #[test]
    fn packing_never_empties_an_allocation() {
        let p = DeltaParams::new(1.0, 0.0).unwrap();
        assert_eq!(p.delta_min_magnitude(1), 0);
        assert_eq!(p.delta_min_magnitude(4), 3);
    }

    #[test]
    fn negative_mindelta_is_normalized() {
        let s = MappingStrategy::rats_delta(-0.75, 1.0);
        match s {
            MappingStrategy::RatsDelta(p) => assert_eq!(p.mindelta, 0.75),
            _ => unreachable!(),
        }
    }

    #[test]
    fn constructors_reject_bad_parameters_with_typed_errors() {
        assert_eq!(
            DeltaParams::new(1.5, 0.5),
            Err(StrategyError::Mindelta(1.5))
        );
        assert!(matches!(
            DeltaParams::new(0.5, f64::NAN).unwrap_err(),
            StrategyError::Maxdelta(v) if v.is_nan()
        ));
        assert_eq!(
            TimeCostParams::new(0.0, true),
            Err(StrategyError::Minrho(0.0))
        );
        assert_eq!(
            CombinedParams::new(DeltaParams::naive(), 1.5),
            Err(StrategyError::Minrho(1.5))
        );
    }

    #[test]
    fn errors_render_the_offending_parameter() {
        assert!(StrategyError::Minrho(0.0).to_string().contains("minrho"));
        assert!(StrategyError::Mindelta(2.0)
            .to_string()
            .contains("mindelta"));
        assert!(StrategyError::Maxdelta(-1.0)
            .to_string()
            .contains("maxdelta"));
    }

    #[test]
    fn secondary_sorts_match_strategies() {
        let sort = |s: MappingStrategy| Box::<dyn MappingPolicy>::from(s).secondary_sort();
        assert_eq!(sort(MappingStrategy::Hcpa), SecondarySort::None);
        assert_eq!(
            sort(MappingStrategy::rats_delta(0.5, 0.5)),
            SecondarySort::DeltaAscending
        );
        assert_eq!(
            sort(MappingStrategy::rats_time_cost(0.5, true)),
            SecondarySort::GainDescending
        );
        assert_eq!(
            sort(MappingStrategy::rats_combined(0.5, 1.0, 0.4)),
            SecondarySort::DeltaAscending
        );
    }

    #[test]
    fn combined_strategy_construction() {
        let s = MappingStrategy::rats_combined(-0.5, 1.0, 0.4);
        assert_eq!(s.name(), "combined");
        match s {
            MappingStrategy::RatsCombined(p) => {
                assert_eq!(p.delta.mindelta, 0.5);
                assert_eq!(p.delta.maxdelta, 1.0);
                assert_eq!(p.minrho, 0.4);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "minrho")]
    fn combined_rejects_bad_rho() {
        MappingStrategy::rats_combined(0.5, 1.0, 0.0);
    }

    #[test]
    fn names() {
        assert_eq!(MappingStrategy::Hcpa.name(), "HCPA");
        assert_eq!(MappingStrategy::rats_delta(0.5, 0.5).name(), "delta");
        assert_eq!(
            MappingStrategy::rats_time_cost(0.2, false).name(),
            "time-cost"
        );
    }

    #[test]
    #[should_panic(expected = "minrho")]
    fn rejects_zero_rho() {
        MappingStrategy::rats_time_cost(0.0, true);
    }
}
