//! Computation cost model for moldable data-parallel tasks.
//!
//! This crate implements the application model of Hunold, Rauber and Suter,
//! *"Redistribution Aware Two-Step Scheduling for Mixed-Parallel
//! Applications"* (CLUSTER 2008), section II-A:
//!
//! * a task operates on a dataset of `m` double-precision elements, with
//!   `4·10⁶ ≤ m ≤ 121·10⁶` (at most ~1 GB of memory per node);
//! * its sequential computational cost is `a · m` floating point operations,
//!   with `a ∈ [2⁶, 2⁹]` (the task performs "multiple iterations", e.g. a
//!   stencil sweep over a `√m × √m` domain);
//! * parallel execution time follows **Amdahl's law**: a fraction
//!   `α ∈ [0, 0.25]` of the sequential time is non-parallelizable, so
//!   `T(t, p) = T(t, 1) · (α + (1 − α)/p)` — monotonically decreasing in `p`;
//! * the *work* of a task is `ω = T(t, p) · p`, monotonically increasing
//!   in `p`;
//! * the volume of data communicated to each successor equals the dataset
//!   size (`8·m` bytes).
//!
//! All times are in **seconds**, data in **bytes**, and computation in
//! **flop**; processing speed is expressed in **GFlop/s** as in the paper's
//! Table II.

#![forbid(unsafe_code)]

mod amdahl;
mod cost;
mod params;

pub use amdahl::AmdahlLaw;
pub use cost::TaskCost;
pub use params::{CostParams, BYTES_PER_ELEMENT};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let c = TaskCost::new(10_000_000, 128.0, 0.1);
        let t1 = c.time(1, 3.0);
        let t4 = c.time(4, 3.0);
        assert!(t4 < t1);
        assert!(c.work(4, 3.0) > c.work(1, 3.0));
    }
}
