//! 1-D block data redistribution (CLUSTER 2008 paper, section II-A).
//!
//! Data is "always distributed following a one dimensional block
//! distribution": a task working on `m` bytes mapped onto `p` processors
//! gives rank `r` the interval `[r·m/p, (r+1)·m/p)`. When a successor task
//! runs on a different processor set (or a different number of processors),
//! the data must be *redistributed*; the communication matrix is obtained by
//! intersecting the sender and receiver block intervals — the paper's
//! Table I works through the `m = 10`, `p = 4 → q = 5` example reproduced in
//! this crate's tests.
//!
//! When sender and receiver sets share processors, "our redistribution
//! algorithm tries to maximize the amount of self communications":
//! [`align_for_self_comm`] reorders the receiver set so that shared
//! processors land on ranks whose intervals overlap their sending interval
//! as much as possible. Bytes that stay on the same processor cost nothing.
//!
//! Two estimation paths expose the **contention-free** redistribution time
//! used inside the scheduling heuristics (the evaluation simulator in
//! `rats-sim` models contention instead — the gap between the two is a
//! phenomenon the paper explicitly discusses):
//!
//! * the **matrix path** — [`redistribute`] materializes the sparse
//!   transfer matrix and [`estimate_time`] reduces it to a duration. This
//!   is the API for consumers that need the transfers themselves (the
//!   contention simulator, the dense Table I rendering, tests);
//! * the **streaming path** — [`estimate_cost`] (and the reusable
//!   [`RedistEstimator`] / memoizing [`RedistCache`]) computes the *same
//!   scalar, bit for bit*, in one pass over the block intervals without
//!   allocating the transfer list. This is what the incremental mapping
//!   engine calls per (task, candidate-set) evaluation; a property test
//!   pins the exact equality of the two paths.

#![forbid(unsafe_code)]

mod align;
mod block;
mod estimate;
mod matrix;
mod streaming;

pub use align::align_for_self_comm;
pub use block::{block_interval, block_owner_range};
pub use estimate::estimate_time;
pub use matrix::{redistribute, Redistribution, Transfer};
pub use streaming::{estimate_cost, RedistCache, RedistEstimator};
