//! # mp-sweep — the line-sweep engine
//!
//! Executes line-sweep computations over arrays distributed with the
//! multipartitionings of `mp-core`:
//!
//! * [`recurrence`] — segmented sweep kernels (prefix sums, first-order
//!   recurrences) and the [`recurrence::LineSweepKernel`] trait, whose one
//!   blocked method sweeps a [`mp_grid::Lanes`] view — in the executor,
//!   one row of a tile in place on tile storage;
//! * [`thomas`] — tridiagonal solvers: serial Thomas plus the forward
//!   elimination / back substitution kernels that turn a distributed
//!   tridiagonal solve into two directional sweeps;
//! * [`penta`] and [`block`] — the same pair of sweeps for pentadiagonal
//!   systems (SP) and 5×5 block-tridiagonal systems (BT);
//! * [`executor`] — the functional multipartitioned sweep executor
//!   (options and the in-place row runner);
//! * [`compiled`] — build-once / execute-many sweep plans and the paper's
//!   phase loop (one aggregated carry message per phase boundary) behind
//!   one entry point, [`compiled::SolverPlan`], which caches one plan per
//!   `(dim, direction)` plus the halo schedule;
//! * [`simd`] — the lane-vector trait the hot kernels' lane bodies are
//!   written in, run at 1, 4 (AVX2) and 8 (AVX-512) lanes with plan-time
//!   runtime dispatch, bitwise identical at every width;
//! * [`baselines`] — the geometry of the two classical alternatives the
//!   paper positions against: static block unipartitioning (wavefront
//!   pipelining) and dynamic block partitioning (transposes);
//! * [`simulate`] — timing drivers that replay the multipartitioned
//!   schedule and both baselines on the discrete-event simulator of
//!   `mp-runtime`;
//! * [`calibrate`] — host calibration of the kernels + transport into a
//!   measured [`mp_core::cost::CostModel`];
//! * [`verify`] — serial references for bit-exact validation.

#![warn(missing_docs)]

pub mod baselines;
pub mod block;
pub mod calibrate;
pub mod compiled;
pub mod executor;
pub mod penta;
pub mod recurrence;
pub mod simd;
pub mod simulate;
pub mod thomas;
pub mod verify;

#[cfg(test)]
mod tests_prop;
#[cfg(test)]
mod tests_trace;

pub use block::{block_thomas_solve, BlockCoeffs, BlockTriBackwardKernel, BlockTriForwardKernel};
pub use calibrate::calibrate_host;
pub use compiled::SolverPlan;
pub use executor::{allocate_rank_store, SweepOptions};
pub use penta::{penta_solve, PentaBackwardKernel, PentaForwardKernel};
pub use recurrence::{
    per_line_sweep_lanes, FirstOrderKernel, LineSweepKernel, PrefixSumKernel, SegmentCtx,
};
pub use simd::{SimdLevel, SimdMode};
pub use thomas::{thomas_solve, ThomasBackwardKernel, ThomasForwardKernel};
