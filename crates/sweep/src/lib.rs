//! # mp-sweep — the line-sweep engine
//!
//! Executes line-sweep computations over arrays distributed with the
//! multipartitionings of `mp-core`:
//!
//! * [`recurrence`] — segmented sweep kernels (prefix sums, first-order
//!   recurrences) and the [`recurrence::LineSweepKernel`] trait, whose one
//!   blocked method sweeps a [`mp_grid::Lanes`] view: packed line-minor
//!   scratch, or tile storage in place for every phase whose swept
//!   dimension is not the tile's last axis;
//! * [`thomas`] — tridiagonal solvers: serial Thomas plus the forward
//!   elimination / back substitution kernels that turn a distributed
//!   tridiagonal solve into two directional sweeps;
//! * [`executor`] — the functional multipartitioned sweep executor
//!   (options, blocked job runners, halo exchange);
//! * [`compiled`] — build-once / execute-many sweep plans and the paper's
//!   phase loop (one aggregated carry message per phase boundary):
//!   [`compiled::CompiledSweep`] and the driver-level
//!   [`compiled::SolverPlan`], which caches one plan per `(dim,
//!   direction)` plus the halo schedule;
//! * [`simd`] — lane-vectorized (AVX2) fast paths for the hot kernels with
//!   plan-time runtime dispatch, bitwise identical to the scalar paths;
//! * [`baselines`] — the two classical alternatives the paper positions
//!   against: static block unipartitioning with wavefront pipelining, and
//!   dynamic block partitioning with transposes;
//! * [`simulate`] — timing drivers that replay the same schedules on the
//!   discrete-event simulator of `mp-runtime`;
//! * [`calibrate`] — host calibration of the kernels + transport into a
//!   measured [`mp_core::machine::MachineProfile`];
//! * [`verify`] — serial references for bit-exact validation.

#![warn(missing_docs)]

pub mod baselines;
pub mod batch;
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

pub use batch::BatchedKernel;
pub use block::{block_thomas_solve, BlockCoeffs, BlockTriBackwardKernel, BlockTriForwardKernel};
pub use calibrate::{calibrate_host, k1_key, CALIBRATION_BLOCK_WIDTH};
pub use compiled::{CompiledSweep, PlanKey, SolverPlan, SweepError};
pub use executor::{allocate_rank_store, exchange_halos_planned, SweepOptions};
pub use penta::{penta_solve, PentaBackwardKernel, PentaForwardKernel};
pub use recurrence::{
    per_line_sweep_lanes, FirstOrderKernel, LineSweepKernel, PrefixSumKernel, SegmentCtx,
};
pub use simd::{SimdLevel, SimdMode};
pub use thomas::{thomas_solve, ThomasBackwardKernel, ThomasForwardKernel};
