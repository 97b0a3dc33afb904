//! # mp-nasbt — a simplified NAS BT benchmark on multipartitionings
//!
//! NAS **BT** is the second NAS benchmark parallelized with
//! multipartitioning (the dHPF work the paper builds on targets both SP and
//! BT). BT's line solves are **block tridiagonal** with 5×5 blocks coupling
//! the five flow variables — same sweep schedule as SP, but every per-line
//! carry is a 5×5 matrix plus a 5-vector (30 floats), making the sweeps'
//! communication an order of magnitude heavier.
//!
//! This crate is an *extension* beyond the paper's own evaluation (which
//! measures SP only): it demonstrates that the multipartitioned executor,
//! the kernel interface, and the simulator generalize unchanged to block
//! systems.
//!
//! * [`problem`] — the simplified BT physics and its 5×5 block coefficients;
//! * [`serial`] / [`parallel`] — bit-identical reference and distributed
//!   implementations (35 fields per tile: 5 components with halos, 5 right-
//!   hand sides, 25 elimination scratch fields; the distributed solver
//!   takes its forcing from per-axis tables);
//! * [`simulate`] — discrete-event performance runs.

#![warn(missing_docs)]

pub mod parallel;
pub mod problem;
pub mod serial;
pub mod simulate;

pub use parallel::ParallelBt;
pub use problem::{BtProblem, NCOMP};
pub use serial::SerialBt;
pub use simulate::{simulate_bt, BtSimResult, BtWorkFactors, BT_CARRY_PER_LINE};
