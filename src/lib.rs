//! # multipartition — generalized multipartitioning for multi-dimensional arrays
//!
//! A full reproduction of *"Generalized Multipartitioning for
//! Multi-dimensional Arrays"* (Darte, Chavarría-Miranda, Fowler,
//! Mellor-Crummey; IPPS 2002) as a Rust workspace. This umbrella crate
//! re-exports the member crates:
//!
//! * [`core`] (`mp-core`) — partitioning theory: the §3.1 cost model, the
//!   Figure 2 elementary-partitioning generator, the optimal-partitioning
//!   search, the Figure 3 modular-mapping construction, and the
//!   [`core::multipart::Multipartitioning`] object with sweep plans.
//! * [`grid`] (`mp-grid`) — dense multi-dimensional array substrate: shapes,
//!   tiles, halos, per-rank storage.
//! * [`runtime`] (`mp-runtime`) — message-passing substrate: a threaded
//!   functional backend and a discrete-event performance simulator.
//! * [`sweep`] (`mp-sweep`) — the line-sweep engine: tridiagonal,
//!   pentadiagonal and block-tridiagonal solvers, the multipartitioned
//!   executor, and simulation drivers for it and the wavefront/transpose
//!   baselines.
//! * [`nassp`] (`mp-nassp`) — a simplified NAS SP benchmark reproducing the
//!   paper's Table 1 evaluation.
//! * [`nasbt`] (`mp-nasbt`) — a simplified NAS BT benchmark: 5×5
//!   block-tridiagonal line solves on the same multipartitioned engine.
//! * [`hpf`] (`mp-hpf`) — a miniature HPF directive front-end compiled to
//!   multipartitioning plans (the paper's §5 compiler integration).
//!
//! ## Quickstart
//!
//! ```
//! use multipartition::prelude::*;
//!
//! // Optimal generalized multipartitioning: 3-D, 102³ elements, 50 CPUs.
//! let mp = Multipartitioning::optimal(50, &[102, 102, 102], &CostModel::origin2000_like());
//! assert_eq!(mp.tiles_of(0).len() as u64, mp.partitioning.tiles_per_proc(50));
//! mp.verify().expect("balance + neighbor properties hold");
//! ```
//!
//! See `examples/` for runnable demos and `crates/bench` for the
//! experiment harness regenerating every table and figure of the paper.

#![warn(missing_docs)]

pub use mp_core as core;
pub use mp_grid as grid;
pub use mp_hpf as hpf;
pub use mp_nasbt as nasbt;
pub use mp_nassp as nassp;
pub use mp_runtime as runtime;
pub use mp_sweep as sweep;

/// The most commonly used items across all member crates.
pub mod prelude {
    pub use mp_core::prelude::*;
    pub use mp_grid::{ArrayD, FieldDef, HaloArray, RankStore, Region, Shape, Side, TileGrid};
    pub use mp_nasbt::{BtProblem, ParallelBt, SerialBt};
    pub use mp_nassp::{Class, ParallelSp, SerialSp, SpProblem, SpVersion};
    pub use mp_runtime::{run_threaded, Communicator, SerialComm, SimNet};
    pub use mp_sweep::{
        allocate_rank_store, FirstOrderKernel, LineSweepKernel, PrefixSumKernel, SolverPlan,
        SweepOptions,
    };
}
