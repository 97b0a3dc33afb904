//! # mp-runtime — message-passing substrate
//!
//! Two interchangeable backends behind one mental model (MPI-style tagged
//! point-to-point messages between `p` ranks):
//!
//! * [`threaded`] — real execution, one OS thread per rank over lock-free
//!   per-(sender, receiver) SPSC rings; proves functional correctness of
//!   the sweep engines.
//! * [`sim`] — a discrete-event simulator that charges virtual time for the
//!   exact same schedules, using the Hockney-style constants of an
//!   [`mp_core::cost::CostModel`]; produces the performance curves (the
//!   evaluation in the paper ran on an 81-CPU Origin 2000, which we
//!   substitute with this model).
//!
//! The constants themselves come from one machine description — a
//! [`mp_core::cost::CostModel`] — which can be a preset or *measured on
//! the host* by the microbenchmarks in [`calibrate`] (`mpart calibrate`
//! writes the result to `calibration.json`; [`calibrate::load_profile`]
//! resolves which model a run uses).
//!
//! [`comm::Communicator`] is the trait the functional engines program
//! against; its two collectives (barrier and sum allreduce) are provided on
//! top of send/recv.
//!
//! Threaded runs feed the unified telemetry layer in [`mp_trace`]: install
//! a [`mp_trace::SweepRecorder`] on a [`ThreadedComm`] (its `trace` field;
//! sends and blocking receives are instrumented, and sweep engines add
//! compute/pack spans through [`Communicator::tracer`]) to get a
//! [`mp_trace::TraceFile`] exportable as Perfetto-loadable Chrome JSON. A
//! traced simulation records its intervals as [`SimEvent`]s
//! ([`SimNet::events`]).
//!
//! Threaded runs are failure-bounded rather than hang-prone: blocking
//! receives honor a configurable deadline (`MP_COMM_TIMEOUT_MS`), the
//! first rank to unwind poisons the shared [`state::RunState`] so every
//! peer fails fast with a typed [`comm::CommError`] instead of
//! deadlocking, and a deterministic fault-injection shim
//! ([`fault::FaultPlan`], `MP_FAULT`) drills exactly those paths. See
//! `docs/guide/robustness.md` for the failure-mode table and
//! [`threaded::run_threaded_result`] for the non-panicking entry point.

#![warn(missing_docs)]

pub mod calibrate;
pub mod comm;
pub mod fault;
mod ring;
pub mod sim;
pub mod state;
pub mod threaded;

pub use calibrate::{
    calibrate_transport, load_profile, profile_from_json, profile_to_json, read_profile,
    write_profile, CalibrationError, CalibrationOpts, TransportFit, CALIBRATION_ENV,
};
pub use comm::{CommError, CommErrorKind, Communicator, SerialComm, Tag};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use sim::{SimEvent, SimNet, SimStats};
pub use state::RunState;
pub use threaded::{
    deadline_from_env, panic_payload_message, run_threaded, run_threaded_result, RankFailure,
    RunOpts, ThreadedComm,
};
