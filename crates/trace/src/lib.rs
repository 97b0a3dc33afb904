//! # mp-trace — sweep telemetry
//!
//! Per-rank event recording and Perfetto-loadable trace export.
//!
//! The paper's cost model (§3.1) predicts where sweep time goes —
//! `T_i(p) = K1·η/p + (γ_i−1)·λ_i` splits a sweep into block compute and
//! carry-latency terms. This crate makes that split *observable* on real
//! runs: each rank owns a [`SweepRecorder`] (single-writer, lock-free
//! by construction) that captures compute, comm-wait, pack/unpack and
//! send intervals with nanosecond timestamps, aggregates them into
//! [`SweepStats`] (per-phase compute ns, comm-wait ns, bytes/messages per
//! peer), and a [`TraceFile`] exports every rank's timeline as Chrome
//! trace-event JSON that <https://ui.perfetto.dev> loads directly.
//!
//! Design points:
//!
//! - **Zero disabled overhead.** Instrumented code holds an
//!   `Option<SweepRecorder>`; when it is `None`, the instrumentation is a
//!   single branch and the clock is never read.
//! - **Single-writer recording.** A recorder is owned by one rank's thread
//!   and mutated through `&mut` only — no locks or atomics on the hot
//!   path. Aggregation across ranks happens after the run, by value.
//! - **Exact accounting.** Send events carry message/element counts, so
//!   [`SweepStats::sent_messages`]/[`SweepStats::sent_elements`] can be
//!   checked bitwise against the runtime's own counters.
//! - **Lossless files.** Timestamps are written as microseconds with three
//!   decimals; [`TraceFile::parse_chrome_json`] recovers events and stats
//!   exactly ([`TraceFile::to_chrome_json`] round-trips).
//!
//! No external dependencies: the Chrome JSON is emitted and re-parsed with
//! the in-crate [`json`] module.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod recorder;

pub use chrome::{TraceFile, TraceParseError, LANE_COMM, LANE_COMPUTE};
pub use recorder::{PeerStats, RankTrace, SpanKind, SweepRecorder, SweepStats, TraceEvent};
