//! The message-passing interface the sweep engines program against.
//!
//! Deliberately MPI-shaped but minimal: tagged point-to-point `f64` messages
//! plus the two collectives the solvers call (a barrier and a sum
//! allreduce), built on top. Payloads are `Vec<f64>` because
//! every message in a line-sweep code is a packed hyper-surface of field
//! values.

use mp_trace::SweepRecorder;
use std::time::Duration;

/// Message tag. Tags at or above [`RESERVED_TAG_BASE`] are reserved for the
/// collectives provided by this crate.
pub type Tag = u64;

/// First tag reserved for internal collectives.
pub const RESERVED_TAG_BASE: Tag = 1 << 62;

/// Why a bounded receive gave up (see [`CommError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommErrorKind {
    /// The deadline elapsed with no matching message. The awaited sender
    /// may be slow, partitioned, or wedged — but it has not been observed
    /// to fail.
    Timeout,
    /// The run was poisoned: the contained rank unwound (panic or injected
    /// fault), so the awaited message can never arrive.
    RankFailed(u64),
}

/// A failed bounded receive: which message was being waited for, for how
/// long, and why the wait ended. Returned by
/// [`Communicator::recv_deadline`]; the infallible [`Communicator::recv`]
/// raises the same value as a panic payload so that un-plumbed callers
/// unwind (and poison the run) instead of hanging.
#[derive(Debug, Clone, PartialEq)]
pub struct CommError {
    /// Rank the message was awaited from.
    pub from: u64,
    /// Message tag awaited.
    pub tag: Tag,
    /// How long the receiver actually waited before giving up.
    pub waited: Duration,
    /// Why the wait ended.
    pub kind: CommErrorKind,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            CommErrorKind::Timeout => write!(
                f,
                "timeout waiting for (from {}, tag {}) after {:.1?}",
                self.from, self.tag, self.waited
            ),
            CommErrorKind::RankFailed(r) => write!(
                f,
                "rank {r} failed while waiting for (from {}, tag {}) after {:.1?}",
                self.from, self.tag, self.waited
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Point-to-point message-passing endpoint for one rank.
///
/// Semantics: `send` is asynchronous (buffered, never blocks on the
/// receiver); `recv` blocks until a matching `(from, tag)` message arrives.
/// Messages between a fixed `(sender, receiver, tag)` triple are delivered
/// in send order.
pub trait Communicator {
    /// This endpoint's rank in `0..size`.
    fn rank(&self) -> u64;

    /// Number of ranks.
    fn size(&self) -> u64;

    /// Send `payload` to `to` with `tag`.
    fn send(&mut self, to: u64, tag: Tag, payload: Vec<f64>);

    /// Block until a message with `tag` from `from` arrives; return its
    /// payload.
    ///
    /// Backends with bounded waiting (the threaded backend) implement this
    /// on top of [`Communicator::recv_deadline`] with the endpoint's
    /// configured deadline (`MP_COMM_TIMEOUT_MS`, default off) and raise
    /// the resulting [`CommError`] as a panic payload on failure — a
    /// deadline or rank failure turns a would-be hang into an unwind that
    /// poisons the run.
    fn recv(&mut self, from: u64, tag: Tag) -> Vec<f64>;

    /// Bounded blocking receive: wait at most `deadline` (`None` = forever)
    /// for a message with `tag` from `from`.
    ///
    /// Returns `Err` with a typed [`CommError`] when the deadline elapses
    /// ([`CommErrorKind::Timeout`]) or the run is poisoned by another
    /// rank's failure ([`CommErrorKind::RankFailed`]) — instead of hanging
    /// all `p` ranks on a message that will never arrive. Backends without
    /// bounded waiting keep the default, which ignores the deadline and
    /// delegates to the (potentially forever-blocking) [`Communicator::recv`].
    fn recv_deadline(
        &mut self,
        from: u64,
        tag: Tag,
        _deadline: Option<Duration>,
    ) -> Result<Vec<f64>, CommError> {
        Ok(self.recv(from, tag))
    }

    /// The telemetry recorder attached to this endpoint, if tracing is
    /// enabled. Instrumented callers (the sweep executors, the NAS
    /// drivers) check this once per span site: `None` means telemetry is
    /// off and the caller must not even read the clock — that is the
    /// zero-overhead contract. Backends without telemetry keep the
    /// default (always `None`).
    fn tracer(&mut self) -> Option<&mut SweepRecorder> {
        None
    }

    /// Take an empty buffer to assemble the next `send` payload in,
    /// drawing from the endpoint's recycle pool when it keeps one. The
    /// returned buffer is empty but may carry capacity from an earlier
    /// recycled message. Default: a fresh allocation.
    fn take_send_buffer(&mut self) -> Vec<f64> {
        Vec::new()
    }

    /// Hand a consumed payload back to the endpoint so a later
    /// [`Communicator::take_send_buffer`] can reuse its allocation.
    /// Default: drop it.
    fn recycle(&mut self, _buf: Vec<f64>) {}

    /// Pre-size the endpoint's send-buffer pool for the message lengths a
    /// compiled plan will send, so steady-state execution never allocates.
    /// Called once at plan-build time with the distinct expected lengths
    /// (in elements). Default: no-op — endpoints without a pool ignore it.
    fn reserve_buffers(&mut self, _sizes: &[usize]) {}

    /// Synchronize all ranks.
    fn barrier(&mut self) {
        // Dissemination barrier on top of send/recv: ⌈log2 p⌉ rounds.
        let p = self.size();
        if p <= 1 {
            return;
        }
        let me = self.rank();
        let mut dist = 1u64;
        let mut round = 0u64;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist % p) % p;
            let tag = RESERVED_TAG_BASE + round;
            self.send(to, tag, Vec::new());
            let _ = self.recv(from, tag);
            dist *= 2;
            round += 1;
        }
    }

    /// Element-wise sum across all ranks; every rank receives the result.
    fn allreduce_sum(&mut self, values: &[f64]) -> Vec<f64> {
        let p = self.size();
        let me = self.rank();
        let mut acc = values.to_vec();
        if p <= 1 {
            return acc;
        }
        let tag_up = RESERVED_TAG_BASE + 100;
        let tag_down = RESERVED_TAG_BASE + 101;
        // Gather to rank 0.
        if me == 0 {
            for from in 1..p {
                let part = self.recv(from, tag_up);
                assert_eq!(part.len(), acc.len(), "allreduce length mismatch");
                for (a, b) in acc.iter_mut().zip(part.iter()) {
                    *a += b;
                }
            }
            for to in 1..p {
                self.send(to, tag_down, acc.clone());
            }
            acc
        } else {
            self.send(0, tag_up, acc);
            self.recv(0, tag_down)
        }
    }
}

/// A single-rank communicator: everything is a no-op; sending to yourself is
/// an error (line-sweep schedules never self-send). Useful for serial
/// reference runs through the same code paths.
#[derive(Debug, Default)]
pub struct SerialComm;

impl Communicator for SerialComm {
    fn rank(&self) -> u64 {
        0
    }

    fn size(&self) -> u64 {
        1
    }

    fn send(&mut self, _to: u64, _tag: Tag, _payload: Vec<f64>) {
        panic!("SerialComm cannot send: only one rank exists");
    }

    fn recv(&mut self, _from: u64, _tag: Tag) -> Vec<f64> {
        panic!("SerialComm cannot recv: only one rank exists");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_comm_trivial_collectives() {
        let mut c = SerialComm;
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        c.barrier(); // no-op
        assert_eq!(c.allreduce_sum(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "only one rank")]
    fn serial_comm_send_panics() {
        SerialComm.send(0, 1, vec![]);
    }
}
