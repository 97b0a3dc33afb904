//! The per-rank event recorder and its aggregate statistics.
//!
//! One [`SweepRecorder`] belongs to exactly one rank and is only ever
//! touched by that rank's thread through `&mut` — the hot path is a plain
//! `Vec` push plus a few integer adds, with no locks, no atomics, and no
//! sharing (lock-free by construction: single writer, exclusive access).
//! Cross-rank aggregation happens *after* the run, by value, when the
//! per-rank recorders are collected into a [`crate::TraceFile`].
//!
//! When telemetry is disabled there is no recorder at all: every
//! instrumentation site sits behind an `Option` whose `None` branch does
//! not even read the clock, so the disabled fast path costs one branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// What one recorded interval was spent on.
///
/// The variants mirror the phases of a multipartitioned sweep: row
/// computation, blocking on a carry/halo message, packing and unpacking
/// message payloads, the (buffered, near-instant) send call itself, and
/// free-form driver stages such as `compute_rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// Sweep computation: one phase of the sweep executor, covering all of
    /// the phase's rows.
    Compute {
        /// Sweep phase index (slab ordinal in sweep order).
        phase: u64,
        /// Units of work executed in this span: the phase's tile rows.
        jobs: u64,
        /// Lines swept by those rows.
        lines: u64,
    },
    /// Blocked in `recv` waiting for a message to arrive.
    /// Covers the *whole* blocked interval; transports that wait in two
    /// stages additionally record the [`SpanKind::CommSpin`] /
    /// [`SpanKind::CommPark`] sub-spans inside it.
    CommWait {
        /// Rank the message was awaited from.
        peer: u64,
        /// Message tag.
        tag: u64,
    },
    /// Busy-wait portion of a blocked receive: the receiver polled its
    /// incoming ring without yielding the CPU. Always nested inside the
    /// enclosing [`SpanKind::CommWait`]; its duration is *not* added to
    /// [`SweepStats::comm_wait_ns`] again.
    CommSpin {
        /// Rank the message was awaited from.
        peer: u64,
        /// Message tag.
        tag: u64,
    },
    /// Parked portion of a blocked receive: the receiver gave the CPU back
    /// (`thread::park`) until a sender's doorbell woke it. Nested inside
    /// the enclosing [`SpanKind::CommWait`], like [`SpanKind::CommSpin`].
    CommPark {
        /// Rank the message was awaited from.
        peer: u64,
        /// Message tag.
        tag: u64,
    },
    /// Assembling an outgoing payload: halo face packing. Sweeps relay
    /// carry messages by move and record no pack spans.
    Pack,
    /// Scattering a received payload (halo ghost unpacking).
    Unpack,
    /// A buffered `send` call; zero-duration, recorded for its per-peer
    /// byte/message accounting.
    Send {
        /// Destination rank.
        peer: u64,
        /// `f64` elements shipped (8 bytes each).
        elements: u64,
    },
    /// A named driver stage (e.g. `compute_rhs`, `add`).
    Stage {
        /// Stage label, shown verbatim in the trace viewer.
        name: String,
    },
}

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Interval start (ns since epoch).
    pub start_ns: u64,
    /// Interval end (ns since epoch, `>= start_ns`).
    pub end_ns: u64,
    /// What the interval was spent on.
    pub kind: SpanKind,
}

/// Message/element counters towards one peer rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerStats {
    /// Messages sent to the peer.
    pub messages: u64,
    /// Total `f64` elements sent to the peer.
    pub elements: u64,
}

/// Aggregate per-rank statistics, maintained incrementally as events are
/// recorded (and recomputable from the event list alone — parsing a trace
/// back yields bitwise-identical stats).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Nanoseconds inside [`SpanKind::Compute`] spans.
    pub compute_ns: u64,
    /// Nanoseconds blocked in [`SpanKind::CommWait`] spans.
    pub comm_wait_ns: u64,
    /// Nanoseconds busy-polling inside blocked receives
    /// ([`SpanKind::CommSpin`]); a sub-split of `comm_wait_ns`, not an
    /// addition to it.
    pub comm_spin_ns: u64,
    /// Nanoseconds parked inside blocked receives
    /// ([`SpanKind::CommPark`]); the other half of the spin-vs-park split.
    pub comm_park_ns: u64,
    /// Nanoseconds inside [`SpanKind::Pack`] spans.
    pub pack_ns: u64,
    /// Nanoseconds inside [`SpanKind::Unpack`] spans.
    pub unpack_ns: u64,
    /// Nanoseconds inside [`SpanKind::Stage`] spans.
    pub stage_ns: u64,
    /// Compute nanoseconds per sweep phase (index = phase; phases from
    /// different sweeps of one run accumulate into the same slot).
    pub phase_compute_ns: Vec<u64>,
    /// Per-destination send counters, keyed by peer rank.
    pub sent: BTreeMap<u64, PeerStats>,
}

impl SweepStats {
    /// Fold one event into the aggregates. [`SweepRecorder`] calls this on
    /// every push; the trace parser calls it when replaying a file, so both
    /// paths produce identical stats.
    pub fn apply(&mut self, ev: &TraceEvent) {
        let dur = ev.end_ns - ev.start_ns;
        match &ev.kind {
            SpanKind::Compute { phase, .. } => {
                self.compute_ns += dur;
                let idx = *phase as usize;
                if self.phase_compute_ns.len() <= idx {
                    self.phase_compute_ns.resize(idx + 1, 0);
                }
                self.phase_compute_ns[idx] += dur;
            }
            SpanKind::CommWait { .. } => self.comm_wait_ns += dur,
            SpanKind::CommSpin { .. } => self.comm_spin_ns += dur,
            SpanKind::CommPark { .. } => self.comm_park_ns += dur,
            SpanKind::Pack => self.pack_ns += dur,
            SpanKind::Unpack => self.unpack_ns += dur,
            SpanKind::Stage { .. } => self.stage_ns += dur,
            SpanKind::Send { peer, elements } => {
                let s = self.sent.entry(*peer).or_default();
                s.messages += 1;
                s.elements += elements;
            }
        }
    }

    /// Total messages sent (all peers).
    pub fn sent_messages(&self) -> u64 {
        self.sent.values().map(|s| s.messages).sum()
    }

    /// Total `f64` elements sent (all peers).
    pub fn sent_elements(&self) -> u64 {
        self.sent.values().map(|s| s.elements).sum()
    }
}

/// Everything recorded for one rank: the identity, the event list, and the
/// running aggregates. This is what a finished [`SweepRecorder`] collapses
/// into and what [`crate::TraceFile`] stores per rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// The rank the events belong to.
    pub rank: u64,
    /// Recorded intervals, in recording order.
    pub events: Vec<TraceEvent>,
    /// Aggregates over `events`.
    pub stats: SweepStats,
}

impl RankTrace {
    /// A trace for `rank` from raw events, with stats recomputed from them.
    pub fn from_events(rank: u64, events: Vec<TraceEvent>) -> Self {
        let mut stats = SweepStats::default();
        for ev in &events {
            stats.apply(ev);
        }
        RankTrace {
            rank,
            events,
            stats,
        }
    }
}

/// Per-rank telemetry recorder.
///
/// Timestamps are `Instant`s converted to nanosecond offsets from the
/// recorder's `epoch`; create all ranks' recorders from one shared epoch
/// ([`SweepRecorder::with_epoch`]) so their timelines align in the exported
/// trace.
///
/// ```
/// use mp_trace::{SpanKind, SweepRecorder};
/// use std::time::Instant;
/// let epoch = Instant::now();
/// let mut rec = SweepRecorder::with_epoch(3, epoch);
/// let t0 = Instant::now();
/// // ... do some block computation ...
/// rec.push_span(
///     SpanKind::Compute { phase: 0, jobs: 4, lines: 64 },
///     t0,
///     Instant::now(),
/// );
/// rec.record_send(1, 640);
/// assert_eq!(rec.stats().sent_elements(), 640);
/// assert_eq!(rec.events().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SweepRecorder {
    rank: u64,
    epoch: Instant,
    events: Vec<TraceEvent>,
    stats: SweepStats,
}

impl SweepRecorder {
    /// Recorder for `rank` with its own epoch (now). Use
    /// [`SweepRecorder::with_epoch`] when tracing multiple ranks.
    pub fn new(rank: u64) -> Self {
        Self::with_epoch(rank, Instant::now())
    }

    /// Recorder for `rank` whose timeline starts at `epoch` (shared across
    /// ranks for aligned traces).
    pub fn with_epoch(rank: u64, epoch: Instant) -> Self {
        SweepRecorder {
            rank,
            epoch,
            events: Vec::new(),
            stats: SweepStats::default(),
        }
    }

    /// The rank this recorder belongs to.
    pub fn rank(&self) -> u64 {
        self.rank
    }

    /// The instant all event timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span of `kind` between two instants (clamped to the epoch;
    /// `end < start` records a zero-duration span rather than panicking).
    pub fn push_span(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        let start_ns = self.ns_since_epoch(start);
        let end_ns = self.ns_since_epoch(end).max(start_ns);
        let ev = TraceEvent {
            start_ns,
            end_ns,
            kind,
        };
        self.stats.apply(&ev);
        self.events.push(ev);
    }

    /// Record a [`SpanKind::Compute`] span ending now.
    pub fn compute(&mut self, start: Instant, phase: u64, jobs: u64, lines: u64) {
        self.push_span(
            SpanKind::Compute { phase, jobs, lines },
            start,
            Instant::now(),
        );
    }

    /// Record a [`SpanKind::CommWait`] span ending now.
    pub fn comm_wait(&mut self, start: Instant, peer: u64, tag: u64) {
        self.push_span(SpanKind::CommWait { peer, tag }, start, Instant::now());
    }

    /// Record a [`SpanKind::CommSpin`] span ending now (the busy-poll
    /// stage of a blocked receive; record it the moment polling stops,
    /// whether a message arrived or the receiver moves on to parking).
    pub fn comm_spin(&mut self, start: Instant, peer: u64, tag: u64) {
        self.push_span(SpanKind::CommSpin { peer, tag }, start, Instant::now());
    }

    /// Record a [`SpanKind::CommPark`] span ending now (the parked stage
    /// of a blocked receive, from first park to wakeup-with-message).
    pub fn comm_park(&mut self, start: Instant, peer: u64, tag: u64) {
        self.push_span(SpanKind::CommPark { peer, tag }, start, Instant::now());
    }

    /// Record a [`SpanKind::Pack`] span ending now.
    pub fn pack(&mut self, start: Instant) {
        self.push_span(SpanKind::Pack, start, Instant::now());
    }

    /// Record a [`SpanKind::Unpack`] span ending now.
    pub fn unpack(&mut self, start: Instant) {
        self.push_span(SpanKind::Unpack, start, Instant::now());
    }

    /// Record a named [`SpanKind::Stage`] span ending now.
    pub fn stage(&mut self, start: Instant, name: impl Into<String>) {
        self.push_span(SpanKind::Stage { name: name.into() }, start, Instant::now());
    }

    /// Record a plan-build span ending now (a [`SpanKind::Stage`] named
    /// `"plan_build"`), keeping one-time compilation cost separate from the
    /// per-timestep execute spans so amortization is visible in the trace.
    pub fn plan_build(&mut self, start: Instant) {
        self.stage(start, "plan_build");
    }

    /// Record a zero-duration [`SpanKind::Send`] event now, counting one
    /// message of `elements` elements towards `peer`.
    pub fn record_send(&mut self, peer: u64, elements: u64) {
        let now = Instant::now();
        self.push_span(SpanKind::Send { peer, elements }, now, now);
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Aggregates over the recorded events.
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// Collapse into the rank's immutable trace.
    pub fn into_trace(self) -> RankTrace {
        RankTrace {
            rank: self.rank,
            events: self.events,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ev(start_ns: u64, end_ns: u64, kind: SpanKind) -> TraceEvent {
        TraceEvent {
            start_ns,
            end_ns,
            kind,
        }
    }

    #[test]
    fn stats_accumulate_by_kind() {
        let mut s = SweepStats::default();
        s.apply(&ev(
            0,
            100,
            SpanKind::Compute {
                phase: 2,
                jobs: 3,
                lines: 9,
            },
        ));
        s.apply(&ev(100, 150, SpanKind::CommWait { peer: 1, tag: 7 }));
        // Spin/park sub-spans split the wait without double-counting it.
        s.apply(&ev(100, 120, SpanKind::CommSpin { peer: 1, tag: 7 }));
        s.apply(&ev(120, 150, SpanKind::CommPark { peer: 1, tag: 7 }));
        s.apply(&ev(150, 160, SpanKind::Pack));
        s.apply(&ev(160, 180, SpanKind::Unpack));
        s.apply(&ev(180, 190, SpanKind::Stage { name: "rhs".into() }));
        s.apply(&ev(
            190,
            190,
            SpanKind::Send {
                peer: 1,
                elements: 40,
            },
        ));
        s.apply(&ev(
            190,
            190,
            SpanKind::Send {
                peer: 2,
                elements: 2,
            },
        ));
        assert_eq!(s.compute_ns, 100);
        assert_eq!(s.comm_wait_ns, 50);
        assert_eq!(s.comm_spin_ns, 20);
        assert_eq!(s.comm_park_ns, 30);
        assert_eq!(s.pack_ns, 10);
        assert_eq!(s.unpack_ns, 20);
        assert_eq!(s.stage_ns, 10);
        assert_eq!(s.phase_compute_ns, vec![0, 0, 100]);
        assert_eq!(s.sent_messages(), 2);
        assert_eq!(s.sent_elements(), 42);
        assert_eq!(s.sent[&1].messages, 1);
    }

    #[test]
    fn recorder_spans_and_counters() {
        let epoch = Instant::now();
        let mut r = SweepRecorder::with_epoch(5, epoch);
        assert_eq!(r.rank(), 5);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        r.compute(t0, 0, 2, 10);
        r.record_send(1, 100);
        r.record_send(1, 50);
        assert_eq!(r.events().len(), 3);
        assert!(r.stats().compute_ns >= 1_000_000, "slept ≥ 1 ms");
        assert_eq!(r.stats().sent[&1].messages, 2);
        assert_eq!(r.stats().sent[&1].elements, 150);
        let tr = r.into_trace();
        assert_eq!(tr.rank, 5);
        // Stats recomputed from the events must match the incremental ones.
        let re = RankTrace::from_events(tr.rank, tr.events.clone());
        assert_eq!(re.stats, tr.stats);
    }

    #[test]
    fn pre_epoch_and_inverted_spans_clamp() {
        let epoch = Instant::now() + Duration::from_secs(1000);
        let mut r = SweepRecorder::with_epoch(0, epoch);
        // Both instants precede the epoch → clamped to 0-length at 0.
        let t = Instant::now();
        r.push_span(SpanKind::Pack, t, t);
        assert_eq!(r.events()[0].start_ns, 0);
        assert_eq!(r.events()[0].end_ns, 0);
        // end < start → zero duration, not a panic or underflow.
        let mut r = SweepRecorder::new(0);
        let late = Instant::now() + Duration::from_millis(10);
        r.push_span(SpanKind::Unpack, late, Instant::now());
        let e = &r.events()[0];
        assert_eq!(e.start_ns, e.end_ns);
    }
}
