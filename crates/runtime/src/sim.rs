//! Discrete-event performance simulator.
//!
//! Why simulate: the paper's Table 1 measures NAS SP on up to 81 CPUs of an
//! SGI Origin 2000. This repository runs in a single-core container, so
//! wall-clock speedup is unmeasurable natively; instead, the sweep engines
//! re-play their exact communication schedules against a virtual machine
//! (an [`mp_core::cost::CostModel`], a preset or a calibration file) and
//! report *virtual* makespans. The schedules, message sizes, and per-phase
//! work are identical to what the threaded backend executes, so the
//! simulated curves inherit the real algorithmic structure (pipeline
//! fill/drain, phase counts, aggregated message volumes).
//!
//! The model is a per-rank virtual clock plus causality through messages:
//!
//! * `compute(rank, n)` advances `rank`'s clock by `n · K1`;
//! * `send(from, to, tag, n)` charges the sender `α` of overhead and
//!   deposits the message with arrival time `clock_from + α + n·K3(p)`;
//! * `recv(to, from, tag)` advances the receiver to at least the arrival
//!   time (blocking wait).
//!
//! The *driver* (a sweep engine) must issue each `send` before the matching
//! `recv`, which is natural for the deterministic phase-ordered schedules
//! produced from `mp-core` plans.

use mp_core::cost::CostModel;
use std::collections::{HashMap, VecDeque};

/// Aggregate statistics of a simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Point-to-point messages delivered.
    pub messages: u64,
    /// Total elements transferred.
    pub elements: u64,
    /// Barriers executed.
    pub barriers: u64,
}

/// One recorded interval of simulated activity (tracing must be enabled
/// with [`SimNet::enable_trace`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// Local computation.
    Compute {
        /// Acting rank.
        rank: u64,
        /// Interval start (virtual seconds).
        start: f64,
        /// Interval end.
        end: f64,
    },
    /// Send-side overhead (α).
    Send {
        /// Sending rank.
        rank: u64,
        /// Interval start.
        start: f64,
        /// Interval end.
        end: f64,
    },
    /// Blocked in `recv` waiting for a message to arrive.
    Wait {
        /// Waiting rank.
        rank: u64,
        /// Interval start.
        start: f64,
        /// Interval end (the message's arrival).
        end: f64,
    },
}

/// The simulated network + clocks.
///
/// ```
/// use mp_core::cost::CostModel;
/// use mp_runtime::SimNet;
/// let mut net = SimNet::new(2, CostModel::origin2000_like());
/// net.compute(0, 1_000_000);      // rank 0 works
/// net.send(0, 1, 0, 10_000);      // then ships a hyperplane
/// net.recv(1, 0, 0);              // rank 1 blocks until arrival
/// assert!(net.clock(1) > net.clock(0));
/// assert_eq!(net.stats.messages, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SimNet {
    model: CostModel,
    p: u64,
    clocks: Vec<f64>,
    /// Seconds each rank spent computing (what [`SimNet::utilization`] reads).
    compute: Vec<f64>,
    mailbox: HashMap<(u64, u64, u64), VecDeque<(f64, u64)>>,
    trace: Option<Vec<SimEvent>>,
    /// Aggregate counters.
    pub stats: SimStats,
}

impl SimNet {
    /// New simulation with all clocks at zero, charging time with the
    /// given §3.1 constants (a preset, or a model measured by
    /// [`crate::calibrate`]).
    pub fn new(p: u64, model: CostModel) -> Self {
        assert!(p >= 1);
        SimNet {
            model,
            p,
            clocks: vec![0.0; p as usize],
            compute: vec![0.0; p as usize],
            mailbox: HashMap::new(),
            trace: None,
            stats: SimStats::default(),
        }
    }

    /// Start recording per-interval [`SimEvent`]s (off by default — traces
    /// of large runs are big).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Recorded events (empty unless tracing was enabled).
    pub fn events(&self) -> &[SimEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Number of simulated ranks.
    pub fn size(&self) -> u64 {
        self.p
    }

    /// The machine description (cost model) in force.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Charge `rank` with compute for `elements` element-sweep operations.
    pub fn compute(&mut self, rank: u64, elements: u64) {
        self.compute_seconds(rank, self.model.compute_time(elements));
    }

    /// Charge `rank` with raw seconds of local work.
    pub fn compute_seconds(&mut self, rank: u64, seconds: f64) {
        assert!(seconds >= 0.0);
        let start = self.clocks[rank as usize];
        self.clocks[rank as usize] += seconds;
        self.compute[rank as usize] += seconds;
        if seconds > 0.0 {
            if let Some(tr) = &mut self.trace {
                tr.push(SimEvent::Compute {
                    rank,
                    start,
                    end: start + seconds,
                });
            }
        }
    }

    /// Send `elements` from `from` to `to` under `tag`.
    ///
    /// # Panics
    /// Panics on self-sends or out-of-range ranks.
    pub fn send(&mut self, from: u64, to: u64, tag: u64, elements: u64) {
        assert!(from < self.p && to < self.p);
        assert_ne!(from, to, "self-sends make no sense in a sweep schedule");
        let overhead = self.model.k2;
        let start = self.clocks[from as usize];
        self.clocks[from as usize] += overhead;
        if let Some(tr) = &mut self.trace {
            tr.push(SimEvent::Send {
                rank: from,
                start,
                end: start + overhead,
            });
        }
        let arrival = self.clocks[from as usize] + elements as f64 * self.model.k3_at(self.p);
        self.mailbox
            .entry((from, to, tag))
            .or_default()
            .push_back((arrival, elements));
        self.stats.messages += 1;
        self.stats.elements += elements;
    }

    /// Receive the oldest matching message; blocks (advances the clock) to
    /// its arrival time. Returns the element count.
    ///
    /// # Panics
    /// Panics if no matching message was ever sent — with a deterministic
    /// driver that is a schedule bug, not a race.
    pub fn recv(&mut self, to: u64, from: u64, tag: u64) -> u64 {
        let q = self
            .mailbox
            .get_mut(&(from, to, tag))
            .unwrap_or_else(|| panic!("recv({to} ← {from}, tag {tag}): nothing sent"));
        let (arrival, elements) = q
            .pop_front()
            .unwrap_or_else(|| panic!("recv({to} ← {from}, tag {tag}): queue empty"));
        let start = self.clocks[to as usize];
        if arrival > start {
            self.clocks[to as usize] = arrival;
            if let Some(tr) = &mut self.trace {
                tr.push(SimEvent::Wait {
                    rank: to,
                    start,
                    end: arrival,
                });
            }
        }
        elements
    }

    /// Simulate an allreduce over all ranks (binomial-tree cost model:
    /// `2·⌈log₂ p⌉` rounds of α plus the payload transfer per round, and a
    /// full synchronization — every clock ends at the same value).
    pub fn allreduce(&mut self, elements: u64) {
        let p = self.p;
        if p <= 1 {
            return;
        }
        let rounds = 2 * (64 - (p - 1).leading_zeros()) as u64; // 2·⌈log2 p⌉
        let per_round = self.model.message_time(p, elements);
        let finish = self.makespan() + rounds as f64 * per_round;
        self.clocks.fill(finish);
        self.stats.messages += rounds * p;
        self.stats.elements += rounds * p * elements;
        self.stats.barriers += 1;
    }

    /// Synchronize: every clock jumps to the current maximum.
    pub fn barrier(&mut self) {
        let max = self.makespan();
        self.clocks.fill(max);
        self.stats.barriers += 1;
    }

    /// Current virtual time of one rank.
    pub fn clock(&self, rank: u64) -> f64 {
        self.clocks[rank as usize]
    }

    /// The latest clock — the simulated elapsed time of the whole run.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Per-rank utilization: fraction of the makespan spent computing.
    pub fn utilization(&self) -> Vec<f64> {
        let span = self.makespan();
        if span == 0.0 {
            return vec![0.0; self.p as usize];
        }
        self.compute.iter().map(|c| c / span).collect()
    }

    /// True if every sent message has been received.
    pub fn all_delivered(&self) -> bool {
        self.mailbox.values().all(|q| q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_core::cost::BandwidthScaling;

    fn simple_machine() -> CostModel {
        CostModel {
            k1: 1.0,
            k2: 10.0,
            k3: 0.5,
            scaling: BandwidthScaling::Fixed,
        }
    }

    #[test]
    fn compute_advances_clock() {
        let mut net = SimNet::new(2, simple_machine());
        net.compute(0, 5);
        assert_eq!(net.clock(0), 5.0);
        assert_eq!(net.clock(1), 0.0);
        assert_eq!(net.makespan(), 5.0);
    }

    #[test]
    fn message_latency_and_transfer() {
        let mut net = SimNet::new(2, simple_machine());
        // send at t=0: sender advances to 10 (α), arrival = 10 + 4·0.5 = 12.
        net.send(0, 1, 7, 4);
        assert_eq!(net.clock(0), 10.0);
        let n = net.recv(1, 0, 7);
        assert_eq!(n, 4);
        assert_eq!(net.clock(1), 12.0);
        assert!(net.all_delivered());
        assert_eq!(net.stats.messages, 1);
        assert_eq!(net.stats.elements, 4);
    }

    #[test]
    fn recv_does_not_rewind_clock() {
        let mut net = SimNet::new(2, simple_machine());
        net.send(0, 1, 0, 0); // arrival at 10
        net.compute(1, 100); // receiver already at 100
        net.recv(1, 0, 0);
        assert_eq!(net.clock(1), 100.0);
    }

    #[test]
    fn fifo_order_same_edge() {
        let mut net = SimNet::new(2, simple_machine());
        net.send(0, 1, 3, 1);
        net.send(0, 1, 3, 2);
        assert_eq!(net.recv(1, 0, 3), 1);
        assert_eq!(net.recv(1, 0, 3), 2);
    }

    #[test]
    fn barrier_synchronizes() {
        let mut net = SimNet::new(3, simple_machine());
        net.compute(0, 50);
        net.compute(2, 20);
        net.barrier();
        for r in 0..3 {
            assert_eq!(net.clock(r), 50.0);
        }
        assert_eq!(net.stats.barriers, 1);
    }

    #[test]
    fn scalable_bandwidth_speeds_transfers() {
        let m = CostModel {
            scaling: BandwidthScaling::Scalable,
            ..simple_machine()
        };
        let mut net = SimNet::new(10, m);
        net.send(0, 1, 0, 100);
        net.recv(1, 0, 0);
        // arrival = 10 + 100·(0.5/10) = 15
        assert!((net.clock(1) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn pipeline_critical_path() {
        // 3-rank pipeline: each computes 10 then forwards a 0-elem token.
        // Critical path: r0 compute(10)+α(10) → r1 waits till 20, computes
        // 10, +α → r2 waits till 40, computes 10 → makespan 50.
        let mut net = SimNet::new(3, simple_machine());
        net.compute(0, 10);
        net.send(0, 1, 0, 0);
        net.recv(1, 0, 0);
        net.compute(1, 10);
        net.send(1, 2, 0, 0);
        net.recv(2, 1, 0);
        net.compute(2, 10);
        assert_eq!(net.makespan(), 50.0);
    }

    #[test]
    fn utilization_and_events() {
        let mut net = SimNet::new(2, simple_machine());
        net.enable_trace();
        net.compute(0, 10);
        net.send(0, 1, 0, 2);
        net.recv(1, 0, 0);
        let util = net.utilization();
        assert!(util[0] > 0.0 && util[0] <= 1.0);
        assert_eq!(util[1], 0.0); // rank 1 only waited
        let want = [
            SimEvent::Compute {
                rank: 0,
                start: 0.0,
                end: 10.0,
            },
            SimEvent::Send {
                rank: 0,
                start: 10.0,
                end: 20.0, // α = 10
            },
            SimEvent::Wait {
                rank: 1,
                start: 0.0,
                end: 21.0, // 20 + 2·0.5 transfer
            },
        ];
        assert_eq!(net.events(), &want);
    }

    #[test]
    fn allreduce_synchronizes_and_charges() {
        let mut net = SimNet::new(4, simple_machine());
        net.compute(0, 100);
        net.allreduce(8);
        // 2·⌈log2 4⌉ = 4 rounds of (α=10 + 8·0.5=4) = 56 past the makespan.
        for r in 0..4 {
            assert_eq!(net.clock(r), 100.0 + 56.0);
        }
        assert_eq!(net.stats.messages, 16);
        // single rank: free
        let mut net1 = SimNet::new(1, simple_machine());
        net1.allreduce(8);
        assert_eq!(net1.makespan(), 0.0);
    }

    #[test]
    fn trace_records_intervals() {
        let mut net = SimNet::new(2, simple_machine());
        assert!(net.events().is_empty());
        net.enable_trace();
        net.compute(0, 5);
        net.send(0, 1, 0, 2);
        net.recv(1, 0, 0);
        let ev = net.events();
        assert_eq!(ev.len(), 3);
        match ev[0] {
            SimEvent::Compute {
                rank: 0,
                start,
                end,
            } => {
                assert_eq!(start, 0.0);
                assert_eq!(end, 5.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match ev[1] {
            SimEvent::Send {
                rank: 0,
                start,
                end,
            } => {
                assert_eq!(start, 5.0);
                assert_eq!(end, 15.0); // α = 10
            }
            other => panic!("unexpected {other:?}"),
        }
        match ev[2] {
            SimEvent::Wait {
                rank: 1,
                start,
                end,
            } => {
                assert_eq!(start, 0.0);
                assert_eq!(end, 16.0); // 15 + 2·0.5 transfer
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_skips_instant_recv() {
        // A receiver already past the arrival time records no Wait event.
        let mut net = SimNet::new(2, simple_machine());
        net.enable_trace();
        net.send(0, 1, 0, 0);
        net.compute(1, 100);
        net.recv(1, 0, 0);
        assert!(!net
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::Wait { .. })));
    }

    #[test]
    #[should_panic(expected = "nothing sent")]
    fn recv_without_send_panics() {
        let mut net = SimNet::new(2, simple_machine());
        let _ = net.recv(1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        let mut net = SimNet::new(2, simple_machine());
        net.send(1, 1, 0, 1);
    }
}
