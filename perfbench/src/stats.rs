//! The benchmark's own statistics: quantiles under the sample-count rule,
//! the cross-rank makespan fold, span-gap layer attribution of one rank's
//! step, and max/mean imbalance.

use mp_trace::{SpanKind, TraceEvent};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Halo exchanges use tags in this block (SP: 10 000 + direction offset;
/// BT: 10 000 + 10·component + offset).
pub const HALO_TAGS: std::ops::Range<u64> = 10_000..20_000;

/// Sweep carries use 20 000 + 1000·dim (forward) and 30 000 + 1000·dim
/// (backward) plus the phase; collectives sit far above, at
/// `mp_runtime::comm::RESERVED_TAG_BASE`.
pub const SWEEP_TAGS: std::ops::Range<u64> = 20_000..mp_runtime::comm::RESERVED_TAG_BASE;

/// Linearly interpolated `q`-quantile (`q` in `[0, 1]`) of ascending data.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Samples above the interpolation position of the `q`-quantile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - (q * (n - 1) as f64).floor() as usize
}

/// The `q`-quantile of ascending data, or `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    (samples_beyond(sorted.len(), q) >= MIN_BEYOND).then(|| quantile(sorted, q))
}

/// The highest of p99.9/p99/p90/p50 that [`percentile`] allows, as
/// `(q, value)`.
pub fn highest_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find_map(|q| percentile(sorted, q).map(|v| (q, v)))
}

/// Median of unsorted data (no sample-count rule: callers use it for
/// per-episode values, not for a tail).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Makespan of one step from every rank's `(start, end)`: the latest end
/// minus the earliest start.
pub fn makespan(spans: &[(u64, u64)]) -> u64 {
    let start = spans.iter().map(|s| s.0).min().expect("no ranks");
    let end = spans.iter().map(|s| s.1).max().expect("no ranks");
    end - start
}

/// Max over mean of per-rank loads; 1 is perfect balance (and the value
/// when nothing was loaded at all).
pub fn imbalance(loads: &[f64]) -> f64 {
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    loads.iter().cloned().fold(f64::MIN, f64::max) / mean
}

/// One rank's time in one step, split by layer (nanoseconds).
///
/// The first eight fields partition the step: `halo_ns` is the gap from
/// `iterate` entry to the start of the `compute_rhs` stage, and every
/// other one is a sum of disjoint spans after it. The `halo_*` sub-fields
/// split that gap, and spin/park split the waits.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StepBudget {
    /// `iterate` entry to the start of `compute_rhs`.
    pub halo_ns: u64,
    /// Stage `compute_rhs`.
    pub compute_rhs_ns: u64,
    /// Stage `coeffs` (SP tridiagonal only).
    pub coeffs_ns: u64,
    /// Stage `add`.
    pub add_ns: u64,
    /// Sweep block computation.
    pub sweep_compute_ns: u64,
    /// Sweep carry packing.
    pub sweep_pack_ns: u64,
    /// Blocked on a sweep carry.
    pub carry_wait_ns: u64,
    /// Plan builds after the halo (first step only).
    pub plan_build_ns: u64,
    /// Blocked on a halo message (inside `halo_ns`).
    pub halo_wait_ns: u64,
    /// Halo face packing (inside `halo_ns`).
    pub halo_pack_ns: u64,
    /// Halo ghost unpacking (inside `halo_ns`).
    pub halo_unpack_ns: u64,
    /// Busy-polling inside blocked receives (inside the waits).
    pub spin_ns: u64,
    /// Parked inside blocked receives (inside the waits).
    pub park_ns: u64,
    /// Times a blocked receive parked.
    pub parks: u64,
}

impl StepBudget {
    /// The layers that partition a step, summed.
    pub fn attributed_ns(&self) -> u64 {
        self.halo_ns
            + self.compute_rhs_ns
            + self.coeffs_ns
            + self.add_ns
            + self.sweep_compute_ns
            + self.sweep_pack_ns
            + self.carry_wait_ns
            + self.plan_build_ns
    }

    /// Stage time (`compute_rhs` + `coeffs` + `add`).
    pub fn solver_ns(&self) -> u64 {
        self.compute_rhs_ns + self.coeffs_ns + self.add_ns
    }
}

impl std::ops::AddAssign for StepBudget {
    fn add_assign(&mut self, o: Self) {
        self.halo_ns += o.halo_ns;
        self.compute_rhs_ns += o.compute_rhs_ns;
        self.coeffs_ns += o.coeffs_ns;
        self.add_ns += o.add_ns;
        self.sweep_compute_ns += o.sweep_compute_ns;
        self.sweep_pack_ns += o.sweep_pack_ns;
        self.carry_wait_ns += o.carry_wait_ns;
        self.plan_build_ns += o.plan_build_ns;
        self.halo_wait_ns += o.halo_wait_ns;
        self.halo_pack_ns += o.halo_pack_ns;
        self.halo_unpack_ns += o.halo_unpack_ns;
        self.spin_ns += o.spin_ns;
        self.park_ns += o.park_ns;
        self.parks += o.parks;
    }
}

/// Attribute one rank's events to its steps. `events` must be in
/// recording order (the recorder pushes each span when it ends, so end
/// times never decrease); `steps` holds each step's `iterate` entry and
/// exit on the same epoch, in order. Events outside every step (barriers,
/// collectives, set-up) are ignored.
pub fn attribute(events: &[TraceEvent], steps: &[(u64, u64)]) -> Vec<StepBudget> {
    let mut out = vec![StepBudget::default(); steps.len()];
    let mut rhs_start: Vec<Option<u64>> = vec![None; steps.len()];
    let mut k = 0;
    for ev in events {
        while k < steps.len() && ev.end_ns > steps[k].1 {
            k += 1;
        }
        if k == steps.len() {
            break;
        }
        if ev.start_ns < steps[k].0 {
            continue;
        }
        let b = &mut out[k];
        // Every halo span ends before compute_rhs starts, so "not seen
        // compute_rhs yet" is "inside the halo gap".
        let in_halo = rhs_start[k].is_none();
        let dur = ev.end_ns - ev.start_ns;
        match &ev.kind {
            SpanKind::Stage { name } => match name.as_str() {
                "compute_rhs" => {
                    rhs_start[k] = Some(ev.start_ns);
                    b.compute_rhs_ns += dur;
                }
                "coeffs" => b.coeffs_ns += dur,
                "add" => b.add_ns += dur,
                "plan_build" if !in_halo => b.plan_build_ns += dur,
                _ => {}
            },
            SpanKind::Compute { .. } => b.sweep_compute_ns += dur,
            SpanKind::Pack if in_halo => b.halo_pack_ns += dur,
            SpanKind::Pack => b.sweep_pack_ns += dur,
            SpanKind::Unpack => b.halo_unpack_ns += dur,
            SpanKind::CommWait { tag, .. } if HALO_TAGS.contains(tag) => b.halo_wait_ns += dur,
            SpanKind::CommWait { tag, .. } if SWEEP_TAGS.contains(tag) => b.carry_wait_ns += dur,
            SpanKind::CommSpin { .. } => b.spin_ns += dur,
            SpanKind::CommPark { .. } => {
                b.park_ns += dur;
                b.parks += 1;
            }
            _ => {}
        }
    }
    for ((b, start), step) in out.iter_mut().zip(&rhs_start).zip(steps) {
        b.halo_ns = start.map_or(0, |s| s - step.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start_ns: u64, end_ns: u64, kind: SpanKind) -> TraceEvent {
        TraceEvent {
            start_ns,
            end_ns,
            kind,
        }
    }

    fn stage(name: &str) -> SpanKind {
        SpanKind::Stage { name: name.into() }
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let data: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(samples_beyond(19, 0.5), 9);
        assert_eq!(percentile(&data, 0.5), None);
        let data: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(samples_beyond(20, 0.5), 10);
        assert_eq!(percentile(&data, 0.5), Some(10.5));
        // p90 of 91 samples sits at index 81 exactly: 9 lie beyond it.
        let data: Vec<f64> = (0..91).map(f64::from).collect();
        assert_eq!(samples_beyond(91, 0.9), 9);
        assert_eq!(percentile(&data, 0.9), None);
        assert_eq!(highest_percentile(&data).map(|p| p.0), Some(0.5));
        let data: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!((percentile(&data, 0.9).unwrap() - 89.1).abs() < 1e-12);
        assert_eq!(highest_percentile(&data).map(|p| p.0), Some(0.9));
        assert_eq!(highest_percentile(&[1.0; 5]), None);
    }

    #[test]
    fn quantile_interpolates_and_median_sorts() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn makespan_is_latest_end_minus_earliest_start() {
        assert_eq!(makespan(&[(10, 50)]), 40);
        // The earliest starter and the latest finisher are different ranks.
        assert_eq!(makespan(&[(10, 50), (12, 70), (11, 40)]), 60);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[2.0, 2.0]), 1.0);
        assert_eq!(imbalance(&[3.0, 1.0]), 1.5);
        assert_eq!(imbalance(&[5.0]), 1.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn span_gap_attribution_partitions_the_step() {
        let cw = |tag| SpanKind::CommWait { peer: 1, tag };
        let events = vec![
            // Before the step (a barrier): ignored.
            ev(0, 5, cw(mp_runtime::comm::RESERVED_TAG_BASE)),
            // Halo: pack, wait (with spin and park inside), unpack.
            ev(10, 12, SpanKind::Pack),
            ev(
                12,
                14,
                SpanKind::CommSpin {
                    peer: 1,
                    tag: 10_001,
                },
            ),
            ev(
                14,
                20,
                SpanKind::CommPark {
                    peer: 1,
                    tag: 10_001,
                },
            ),
            ev(12, 20, cw(10_001)),
            ev(20, 23, SpanKind::Unpack),
            // Stages and one sweep after the halo.
            ev(25, 60, stage("compute_rhs")),
            ev(60, 64, stage("coeffs")),
            ev(64, 65, stage("plan_build")),
            ev(66, 70, SpanKind::Pack),
            ev(
                70,
                78,
                SpanKind::Compute {
                    phase: 0,
                    jobs: 1,
                    lines: 4,
                },
            ),
            ev(78, 84, cw(20_001)),
            ev(86, 90, stage("add")),
            // After the step (the barrier again): ignored.
            ev(92, 95, cw(mp_runtime::comm::RESERVED_TAG_BASE)),
        ];
        let b = attribute(&events, &[(10, 91)]);
        assert_eq!(b.len(), 1);
        let b = b[0];
        assert_eq!(b.halo_ns, 15, "entry 10 → compute_rhs start 25");
        assert_eq!(
            (b.halo_pack_ns, b.halo_wait_ns, b.halo_unpack_ns),
            (2, 8, 3)
        );
        assert_eq!((b.spin_ns, b.park_ns, b.parks), (2, 6, 1));
        assert_eq!((b.compute_rhs_ns, b.coeffs_ns, b.add_ns), (35, 4, 4));
        assert_eq!(
            (b.sweep_compute_ns, b.sweep_pack_ns, b.carry_wait_ns),
            (8, 4, 6)
        );
        assert_eq!(b.plan_build_ns, 1);
        assert_eq!(b.solver_ns(), 43);
        // Gaps between spans are what the step leaves unattributed.
        assert_eq!(b.attributed_ns(), 77);
        assert_eq!(81 - b.attributed_ns(), 4);
    }

    #[test]
    fn attribution_splits_events_between_steps() {
        let events = vec![
            ev(2, 4, stage("compute_rhs")),
            ev(4, 6, stage("add")),
            ev(7, 8, SpanKind::Pack),
            ev(12, 15, stage("compute_rhs")),
            ev(15, 18, stage("add")),
        ];
        let b = attribute(&events, &[(0, 6), (10, 20)]);
        assert_eq!((b[0].halo_ns, b[0].compute_rhs_ns, b[0].add_ns), (2, 2, 2));
        assert_eq!((b[1].halo_ns, b[1].compute_rhs_ns, b[1].add_ns), (2, 3, 3));
        assert_eq!(b[0].halo_pack_ns + b[1].halo_pack_ns, 0, "between steps");
    }
}
