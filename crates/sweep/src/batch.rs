//! Batching several line systems into one sweep.
//!
//! Real NAS SP solves five scalar systems (one per flow variable) in each
//! directional solve — and ships **one** message per phase carrying all five
//! systems' carries, not five messages. [`BatchedKernel`] provides exactly
//! that composition: it wraps any number of kernels (over disjoint field
//! sets) into a single kernel whose carry is the concatenation of the
//! members' carries, so a multipartitioned sweep pays one `α` per phase for
//! the whole batch.

use crate::recurrence::{LineSweepKernel, SegmentCtx};
use crate::simd::SimdLevel;
use mp_core::multipart::Direction;
use mp_grid::Lanes;
use std::cell::Cell;

thread_local! {
    /// The de-interleaved member carries of [`BatchedKernel::sweep_lanes`],
    /// kept per thread so a steady-state sweep reuses the buffer instead of
    /// allocating one per call.
    static MEMBER_CARRIES: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// A batch of kernels executed within a single sweep.
///
/// Member kernels must touch disjoint fields (not checked — overlapping
/// fields would make the member order observable).
pub struct BatchedKernel<K: LineSweepKernel> {
    members: Vec<K>,
    fields: Vec<usize>,
}

impl<K: LineSweepKernel> BatchedKernel<K> {
    /// Combine `members` into one sweep-level kernel.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn new(members: Vec<K>) -> Self {
        assert!(!members.is_empty(), "a batch needs at least one kernel");
        let fields = members
            .iter()
            .flat_map(|k| k.fields().iter().copied())
            .collect();
        BatchedKernel { members, fields }
    }

    /// Number of member kernels.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always false (constructor requires ≥ 1 member).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl<K: LineSweepKernel> LineSweepKernel for BatchedKernel<K> {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        self.members.iter().map(|k| k.carry_len()).sum()
    }

    fn fill_initial_carry(&self, dir: Direction, carry: &mut [f64]) {
        let mut rest = carry;
        for k in &self.members {
            let (c, r) = rest.split_at_mut(k.carry_len());
            k.fill_initial_carry(dir, c);
            rest = r;
        }
    }

    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        ctx: &SegmentCtx,
    ) {
        let mut carry_rest = carry;
        let mut seg_rest = seg;
        for k in &self.members {
            let (c, cr) = carry_rest.split_at_mut(k.carry_len());
            let (s, sr) = seg_rest.split_at_mut(k.fields().len());
            k.sweep_segment(dir, c, s, ctx);
            carry_rest = cr;
            seg_rest = sr;
        }
    }

    fn sweep_lanes(
        &self,
        level: SimdLevel,
        dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctxs: &[SegmentCtx],
    ) {
        // The batch's line-major carry interleaves the members' carries per
        // lane; each member's lane body wants its own carries contiguous.
        // De-interleave into one thread-local scratch buffer, reused across
        // members and calls. The resolved SIMD level is forwarded to each
        // member so a batch of Thomas/penta solves vectorizes exactly like
        // the standalone kernels.
        let nl = lanes.nlanes();
        let total = self.carry_len();
        debug_assert_eq!(carries.len(), nl * total);
        let max_clen = self.members.iter().map(|k| k.carry_len()).max().unwrap();
        let mut scratch = MEMBER_CARRIES.take();
        scratch.resize(nl * max_clen, 0.0);
        let (mut coff, mut foff) = (0, 0);
        for k in &self.members {
            let (clen, nf) = (k.carry_len(), k.fields().len());
            let sc = &mut scratch[..nl * clen];
            for l in 0..nl {
                sc[l * clen..(l + 1) * clen]
                    .copy_from_slice(&carries[l * total + coff..l * total + coff + clen]);
            }
            k.sweep_lanes(
                level,
                dir,
                sc,
                &mut lanes.field_range(foff..foff + nf),
                ctxs,
            );
            for l in 0..nl {
                carries[l * total + coff..l * total + coff + clen]
                    .copy_from_slice(&sc[l * clen..(l + 1) * clen]);
            }
            coff += clen;
            foff += nf;
        }
        MEMBER_CARRIES.set(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::SolverPlan;
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::recurrence::{FirstOrderKernel, PrefixSumKernel};
    use crate::verify::serial_sweep;
    use mp_core::cost::CostModel;
    use mp_core::multipart::Multipartitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    #[test]
    fn batched_equals_sequential_kernels() {
        let k = BatchedKernel::new(vec![
            PrefixSumKernel::new(0),
            PrefixSumKernel::new(1),
            PrefixSumKernel::new(2),
        ]);
        assert_eq!(k.fields(), &[0, 1, 2]);
        assert_eq!(k.carry_len(), 3);
        assert_eq!(k.len(), 3);

        let line: Vec<f64> = (1..=8).map(|v| v as f64).collect();
        let mut batched = vec![line.clone(), line.clone(), line.clone()];
        let ctx = SegmentCtx::origin(1, 0, Direction::Forward);
        let mut carry = k.initial_carry(Direction::Forward);
        k.sweep_segment(Direction::Forward, &mut carry, &mut batched, &ctx);

        let single = PrefixSumKernel::new(0);
        let mut alone = vec![line.clone()];
        let mut c1 = single.initial_carry(Direction::Forward);
        single.sweep_segment(Direction::Forward, &mut c1, &mut alone, &ctx);
        for b in &batched {
            assert_eq!(b, &alone[0]);
        }
        assert_eq!(carry, vec![c1[0]; 3]);
    }

    #[test]
    fn batched_sweep_sends_one_message_per_phase() {
        // 3 fields swept together on p = 4: message count equals a single-
        // field sweep's (the batching pays one α for all three systems),
        // and results match three independent sweeps bit-for-bit.
        let p = 4u64;
        let eta = [8usize, 8, 8];
        let mp = Multipartitioning::optimal(p, &[8, 8, 8], &CostModel::origin2000_like());
        let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        let grid = TileGrid::new(&eta, &gam);
        let fields = [
            FieldDef::new("a", 0),
            FieldDef::new("b", 0),
            FieldDef::new("c", 0),
        ];
        let init = |f: usize| move |g: &[usize]| (g[0] * 9 + g[1] * 3 + g[2] + f) as f64 % 7.0;

        // Batched run, counting messages.
        let batched = run_threaded(p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            for f in 0..3 {
                store.init_field(f, init(f));
            }
            let k = BatchedKernel::new(vec![
                FirstOrderKernel::new(0, 0.5),
                FirstOrderKernel::new(1, 0.5),
                FirstOrderKernel::new(2, 0.5),
            ]);
            let mut plan = SolverPlan::new(SweepOptions::default());
            plan.sweep(comm, &mut store, &mp, 0, Direction::Forward, &k, 10);
            (store, comm.sent_messages)
        });

        // Separate runs.
        let separate = run_threaded(p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            let mut plan = SolverPlan::new(SweepOptions::default());
            for f in 0..3 {
                store.init_field(f, init(f));
                let k = FirstOrderKernel::new(f, 0.5);
                let tag = 100 * (f as u64 + 1);
                plan.sweep(comm, &mut store, &mp, 0, Direction::Forward, &k, tag);
            }
            (store, comm.sent_messages)
        });

        // Same results…
        for f in 0..3 {
            let mut gb = ArrayD::zeros(&eta);
            let mut gs = ArrayD::zeros(&eta);
            for (store, _) in &batched {
                store.gather_into(f, &mut gb);
            }
            for (store, _) in &separate {
                store.gather_into(f, &mut gs);
            }
            assert_eq!(gb.max_abs_diff(&gs), 0.0, "field {f}");
            // …and correct vs serial.
            let mut want = ArrayD::from_fn(&eta, init(f));
            serial_sweep(
                &mut [&mut want],
                0,
                Direction::Forward,
                &FirstOrderKernel::new(0, 0.5),
            );
            assert_eq!(gb.max_abs_diff(&want), 0.0, "field {f} vs serial");
        }
        // …but a third of the messages.
        let batched_msgs: u64 = batched.iter().map(|(_, m)| m).sum();
        let separate_msgs: u64 = separate.iter().map(|(_, m)| m).sum();
        assert_eq!(separate_msgs, 3 * batched_msgs);
        assert!(batched_msgs > 0);
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_batch_rejected() {
        let _ = BatchedKernel::<PrefixSumKernel>::new(vec![]);
    }
}
