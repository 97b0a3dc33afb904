//! Pipelined sweep execution: overlap carry communication with block
//! computation.
//!
//! The paper's §3.1 schedule finishes a phase's *entire* tile
//! cross-section before shipping one aggregated carry message, so the
//! serialization term `(γ_i − 1)(K2 + K3(p)·η/η_i)` sits on the critical
//! path with zero overlap. Pipelining trades message granularity against
//! that serialization: each phase's block jobs are split into
//! [`crate::executor::SweepOptions::pipeline_chunks`] contiguous
//! **chunks**, and a chunk's carry sub-message is sent the moment its jobs
//! finish — while the remaining chunks are still computing, and while the
//! *downstream* rank can already start on the slab lines the early
//! sub-messages cover. `pipeline_chunks = 1` is the aggregated schedule,
//! run by the same loop: one chunk per phase, one message per boundary.
//!
//! **Chunking rule.** A phase's jobs (carved at plan-build time by
//! [`crate::compiled::CompiledSweep`]) are split into
//! `k_eff = min(pipeline_chunks, njobs)` chunks; chunk `j` holds the job
//! range `[j·njobs/k_eff, (j+1)·njobs/k_eff)`. Because jobs cover the
//! phase's carry stream contiguously and in order, chunk `j`'s carries are
//! the contiguous element span from its first job's `carry_off` to its
//! last job's end — the concatenation of the sub-messages is byte-for-byte
//! the aggregated message.
//!
//! **Why both sides agree on the chunk layout.** The receiver's tiles in
//! the next slab are exactly the sender's tiles shifted one step along the
//! swept dimension (the neighbor property makes the receiving rank
//! unique; the shift preserves lexicographic tile order and every
//! cross-section extent). Both sides therefore carve *identical* job
//! lists from their own geometry, and — given equal `block_width` and
//! `pipeline_chunks` on all ranks — identical chunk boundaries, so no
//! per-chunk addressing is needed on the wire. Sub-message lengths are
//! asserted on receipt.
//!
//! **Tag layout.** Sub-messages use the phase tags (`tag_base + phase + 1`
//! on the way out, `tag_base + phase` on the way in): per-`(sender,
//! receiver, tag)` FIFO delivery is part of the
//! [`mp_runtime::comm::Communicator`] contract, so chunk order needs no
//! extra tag bits, and eager arrivals for the *next* phase live under the
//! next phase's tag, where [`mp_runtime::comm::Communicator::try_recv`] can
//! drain them without touching the current phase's stream. The drain is
//! bounded by the next phase's exact chunk count (known from the compiled
//! plan): solvers re-execute the same plan every timestep on the same
//! tags, so an over-eager drain would swallow the *next sweep's* chunks a
//! sweep early.
//!
//! **Copy-free carry relay.** A chunk's buffer is *relayed by ownership*:
//! received, evolved in place by the chunk's jobs, and sent onward by
//! move. No carry stream is ever copied, whatever the chunk count.
//!
//! The phase loop itself is [`crate::compiled::CompiledSweep::execute`],
//! where the chunk spans are precomputed at plan-build time; this module
//! documents the protocol and holds its conformance tests.

#[cfg(test)]
mod tests {
    use crate::executor::{allocate_rank_store, multipart_sweep_opts, SweepOptions};
    use crate::recurrence::{FirstOrderKernel, PrefixSumKernel};
    use crate::verify::serial_sweep;
    use mp_core::cost::CostModel;
    use mp_core::multipart::{Direction, Multipartitioning};
    use mp_core::partition::Partitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    fn init_value(g: &[usize]) -> f64 {
        (g.iter()
            .enumerate()
            .map(|(k, &v)| (k + 1) * (v * 7 + 3) % 23)
            .sum::<usize>()) as f64
            - 11.0
    }

    fn run_opts(
        mp: &Multipartitioning,
        eta: &[usize],
        dim: usize,
        dir: Direction,
        kernel: &(impl crate::recurrence::LineSweepKernel + Clone + Send),
        opts: &SweepOptions,
    ) -> (ArrayD<f64>, u64, u64) {
        let grid = TileGrid::new(
            eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let fields = [FieldDef::new("u", 0)];
        let results = run_threaded(mp.p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), mp, &grid, &fields);
            store.init_field(0, init_value);
            multipart_sweep_opts(comm, &mut store, mp, dim, dir, kernel, 1000, opts);
            (store, comm.sent_messages, comm.sent_elements)
        });
        let mut global = ArrayD::zeros(eta);
        let mut msgs = 0;
        let mut elems = 0;
        for (store, m, e) in &results {
            store.gather_into(0, &mut global);
            msgs += m;
            elems += e;
        }
        (global, msgs, elems)
    }

    #[test]
    fn pipelined_bitwise_equal_and_payload_preserved() {
        // γ = 6 multi-phase schedule: pipelined results must be bitwise
        // equal to aggregated, total payload identical, message count
        // multiplied by the chunk count (when every phase has ≥ k jobs).
        let mp = Multipartitioning::optimal(6, &[12, 12, 12], &CostModel::origin2000_like());
        let eta = [12usize, 13, 11];
        let k = FirstOrderKernel::new(0, 0.8);
        for dim in 0..3 {
            for dir in [Direction::Forward, Direction::Backward] {
                let (base, base_msgs, base_elems) =
                    run_opts(&mp, &eta, dim, dir, &k, &SweepOptions::new(1, 1));
                for chunks in [2usize, 3, 7] {
                    let opts = SweepOptions::new(4, 1).with_pipeline_chunks(chunks);
                    let (got, msgs, elems) = run_opts(&mp, &eta, dim, dir, &k, &opts);
                    assert_eq!(
                        got.max_abs_diff(&base),
                        0.0,
                        "{opts:?} dim {dim} {dir:?} not bitwise equal"
                    );
                    assert_eq!(elems, base_elems, "{opts:?} changed the total payload");
                    assert!(
                        msgs >= base_msgs,
                        "{opts:?} sent fewer messages than aggregated"
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_message_count_is_chunks_times_aggregated() {
        // Uniform extents divisible by everything: every phase has the
        // same job count ≥ chunks, so each aggregated message splits into
        // exactly `chunks` sub-messages.
        let mp = Multipartitioning::from_partitioning(8, Partitioning::new(vec![4, 4, 2]));
        let eta = [16usize, 16, 8];
        let k = PrefixSumKernel::new(0);
        let dim = 0;
        let (base, base_msgs, base_elems) = run_opts(
            &mp,
            &eta,
            dim,
            Direction::Forward,
            &k,
            &SweepOptions::new(1, 1),
        );
        let chunks = 4usize;
        // block_width 1 → njobs = lines per slab ≥ chunks in every phase.
        let opts = SweepOptions::new(1, 1).with_pipeline_chunks(chunks);
        let (got, msgs, elems) = run_opts(&mp, &eta, dim, Direction::Forward, &k, &opts);
        assert_eq!(got.max_abs_diff(&base), 0.0);
        assert_eq!(elems, base_elems);
        assert_eq!(msgs, base_msgs * chunks as u64);
    }

    #[test]
    fn pipelined_with_threads_matches() {
        let mp = Multipartitioning::from_partitioning(8, Partitioning::new(vec![4, 4, 2]));
        let eta = [16usize, 16, 8];
        let k = FirstOrderKernel::new(0, -0.6);
        for dim in 0..3 {
            let (base, _, base_elems) = run_opts(
                &mp,
                &eta,
                dim,
                Direction::Forward,
                &k,
                &SweepOptions::new(1, 1),
            );
            let opts = SweepOptions::new(8, 3).with_pipeline_chunks(2);
            let (got, _, elems) = run_opts(&mp, &eta, dim, Direction::Forward, &k, &opts);
            assert_eq!(got.max_abs_diff(&base), 0.0, "dim {dim}");
            assert_eq!(elems, base_elems);
        }
    }

    #[test]
    fn pipelined_self_neighbor_local_relay() {
        // p = 2, b = (4,2,2): sweeping dim 0 stays on the same rank, so
        // every chunk relays through the local queue.
        let mp = Multipartitioning::from_partitioning(2, Partitioning::new(vec![4, 2, 2]));
        assert_eq!(mp.neighbor_rank(0, 0, 1), 0, "test premise: self-neighbor");
        let eta = [8usize, 8, 8];
        let k = PrefixSumKernel::new(0);
        for dim in 0..3 {
            let (base, _, _) = run_opts(
                &mp,
                &eta,
                dim,
                Direction::Forward,
                &k,
                &SweepOptions::new(1, 1),
            );
            let opts = SweepOptions::new(2, 1).with_pipeline_chunks(3);
            let (got, _, _) = run_opts(&mp, &eta, dim, Direction::Forward, &k, &opts);
            assert_eq!(got.max_abs_diff(&base), 0.0, "dim {dim}");
        }
    }

    #[test]
    fn pipelined_ragged_extents_match_serial() {
        // η not divisible by γ: chunk layouts differ between phases; the
        // shift argument still makes sender and receiver agree.
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
        let eta = [7usize, 9, 5];
        let k = PrefixSumKernel::new(0);
        for dim in 0..3 {
            let mut want = ArrayD::from_fn(&eta, init_value);
            serial_sweep(&mut [&mut want], dim, Direction::Forward, &k);
            for chunks in [2usize, 5] {
                let opts = SweepOptions::new(3, 2).with_pipeline_chunks(chunks);
                let (got, _, _) = run_opts(&mp, &eta, dim, Direction::Forward, &k, &opts);
                assert_eq!(got.max_abs_diff(&want), 0.0, "dim {dim} chunks {chunks}");
            }
        }
    }

    #[test]
    fn pipelined_chunks_capped_by_jobs() {
        // More chunks than jobs: k_eff collapses to the job count; still
        // correct, never more sub-messages than jobs.
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
        let eta = [4usize, 4, 4];
        let k = PrefixSumKernel::new(0);
        let (base, _, base_elems) = run_opts(
            &mp,
            &eta,
            0,
            Direction::Forward,
            &k,
            &SweepOptions::new(1, 1),
        );
        // block_width huge → 1 job per tile; chunks 64 ≫ jobs.
        let opts = SweepOptions::new(1000, 1).with_pipeline_chunks(64);
        let (got, _, elems) = run_opts(&mp, &eta, 0, Direction::Forward, &k, &opts);
        assert_eq!(got.max_abs_diff(&base), 0.0);
        assert_eq!(elems, base_elems);
    }

    #[test]
    fn pipelined_serial_comm_single_rank() {
        // p = 1 through a SerialComm: all hand-offs local, no network.
        use mp_runtime::comm::SerialComm;
        let mp = Multipartitioning::from_partitioning(1, Partitioning::new(vec![3, 2, 2]));
        let eta = [9usize, 8, 8];
        let grid = TileGrid::new(&eta, &[3, 2, 2]);
        let k = PrefixSumKernel::new(0);
        let mut comm = SerialComm;
        let mut store = allocate_rank_store(0, &mp, &grid, &[FieldDef::new("u", 0)]);
        store.init_field(0, init_value);
        let opts = SweepOptions::new(2, 1).with_pipeline_chunks(3);
        for dim in 0..3 {
            multipart_sweep_opts(
                &mut comm,
                &mut store,
                &mp,
                dim,
                Direction::Forward,
                &k,
                0,
                &opts,
            );
        }
        let mut global = ArrayD::zeros(&eta);
        store.gather_into(0, &mut global);
        let mut want = ArrayD::from_fn(&eta, init_value);
        for dim in 0..3 {
            serial_sweep(&mut [&mut want], dim, Direction::Forward, &k);
        }
        assert_eq!(global.max_abs_diff(&want), 0.0);
    }

    #[test]
    fn env_knob_invalid_values_fall_back() {
        // SweepOptions::from_env parsing: garbage and zero fall back to
        // each knob's default instead of panicking. (Serialized with every
        // other env-mutating test via the shared lock.)
        let _guard = crate::executor::env_test_lock();
        for bad in ["", "banana", "0", "-3", "1.5"] {
            std::env::set_var("MP_SWEEP_PIPELINE", bad);
            std::env::set_var("MP_SWEEP_THREADS", bad);
            std::env::set_var("MP_SWEEP_BLOCK", bad);
            let o = SweepOptions::from_env();
            assert_eq!(o.pipeline_chunks, 1, "value {bad:?}");
            assert_eq!(o.threads, 1, "value {bad:?}");
            assert_eq!(o.block_width, 32, "value {bad:?}");
        }
        std::env::set_var("MP_SWEEP_PIPELINE", "4");
        std::env::set_var("MP_SWEEP_BLOCK", "16");
        let o = SweepOptions::from_env();
        assert_eq!(o.pipeline_chunks, 4);
        assert_eq!(o.block_width, 16);
        // MP_SWEEP_SIMD picks the dispatch mode; anything unrecognized
        // (including garbage and the level name `avx2`) falls back to auto
        // rather than erroring.
        for (val, want) in [
            ("scalar", crate::SimdMode::Scalar),
            ("AVX2", crate::SimdMode::Auto),
            (" auto ", crate::SimdMode::Auto),
            ("banana", crate::SimdMode::Auto),
            ("", crate::SimdMode::Auto),
        ] {
            std::env::set_var("MP_SWEEP_SIMD", val);
            assert_eq!(SweepOptions::from_env().simd, want, "value {val:?}");
        }
        std::env::remove_var("MP_SWEEP_PIPELINE");
        std::env::remove_var("MP_SWEEP_THREADS");
        std::env::remove_var("MP_SWEEP_BLOCK");
        std::env::remove_var("MP_SWEEP_SIMD");
        let o = SweepOptions::default(); // Default == from_env
        assert_eq!((o.block_width, o.threads, o.pipeline_chunks), (32, 1, 1));
        assert_eq!(o.simd, crate::SimdMode::Auto, "simd defaults to auto");
    }
}
