//! Telemetry integration tests: recorder accounting must agree bitwise
//! with the runtime's own counters in every execution mode, and enabling
//! tracing must never change sweep results.

use crate::compiled::SolverPlan;
use crate::executor::{allocate_rank_store, SweepOptions};
use crate::recurrence::{FirstOrderKernel, PrefixSumKernel};
use mp_core::cost::CostModel;
use mp_core::multipart::{Direction, Multipartitioning};
use mp_core::partition::Partitioning;
use mp_grid::{ArrayD, FieldDef, TileGrid};
use mp_runtime::comm::Communicator;
use mp_runtime::threaded::run_threaded;
use mp_testkit::cases;
use mp_trace::{SpanKind, SweepRecorder, SweepStats, TraceFile};
use std::time::Instant;

fn init_value(g: &[usize]) -> f64 {
    (g.iter()
        .enumerate()
        .map(|(k, &v)| (k + 1) * (v * 7 + 3) % 23)
        .sum::<usize>()) as f64
        - 11.0
}

/// Run one sweep on `p` ranks with a recorder installed on every rank;
/// return the gathered global field plus per-rank
/// `(stats, sent_messages, sent_elements)`.
fn run_traced(
    mp: &Multipartitioning,
    eta: &[usize],
    dim: usize,
    dir: Direction,
    kernel: &(impl crate::recurrence::LineSweepKernel + Clone + Send),
    opts: &SweepOptions,
) -> (ArrayD<f64>, Vec<(SweepStats, u64, u64)>) {
    let grid = TileGrid::new(
        eta,
        &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
    );
    let fields = [FieldDef::new("u", 0)];
    let epoch = Instant::now();
    let results = run_threaded(mp.p, move |comm| {
        comm.trace = Some(SweepRecorder::with_epoch(comm.rank(), epoch));
        let mut store = allocate_rank_store(comm.rank(), mp, &grid, &fields);
        store.init_field(0, init_value);
        SolverPlan::new(opts.clone()).sweep(comm, &mut store, mp, dim, dir, kernel, 1000);
        let rec = comm.trace.take().unwrap();
        (
            store,
            rec.stats().clone(),
            comm.sent_messages,
            comm.sent_elements,
        )
    });
    let mut global = ArrayD::zeros(eta);
    let mut per_rank = Vec::new();
    for (store, stats, m, e) in results {
        store.gather_into(0, &mut global);
        per_rank.push((stats, m, e));
    }
    (global, per_rank)
}

#[test]
fn aggregated_recorder_counters_match_comm() {
    let mp = Multipartitioning::optimal(6, &[12, 12, 12], &CostModel::origin2000_like());
    let eta = [12usize, 13, 11];
    let k = FirstOrderKernel::new(0, 0.8);
    // Dims 0 and 1 run in place, dim 2 packed.
    for dim in 0..3 {
        let gamma = mp.gammas()[dim];
        let opts = SweepOptions::new(4);
        let (_, per_rank) = run_traced(&mp, &eta, dim, Direction::Forward, &k, &opts);
        for (rank, (stats, msgs, elems)) in per_rank.iter().enumerate() {
            let at = format!("rank {rank} dim {dim}");
            assert_eq!(stats.sent_messages(), *msgs, "{at}");
            assert_eq!(stats.sent_elements(), *elems, "{at}");
            // One compute span per phase → per-phase compute slots
            // cover exactly the γ phases of this sweep.
            assert_eq!(stats.phase_compute_ns.len(), gamma as usize, "{at}");
            assert!(stats.compute_ns > 0, "{at}");
            // Carries are relayed by move in both modes: a sweep never
            // stages a copy, so it records no pack time.
            assert_eq!(stats.pack_ns, 0, "{at}");
        }
    }
}

#[test]
fn traced_run_exports_loadable_chrome_json() {
    // End-to-end: collect every rank's trace, export, re-parse, and check
    // the per-rank stats survive exactly.
    let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
    let eta = [8usize, 8, 8];
    let grid = TileGrid::new(&eta, &[2, 2, 2]);
    let fields = [FieldDef::new("u", 0)];
    let k = PrefixSumKernel::new(0);
    let epoch = Instant::now();
    let traces = run_threaded(4, move |comm| {
        comm.trace = Some(SweepRecorder::with_epoch(comm.rank(), epoch));
        let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
        store.init_field(0, init_value);
        let mut plan = SolverPlan::new(SweepOptions::new(4));
        plan.sweep(comm, &mut store, &mp, 0, Direction::Forward, &k, 1000);
        comm.trace.take().unwrap().into_trace()
    });
    let tf = TraceFile::new(traces).with_meta("block_width", "4");
    let text = tf.to_chrome_json();
    let back = TraceFile::parse_chrome_json(&text).unwrap();
    assert_eq!(back, tf);
    assert_eq!(back.ranks.len(), 4);
    // Every rank recorded compute work; ranks that received also waited or
    // at least logged their sends.
    for r in &back.ranks {
        assert!(r.stats.compute_ns > 0, "rank {}", r.rank);
        assert!(
            r.events
                .iter()
                .any(|e| matches!(e.kind, SpanKind::Send { .. })),
            "rank {} sent nothing?",
            r.rank
        );
    }
    let table = tf.summary_table();
    assert!(table.contains("makespan"));
}

#[test]
fn tracing_never_changes_sweep_output() {
    // Property (seed 0x7508): over random configurations — rank count,
    // swept dim, direction, block width — a run
    // with recorders installed is bitwise identical to one without, and
    // sends exactly the same message counts.
    cases(0x7508, 10, |rng| {
        let p = rng.u64_in(2, 8);
        let dim = rng.usize_in(0, 2);
        let dir = if rng.bool() {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let a = rng.f64_in(-0.9, 0.9);
        let k = FirstOrderKernel::new(0, a);
        let mp = Multipartitioning::optimal(p, &[12, 12, 12], &CostModel::origin2000_like());
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| g as usize + rng.usize_in(0, 7))
            .collect();
        let opts = SweepOptions::new(rng.usize_in(1, 32));
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let fields = [FieldDef::new("u", 0)];

        let run = |traced: bool| {
            let epoch = Instant::now();
            let (mp, grid, fields, opts, k) = (&mp, &grid, &fields, &opts, &k);
            let results = run_threaded(p, move |comm| {
                if traced {
                    comm.trace = Some(SweepRecorder::with_epoch(comm.rank(), epoch));
                }
                let mut store = allocate_rank_store(comm.rank(), mp, grid, fields);
                store.init_field(0, init_value);
                SolverPlan::new(opts.clone()).sweep(comm, &mut store, mp, dim, dir, k, 77);
                (store, comm.sent_messages, comm.sent_elements)
            });
            let mut global = ArrayD::zeros(&eta);
            let (mut msgs, mut elems) = (0u64, 0u64);
            for (store, m, e) in &results {
                store.gather_into(0, &mut global);
                msgs += m;
                elems += e;
            }
            (global, msgs, elems)
        };

        let (plain, plain_msgs, plain_elems) = run(false);
        let (traced, traced_msgs, traced_elems) = run(true);
        assert_eq!(
            traced.max_abs_diff(&plain),
            0.0,
            "tracing changed results: p={p} eta={eta:?} dim={dim} {dir:?} {opts:?}"
        );
        assert_eq!(traced_msgs, plain_msgs, "tracing changed message count");
        assert_eq!(traced_elems, plain_elems, "tracing changed payload");
    });
}
