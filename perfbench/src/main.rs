//! Timestep benchmark for the multipartitioned SP and BT solvers.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run repeats closed-loop *episodes* for `--seconds`: partition search,
//! rank spawn, state set-up, one warm-up timestep (which compiles every plan),
//! then `k` timed steady-state timesteps separated by untimed barriers. Every
//! episode's final solution is checked bitwise against the serial reference
//! at the same `dt` and step count, and its steady-state invariants are read
//! from public counters. The last line of standard output is one JSON object
//! with the metrics: end-to-end ones untraced (`--trace 0`), per-layer ones
//! (`--trace 1`) from traced episodes interleaved with untraced ones.

mod stats;

use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::{ArrayD, RankStore};
use mp_nasbt::{BtProblem, ParallelBt, SerialBt, NCOMP};
use mp_nassp::{ParallelSp, SerialSp, SpProblem};
use mp_runtime::comm::Communicator;
use mp_runtime::threaded::{run_threaded, ThreadedComm};
use mp_sweep::compiled::SolverPlan;
use mp_sweep::executor::SweepOptions;
use mp_trace::{RankTrace, SweepRecorder};
use stats::StepBudget;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <sp-w-p2|bt-24-p2|sp-w-p1> --seed <n> --seconds <s> --trace <0|1>";

/// Which solver a workload runs.
#[derive(Debug, Clone, Copy)]
enum App {
    Sp,
    Bt,
}

/// One named benchmark input. README.md says why each was chosen.
struct Workload {
    name: &'static str,
    app: App,
    /// Cubic grid extent.
    n: usize,
    /// Ranks (threads, one sweep thread each).
    p: u64,
    /// Nominal time step; the seed perturbs it within ±1%.
    dt: f64,
    /// Timed steady-state steps per episode.
    steps: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sp-w-p2",
        app: App::Sp,
        n: 36,
        p: 2,
        dt: 0.0015,
        steps: 60,
    },
    Workload {
        name: "bt-24-p2",
        app: App::Bt,
        n: 24,
        p: 2,
        dt: 0.002,
        steps: 30,
    },
    Workload {
        name: "sp-w-p1",
        app: App::Sp,
        n: 36,
        p: 1,
        dt: 0.0015,
        steps: 40,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == v)
                        .ok_or_else(|| format!("unknown workload '{v}'"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got '{v}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// SplitMix64: the seed's only use is to pick `dt`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seeded problem instance. Values change with the seed; work does not.
#[derive(Debug, Clone, Copy)]
enum Problem {
    Sp(SpProblem),
    Bt(BtProblem),
}

impl Problem {
    fn new(w: &Workload, seed: u64) -> Self {
        let u = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
        let dt = w.dt * (1.0 + 0.02 * (u - 0.5));
        let eta = [w.n; 3];
        match w.app {
            App::Sp => Problem::Sp(SpProblem::new(eta, dt)),
            App::Bt => Problem::Bt(BtProblem::new(eta, dt)),
        }
    }

    fn eta(&self) -> [usize; 3] {
        match self {
            Problem::Sp(p) => p.eta,
            Problem::Bt(p) => p.eta,
        }
    }

    /// The partition search every episode starts with.
    fn partition(&self, p: u64) -> Multipartitioning {
        let eta: Vec<u64> = self.eta().iter().map(|&e| e as u64).collect();
        Multipartitioning::optimal(p, &eta, &CostModel::origin2000_like())
    }

    fn dt(&self) -> f64 {
        match self {
            Problem::Sp(p) => p.dt,
            Problem::Bt(p) => p.dt,
        }
    }

    /// Store indices of the solution fields, in the serial reference's order.
    fn solution_fields(&self) -> Vec<usize> {
        match self {
            Problem::Sp(_) => vec![mp_nassp::parallel::fields::U],
            Problem::Bt(_) => (0..NCOMP).map(mp_nasbt::parallel::fields::u).collect(),
        }
    }

    /// Bit patterns of the serial solution after `steps` steps, and its norm.
    fn serial(&self, steps: usize) -> (Vec<u64>, f64) {
        let bits = |a: &ArrayD<f64>| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match self {
            Problem::Sp(p) => {
                let mut s = SerialSp::new(*p);
                s.run(steps);
                (bits(&s.u), s.u_norm())
            }
            Problem::Bt(p) => {
                let mut s = SerialBt::new(*p);
                s.run(steps);
                (s.u.iter().flat_map(bits).collect(), s.norm())
            }
        }
    }

    /// Bit patterns of the distributed solution gathered from every rank.
    fn gather(&self, stores: &[RankStore]) -> Vec<u64> {
        let mut out = Vec::new();
        for f in self.solution_fields() {
            let mut global = ArrayD::zeros(&self.eta());
            for s in stores {
                s.gather_into(f, &mut global);
            }
            out.extend(global.as_slice().iter().map(|v| v.to_bits()));
        }
        out
    }
}

/// One rank's solver, driven only through the public API.
enum Solver {
    Sp(ParallelSp),
    Bt(ParallelBt),
}

impl Solver {
    fn new(rank: u64, prob: Problem, mp: Multipartitioning) -> Self {
        // Default options: the benchmark measures what a user gets.
        match prob {
            Problem::Sp(p) => {
                Solver::Sp(ParallelSp::with_opts(rank, p, mp, SweepOptions::default()))
            }
            Problem::Bt(p) => {
                Solver::Bt(ParallelBt::with_opts(rank, p, mp, SweepOptions::default()))
            }
        }
    }

    fn iterate(&mut self, comm: &mut ThreadedComm) {
        match self {
            Solver::Sp(s) => s.iterate(comm),
            Solver::Bt(s) => s.iterate(comm),
        }
    }

    fn plan(&self) -> &SolverPlan {
        match self {
            Solver::Sp(s) => &s.plan,
            Solver::Bt(s) => &s.plan,
        }
    }

    fn norm(&mut self, comm: &mut ThreadedComm) -> f64 {
        match self {
            Solver::Sp(s) => s.u_norm(comm),
            Solver::Bt(s) => s.norm(comm),
        }
    }

    fn into_store(self) -> RankStore {
        match self {
            Solver::Sp(s) => s.store,
            Solver::Bt(s) => s.store,
        }
    }
}

/// Public counters sampled at one instant on one rank.
#[derive(Clone, Copy)]
struct Counters {
    builds: u64,
    pool_threads: usize,
    pool_misses: u64,
    backpressure: u64,
}

impl Counters {
    fn read(s: &Solver, comm: &ThreadedComm) -> Self {
        Counters {
            builds: s.plan().builds(),
            pool_threads: s.plan().pool_threads_spawned(),
            pool_misses: comm.pool_misses,
            backpressure: comm.send_backpressure,
        }
    }
}

/// Everything one rank reports from one episode.
struct RankRun {
    /// `iterate` entry and exit per step (the warm-up step first), in ns
    /// since the episode epoch.
    steps: Vec<(u64, u64)>,
    /// Per-step deltas of `sent_messages`, `sent_elements` and
    /// `elements_swept`.
    msgs: Vec<u64>,
    elems: Vec<u64>,
    swept: Vec<u64>,
    /// Time in `with_opts`.
    init_ns: u64,
    /// `SolverPlan::build_ns` at the end.
    build_ns: u64,
    /// Counters after the warm-up step and at the end.
    first: Counters,
    last: Counters,
    /// Recorder totals equal the runtime's send counters (always true
    /// untraced).
    counters_match: bool,
    trace: Option<RankTrace>,
    norm: f64,
}

impl RankRun {
    /// Steady-state invariants: no plan rebuilds and no pool spawns after
    /// the warm-up step, and a recorder that agrees with the runtime.
    fn invariants_hold(&self) -> bool {
        self.last.builds == self.first.builds
            && self.last.pool_threads == self.first.pool_threads
            && self.counters_match
    }
}

fn rank_main(
    comm: &mut ThreadedComm,
    prob: Problem,
    mp: &Multipartitioning,
    steps: usize,
    epoch: Instant,
    traced: bool,
) -> (RankRun, RankStore) {
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    if traced {
        comm.trace = Some(SweepRecorder::with_epoch(comm.rank(), epoch));
    }
    let t_init = Instant::now();
    let mut solver = Solver::new(comm.rank(), prob, mp.clone());
    let init_ns = t_init.elapsed().as_nanos() as u64;
    comm.barrier();

    let mut step_spans = Vec::with_capacity(steps + 1);
    let (mut msgs, mut elems, mut swept) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = Counters::read(&solver, comm);
    for k in 0..=steps {
        let (m0, e0, s0) = (
            comm.sent_messages,
            comm.sent_elements,
            solver.plan().elements_swept(),
        );
        let t0 = Instant::now();
        solver.iterate(comm);
        let t1 = Instant::now();
        step_spans.push((ns(t0), ns(t1)));
        msgs.push(comm.sent_messages - m0);
        elems.push(comm.sent_elements - e0);
        swept.push(solver.plan().elements_swept() - s0);
        if k == 0 {
            first = Counters::read(&solver, comm);
        }
        comm.barrier();
    }
    let last = Counters::read(&solver, comm);
    let build_ns = solver.plan().build_ns();
    let norm = solver.norm(comm);
    let trace = comm.trace.take().map(SweepRecorder::into_trace);
    let counters_match = trace.as_ref().is_none_or(|t| {
        t.stats.sent_messages() == comm.sent_messages
            && t.stats.sent_elements() == comm.sent_elements
    });
    let run = RankRun {
        steps: step_spans,
        msgs,
        elems,
        swept,
        init_ns,
        build_ns,
        first,
        last,
        counters_match,
        trace,
        norm,
    };
    (run, solver.into_store())
}

/// One episode, with the stores already reduced to a gathered solution.
struct Episode {
    traced: bool,
    partition_ns: u64,
    ranks: Vec<RankRun>,
    /// Bit patterns of the gathered solution; main keeps only the first
    /// episode's and compares the others against it on arrival.
    solution: Vec<u64>,
    /// The solution equals the first episode's.
    same_as_first: bool,
}

impl Episode {
    fn run(w: &Workload, prob: Problem, steps: usize, traced: bool) -> Self {
        let epoch = Instant::now();
        let mp = prob.partition(w.p);
        let partition_ns = epoch.elapsed().as_nanos() as u64;
        let (ranks, stores): (Vec<RankRun>, Vec<RankStore>) =
            run_threaded(w.p, |comm| rank_main(comm, prob, &mp, steps, epoch, traced))
                .into_iter()
                .unzip();
        let solution = prob.gather(&stores);
        Episode {
            traced,
            partition_ns,
            ranks,
            solution,
            same_as_first: true,
        }
    }

    /// Wall time from before the partition search to the end of the
    /// warm-up step on the last rank.
    fn setup_ns(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.steps[0].1)
            .max()
            .expect("ranks")
    }

    /// Makespan of every steady-state step.
    fn makespans_ns(&self) -> Vec<u64> {
        (1..self.ranks[0].steps.len())
            .map(|k| stats::makespan(&self.ranks.iter().map(|r| r.steps[k]).collect::<Vec<_>>()))
            .collect()
    }

    fn worst_rank<F: Fn(&RankRun) -> u64>(&self, f: F) -> u64 {
        self.ranks.iter().map(f).max().expect("ranks")
    }

    /// Per-step sums over ranks of a per-step counter, steady steps only.
    fn steady_sums<F: Fn(&RankRun) -> &Vec<u64>>(&self, f: F) -> Vec<u64> {
        (1..self.ranks[0].steps.len())
            .map(|k| self.ranks.iter().map(|r| f(r)[k]).sum())
            .collect()
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One rank's layer totals over every traced steady step of a run.
struct RankBudget {
    sum: StepBudget,
    makespan_ns: u64,
    steps: u64,
}

impl RankBudget {
    /// Mean per step, in ms, of a total in ns.
    fn per_step_ms(&self, total_ns: u64) -> f64 {
        ms(total_ns as f64 / self.steps as f64)
    }

    /// Mean ms per step the layers leave unattributed (negative only if
    /// attributed spans overlapped).
    fn unattributed_ms(&self) -> f64 {
        ms((self.makespan_ns as f64 - self.sum.attributed_ns() as f64) / self.steps as f64)
    }
}

fn rank_budgets(traced: &[&Episode]) -> Vec<RankBudget> {
    (0..traced[0].ranks.len())
        .map(|r| {
            let mut b = RankBudget {
                sum: StepBudget::default(),
                makespan_ns: 0,
                steps: 0,
            };
            for ep in traced {
                let run = &ep.ranks[r];
                let trace = run.trace.as_ref().expect("traced episode has a trace");
                let steps = stats::attribute(&trace.events, &run.steps);
                for (step, makespan) in steps[1..].iter().zip(ep.makespans_ns()) {
                    b.sum += *step;
                    b.makespan_ns += makespan;
                    b.steps += 1;
                }
            }
            b
        })
        .collect()
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn sorted_ms(ns: impl IntoIterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = ns.into_iter().map(|x| ms(x as f64)).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Untraced episodes and their steady-step makespans, ascending, in ms.
fn untraced(episodes: &[Episode]) -> (Vec<&Episode>, Vec<f64>) {
    let plain: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let steps = sorted_ms(plain.iter().flat_map(|e| e.makespans_ns()));
    (plain, steps)
}

/// Human-readable summary of the untraced steps, with each episode's median
/// so a regime flip within the run shows.
fn print_untraced(plain: &[&Episode], steps: &[f64]) {
    let tail = match stats::highest_percentile(steps) {
        Some((q, v)) if q > 0.5 => format!(", p{} {v:.4} ms", q * 100.0),
        _ => String::new(),
    };
    println!(
        "untraced: {} episodes, {} steady steps; step p50 {:.4} ms, min {:.4} ms{tail}",
        plain.len(),
        steps.len(),
        stats::quantile(steps, 0.5),
        steps[0],
    );
    let medians: Vec<String> = plain
        .iter()
        .map(|e| format!("{:.2}", stats::quantile(&sorted_ms(e.makespans_ns()), 0.5)))
        .collect();
    println!("episode medians (ms): {}", medians.join(" "));
}

fn end_to_end(episodes: &[Episode], attempted: usize, failed: usize, rss_mb: f64) -> Metrics {
    let (plain, steps) = untraced(episodes);
    print_untraced(&plain, &steps);
    let setup: Vec<f64> = plain.iter().map(|e| e.setup_ns() as f64 / 1e9).collect();
    println!(
        "setup: median {:.4} s over {} episodes",
        stats::median(&setup),
        setup.len()
    );
    vec![
        ("step_ms_min", steps[0], "ms"),
        ("setup_s", stats::median(&setup), "s"),
        ("peak_rss_mb", rss_mb, "MB"),
        (
            "verify_pass_frac",
            (attempted - failed) as f64 / attempted as f64,
            "frac",
        ),
    ]
}

fn per_layer(episodes: &[Episode]) -> Metrics {
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let (plain, plain_steps) = untraced(episodes);
    print_untraced(&plain, &plain_steps);
    let traced_steps = sorted_ms(traced.iter().flat_map(|e| e.makespans_ns()));
    let budgets = rank_budgets(&traced);
    print_budget_table(&budgets, traced.len());
    let worst = |f: &dyn Fn(&StepBudget) -> u64| {
        budgets
            .iter()
            .map(|b| b.per_step_ms(f(&b.sum)))
            .fold(f64::MIN, f64::max)
    };
    let balance = |f: &dyn Fn(&StepBudget) -> u64| {
        stats::imbalance(&budgets.iter().map(|b| f(&b.sum) as f64).collect::<Vec<_>>())
    };
    let median_of = |f: &dyn Fn(&Episode) -> u64| {
        ms(stats::median(
            &episodes.iter().map(|e| f(e) as f64).collect::<Vec<_>>(),
        ))
    };
    let steady_mean = |f: &dyn Fn(&RankRun) -> &Vec<u64>| {
        let sums: Vec<u64> = episodes.iter().flat_map(|e| e.steady_sums(f)).collect();
        sums.iter().sum::<u64>() as f64 / sums.len() as f64
    };
    let after_first = |f: &dyn Fn(&Counters) -> u64| {
        episodes
            .iter()
            .flat_map(|e| &e.ranks)
            .map(|r| f(&r.last) - f(&r.first))
            .sum::<u64>() as f64
    };
    let traced_n = traced_steps.len() as f64;
    let swept: u64 = traced
        .iter()
        .flat_map(|e| e.steady_sums(|r| &r.swept))
        .sum();
    let sweep_ns: u64 = budgets.iter().map(|b| b.sum.sweep_compute_ns).sum();
    let parks: u64 = budgets.iter().map(|b| b.sum.parks).sum();
    vec![
        ("core.partition_ms", median_of(&|e| e.partition_ns), "ms"),
        (
            "grid.init_ms",
            median_of(&|e| e.worst_rank(|r| r.init_ns)),
            "ms",
        ),
        (
            "sweep.plan_build_ms",
            median_of(&|e| e.worst_rank(|r| r.build_ns)),
            "ms",
        ),
        ("sweep.plan_rebuilds", after_first(&|c| c.builds), "count"),
        ("grid.halo_ms", worst(&|b| b.halo_ns), "ms"),
        ("grid.halo_wait_ms", worst(&|b| b.halo_wait_ns), "ms"),
        ("grid.halo_pack_ms", worst(&|b| b.halo_pack_ns), "ms"),
        ("grid.halo_unpack_ms", worst(&|b| b.halo_unpack_ns), "ms"),
        ("solver.compute_rhs_ms", worst(&|b| b.compute_rhs_ns), "ms"),
        ("solver.coeffs_ms", worst(&|b| b.coeffs_ns), "ms"),
        ("solver.add_ms", worst(&|b| b.add_ns), "ms"),
        ("solver.imbalance", balance(&StepBudget::solver_ns), "ratio"),
        ("sweep.compute_ms", worst(&|b| b.sweep_compute_ns), "ms"),
        ("sweep.pack_ms", worst(&|b| b.sweep_pack_ns), "ms"),
        ("sweep.carry_wait_ms", worst(&|b| b.carry_wait_ns), "ms"),
        (
            "sweep.elements_per_step",
            steady_mean(&|r| &r.swept),
            "count",
        ),
        ("sweep.ns_per_element", sweep_ns as f64 / swept as f64, "ns"),
        ("sweep.imbalance", balance(&|b| b.sweep_compute_ns), "ratio"),
        ("runtime.msgs_per_step", steady_mean(&|r| &r.msgs), "count"),
        (
            "runtime.elements_per_step",
            steady_mean(&|r| &r.elems),
            "count",
        ),
        ("runtime.parks_per_step", parks as f64 / traced_n, "count"),
        ("runtime.park_ms", worst(&|b| b.park_ns), "ms"),
        ("runtime.spin_ms", worst(&|b| b.spin_ns), "ms"),
        (
            "runtime.pool_misses",
            after_first(&|c| c.pool_misses),
            "count",
        ),
        (
            "runtime.send_backpressure",
            after_first(&|c| c.backpressure),
            "count",
        ),
        (
            "step.unattributed_ms",
            budgets
                .iter()
                .map(RankBudget::unattributed_ms)
                .fold(f64::MIN, f64::max),
            "ms",
        ),
        ("step.p50_ms", stats::quantile(&plain_steps, 0.5), "ms"),
        (
            "step.p90_ms",
            stats::percentile(&plain_steps, 0.9).expect("100 untraced steps"),
            "ms",
        ),
        (
            "trace.overhead_frac",
            stats::quantile(&traced_steps, 0.5) / stats::quantile(&plain_steps, 0.5) - 1.0,
            "frac",
        ),
    ]
}

/// The per-rank layer table: on every row the layers plus `unattr` equal
/// the mean step makespan.
fn print_budget_table(budgets: &[RankBudget], episodes: usize) {
    println!(
        "per-rank budget, mean ms per step over {} traced steps in {episodes} episodes:",
        budgets[0].steps
    );
    println!(
        "{:>4} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} | {:>8} {:>8} {:>8} {:>8} {:>8}",
        "rank", "halo", "rhs", "coeffs", "add", "sweep", "s.pack", "c.wait", "build", "unattr",
        "makespan", "h.wait", "h.pack", "h.unpk", "spin", "park"
    );
    for (r, b) in budgets.iter().enumerate() {
        let s = &b.sum;
        let row: Vec<String> = [
            s.halo_ns,
            s.compute_rhs_ns,
            s.coeffs_ns,
            s.add_ns,
            s.sweep_compute_ns,
            s.sweep_pack_ns,
            s.carry_wait_ns,
            s.plan_build_ns,
        ]
        .iter()
        .map(|&ns| format!("{:>8.4}", b.per_step_ms(ns)))
        .collect();
        let sub: Vec<String> = [
            s.halo_wait_ns,
            s.halo_pack_ns,
            s.halo_unpack_ns,
            s.spin_ns,
            s.park_ns,
        ]
        .iter()
        .map(|&ns| format!("{:>8.4}", b.per_step_ms(ns)))
        .collect();
        println!(
            "{r:>4} {} {:>8.4} {:>9.4} | {}",
            row.join(" "),
            b.unattributed_ms(),
            b.per_step_ms(b.makespan_ns),
            sub.join(" ")
        );
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = args.workload;
    let steps = w.steps;
    let prob = Problem::new(w, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let gammas = prob.partition(w.p).gammas().to_vec();
    println!(
        "workload {} ({:?} {}³, p = {}, γ = {gammas:?}), dt = {:e}, {steps} steady steps per episode, trace {}",
        w.name,
        w.app,
        w.n,
        w.p,
        prob.dt(),
        args.trace as u8
    );

    // Closed loop: episode after episode until the time is up. In a traced
    // run every second episode is traced, so the overhead is measured
    // against untraced episodes of the same run; p90 needs 100 steps of each.
    let start = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let traced_steps = |eps: &[Episode]| eps.iter().filter(|e| e.traced).count() * steps;
    while episodes.len() < 2
        || start.elapsed() < budget
        || (args.trace && traced_steps(&episodes) < 100)
    {
        let traced = args.trace && episodes.len() % 2 == 1;
        let mut ep = Episode::run(w, prob, steps, traced);
        // Keep one solution, so stored results do not inflate the peak RSS.
        if let Some(first) = episodes.first() {
            ep.same_as_first = ep.solution == first.solution;
            ep.solution = Vec::new();
        }
        episodes.push(ep);
    }
    let rss_mb = peak_rss_mb();

    // Verification: the serial reference at the same dt and step count.
    // Every episode must reproduce it bit for bit and keep its invariants.
    let (reference, ref_norm) = prob.serial(steps + 1);
    let first_ok = episodes[0].solution == reference;
    let failed = episodes
        .iter()
        .filter(|e| {
            !(first_ok && e.same_as_first)
                || e.ranks.iter().any(|r| {
                    !r.invariants_hold() || (r.norm - ref_norm).abs() > 1e-12 * ref_norm.max(1.0)
                })
        })
        .count();
    let attempted = episodes.len();
    println!(
        "verified {}/{attempted} episodes bitwise against the serial reference ({} steps)",
        attempted - failed,
        steps + 1
    );

    let metrics = if args.trace {
        per_layer(&episodes)
    } else {
        end_to_end(&episodes, attempted, failed, rss_mb)
    };
    print_result(failed == 0, attempted, failed, &metrics);
}
