//! In-process threaded backend: one OS thread per rank.
//!
//! This backend is for *functional* execution — proving that the
//! multipartitioned sweeps compute exactly what a serial run computes. (On
//! the wall-clock side a single machine is not 81 CPUs; performance curves
//! come from the discrete-event [`crate::sim`] backend instead.)
//!
//! Messages travel over one lock-free SPSC ring per `(sender, receiver)`
//! pair (the `ring` module): a send publishes the payload `Vec` into a
//! pre-allocated slot (no lock, no copy, no allocation), and a blocking
//! receive spins for a core-aware budget of ring-pops before parking on a
//! doorbell the sender rings. Delivery is FIFO per
//! `(sender, receiver, tag)`, the [`Communicator`] contract.

use crate::comm::{CommError, CommErrorKind, Communicator, Tag};
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::ring::{RingNet, SpscRing};
use crate::state::RunState;
use mp_trace::SweepRecorder;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most buffers a rank keeps around for payload reuse. One steady-state
/// sweep holds at most a couple of messages in flight per rank, so a small
/// pool captures all the reuse without pinning memory after a burst.
const RECYCLE_POOL_CAP: usize = 8;

/// Ring-pops a blocked receiver performs before parking when each rank
/// can plausibly have a core to itself, so the awaited sender is genuinely
/// making progress.
const DEFAULT_SPIN: u32 = 200;

/// Spin default when ranks outnumber cores: park immediately. Spinning is
/// a bet that the sender is running *right now* on another core; with the
/// host oversubscribed the bet always loses — the receiver burns the very
/// timeslice the sender needs to publish the message, and every spin pass
/// delays it further.
const OVERSUBSCRIBED_SPIN: u32 = 0;

/// The spin budget for a `p`-rank run: [`DEFAULT_SPIN`] with at least one
/// core per rank, [`OVERSUBSCRIBED_SPIN`] otherwise.
fn spin_for(p: u64) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if (p as usize) > cores {
        OVERSUBSCRIBED_SPIN
    } else {
        DEFAULT_SPIN
    }
}

/// `MP_COMM_TIMEOUT_MS` as a receive deadline: a positive integer bounds
/// every blocking receive to that many milliseconds; unset, `0`, or
/// malformed means no deadline (the historical block-forever behavior —
/// env knobs must never abort a run).
pub fn deadline_from_env() -> Option<Duration> {
    std::env::var("MP_COMM_TIMEOUT_MS")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis)
}

/// Configuration of a threaded run beyond the rank closure itself: how
/// long a blocking receive may wait, and which faults to inject.
///
/// [`RunOpts::from_env`] reads both knobs (`MP_COMM_TIMEOUT_MS`,
/// `MP_FAULT`), which is what [`run_threaded`] does;
/// [`run_threaded_result`] takes the options explicitly.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Bound on every blocking receive (`None` = wait forever).
    pub deadline: Option<Duration>,
    /// Fault-injection plan (`None` = bare transport, not even the shim).
    pub fault: Option<FaultPlan>,
}

impl RunOpts {
    /// Everything from the environment: deadline (`MP_COMM_TIMEOUT_MS`)
    /// and fault plan (`MP_FAULT`, randomized plans drawn over `p` ranks). `Err` when `MP_FAULT` is set but
    /// malformed — silently dropping requested faults would make a chaos
    /// soak vacuous.
    pub fn from_env(p: u64) -> Result<RunOpts, String> {
        Ok(RunOpts {
            deadline: deadline_from_env(),
            fault: FaultPlan::from_env(p)?,
        })
    }
}

/// Why one rank of a [`run_threaded_result`] run failed.
#[derive(Debug)]
pub struct RankFailure {
    /// The rank that unwound.
    pub rank: u64,
    /// Human-readable description of the unwind (panic message, or the
    /// rendered [`CommError`]).
    pub message: String,
    /// The typed communication error, when the failure was a bounded
    /// receive giving up (deadline or peer failure) rather than a local
    /// panic.
    pub comm: Option<CommError>,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankFailure {}

type Stash = HashMap<(u64, Tag), VecDeque<Vec<f64>>>;

/// Whether a blocked receive must give up now: the run is poisoned
/// (checked first — a failure is a better answer than a timeout), or the
/// deadline has elapsed.
fn wait_failed(
    run_state: &RunState,
    deadline: Option<Duration>,
    t_start: Instant,
    from: u64,
    tag: Tag,
) -> Option<CommError> {
    if let Some(r) = run_state.failed() {
        return Some(CommError {
            from,
            tag,
            waited: t_start.elapsed(),
            kind: CommErrorKind::RankFailed(r),
        });
    }
    if let Some(d) = deadline {
        let waited = t_start.elapsed();
        if waited >= d {
            return Some(CommError {
                from,
                tag,
                waited,
                kind: CommErrorKind::Timeout,
            });
        }
    }
    None
}

/// Drain `ring` until a `tag` message surfaces, stashing mismatched tags
/// in FIFO order (the sender is fixed per ring, so only tags can differ).
fn ring_take(ring: &SpscRing, from: u64, tag: Tag, stash: &mut Stash) -> Option<Vec<f64>> {
    while let Some((t, payload)) = ring.pop() {
        if t == tag {
            return Some(payload);
        }
        stash.entry((from, t)).or_default().push_back(payload);
    }
    None
}

/// Per-rank endpoint for the threaded backend.
pub struct ThreadedComm {
    rank: u64,
    size: u64,
    /// The ring network shared by every rank of the run.
    net: Arc<RingNet>,
    /// Messages that arrived before anyone asked for them.
    stash: Stash,
    /// Consumed payloads waiting to back a future send
    /// ([`Communicator::take_send_buffer`]).
    pool: Vec<Vec<f64>>,
    /// Ring-pop attempts a blocking receive makes before parking
    /// (core-aware, `spin_for`).
    spin_limit: u32,
    /// Bound on every blocking receive (`MP_COMM_TIMEOUT_MS`; `None` waits
    /// forever). [`Communicator::recv`] raises the typed [`CommError`] as
    /// a panic payload when it expires.
    deadline: Option<Duration>,
    /// Shared health of the run this endpoint belongs to: poisoned by the
    /// first rank that unwinds, checked on every bounded wait slice.
    run_state: Arc<RunState>,
    /// Fault-injection replay for this rank (`None` = bare transport; the
    /// hooks then cost one branch per operation).
    fault: Option<FaultState>,
    /// Counters for observability.
    pub sent_messages: u64,
    /// Total elements sent.
    pub sent_elements: u64,
    /// Times [`Communicator::take_send_buffer`] found the recycle pool
    /// empty and had to allocate. Zero across a steady-state window means
    /// the transport path performed zero allocations in that window.
    pub pool_misses: u64,
    /// Retry rounds sends spent yielding on a full ring (a correctly
    /// sized ring never fills, so nonzero values flag an unexpected
    /// in-flight pile-up rather than an error).
    pub send_backpressure: u64,
    /// Telemetry recorder; `None` (the default) disables tracing with no
    /// cost beyond one branch per instrumentation site. Install one with
    /// [`SweepRecorder::with_epoch`] (sharing the epoch across ranks) at
    /// the start of a traced run and `take()` it back at the end.
    pub trace: Option<SweepRecorder>,
}

impl Communicator for ThreadedComm {
    fn rank(&self) -> u64 {
        self.rank
    }

    fn size(&self) -> u64 {
        self.size
    }

    fn send(&mut self, to: u64, tag: Tag, mut payload: Vec<f64>) {
        assert!(to < self.size, "send to out-of-range rank {to}");
        assert_ne!(to, self.rank, "self-sends are not supported");
        let mut ring_bell = true;
        if let Some(fs) = self.fault.as_mut() {
            if let Some(kind) = fs.fire_send() {
                let t = Instant::now();
                match kind {
                    FaultKind::SwallowDoorbell => ring_bell = false,
                    FaultKind::TruncatePayload => {
                        payload.pop();
                    }
                    _ => {}
                }
                if let Some(tr) = self.trace.as_mut() {
                    tr.stage(t, format!("fault:{}", kind.label()));
                }
            }
        }
        self.sent_messages += 1;
        self.sent_elements += payload.len() as u64;
        if let Some(tr) = self.trace.as_mut() {
            tr.record_send(to, payload.len() as u64);
        }
        let run_state = &self.run_state;
        self.net.send(
            self.rank as usize,
            to as usize,
            (tag, payload),
            &mut self.send_backpressure,
            ring_bell,
            // A full ring normally clears as the receiver drains; once the
            // run is poisoned it never will, so abort the retry loop
            // instead of yielding forever against a dead rank.
            &mut || {
                if let Some(r) = run_state.failed() {
                    std::panic::panic_any(CommError {
                        from: to,
                        tag,
                        waited: Duration::ZERO,
                        kind: CommErrorKind::RankFailed(r),
                    });
                }
            },
        );
    }

    fn recv(&mut self, from: u64, tag: Tag) -> Vec<f64> {
        let deadline = self.deadline;
        match self.recv_deadline(from, tag, deadline) {
            Ok(p) => p,
            // Raise the typed error as a panic payload: un-plumbed callers
            // unwind (and poison the run via the rank harness) instead of
            // hanging; plumbed harnesses downcast it back into a Result.
            Err(e) => std::panic::panic_any(e),
        }
    }

    fn recv_deadline(
        &mut self,
        from: u64,
        tag: Tag,
        deadline: Option<Duration>,
    ) -> Result<Vec<f64>, CommError> {
        // Fault hook first, so ordinals count every blocking receive and a
        // plan replays identically regardless of stash state. (The hook
        // also fires the injected-panic drill.)
        if let Some(fs) = self.fault.as_mut() {
            if let Some(FaultKind::DelayRecv { pops }) = fs.fire_recv() {
                let t = Instant::now();
                std::thread::sleep(Duration::from_micros(100 * pops as u64));
                if let Some(tr) = self.trace.as_mut() {
                    tr.stage(t, "fault:delay");
                }
            }
        }
        if let Some(q) = self.stash.get_mut(&(from, tag)) {
            if let Some(p) = q.pop_front() {
                return Ok(p);
            }
        }
        // Only a genuine block (stash miss) is worth a comm-wait span;
        // stash hits above return untimed.
        let run_state = Arc::clone(&self.run_state);
        let ThreadedComm {
            rank,
            net,
            stash,
            spin_limit,
            trace,
            ..
        } = self;
        let t_start = Instant::now();
        let t0 = trace.is_some().then_some(t_start);
        let ring = net.ring(from as usize, *rank as usize);
        // Stage 0: already published.
        if let Some(p) = ring_take(ring, from, tag, stash) {
            if let (Some(t0), Some(tr)) = (t0, trace.as_mut()) {
                tr.comm_wait(t0, from, tag);
            }
            return Ok(p);
        }
        // Stage 1: spin — cheap pops, no syscall, no yield. The budget is
        // small and bounded, so poison/deadline checks wait for stage 2.
        for _ in 0..*spin_limit {
            std::hint::spin_loop();
            if let Some(p) = ring_take(ring, from, tag, stash) {
                if let (Some(t0), Some(tr)) = (t0, trace.as_mut()) {
                    tr.comm_spin(t0, from, tag);
                    tr.comm_wait(t0, from, tag);
                }
                return Ok(p);
            }
        }
        // Stage 2: park until the sender rings the doorbell, the run
        // poisons (RunState unparks us), or the deadline elapses (the
        // bounded park_timeout re-checks every slice).
        let t_park = trace.is_some().then(Instant::now);
        if let (Some(t0), Some(tr)) = (t0, trace.as_mut()) {
            if *spin_limit > 0 {
                tr.comm_spin(t0, from, tag);
            }
        }
        let mut got = None;
        let mut err = None;
        net.park_until(*rank as usize, || {
            got = ring_take(ring, from, tag, stash);
            if got.is_some() {
                return true;
            }
            err = wait_failed(&run_state, deadline, t_start, from, tag);
            err.is_some()
        });
        if let (Some(tp), Some(tr)) = (t_park, trace.as_mut()) {
            tr.comm_park(tp, from, tag);
        }
        if let (Some(t0), Some(tr)) = (t0, trace.as_mut()) {
            tr.comm_wait(t0, from, tag);
        }
        match got {
            Some(p) => Ok(p),
            None => Err(err.expect("park_until returned without message or error")),
        }
    }

    fn tracer(&mut self) -> Option<&mut SweepRecorder> {
        self.trace.as_mut()
    }

    fn take_send_buffer(&mut self) -> Vec<f64> {
        match self.pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => {
                self.pool_misses += 1;
                Vec::new()
            }
        }
    }

    fn recycle(&mut self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.pool.len() < RECYCLE_POOL_CAP {
            self.pool.push(buf);
            return;
        }
        // Pool is full: keep the largest-capacity buffers so steady-state
        // sends don't regrow after a burst of small messages. Evict the
        // smallest pooled buffer if the incoming one beats it.
        let (min_idx, min_cap) = self
            .pool
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.capacity()))
            .min_by_key(|&(_, c)| c)
            .expect("pool is non-empty");
        if buf.capacity() > min_cap {
            self.pool[min_idx] = buf;
        }
    }

    fn reserve_buffers(&mut self, sizes: &[usize]) {
        // Pre-populate the recycle pool so the first send of each planned
        // length already finds a buffer of sufficient capacity. Reuse the
        // recycle policy (cap + keep-largest) rather than duplicating it.
        for &s in sizes {
            if s > 0 && !self.pool.iter().any(|b| b.capacity() >= s) {
                self.recycle(Vec::with_capacity(s));
            }
        }
    }
}

/// Secondary panics carrying a typed [`CommError`] payload are controlled
/// unwinds (the poison/deadline path): when one rank dies, the remaining
/// `p − 1` unwind through [`Communicator::recv`] by design. Printing p − 1
/// "thread panicked" reports for every primary failure would bury the root
/// cause, so the default hook is wrapped (once per process) to skip them.
fn silence_comm_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CommError>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Render a panic payload for humans: the rendered [`CommError`] when that
/// is what it carries (the controlled unwind of a failed bounded receive),
/// otherwise the panic string. Used for [`RankFailure::message`] and by
/// error-plumbed executors downstream.
pub fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(e) = payload.downcast_ref::<CommError>() {
        return e.to_string();
    }
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "rank panicked with a non-string payload".to_string()
}

/// A rank's outcome plus, on failure, the original panic payload (kept so
/// the infallible wrappers can re-raise it unchanged).
type RankOutcome<R> = Result<R, (RankFailure, Box<dyn std::any::Any + Send>)>;

/// The shared harness: run `f` on `p` ranks and classify every outcome.
/// Returns the per-rank outcomes and the rank that poisoned the run first
/// (the root cause), if any.
fn run_ranks<R, F>(p: u64, opts: RunOpts, f: F) -> (Vec<RankOutcome<R>>, Option<u64>)
where
    R: Send,
    F: Fn(&mut ThreadedComm) -> R + Send + Sync,
{
    assert!(p >= 1);
    silence_comm_panics();
    let spin_limit = spin_for(p);
    let net = Arc::new(RingNet::new(p as usize));
    let run_state = Arc::new(RunState::new());
    let mut results: Vec<Option<RankOutcome<R>>> = (0..p).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p as usize)
            .map(|rank| {
                let f = &f;
                let net = Arc::clone(&net);
                let run_state = Arc::clone(&run_state);
                let fault = opts.fault.as_ref().map(|pl| pl.state_for(rank as u64));
                let deadline = opts.deadline;
                scope.spawn(move || {
                    net.register(rank);
                    run_state.register();
                    let mut comm = ThreadedComm {
                        rank: rank as u64,
                        size: p,
                        net,
                        stash: HashMap::new(),
                        pool: Vec::new(),
                        spin_limit,
                        deadline,
                        run_state: Arc::clone(&run_state),
                        fault,
                        sent_messages: 0,
                        sent_elements: 0,
                        pool_misses: 0,
                        send_backpressure: 0,
                        trace: None,
                    };
                    match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                        Ok(r) => Ok(r),
                        Err(payload) => {
                            // Poison before this thread exits so peers
                            // blocked on us wake immediately, not at join
                            // time.
                            run_state.poison(rank as u64);
                            Err(payload)
                        }
                    }
                })
            })
            .collect();
        for (rank, h) in handles.into_iter().enumerate() {
            let outcome = match h.join() {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(payload)) | Err(payload) => {
                    let comm_err = payload.downcast_ref::<CommError>().cloned();
                    let message = panic_payload_message(payload.as_ref());
                    Err((
                        RankFailure {
                            rank: rank as u64,
                            message,
                            comm: comm_err,
                        },
                        payload,
                    ))
                }
            };
            results[rank] = Some(outcome);
        }
    });
    let first_failed = run_state.failed();
    (
        results.into_iter().map(|r| r.unwrap()).collect(),
        first_failed,
    )
}

/// Run `f` on `p` ranks under explicit [`RunOpts`] and collect every
/// rank's outcome (index = rank) instead of panicking: a rank that unwinds
/// — its own panic, an injected fault, a receive deadline, or a peer's
/// failure — yields a typed [`RankFailure`]. One failed rank poisons the
/// shared [`RunState`], so every other rank unwinds with
/// [`CommErrorKind::RankFailed`] instead of deadlocking on messages that
/// can never arrive.
///
/// ```
/// use mp_runtime::{run_threaded_result, Communicator, RunOpts};
/// // Rank 1 dies before sending; rank 0 must fail cleanly, not hang.
/// let results = run_threaded_result(2, RunOpts::default(), |comm| {
///     if comm.rank() == 1 {
///         panic!("boom");
///     }
///     comm.recv(1, 7)
/// });
/// let err0 = results[0].as_ref().unwrap_err();
/// assert_eq!(err0.comm.as_ref().unwrap().kind,
///            mp_runtime::CommErrorKind::RankFailed(1));
/// assert!(results[1].as_ref().unwrap_err().message.contains("boom"));
/// ```
pub fn run_threaded_result<R, F>(p: u64, opts: RunOpts, f: F) -> Vec<Result<R, RankFailure>>
where
    R: Send,
    F: Fn(&mut ThreadedComm) -> R + Send + Sync,
{
    run_ranks(p, opts, f)
        .0
        .into_iter()
        .map(|r| r.map_err(|(failure, _)| failure))
        .collect()
}

/// Run `f` on `p` ranks, each on its own thread, and collect the per-rank
/// return values (index = rank). [`run_threaded_result`] is the
/// non-panicking variant. The deadline and fault knobs come from the
/// environment (`MP_COMM_TIMEOUT_MS`, `MP_FAULT`), so every entry point
/// honors them.
///
/// ```
/// use mp_runtime::{run_threaded, Communicator};
/// // Each rank sends its id to rank 0, which sums them.
/// let result = run_threaded(4, |comm| {
///     if comm.rank() == 0 {
///         (1..4).map(|r| comm.recv(r, 9)[0]).sum::<f64>()
///     } else {
///         comm.send(0, 9, vec![comm.rank() as f64]);
///         0.0
///     }
/// });
/// assert_eq!(result[0], 6.0);
/// ```
///
/// # Panics
/// Propagates the root-cause rank's panic (the rank that poisoned the run
/// first — secondary [`CommError`] unwinds on other ranks are not the
/// story), or panics if `MP_FAULT` is set but malformed.
pub fn run_threaded<R, F>(p: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut ThreadedComm) -> R + Send + Sync,
{
    let opts = RunOpts::from_env(p).expect("malformed MP_FAULT");
    let (results, first_failed) = run_ranks(p, opts, f);
    let mut out: Vec<Option<R>> = Vec::with_capacity(results.len());
    let mut primary: Option<Box<dyn std::any::Any + Send>> = None;
    let mut fallback: Option<Box<dyn std::any::Any + Send>> = None;
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => out.push(Some(v)),
            Err((_, payload)) => {
                out.push(None);
                if first_failed == Some(rank as u64) {
                    primary = Some(payload);
                } else if fallback.is_none() {
                    fallback = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = primary.or(fallback) {
        resume_unwind(payload);
    }
    out.into_iter().map(|r| r.unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        // Each rank sends its rank number around a ring; after p hops every
        // rank has its own value back.
        let p = 4u64;
        let sums = run_threaded(p, |comm| {
            let me = comm.rank();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            let mut val = me as f64;
            for hop in 0..p {
                comm.send(next, hop, vec![val]);
                val = comm.recv(prev, hop)[0];
            }
            val
        });
        assert_eq!(sums, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn out_of_order_tags() {
        // Rank 0 sends tags 2,1,0; rank 1 receives 0,1,2 — stash must hold
        // the early arrivals.
        let res = run_threaded(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 2, vec![2.0]);
                comm.send(1, 1, vec![1.0]);
                comm.send(1, 0, vec![0.0]);
                0.0
            } else {
                let a = comm.recv(0, 0)[0];
                let b = comm.recv(0, 1)[0];
                let c = comm.recv(0, 2)[0];
                a * 100.0 + b * 10.0 + c
            }
        });
        assert_eq!(res[1], 12.0);
    }

    #[test]
    fn fifo_per_tag() {
        let res = run_threaded(2, |comm| {
            if comm.rank() == 0 {
                for k in 0..5 {
                    comm.send(1, 7, vec![k as f64]);
                }
                0.0
            } else {
                let mut order = Vec::new();
                for _ in 0..5 {
                    order.push(comm.recv(0, 7)[0]);
                }
                assert_eq!(order, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
                1.0
            }
        });
        assert_eq!(res[1], 1.0);
    }

    #[test]
    fn barrier_all_ranks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let counter = AtomicU64::new(0);
        run_threaded(5, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all 5 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 5);
        });
    }

    #[test]
    fn allreduce_sum_vector() {
        let res = run_threaded(4, |comm| {
            let me = comm.rank() as f64;
            comm.allreduce_sum(&[me, 2.0 * me])
        });
        for r in res {
            assert_eq!(r, vec![6.0, 12.0]); // 0+1+2+3, 0+2+4+6
        }
    }

    #[test]
    fn single_rank_run() {
        let res = run_threaded(1, |comm| {
            comm.barrier();
            comm.rank() + comm.size()
        });
        assert_eq!(res, vec![1]);
    }

    #[test]
    fn recycled_buffers_are_reused_and_counted() {
        let res = run_threaded(2, |comm| {
            if comm.rank() == 0 {
                let mut total = 0u64;
                for k in 0..4 {
                    let mut buf = comm.take_send_buffer();
                    assert!(buf.is_empty());
                    // After the first round-trip the pooled buffer's
                    // allocation comes back to us.
                    if k > 0 {
                        assert!(buf.capacity() >= 3);
                    }
                    buf.extend_from_slice(&[k as f64, 1.0, 2.0]);
                    comm.send(1, k, buf);
                    let echo = comm.recv(1, 100 + k);
                    assert_eq!(echo[0], k as f64);
                    comm.recycle(echo);
                    total += 1;
                }
                assert_eq!(comm.sent_messages, total);
                assert_eq!(comm.sent_elements, 3 * total);
                // Only the very first take missed the (then empty) pool.
                assert_eq!(comm.pool_misses, 1);
                0.0
            } else {
                for k in 0..4 {
                    let msg = comm.recv(0, k);
                    comm.send(0, 100 + k, msg);
                }
                0.0
            }
        });
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn recycle_pool_keeps_largest_buffers() {
        let res = run_threaded(1, |comm| {
            // Fill the pool with one big buffer and many small ones.
            comm.recycle(Vec::with_capacity(4096));
            for _ in 0..RECYCLE_POOL_CAP - 1 {
                comm.recycle(Vec::with_capacity(16));
            }
            // Burst of medium buffers with the pool full: each must evict a
            // 16-cap entry, never the 4096-cap one.
            for _ in 0..RECYCLE_POOL_CAP {
                comm.recycle(Vec::with_capacity(256));
            }
            // Zero-capacity buffers are never pooled.
            comm.recycle(Vec::new());
            let caps: Vec<usize> = comm.pool.iter().map(|b| b.capacity()).collect();
            assert_eq!(caps.len(), RECYCLE_POOL_CAP);
            assert!(
                caps.contains(&4096),
                "largest buffer evicted: caps = {caps:?}"
            );
            assert!(
                caps.iter().all(|&c| c >= 256),
                "small buffer survived a larger arrival: caps = {caps:?}"
            );
            // A buffer smaller than everything pooled is dropped.
            comm.recycle(Vec::with_capacity(8));
            assert!(comm.pool.iter().all(|b| b.capacity() >= 256));
            0.0
        });
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn reserve_buffers_presizes_pool() {
        let res = run_threaded(1, |comm| {
            comm.reserve_buffers(&[128, 512, 0]);
            // Zero-length requests are ignored; each distinct size got a
            // buffer unless an existing one already covered it.
            let caps: Vec<usize> = comm.pool.iter().map(|b| b.capacity()).collect();
            assert_eq!(caps.len(), 2, "caps = {caps:?}");
            assert!(caps.iter().any(|&c| c >= 512));
            // A size already covered by a pooled buffer adds nothing.
            comm.reserve_buffers(&[256]);
            assert_eq!(comm.pool.len(), 2);
            // take_send_buffer returns a pre-sized buffer, empty but with
            // capacity.
            let buf = comm.take_send_buffer();
            assert!(buf.is_empty() && buf.capacity() >= 128);
            assert_eq!(comm.pool_misses, 0, "reserved sizes must not miss");
            0.0
        });
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn recorder_counters_match_comm_counters() {
        // With tracing installed, the recorder's per-peer send accounting
        // must equal the endpoint's own counters bitwise, and blocking
        // receives must surface as comm-wait spans.
        let epoch = Instant::now();
        let res = run_threaded(3, move |comm| {
            comm.trace = Some(SweepRecorder::with_epoch(comm.rank(), epoch));
            let me = comm.rank();
            let next = (me + 1) % 3;
            let prev = (me + 2) % 3;
            for hop in 0..4u64 {
                let payload = vec![me as f64; 5 + hop as usize];
                comm.send(next, hop, payload);
                let _ = comm.recv(prev, hop);
            }
            let rec = comm.trace.take().unwrap();
            (rec.stats().clone(), comm.sent_messages, comm.sent_elements)
        });
        for (rank, (stats, sent_messages, sent_elements)) in res.iter().enumerate() {
            assert_eq!(stats.sent_messages(), *sent_messages, "rank {rank}");
            assert_eq!(stats.sent_elements(), *sent_elements, "rank {rank}");
            assert_eq!(*sent_messages, 4);
            assert_eq!(*sent_elements, 5 + 6 + 7 + 8);
            // All traffic went to the single downstream neighbor.
            assert_eq!(stats.sent.len(), 1);
        }
    }

    #[test]
    fn blocked_ring_recv_records_spin_then_park() {
        // Rank 1 holds its message back long past any spin budget, so rank
        // 0's blocking receive must go through both stages — and the trace
        // must show the split: a spin span, a park span, and the enclosing
        // comm-wait covering the whole blocked interval.
        let epoch = Instant::now();
        let res = run_threaded(2, move |comm| {
            if comm.rank() == 0 {
                comm.trace = Some(SweepRecorder::with_epoch(0, epoch));
                let got = comm.recv(1, 3);
                assert_eq!(got, vec![7.0]);
                comm.trace.take().unwrap().stats().clone()
            } else {
                std::thread::sleep(std::time::Duration::from_millis(30));
                comm.send(0, 3, vec![7.0]);
                mp_trace::SweepStats::default()
            }
        });
        let s = &res[0];
        assert!(s.comm_wait_ns >= 20_000_000, "wait {} ns", s.comm_wait_ns);
        assert!(s.comm_park_ns > 0, "receiver never parked");
        // The split stays inside the enclosing wait (modulo the few ns
        // between the two clock reads at each stage boundary).
        assert!(s.comm_park_ns <= s.comm_wait_ns);
    }

    #[test]
    fn full_ring_backpressure_is_counted_not_fatal() {
        // Rank 1 sleeps long enough for rank 0 to fill the 256-slot ring;
        // the overflow sends must spin (counted) and every message must
        // still arrive in order.
        let n = crate::ring::RING_CAP as u64 + 16;
        let res = run_threaded(2, move |comm| {
            if comm.rank() == 0 {
                for k in 0..n {
                    comm.send(1, 0, vec![k as f64]);
                }
                comm.send_backpressure
            } else {
                std::thread::sleep(std::time::Duration::from_millis(100));
                for k in 0..n {
                    assert_eq!(comm.recv(0, 0), vec![k as f64]);
                }
                comm.send_backpressure
            }
        });
        assert!(res[0] > 0, "overfilling the ring must count backpressure");
        assert_eq!(res[1], 0);
    }

    #[test]
    fn no_tracer_by_default() {
        run_threaded(2, |comm| {
            assert!(comm.tracer().is_none());
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1.0]);
            } else {
                let _ = comm.recv(0, 0);
            }
        });
    }

    #[test]
    fn message_counters() {
        let res = run_threaded(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1.0, 2.0, 3.0]);
                (comm.sent_messages, comm.sent_elements)
            } else {
                let _ = comm.recv(0, 0);
                (comm.sent_messages, comm.sent_elements)
            }
        });
        assert_eq!(res[0], (1, 3));
        assert_eq!(res[1], (0, 0));
    }

    #[test]
    fn recv_deadline_times_out_with_typed_error() {
        let res = run_threaded_result(2, RunOpts::default(), |comm| {
            if comm.rank() == 0 {
                // Nobody ever sends tag 9: the bounded receive must
                // give up, not hang.
                comm.recv_deadline(1, 9, Some(Duration::from_millis(40)))
            } else {
                Ok(Vec::new())
            }
        });
        let err = res[0].as_ref().unwrap().as_ref().unwrap_err();
        assert_eq!(err.kind, CommErrorKind::Timeout);
        assert_eq!((err.from, err.tag), (1, 9));
        assert!(
            err.waited >= Duration::from_millis(40),
            "gave up after only {:?}",
            err.waited
        );
    }

    #[test]
    fn undeadlined_recv_with_timeout_env_is_bounded() {
        // The infallible recv() raises the typed error as a panic payload,
        // which the result harness classifies — no hang, no deadlock.
        let opts = RunOpts {
            deadline: Some(Duration::from_millis(40)),
            ..RunOpts::default()
        };
        let res = run_threaded_result(2, opts, |comm| {
            if comm.rank() == 0 {
                let _ = comm.recv(1, 9); // never sent
            }
        });
        let failure = res[0].as_ref().unwrap_err();
        let comm_err = failure.comm.as_ref().expect("typed error must survive");
        assert_eq!(comm_err.kind, CommErrorKind::Timeout);
        assert!(failure.message.contains("timeout"), "{}", failure.message);
        assert!(res[1].is_ok());
    }

    #[test]
    fn panicked_rank_poisons_peers_instead_of_deadlock() {
        // Rank 2 dies before sending anything; every other rank is blocked
        // on it (directly or transitively) with NO deadline configured.
        // Poison propagation alone must unwind them all, promptly.
        let t0 = Instant::now();
        let res = run_threaded_result(4, RunOpts::default(), |comm| {
            if comm.rank() == 2 {
                panic!("boom");
            }
            let _ = comm.recv(2, 5);
        });
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "poison propagation took {:?}",
            t0.elapsed()
        );
        for (rank, r) in res.iter().enumerate() {
            let failure = r.as_ref().unwrap_err();
            assert_eq!(failure.rank, rank as u64);
            if rank == 2 {
                assert!(failure.message.contains("boom"));
                assert!(failure.comm.is_none());
            } else {
                assert_eq!(
                    failure.comm.as_ref().map(|e| e.kind),
                    Some(CommErrorKind::RankFailed(2)),
                    "rank {rank}: {}",
                    failure.message
                );
            }
        }
    }

    #[test]
    fn poisoned_sender_on_full_ring_unwinds() {
        // Rank 0 pushes unbounded traffic at a rank that dies without
        // draining: once the ring fills, the send retry loop must observe
        // the poison and unwind instead of yielding forever.
        let opts = RunOpts::default();
        let res = run_threaded_result(2, opts, |comm| {
            if comm.rank() == 0 {
                for k in 0..10 * crate::ring::RING_CAP as u64 {
                    comm.send(1, 0, vec![k as f64]);
                }
            } else {
                panic!("receiver dies without draining");
            }
        });
        let failure = res[0].as_ref().unwrap_err();
        assert_eq!(
            failure.comm.as_ref().map(|e| e.kind),
            Some(CommErrorKind::RankFailed(1))
        );
    }

    #[test]
    fn injected_panic_fault_fails_all_ranks() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let opts = RunOpts {
            fault: Some(FaultPlan::parse("panic:1:1").unwrap()),
            ..RunOpts::default()
        };
        // Rank 1 reaches its fatal op only once rank 2 has published its
        // send to rank 0, whatever order the threads are scheduled in.
        let rank2_sent = AtomicBool::new(false);
        let res = run_threaded_result(3, opts, |comm| {
            let me = comm.rank();
            let next = (me + 1) % 3;
            let prev = (me + 2) % 3;
            if me == 1 {
                while !rank2_sent.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            comm.send(next, 0, vec![me as f64]);
            if me == 2 {
                rank2_sent.store(true, Ordering::Release);
            }
            comm.recv(prev, 0)[0]
        });
        let f1 = res[1].as_ref().unwrap_err();
        assert!(
            f1.message
                .contains("injected fault: rank 1 panics at comm op 1"),
            "{}",
            f1.message
        );
        // Rank 2 awaits the message rank 1 died before sending: it must
        // unwind with the root cause. Rank 0's only dependency (rank 2's
        // send) was satisfied before the failure, so it finishes — poison
        // never kills work that no longer needs the dead rank.
        let f2 = res[2].as_ref().unwrap_err();
        assert_eq!(
            f2.comm.as_ref().map(|e| e.kind),
            Some(CommErrorKind::RankFailed(1)),
            "rank 2: {}",
            f2.message
        );
        assert_eq!(*res[0].as_ref().unwrap(), 2.0);
    }

    #[test]
    fn truncate_fault_ships_one_element_short() {
        let opts = RunOpts {
            fault: Some(FaultPlan::parse("trunc:0:1").unwrap()),
            ..RunOpts::default()
        };
        let res = run_threaded_result(2, opts, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, vec![1.0, 2.0, 3.0]);
                0
            } else {
                comm.recv(0, 3).len()
            }
        });
        assert_eq!(*res[1].as_ref().unwrap(), 2, "payload must arrive garbled");
    }

    #[test]
    fn swallowed_doorbell_fault_still_delivers() {
        // The lost-wakeup drill end to end: the receiver parks long before
        // the bell-less send and must recover via its bounded park.
        let opts = RunOpts {
            fault: Some(FaultPlan::parse("swallow:0:1").unwrap()),
            ..RunOpts::default()
        };
        let res = run_threaded_result(2, opts, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                comm.send(1, 3, vec![7.0]);
                0.0
            } else {
                comm.recv(0, 3)[0]
            }
        });
        assert_eq!(*res[1].as_ref().unwrap(), 7.0);
    }

    #[test]
    fn fault_free_shim_matches_bare_transport_counters() {
        let exercise = |fault: Option<FaultPlan>| {
            let opts = RunOpts {
                fault,
                ..RunOpts::default()
            };
            run_threaded_result(3, opts, |comm| {
                let me = comm.rank();
                let next = (me + 1) % 3;
                let prev = (me + 2) % 3;
                for hop in 0..5u64 {
                    comm.send(next, hop, vec![me as f64; 4]);
                    let _ = comm.recv(prev, hop);
                }
                comm.barrier();
                (comm.sent_messages, comm.sent_elements, comm.pool_misses)
            })
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<_>>()
        };
        let bare = exercise(None);
        let shimmed = exercise(Some(FaultPlan::fault_free(0x750C)));
        assert_eq!(bare, shimmed, "fault-free shim must be transparent");
    }

    #[test]
    fn deadline_env_parses() {
        // Only harmless values are set here: other tests may run
        // run_threaded concurrently in this process, and a short global
        // deadline would make them flaky.
        std::env::set_var("MP_COMM_TIMEOUT_MS", "60000");
        assert_eq!(deadline_from_env(), Some(Duration::from_secs(60)));
        std::env::set_var("MP_COMM_TIMEOUT_MS", "0");
        assert_eq!(deadline_from_env(), None, "0 means off");
        std::env::set_var("MP_COMM_TIMEOUT_MS", "banana");
        assert_eq!(deadline_from_env(), None, "malformed means off");
        std::env::remove_var("MP_COMM_TIMEOUT_MS");
        assert_eq!(deadline_from_env(), None);
    }

    #[test]
    fn spin_budget_is_core_aware() {
        // Full spin when every rank can have a core, park-immediately when
        // ranks oversubscribe.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        assert_eq!(spin_for(1), DEFAULT_SPIN);
        assert_eq!(spin_for(cores), DEFAULT_SPIN);
        assert_eq!(spin_for(cores + 1), OVERSUBSCRIBED_SPIN);
    }
}
