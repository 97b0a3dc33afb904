//! Deterministic fault injection for the threaded backend.
//!
//! A [`FaultPlan`] is a seeded, fully reproducible list of fault events
//! that the per-rank endpoints replay while a run executes: receive
//! delays, swallowed doorbells, injected rank panics, and truncated
//! payloads. The shim sits *inside* [`crate::threaded::ThreadedComm`], in
//! front of the SPSC rings that carry the messages. With no plan installed
//! the hooks compile down to one `Option` branch per operation.
//!
//! Plans come from three places:
//!
//! * `MP_FAULT=<spec>` — the environment knob every entry point honors
//!   ([`FaultPlan::from_env`]);
//! * `mpart chaos` — randomized plans derived from a CLI seed
//!   ([`FaultPlan::randomized`]);
//! * tests — hand-written plans ([`FaultPlan::parse`] or literal structs).
//!
//! Every fired fault is recorded as an `mp-trace` stage span named
//! `fault:<kind>`, so a chaos trace shows exactly where the schedule was
//! perturbed.

/// What one injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Delay the rank's *nth* blocking receive by this many extra 100 µs
    /// waiting rounds before the transport is even consulted. Results are
    /// unchanged; only latency moves (and a delay longer than the
    /// configured deadline surfaces as a clean typed timeout).
    DelayRecv {
        /// Extra 100 µs rounds to withhold the receive for.
        pops: u32,
    },
    /// The rank's *nth* send publishes its payload but never rings the
    /// receiver's doorbell. The receiver must recover via its bounded
    /// `park_timeout` — this is the lost-wakeup drill.
    SwallowDoorbell,
    /// The rank panics at its *nth* communication operation (sends and
    /// receives counted together) — the worker-death drill. All other
    /// ranks must unwind with `RankFailed` instead of deadlocking.
    Panic,
    /// The rank's *nth* send ships one element short. The receiver's
    /// length checks catch the garble and fail the run cleanly.
    TruncatePayload,
}

impl FaultKind {
    /// Stable short label, used for trace spans (`fault:<label>`) and the
    /// round-trippable [`FaultPlan::spec`] grammar.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DelayRecv { .. } => "delay",
            FaultKind::SwallowDoorbell => "swallow",
            FaultKind::Panic => "panic",
            FaultKind::TruncatePayload => "trunc",
        }
    }
}

/// One scheduled fault: which rank, at which operation ordinal, does what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Rank the fault fires on.
    pub rank: u64,
    /// 1-based ordinal of the triggering operation on that rank —
    /// receives for [`FaultKind::DelayRecv`], sends for
    /// [`FaultKind::SwallowDoorbell`] / [`FaultKind::TruncatePayload`],
    /// and combined send+receive count for [`FaultKind::Panic`].
    pub nth: u64,
    /// What happens when the ordinal is reached.
    pub kind: FaultKind,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultKind::DelayRecv { pops } => {
                write!(f, "delay:{}:{}:{}", self.rank, self.nth, pops)
            }
            _ => write!(f, "{}:{}:{}", self.kind.label(), self.rank, self.nth),
        }
    }
}

/// A deterministic, seeded fault schedule for one run. See the module docs.
///
/// ```
/// use mp_runtime::FaultPlan;
/// let plan = FaultPlan::parse("panic:1:3,delay:0:2:50").unwrap();
/// assert_eq!(plan.events.len(), 2);
/// // The spec grammar round-trips.
/// assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
/// // Seeded plans are reproducible.
/// assert_eq!(FaultPlan::randomized(0x750C, 16), FaultPlan::randomized(0x750C, 16));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for hand-written plans); carried
    /// along so failures can name the plan that provoked them.
    pub seed: u64,
    /// The scheduled faults. Empty = a fault-free shim (the overhead /
    /// bitwise-identity baseline).
    pub events: Vec<FaultEvent>,
}

/// xorshift64* step — the same tiny generator style the workspace's
/// testkit uses; good enough to scatter fault ordinals, and dependency-free.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl FaultPlan {
    /// A fault-free plan carrying `seed` — the shim is installed (counters
    /// tick, hooks run) but nothing ever fires. Used to measure shim
    /// overhead and to assert bitwise identity with the bare transport.
    pub fn fault_free(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// A reproducible random plan for a `p`-rank run: 0–3 events with
    /// ranks, ordinals, and kinds drawn from `seed`. Roughly a quarter of
    /// seeds produce a fault-free plan, so soaks also cover the
    /// nothing-injected control case.
    pub fn randomized(seed: u64, p: u64) -> Self {
        let mut s = seed | 1; // xorshift must not start at 0
        let n = xorshift(&mut s) % 4;
        let events = (0..n)
            .map(|_| {
                let rank = xorshift(&mut s) % p.max(1);
                let nth = 1 + xorshift(&mut s) % 40;
                let kind = match xorshift(&mut s) % 4 {
                    0 => FaultKind::DelayRecv {
                        pops: 1 + (xorshift(&mut s) % 50) as u32,
                    },
                    1 => FaultKind::SwallowDoorbell,
                    2 => FaultKind::Panic,
                    _ => FaultKind::TruncatePayload,
                };
                FaultEvent { rank, nth, kind }
            })
            .collect();
        FaultPlan { seed, events }
    }

    /// Parse a plan spec: comma-separated events, each
    /// `panic:<rank>:<nth>`, `swallow:<rank>:<nth>`, `trunc:<rank>:<nth>`,
    /// or `delay:<rank>:<nth>:<pops>`. The output of [`FaultPlan::spec`]
    /// parses back to an equal plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut events = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let fields: Vec<&str> = part.split(':').collect();
            let num = |i: usize, what: &str| -> Result<u64, String> {
                fields
                    .get(i)
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .ok_or_else(|| format!("fault event '{part}': bad or missing {what}"))
            };
            let (nfields, kind) = match fields[0] {
                "panic" => (3, FaultKind::Panic),
                "swallow" => (3, FaultKind::SwallowDoorbell),
                "trunc" => (3, FaultKind::TruncatePayload),
                "delay" => (
                    4,
                    FaultKind::DelayRecv {
                        pops: num(3, "pop count")? as u32,
                    },
                ),
                other => return Err(format!("unknown fault kind '{other}' in '{part}'")),
            };
            if fields.len() != nfields {
                return Err(format!(
                    "fault event '{part}': expected {nfields} ':'-separated fields"
                ));
            }
            events.push(FaultEvent {
                rank: num(1, "rank")?,
                nth: num(2, "ordinal")?.max(1),
                kind,
            });
        }
        Ok(FaultPlan { seed: 0, events })
    }

    /// The plan from `MP_FAULT`, if set: either `seed:<integer>` (hex with
    /// `0x`) for a [`FaultPlan::randomized`] plan over `p` ranks, or an
    /// explicit event list in the [`FaultPlan::parse`] grammar. A
    /// malformed value is an error — silently running *without* the
    /// requested faults would make a chaos soak vacuous.
    pub fn from_env(p: u64) -> Result<Option<FaultPlan>, String> {
        match std::env::var("MP_FAULT") {
            Ok(v) if !v.trim().is_empty() => {
                let v = v.trim().to_string();
                if let Some(seed) = v.strip_prefix("seed:") {
                    let seed =
                        parse_int(seed).ok_or_else(|| format!("MP_FAULT: bad seed '{seed}'"))?;
                    Ok(Some(FaultPlan::randomized(seed, p)))
                } else {
                    FaultPlan::parse(&v).map(Some)
                }
            }
            _ => Ok(None),
        }
    }

    /// The round-trippable spec string for this plan's events
    /// (`""` for a fault-free plan).
    pub fn spec(&self) -> String {
        self.events
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The per-rank replay state for `rank`.
    pub(crate) fn state_for(&self, rank: u64) -> FaultState {
        FaultState {
            seed: self.seed,
            rank,
            sends: 0,
            recvs: 0,
            ops: 0,
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| e.rank == rank)
                .collect(),
        }
    }
}

/// Decimal or `0x`-prefixed hex integer.
pub(crate) fn parse_int(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// One rank's fault replay: operation counters plus that rank's slice of
/// the plan. Hooks are called by `ThreadedComm` around every send and
/// blocking receive; they return the fault that fired (if any) so the
/// caller can record a trace span and apply the effect.
#[derive(Debug)]
pub(crate) struct FaultState {
    seed: u64,
    rank: u64,
    sends: u64,
    recvs: u64,
    ops: u64,
    events: Vec<FaultEvent>,
}

impl FaultState {
    /// Count a send; return the fault firing on it, if any. Panics (the
    /// injected worker-death) when a [`FaultKind::Panic`] ordinal is hit.
    pub(crate) fn fire_send(&mut self) -> Option<FaultKind> {
        self.sends += 1;
        self.ops += 1;
        self.check_panic();
        self.events
            .iter()
            .find(|e| {
                e.nth == self.sends
                    && matches!(
                        e.kind,
                        FaultKind::SwallowDoorbell | FaultKind::TruncatePayload
                    )
            })
            .map(|e| e.kind)
    }

    /// Count a blocking receive; return the fault firing on it, if any.
    /// Panics when a [`FaultKind::Panic`] ordinal is hit.
    pub(crate) fn fire_recv(&mut self) -> Option<FaultKind> {
        self.recvs += 1;
        self.ops += 1;
        self.check_panic();
        self.events
            .iter()
            .find(|e| e.nth == self.recvs && matches!(e.kind, FaultKind::DelayRecv { .. }))
            .map(|e| e.kind)
    }

    fn check_panic(&self) {
        if self
            .events
            .iter()
            .any(|e| e.kind == FaultKind::Panic && e.nth == self.ops)
        {
            panic!(
                "injected fault: rank {} panics at comm op {} (fault plan seed {:#x})",
                self.rank, self.ops, self.seed
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("panic:1").is_err());
        assert!(FaultPlan::parse("frob:1:2").is_err());
        assert!(FaultPlan::parse("delay:0:1").is_err(), "delay needs pops");
        assert!(FaultPlan::parse("panic:x:2").is_err());
        // Empty spec = empty plan, not an error.
        assert_eq!(FaultPlan::parse("").unwrap().events.len(), 0);
    }

    #[test]
    fn randomized_plans_are_seed_deterministic_and_sometimes_empty() {
        let mut empties = 0;
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            let a = FaultPlan::randomized(seed, 8);
            assert_eq!(a, FaultPlan::randomized(seed, 8));
            assert!(a.events.iter().all(|e| e.rank < 8 && e.nth >= 1));
            if a.events.is_empty() {
                empties += 1;
            }
            for e in &a.events {
                kinds.insert(e.kind.label());
            }
        }
        assert!(empties > 10, "some seeds must be fault-free ({empties})");
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            vec!["delay", "panic", "swallow", "trunc"],
            "200 seeds must cover every fault kind"
        );
    }

    #[test]
    fn state_fires_on_exact_ordinals_only() {
        let plan = FaultPlan::parse("swallow:0:2,delay:0:1:9,trunc:1:1").unwrap();
        let mut s = plan.state_for(0);
        assert_eq!(s.fire_recv(), Some(FaultKind::DelayRecv { pops: 9 }));
        assert_eq!(s.fire_send(), None, "send ordinal 1 has no event");
        assert_eq!(s.fire_send(), Some(FaultKind::SwallowDoorbell));
        assert_eq!(s.fire_recv(), None);
        // Rank 1 sees only its own slice.
        let mut s1 = plan.state_for(1);
        assert_eq!(s1.fire_send(), Some(FaultKind::TruncatePayload));
    }

    #[test]
    #[should_panic(expected = "injected fault: rank 3 panics at comm op 2")]
    fn panic_event_panics_at_ordinal() {
        let plan = FaultPlan::parse("panic:3:2").unwrap();
        let mut s = plan.state_for(3);
        assert_eq!(s.fire_send(), None);
        let _ = s.fire_recv();
    }

    #[test]
    fn int_parsing_both_radixes() {
        assert_eq!(parse_int("29964"), Some(29964));
        assert_eq!(parse_int("0x750C"), Some(0x750C));
        assert_eq!(parse_int("0X750c"), Some(0x750C));
        assert_eq!(parse_int("banana"), None);
    }
}
