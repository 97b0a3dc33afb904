//! Lock-free SPSC ring transport for the threaded backend.
//!
//! One [`SpscRing`] exists per ordered `(sender, receiver)` rank pair, so
//! every ring has exactly one producer thread (the sender rank) and one
//! consumer thread (the receiver rank) by construction — the classic
//! Lamport single-producer/single-consumer queue needs no locks and no
//! compare-and-swap, only one release store per side. A carry send is a
//! pointer-sized publish of the payload `Vec` into a slot; the receiver
//! takes ownership of the very allocation the sender filled (extending the
//! sweep executor's relay-by-move of carries down into the transport).
//!
//! Blocked receivers spin briefly on their rings, then park
//! (`std::thread::park_timeout`) on a per-rank [`Doorbell`] that senders
//! ring after publishing — so an idle rank costs no CPU, while a message
//! that arrives within the spin window is picked up without a syscall. The
//! spin budget is core-aware: 200 ring-pops when every rank can have a
//! core, none when ranks oversubscribe the host (see `crate::threaded`).

use crate::comm::Tag;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::Duration;

/// Slots per ring. Must be a power of two. Sized far above the worst-case
/// in-flight count of any schedule in the workspace (a sweep keeps at most
/// `γ` carry messages outstanding per pair, and the collectives at most a
/// handful); a full ring is still handled
/// correctly — the sender yields until a slot frees — it is just counted
/// as backpressure.
pub(crate) const RING_CAP: usize = 256;

/// One tagged payload in a ring slot. The sender rank is implicit: it is
/// the ring's producer.
type Slot = (Tag, Vec<f64>);

/// A fixed-capacity Lamport single-producer/single-consumer queue.
///
/// `head` is written only by the consumer, `tail` only by the producer;
/// indices grow monotonically and are masked into the slot array (capacity
/// is a power of two, so wrapping arithmetic stays correct across index
/// overflow).
pub(crate) struct SpscRing {
    /// Next slot the consumer will read. Written by the consumer only.
    head: AtomicUsize,
    /// Next slot the producer will write. Written by the producer only.
    tail: AtomicUsize,
    slots: Box<[UnsafeCell<MaybeUninit<Slot>>]>,
}

// SAFETY: the slot array is only touched under the SPSC contract — the
// producer writes slot `tail` before its release store of `tail`, the
// consumer reads slot `head` after its acquire load of `tail` — so no slot
// is ever accessed concurrently from both sides.
unsafe impl Sync for SpscRing {}
unsafe impl Send for SpscRing {}

impl SpscRing {
    fn new(cap: usize) -> Self {
        assert!(
            cap.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        SpscRing {
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// Producer side: publish one message. Returns the message back when
    /// the ring is full (the caller yields and retries).
    pub(crate) fn push(&self, item: Slot) -> Result<(), Slot> {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Acquire);
        if t.wrapping_sub(h) == self.slots.len() {
            return Err(item);
        }
        // SAFETY: slot `t` is outside the live [head, tail) window, so the
        // consumer does not touch it until the release store below.
        unsafe { (*self.slots[t & (self.slots.len() - 1)].get()).write(item) };
        self.tail.store(t.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: take the oldest message, if any.
    pub(crate) fn pop(&self) -> Option<Slot> {
        let h = self.head.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Acquire);
        if h == t {
            return None;
        }
        // SAFETY: slot `h` was fully written before the producer's release
        // store of `tail` that made `h < t` visible.
        let item = unsafe { (*self.slots[h & (self.slots.len() - 1)].get()).assume_init_read() };
        self.head.store(h.wrapping_add(1), Ordering::Release);
        Some(item)
    }
}

impl Drop for SpscRing {
    fn drop(&mut self) {
        // Drop any undelivered payloads (a rank may exit with eager
        // next-sweep messages still in flight only on panic paths).
        while self.pop().is_some() {}
    }
}

/// Per-receiver wakeup latch. A receiver that exhausted its spin budget
/// advertises `asleep` and parks; a sender that observes `asleep` after
/// publishing clears it and unparks the receiver's thread.
pub(crate) struct Doorbell {
    thread: OnceLock<Thread>,
    asleep: AtomicBool,
}

impl Doorbell {
    fn new() -> Self {
        Doorbell {
            thread: OnceLock::new(),
            asleep: AtomicBool::new(false),
        }
    }
}

/// The mesh of rings for one `run_threaded` world: `p²` rings indexed
/// `sender · p + receiver`, plus one doorbell per receiver. All rings are
/// allocated up front, so the transport performs **zero allocations** after
/// construction — a send moves an existing `Vec` into a pre-existing slot.
pub(crate) struct RingNet {
    p: usize,
    rings: Box<[SpscRing]>,
    doorbells: Box<[Doorbell]>,
}

impl RingNet {
    /// A fully wired mesh for `p` ranks.
    pub(crate) fn new(p: usize) -> Self {
        RingNet {
            p,
            rings: (0..p * p).map(|_| SpscRing::new(RING_CAP)).collect(),
            doorbells: (0..p).map(|_| Doorbell::new()).collect(),
        }
    }

    /// Register the calling thread as rank `rank`'s receiver. Must run on
    /// the rank's own thread before any peer parks waiting for it.
    pub(crate) fn register(&self, rank: usize) {
        let _ = self.doorbells[rank].thread.set(std::thread::current());
    }

    /// The ring carrying messages `from → to`.
    pub(crate) fn ring(&self, from: usize, to: usize) -> &SpscRing {
        &self.rings[from * self.p + to]
    }

    /// Publish `msg` on the `from → to` ring and ring `to`'s doorbell
    /// if it is (or is about to be) asleep. Spins (yielding) when the ring
    /// is full, counting each retry round into `backpressure`; `full` is
    /// consulted once per retry round and aborts the send (by panicking in
    /// the caller-supplied closure) when the receiver can no longer drain —
    /// e.g. when the run is poisoned — so a sender never spins forever on a
    /// dead rank's full ring.
    ///
    /// `ring_bell = false` suppresses the wakeup (the fault shim's
    /// swallowed-doorbell drill): the payload is published normally and the
    /// receiver recovers via its bounded `park_timeout`.
    pub(crate) fn send(
        &self,
        from: usize,
        to: usize,
        msg: (Tag, Vec<f64>),
        backpressure: &mut u64,
        ring_bell: bool,
        full: &mut dyn FnMut(),
    ) {
        let ring = self.ring(from, to);
        let mut item = msg;
        while let Err(back) = ring.push(item) {
            *backpressure += 1;
            item = back;
            full();
            std::thread::yield_now();
        }
        if !ring_bell {
            return;
        }
        // Pair with the receiver's pre-park fence: after the release store
        // of `tail`, decide whether the receiver needs a wakeup. The plain
        // load is enough for the handshake — the fence pairing guarantees
        // either this load sees `asleep == true` or the receiver's ready
        // check (after its own fence) sees the publish. The swap only
        // claims the wakeup, so an awake receiver costs a read, not a
        // locked RMW, on every send.
        fence(Ordering::SeqCst);
        let bell = &self.doorbells[to];
        if bell.asleep.load(Ordering::SeqCst) && bell.asleep.swap(false, Ordering::SeqCst) {
            if let Some(t) = bell.thread.get() {
                t.unpark();
            }
        }
    }

    /// Park the calling thread (rank `rank`) until a sender rings its
    /// doorbell, re-checking `ready` around the park so a message that
    /// slips in between the check and the park is never missed. Returns as
    /// soon as `ready()` is true.
    pub(crate) fn park_until(&self, rank: usize, mut ready: impl FnMut() -> bool) {
        let bell = &self.doorbells[rank];
        loop {
            bell.asleep.store(true, Ordering::SeqCst);
            // Pair with the sender's post-publish fence: anything published
            // before the sender observed `asleep == false` is visible here.
            fence(Ordering::SeqCst);
            if ready() {
                bell.asleep.store(false, Ordering::Relaxed);
                return;
            }
            // The bounded timeout is a belt-and-braces guarantee of
            // progress: even a lost wakeup only costs one timeout period.
            std::thread::park_timeout(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_fifo_and_capacity() {
        let r = SpscRing::new(4);
        assert!(r.pop().is_none());
        for k in 0..4u64 {
            r.push((k, vec![k as f64])).unwrap();
        }
        // Full: the message comes back instead of being dropped.
        let back = r.push((9, vec![9.0])).unwrap_err();
        assert_eq!(back.0, 9);
        for k in 0..4u64 {
            let (tag, payload) = r.pop().unwrap();
            assert_eq!((tag, payload), (k, vec![k as f64]));
        }
        assert!(r.pop().is_none());
        // Indices keep wrapping correctly past the first lap.
        for lap in 0..3u64 {
            for k in 0..3u64 {
                r.push((lap * 10 + k, Vec::new())).unwrap();
            }
            for k in 0..3u64 {
                assert_eq!(r.pop().unwrap().0, lap * 10 + k);
            }
        }
    }

    #[test]
    fn ring_two_threads_deliver_everything_in_order() {
        let r = Arc::new(SpscRing::new(8));
        let n = 10_000u64;
        let prod = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for k in 0..n {
                    let mut item = (k, vec![k as f64]);
                    while let Err(back) = r.push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            })
        };
        let mut next = 0u64;
        while next < n {
            if let Some((tag, payload)) = r.pop() {
                assert_eq!(tag, next);
                assert_eq!(payload, vec![next as f64]);
                next += 1;
            } else {
                std::thread::yield_now();
            }
        }
        prod.join().unwrap();
        assert!(r.pop().is_none());
    }

    #[test]
    fn park_until_wakes_on_doorbell() {
        let net = Arc::new(RingNet::new(2));
        let net2 = Arc::clone(&net);
        let h = std::thread::spawn(move || {
            net2.register(1);
            net2.park_until(1, || net2.ring(0, 1).pop().is_some());
        });
        // Give the receiver a moment to park, then publish.
        std::thread::sleep(Duration::from_millis(5));
        let mut bp = 0u64;
        net.send(0, 1, (7, vec![1.0]), &mut bp, true, &mut || {});
        h.join().unwrap();
        assert_eq!(bp, 0);
    }

    #[test]
    fn swallowed_doorbell_still_delivers_within_park_timeout() {
        // A send whose doorbell is suppressed must still be picked up by
        // the receiver's bounded park — the belt-and-braces guarantee the
        // fault shim's swallow drill exists to exercise.
        let net = Arc::new(RingNet::new(2));
        let net2 = Arc::clone(&net);
        let h = std::thread::spawn(move || {
            net2.register(1);
            let t0 = std::time::Instant::now();
            let mut got = None;
            net2.park_until(1, || {
                got = net2.ring(0, 1).pop();
                got.is_some()
            });
            (got.unwrap().0, t0.elapsed())
        });
        std::thread::sleep(Duration::from_millis(10));
        let mut bp = 0u64;
        net.send(0, 1, (42, vec![1.0]), &mut bp, false, &mut || {});
        let (tag, waited) = h.join().unwrap();
        assert_eq!(tag, 42);
        assert!(
            waited < Duration::from_secs(5),
            "receiver must recover from a lost wakeup, waited {waited:?}"
        );
    }
}
