//! Wall-clock measurement for optimizer running-time figures, plus a
//! deterministic simulated clock for the fault plane.
//!
//! Figure 6(b) and Figure 11(b) report optimizer *response time* (begin to
//! end of a mapping) and *total time* (CPU summed over all coordinators). In
//! our in-process simulation the coordinators run sequentially, so the driver
//! measures each coordinator's slice with a [`Stopwatch`] and combines them:
//! total time = Σ slices; response time = critical path over the tree
//! (children of one coordinator run "in parallel" in the paper's deployment).
//!
//! The reliable-delivery layer (cosmos-pubsub `reliable`) additionally needs
//! *simulated* time: retransmission timers and link-delay events must fire in
//! a reproducible order independent of the host clock. [`EventQueue`] is that
//! clock — integer ticks, events ordered by `(due, insertion sequence)` so
//! same-tick events pop in FIFO order and every run of a seeded schedule is
//! bit-identical.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// A restartable stopwatch accumulating elapsed wall time.
///
/// # Examples
///
/// ```
/// use cosmos_util::Stopwatch;
///
/// let mut sw = Stopwatch::new();
/// sw.start();
/// let x: u64 = (0..1000).sum();
/// sw.stop();
/// assert!(x > 0);
/// assert!(sw.elapsed().as_nanos() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stopwatch {
    accumulated: Duration,
    started: Option<Instant>,
}

impl Stopwatch {
    /// Creates a stopped stopwatch with zero accumulated time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts (or restarts) timing; a no-op if already running.
    pub fn start(&mut self) {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    /// Stops timing, folding the running span into the accumulator.
    pub fn stop(&mut self) {
        if let Some(t0) = self.started.take() {
            self.accumulated += t0.elapsed();
        }
    }

    /// Total accumulated time (including the live span when running).
    pub fn elapsed(&self) -> Duration {
        match self.started {
            Some(t0) => self.accumulated + t0.elapsed(),
            None => self.accumulated,
        }
    }

    /// Resets the accumulator to zero and stops the watch.
    pub fn reset(&mut self) {
        self.accumulated = Duration::ZERO;
        self.started = None;
    }

    /// Times a closure, returning its result and adding the span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.start();
        let out = f();
        self.stop();
        out
    }
}

/// A deterministic discrete-event clock: events are `(due tick, payload)`
/// pairs popped in non-decreasing tick order, with FIFO tie-breaking among
/// events scheduled for the same tick. Popping an event advances `now()` to
/// its due tick; time never flows backwards.
///
/// # Examples
///
/// ```
/// use cosmos_util::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule_in(5, "b");
/// q.schedule_in(2, "a");
/// q.schedule_in(5, "c"); // same tick as "b": FIFO
/// assert_eq!(q.pop(), Some((2, "a")));
/// assert_eq!(q.pop(), Some((5, "b")));
/// assert_eq!(q.pop(), Some((5, "c")));
/// assert_eq!(q.now(), 5);
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, OrdIgnored<T>)>>,
}

/// Wrapper that lets payloads ride inside the heap key without requiring
/// (or consulting) an `Ord` on `T`: the `(due, seq)` prefix is already a
/// total order, so payload comparison is unreachable.
#[derive(Debug, Clone)]
struct OrdIgnored<T>(T);

impl<T> PartialEq for OrdIgnored<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for OrdIgnored<T> {}
impl<T> PartialOrd for OrdIgnored<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OrdIgnored<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at tick 0.
    pub fn new() -> Self {
        Self { now: 0, seq: 0, heap: BinaryHeap::new() }
    }

    /// Current simulated time: the due tick of the last popped event.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute tick `due`. Ticks before `now()` are
    /// clamped to `now()` (the event fires "immediately", after anything
    /// already scheduled for the current tick).
    fn schedule_at(&mut self, due: u64, payload: T) {
        let due = due.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((due, seq, OrdIgnored(payload))));
    }

    /// Schedules `payload` `delay` ticks from now.
    pub fn schedule_in(&mut self, delay: u64, payload: T) {
        self.schedule_at(self.now.saturating_add(delay), payload);
    }

    /// Pops the earliest pending event, advancing the clock to its due
    /// tick. Returns `None` when the queue is empty (the clock holds).
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let Reverse((due, _, OrdIgnored(payload))) = self.heap.pop()?;
        self.now = due;
        Some((due, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_across_spans() {
        let mut sw = Stopwatch::new();
        sw.time(|| std::thread::sleep(Duration::from_millis(2)));
        let first = sw.elapsed();
        sw.time(|| std::thread::sleep(Duration::from_millis(2)));
        assert!(sw.elapsed() >= first + Duration::from_millis(1));
    }

    #[test]
    fn reset_zeroes_state() {
        let mut sw = Stopwatch::new();
        sw.time(|| std::thread::sleep(Duration::from_millis(1)));
        sw.reset();
        assert_eq!(sw.elapsed(), Duration::ZERO);
    }

    #[test]
    fn double_start_is_harmless() {
        let mut sw = Stopwatch::new();
        sw.start();
        sw.start();
        sw.stop();
        sw.stop();
        // No panic, time recorded once.
        assert!(sw.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn event_queue_orders_by_tick_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(10, 'c');
        q.schedule_at(3, 'a');
        q.schedule_at(10, 'd');
        q.schedule_at(3, 'b');
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(3, 'a'), (3, 'b'), (10, 'c'), (10, 'd')]);
        assert_eq!(q.now(), 10);
        assert!(q.is_empty());
    }

    #[test]
    fn event_queue_clamps_past_deadlines() {
        let mut q = EventQueue::new();
        q.schedule_at(7, 1u32);
        assert_eq!(q.pop(), Some((7, 1)));
        // Scheduling "in the past" fires at the current tick instead.
        q.schedule_at(2, 2);
        q.schedule_in(0, 3);
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
        assert_eq!(q.now(), 7);
    }

    #[test]
    fn event_queue_interleaves_scheduling_and_popping() {
        let mut q = EventQueue::new();
        q.schedule_in(4, "first");
        assert_eq!(q.pop(), Some((4, "first")));
        q.schedule_in(4, "second"); // relative to now = 4
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((8, "second")));
    }

    /// The reliable plane cancels retransmission timers lazily: payloads
    /// carry an epoch, cancellation bumps the live epoch, and stale events
    /// are discarded on pop. A restore cycle (state torn down and rebuilt
    /// while old timers are still queued) must not let a pre-crash timer
    /// fire into the restored state.
    #[test]
    fn epoch_lazy_cancellation_survives_restore_cycle() {
        let mut q: EventQueue<(u64, &str)> = EventQueue::new();
        let mut epoch = 0u64;
        q.schedule_at(10, (epoch, "pre-crash retransmit"));
        q.schedule_at(12, (epoch, "pre-crash retransmit, second link"));

        // Crash + restore: the owning state is rebuilt; its queued timers
        // cannot be removed from the heap, so the epoch is bumped instead.
        epoch += 1;
        q.schedule_at(15, (epoch, "post-restore retransmit"));

        let mut fired = Vec::new();
        while let Some((due, (ep, label))) = q.pop() {
            if ep == epoch {
                fired.push((due, label));
            }
        }
        assert_eq!(fired, vec![(15, "post-restore retransmit")]);
        // Stale events still advanced the clock (they were popped, just
        // not acted on) — time is shared, cancellation is per-payload.
        assert_eq!(q.now(), 15);

        // A second restore cycle: the bumped epoch invalidates the first
        // restore's timers the same way.
        q.schedule_at(20, (epoch, "stale after second restore"));
        epoch += 1;
        q.schedule_at(22, (epoch, "live"));
        let mut fired = Vec::new();
        while let Some((due, (ep, label))) = q.pop() {
            if ep == epoch {
                fired.push((due, label));
            }
        }
        assert_eq!(fired, vec![(22, "live")]);
    }
}
