//! The simulation executive: clock + pending-event set + run loop.
//!
//! The executive is deliberately *not* generic over a "world" type.
//! Following the sans-IO style used across this workspace, it owns only
//! time and the event queue; the caller's dispatch closure owns all state.
//! This keeps borrows simple (the closure gets `&mut Executive` and the
//! event by value) and makes the run loop reusable for every scenario.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Why [`Executive::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The pending-event set drained.
    Drained,
    /// The deadline was reached (events at or beyond it remain pending).
    Deadline,
    /// The dispatch closure requested a stop.
    Halted,
    /// The event budget was exhausted (runaway-loop guard).
    Budget,
}

/// Flow-control decision returned by the dispatch closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Control {
    #[default]
    Continue,
    Halt,
}

/// Discrete-event executive over event payloads of type `E`.
pub struct Executive<E> {
    now: SimTime,
    queue: EventQueue<E>,
    events_processed: u64,
    /// Hard cap on events per `run` call; guards against scheduling loops.
    pub event_budget: u64,
}

impl<E> Default for Executive<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Executive<E> {
    pub fn new() -> Self {
        Executive {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            events_processed: 0,
            event_budget: u64::MAX,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the pending-event count — the queue-depth
    /// peak a run profiler reports. Deterministic for a given event
    /// sequence.
    pub fn pending_peak(&self) -> usize {
        self.queue.len_peak()
    }

    /// Schedule an event at an absolute time. Panics if `at` is in the
    /// past — time travel would silently corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at, event);
    }

    /// Schedule an event `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now);
        self.now = t;
        self.events_processed += 1;
        Some((t, e))
    }

    /// Run until the queue drains, `deadline` passes, the budget runs out,
    /// or the dispatcher halts. The dispatcher may schedule further events
    /// through the `&mut Executive` it receives.
    pub fn run<F>(&mut self, deadline: SimTime, mut dispatch: F) -> StopReason
    where
        F: FnMut(&mut Executive<E>, SimTime, E) -> Control,
    {
        let mut dispatched: u64 = 0;
        loop {
            match self.queue.peek_time() {
                None => return StopReason::Drained,
                Some(t) if t > deadline => {
                    // Park the clock at the deadline so a subsequent run
                    // resumes from there.
                    self.now = deadline;
                    return StopReason::Deadline;
                }
                Some(_) => {}
            }
            let (t, e) = self.step().expect("peeked non-empty");
            if dispatch(self, t, e) == Control::Halt {
                return StopReason::Halted;
            }
            dispatched += 1;
            if dispatched >= self.event_budget {
                return StopReason::Budget;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn clock_advances_with_events() {
        let mut ex: Executive<&str> = Executive::new();
        ex.schedule_in(ms(10), "a");
        ex.schedule_in(ms(5), "b");
        let (t1, e1) = ex.step().unwrap();
        assert_eq!((t1.as_millis_f64(), e1), (5.0, "b"));
        assert_eq!(ex.now(), t1);
        let (t2, e2) = ex.step().unwrap();
        assert_eq!((t2.as_millis_f64(), e2), (10.0, "a"));
        assert_eq!(ex.events_processed(), 2);
    }

    #[test]
    fn run_until_drained() {
        let mut ex: Executive<u32> = Executive::new();
        ex.schedule_in(ms(1), 1);
        ex.schedule_in(ms(2), 2);
        let mut seen = Vec::new();
        let reason = ex.run(SimTime::from_nanos(u64::MAX), |_, _, e| {
            seen.push(e);
            Control::Continue
        });
        assert_eq!(reason, StopReason::Drained);
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn run_respects_deadline() {
        let mut ex: Executive<u32> = Executive::new();
        ex.schedule_in(ms(1), 1);
        ex.schedule_in(ms(100), 2);
        let deadline = SimTime::ZERO + ms(50);
        let reason = ex.run(deadline, |_, _, _| Control::Continue);
        assert_eq!(reason, StopReason::Deadline);
        assert_eq!(ex.now(), deadline);
        assert_eq!(ex.pending(), 1);
    }

    #[test]
    fn dispatcher_can_reschedule() {
        let mut ex: Executive<u32> = Executive::new();
        ex.schedule_in(ms(1), 0);
        let mut count = 0;
        ex.run(SimTime::ZERO + ms(100), |ex, _, n| {
            count += 1;
            if n < 5 {
                ex.schedule_in(ms(1), n + 1);
            }
            Control::Continue
        });
        assert_eq!(count, 6);
    }

    #[test]
    fn halt_stops_immediately() {
        let mut ex: Executive<u32> = Executive::new();
        ex.schedule_in(ms(1), 1);
        ex.schedule_in(ms(2), 2);
        let reason = ex.run(SimTime::from_nanos(u64::MAX), |_, _, _| Control::Halt);
        assert_eq!(reason, StopReason::Halted);
        assert_eq!(ex.pending(), 1);
    }

    #[test]
    fn budget_guards_runaway_loops() {
        let mut ex: Executive<u32> = Executive::new();
        ex.event_budget = 100;
        ex.schedule_in(ms(0), 0);
        let reason = ex.run(SimTime::from_nanos(u64::MAX), |ex, _, _| {
            ex.schedule_in(SimDuration::ZERO, 0); // would run forever
            Control::Continue
        });
        assert_eq!(reason, StopReason::Budget);
        assert_eq!(ex.events_processed(), 100);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut ex: Executive<u32> = Executive::new();
        ex.schedule_in(ms(10), 1);
        ex.step();
        ex.schedule_at(SimTime::ZERO, 2);
    }
}
