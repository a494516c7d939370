//! Property tests for the event-queue ordering guarantees.

use proptest::prelude::*;
use st_des::{Control, EventQueue, Executive, SimDuration, SimTime};

proptest! {
    #[test]
    fn queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn equal_times_pop_fifo(n in 1usize..100, t in 0u64..1000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_nanos(t), i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().unwrap().1, i);
        }
    }

    /// Model-check the heap against a naive sorted-`Vec` reference over
    /// random schedule/pop interleavings. Ids are issued in schedule
    /// order, so the reference keeps (time, id) pairs sorted — earliest
    /// first, FIFO among equal times. The queue must agree on every pop,
    /// the next event time and the length after every operation.
    #[test]
    fn queue_matches_sorted_vec_reference(
        ops in prop::collection::vec((0u8..3, 0u64..1_000u64), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, u64)> = Vec::new();
        let mut next_id = 0u64;
        for (op, time) in ops {
            match op {
                // Schedule (weighted 2-in-3 so runs grow).
                0 | 1 => {
                    let key = (SimTime::from_nanos(time), next_id);
                    next_id += 1;
                    q.schedule(key.0, key.1);
                    let pos = model.partition_point(|e| *e < key);
                    model.insert(pos, key);
                }
                // Pop.
                _ => {
                    let got = q.pop();
                    if model.is_empty() {
                        prop_assert!(got.is_none());
                    } else {
                        prop_assert_eq!(got, Some(model.remove(0)));
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.first().map(|e| e.0));
        }
        // Drain both to the end: full agreement on the tail.
        while let Some(got) = q.pop() {
            prop_assert_eq!(got, model.remove(0));
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn executive_clock_monotone(delays in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut ex: Executive<usize> = Executive::new();
        for (i, &d) in delays.iter().enumerate() {
            ex.schedule_in(SimDuration::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0usize;
        ex.run(SimTime::from_nanos(u64::MAX), |_, t, _| {
            assert!(t >= last);
            last = t;
            count += 1;
            Control::Continue
        });
        prop_assert_eq!(count, delays.len());
    }
}
