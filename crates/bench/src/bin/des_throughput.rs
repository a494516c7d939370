//! Event-queue throughput microbench: raw events/sec through the DES
//! event queue under the workloads the fleet engine generates.
//! Usage: `des_throughput [--smoke]`
//!
//! Two workloads:
//! * `churn`    — hold-and-replace: every pop schedules a successor at a
//!   pseudo-random future offset (the steady-state timer pattern).
//! * `fifo`     — all events at one instant (burst dispatch), pure
//!   push/pop ordering cost.
//!
//! `--smoke` shrinks the workloads for the CI perf-smoke step.

use std::time::Instant;

use st_des::{EventQueue, SimDuration, SimTime};

/// Deterministic offset source (no `rand` dependency in the bin target).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn churn(events: u64) -> (f64, u64) {
    let mut q = EventQueue::new();
    let mut lcg = Lcg(42);
    for i in 0..1024u64 {
        q.schedule(SimTime::from_nanos(lcg.next() % 1_000_000), i);
    }
    let start = Instant::now();
    let mut processed = 0u64;
    while processed < events {
        let (t, v) = q.pop().expect("queue never drains");
        q.schedule(t + SimDuration::from_nanos(1 + lcg.next() % 1_000_000), v);
        processed += 1;
    }
    (start.elapsed().as_secs_f64(), processed)
}

fn fifo(events: u64) -> (f64, u64) {
    let mut q = EventQueue::new();
    let t = SimTime::from_nanos(5);
    let start = Instant::now();
    for i in 0..events {
        q.schedule(t, i);
    }
    let mut last = 0;
    while let Some((_, v)) = q.pop() {
        last = v;
    }
    assert_eq!(last, events - 1);
    (start.elapsed().as_secs_f64(), 2 * events)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale: u64 = if smoke { 1 } else { 20 };

    println!("== des_throughput (events/sec through the binary-heap queue) ==");
    for (name, (secs, ops)) in [
        ("churn", churn(100_000 * scale)),
        ("fifo", fifo(100_000 * scale)),
    ] {
        println!(
            "{name:>8}: {:>12.0} events/sec  ({ops} ops in {secs:.3}s)",
            ops as f64 / secs
        );
    }
}
