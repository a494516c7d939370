//! Time-sliced fleet telemetry: the snapshot timeline.
//!
//! When [`crate::FleetConfig::snapshot_interval`] is set, every shard
//! seals a [`SnapshotSlice`] at each interval boundary — interruption
//! sketches plus counter deltas for the interval, and instantaneous
//! gauges (event-queue depth, backhaul backlog) read at the boundary.
//! Slices live in a [`SnapshotRing`]: a bounded store that, when full,
//! merges adjacent slice pairs and doubles its effective interval, so
//! an arbitrarily long run keeps a constant-memory load timeline.
//!
//! Everything in a slice is simulation-deterministic — no wall-clock
//! times — and every merge (shard-wise and time-wise) is built from
//! exactly associative operations, so the merged timeline is
//! byte-identical across worker counts. CI `cmp`s the rendered JSON.
//! It is identical across shard counts too, except the event-queue
//! gauge, which sums each shard's own queue.

use st_des::SimDuration;
use st_metrics::QuantileSketch;

/// One telemetry interval: counter deltas over the interval plus gauges
/// sampled at its closing boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSlice {
    /// Soft-handover interruptions completed in this interval (ms).
    pub soft: QuantileSketch,
    /// Hard-handover interruptions completed in this interval (ms).
    pub hard: QuantileSketch,
    /// Handovers completed in this interval.
    pub handovers: u64,
    /// RLFs declared in this interval.
    pub rlfs: u64,
    /// UE-side RACH attempts started in this interval.
    pub rach_attempts: u64,
    /// Preamble transmissions in this interval.
    pub preambles_tx: u64,
    /// Distinct PRACH occasions used in this interval, fleet-wide: set
    /// by the shard merge from the unioned occasion instants
    /// ([`SnapshotRing::count_occasions`]), so an occasion that UEs of
    /// two shards transmit on counts once. Zero in a shard's own ring.
    pub occasions_used: u64,
    /// Responder-side preambles heard in this interval.
    pub preambles_heard: u64,
    /// Responder-side preamble collisions in this interval.
    pub collisions: u64,
    /// Msg4 contention losses in this interval.
    pub contention_losses: u64,
    /// Accumulated backhaul queueing added in this interval (µs).
    pub backhaul_wait_us: u64,
    /// Gauge: backhaul backlog at the boundary — how far into the
    /// future each cell's FIFO pipe is already committed, summed over
    /// cells (µs). Shard-merge sums; time-merge keeps the peak.
    pub backhaul_backlog_us: u64,
    /// Gauge: pending DES events at the boundary, summed over shards.
    /// Shard-merge sums; time-merge keeps the peak.
    pub event_queue_depth: u64,
    /// Interruptions attributed in this interval, per root cause,
    /// indexed by `Cause as usize` (canonical order). Adds under both
    /// merges, so the timeline's cause sums equal the run's cause
    /// totals at any compaction level and worker count.
    pub cause_counts: [u64; 5],
}

impl SnapshotSlice {
    pub fn new() -> SnapshotSlice {
        SnapshotSlice {
            soft: QuantileSketch::latency_ms(),
            hard: QuantileSketch::latency_ms(),
            handovers: 0,
            rlfs: 0,
            rach_attempts: 0,
            preambles_tx: 0,
            occasions_used: 0,
            preambles_heard: 0,
            collisions: 0,
            contention_losses: 0,
            backhaul_wait_us: 0,
            backhaul_backlog_us: 0,
            event_queue_depth: 0,
            cause_counts: [0; 5],
        }
    }

    /// Merge the same interval observed by another shard: everything
    /// adds (the gauges are per-shard readings of disjoint state).
    pub fn merge_shard(&mut self, other: &SnapshotSlice) {
        self.soft.merge(&other.soft);
        self.hard.merge(&other.hard);
        self.handovers += other.handovers;
        self.rlfs += other.rlfs;
        self.rach_attempts += other.rach_attempts;
        self.preambles_tx += other.preambles_tx;
        self.occasions_used += other.occasions_used;
        self.preambles_heard += other.preambles_heard;
        self.collisions += other.collisions;
        self.contention_losses += other.contention_losses;
        self.backhaul_wait_us += other.backhaul_wait_us;
        self.backhaul_backlog_us += other.backhaul_backlog_us;
        self.event_queue_depth += other.event_queue_depth;
        for (a, b) in self.cause_counts.iter_mut().zip(&other.cause_counts) {
            *a += b;
        }
    }

    /// Merge the *next* interval into this one (ring compaction):
    /// deltas add, gauges keep the window peak.
    pub fn merge_time(&mut self, next: &SnapshotSlice) {
        self.soft.merge(&next.soft);
        self.hard.merge(&next.hard);
        self.handovers += next.handovers;
        self.rlfs += next.rlfs;
        self.rach_attempts += next.rach_attempts;
        self.preambles_tx += next.preambles_tx;
        self.occasions_used += next.occasions_used;
        self.preambles_heard += next.preambles_heard;
        self.collisions += next.collisions;
        self.contention_losses += next.contention_losses;
        self.backhaul_wait_us += next.backhaul_wait_us;
        self.backhaul_backlog_us = self.backhaul_backlog_us.max(next.backhaul_backlog_us);
        self.event_queue_depth = self.event_queue_depth.max(next.event_queue_depth);
        for (a, b) in self.cause_counts.iter_mut().zip(&next.cause_counts) {
            *a += b;
        }
    }

    /// Fraction of heard preambles that collided in this interval.
    pub fn collision_rate(&self) -> f64 {
        if self.preambles_heard == 0 {
            return 0.0;
        }
        (2 * self.collisions) as f64 / self.preambles_heard as f64
    }
}

impl Default for SnapshotSlice {
    fn default() -> Self {
        Self::new()
    }
}

/// Bounded store of [`SnapshotSlice`]s with automatic time compaction.
///
/// Slices are pushed at the base interval. When the store reaches
/// `cap`, adjacent pairs merge ([`SnapshotSlice::merge_time`]) and the
/// effective interval doubles — memory stays O(cap) for any run
/// length. The compaction schedule is a pure function of how many base
/// slices were pushed, so every shard's ring (same config) compacts
/// identically and rings merge element-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRing {
    base: SimDuration,
    cap: usize,
    /// Base slices currently folded into one stored slice (power of 2).
    scale: u64,
    /// Base slices pushed so far — drives the deterministic compaction
    /// schedule and the merge-compatibility check.
    pushed: u64,
    /// Partially filled stored slice (fewer than `scale` base slices).
    pending: Option<SnapshotSlice>,
    pending_n: u64,
    slices: Vec<SnapshotSlice>,
}

impl SnapshotRing {
    /// Default stored-slice capacity: enough resolution for any plot,
    /// ~constant memory (each slice is ~2 sketches ≈ 3 KB).
    pub const DEFAULT_CAP: usize = 1024;

    pub fn new(base: SimDuration, cap: usize) -> SnapshotRing {
        assert!(base.as_nanos() > 0, "snapshot interval must be positive");
        assert!(cap >= 2 && cap % 2 == 0, "capacity must be even and >= 2");
        SnapshotRing {
            base,
            cap,
            scale: 1,
            pushed: 0,
            pending: None,
            pending_n: 0,
            slices: Vec::new(),
        }
    }

    /// The configured base interval.
    pub fn base_interval(&self) -> SimDuration {
        self.base
    }

    /// The configured stored-slice capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The current effective interval per stored slice.
    pub fn effective_interval(&self) -> SimDuration {
        self.base * self.scale
    }

    /// Completed stored slices (excludes a partially filled pending
    /// slice, which is flushed by [`Self::finish`]).
    pub fn slices(&self) -> &[SnapshotSlice] {
        &self.slices
    }

    /// Base slices pushed so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Push the next base-interval slice.
    pub fn push(&mut self, slice: SnapshotSlice) {
        self.pushed += 1;
        match &mut self.pending {
            Some(p) => {
                p.merge_time(&slice);
                self.pending_n += 1;
            }
            None => {
                self.pending = Some(slice);
                self.pending_n = 1;
            }
        }
        if self.pending_n == self.scale {
            let full = self.pending.take().expect("pending set above");
            self.pending_n = 0;
            self.slices.push(full);
            if self.slices.len() == self.cap {
                self.compact();
            }
        }
    }

    /// Flush a partially filled pending slice (end of run, duration not
    /// a multiple of the effective interval). Idempotent.
    pub fn finish(&mut self) {
        if let Some(p) = self.pending.take() {
            self.pending_n = 0;
            self.slices.push(p);
        }
    }

    fn compact(&mut self) {
        let mut merged = Vec::with_capacity(self.cap / 2);
        for pair in self.slices.chunks(2) {
            let mut a = pair[0].clone();
            if let Some(b) = pair.get(1) {
                a.merge_time(b);
            }
            merged.push(a);
        }
        self.slices = merged;
        self.scale *= 2;
    }

    /// True when `other` has the same shape — same base interval,
    /// capacity, and push/compaction history. This is the precondition
    /// of [`Self::merge`]; callers that cannot guarantee it (e.g. a
    /// budget-exhausted shard sealed fewer slices) should check first
    /// and drop the timeline instead of panicking.
    pub fn compatible(&self, other: &SnapshotRing) -> bool {
        (
            self.base,
            self.cap,
            self.scale,
            self.pushed,
            self.slices.len(),
            self.pending_n,
        ) == (
            other.base,
            other.cap,
            other.scale,
            other.pushed,
            other.slices.len(),
            other.pending_n,
        )
    }

    /// Count each used PRACH occasion once, in the slice that holds its
    /// instant (ns): slice ⌊instant ÷ effective interval⌋, clamped to
    /// the last slice, which also holds an instant at the run's end —
    /// the rule the shared RACH stage attributes its slices by. Call on
    /// a finished ring, with every cell's distinct instants.
    pub fn count_occasions(&mut self, instants: impl IntoIterator<Item = u64>) {
        let width = self.effective_interval().as_nanos();
        let Some(last) = self.slices.len().checked_sub(1) else {
            return;
        };
        for at in instants {
            self.slices[((at / width) as usize).min(last)].occasions_used += 1;
        }
    }

    /// Merge another shard's ring for the same run. Both rings saw the
    /// same number of base slices (same duration, same base interval),
    /// so their compaction states are identical; asserted.
    pub fn merge(&mut self, other: &SnapshotRing) {
        assert!(
            self.compatible(other),
            "merging snapshot rings from different run shapes"
        );
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.merge_shard(b);
        }
        match (&mut self.pending, &other.pending) {
            (Some(a), Some(b)) => a.merge_shard(b),
            (None, None) => {}
            _ => unreachable!("pending_n equality guarantees matching pending state"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(handovers: u64, depth: u64) -> SnapshotSlice {
        let mut s = SnapshotSlice::new();
        s.handovers = handovers;
        s.event_queue_depth = depth;
        s.soft.record(10.0 + handovers as f64);
        s
    }

    #[test]
    fn ring_stores_base_slices_until_cap() {
        let mut r = SnapshotRing::new(SimDuration::from_millis(100), 4);
        for i in 0..3 {
            r.push(slice(i, i));
        }
        assert_eq!(r.slices().len(), 3);
        assert_eq!(r.effective_interval(), SimDuration::from_millis(100));
    }

    #[test]
    fn ring_compacts_pairwise_and_doubles_interval() {
        let mut r = SnapshotRing::new(SimDuration::from_millis(100), 4);
        for i in 0..8 {
            r.push(slice(1, i));
        }
        // 8 pushes through cap 4: compacted twice, scale 4, 2 slices.
        assert_eq!(r.effective_interval(), SimDuration::from_millis(400));
        assert_eq!(r.slices().len(), 2);
        // Deltas summed, gauges kept the window peak.
        assert_eq!(r.slices()[0].handovers, 4);
        assert_eq!(r.slices()[0].event_queue_depth, 3);
        assert_eq!(r.slices()[1].event_queue_depth, 7);
        assert_eq!(r.slices()[0].soft.count(), 4);
    }

    #[test]
    fn ring_finish_flushes_partial_pending() {
        let mut r = SnapshotRing::new(SimDuration::from_millis(100), 4);
        for i in 0..5 {
            r.push(slice(1, i));
        }
        // Scale is 2 after one compaction; push 5 left one pending.
        assert_eq!(r.slices().len(), 2);
        r.finish();
        assert_eq!(r.slices().len(), 3);
        assert_eq!(r.slices()[2].handovers, 1);
        r.finish(); // idempotent
        assert_eq!(r.slices().len(), 3);
    }

    #[test]
    fn shard_merge_is_elementwise_and_sums_gauges() {
        let build = |bump: u64| {
            let mut r = SnapshotRing::new(SimDuration::from_millis(100), 8);
            for i in 0..3 {
                r.push(slice(i + bump, 5));
            }
            r
        };
        let mut a = build(0);
        let b = build(10);
        a.merge(&b);
        assert_eq!(a.slices().len(), 3);
        assert_eq!(a.slices()[0].handovers, 10);
        assert_eq!(a.slices()[0].event_queue_depth, 10);
        assert_eq!(a.slices()[0].soft.count(), 2);
    }

    #[test]
    fn occasions_count_in_their_effective_slice() {
        // 4 base pushes through cap 4: one compaction, so two 200 ms
        // slices cover a 400 ms run.
        let mut r = SnapshotRing::new(SimDuration::from_millis(100), 4);
        for _ in 0..4 {
            r.push(SnapshotSlice::new());
        }
        r.finish();
        let ms = |v: u64| v * 1_000_000;
        // An occasion at the run's end (400 ms) belongs to the last slice.
        r.count_occasions([ms(0), ms(199), ms(200), ms(399), ms(400)]);
        let used: Vec<u64> = r.slices().iter().map(|s| s.occasions_used).collect();
        assert_eq!(used, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "different run shapes")]
    fn shard_merge_rejects_mismatched_rings() {
        let mut a = SnapshotRing::new(SimDuration::from_millis(100), 4);
        a.push(slice(1, 1));
        let b = SnapshotRing::new(SimDuration::from_millis(100), 4);
        a.merge(&b);
    }

    #[test]
    fn merge_order_does_not_matter_after_compaction() {
        // Shard merge of compacted rings equals compaction of merged
        // base streams — the property that makes the merged timeline
        // worker-count invariant.
        let stream = |bump: u64| {
            (0..10u64)
                .map(move |i| slice(i + bump, i))
                .collect::<Vec<_>>()
        };
        let (sa, sb) = (stream(0), stream(100));
        let mut ra = SnapshotRing::new(SimDuration::from_millis(50), 4);
        let mut rb = SnapshotRing::new(SimDuration::from_millis(50), 4);
        for s in &sa {
            ra.push(s.clone());
        }
        for s in &sb {
            rb.push(s.clone());
        }
        ra.merge(&rb);
        ra.finish();
        let mut combined = SnapshotRing::new(SimDuration::from_millis(50), 4);
        for (x, y) in sa.iter().zip(&sb) {
            let mut m = x.clone();
            m.merge_shard(y);
            combined.push(m);
        }
        combined.finish();
        assert_eq!(ra.slices().len(), combined.slices().len());
        for (x, y) in ra.slices().iter().zip(combined.slices()) {
            assert_eq!(x.handovers, y.handovers);
            assert_eq!(x.soft, y.soft);
        }
    }
}
