//! The deterministic RACH resolution stage: the base stations' side of
//! random access, for every loop that runs the UE driver.
//!
//! Resolving PRACH contention per shard is biased: 8-shard collision
//! rates once read ≈ 0 where the 1-shard run read ≈ 8%, because two UEs
//! in different shards can never collide. Contention at a shared
//! resource cannot be sampled per-partition — it has to be resolved
//! globally. This module is that global resolution point, and the only
//! BS-side RACH path there is: the driver ([`crate::driver`]) publishes
//! each RACH PDU to its outbox when the PDU arrives at the base station,
//! and a loop hands the outboxes to a stage.
//!
//! * The single trial has nobody to contend with: it runs one stage and
//!   resolves each attempt the instant it arrives.
//! * The fleet runs one stage per contention group and resolves at
//!   occasion barriers, as below.
//!
//! ## Execution model (fleet)
//!
//! The run is cut into a grid of epochs: epoch k is the interval
//! ((k − 1)·epoch, k·epoch], cut at the run's end, and the epoch is the
//! minimum BS response delay, `min(rar_delay, msg4_delay)`. During an
//! epoch a shard publishes its arriving RACH PDUs as [`RachAttemptMsg`]s
//! into its outbox. At a barrier the outboxes are merged into the
//! stage's holding buffer and every attempt whose arrival instant lies
//! at or before the barrier horizon is resolved against one
//! [`RachResponder`] per cell. Replies fan back to the owning shards as
//! [`RachReply`]s, timestamped strictly beyond the horizon, so delivery
//! never has to rewind a shard.
//!
//! A group synchronizes only at the epochs it *holds*
//! ([`SharedRachStage::arm_schedule`], [`SharedRachStage::next_horizon`]):
//! the epochs that can receive an attempt, read from the protocol's
//! static timing rather than estimated (conservative lookahead, as in
//! Chandy–Misra–Bryant parallel simulation). A group holds epoch k if
//! and only if
//!
//! * it contains a preamble arrival of one of the group's cells: a UE
//!   transmits a preamble only at a PRACH occasion
//!   (`PrachConfig::occasion_time`), and it arrives one air delay later;
//! * it contains a Msg3 arrival that a RAR issued by this stage makes
//!   possible: a UE sends its Msg3 only at the instant it receives a RAR,
//!   so the arrival is the RAR's delivery instant plus one air delay; or
//! * it is the last epoch, so the drain check holds at the run's end.
//!
//! With 8-beam NR FR2 cells that is epochs 6 and 7 of each 20 ms burst's
//! ten, plus the epochs Msg3s land in.
//!
//! ## Canonical order
//!
//! One sort of the holding buffer fixes the resolution order, whatever
//! order the attempts were collected in: by arrival instant; within an
//! instant the preambles cell by cell, each cell's in global-UE order,
//! then the Msg3s in global-UE order (ties by cell). Each cell's
//! preambles at one instant are therefore one contiguous run — the
//! merged PRACH occasion that cell's responder counts — and replies
//! reach the shards in this same order.
//!
//! Because the barrier instants are grid horizons, fixed by the config
//! and the canonical attempt stream, and the resolution order is
//! canonical, the outcome is byte-identical regardless of shard count,
//! worker count, worker scheduling or outbox arrival interleaving —
//! `tests/shard_approximation.rs` asserts the 1-shard/8-shard
//! *equality* this buys.
//!
//! ## Why a held subset of the grid is safe and byte-identical
//!
//! An attempt is published by its arrival event at `at`, so every
//! attempt with `at ≤ horizon` has been published once all shards have
//! run through `horizon`. A resolved attempt's reply is delayed by at
//! least the epoch, and any attempt resolved at a barrier arrived within
//! that barrier's own epoch, so its reply lands strictly after the
//! horizon: always in the receiving shard's future.
//!
//! Every held horizon is a grid horizon, and a skipped epoch receives no
//! attempt: a barrier there would resolve nothing and deliver nothing.
//! Skipping it leaves each shard's run unchanged — a shard stepped from
//! one held horizon straight to the next processes the same events as
//! one stepped through every horizon in between — and each attempt
//! resolves at the same horizon as on the full grid, so its reply
//! enters the shard's event queue at the same point of the shard's run
//! and same-instant events keep their FIFO order. The busy-barrier
//! count, the slice attribution and the backlog gauges read the same
//! values. A horizon measured from the attempt instead (such as
//! `at + epoch`) would reorder replies against same-instant events.
//!
//! [`SharedRachStage::resolve_up_to`] checks this in every build: the
//! earliest attempt it resolves at horizon `h` must lie in `h`'s own
//! grid epoch, after `(⌈h ÷ epoch⌉ − 1)·epoch` (`h − epoch` on the grid;
//! the start of a partial last epoch otherwise). A schedule that skipped
//! an epoch receiving an attempt fails the run there instead of
//! delivering a reply into a shard's past.
//!
//! ## Zero allocation in steady state
//!
//! The holding buffer is the stage's only per-attempt storage: pre-sized
//! by [`SharedRachStage::new`], sorted in place and drained, it retains
//! its capacity, so resolving occasions allocates nothing once warm
//! (asserted by `tests/zero_alloc.rs`).

use st_des::{SimDuration, SimTime};
use st_mac::pdu::{Pdu, UeId};
use st_mac::responder::{RachResponder, ResponderConfig, ResponderStats};
use st_mac::timing::TxBeamIndex;

use crate::config::ScenarioConfig;
use crate::driver::AIR_DELAY;

/// The BS-bound payload of one published attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum RachReq {
    /// Msg1 — one preamble transmission that survived the air.
    Preamble {
        preamble: u8,
        ssb_beam: TxBeamIndex,
        /// UE–cell distance at the arrival instant (timing advance).
        distance_m: f64,
    },
    /// Msg3 — a connection request under the temporary id the UE holds.
    Msg3 {
        temp: Option<UeId>,
        ue: UeId,
        context_token: u64,
        /// SSB beam the Msg4 reply transmits on (captured at send time).
        reply_tx_beam: TxBeamIndex,
    },
}

/// One RACH PDU published by a shard for global resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct RachAttemptMsg {
    /// Arrival instant at the BS (send + air delay).
    pub at: SimTime,
    /// Global UE id — the canonical tie-break, stable across shardings.
    pub ue_global: u64,
    /// Owning shard, for reply routing.
    pub shard: u32,
    pub cell: u16,
    pub req: RachReq,
}

impl RachAttemptMsg {
    /// The run this attempt resolves in, as the leading part of the
    /// canonical sort key: (instant, Msg3 after preamble, cell) for a
    /// preamble — one cell's merged occasion — and (instant, Msg3, 0)
    /// for a Msg3, so an instant's Msg3s form one run after its
    /// occasions.
    fn run(&self) -> (SimTime, bool, u16) {
        match self.req {
            RachReq::Preamble { .. } => (self.at, false, self.cell),
            RachReq::Msg3 { .. } => (self.at, true, 0),
        }
    }
}

/// A resolved reply, routed back to the owning shard. The shard delivers
/// it as a plain `UeRx` event at `deliver_at` — from the UE's point of
/// view nothing distinguishes the shared stage from a local responder.
#[derive(Debug, Clone, PartialEq)]
pub struct RachReply {
    pub deliver_at: SimTime,
    /// Global UE id — the shard resolves it to a local index at delivery
    /// time (binary search on its id-sorted UE vector).
    pub ue_global: u64,
    pub cell: u16,
    pub tx_beam: TxBeamIndex,
    pub pdu: Pdu,
    /// Backhaul time (queue wait + context fetch) embedded in the Msg4
    /// delay, in nanos — zero for RAR replies. Carried so the owning
    /// shard can charge the backhaul phase in causal attribution.
    pub backhaul_ns: u64,
}

/// Deterministic, stage-level counters (all functions of the canonical
/// attempt sequence — safe to compare across worker counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Preambles resolved through the merged path.
    pub resolved_preambles: u64,
    /// Msg3s resolved through the merged path.
    pub resolved_msg3: u64,
    /// Barrier passes in which at least one attempt resolved.
    pub busy_barriers: u64,
    /// Barrier passes held: calls to [`SharedRachStage::resolve_up_to`].
    pub barriers_held: u64,
}

/// Responder-side observations the stage attributes to one base
/// snapshot interval: shards carry no responders, so the timeline's
/// responder-side fields have to come from here. Counter deltas are
/// attributed canonically — interval index = attempt instant ÷ base
/// interval — and the gauge is read at the interval's closing boundary,
/// so both are identical across worker and shard counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSlice {
    pub preambles_heard: u64,
    pub collisions: u64,
    pub contention_losses: u64,
    pub backhaul_wait_us: u64,
    /// Gauge: backhaul backlog at the closing boundary — how far into
    /// the future each cell's pipe is committed, summed over cells (µs).
    pub backhaul_backlog_us: u64,
}

/// The shared cross-shard responder stage: one [`RachResponder`] per
/// cell, fed the globally merged, canonically ordered attempt stream.
#[derive(Debug)]
pub struct SharedRachStage {
    responders: Vec<RachResponder>,
    /// Attempts published but not yet past the resolution horizon.
    holding: Vec<RachAttemptMsg>,
    counters: StageCounters,
    /// The grid's epoch: the minimum BS response delay.
    epoch: SimDuration,
    /// The held-epoch schedule ([`SharedRachStage::arm_schedule`]): the
    /// run's end, and `held[k]` for grid epoch k ≥ 1. Empty until armed.
    deadline: SimTime,
    held: Vec<bool>,
    /// Snapshot-slice attribution ([`SharedRachStage::arm_slices`]):
    /// base interval, the run's end (where the last, possibly partial,
    /// slice closes), one entry per slice, and how many slice boundaries
    /// have had their backlog gauge sampled.
    slice_dt: Option<SimDuration>,
    slice_end: SimTime,
    slices: Vec<StageSlice>,
    sampled: usize,
}

impl SharedRachStage {
    /// `expected_inflight` pre-sizes the holding buffer (a UE has at most
    /// one Msg1 and one Msg3 in flight, so the UE count is a safe ceiling).
    pub fn new(
        n_cells: usize,
        config: ResponderConfig,
        expected_inflight: usize,
    ) -> SharedRachStage {
        SharedRachStage {
            responders: (0..n_cells).map(|_| RachResponder::new(config)).collect(),
            holding: Vec::with_capacity(expected_inflight.max(16) * 2),
            counters: StageCounters::default(),
            epoch: config.rar_delay.min(config.msg4_delay),
            deadline: SimTime::ZERO,
            held: Vec::new(),
            slice_dt: None,
            slice_end: SimTime::ZERO,
            slices: Vec::new(),
            sampled: 0,
        }
    }

    /// Attribute responder-side counter changes to snapshot intervals of
    /// width `dt` (the fleet's base snapshot interval) over a run ending
    /// at `end`, and sample the backhaul backlog gauge at every slice
    /// boundary (`k·dt`, and `end` for a partial last slice). Call
    /// before the first barrier; the slices are read back with
    /// [`SharedRachStage::slices`] and merged into the shard timeline as
    /// a pseudo-shard. All slices are allocated here, so resolution
    /// allocates nothing for them.
    pub fn arm_slices(&mut self, dt: SimDuration, end: SimTime) {
        assert!(dt.as_nanos() > 0, "snapshot interval must be positive");
        self.slice_dt = Some(dt);
        self.slice_end = end;
        let n = end.as_nanos().div_ceil(dt.as_nanos()) as usize;
        self.slices = vec![StageSlice::default(); n];
        self.sampled = 0;
    }

    /// Work out which grid epochs a group whose UEs reach `cells` can
    /// receive an attempt in, over a run of `cfg.duration`: each epoch
    /// holding a preamble arrival of one of the cells, and the last.
    /// Resolution adds the epochs that RARs it issues make a Msg3 arrive
    /// in. Call before the first barrier; [`SharedRachStage::next_horizon`]
    /// reads the schedule.
    pub fn arm_schedule(&mut self, cfg: &ScenarioConfig, cells: &[usize]) {
        assert!(
            self.epoch.as_nanos() > 0,
            "the BS response delay must be positive"
        );
        let deadline = SimTime::ZERO + cfg.duration;
        let n_epochs = cfg.duration.as_nanos().div_ceil(self.epoch.as_nanos()) as usize;
        self.deadline = deadline;
        self.held = vec![false; n_epochs + 1];
        for &c in cells {
            let ssb = cfg.ssb(c);
            for burst in (0..).take_while(|&b| ssb.burst_start(b) <= deadline) {
                for beam in 0..ssb.n_tx_beams {
                    self.hold(cfg.prach.occasion_time(&ssb, burst, beam) + AIR_DELAY);
                }
            }
        }
        self.held[n_epochs] = true;
    }

    /// The grid epoch containing the instant `at`: k for
    /// ((k − 1)·epoch, k·epoch].
    fn epoch_of(&self, at: SimTime) -> usize {
        at.as_nanos().div_ceil(self.epoch.as_nanos()) as usize
    }

    /// Hold the grid epoch containing the arrival instant `at`, if the
    /// run reaches it and a schedule is armed.
    fn hold(&mut self, at: SimTime) {
        if at <= self.deadline && !self.held.is_empty() {
            let k = self.epoch_of(at);
            self.held[k] = true;
        }
    }

    /// The horizon of the first held epoch that ends after `after`: the
    /// instant the group next synchronizes at, on the grid
    /// `min(k·epoch, run end)`. `None` once `after` is the run's end.
    /// The schedule only grows as attempts resolve, and every epoch it
    /// adds lies beyond the barrier that added it, so the answer for the
    /// last barrier's horizon is final.
    pub fn next_horizon(&self, after: SimTime) -> Option<SimTime> {
        assert!(!self.held.is_empty(), "next_horizon needs arm_schedule");
        if after >= self.deadline {
            return None;
        }
        let first = (after.as_nanos() / self.epoch.as_nanos() + 1) as usize;
        let k = (first..self.held.len()).find(|&k| self.held[k])?;
        Some((SimTime::ZERO + self.epoch * k as u64).min(self.deadline))
    }

    /// The per-interval observations since [`SharedRachStage::arm_slices`],
    /// one entry per slice; a gauge reads zero until its boundary is
    /// resolved.
    pub fn slices(&self) -> &[StageSlice] {
        &self.slices
    }

    /// Sample the backlog gauge at every unsampled slice boundary
    /// strictly before `bound_ns`. Callers guarantee every instant at or
    /// before those boundaries is resolved and none after them is, so
    /// each sample reads the pipes exactly as they stood at the boundary.
    fn sample_backlog_before(&mut self, bound_ns: u64) {
        let Some(dt) = self.slice_dt else { return };
        while self.sampled < self.slices.len() {
            let k = self.sampled as u64 + 1;
            let boundary = (SimTime::ZERO + dt * k).min(self.slice_end);
            if boundary.as_nanos() >= bound_ns {
                return;
            }
            self.slices[self.sampled].backhaul_backlog_us = self
                .responders
                .iter()
                .map(|r| r.backhaul_backlog(boundary).as_nanos() / 1_000)
                .sum();
            self.sampled += 1;
        }
    }

    /// Sum of the per-cell responder counters that feed slice deltas:
    /// (preambles heard, collisions, contention losses, backhaul wait ns).
    fn stats_snapshot(&self) -> (u64, u64, u64, u64) {
        let mut s = (0u64, 0u64, 0u64, 0u64);
        for r in &self.responders {
            let st = r.stats();
            s.0 += st.preambles_heard;
            s.1 += st.collisions;
            s.2 += st.contention_losses;
            s.3 += st.backhaul_queue_wait.as_nanos();
        }
        s
    }

    /// Deterministic stage counters.
    pub fn counters(&self) -> StageCounters {
        self.counters
    }

    /// Per-cell responder statistics — reported **once** per cell by the
    /// fleet outcome.
    pub fn responder_stats(&self) -> Vec<ResponderStats> {
        self.responders.iter().map(|r| r.stats()).collect()
    }

    /// Move one outbox's published attempts into the holding buffer.
    /// Order is irrelevant: resolution sorts canonically.
    pub fn ingest(&mut self, mailbox: &mut Vec<RachAttemptMsg>) {
        self.holding.append(mailbox);
    }

    /// Resolve every held attempt with `at ≤ horizon` in canonical
    /// order, emitting replies through `deliver(shard, reply)`. Attempts
    /// beyond the horizon stay held for a later barrier. With slices
    /// armed, every slice boundary up to `horizon` has its backlog
    /// sampled on return.
    ///
    /// # Panics
    ///
    /// If an attempt due arrived before the grid epoch that contains
    /// `horizon`, at or before `(⌈horizon ÷ epoch⌉ − 1)·epoch`: it
    /// belongs to an earlier epoch, which the schedule skipped, and its
    /// reply could land in a shard's past.
    pub fn resolve_up_to(&mut self, horizon: SimTime, mut deliver: impl FnMut(u32, RachReply)) {
        // Taken out for the pass so the responders can be borrowed beside
        // it; put back drained, with its capacity.
        let mut holding = std::mem::take(&mut self.holding);
        holding.sort_unstable_by_key(|m| (m.run(), m.ue_global, m.cell));
        let due = holding.partition_point(|m| m.at <= horizon);
        self.counters.barriers_held += 1;
        if due > 0 {
            // The sort leads with the instant: the first attempt is the
            // earliest.
            let earliest = holding[0].at;
            assert!(
                self.epoch_of(earliest) == self.epoch_of(horizon),
                "a RACH attempt that arrived at {earliest} was resolved at the {horizon} \
                 horizon: the barrier schedule skipped its epoch"
            );
            self.counters.busy_barriers += 1;
        }
        for instant in holding[..due].chunk_by(|a, b| a.at == b.at) {
            let at = instant[0].at;
            // Boundaries before this instant close with what is resolved
            // so far; one at this very instant waits for it.
            self.sample_backlog_before(at.as_nanos());
            // Snapshot-slice attribution brackets this instant's work.
            let before = self.slice_dt.map(|_| self.stats_snapshot());
            for run in instant.chunk_by(|a, b| a.run() == b.run()) {
                if let RachReq::Preamble { .. } = run[0].req {
                    self.responders[run[0].cell as usize].note_occasion(run.len());
                }
                for m in run {
                    if let Some(reply) = self.answer(m) {
                        deliver(m.shard, reply);
                    }
                }
            }
            if let (Some(dt), Some(b)) = (self.slice_dt, before) {
                let a = self.stats_snapshot();
                // An attempt arriving exactly at the run's end indexes one
                // past the last slice; it belongs to the last.
                let k = ((at.as_nanos() / dt.as_nanos()) as usize).min(self.slices.len() - 1);
                let d = &mut self.slices[k];
                d.preambles_heard += a.0 - b.0;
                d.collisions += a.1 - b.1;
                d.contention_losses += a.2 - b.2;
                d.backhaul_wait_us += (a.3 - b.3) / 1_000;
            }
        }
        holding.drain(..due);
        self.holding = holding;
        self.sample_backlog_before(horizon.as_nanos() + 1);
    }

    /// One attempt at its cell's responder: the reply, if it gets one.
    fn answer(&mut self, m: &RachAttemptMsg) -> Option<RachReply> {
        let responder = &mut self.responders[m.cell as usize];
        let (delay, tx_beam, pdu, backhaul) = match m.req {
            RachReq::Preamble {
                preamble,
                ssb_beam,
                distance_m,
            } => {
                self.counters.resolved_preambles += 1;
                let plan = responder.on_preamble(m.at, preamble, ssb_beam, distance_m)?;
                // The UE sends its Msg3 the instant it receives this RAR.
                self.hold(m.at + plan.delay + AIR_DELAY);
                (plan.delay, plan.tx_beam, plan.pdu, SimDuration::ZERO)
            }
            RachReq::Msg3 {
                temp,
                ue,
                context_token,
                reply_tx_beam,
            } => {
                self.counters.resolved_msg3 += 1;
                let plan = responder.on_msg3(m.at, temp, ue, context_token)?;
                let backhaul = plan.queue_wait + plan.fetch;
                (plan.delay, reply_tx_beam, plan.pdu, backhaul)
            }
        };
        Some(RachReply {
            deliver_at: m.at + delay,
            ue_global: m.ue_global,
            cell: m.cell,
            tx_beam,
            pdu,
            backhaul_ns: backhaul.as_nanos(),
        })
    }

    /// Panic unless every ingested attempt was resolved. An attempt
    /// arrives at or before the run's end, which is the last horizon, so
    /// after the last barrier one still held never resolved; and since an
    /// attempt leaves the buffer only when it resolves, none resolved
    /// twice.
    pub fn assert_drained(&self) {
        assert!(
            self.holding.is_empty(),
            "{} RACH attempts were never resolved",
            self.holding.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn preamble(at: SimTime, ue: u64, shard: u32, cell: u16, p: u8) -> RachAttemptMsg {
        RachAttemptMsg {
            at,
            ue_global: ue,
            shard,
            cell,
            req: RachReq::Preamble {
                preamble: p,
                ssb_beam: 1,
                distance_m: 100.0,
            },
        }
    }

    fn stage() -> SharedRachStage {
        SharedRachStage::new(2, ResponderConfig::nr_default(), 8)
    }

    #[test]
    fn cross_shard_same_preamble_collides() {
        // UE 0 (shard 0) and UE 1 (shard 1): same cell, same occasion,
        // same preamble — the collision per-shard responders cannot see.
        let mut s = stage();
        let mut mb = vec![preamble(t(500), 1, 1, 0, 3), preamble(t(500), 0, 0, 0, 3)];
        s.ingest(&mut mb);
        let mut replies: Vec<(u32, RachReply)> = Vec::new();
        s.resolve_up_to(t(2000), |shard, r| replies.push((shard, r)));
        assert_eq!(replies.len(), 2);
        // Both answered with the *same* temporary id (indistinguishable
        // at Msg1), routed to their own shards, in canonical UE order.
        assert_eq!(replies[0].0, 0);
        assert_eq!(replies[1].0, 1);
        assert_eq!(replies[0].1.pdu, replies[1].1.pdu);
        assert_eq!(s.responder_stats()[0].collisions, 1);
        assert_eq!(s.responder_stats()[1].collisions, 0);
    }

    #[test]
    fn attempts_beyond_horizon_are_held() {
        let mut s = stage();
        let mut mb = vec![preamble(t(500), 0, 0, 0, 3), preamble(t(2500), 1, 0, 0, 3)];
        s.ingest(&mut mb);
        let mut n = 0;
        s.resolve_up_to(t(2000), |_, _| n += 1);
        assert_eq!(n, 1);
        // The held attempt resolves at a later barrier.
        s.resolve_up_to(t(4000), |_, _| n += 1);
        assert_eq!(n, 2);
        assert_eq!(s.counters().resolved_preambles, 2);
        s.assert_drained();
    }

    /// The run-end ledger: an attempt past the last horizon was never
    /// resolved, and the drain check says so.
    #[test]
    #[should_panic(expected = "1 RACH attempts were never resolved")]
    fn an_attempt_beyond_the_last_horizon_fails_the_drain_check() {
        let mut s = stage();
        let mut mb = vec![preamble(t(500), 0, 0, 0, 3), preamble(t(2500), 1, 0, 0, 3)];
        s.ingest(&mut mb);
        s.resolve_up_to(t(2000), |_, _| {});
        s.assert_drained();
    }

    /// Preambles from three shards on one cell at one instant are one
    /// merged occasion — the collision per-shard responders would each
    /// miss — while another cell's preamble at that instant is its own.
    #[test]
    fn resolve_merges_cross_shard_attempts_into_one_occasion() {
        let mut s = stage();
        for a in [
            preamble(t(500), 9, 2, 0, 4),
            preamble(t(500), 3, 1, 1, 4),
            preamble(t(500), 1, 0, 0, 4),
            preamble(t(500), 5, 1, 0, 7),
        ] {
            s.ingest(&mut vec![a]);
        }
        let mut replies: Vec<(u32, RachReply)> = Vec::new();
        s.resolve_up_to(t(2000), |shard, r| replies.push((shard, r)));
        // Canonical order: cell 0's occasion in global-UE order, then
        // cell 1's; each reply routed to its UE's shard.
        let order: Vec<(u32, u64, u16)> = replies
            .iter()
            .map(|(shard, r)| (*shard, r.ue_global, r.cell))
            .collect();
        assert_eq!(order, [(0, 1, 0), (1, 5, 0), (2, 9, 0), (1, 3, 1)]);
        let temp = |k: usize| match replies[k].1.pdu {
            Pdu::RachResponse { temp_ue, .. } => temp_ue,
            _ => unreachable!(),
        };
        // UE 1 and UE 9 collided on preamble 4; UE 5 is alone on 7.
        assert_eq!(temp(0), temp(2));
        assert_ne!(temp(0), temp(1));
        let (c0, c1) = (s.responder_stats()[0], s.responder_stats()[1]);
        assert_eq!((c0.preambles_heard, c0.collisions), (3, 1));
        assert_eq!((c0.merged_occasions, c0.peak_merged_attempts), (1, 3));
        assert_eq!((c1.preambles_heard, c1.collisions), (1, 0));
        assert_eq!((c1.merged_occasions, c1.peak_merged_attempts), (1, 1));
        assert_eq!(s.counters().resolved_preambles, 4);
        assert_eq!(s.counters().busy_barriers, 1);
    }

    #[test]
    fn resolve_outcome_is_input_order_insensitive() {
        let base = vec![
            preamble(t(500), 3, 1, 0, 1),
            preamble(t(502), 7, 1, 0, 1),
            preamble(t(501), 2, 0, 0, 5),
            preamble(t(501), 9, 1, 0, 5),
        ];
        let run = |mut mailbox: Vec<RachAttemptMsg>| {
            let mut s = stage();
            s.ingest(&mut mailbox);
            let mut replies: Vec<(u32, RachReply)> = Vec::new();
            s.resolve_up_to(t(2000), |shard, r| replies.push((shard, r)));
            (replies, s.responder_stats(), s.counters())
        };
        let fwd = run(base.clone());
        let rev = run(base.into_iter().rev().collect());
        assert_eq!(fwd, rev);
        // Both preamble pairs collide (UE 7 joins UE 3's procedure
        // inside the collision window), over three merged occasions.
        assert_eq!(fwd.1[0].collisions, 2);
        assert_eq!(fwd.1[0].merged_occasions, 3);
    }

    #[test]
    fn mailbox_drain_order_is_invisible() {
        let attempts = [
            preamble(t(500), 0, 0, 0, 2),
            preamble(t(500), 3, 1, 0, 2),
            preamble(t(500), 5, 1, 1, 2),
            preamble(t(750), 2, 0, 0, 1),
        ];
        let run = |order: &[usize]| {
            let mut s = stage();
            for &k in order {
                let mut mb = vec![attempts[k].clone()];
                s.ingest(&mut mb);
            }
            let mut replies: Vec<(u32, RachReply)> = Vec::new();
            s.resolve_up_to(t(2000), |shard, r| replies.push((shard, r)));
            (replies, s.responder_stats())
        };
        let a = run(&[0, 1, 2, 3]);
        let b = run(&[3, 2, 1, 0]);
        let c = run(&[2, 0, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    fn msg3(at: SimTime, ue: u64) -> RachAttemptMsg {
        RachAttemptMsg {
            at,
            ue_global: ue,
            shard: 0,
            cell: 0,
            req: RachReq::Msg3 {
                temp: None,
                ue: UeId(ue as u32 + 1),
                context_token: 1,
                reply_tx_beam: 0,
            },
        }
    }

    /// The backlog gauge reads each boundary after every instant at or
    /// before it resolved and before any later instant did: a context
    /// fetch still queued at a boundary shows as busy-until − boundary.
    #[test]
    fn backlog_gauge_samples_queued_fetches_at_slice_boundaries() {
        let mut s = stage();
        // 1 ms slices over a 3.5 ms run: boundaries 1, 2, 3 and 3.5 ms.
        s.arm_slices(SimDuration::from_millis(1), t(3500));
        let rtt = ResponderConfig::nr_default().backhaul_latency * 2;
        // UE 0's fetch starts at 0.5 ms; UE 1's (at 1 ms, the boundary
        // itself) queues behind it; UE 2's arrives after the boundary.
        let mut mb = vec![msg3(t(500), 0), msg3(t(1000), 1), msg3(t(1500), 2)];
        s.ingest(&mut mb);
        s.resolve_up_to(t(1500), |_, _| {});
        let backlog = |s: &SharedRachStage| -> Vec<u64> {
            s.slices().iter().map(|d| d.backhaul_backlog_us).collect()
        };
        let busy_after_ue1 = t(500) + rtt * 2;
        assert_eq!(
            backlog(&s),
            [busy_after_ue1.since(t(1000)).as_nanos() / 1_000, 0, 0, 0],
            "the 1 ms boundary counts UE 1's queued fetch, not UE 2's; \
             later boundaries wait for their instants to resolve"
        );
        // Quiet barriers still close their boundaries.
        s.resolve_up_to(t(3500), |_, _| {});
        let busy_after_ue2 = busy_after_ue1 + rtt;
        let at = |b: u64| busy_after_ue2.since(t(b)).as_nanos() / 1_000;
        assert_eq!(backlog(&s), [11_500, at(2000), at(3000), at(3500)]);
        assert_eq!(at(2000), 16_500);
        // The counter side of the same slices: UE 1 (at 1 ms) queued
        // 5.5 ms and UE 2 (at 1.5 ms) 11 ms, both attributed to slice 1.
        let waits: Vec<u64> = s.slices().iter().map(|d| d.backhaul_wait_us).collect();
        assert_eq!(waits, [0, 5_500 + 11_000, 0, 0]);
    }

    /// Two 8-beam NR FR2 cells over a run of `ms` milliseconds.
    fn fr2(ms: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::two_cell_edge();
        for c in &mut cfg.cells {
            c.n_tx_beams = 8;
        }
        cfg.duration = SimDuration::from_millis(ms);
        cfg
    }

    /// Every horizon the armed schedule holds, in µs.
    fn held_horizons_us(s: &SharedRachStage) -> Vec<u64> {
        let mut horizons = Vec::new();
        let mut after = SimTime::ZERO;
        while let Some(h) = s.next_horizon(after) {
            horizons.push(h.as_nanos() / 1_000);
            after = h;
        }
        horizons
    }

    /// Preambles arrive 10.5–12.25 ms into each 20 ms burst (occasions
    /// at 10 ms + 0.25 ms × beam, plus the air delay): epochs 6 and 7 of
    /// the burst's ten. A 100 ms run's last epoch, 50, holds too.
    #[test]
    fn an_8_beam_group_holds_epochs_6_and_7_of_each_burst() {
        let mut s = stage();
        s.arm_schedule(&fr2(100), &[0, 1]);
        let mut want: Vec<u64> = (0..5u64)
            .flat_map(|b| [b * 20_000 + 12_000, b * 20_000 + 14_000])
            .collect();
        want.push(100_000);
        assert_eq!(held_horizons_us(&s), want);
        // One cell alone holds the same epochs.
        let mut one = stage();
        one.arm_schedule(&fr2(100), &[1]);
        assert_eq!(held_horizons_us(&one), want);
    }

    /// The drain check needs a barrier at the run's end, whether or not
    /// the duration is a whole number of epochs and whatever the cells.
    #[test]
    fn the_last_epoch_always_holds() {
        for (ms, end) in [(100, 100_000), (101, 101_000)] {
            let mut s = stage();
            s.arm_schedule(&fr2(ms), &[]);
            assert_eq!(held_horizons_us(&s), [end]);
            s.arm_schedule(&fr2(ms), &[0]);
            assert_eq!(held_horizons_us(&s).last(), Some(&end));
        }
        // The 101 ms run's last epoch is the partial (100, 101] ms one.
        let mut s = stage();
        s.arm_schedule(&fr2(101), &[0]);
        assert_eq!(s.next_horizon(t(94_000)), Some(t(101_000)));
        assert_eq!(s.next_horizon(t(101_000)), None);
    }

    /// A UE sends its Msg3 the instant it receives a RAR, so a RAR
    /// delivered at t holds the epoch containing t + the air delay.
    #[test]
    fn a_rar_holds_the_epoch_its_msg3_arrives_in() {
        let mut s = stage();
        s.arm_schedule(&fr2(100), &[0, 1]);
        assert_eq!(s.next_horizon(t(14_000)), Some(t(32_000)));
        // Beam 7's preamble arrives at 12.25 ms, in epoch 7.
        let mut mb = vec![preamble(t(12_250), 0, 0, 0, 3)];
        s.ingest(&mut mb);
        let mut rar = None;
        s.resolve_up_to(t(14_000), |_, r| rar = Some(r.deliver_at));
        let delivered = rar.expect("the preamble is answered");
        assert_eq!(delivered, t(14_250));
        // The Msg3 arrives at 14.75 ms: epoch 8, which no preamble fills.
        assert_eq!(delivered + AIR_DELAY, t(14_750));
        assert_eq!(s.next_horizon(t(14_000)), Some(t(16_000)));
        assert_eq!(s.next_horizon(t(16_000)), Some(t(32_000)));
        // It resolves there within the schedule check.
        let mut mb = vec![msg3(delivered + AIR_DELAY, 0)];
        s.ingest(&mut mb);
        s.resolve_up_to(t(16_000), |_, _| {});
        s.assert_drained();
        assert_eq!(s.counters().barriers_held, 2);
    }

    /// The schedule check: an attempt that arrived before the grid
    /// epoch containing the horizon belongs to an epoch the schedule
    /// skipped, and resolving it fails the run — also at the off-grid
    /// horizon of a partial last epoch.
    #[test]
    fn resolving_an_attempt_from_a_skipped_epoch_panics() {
        let panic_message = |at_us: u64, horizon_us: u64| {
            let payload = std::panic::catch_unwind(|| {
                let mut s = stage();
                let mut mb = vec![preamble(t(at_us), 0, 0, 0, 3)];
                s.ingest(&mut mb);
                s.resolve_up_to(t(horizon_us), |_, _| {});
            })
            .expect_err("the schedule check must fire");
            *payload.downcast::<String>().expect("a formatted message")
        };
        assert!(panic_message(2_000, 4_000)
            .contains("arrived at 2.000 ms was resolved at the 4.000 ms horizon"));
        // A 101 ms run's last epoch is (100, 101] ms, so an attempt of the
        // (98, 100] ms epoch fails there too, though it arrived less than
        // one epoch before the horizon.
        assert!(panic_message(100_000, 101_000)
            .contains("arrived at 100.000 ms was resolved at the 101.000 ms horizon"));
    }

    #[test]
    fn replies_land_strictly_beyond_the_horizon() {
        let mut s = stage();
        let horizon = t(2000);
        let mut mb = vec![preamble(t(1990), 0, 0, 0, 3), preamble(t(2000), 1, 0, 1, 4)];
        s.ingest(&mut mb);
        let mut deliveries = Vec::new();
        s.resolve_up_to(horizon, |_, r| deliveries.push(r.deliver_at));
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|&d| d > horizon));
    }
}
