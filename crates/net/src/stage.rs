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
//! Shards advance independently between PRACH occasions; every epoch
//! (the minimum BS response delay, `min(rar_delay, msg4_delay)`) is a
//! synchronization barrier. During an epoch a shard publishes its
//! arriving RACH PDUs as [`RachAttemptMsg`]s into its outbox. At the
//! barrier the outboxes are merged into the stage's holding buffer and
//! every attempt whose arrival instant lies at or before the barrier
//! horizon is resolved, in **canonical order** — arrival instant, then
//! global UE id — against one [`RachResponder`] per cell. Replies fan
//! back to the owning shards as [`RachReply`]s, timestamped strictly
//! beyond the horizon (the epoch length is chosen to guarantee it), so
//! delivery never has to rewind a shard.
//!
//! Because the barrier instants are global constants of the config and
//! the resolution order is canonical, the outcome is byte-identical
//! regardless of shard count, worker count, worker scheduling or outbox
//! arrival interleaving — `tests/shard_approximation.rs` asserts the
//! 1-shard/8-shard *equality* this buys.
//!
//! ## Why the epoch length is safe
//!
//! An attempt is published by its arrival event at `at`, so every
//! attempt with `at ≤ horizon` has been published once all shards have
//! run through `horizon`. A resolved attempt's reply is delayed by at
//! least `min(rar_delay, msg4_delay)`, and any attempt resolved at this
//! barrier has `at >` the *previous* horizon, so its reply lands strictly
//! after the current horizon: always in the receiving shard's future.
//!
//! ## Zero allocation in steady state
//!
//! The holding buffer, per-occasion batch scratch and reply routing are
//! all capacity-retaining (`Vec::clear`/`drain`, in-place
//! `sort_unstable`), pre-sized by [`SharedRachStage::new`] — resolving
//! occasions allocates nothing once warm (asserted by
//! `tests/zero_alloc.rs`).

use st_des::{SimDuration, SimTime};
use st_mac::pdu::{Pdu, UeId};
use st_mac::responder::{PreambleRx, RachResponder, RarPlan, ResponderConfig, ResponderStats};
use st_mac::timing::TxBeamIndex;

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

impl RachReq {
    /// Canonical tie-break between a same-instant Msg1 and Msg3 of one
    /// UE (the two kinds never interact through the pending table at the
    /// same instant, but the order must still be fixed).
    fn kind_rank(&self) -> u8 {
        match self {
            RachReq::Preamble { .. } => 0,
            RachReq::Msg3 { .. } => 1,
        }
    }
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
    /// Per-occasion batch scratch (one cell, one instant), and the
    /// shard/UE routing parallel to it.
    batch: Vec<PreambleRx>,
    batch_dst: Vec<(u32, u64)>,
    rar_out: Vec<Option<RarPlan>>,
    counters: StageCounters,
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
    /// `expected_inflight` pre-sizes every buffer (a UE has at most one
    /// Msg1 and one Msg3 in flight, so the UE count is a safe ceiling).
    pub fn new(
        n_cells: usize,
        config: ResponderConfig,
        expected_inflight: usize,
    ) -> SharedRachStage {
        let cap = expected_inflight.max(16) * 2;
        SharedRachStage {
            responders: (0..n_cells).map(|_| RachResponder::new(config)).collect(),
            holding: Vec::with_capacity(cap),
            batch: Vec::with_capacity(cap),
            batch_dst: Vec::with_capacity(cap),
            rar_out: Vec::with_capacity(cap),
            counters: StageCounters::default(),
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
    pub fn resolve_up_to(&mut self, horizon: SimTime, mut deliver: impl FnMut(u32, RachReply)) {
        self.holding
            .sort_unstable_by_key(|m| (m.at.as_nanos(), m.ue_global, m.req.kind_rank(), m.cell));
        let due = self
            .holding
            .partition_point(|m| m.at.as_nanos() <= horizon.as_nanos());
        if due > 0 {
            self.counters.busy_barriers += 1;
        }

        let mut i = 0;
        while i < due {
            // One run of equal arrival instants = the PRACH occasions (and
            // stray Msg3s) landing at this instant across every cell.
            let at = self.holding[i].at;
            let mut j = i;
            while j < due && self.holding[j].at == at {
                j += 1;
            }
            // Boundaries before this instant close with what is resolved
            // so far; one at this very instant waits for it.
            self.sample_backlog_before(at.as_nanos());
            // Snapshot-slice attribution brackets this instant's work.
            let before = self.slice_dt.map(|_| self.stats_snapshot());

            // Merged-occasion resolution per cell: gather the instant's
            // preambles for each cell (already in canonical UE order) and
            // resolve them in one pass.
            for cell in 0..self.responders.len() as u16 {
                self.batch.clear();
                self.batch_dst.clear();
                for m in &self.holding[i..j] {
                    if m.cell != cell {
                        continue;
                    }
                    if let RachReq::Preamble {
                        preamble,
                        ssb_beam,
                        distance_m,
                    } = m.req
                    {
                        self.batch.push(PreambleRx {
                            at: m.at,
                            ue: UeId(m.ue_global as u32 + 1),
                            preamble,
                            ssb_beam,
                            distance_m,
                        });
                        self.batch_dst.push((m.shard, m.ue_global));
                    }
                }
                if self.batch.is_empty() {
                    continue;
                }
                self.counters.resolved_preambles += self.batch.len() as u64;
                // The batch is a sub-sequence of the canonically sorted
                // holding buffer, so `resolve`'s internal canonical sort
                // is an order no-op and `batch_dst` stays aligned.
                self.responders[cell as usize].resolve(&mut self.batch, &mut self.rar_out);
                for (k, plan) in self.rar_out.iter().enumerate() {
                    let Some(plan) = plan else { continue };
                    let (shard, ue_global) = self.batch_dst[k];
                    deliver(
                        shard,
                        RachReply {
                            deliver_at: at + plan.delay,
                            ue_global,
                            cell,
                            tx_beam: plan.tx_beam,
                            pdu: plan.pdu.clone(),
                            backhaul_ns: 0,
                        },
                    );
                }
            }

            // Msg3s at this instant, in canonical UE order.
            for m in &self.holding[i..j] {
                if let RachReq::Msg3 {
                    temp,
                    ue,
                    context_token,
                    reply_tx_beam,
                } = m.req
                {
                    self.counters.resolved_msg3 += 1;
                    if let Some(plan) =
                        self.responders[m.cell as usize].on_msg3(m.at, temp, ue, context_token)
                    {
                        deliver(
                            m.shard,
                            RachReply {
                                deliver_at: m.at + plan.delay,
                                ue_global: m.ue_global,
                                cell: m.cell,
                                tx_beam: reply_tx_beam,
                                pdu: plan.pdu.clone(),
                                backhaul_ns: (plan.queue_wait + plan.fetch).as_nanos(),
                            },
                        );
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
            i = j;
        }
        self.holding.drain(..due);
        self.sample_backlog_before(horizon.as_nanos() + 1);
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
