//! Base-station side of random access: the responder that turns Msg1 into
//! Msg2 and Msg3 into Msg4 (sans-IO — the caller transmits the returned
//! PDUs after the returned delays).
//!
//! The responder also owns the *admission* decision: a connection request
//! carrying a nonzero context token is a soft handover — the target must
//! fetch the session context from the source cell over the backhaul
//! before resolving contention, which is why [`Msg4Plan::delay`] grows by
//! a backhaul round trip in that case. A token of zero is a fresh (hard)
//! connection admitted immediately — the mobile instead pays connection
//! re-establishment above the MAC.
//!
//! Under load the responder models two multi-UE effects:
//!
//! * **Preamble collisions.** Two UEs transmitting the same preamble on
//!   the same PRACH occasion are indistinguishable at Msg1: the BS sends
//!   one RAR with one temporary id, both UEs answer with Msg3 on the same
//!   grant, and only the first-decoded Msg3 wins contention resolution —
//!   the loser's Msg3 goes unanswered and its contention-resolution timer
//!   expiry drives the back-off-and-retry. Duplicate preambles arriving
//!   *within* [`ResponderConfig::collision_window`] of the pending entry
//!   are collisions; later duplicates are retransmissions by the same UE.
//! * **Backhaul serialization.** Soft-handover context fetches share one
//!   backhaul pipe per cell: concurrent fetches queue FIFO, so Msg4
//!   latency grows with handover load — the fleet engine's per-cell
//!   context-fetch queue.

use crate::pdu::{Pdu, UeId};
use crate::timing::TxBeamIndex;
use st_des::{SimDuration, SimTime};

/// Configuration of the responder's timing.
#[derive(Debug, Clone, Copy)]
pub struct ResponderConfig {
    /// Processing delay from preamble receipt to RAR transmission.
    pub rar_delay: SimDuration,
    /// Processing delay from Msg3 receipt to Msg4 (excluding backhaul).
    pub msg4_delay: SimDuration,
    /// One-way backhaul latency to the source cell.
    pub backhaul_latency: SimDuration,
    /// Admission control: maximum simultaneous RACH procedures.
    pub max_pending: usize,
    /// Duplicate preambles arriving within this window of an existing
    /// pending entry are a *collision* (distinct UEs on one occasion);
    /// later duplicates are retransmissions. Must be shorter than any
    /// retry period.
    pub collision_window: SimDuration,
    /// Pending entries older than this are garbage-collected on the next
    /// Msg1 (the procedure concluded or timed out long ago). Must exceed
    /// the whole Msg1→Msg4 exchange including contention-resolution
    /// timers, or a live procedure loses its winner bookkeeping.
    pub pending_ttl: SimDuration,
}

impl ResponderConfig {
    pub fn nr_default() -> ResponderConfig {
        ResponderConfig {
            rar_delay: SimDuration::from_millis(2),
            msg4_delay: SimDuration::from_millis(2),
            backhaul_latency: SimDuration::from_millis(3),
            max_pending: 16,
            collision_window: SimDuration::from_millis(1),
            pending_ttl: SimDuration::from_millis(50),
        }
    }
}

/// Reply plan for a received preamble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RarPlan {
    /// Transmit after this delay…
    pub delay: SimDuration,
    /// …on this SSB beam (the one the PRACH occasion was bound to)…
    pub tx_beam: TxBeamIndex,
    /// …this PDU.
    pub pdu: Pdu,
}

/// Reply plan for a received Msg3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg4Plan {
    pub delay: SimDuration,
    pub pdu: Pdu,
    /// Whether a context fetch from the source cell is required first
    /// (already included in `delay`).
    pub soft: bool,
    /// Time the fetch spent queued behind other fetches on this cell's
    /// backhaul (already included in `delay`; zero when uncontended).
    pub queue_wait: SimDuration,
    /// Backhaul round-trip the fetch itself took (already included in
    /// `delay`; zero when no fetch was paid). `queue_wait + fetch` is
    /// the full backhaul component of the Msg4 delay — the quantity
    /// causal attribution charges to the backhaul phase.
    pub fetch: SimDuration,
}

/// One in-flight procedure, BS side.
#[derive(Debug, Clone, Copy)]
struct Pending {
    preamble: u8,
    ssb_beam: TxBeamIndex,
    temp_ue: UeId,
    started: SimTime,
    /// A second UE transmitted this preamble on the same occasion.
    collided: bool,
    /// The UE whose Msg3 was decoded first (contention winner).
    winner: Option<UeId>,
    /// When that first Msg3 was decoded — the instant contention
    /// concluded. Preambles arriving *after* it start a fresh procedure;
    /// preambles timestamped before it (a same-occasion collider whose
    /// Msg1 is processed late) still join this one.
    concluded_at: Option<SimTime>,
    /// The winner's soft-handover context fetch already ran: a Msg3
    /// retransmission (lost Msg4) is re-answered from the cached context
    /// without paying — or charging — the backhaul again.
    context_fetched: bool,
}

/// Load/contention counters of one responder, for fleet-level metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResponderStats {
    /// Msg1 receptions (including retransmissions and collisions).
    pub preambles_heard: u64,
    /// Occasions on which ≥ 2 UEs chose the same preamble.
    pub collisions: u64,
    /// RARs transmitted.
    pub rar_sent: u64,
    /// Msg3s that lost contention resolution (went unanswered).
    pub contention_losses: u64,
    /// Preambles dropped by admission control.
    pub rejected: u64,
    /// Soft-handover context fetches served.
    pub context_fetches: u64,
    /// Total time fetches spent queued behind the per-cell backhaul.
    pub backhaul_queue_wait: SimDuration,
    /// Merged occasions heard: (instant, cell) runs of preambles the
    /// RACH stage resolved, counted by [`RachResponder::note_occasion`]
    /// on the single-trial path and in the fleet alike.
    pub merged_occasions: u64,
    /// Largest merged occasion, in preambles — how much cross-shard
    /// traffic one occasion brought together.
    pub peak_merged_attempts: u64,
}

/// BS-side RACH responder of one cell: the pending table and temp-id
/// counter, the backhaul pipe clock, the statistics and the reply
/// construction (delays, timing advance, PDUs). Its evolution is a
/// deterministic fold over the attempts in the order it hears them; the
/// RACH stage hands them over in one canonical order, which is what
/// makes the outcome independent of how the attempts were collected.
#[derive(Debug, Clone)]
pub struct RachResponder {
    pub config: ResponderConfig,
    /// In-flight procedures, and the temporary id the next one gets.
    pending: Vec<Pending>,
    next_temp: u32,
    /// The per-cell backhaul pipe is busy until this instant.
    backhaul_busy_until: SimTime,
    stats: ResponderStats,
}

impl RachResponder {
    pub fn new(config: ResponderConfig) -> RachResponder {
        RachResponder {
            config,
            pending: Vec::new(),
            next_temp: 1000,
            backhaul_busy_until: SimTime::ZERO,
            stats: ResponderStats::default(),
        }
    }

    pub fn stats(&self) -> ResponderStats {
        self.stats
    }

    /// How far into the future the backhaul pipe is already committed
    /// at `now` — the instantaneous queue-depth gauge a telemetry
    /// snapshot reads. Zero when the pipe is idle.
    pub fn backhaul_backlog(&self, now: SimTime) -> SimDuration {
        if self.backhaul_busy_until > now {
            self.backhaul_busy_until.since(now)
        } else {
            SimDuration::ZERO
        }
    }

    /// Count one merged PRACH occasion: the `attempts` preambles this
    /// cell hears at one instant, from every shard, which the caller then
    /// hands to [`Self::on_preamble`] one by one.
    pub fn note_occasion(&mut self, attempts: usize) {
        self.stats.merged_occasions += 1;
        self.stats.peak_merged_attempts = self.stats.peak_merged_attempts.max(attempts as u64);
    }

    /// Handle Msg1. Returns the RAR plan, or `None` when admission
    /// control rejects the preamble (the mobile's RAR window will lapse
    /// and it retries — exactly the congestion behaviour of real PRACH).
    /// Entries older than [`ResponderConfig::pending_ttl`] are collected
    /// first.
    ///
    /// A duplicate (preamble, beam) within [`ResponderConfig::collision_window`]
    /// of the original is a collision: the second UE is answered with the
    /// *same* RAR (the BS cannot tell them apart), and Msg4 contention
    /// resolution later picks one winner.
    ///
    /// An entry whose contention already *concluded* (a Msg3 winner was
    /// answered before this preamble's arrival instant) is not matched:
    /// a later UE reusing the (preamble, beam) starts a fresh procedure
    /// with a fresh temporary id instead of inheriting the stale winner —
    /// which would make its Msg3 record a phantom `contention_loss` until
    /// `pending_ttl` swept the entry. The concluded entry itself stays
    /// until the TTL so the winner's Msg3 retransmissions (lost Msg4)
    /// still find their cached context.
    pub fn on_preamble(
        &mut self,
        now: SimTime,
        preamble: u8,
        ssb_beam: TxBeamIndex,
        distance_m: f64,
    ) -> Option<RarPlan> {
        let cfg = &self.config;
        self.pending
            .retain(|p| now.since(p.started) <= cfg.pending_ttl);
        self.stats.preambles_heard += 1;
        let live = self.pending.iter_mut().find(|p| {
            p.preamble == preamble
                && p.ssb_beam == ssb_beam
                && p.concluded_at.is_none_or(|c| now <= c)
        });
        let temp_ue = if let Some(p) = live {
            if now.since(p.started) <= cfg.collision_window && !p.collided {
                p.collided = true;
                self.stats.collisions += 1;
            }
            p.temp_ue
        } else {
            if self.pending.len() >= cfg.max_pending {
                self.stats.rejected += 1;
                return None;
            }
            let temp = UeId(self.next_temp);
            self.next_temp += 1;
            self.pending.push(Pending {
                preamble,
                ssb_beam,
                temp_ue: temp,
                started: now,
                collided: false,
                winner: None,
                concluded_at: None,
                context_fetched: false,
            });
            temp
        };
        let ta = crate::timing::TimingAdvance::from_distance_m(distance_m);
        self.stats.rar_sent += 1;
        Some(RarPlan {
            delay: self.config.rar_delay,
            tx_beam: ssb_beam,
            pdu: Pdu::RachResponse {
                preamble,
                timing_advance_ns: ta.rtt_ns.min(u32::MAX as u64) as u32,
                temp_ue,
            },
        })
    }

    /// Handle Msg3 (connection request) sent under temporary id `temp_ue`.
    ///
    /// The first Msg3 per pending entry wins contention and is answered;
    /// a *different* UE's Msg3 under the same temporary id lost the
    /// Msg3 grant collision and gets no reply (`None`) — its
    /// contention-resolution timer expiry drives the retry. A winner
    /// retransmitting Msg3 (its Msg4 was lost) is re-answered from the
    /// already-fetched context — no second backhaul fetch is paid or
    /// counted. No matching pending entry (or `temp_ue == None`) admits
    /// unconditionally — the uncontended path.
    ///
    /// The returned delay embeds the backhaul context fetch for soft
    /// handovers, serialized through this cell's FIFO backhaul pipe.
    pub fn on_msg3(
        &mut self,
        now: SimTime,
        temp_ue: Option<UeId>,
        ue: UeId,
        context_token: u64,
    ) -> Option<Msg4Plan> {
        let soft = context_token != 0;
        let entry = temp_ue.and_then(|t| self.pending.iter_mut().find(|p| p.temp_ue == t));
        let cached = match entry {
            Some(p) if p.winner.is_some_and(|w| w != ue) => {
                self.stats.contention_losses += 1;
                return None;
            }
            Some(p) => {
                p.winner = Some(ue);
                p.concluded_at.get_or_insert(now);
                let cached = p.context_fetched;
                p.context_fetched |= soft;
                cached
            }
            None => false,
        };
        let (extra, queue_wait, fetch) = if soft && !cached {
            let fetch_start = self.backhaul_busy_until.max(now);
            let wait = fetch_start.since(now);
            let rtt = self.config.backhaul_latency * 2;
            self.backhaul_busy_until = fetch_start + rtt;
            self.stats.context_fetches += 1;
            self.stats.backhaul_queue_wait = self.stats.backhaul_queue_wait + wait;
            (wait + rtt, wait, rtt)
        } else {
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)
        };
        Some(Msg4Plan {
            delay: self.config.msg4_delay + extra,
            pdu: Pdu::ContentionResolution { ue, accepted: true },
            soft,
            queue_wait,
            fetch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn resp() -> RachResponder {
        RachResponder::new(ResponderConfig::nr_default())
    }

    #[test]
    fn preamble_gets_rar_on_same_beam() {
        let mut r = resp();
        let plan = r.on_preamble(t(0), 17, 3, 150.0).unwrap();
        assert_eq!(plan.tx_beam, 3);
        assert_eq!(plan.delay, SimDuration::from_millis(2));
        match plan.pdu {
            Pdu::RachResponse {
                preamble,
                timing_advance_ns,
                ..
            } => {
                assert_eq!(preamble, 17);
                // 150 m → ~1 µs RTT.
                assert!((timing_advance_ns as i64 - 1001).abs() < 3);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.stats().rar_sent, 1);
    }

    #[test]
    fn duplicate_preamble_reuses_temp_id() {
        let mut r = resp();
        let a = r.on_preamble(t(0), 17, 3, 100.0).unwrap();
        let b = r.on_preamble(t(5), 17, 3, 100.0).unwrap();
        let id = |p: &Pdu| match p {
            Pdu::RachResponse { temp_ue, .. } => *temp_ue,
            _ => unreachable!(),
        };
        assert_eq!(id(&a.pdu), id(&b.pdu));
        // 5 ms apart: a retransmission, not a same-occasion collision.
        assert_eq!(r.stats().collisions, 0);
    }

    #[test]
    fn distinct_preambles_get_distinct_ids() {
        let mut r = resp();
        let a = r.on_preamble(t(0), 1, 0, 100.0).unwrap();
        let b = r.on_preamble(t(0), 2, 0, 100.0).unwrap();
        assert_ne!(a.pdu, b.pdu);
        assert_eq!(r.stats().collisions, 0);
    }

    #[test]
    fn same_occasion_duplicate_is_a_collision() {
        let mut r = resp();
        let a = r.on_preamble(t(0), 9, 2, 100.0).unwrap();
        // A second UE, same preamble, same occasion (arrivals µs apart).
        let b = r
            .on_preamble(t(0) + SimDuration::from_micros(3), 9, 2, 140.0)
            .unwrap();
        let id = |p: &Pdu| match p {
            Pdu::RachResponse { temp_ue, .. } => *temp_ue,
            _ => unreachable!(),
        };
        // Indistinguishable at Msg1: both get the same temporary id.
        assert_eq!(id(&a.pdu), id(&b.pdu));
        assert_eq!(r.stats().collisions, 1);
        assert_eq!(r.stats().preambles_heard, 2);
        // A third colliding UE does not double-count the occasion.
        r.on_preamble(t(0) + SimDuration::from_micros(6), 9, 2, 90.0);
        assert_eq!(r.stats().collisions, 1);
    }

    #[test]
    fn contention_resolution_first_msg3_wins() {
        let mut r = resp();
        let plan = r.on_preamble(t(0), 9, 2, 100.0).unwrap();
        let temp = match plan.pdu {
            Pdu::RachResponse { temp_ue, .. } => temp_ue,
            _ => unreachable!(),
        };
        r.on_preamble(t(0), 9, 2, 140.0); // collider
        let win = r.on_msg3(t(5), Some(temp), UeId(7), 0xAB).unwrap();
        assert!(matches!(
            win.pdu,
            Pdu::ContentionResolution {
                ue: UeId(7),
                accepted: true
            }
        ));
        // The loser's Msg3 goes unanswered...
        assert!(r.on_msg3(t(5), Some(temp), UeId(8), 0xCD).is_none());
        assert_eq!(r.stats().contention_losses, 1);
        // ...while the winner retransmitting is re-answered.
        assert!(r.on_msg3(t(6), Some(temp), UeId(7), 0xAB).is_some());
    }

    #[test]
    fn admission_control_rejects_overflow() {
        let mut r = RachResponder::new(ResponderConfig {
            max_pending: 2,
            ..ResponderConfig::nr_default()
        });
        assert!(r.on_preamble(t(0), 1, 0, 10.0).is_some());
        assert!(r.on_preamble(t(0), 2, 0, 10.0).is_some());
        assert!(r.on_preamble(t(0), 3, 0, 10.0).is_none());
        assert_eq!(r.stats().rejected, 1);
    }

    #[test]
    fn soft_handover_pays_backhaul_round_trip() {
        let mut r = resp();
        let soft = r.on_msg3(t(0), None, UeId(7), 0xABCD).unwrap();
        let hard = r.on_msg3(t(0), None, UeId(8), 0).unwrap();
        assert!(soft.soft && !hard.soft);
        assert_eq!(
            soft.delay,
            SimDuration::from_millis(2) + SimDuration::from_millis(6)
        );
        assert_eq!(hard.delay, SimDuration::from_millis(2));
        assert!(matches!(
            soft.pdu,
            Pdu::ContentionResolution { accepted: true, .. }
        ));
    }

    #[test]
    fn winner_msg3_retransmission_reuses_fetched_context() {
        let mut r = resp();
        let plan = r.on_preamble(t(0), 9, 2, 100.0).unwrap();
        let temp = match plan.pdu {
            Pdu::RachResponse { temp_ue, .. } => temp_ue,
            _ => unreachable!(),
        };
        let first = r.on_msg3(t(3), Some(temp), UeId(7), 0xAB).unwrap();
        assert_eq!(first.delay, SimDuration::from_millis(2 + 6));
        // Msg4 lost; the winner retransmits Msg3. The context is already
        // at the target: answered at processing delay only, no second
        // fetch charged to the backhaul stats.
        let retry = r.on_msg3(t(30), Some(temp), UeId(7), 0xAB).unwrap();
        assert_eq!(retry.delay, SimDuration::from_millis(2));
        assert_eq!(retry.queue_wait, SimDuration::ZERO);
        assert_eq!(r.stats().context_fetches, 1);
        assert_eq!(r.stats().backhaul_queue_wait, SimDuration::ZERO);
    }

    #[test]
    fn backhaul_fetches_serialize_fifo() {
        let mut r = resp();
        // Three soft handovers land in quick succession; the 6 ms fetches
        // queue behind each other on the one backhaul pipe.
        let a = r.on_msg3(t(0), None, UeId(1), 0x1).unwrap();
        let b = r.on_msg3(t(1), None, UeId(2), 0x2).unwrap();
        let c = r.on_msg3(t(2), None, UeId(3), 0x3).unwrap();
        assert_eq!(a.queue_wait, SimDuration::ZERO);
        // b arrives at 1 ms; pipe busy until 6 ms → waits 5 ms.
        assert_eq!(b.queue_wait, SimDuration::from_millis(5));
        // c arrives at 2 ms; pipe busy until 12 ms → waits 10 ms.
        assert_eq!(c.queue_wait, SimDuration::from_millis(10));
        assert_eq!(c.delay, SimDuration::from_millis(2 + 10 + 6));
        assert_eq!(r.stats().context_fetches, 3);
        assert_eq!(r.stats().backhaul_queue_wait, SimDuration::from_millis(15));
        // Hard admissions never touch the pipe.
        let hard = r.on_msg3(t(3), None, UeId(4), 0).unwrap();
        assert_eq!(hard.queue_wait, SimDuration::ZERO);
    }

    #[test]
    fn concluded_contention_is_not_inherited_by_a_later_ue() {
        // Regression for the phantom-contention-loss bias: UE 7 wins its
        // contention at t = 5 ms; UE 9 reuses the same (preamble, beam)
        // at t = 10 ms — well inside pending_ttl (50 ms). UE 9 must get
        // a *fresh* procedure, not inherit UE 7's concluded entry and
        // lose contention against a ghost.
        let mut r = resp();
        let first = r.on_preamble(t(0), 12, 4, 100.0).unwrap();
        let temp_a = match first.pdu {
            Pdu::RachResponse { temp_ue, .. } => temp_ue,
            _ => unreachable!(),
        };
        assert!(r.on_msg3(t(5), Some(temp_a), UeId(7), 0xA).is_some());

        let second = r.on_preamble(t(10), 12, 4, 120.0).unwrap();
        let temp_b = match second.pdu {
            Pdu::RachResponse { temp_ue, .. } => temp_ue,
            _ => unreachable!(),
        };
        assert_ne!(temp_a, temp_b, "later UE inherited the concluded entry");
        // Its Msg3 is answered — no phantom loss.
        assert!(r.on_msg3(t(14), Some(temp_b), UeId(9), 0xB).is_some());
        assert_eq!(r.stats().contention_losses, 0);
        // The winner retransmitting Msg3 still reuses its cached context.
        let retry = r.on_msg3(t(20), Some(temp_a), UeId(7), 0xA).unwrap();
        assert_eq!(retry.queue_wait, SimDuration::ZERO);
        assert_eq!(r.stats().context_fetches, 2, "one fetch per distinct UE");
    }

    #[test]
    fn stale_entries_gc_on_next_preamble() {
        let mut r = resp();
        let a = r.on_preamble(t(0), 7, 1, 50.0).unwrap();
        // The winner of the first procedure is long gone; a fresh UE
        // reusing preamble 7 must get a fresh identity, not inherit the
        // stale entry (which would make it lose contention forever).
        r.on_msg3(t(5), None, UeId(1), 0x1);
        let b = r.on_preamble(t(200), 7, 1, 80.0).unwrap();
        let id = |p: &Pdu| match p {
            Pdu::RachResponse { temp_ue, .. } => *temp_ue,
            _ => unreachable!(),
        };
        assert_ne!(id(&a.pdu), id(&b.pdu));
    }
}
