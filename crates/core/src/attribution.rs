//! Causal interruption attribution: decompose one recorded handover
//! interruption into named phases and a root-cause tag.
//!
//! The fleet metrics layer records each interruption as a single latency
//! sample; this module turns that anonymous number into a ledger. A
//! driver captures the raw timeline of one handover as
//! [`InterruptionMarks`] — the trigger instant, the first preamble
//! transmission, the Msg3 instant, the backhaul context-fetch span, the
//! connection instant and any hard-handover penalty — and
//! [`InterruptionBreakdown::from_marks`] derives from those marks:
//!
//! * a phase decomposition over [`Phase::ALL`] whose left-to-right f64
//!   sum is **bit-equal** to the recorded interruption duration, and
//! * a root [`Cause`] tag (blockage-onset / fade / preamble-collision /
//!   backhaul-congestion / trigger-maturity), derived from integer-nano
//!   comparisons only, so attribution is deterministic across platforms
//!   and worker counts.
//!
//! The derivation is a pure function of the marks, so a breakdown
//! computed live inside a shard and one recomputed by the trace-replay
//! autopsy tool from the recorded marks are identical byte for byte.

use bytes::BufMut;
use st_des::{SimDuration, SimTime};

use crate::wire::{
    get_bool, get_opt_time, get_time, get_u16, get_u8, get_varu64, put_bool, put_opt_time,
    put_time, put_varu64, WireError,
};

/// One phase of a handover interruption, in timeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Detection lag: interruption onset (RLF) to the handover trigger.
    /// Zero for make-before-break handovers, where the trigger *is* the
    /// start of the interruption.
    Detect = 0,
    /// Trigger/hysteresis wait: handover directive to the first preamble
    /// actually transmitted on the target's PRACH.
    Trigger = 1,
    /// RACH access: first preamble transmission to Msg3, including every
    /// collision backoff round in between.
    Rach = 2,
    /// Backhaul context-fetch queueing + transfer at the target cell.
    Backhaul = 3,
    /// Msg4 contention wait: context ready to contention resolution
    /// delivered (minus the backhaul span already accounted above).
    Msg4 = 4,
    /// Hard-handover re-attach penalty (reactive arm only).
    Penalty = 5,
}

impl Phase {
    /// All phases in canonical (timeline) order.
    pub const ALL: [Phase; 6] = [
        Phase::Detect,
        Phase::Trigger,
        Phase::Rach,
        Phase::Backhaul,
        Phase::Msg4,
        Phase::Penalty,
    ];

    /// Stable label used in tables, JSON artifacts and autopsy output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Detect => "detect",
            Phase::Trigger => "trigger-wait",
            Phase::Rach => "rach",
            Phase::Backhaul => "backhaul",
            Phase::Msg4 => "msg4",
            Phase::Penalty => "penalty",
        }
    }
}

/// Root cause of one interruption — which mechanism dominated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Cause {
    /// The serving link was cut by a geometric blockage event (dynamic
    /// environment armed) before the protocol could hand over.
    BlockageOnset = 0,
    /// The serving link faded below the loss threshold under stochastic
    /// channel dynamics (no geometric blocker field armed).
    Fade = 1,
    /// PRACH preamble collisions forced at least one backoff round.
    PreambleCollision = 2,
    /// The backhaul context fetch outweighed every radio phase.
    BackhaulCongestion = 3,
    /// Nothing went wrong: the interruption is the intrinsic cost of the
    /// trigger maturing and the access handshake completing.
    TriggerMaturity = 4,
}

impl Cause {
    /// All causes in canonical order — the merge and report order.
    pub const ALL: [Cause; 5] = [
        Cause::BlockageOnset,
        Cause::Fade,
        Cause::PreambleCollision,
        Cause::BackhaulCongestion,
        Cause::TriggerMaturity,
    ];

    /// Stable label used as the sketch-map key and in JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Cause::BlockageOnset => "blockage-onset",
            Cause::Fade => "fade",
            Cause::PreambleCollision => "preamble-collision",
            Cause::BackhaulCongestion => "backhaul-congestion",
            Cause::TriggerMaturity => "trigger-maturity",
        }
    }
}

/// Raw timeline marks of one completed handover, captured by the driver
/// as the handover finishes. Self-contained: everything the cause and
/// phase derivation needs is carried here, so a recorded trace replays
/// to the identical breakdown without any side channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptionMarks {
    /// Global UE id.
    pub ue: u64,
    /// Cell the UE left.
    pub from_cell: u16,
    /// Cell the UE attached to.
    pub to_cell: u16,
    /// The interruption started at radio-link failure (reactive path or
    /// serving-lost soft handover), not at a make-before-break trigger.
    pub reason_rlf: bool,
    /// The deployment armed the geometric dynamic-environment model, so
    /// an RLF is attributed to blockage onset rather than plain fading.
    pub dynamics: bool,
    /// Interruption start (trigger instant, or the RLF that preceded it).
    pub start: SimTime,
    /// Handover trigger (directive emitted by the protocol core).
    pub trigger: SimTime,
    /// First PRACH preamble transmission; `None` if access never started
    /// (the connection completed without a recorded preamble).
    pub first_tx: Option<SimTime>,
    /// Msg3 transmission after the RAR; `None` if no RAR was received.
    pub msg3: Option<SimTime>,
    /// Backhaul context-fetch span (queue wait + fetch RTT) in nanos.
    pub backhaul_ns: u64,
    /// Contention resolution delivered — the UE is connected.
    pub connected: SimTime,
    /// Hard-handover re-attach penalty appended after `connected`.
    pub penalty_ns: u64,
    /// Preamble transmissions this access took (1 = no collision).
    pub rach_rounds: u8,
}

impl InterruptionMarks {
    /// Instant the recorded interruption ends (`connected` + penalty).
    pub fn done_at(&self) -> SimTime {
        self.connected + SimDuration::from_nanos(self.penalty_ns)
    }

    /// The recorded interruption duration — bit-identical to what the
    /// fleet metrics layer records (`done_at.since(start)`).
    pub fn total(&self) -> SimDuration {
        self.done_at().since(self.start)
    }

    pub fn encode<B: BufMut>(&self, out: &mut B) {
        put_varu64(out, self.ue);
        out.put_u16(self.from_cell);
        out.put_u16(self.to_cell);
        put_bool(out, self.reason_rlf);
        put_bool(out, self.dynamics);
        put_time(out, self.start);
        put_time(out, self.trigger);
        put_opt_time(out, self.first_tx);
        put_opt_time(out, self.msg3);
        put_varu64(out, self.backhaul_ns);
        put_time(out, self.connected);
        put_varu64(out, self.penalty_ns);
        out.put_u8(self.rach_rounds);
    }

    /// Inverse of [`InterruptionMarks::encode`]. Marks whose end
    /// (`connected` + penalty) lies past the clock's range are `Corrupt`,
    /// checked after the record's last field: [`Self::done_at`] and every
    /// breakdown add the two.
    pub fn decode(buf: &mut &[u8]) -> Result<InterruptionMarks, WireError> {
        let m = InterruptionMarks {
            ue: get_varu64(buf)?,
            from_cell: get_u16(buf)?,
            to_cell: get_u16(buf)?,
            reason_rlf: get_bool(buf)?,
            dynamics: get_bool(buf)?,
            start: get_time(buf)?,
            trigger: get_time(buf)?,
            first_tx: get_opt_time(buf)?,
            msg3: get_opt_time(buf)?,
            backhaul_ns: get_varu64(buf)?,
            connected: get_time(buf)?,
            penalty_ns: get_varu64(buf)?,
            rach_rounds: get_u8(buf)?,
        };
        m.connected
            .checked_add(SimDuration::from_nanos(m.penalty_ns))
            .ok_or(WireError::Corrupt("interruption end overflow"))?;
        Ok(m)
    }
}

/// One interruption decomposed into phases plus its root cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptionBreakdown {
    pub ue: u64,
    pub from_cell: u16,
    pub to_cell: u16,
    pub cause: Cause,
    /// Milliseconds per phase, indexed by `Phase as usize`. The
    /// left-to-right sum is bit-equal to `total_ms`.
    pub phases_ms: [f64; 6],
    /// The recorded interruption duration in milliseconds — identical to
    /// the sample the fleet metrics layer records for this handover.
    pub total_ms: f64,
    /// Instant the interruption ended (worst-k tie-breaking).
    pub end: SimTime,
    pub rach_rounds: u8,
}

impl InterruptionBreakdown {
    /// Derive the phase decomposition and root cause from raw marks.
    ///
    /// Phase spans are computed with a clamped cursor walk in integer
    /// nanoseconds (each boundary clamped into `[cursor, done]`), so the
    /// integer spans always sum exactly to the recorded total even when
    /// a boundary is missing or out of order. The f64 conversion then
    /// pins one residual phase (the last structurally-nonzero one) so
    /// the left-to-right f64 sum reproduces the recorded `total_ms`
    /// bit for bit.
    pub fn from_marks(m: &InterruptionMarks) -> InterruptionBreakdown {
        let start = m.start.as_nanos();
        let done = m.done_at().as_nanos().max(start);
        let clamp = |cur: u64, b: u64| b.clamp(cur, done);

        let mut cur = start;
        let mut seg = [0u64; 6];
        let bounds = [
            m.trigger.as_nanos(),
            m.first_tx.map(SimTime::as_nanos).unwrap_or(cur),
            m.msg3.map(SimTime::as_nanos).unwrap_or(cur),
            m.msg3
                .map(|t| t.as_nanos().saturating_add(m.backhaul_ns))
                .unwrap_or(cur),
            m.connected.as_nanos(),
        ];
        for (i, &b) in bounds.iter().enumerate() {
            let nb = clamp(cur, b);
            seg[i] = nb - cur;
            cur = nb;
        }
        seg[Phase::Penalty as usize] = done - cur;
        debug_assert_eq!(seg.iter().sum::<u64>(), done - start);

        let total_ms = m.total().as_millis_f64();
        let mut phases_ms = [0.0f64; 6];
        for (p, &ns) in phases_ms.iter_mut().zip(&seg) {
            *p = SimDuration::from_nanos(ns).as_millis_f64();
        }
        // Pin the residual phase: the penalty slot when a penalty exists
        // (it ends the timeline), the Msg4 slot otherwise. Iterate the
        // correction until the left-to-right sum lands exactly on the
        // recorded total; each step moves the residual by the current
        // signed error, so the loop converges in one or two steps and
        // terminates unconditionally once the correction stops moving.
        let resid_idx = if seg[Phase::Penalty as usize] > 0 {
            Phase::Penalty as usize
        } else {
            Phase::Msg4 as usize
        };
        let sum_with = |phases: &[f64; 6], resid: f64| {
            let mut s = 0.0f64;
            for (i, &p) in phases.iter().enumerate() {
                s += if i == resid_idx { resid } else { p };
            }
            s
        };
        let mut resid = phases_ms[resid_idx];
        loop {
            let s = sum_with(&phases_ms, resid);
            if s.to_bits() == total_ms.to_bits() {
                break;
            }
            let adj = total_ms - s;
            if adj == 0.0 || resid + adj == resid {
                break;
            }
            resid += adj;
        }
        phases_ms[resid_idx] = resid;

        // Root cause, from integer-nano comparisons only.
        let cause = if m.reason_rlf {
            if m.dynamics {
                Cause::BlockageOnset
            } else {
                Cause::Fade
            }
        } else if m.rach_rounds > 1 {
            Cause::PreambleCollision
        } else {
            let radio_max = seg[Phase::Trigger as usize]
                .max(seg[Phase::Rach as usize])
                .max(seg[Phase::Msg4 as usize]);
            if seg[Phase::Backhaul as usize] > radio_max {
                Cause::BackhaulCongestion
            } else {
                Cause::TriggerMaturity
            }
        };

        InterruptionBreakdown {
            ue: m.ue,
            from_cell: m.from_cell,
            to_cell: m.to_cell,
            cause,
            phases_ms,
            total_ms,
            end: m.done_at(),
            rach_rounds: m.rach_rounds,
        }
    }

    /// Left-to-right sum of the phase spans — bit-equal to `total_ms`.
    pub fn phase_sum_ms(&self) -> f64 {
        let mut s = 0.0f64;
        for &p in &self.phases_ms {
            s += p;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn soft_marks() -> InterruptionMarks {
        InterruptionMarks {
            ue: 7,
            from_cell: 0,
            to_cell: 1,
            reason_rlf: false,
            dynamics: false,
            start: t(100),
            trigger: t(100),
            first_tx: Some(t(103)),
            msg3: Some(t(108)),
            backhaul_ns: 2_500_000,
            connected: t(114),
            penalty_ns: 0,
            rach_rounds: 1,
        }
    }

    #[test]
    fn phases_sum_bit_exactly_to_total() {
        // Sweep awkward nano offsets that do not divide 1e6 evenly, so
        // every phase value is a non-terminating binary fraction of ms.
        for off in [0u64, 1, 3, 7, 333, 999_999, 123_456_789] {
            let mut m = soft_marks();
            m.start = SimTime::from_nanos(m.start.as_nanos() + off);
            m.connected = SimTime::from_nanos(m.connected.as_nanos() + 3 * off + 11);
            m.backhaul_ns += off / 3;
            let b = InterruptionBreakdown::from_marks(&m);
            assert_eq!(
                b.phase_sum_ms().to_bits(),
                b.total_ms.to_bits(),
                "off={off}: {:?} != {}",
                b.phases_ms,
                b.total_ms
            );
            assert_eq!(b.total_ms, m.total().as_millis_f64());
        }
    }

    #[test]
    fn penalty_slot_takes_the_residual_when_present() {
        let mut m = soft_marks();
        m.penalty_ns = 50_000_001; // hard re-attach penalty
        m.reason_rlf = true;
        let b = InterruptionBreakdown::from_marks(&m);
        assert!(b.phases_ms[Phase::Penalty as usize] > 0.0);
        assert_eq!(b.phase_sum_ms().to_bits(), b.total_ms.to_bits());
    }

    #[test]
    fn missing_boundaries_clamp_to_zero_spans() {
        let mut m = soft_marks();
        m.first_tx = None;
        m.msg3 = None;
        m.backhaul_ns = 123;
        let b = InterruptionBreakdown::from_marks(&m);
        assert_eq!(b.phases_ms[Phase::Rach as usize], 0.0);
        assert_eq!(b.phases_ms[Phase::Backhaul as usize], 0.0);
        assert_eq!(b.phase_sum_ms().to_bits(), b.total_ms.to_bits());
    }

    #[test]
    fn cause_taxonomy_covers_the_ledger() {
        let m = soft_marks();
        assert_eq!(
            InterruptionBreakdown::from_marks(&m).cause,
            Cause::TriggerMaturity
        );

        let mut coll = m;
        coll.rach_rounds = 3;
        assert_eq!(
            InterruptionBreakdown::from_marks(&coll).cause,
            Cause::PreambleCollision
        );

        let mut bh = m;
        bh.backhaul_ns = 20_000_000; // dwarfs every radio phase
        assert_eq!(
            InterruptionBreakdown::from_marks(&bh).cause,
            Cause::BackhaulCongestion
        );

        let mut rlf = m;
        rlf.reason_rlf = true;
        assert_eq!(InterruptionBreakdown::from_marks(&rlf).cause, Cause::Fade);
        rlf.dynamics = true;
        assert_eq!(
            InterruptionBreakdown::from_marks(&rlf).cause,
            Cause::BlockageOnset
        );
    }

    #[test]
    fn marks_round_trip_through_wire() {
        let mut m = soft_marks();
        m.penalty_ns = 42;
        m.dynamics = true;
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut slice: &[u8] = &buf;
        let back = InterruptionMarks::decode(&mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(back, m);
    }

    /// Marks whose end overflows the clock used to decode and then
    /// panic the breakdown's add (or wrap it in release, to a 0.000084 ms
    /// interruption). They are corrupt; an end on the clock's last
    /// nanosecond still decodes and breaks down.
    #[test]
    fn marks_ending_past_the_clock_are_corrupt() {
        let encoded = |connected: u64, penalty_ns: u64| {
            let mut m = soft_marks();
            m.connected = SimTime::from_nanos(connected);
            m.penalty_ns = penalty_ns;
            let mut buf = Vec::new();
            m.encode(&mut buf);
            buf
        };
        let over = encoded(u64::MAX - 5, 100);
        assert_eq!(
            InterruptionMarks::decode(&mut &over[..]),
            Err(WireError::Corrupt("interruption end overflow"))
        );
        let edge = encoded(u64::MAX - 100, 100);
        let m = InterruptionMarks::decode(&mut &edge[..]).unwrap();
        assert_eq!(m.done_at(), SimTime::from_nanos(u64::MAX));
        let b = InterruptionBreakdown::from_marks(&m);
        assert_eq!(b.end, m.done_at());
        assert_eq!(b.phase_sum_ms().to_bits(), b.total_ms.to_bits());
    }

    #[test]
    fn breakdown_is_a_pure_function_of_marks() {
        let m = soft_marks();
        let a = InterruptionBreakdown::from_marks(&m);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let back = InterruptionMarks::decode(&mut &buf[..]).unwrap();
        let b = InterruptionBreakdown::from_marks(&back);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Cause::ALL {
            assert!(seen.insert(c.label()));
        }
        for p in Phase::ALL {
            assert!(seen.insert(p.label()));
        }
        assert_eq!(seen.len(), Cause::ALL.len() + Phase::ALL.len());
    }
}
