//! The protocol core as a pure, serializable event fold.
//!
//! Everything the Fig. 2b machine does is expressed here as
//!
//! ```text
//! step(ctx, state, event) -> (state', actions)
//! ```
//!
//! where [`ProtocolCtx`] is the immutable per-UE context (config, ids,
//! receive codebook), [`ProtocolState`] is a plain value holding *all*
//! mutable protocol state, [`ProtocolEvent`] is everything the radio can
//! tell the protocol, and [`Action`] is everything the protocol can tell
//! the radio. The fold is deterministic and total: same state and event
//! in, same state and actions out, no clocks, no I/O, no hidden
//! references. The legal state/edge arrows it may take are pinned by
//! [`crate::state::TRANSITION_TABLE`] and every transition is checked
//! against that table as it is logged.
//!
//! One property falls out of this shape and is load-bearing for the rest
//! of the workspace: **trace replay**. A recorded event stream refolded
//! through [`step_mut`] reproduces the live run's actions and final state
//! byte-for-byte, which is what lets `st_net::replay` re-evaluate
//! protocol configs at memory speed without re-running
//! `st_phy`/`st_des`. The final state is compared through its canonical
//! encoding ([`ProtocolState::encode`]); nothing decodes it.
//!
//! A protocol instance is exactly a `(ctx, state)` pair: the simulators,
//! trace replay and the examples all fold a [`ProtocolState`] (or one of
//! its arms, [`SilentState`] / [`ReactiveState`]) in place through
//! [`step_mut`]. After a handover the simulator builds a fresh initial
//! state on the new serving cell — every incarnation starts cold.
//!
//! # Timer compression
//!
//! A live driver feeds each periodic timer tick as a
//! [`ProtocolEvent::Tick`] on a fixed grid. A recorded trace stores none
//! of them: replay synthesises each stretch of grid ticks between two
//! recorded events as one [`ProtocolEvent::TickRun`], folded in O(1)
//! however long it is (`st_net::trace` says how the grid is recorded).
//! This is sound because ticks only ever arm one thing (the CABM
//! assistance deadline): the first tick strictly past the deadline fires
//! the fallback and every later tick in the run is a no-op, so the fold
//! can compute that first firing tick directly instead of iterating.

use std::sync::Arc;

use bytes::BufMut;
use st_des::{SimDuration, SimTime};
use st_mac::pdu::{CellId, Pdu, UeId};
use st_mac::timing::TxBeamIndex;
use st_phy::codebook::{BeamId, Codebook};
use st_phy::units::Dbm;

use crate::config::TrackerConfig;
use crate::measurement::{BeamTable, LinkMonitor};
use crate::search::{Discovery, SearchController, SearchStep};
use crate::state::{Edge, TrackerState, Transition, TransitionLog};
use crate::wire::{self, WireError};

/// Format version: the first byte of every encoded [`ProtocolState`].
const WIRE_VERSION: u8 = 1;

/// Staleness window for probe-table lookups when choosing an adjacent
/// beam: older measurements no longer reflect the channel under mobility.
const PROBE_STALENESS: SimDuration = SimDuration::from_millis(100);

// ---------------------------------------------------------------------------
// events
// ---------------------------------------------------------------------------

/// Everything the driver can feed into the protocol fold.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolEvent {
    /// RSS of the serving link on the current serving receive beam.
    ServingRss { at: SimTime, rss: Dbm },
    /// Probe measurement of another receive beam on the serving link
    /// (e.g. CSI-RS resources on adjacent beams).
    ServingProbe {
        at: SimTime,
        rx_beam: BeamId,
        rss: Dbm,
    },
    /// A neighbor-cell SSB detected during a measurement gap.
    NeighborSsb {
        at: SimTime,
        cell: CellId,
        tx_beam: TxBeamIndex,
        rx_beam: BeamId,
        rss: Dbm,
    },
    /// One gap dwell (one SSB burst period listening on the gap beam)
    /// finished.
    DwellComplete { at: SimTime },
    /// A PDU arrived from the serving cell.
    FromServing { at: SimTime, pdu: Pdu },
    /// The driver declared radio link failure on the serving link.
    ServingLinkLost { at: SimTime },
    /// Random access against the handover target failed permanently
    /// (preamble attempts exhausted). Make-before-break: the serving
    /// link is still alive, so the protocol drops the failed target
    /// beam, re-acquires, and may trigger again later.
    RachFailed { at: SimTime },
    /// Periodic timer tick for deadline checks.
    Tick { at: SimTime },
    /// `count` periodic ticks at `start`, `start + period`, …, folded in
    /// O(1). Live drivers emit [`ProtocolEvent::Tick`]; trace replay
    /// folds each stretch of them between two recorded events as one run.
    /// Folding a `TickRun` is exactly equivalent to folding its ticks one
    /// by one.
    TickRun {
        start: SimTime,
        period: SimDuration,
        count: u64,
    },
}

impl ProtocolEvent {
    /// Timestamp of the event (for a run, its first tick).
    pub fn at(&self) -> SimTime {
        match *self {
            ProtocolEvent::ServingRss { at, .. }
            | ProtocolEvent::ServingProbe { at, .. }
            | ProtocolEvent::NeighborSsb { at, .. }
            | ProtocolEvent::DwellComplete { at }
            | ProtocolEvent::FromServing { at, .. }
            | ProtocolEvent::ServingLinkLost { at }
            | ProtocolEvent::RachFailed { at }
            | ProtocolEvent::Tick { at } => at,
            ProtocolEvent::TickRun { start, .. } => start,
        }
    }

    /// Canonical binary encoding: a one-byte tag, then the payload, with
    /// the time field written as nanoseconds since `prev`. Event streams
    /// (traces) are monotone, so deltas are small — one to three varint
    /// bytes instead of the five an absolute mid-run timestamp costs —
    /// and decode touches proportionally fewer bytes. Returns the anchor
    /// to thread as `prev` into the next call; `prev == SimTime::ZERO`
    /// writes absolute times.
    pub fn encode_from<B: BufMut>(&self, prev: SimTime, buf: &mut B) -> SimTime {
        debug_assert!(self.at() >= prev, "delta-encoded streams are monotone");
        match self {
            ProtocolEvent::ServingRss { at, rss } => {
                buf.put_u8(0);
                wire::put_dur(buf, at.since(prev));
                wire::put_f64(buf, rss.0);
            }
            ProtocolEvent::ServingProbe { at, rx_beam, rss } => {
                buf.put_u8(1);
                wire::put_dur(buf, at.since(prev));
                buf.put_u16(rx_beam.0);
                wire::put_f64(buf, rss.0);
            }
            ProtocolEvent::NeighborSsb {
                at,
                cell,
                tx_beam,
                rx_beam,
                rss,
            } => {
                buf.put_u8(2);
                wire::put_dur(buf, at.since(prev));
                buf.put_u16(cell.0);
                buf.put_u16(*tx_beam);
                buf.put_u16(rx_beam.0);
                wire::put_f64(buf, rss.0);
            }
            ProtocolEvent::DwellComplete { at } => {
                buf.put_u8(3);
                wire::put_dur(buf, at.since(prev));
            }
            ProtocolEvent::FromServing { at, pdu } => {
                buf.put_u8(4);
                wire::put_dur(buf, at.since(prev));
                let frame = pdu.encode();
                wire::put_varu64(buf, frame.len() as u64);
                buf.put_slice(&frame);
            }
            ProtocolEvent::ServingLinkLost { at } => {
                buf.put_u8(5);
                wire::put_dur(buf, at.since(prev));
            }
            ProtocolEvent::RachFailed { at } => {
                buf.put_u8(6);
                wire::put_dur(buf, at.since(prev));
            }
            ProtocolEvent::Tick { at } => {
                buf.put_u8(7);
                wire::put_dur(buf, at.since(prev));
            }
            ProtocolEvent::TickRun {
                start,
                period,
                count,
            } => {
                buf.put_u8(8);
                wire::put_dur(buf, start.since(prev));
                wire::put_dur(buf, *period);
                wire::put_varu64(buf, *count);
            }
        }
        self.delta_anchor()
            .expect("an encoded event ends within the clock's range")
    }

    /// Inverse of [`ProtocolEvent::encode_from`]: decode one event whose
    /// time field is a delta from `prev`, returning the absolute event
    /// and the anchor for the next call. A delta or a tick run that
    /// overflows the clock is `Corrupt`, never a panic or a wrap.
    ///
    /// The record is read from one 32-byte window (see the [`wire`]
    /// module docs): fixed-layout fields by array index, and only an
    /// embedded PDU's body from `buf` itself. Each field's end is
    /// checked against the real length in field order, so a record is
    /// `Truncated` exactly where a byte-by-byte read would run out, and
    /// the delta's clock overflow is reported before its payload is
    /// checked. A NaN or infinite RSS is `Corrupt`. On `Err` the cursor
    /// is left where it was.
    pub fn decode_from(
        buf: &mut &[u8],
        prev: SimTime,
    ) -> Result<(ProtocolEvent, SimTime), WireError> {
        let mut padded = [0u8; wire::WINDOW];
        let w = match buf.first_chunk() {
            Some(w) => w,
            None => {
                padded[..buf.len()].copy_from_slice(buf);
                &padded
            }
        };
        let (ev, anchor, used) = Self::decode_window(w, buf, prev)?;
        *buf = &buf[used..];
        Ok((ev, anchor))
    }

    /// [`ProtocolEvent::decode_from`] on the window `w` of `input`,
    /// returning the bytes consumed too.
    #[inline(always)]
    fn decode_window(
        w: &wire::Window,
        input: &[u8],
        prev: SimTime,
    ) -> Result<(ProtocolEvent, SimTime, usize), WireError> {
        let fits = |end: usize| {
            if end <= input.len() {
                Ok(end)
            } else {
                Err(WireError::Truncated)
            }
        };
        fits(1)?;
        let tag = w[0];
        if tag > 8 {
            return Err(WireError::Corrupt("event tag"));
        }
        // Every event's first field is its time delta.
        let (delta, p) = wire::win_varu64(w, 1)?;
        let p = fits(p)?;
        let at = prev
            .checked_add(SimDuration::from_nanos(delta))
            .ok_or(WireError::Corrupt("event time overflow"))?;
        // An RSS record's end is checked before its level: a cut record's
        // zero-padded window can read as NaN, and it is `Truncated`.
        let (ev, end) = match tag {
            0 => {
                let end = fits(p + 8)?;
                let rss = win_rss(w, p)?;
                (ProtocolEvent::ServingRss { at, rss }, end)
            }
            1 => {
                let end = fits(p + 10)?;
                let rss = win_rss(w, p + 2)?;
                let rx_beam = BeamId(wire::win_u16(w, p));
                (ProtocolEvent::ServingProbe { at, rx_beam, rss }, end)
            }
            2 => {
                let end = fits(p + 14)?;
                let rss = win_rss(w, p + 6)?;
                let ev = ProtocolEvent::NeighborSsb {
                    at,
                    cell: CellId(wire::win_u16(w, p)),
                    tx_beam: wire::win_u16(w, p + 2),
                    rx_beam: BeamId(wire::win_u16(w, p + 4)),
                    rss,
                };
                (ev, end)
            }
            3 => (ProtocolEvent::DwellComplete { at }, p),
            4 => {
                let (n, body) = wire::win_varu64(w, p)?;
                let body = fits(body)?;
                let frame = usize::try_from(n)
                    .ok()
                    .and_then(|n| input.get(body..body.checked_add(n)?))
                    .ok_or(WireError::Truncated)?;
                let pdu = Pdu::decode(frame).map_err(|_| WireError::Corrupt("embedded pdu"))?;
                (ProtocolEvent::FromServing { at, pdu }, body + frame.len())
            }
            5 => (ProtocolEvent::ServingLinkLost { at }, p),
            6 => (ProtocolEvent::RachFailed { at }, p),
            7 => (ProtocolEvent::Tick { at }, p),
            _ => {
                let (period, p) = wire::win_varu64(w, p)?;
                let p = fits(p)?;
                let (count, p) = wire::win_varu64(w, p)?;
                let p = fits(p)?;
                let period = SimDuration::from_nanos(period);
                let end =
                    last_tick(at, period, count).ok_or(WireError::Corrupt("tick run overflow"))?;
                let run = ProtocolEvent::TickRun {
                    start: at,
                    period,
                    count,
                };
                return Ok((run, end, p));
            }
        };
        Ok((ev, at, end))
    }

    /// Where a delta-encoded stream's cursor lands after this event: the
    /// last covered instant (a run's final tick, otherwise `at`), or
    /// `None` when that instant is past the clock's range.
    fn delta_anchor(&self) -> Option<SimTime> {
        match *self {
            ProtocolEvent::TickRun {
                start,
                period,
                count,
            } => last_tick(start, period, count),
            _ => Some(self.at()),
        }
    }
}

/// The RSS field at `at` of a decoding window. A NaN or infinite level
/// is `Corrupt`: no receiver measures one, and the fold orders beams by
/// RSS.
#[inline(always)]
fn win_rss(w: &wire::Window, at: usize) -> Result<Dbm, WireError> {
    let rss = wire::win_f64(w, at);
    if rss.is_finite() {
        Ok(Dbm(rss))
    } else {
        Err(WireError::Corrupt("non-finite rss"))
    }
}

/// The instant of a tick run's last tick, or `None` past the clock's range.
fn last_tick(start: SimTime, period: SimDuration, count: u64) -> Option<SimTime> {
    let span = period.as_nanos().checked_mul(count.saturating_sub(1))?;
    start.checked_add(SimDuration::from_nanos(span))
}

// ---------------------------------------------------------------------------
// actions
// ---------------------------------------------------------------------------

/// Why a handover was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverReason {
    /// Edge E: RSS_N exceeded RSS_S + T while both links were measurable.
    NeighborStronger,
    /// The serving link died but a tracked neighbor beam was ready.
    ServingLost,
}

/// The handover order handed to the driver: which cell to access, on
/// which of its SSB beams, with which receive beam — everything RACH
/// needs, already aligned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoverDirective {
    pub target: CellId,
    pub ssb_beam: TxBeamIndex,
    pub rx_beam: BeamId,
    pub reason: HandoverReason,
    pub at: SimTime,
}

impl HandoverDirective {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        let Self {
            target,
            ssb_beam,
            rx_beam,
            reason,
            at,
        } = *self;
        buf.put_u16(target.0);
        buf.put_u16(ssb_beam);
        buf.put_u16(rx_beam.0);
        buf.put_u8(match reason {
            HandoverReason::NeighborStronger => 0,
            HandoverReason::ServingLost => 1,
        });
        wire::put_time(buf, at);
    }
}

/// Outputs of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Retune the serving-link receive beam (S-RBA).
    SetServingRxBeam(BeamId),
    /// Transmit a PDU to the serving cell (CABM request).
    SendToServing(Pdu),
    /// Use this receive beam during measurement gaps from now on.
    SetGapRxBeam(BeamId),
    /// Run random access against the tracked neighbor beam now.
    ExecuteHandover(HandoverDirective),
    /// A search pass exhausted its dwell budget (metrics hook).
    SearchFailed { dwells_used: usize },
    /// A neighbor beam was acquired (metrics hook).
    NeighborAcquired(Discovery),
}

impl Action {
    /// Canonical binary encoding — the bytes the record/replay action
    /// digest is computed over.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Action::SetServingRxBeam(b) => {
                buf.put_u8(0);
                buf.put_u16(b.0);
            }
            Action::SendToServing(pdu) => {
                buf.put_u8(1);
                let frame = pdu.encode();
                wire::put_varu64(buf, frame.len() as u64);
                buf.put_slice(&frame);
            }
            Action::SetGapRxBeam(b) => {
                buf.put_u8(2);
                buf.put_u16(b.0);
            }
            Action::ExecuteHandover(d) => {
                buf.put_u8(3);
                d.encode(buf);
            }
            Action::SearchFailed { dwells_used } => {
                buf.put_u8(4);
                wire::put_varu64(buf, *dwells_used as u64);
            }
            Action::NeighborAcquired(d) => {
                buf.put_u8(5);
                d.encode(buf);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// context
// ---------------------------------------------------------------------------

/// Immutable per-UE protocol context: everything `step` reads but never
/// writes. Folding the same events against the same context is fully
/// deterministic, so the context is what a trace header stores (as a
/// config + codebook class) and what replay reconstructs.
#[derive(Debug, Clone)]
pub struct ProtocolCtx {
    pub config: TrackerConfig,
    pub ue: UeId,
    pub serving_cell: CellId,
    /// Shared receive codebook — an `Arc` so a fleet's worth of protocol
    /// instances reference one codebook instead of cloning it per UE.
    pub codebook: Arc<Codebook>,
}

impl ProtocolCtx {
    pub fn new(
        config: TrackerConfig,
        ue: UeId,
        serving_cell: CellId,
        codebook: impl Into<Arc<Codebook>>,
    ) -> ProtocolCtx {
        config.validate().expect("invalid tracker config");
        ProtocolCtx {
            config,
            ue,
            serving_cell,
            codebook: codebook.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// protocol counters
// ---------------------------------------------------------------------------

/// Protocol counters (inputs to the figure-regeneration benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackerStats {
    /// Mobile-side serving receive-beam switches (S-RBA actions).
    pub srba_switches: u64,
    /// Transmit-beam switch requests sent to the serving cell (CABM).
    pub cabm_requests: u64,
    /// Times cell assistance timed out (edge G out of CABM).
    pub assist_lost: u64,
    /// Silent neighbor receive-beam switches (edge H).
    pub nrba_switches: u64,
    /// Neighbor-beam losses requiring re-acquisition (edge D).
    pub reacquisitions: u64,
    /// Total search dwells across all passes.
    pub search_dwells: u64,
    /// Search passes that failed (dwell budget exhausted).
    pub searches_failed: u64,
    /// Search passes that found a beam.
    pub searches_succeeded: u64,
}

impl TrackerStats {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        let Self {
            srba_switches,
            cabm_requests,
            assist_lost,
            nrba_switches,
            reacquisitions,
            search_dwells,
            searches_failed,
            searches_succeeded,
        } = *self;
        for v in [
            srba_switches,
            cabm_requests,
            assist_lost,
            nrba_switches,
            reacquisitions,
            search_dwells,
            searches_failed,
            searches_succeeded,
        ] {
            wire::put_varu64(buf, v);
        }
    }
}

// ---------------------------------------------------------------------------
// silent-tracker state
// ---------------------------------------------------------------------------

/// Serving-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ServingPhase {
    Stable,
    MobileAdapt { since: SimTime },
    CellAssist { deadline: SimTime },
}

impl ServingPhase {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            ServingPhase::Stable => buf.put_u8(0),
            ServingPhase::MobileAdapt { since } => {
                buf.put_u8(1);
                wire::put_time(buf, *since);
            }
            ServingPhase::CellAssist { deadline } => {
                buf.put_u8(2);
                wire::put_time(buf, *deadline);
            }
        }
    }
}

/// The silently tracked neighbor beam.
#[derive(Debug, Clone, PartialEq)]
struct TrackedNeighbor {
    cell: CellId,
    tx_beam: TxBeamIndex,
    rx_beam: BeamId,
    monitor: LinkMonitor,
    table: BeamTable,
    /// Position in the tracking dwell cycle (tracked beam interleaved
    /// with adjacent-beam probes).
    cycle: usize,
    /// SSB samples absorbed on this *track* (across silent beam
    /// switches) since acquisition — the trigger-maturity counter.
    /// Unlike `monitor.samples()` this survives rebases: switching the
    /// receive beam refines the same neighbor track, it does not start
    /// a new acquaintance with the cell.
    samples_since_acq: u32,
    /// Last receive-beam switch, for switch-rate damping: two physically
    /// adjacent beams have near-equal gain at the tile boundary, and
    /// per-SSB fading would otherwise ping-pong between them.
    last_switch: SimTime,
}

impl TrackedNeighbor {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        let Self {
            cell,
            tx_beam,
            rx_beam,
            monitor,
            table,
            cycle,
            samples_since_acq,
            last_switch,
        } = self;
        buf.put_u16(cell.0);
        buf.put_u16(*tx_beam);
        buf.put_u16(rx_beam.0);
        monitor.encode(buf);
        table.encode(buf);
        wire::put_varu64(buf, *cycle as u64);
        wire::put_varu64(buf, u64::from(*samples_since_acq));
        wire::put_time(buf, *last_switch);
    }
}

/// Neighbor-loop phase.
#[derive(Debug, Clone, PartialEq)]
enum NeighborPhase {
    Searching(SearchController),
    Tracking(TrackedNeighbor),
}

impl NeighborPhase {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            NeighborPhase::Searching(s) => {
                buf.put_u8(0);
                s.encode(buf);
            }
            NeighborPhase::Tracking(t) => {
                buf.put_u8(1);
                t.encode(buf);
            }
        }
    }
}

/// All mutable state of one Silent Tracker instance — a plain value.
#[derive(Debug, Clone, PartialEq)]
pub struct SilentState {
    serving_phase: ServingPhase,
    serving_rx_beam: BeamId,
    serving_monitor: LinkMonitor,
    serving_table: BeamTable,
    serving_last_switch: SimTime,

    neighbor: NeighborPhase,
    done: Option<HandoverDirective>,
    /// The driver declared the serving link dead. Once true, any
    /// (re-)acquired neighbor beam is handed over to immediately — there
    /// is no serving level left to compare against, and waiting for the
    /// edge-E hysteresis against a stale EWMA would strand the mobile.
    serving_lost: bool,

    stats: TrackerStats,
    serving_log: TransitionLog,
    neighbor_log: TransitionLog,
}

impl SilentState {
    /// The initial state: serving loop stable on `serving_rx_beam`, the
    /// neighbor loop entering N-A/R immediately (edge B) — the scenario
    /// premise is a mobile at cell edge.
    pub fn initial(ctx: &ProtocolCtx, serving_rx_beam: BeamId) -> SilentState {
        let search =
            SearchController::new(&ctx.codebook, serving_rx_beam, ctx.config.max_search_dwells);
        let mut neighbor_log = TransitionLog::default();
        neighbor_log.push(
            SimTime::ZERO,
            Transition {
                from: TrackerState::Eo,
                edge: Edge::B,
                to: TrackerState::NAr,
            },
        );
        SilentState {
            serving_phase: ServingPhase::Stable,
            serving_rx_beam,
            serving_monitor: LinkMonitor::with_reference_decay(
                ctx.config.ewma_alpha,
                ctx.config.loss_reference_decay.0,
            ),
            serving_table: BeamTable::new(ctx.config.ewma_alpha),
            serving_last_switch: SimTime::ZERO,
            neighbor: NeighborPhase::Searching(search),
            done: None,
            serving_lost: false,
            stats: TrackerStats::default(),
            serving_log: TransitionLog::default(),
            neighbor_log,
        }
    }

    /// The Fig. 2b state the protocol is currently in. Serving-side
    /// disturbances take display precedence (they are what the mobile is
    /// actively doing); otherwise the neighbor loop determines the state.
    pub fn fig2b_state(&self) -> TrackerState {
        match self.serving_phase {
            ServingPhase::MobileAdapt { .. } => TrackerState::SRba,
            ServingPhase::CellAssist { .. } => TrackerState::Cabm,
            ServingPhase::Stable => match &self.neighbor {
                NeighborPhase::Searching(_) if self.done.is_none() => TrackerState::NAr,
                NeighborPhase::Tracking(_) if self.done.is_none() => TrackerState::NRba,
                _ => TrackerState::Eo,
            },
        }
    }

    pub fn stats(&self) -> TrackerStats {
        self.stats
    }

    pub fn serving_rx_beam(&self) -> BeamId {
        self.serving_rx_beam
    }

    /// The receive beam the mobile should use during measurement gaps.
    pub fn gap_rx_beam(&self, codebook: &Codebook) -> BeamId {
        match &self.neighbor {
            NeighborPhase::Searching(s) => s.current_beam(),
            NeighborPhase::Tracking(t) => Self::tracking_dwell_beam(codebook, t),
        }
    }

    /// The tracked neighbor beam, if any: (cell, tx beam, rx beam).
    pub fn tracked(&self) -> Option<(CellId, TxBeamIndex, BeamId)> {
        match &self.neighbor {
            NeighborPhase::Tracking(t) => Some((t.cell, t.tx_beam, t.rx_beam)),
            _ => None,
        }
    }

    /// Smoothed RSS of the tracked neighbor beam.
    pub fn neighbor_level(&self) -> Option<Dbm> {
        match &self.neighbor {
            NeighborPhase::Tracking(t) => t.monitor.level(),
            _ => None,
        }
    }

    /// The handover directive once issued (terminal).
    pub fn handover(&self) -> Option<HandoverDirective> {
        self.done
    }

    /// Transition history of the serving loop (EO / S-RBA / CABM).
    pub fn serving_log(&self) -> &TransitionLog {
        &self.serving_log
    }

    /// Transition history of the neighbor loop (EO / N-A/R / N-RBA).
    pub fn neighbor_log(&self) -> &TransitionLog {
        &self.neighbor_log
    }

    /// Fold one event.
    ///
    /// After a handover directive has been issued the serving loop stops
    /// (the serving link is being abandoned) but the *neighbor* loop keeps
    /// maintaining the target beam — random access is still in flight and
    /// the device may still be moving.
    #[inline(always)]
    pub fn handle(&mut self, ctx: &ProtocolCtx, event: &ProtocolEvent, out: &mut Vec<Action>) {
        if self.done.is_some() {
            match *event {
                ProtocolEvent::NeighborSsb {
                    at,
                    cell,
                    tx_beam,
                    rx_beam,
                    rss,
                } => self.on_neighbor_ssb(ctx, at, cell, tx_beam, rx_beam, rss, out),
                ProtocolEvent::DwellComplete { at } => self.on_dwell_complete(ctx, at, out),
                ProtocolEvent::RachFailed { at } => self.on_rach_failed(ctx, at, out),
                _ => {}
            }
            return;
        }
        match event {
            ProtocolEvent::ServingRss { at, rss } => self.on_serving_rss(ctx, *at, *rss, out),
            ProtocolEvent::ServingProbe { at, rx_beam, rss } => {
                self.on_serving_probe(ctx, *at, *rx_beam, *rss, out)
            }
            ProtocolEvent::NeighborSsb {
                at,
                cell,
                tx_beam,
                rx_beam,
                rss,
            } => self.on_neighbor_ssb(ctx, *at, *cell, *tx_beam, *rx_beam, *rss, out),
            ProtocolEvent::DwellComplete { at } => self.on_dwell_complete(ctx, *at, out),
            ProtocolEvent::FromServing { at, pdu } => self.on_pdu(ctx, *at, pdu, out),
            ProtocolEvent::ServingLinkLost { at } => self.on_serving_lost(*at, out),
            ProtocolEvent::RachFailed { .. } => {} // no access in flight
            ProtocolEvent::Tick { at } => self.check_deadlines(*at, out),
            ProtocolEvent::TickRun {
                start,
                period,
                count,
            } => self.fold_tick_run(*start, *period, *count, out),
        }
    }

    /// Fold a compressed run of ticks in O(1). Ticks only ever fire the
    /// CABM assistance deadline, and only the *first* tick strictly past
    /// the deadline acts (it leaves `CellAssist`, so every later tick in
    /// the run is a no-op). Compute that tick directly.
    #[inline(always)]
    fn fold_tick_run(
        &mut self,
        start: SimTime,
        period: SimDuration,
        count: u64,
        out: &mut Vec<Action>,
    ) {
        if count == 0 {
            return;
        }
        let ServingPhase::CellAssist { deadline } = self.serving_phase else {
            return;
        };
        let first = if start > deadline {
            0
        } else if period.as_nanos() == 0 {
            return; // every tick sits at `start`, none strictly past
        } else {
            deadline.since(start).as_nanos() / period.as_nanos() + 1
        };
        if first < count {
            self.check_deadlines(start + period * first, out);
        }
    }

    /// Random access against the issued handover target failed. The
    /// serving link is still being maintained (make-before-break), so
    /// revoke the directive, drop the target beam that failed to admit
    /// us, and re-acquire — hinted at the old beam, so the pass is short.
    /// Maturity gating then has to be re-earned before the next trigger,
    /// which spaces retries instead of hammering the same beam.
    #[inline(never)]
    fn on_rach_failed(&mut self, ctx: &ProtocolCtx, at: SimTime, out: &mut Vec<Action>) {
        self.done = None;
        if let NeighborPhase::Tracking(t) = &self.neighbor {
            let hint = t.rx_beam;
            self.neighbor_transition(at, TrackerState::Eo, Edge::B, TrackerState::NAr);
            self.stats.reacquisitions += 1;
            self.restart_search(ctx, hint, out);
        } else {
            out.push(Action::SetGapRxBeam(self.gap_rx_beam(&ctx.codebook)));
        }
    }

    /// Drop into a fresh search pass hinted at `hint` and point the gap
    /// receive beam at its first dwell. Callers log the state transition
    /// and bump whichever counter their edge warrants.
    fn restart_search(&mut self, ctx: &ProtocolCtx, hint: BeamId, out: &mut Vec<Action>) {
        self.neighbor = NeighborPhase::Searching(SearchController::new(
            &ctx.codebook,
            hint,
            ctx.config.max_search_dwells,
        ));
        out.push(Action::SetGapRxBeam(self.gap_rx_beam(&ctx.codebook)));
    }

    /// A probe of a non-serving receive beam on the serving link. Beyond
    /// bookkeeping, a probe that clearly beats the current beam triggers
    /// a proactive S-RBA switch — under rotation the current beam's RSS
    /// decays smoothly while an adjacent beam is already better, and
    /// waiting for the full 3 dB drop loses alignment margin.
    #[inline(always)]
    fn on_serving_probe(
        &mut self,
        ctx: &ProtocolCtx,
        at: SimTime,
        rx_beam: BeamId,
        rss: Dbm,
        out: &mut Vec<Action>,
    ) {
        self.serving_table.observe(at, rx_beam, rss);
        if at.since(self.serving_last_switch) < ctx.config.settle_time {
            return; // damp boundary ping-pong
        }
        let Some(level) = self.serving_monitor.level() else {
            return;
        };
        let adjacent = ctx.codebook.adjacent(self.serving_rx_beam);
        let smoothed = self.serving_table.get(rx_beam).unwrap_or(rss);
        if !adjacent.contains(&rx_beam) || smoothed.0 <= level.0 + ctx.config.switch_threshold.0 {
            return;
        }
        match self.serving_phase {
            ServingPhase::Stable => {
                self.serving_transition(at, TrackerState::Eo, Edge::G, TrackerState::SRba);
                self.serving_phase = ServingPhase::MobileAdapt { since: at };
            }
            ServingPhase::MobileAdapt { .. } => {}
            // While waiting for the BS to move its transmit beam the
            // receive side holds still — a moving baseline would make the
            // assistance unjudgeable.
            ServingPhase::CellAssist { .. } => return,
        }
        self.serving_rx_beam = rx_beam;
        self.serving_last_switch = at;
        self.stats.srba_switches += 1;
        out.push(Action::SetServingRxBeam(rx_beam));
    }

    // ----- serving loop (BeamSurfer) -------------------------------------

    #[inline(always)]
    fn on_serving_rss(&mut self, ctx: &ProtocolCtx, at: SimTime, rss: Dbm, out: &mut Vec<Action>) {
        // A measurable serving sample means the link is back (or never
        // really died): clear the RLF latch so acquisitions go through
        // the normal edge-E comparison again.
        self.serving_lost = false;
        let drop = self.serving_monitor.on_sample(at, rss);
        match self.serving_phase {
            ServingPhase::Stable => {
                if drop.0 >= ctx.config.switch_threshold.0 {
                    self.serving_transition(at, TrackerState::Eo, Edge::G, TrackerState::SRba);
                    self.mobile_side_switch(ctx, at, out);
                    self.serving_phase = ServingPhase::MobileAdapt { since: at };
                }
            }
            ServingPhase::MobileAdapt { since } => {
                if drop.0 < ctx.config.switch_threshold.0 {
                    // Recovered: ΔRSS < 3 dB (edge A).
                    self.serving_transition(at, TrackerState::SRba, Edge::A, TrackerState::Eo);
                    self.serving_phase = ServingPhase::Stable;
                } else if at.since(since) >= ctx.config.settle_time {
                    // Mobile-side adjustment no longer suffices: ask the
                    // cell to move its transmit beam (escalation to CABM).
                    self.serving_transition(at, TrackerState::SRba, Edge::G, TrackerState::Cabm);
                    out.push(Action::SendToServing(Pdu::BeamSwitchRequest {
                        cell: ctx.serving_cell,
                        ue: ctx.ue,
                        suggested_tx_beam: u16::MAX, // "try adjacent", mobile cannot know BS beams
                    }));
                    self.stats.cabm_requests += 1;
                    self.serving_phase = ServingPhase::CellAssist {
                        deadline: at + ctx.config.assist_timeout,
                    };
                }
            }
            ServingPhase::CellAssist { .. } => {
                self.check_deadlines(at, out);
            }
        }
        self.maybe_trigger_handover(ctx, at, out);
    }

    /// Switch the serving receive beam to the most promising adjacent one.
    fn mobile_side_switch(&mut self, ctx: &ProtocolCtx, at: SimTime, out: &mut Vec<Action>) {
        let adjacent = ctx.codebook.adjacent(self.serving_rx_beam);
        if adjacent.is_empty() {
            return; // omni codebook: nothing to switch to
        }
        // Evidence-based switch: only move to an adjacent beam the probe
        // table says is at least as good as the current level. A 3 dB
        // drop with no better neighbor measured is fading or blockage —
        // switching blindly would *add* misalignment loss on top.
        let level = self.serving_monitor.level();
        let Some((next, cand)) = self
            .serving_table
            .best_among(at, PROBE_STALENESS, &adjacent)
        else {
            return;
        };
        if level.is_some_and(|l| cand.0 < l.0) {
            return;
        }
        self.serving_rx_beam = next;
        self.serving_last_switch = at;
        self.stats.srba_switches += 1;
        out.push(Action::SetServingRxBeam(next));
    }

    #[inline(never)]
    fn on_pdu(&mut self, ctx: &ProtocolCtx, at: SimTime, pdu: &Pdu, _out: &mut Vec<Action>) {
        if let (ServingPhase::CellAssist { .. }, Pdu::BeamSwitchCommand { cell, .. }) =
            (self.serving_phase, pdu)
        {
            if *cell == ctx.serving_cell {
                // Assistance arrived (edge F): the BS moved its beam; the
                // link baseline starts over.
                self.serving_transition(at, TrackerState::Cabm, Edge::F, TrackerState::Eo);
                self.serving_monitor.rebase();
                self.serving_phase = ServingPhase::Stable;
            }
        }
    }

    #[inline(always)]
    fn check_deadlines(&mut self, at: SimTime, _out: &mut Vec<Action>) {
        if let ServingPhase::CellAssist { deadline } = self.serving_phase {
            if at > deadline {
                // Cell assistance delayed or lost (edge G): fall back to
                // mobile-side adaptation and keep the link alive alone.
                self.serving_transition(at, TrackerState::Cabm, Edge::G, TrackerState::SRba);
                self.stats.assist_lost += 1;
                self.serving_phase = ServingPhase::MobileAdapt { since: at };
            }
        }
    }

    #[inline(never)]
    fn on_serving_lost(&mut self, at: SimTime, out: &mut Vec<Action>) {
        self.serving_lost = true;
        if let NeighborPhase::Tracking(t) = &self.neighbor {
            let directive = HandoverDirective {
                target: t.cell,
                ssb_beam: t.tx_beam,
                rx_beam: t.rx_beam,
                reason: HandoverReason::ServingLost,
                at,
            };
            self.issue_handover(at, directive, out);
        }
        // With nothing tracked the driver must fall back to a hard
        // handover (initial access from scratch) — the failure mode the
        // protocol exists to avoid; nothing to emit here. (The flag is
        // remembered: the next acquisition hands over immediately.)
    }

    // ----- neighbor loop (silent tracking) -------------------------------

    #[allow(clippy::too_many_arguments)]
    fn on_neighbor_ssb(
        &mut self,
        ctx: &ProtocolCtx,
        at: SimTime,
        cell: CellId,
        tx_beam: TxBeamIndex,
        rx_beam: BeamId,
        rss: Dbm,
        out: &mut Vec<Action>,
    ) {
        if cell == ctx.serving_cell {
            return; // not a neighbor
        }
        match &mut self.neighbor {
            NeighborPhase::Searching(search) => {
                if rx_beam == search.current_beam() {
                    search.on_detection(Discovery {
                        cell,
                        tx_beam,
                        rx_beam,
                        rss,
                        at,
                    });
                }
            }
            NeighborPhase::Tracking(t) => {
                if cell != t.cell {
                    return; // a third cell; Silent Tracker tracks one target
                }
                t.table.observe(at, rx_beam, rss);
                if rx_beam != t.rx_beam {
                    // A probe dwell: if an adjacent beam now clearly beats
                    // the tracked one (or the tracked one has gone silent),
                    // move to it — this is what keeps the track alive under
                    // rotation, where the old beam stops producing samples
                    // instead of reporting a drop. Smoothed values and a
                    // switch cooldown damp boundary ping-pong.
                    let adjacent = ctx.codebook.adjacent(t.rx_beam);
                    // Compare the *raw* probe sample: under rotation the
                    // table's EWMA lags the sweep by several dwells and
                    // would veto every switch (the cooldown already damps
                    // fading-driven ping-pong).
                    let beats = match t.monitor.level() {
                        Some(level) => rss.0 > level.0 + ctx.config.switch_threshold.0,
                        None => true,
                    };
                    let stale = t
                        .monitor
                        .last_update()
                        .is_none_or(|u| at.since(u) > ctx.config.track_staleness);
                    let cooled = at.since(t.last_switch) >= ctx.config.settle_time;
                    if adjacent.contains(&rx_beam) && (stale || (beats && cooled)) {
                        t.rx_beam = rx_beam;
                        t.tx_beam = tx_beam;
                        t.monitor.rebase();
                        t.monitor.on_sample(at, rss);
                        t.samples_since_acq += 1;
                        t.last_switch = at;
                        self.stats.nrba_switches += 1;
                        self.neighbor_transition(
                            at,
                            TrackerState::NRba,
                            Edge::H,
                            TrackerState::NRba,
                        );
                        out.push(Action::SetGapRxBeam(rx_beam));
                    }
                } else {
                    // The BS sweeps all its transmit beams every burst, so
                    // follow its strongest one as the user moves — still
                    // receive-side-only information.
                    if tx_beam != t.tx_beam {
                        if let Some(level) = t.monitor.level() {
                            if rss.0 > level.0 {
                                t.tx_beam = tx_beam;
                            }
                        } else {
                            t.tx_beam = tx_beam;
                        }
                    }
                    let drop = t.monitor.on_sample(at, rss);
                    t.samples_since_acq += 1;
                    if drop.0 > ctx.config.loss_threshold.0 {
                        // Edge D: beam lost — re-acquire, hinted at the
                        // last good receive beam.
                        let hint = t.rx_beam;
                        self.neighbor_transition(
                            at,
                            TrackerState::NRba,
                            Edge::D,
                            TrackerState::NAr,
                        );
                        self.stats.reacquisitions += 1;
                        self.restart_search(ctx, hint, out);
                    } else if drop.0 >= ctx.config.switch_threshold.0 {
                        // Edge H: silent receive-beam adaptation.
                        self.neighbor_switch_rx(ctx, at, out);
                    }
                }
            }
        }
        self.maybe_trigger_handover(ctx, at, out);
    }

    fn neighbor_switch_rx(&mut self, ctx: &ProtocolCtx, at: SimTime, out: &mut Vec<Action>) {
        let NeighborPhase::Tracking(t) = &mut self.neighbor else {
            return;
        };
        let adjacent = ctx.codebook.adjacent(t.rx_beam);
        if adjacent.is_empty() {
            return;
        }
        // Same evidence rule as the serving side: hold the beam unless a
        // probed adjacent is actually measured at or above this level.
        let level = t.monitor.level();
        let Some((next, cand)) = t.table.best_among(at, PROBE_STALENESS, &adjacent) else {
            return;
        };
        if level.is_some_and(|l| cand.0 < l.0) {
            return;
        }
        t.rx_beam = next;
        t.monitor.rebase();
        t.last_switch = at;
        self.stats.nrba_switches += 1;
        self.neighbor_transition(at, TrackerState::NRba, Edge::H, TrackerState::NRba);
        out.push(Action::SetGapRxBeam(next));
    }

    fn on_dwell_complete(&mut self, ctx: &ProtocolCtx, at: SimTime, out: &mut Vec<Action>) {
        match &mut self.neighbor {
            NeighborPhase::Searching(search) => {
                self.stats.search_dwells += 1;
                match search.on_dwell_complete(&ctx.codebook) {
                    SearchStep::Continue(beam) => {
                        out.push(Action::SetGapRxBeam(beam));
                    }
                    SearchStep::Found(d) => {
                        self.stats.searches_succeeded += 1;
                        self.neighbor_transition(
                            at,
                            TrackerState::NAr,
                            Edge::C,
                            TrackerState::NRba,
                        );
                        let mut monitor = LinkMonitor::with_reference_decay(
                            ctx.config.ewma_alpha,
                            ctx.config.loss_reference_decay.0,
                        );
                        monitor.on_sample(d.at, d.rss);
                        let mut table = BeamTable::new(ctx.config.ewma_alpha);
                        table.observe(d.at, d.rx_beam, d.rss);
                        self.neighbor = NeighborPhase::Tracking(TrackedNeighbor {
                            cell: d.cell,
                            tx_beam: d.tx_beam,
                            rx_beam: d.rx_beam,
                            monitor,
                            table,
                            cycle: 0,
                            samples_since_acq: 1,
                            last_switch: at,
                        });
                        out.push(Action::NeighborAcquired(d));
                        out.push(Action::SetGapRxBeam(d.rx_beam));
                        // No serving link left to compare against: hand
                        // over to the (re-)acquired beam immediately —
                        // this is the post-RLF recovery path after a
                        // failed random access.
                        if self.serving_lost && self.done.is_none() {
                            let directive = HandoverDirective {
                                target: d.cell,
                                ssb_beam: d.tx_beam,
                                rx_beam: d.rx_beam,
                                reason: HandoverReason::ServingLost,
                                at,
                            };
                            self.issue_handover(at, directive, out);
                        }
                    }
                    SearchStep::Failed { dwells_used } => {
                        self.stats.searches_failed += 1;
                        out.push(Action::SearchFailed { dwells_used });
                        // Back to EO (edge A) and immediately retry (B):
                        // the mobile is still at cell edge.
                        self.neighbor_transition(at, TrackerState::NAr, Edge::A, TrackerState::Eo);
                        self.neighbor_transition(at, TrackerState::Eo, Edge::B, TrackerState::NAr);
                        let hint = self.serving_rx_beam;
                        self.restart_search(ctx, hint, out);
                    }
                }
            }
            NeighborPhase::Tracking(t) => {
                // A tracked beam that produces no detectable SSB for
                // `track_staleness` has silently rotated/faded away:
                // declare it lost (edge D) and re-acquire. Only applies
                // pre-handover — during RACH the driver owns recovery.
                let stale = t
                    .monitor
                    .last_update()
                    .is_none_or(|u| at.since(u) > ctx.config.track_staleness);
                let probes_fresh = ctx.codebook.adjacent(t.rx_beam).iter().any(|&b| {
                    t.table
                        .last_seen(b)
                        .is_some_and(|u| at.since(u) <= ctx.config.track_staleness)
                });
                if stale && !probes_fresh && self.done.is_none() {
                    let hint = t.rx_beam;
                    self.neighbor_transition(at, TrackerState::NRba, Edge::D, TrackerState::NAr);
                    self.stats.reacquisitions += 1;
                    self.restart_search(ctx, hint, out);
                    return;
                }
                // Advance the tracking dwell cycle: tracked beam
                // interleaved with adjacent probes so the switch decision
                // always has fresh candidates.
                t.cycle = t.cycle.wrapping_add(1);
                out.push(Action::SetGapRxBeam(Self::tracking_dwell_beam(
                    &ctx.codebook,
                    t,
                )));
            }
        }
    }

    /// Tracking dwell pattern: even cycles on the tracked beam, odd cycles
    /// alternating over its adjacent beams.
    fn tracking_dwell_beam(codebook: &Codebook, t: &TrackedNeighbor) -> BeamId {
        if t.cycle % 2 == 0 {
            return t.rx_beam;
        }
        let adjacent = codebook.adjacent(t.rx_beam);
        if adjacent.is_empty() {
            return t.rx_beam;
        }
        adjacent[(t.cycle / 2) % adjacent.len()]
    }

    // ----- handover -------------------------------------------------------

    fn maybe_trigger_handover(&mut self, ctx: &ProtocolCtx, at: SimTime, out: &mut Vec<Action>) {
        if self.done.is_some() {
            return;
        }
        let NeighborPhase::Tracking(t) = &self.neighbor else {
            return;
        };
        if t.samples_since_acq < ctx.config.min_track_samples {
            return; // estimate too immature to compare against serving
        }
        // A silent beam switch rebases the monitor, so right after one the
        // EWMA is a single raw sample — often the very fading spike that
        // motivated the switch. Require the *current* beam's estimate to
        // have absorbed a confirmation sample too (capped by the
        // configured gate so min_track_samples = 0 still disables all
        // maturity checks).
        if t.monitor.samples() < ctx.config.min_track_samples.min(2) {
            return;
        }
        let (Some(n), Some(s)) = (t.monitor.level(), self.serving_monitor.level()) else {
            return;
        };
        if n.0 > s.0 + ctx.config.handover_hysteresis.0 {
            let directive = HandoverDirective {
                target: t.cell,
                ssb_beam: t.tx_beam,
                rx_beam: t.rx_beam,
                reason: HandoverReason::NeighborStronger,
                at,
            };
            self.issue_handover(at, directive, out);
        }
    }

    #[inline(never)]
    fn issue_handover(&mut self, at: SimTime, d: HandoverDirective, out: &mut Vec<Action>) {
        self.neighbor_transition(at, TrackerState::NRba, Edge::E, TrackerState::Eo);
        self.done = Some(d);
        out.push(Action::ExecuteHandover(d));
    }

    // ----- bookkeeping ----------------------------------------------------

    fn serving_transition(
        &mut self,
        at: SimTime,
        from: TrackerState,
        edge: Edge,
        to: TrackerState,
    ) {
        self.serving_log.push(at, Transition { from, edge, to });
    }

    fn neighbor_transition(
        &mut self,
        at: SimTime,
        from: TrackerState,
        edge: Edge,
        to: TrackerState,
    ) {
        self.neighbor_log.push(at, Transition { from, edge, to });
    }

    // ----- serialization --------------------------------------------------

    fn encode<B: BufMut>(&self, buf: &mut B) {
        let Self {
            serving_phase,
            serving_rx_beam,
            serving_monitor,
            serving_table,
            serving_last_switch,
            neighbor,
            done,
            serving_lost,
            stats,
            serving_log,
            neighbor_log,
        } = self;
        serving_phase.encode(buf);
        buf.put_u16(serving_rx_beam.0);
        serving_monitor.encode(buf);
        serving_table.encode(buf);
        wire::put_time(buf, *serving_last_switch);
        neighbor.encode(buf);
        match done {
            None => buf.put_u8(0),
            Some(d) => {
                buf.put_u8(1);
                d.encode(buf);
            }
        }
        wire::put_bool(buf, *serving_lost);
        stats.encode(buf);
        serving_log.encode(buf);
        neighbor_log.encode(buf);
    }
}

// ---------------------------------------------------------------------------
// reactive-baseline state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum ReactivePhase {
    /// Serving link alive; no neighbor activity at all.
    Connected,
    /// Serving link failed; sweeping for any cell.
    Searching(SearchController),
    /// Target found; handover directive issued.
    Done,
}

impl ReactivePhase {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            ReactivePhase::Connected => buf.put_u8(0),
            ReactivePhase::Searching(s) => {
                buf.put_u8(1);
                s.encode(buf);
            }
            ReactivePhase::Done => buf.put_u8(2),
        }
    }
}

/// All mutable state of one reactive-baseline instance — a plain value.
///
/// The reactive arm is what omnidirectional cellular does, transplanted
/// to mm-wave, and the paper's motivating strawman (§2: "Reactive
/// handover mechanisms employed in omnidirectional cellular technologies
/// are not viable in the mm-wave band"). The mobile runs serving-link
/// beam management only; no neighbor search happens until the serving
/// link *fails*. Then it performs the full directional search with no
/// hint and random access with **no context** — a hard handover paying
/// the search plus connection re-establishment. It consumes the same
/// [`ProtocolEvent`]s and emits the same [`Action`]s as
/// [`SilentState`], so the simulators swap arms by [`ProtocolState`]
/// variant.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactiveState {
    serving_rx_beam: BeamId,
    monitor: LinkMonitor,
    table: BeamTable,
    phase: ReactivePhase,
    directive: Option<HandoverDirective>,
    /// Time the serving link failed (start of the outage).
    failed_at: Option<SimTime>,
    srba_switches: u64,
    search_dwells: u64,
}

impl ReactiveState {
    pub fn initial(ctx: &ProtocolCtx, serving_rx_beam: BeamId) -> ReactiveState {
        ReactiveState {
            serving_rx_beam,
            monitor: LinkMonitor::with_reference_decay(
                ctx.config.ewma_alpha,
                ctx.config.loss_reference_decay.0,
            ),
            table: BeamTable::new(ctx.config.ewma_alpha),
            phase: ReactivePhase::Connected,
            directive: None,
            failed_at: None,
            srba_switches: 0,
            search_dwells: 0,
        }
    }

    pub fn serving_rx_beam(&self) -> BeamId {
        self.serving_rx_beam
    }

    pub fn handover(&self) -> Option<HandoverDirective> {
        self.directive
    }

    /// When the outage began (serving link lost), if it has.
    pub fn failed_at(&self) -> Option<SimTime> {
        self.failed_at
    }

    pub fn search_dwells(&self) -> u64 {
        self.search_dwells
    }

    pub fn srba_switches(&self) -> u64 {
        self.srba_switches
    }

    /// Is the mobile currently cut off (post-failure, pre-handover)?
    pub fn in_outage(&self) -> bool {
        matches!(self.phase, ReactivePhase::Searching(_))
    }

    /// The receive beam to use during gaps / search dwells.
    pub fn gap_rx_beam(&self) -> BeamId {
        match &self.phase {
            ReactivePhase::Searching(s) => s.current_beam(),
            _ => self.serving_rx_beam,
        }
    }

    #[inline(always)]
    pub fn handle(&mut self, ctx: &ProtocolCtx, event: &ProtocolEvent, out: &mut Vec<Action>) {
        match *event {
            ProtocolEvent::ServingRss { at, rss } => {
                if matches!(self.phase, ReactivePhase::Connected) {
                    let drop = self.monitor.on_sample(at, rss);
                    if drop.0 >= ctx.config.switch_threshold.0 {
                        // Same mobile-side serving adaptation as Silent
                        // Tracker, for a fair comparison.
                        let adjacent = ctx.codebook.adjacent(self.serving_rx_beam);
                        if let Some(&next) = adjacent.first() {
                            let best = self
                                .table
                                .best_among(at, PROBE_STALENESS, &adjacent)
                                .map(|(b, _)| b)
                                .unwrap_or(next);
                            self.serving_rx_beam = best;
                            self.srba_switches += 1;
                            out.push(Action::SetServingRxBeam(best));
                        }
                    }
                }
            }
            ProtocolEvent::ServingProbe { at, rx_beam, rss } => {
                self.table.observe(at, rx_beam, rss);
            }
            ProtocolEvent::ServingLinkLost { at } => {
                if matches!(self.phase, ReactivePhase::Connected) {
                    self.failed_at = Some(at);
                    // Cold full sweep — reactive search has no tracked
                    // hint; it starts from the (stale) serving beam.
                    self.cold_sweep(ctx, out);
                }
            }
            ProtocolEvent::NeighborSsb {
                at,
                cell,
                tx_beam,
                rx_beam,
                rss,
            } => {
                if let ReactivePhase::Searching(search) = &mut self.phase {
                    // Post-failure, *any* cell is a valid target —
                    // including the old serving cell if it reappears.
                    if rx_beam == search.current_beam() {
                        search.on_detection(Discovery {
                            cell,
                            tx_beam,
                            rx_beam,
                            rss,
                            at,
                        });
                    }
                }
            }
            ProtocolEvent::DwellComplete { at } => {
                if let ReactivePhase::Searching(search) = &mut self.phase {
                    self.search_dwells += 1;
                    match search.on_dwell_complete(&ctx.codebook) {
                        SearchStep::Continue(beam) => out.push(Action::SetGapRxBeam(beam)),
                        SearchStep::Found(d) => {
                            let directive = HandoverDirective {
                                target: d.cell,
                                ssb_beam: d.tx_beam,
                                rx_beam: d.rx_beam,
                                reason: HandoverReason::ServingLost,
                                at,
                            };
                            self.directive = Some(directive);
                            self.phase = ReactivePhase::Done;
                            out.push(Action::ExecuteHandover(directive));
                        }
                        SearchStep::Failed { dwells_used } => {
                            out.push(Action::SearchFailed { dwells_used });
                            // Keep sweeping — there is nothing else a
                            // disconnected mobile can do.
                            self.cold_sweep(ctx, out);
                        }
                    }
                }
            }
            ProtocolEvent::RachFailed { .. } => {
                // Still disconnected: the only move is another cold sweep.
                if matches!(self.phase, ReactivePhase::Done) {
                    self.directive = None;
                    self.cold_sweep(ctx, out);
                }
            }
            ProtocolEvent::FromServing { .. }
            | ProtocolEvent::Tick { .. }
            | ProtocolEvent::TickRun { .. } => {}
        }
    }

    fn cold_sweep(&mut self, ctx: &ProtocolCtx, out: &mut Vec<Action>) {
        let search = SearchController::new(
            &ctx.codebook,
            self.serving_rx_beam,
            ctx.config.max_search_dwells,
        );
        out.push(Action::SetGapRxBeam(search.current_beam()));
        self.phase = ReactivePhase::Searching(search);
    }

    fn encode<B: BufMut>(&self, buf: &mut B) {
        let Self {
            serving_rx_beam,
            monitor,
            table,
            phase,
            directive,
            failed_at,
            srba_switches,
            search_dwells,
        } = self;
        buf.put_u16(serving_rx_beam.0);
        monitor.encode(buf);
        table.encode(buf);
        phase.encode(buf);
        match directive {
            None => buf.put_u8(0),
            Some(d) => {
                buf.put_u8(1);
                d.encode(buf);
            }
        }
        wire::put_opt_time(buf, *failed_at);
        wire::put_varu64(buf, *srba_switches);
        wire::put_varu64(buf, *search_dwells);
    }
}

// ---------------------------------------------------------------------------
// the fold
// ---------------------------------------------------------------------------

/// Complete serializable protocol state: one arm per protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolState {
    Silent(SilentState),
    Reactive(ReactiveState),
}

impl ProtocolState {
    /// Canonical binary encoding: version byte, arm tag, payload. The
    /// recorder stores each incarnation's final state this way, and the
    /// verified refold (`st_net::replay_run`) compares its own final
    /// state's encoding with it byte for byte; nothing decodes it. Each
    /// struct encoder beneath destructures its value exhaustively, so a
    /// field added without being encoded fails to compile.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(WIRE_VERSION);
        match self {
            ProtocolState::Silent(s) => {
                buf.put_u8(0);
                s.encode(buf);
            }
            ProtocolState::Reactive(r) => {
                buf.put_u8(1);
                r.encode(buf);
            }
        }
    }

    pub fn serving_rx_beam(&self) -> BeamId {
        match self {
            ProtocolState::Silent(s) => s.serving_rx_beam(),
            ProtocolState::Reactive(r) => r.serving_rx_beam(),
        }
    }

    /// The receive beam the mobile should use during measurement gaps.
    pub fn gap_rx_beam(&self, codebook: &Codebook) -> BeamId {
        match self {
            ProtocolState::Silent(s) => s.gap_rx_beam(codebook),
            ProtocolState::Reactive(r) => r.gap_rx_beam(),
        }
    }

    /// Receive-beam dwells spent searching, over all passes.
    pub fn search_dwells(&self) -> u64 {
        match self {
            ProtocolState::Silent(s) => s.stats().search_dwells,
            ProtocolState::Reactive(r) => r.search_dwells(),
        }
    }

    /// The tracked neighbor beam (Silent Tracker only): (cell, tx beam,
    /// rx beam).
    pub fn tracked(&self) -> Option<(CellId, TxBeamIndex, BeamId)> {
        match self {
            ProtocolState::Silent(s) => s.tracked(),
            ProtocolState::Reactive(_) => None,
        }
    }

    /// Smoothed RSS of the tracked neighbor beam (Silent Tracker only).
    pub fn neighbor_level(&self) -> Option<Dbm> {
        match self {
            ProtocolState::Silent(s) => s.neighbor_level(),
            ProtocolState::Reactive(_) => None,
        }
    }

    /// Protocol counters (Silent Tracker only).
    pub fn stats(&self) -> Option<TrackerStats> {
        match self {
            ProtocolState::Silent(s) => Some(s.stats()),
            ProtocolState::Reactive(_) => None,
        }
    }
}

/// Fold one event into the state in place, appending actions to `out`.
///
/// Inlined into its callers (the trace refold and `Proto::handle` in
/// `st_net`), with both arms' `handle` and the Silent Tracker handlers of
/// the most frequent records (tick runs, serving RSS samples and probes:
/// 87.6% of a recorded street trace), so a caller's match on the decoded
/// tag flows straight into the fold's and the event stays in registers.
/// The handlers of rare records (PDUs, link loss, RACH failure, the
/// handover itself) stay out of line. Dwell ends (9.9%) and neighbor
/// SSBs (2.5%) are left to the compiler: forcing them inline measured no
/// faster.
#[inline(always)]
pub fn step_mut(
    ctx: &ProtocolCtx,
    state: &mut ProtocolState,
    event: &ProtocolEvent,
    out: &mut Vec<Action>,
) {
    match state {
        ProtocolState::Silent(s) => s.handle(ctx, event, out),
        ProtocolState::Reactive(r) => r.handle(ctx, event, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_phy::codebook::BeamwidthClass;

    fn ctx() -> ProtocolCtx {
        let mut cfg = TrackerConfig::paper_defaults();
        cfg.ewma_alpha = 1.0;
        ProtocolCtx::new(
            cfg,
            UeId(1),
            CellId(0),
            Codebook::for_class(BeamwidthClass::Narrow),
        )
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn step_is_pure_on_clones() {
        let ctx = ctx();
        let state = ProtocolState::Silent(SilentState::initial(&ctx, BeamId(4)));
        let ev = ProtocolEvent::ServingRss {
            at: t(1),
            rss: Dbm(-62.0),
        };
        let (mut s1, mut s2) = (state.clone(), state);
        let (mut a1, mut a2) = (Vec::new(), Vec::new());
        step_mut(&ctx, &mut s1, &ev, &mut a1);
        step_mut(&ctx, &mut s2, &ev, &mut a2);
        assert_eq!(s1, s2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn tick_run_is_equivalent_to_individual_ticks() {
        // Drive a silent instance into CellAssist, then compare folding
        // one TickRun against folding each Tick — states and actions must
        // match exactly, including for runs straddling the deadline.
        let ctx = ctx();
        let mut base = SilentState::initial(&ctx, BeamId(4));
        let mut out = Vec::new();
        base.handle(
            &ctx,
            &ProtocolEvent::ServingRss {
                at: t(1),
                rss: Dbm(-60.0),
            },
            &mut out,
        );
        // Big drop → MobileAdapt; hold it past settle_time → CellAssist.
        base.handle(
            &ctx,
            &ProtocolEvent::ServingRss {
                at: t(2),
                rss: Dbm(-70.0),
            },
            &mut out,
        );
        base.handle(
            &ctx,
            &ProtocolEvent::ServingRss {
                at: t(50),
                rss: Dbm(-70.0),
            },
            &mut out,
        );
        assert!(matches!(
            base.serving_phase,
            ServingPhase::CellAssist { .. }
        ));

        let period = SimDuration::from_millis(1);
        for (start_ms, count) in [(51u64, 200u64), (51, 10), (200, 3), (51, 0)] {
            let mut a = base.clone();
            let mut b = base.clone();
            let mut acts_a = Vec::new();
            let mut acts_b = Vec::new();
            for k in 0..count {
                a.handle(
                    &ctx,
                    &ProtocolEvent::Tick {
                        at: t(start_ms) + period * k,
                    },
                    &mut acts_a,
                );
            }
            b.handle(
                &ctx,
                &ProtocolEvent::TickRun {
                    start: t(start_ms),
                    period,
                    count,
                },
                &mut acts_b,
            );
            assert_eq!(a, b, "state diverged for start={start_ms} count={count}");
            assert_eq!(acts_a, acts_b);
        }
    }

    #[test]
    fn event_codec_round_trips_every_variant() {
        let events = vec![
            ProtocolEvent::ServingRss {
                at: t(1),
                rss: Dbm(-61.5),
            },
            ProtocolEvent::ServingProbe {
                at: t(2),
                rx_beam: BeamId(3),
                rss: Dbm(-70.25),
            },
            ProtocolEvent::NeighborSsb {
                at: t(3),
                cell: CellId(2),
                tx_beam: 7,
                rx_beam: BeamId(11),
                rss: Dbm(-80.125),
            },
            ProtocolEvent::DwellComplete { at: t(4) },
            ProtocolEvent::FromServing {
                at: t(5),
                pdu: Pdu::BeamSwitchCommand {
                    cell: CellId(0),
                    tx_beam: 5,
                },
            },
            ProtocolEvent::ServingLinkLost { at: t(6) },
            ProtocolEvent::RachFailed { at: t(7) },
            ProtocolEvent::Tick { at: t(8) },
            ProtocolEvent::TickRun {
                start: t(9),
                period: SimDuration::from_millis(1),
                count: 42,
            },
        ];
        let (mut buf, mut prev) = (Vec::new(), SimTime::ZERO);
        for e in &events {
            prev = e.encode_from(prev, &mut buf);
        }
        let (mut cur, mut prev) = (&buf[..], SimTime::ZERO);
        for e in &events {
            let (got, anchor) = ProtocolEvent::decode_from(&mut cur, prev).unwrap();
            assert_eq!(&got, e);
            prev = anchor;
        }
        assert!(cur.is_empty());
    }

    /// Which variant `a` is: a match without a wildcard, so a new
    /// variant must be added to the digest test below.
    fn variant(a: &Action) -> usize {
        match a {
            Action::SetServingRxBeam(_) => 0,
            Action::SendToServing(_) => 1,
            Action::SetGapRxBeam(_) => 2,
            Action::ExecuteHandover(_) => 3,
            Action::SearchFailed { .. } => 4,
            Action::NeighborAcquired(_) => 5,
        }
    }

    #[test]
    fn hashing_an_action_in_place_digests_its_encoding() {
        let directive = |reason| HandoverDirective {
            target: CellId(2),
            ssb_beam: 5,
            rx_beam: BeamId(7),
            reason,
            at: t(9),
        };
        let actions = [
            Action::SetServingRxBeam(BeamId(4)),
            Action::SendToServing(Pdu::BeamSwitchRequest {
                cell: CellId(1),
                ue: UeId(9),
                suggested_tx_beam: u16::MAX,
            }),
            Action::SetGapRxBeam(BeamId(11)),
            Action::ExecuteHandover(directive(HandoverReason::NeighborStronger)),
            Action::ExecuteHandover(directive(HandoverReason::ServingLost)),
            Action::SearchFailed { dwells_used: 300 },
            Action::NeighborAcquired(Discovery {
                cell: CellId(2),
                tx_beam: 5,
                rx_beam: BeamId(7),
                rss: Dbm(-71.25),
                at: t(3),
            }),
        ];
        let mut covered = [false; 6];
        let (mut stream, mut stream_bytes) = (wire::Fnv64::new(), Vec::new());
        for a in &actions {
            covered[variant(a)] = true;
            let mut bytes = Vec::new();
            a.encode(&mut bytes);
            let mut want = wire::Fnv64::new();
            want.write(&bytes);
            let mut got = wire::Fnv64::new();
            a.encode(&mut got);
            assert_eq!(got, want, "{a:?}");
            a.encode(&mut stream);
            stream_bytes.extend_from_slice(&bytes);
        }
        assert!(covered.iter().all(|&c| c), "every variant");
        let mut want = wire::Fnv64::new();
        want.write(&stream_bytes);
        assert_eq!(stream, want, "a whole action stream");
    }
}
